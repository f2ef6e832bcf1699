"""Categorical-distribution arithmetic: normalization, softmax, entropy, KL.

All information quantities are in nats. Logs of probabilities are clamped
at LOG_EPS because the maze matrices contain exact zeros; the 0*log(0) := 0
convention is used wherever the weight itself is zero.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LOG_EPS = 1e-16     # floor applied inside every log of a probability
NORM_TOL = 1e-9     # tolerance on "entries sum to 1"


class DegenerateDistributionError(ValueError):
    """Raised for weights that cannot be normalized into a distribution."""


@dataclass(frozen=True, eq=False)
class Categorical:
    """Normalized probability vector over a finite support."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size < 1:
            raise ValueError(f"probs must be a nonempty 1-d vector, got shape {probs.shape}")
        if not np.all(np.isfinite(probs)):
            raise ValueError("probs must be finite")
        if np.any(probs < 0.0):
            raise ValueError(f"probs must be nonnegative, got min {float(probs.min())!r}")
        total = float(probs.sum())
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"probs must sum to 1 within {NORM_TOL}, got {total!r}")
        probs = probs.copy()
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return self.probs.size


def clamped_log(x: np.ndarray) -> np.ndarray:
    """log with probabilities floored at LOG_EPS."""
    return np.log(np.maximum(np.asarray(x, dtype=np.float64), LOG_EPS))


def log_sum_exp(v: np.ndarray) -> float:
    """log(sum(exp(v))) with max-subtraction for overflow safety."""
    v = np.asarray(v, dtype=np.float64)
    m = v.max()
    return float(m + np.log(np.exp(v - m).sum()))


def normalize(weights) -> Categorical:
    """Scale nonnegative weights into a Categorical.

    Raises DegenerateDistributionError for all-zero or negative input.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size < 1:
        raise DegenerateDistributionError(f"weights must be a nonempty vector, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise DegenerateDistributionError("weights must be finite")
    if np.any(w < 0.0):
        raise DegenerateDistributionError(f"weights must be nonnegative, got min {w.min()}")
    total = w.sum()
    if total <= 0.0:
        raise DegenerateDistributionError("weights sum to zero, cannot normalize")
    return Categorical(w / total)


def softmax(logits, precision: float = 1.0) -> Categorical:
    """probs[i] proportional to exp(precision * logits[i]).

    precision = 0 gives the uniform distribution; a precision so large that
    the scaled gaps overflow gives the argmax limit (uniform over the ties).
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1 or z.size < 1:
        raise ValueError(f"logits must be a nonempty vector, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("logits must be finite")
    if not (np.isfinite(precision) and precision >= 0.0):
        raise ValueError(f"precision must be a nonnegative real, got {precision!r}")
    if precision == 0.0:  # even where the gaps below overflow
        return Categorical(np.full(z.size, 1.0 / z.size))
    with np.errstate(over="ignore"):
        e = np.exp(precision * (z - z.max()))
    return Categorical(e / e.sum())


def _entropy(p: np.ndarray) -> float:
    """-sum(p * log p) over the entries of p with mass."""
    mask = p > 0.0
    return float(-(p[mask] * np.log(p[mask])).sum())


def _kl(p: np.ndarray, log_q: np.ndarray) -> float:
    """sum(p * (log p - log_q)) over the entries of p with mass."""
    mask = p > 0.0
    return float((p[mask] * (np.log(p[mask]) - log_q[mask])).sum())


def entropy(p: Categorical) -> float:
    """-sum(p * log p) in nats, with 0*log(0) := 0. Lies in [0, log n]."""
    return _entropy(p.probs)


def kl_divergence(p: Categorical, q: Categorical) -> float:
    """sum(p * (log p - log q)) in nats, q floored at LOG_EPS."""
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    return _kl(p.probs, clamped_log(q.probs))
