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
        probs = np.array(self.probs, dtype=np.float64)  # a copy the caller cannot change
        if probs.ndim != 1 or probs.size < 1:
            raise ValueError(f"probs must be a nonempty 1-d vector, got shape {probs.shape}")
        # one pass accepts a distribution (entries in [0, 1] are finite and cannot
        # overflow the sum); any other vector gets the checks that name its fault
        if not (0.0 <= probs.min() and probs.max() <= 1.0
                and abs(float(probs.sum()) - 1.0) <= NORM_TOL):
            _check_probs(probs)
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return self.probs.size


def _check_probs(probs: np.ndarray) -> None:
    """Raise for the first fault of a probability vector: a non-finite entry, a
    negative entry or a sum off 1 by more than NORM_TOL."""
    if not np.all(np.isfinite(probs)):
        raise ValueError("probs must be finite")
    if np.any(probs < 0.0):
        raise ValueError(f"probs must be nonnegative, got min {float(probs.min())!r}")
    with np.errstate(over="ignore"):  # an overflowing sum is the inf reported below
        total = float(probs.sum())
    if abs(total - 1.0) > NORM_TOL:
        raise ValueError(f"probs must sum to 1 within {NORM_TOL}, got {total!r}")


def _column_entropies(likelihood: np.ndarray) -> np.ndarray:
    """Outcome entropy of each likelihood column, with 0*log(0) := 0."""
    return np.where(
        likelihood > 0.0, -likelihood * np.log(np.where(likelihood > 0.0, likelihood, 1.0)), 0.0
    ).sum(axis=0)


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

    Raises DegenerateDistributionError for all-zero or negative input. Weights
    whose sum overflows are first divided by the largest of them.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size < 1:
        raise DegenerateDistributionError(f"weights must be a nonempty vector, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise DegenerateDistributionError("weights must be finite")
    if np.any(w < 0.0):
        raise DegenerateDistributionError(f"weights must be nonnegative, got min {w.min()}")
    with np.errstate(over="ignore"):
        total = w.sum()
    if total <= 0.0:
        raise DegenerateDistributionError("weights sum to zero, cannot normalize")
    if np.isinf(total):
        w = w / w.max()
        total = w.sum()
    return Categorical(w / total)


def softmax(logits, precision: float = 1.0) -> Categorical:
    """probs[i] proportional to exp(precision * logits[i]).

    precision = 0 gives the uniform distribution; a precision so large that
    the scaled gaps overflow gives the argmax limit (uniform over the ties).
    """
    return Categorical(_softmax_probs(logits, precision))


def _softmax_probs(logits, precision: float) -> np.ndarray:
    """softmax's probabilities as an array, after its checks on the arguments."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1 or z.size < 1:
        raise ValueError(f"logits must be a nonempty vector, got shape {z.shape}")
    if not np.isfinite(z).all():
        raise ValueError("logits must be finite")
    if not (np.isfinite(precision) and precision >= 0.0):
        raise ValueError(f"precision must be a nonnegative real, got {precision!r}")
    if precision == 0.0:  # even where the gaps below overflow
        return np.full(z.size, 1.0 / z.size)
    with np.errstate(over="ignore"):
        e = np.exp(precision * (z - z.max()))
    return e / e.sum()


def _log_mass(p: np.ndarray) -> np.ndarray:
    """log p where p has mass and 0 elsewhere, so that p * _log_mass(p) follows
    0*log(0) := 0 with every entry summed in place."""
    mass = p > 0.0
    return np.log(p) if mass.all() else np.log(np.where(mass, p, 1.0))


def _kl(p: np.ndarray, log_q: np.ndarray) -> float:
    """sum(p * (log p - log_q)), with 0*log(0) := 0."""
    return float((p * (_log_mass(p) - log_q)).sum())


def entropy(p: Categorical) -> float:
    """-sum(p * log p) in nats, with 0*log(0) := 0. Lies in [0, log n]."""
    return float(-(p.probs * _log_mass(p.probs)).sum())


def kl_divergence(p: Categorical, q: Categorical) -> float:
    """sum(p * (log p - log q)) in nats, q floored at LOG_EPS."""
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    return _kl(p.probs, clamped_log(q.probs))
