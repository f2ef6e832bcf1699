"""Per-policy state estimation and free-energy evaluation.

Beliefs Q(s_tau | policy) come from one forward pass over timesteps: Q(s_tau)
is the normalized product of the forward prediction (transition applied to
Q(s_{tau-1}), the state prior at tau = 1) and the likelihood row of the
observation at tau, when one exists: filter_step, which the closed loop shares.

Backward (future-to-past) messages are deliberately not applied: they would
break the pure-prediction contract for unobserved timesteps. Without them the
pass yields the exact filtered posteriors, which minimize the free energy
below; there it telescopes to the exact surprisal bound.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GenerativeModel, ModelSpecError, Policy
from .numerics import Categorical, _kl, clamped_log


class ImpossibleObservationError(ModelSpecError):
    """An observed outcome has zero probability under the model.

    The model contradicts the process that produced the observation. trial
    and epoch locate it when it arose in a closed-loop trial.
    """

    def __init__(self, message: str, trial: int | None = None, epoch: int | None = None):
        super().__init__(message if trial is None else f"trial {trial}, epoch {epoch}: {message}")
        self.trial = trial
        self.epoch = epoch


@dataclass(frozen=True)
class InferenceResult:
    """Filtered per-timestep state beliefs for one policy."""

    states: tuple[Categorical, ...]   # Q(s_tau | policy), tau = 1..horizon
    sweeps: int = 1  # always one pass; kept because benches/tracer.py reads it per call


def _check_observed(model: GenerativeModel, observed) -> dict[int, int]:
    obs_map: dict[int, int] = {}
    for timestep, outcome in observed:
        if not 1 <= timestep <= model.horizon:
            raise ValueError(f"observed timestep {timestep} outside 1..{model.horizon}")
        if not 0 <= outcome < model.num_outcomes:
            raise ValueError(f"observed outcome {outcome} outside 0..{model.num_outcomes - 1}")
        if timestep in obs_map:
            raise ValueError(f"duplicate observation for timestep {timestep}")
        obs_map[timestep] = outcome
    return obs_map


def filter_step(model: GenerativeModel, pred: np.ndarray, outcome: int, tau: int,
                trial: int | None = None) -> np.ndarray:
    """Q(s_tau) from its forward prediction and the outcome at tau; in a trial tau is the epoch."""
    weighted = model.likelihood[outcome] * pred
    total = weighted.sum()
    if total <= 0.0:
        message = f"outcome {outcome} at timestep {tau} has zero probability"
        raise ImpossibleObservationError(message, trial, None if trial is None else tau)
    return weighted / total


def infer_states(model: GenerativeModel, policy: Policy, observed) -> InferenceResult:
    """Filter Q(s_tau | policy) for tau = 1..horizon given (timestep, outcome) pairs."""
    obs_map = _check_observed(model, observed)
    horizon = model.horizon
    if len(policy.actions) != horizon - 1:
        raise ValueError(f"policy length {len(policy.actions)} does not match horizon {horizon}")

    beliefs: list[np.ndarray] = []
    for tau in range(1, horizon + 1):
        pred = (model.transitions[policy.actions[tau - 2]] @ beliefs[-1] if beliefs
                else model.state_prior.probs)
        beliefs.append(filter_step(model, pred, obs_map[tau], tau) if tau in obs_map
                       else pred / pred.sum())
    return InferenceResult(states=tuple(Categorical(q) for q in beliefs))


def vfe(model: GenerativeModel, q_states, observed, policy: Policy) -> float:
    """Variational free energy of the given beliefs, in nats.

    Per timestep: KL from the belief to its forward prediction, minus expected
    log-likelihood of the observation at that timestep if one exists. At the
    filtered beliefs from infer_states this equals the exact surprisal
    -log P(o_{1:t} | policy).
    """
    obs_map = _check_observed(model, observed)
    if len(q_states) != model.horizon:
        raise ValueError(f"expected {model.horizon} belief vectors, got {len(q_states)}")
    total = 0.0
    for tau in range(1, model.horizon + 1):
        q = q_states[tau - 1].probs
        if q.size != model.num_states:
            raise ValueError(f"belief at timestep {tau} has wrong length {q.size}")
        if tau == 1:
            pred = model.state_prior.probs
        else:
            pred = model.transitions[policy.actions[tau - 2]] @ q_states[tau - 2].probs
        total += _kl(q, clamped_log(pred))
        if tau in obs_map:
            total -= float((q * clamped_log(model.likelihood[obs_map[tau]])).sum())
    return total


def bma_beliefs(policy_posterior: Categorical, per_policy_states) -> np.ndarray:
    """Posterior-weighted average of per-policy (timestep x state) belief tables.

    per_policy_states[i] is None for a policy whose action prefix contradicts
    the executed actions; such a policy must carry zero posterior mass. Row k
    of the result is the mixed belief at timestep k + 1.
    """
    weights = policy_posterior.probs
    if len(per_policy_states) != len(weights):
        raise ValueError("one belief sequence per policy is required")
    kept = np.flatnonzero(weights > 0.0).tolist()
    missing = next((i for i in kept if per_policy_states[i] is None), None)
    if missing is not None:
        raise ValueError(f"policy {missing} has posterior mass but no beliefs")
    if not kept:
        raise ValueError("policy posterior has no mass")
    return _bma_mix(weights[kept], np.array([per_policy_states[i] for i in kept]))


def _bma_mix(weights: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """bma_beliefs of the stacked tables with mass, each weighted, rows normalised."""
    # an axis-0 sum adds the weighted tables in policy order, as a loop would
    mixed = (weights[:, None, None] * tables).sum(axis=0)
    return mixed / mixed.sum(axis=1, keepdims=True)
