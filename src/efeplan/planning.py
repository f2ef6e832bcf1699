"""Policy scoring and action selection.

The full planning objective for a future timestep combines two values to be
maximized: expected information gain about states (how much a predicted
outcome would update state beliefs) and extrinsic value (expected normalized
log-preference of predicted outcomes). Reduced objectives keep one of the two
or score states against the model's risk_state_prior instead. Per-timestep
scores are summed over the remaining horizon and mapped to a policy
distribution by a softmax at a given precision, restricted to policies
consistent with the actions already executed.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import GenerativeModel, Policy, PolicySet
from .numerics import (
    Categorical,
    _entropy,
    _kl,
    clamped_log,
    entropy,
    kl_divergence,
    log_sum_exp,
    softmax,
)


class ConfigurationError(ValueError):
    """Raised when an objective needs a model field the model does not define."""


class ObjectiveKind(Enum):
    """Closed enumeration of planning objectives."""

    EXPECTED_FREE_ENERGY = "efe"          # -info_gain - extrinsic_value
    INFO_GAIN_ONLY = "eig"                # -info_gain
    EXPECTED_UTILITY_OUTCOMES = "eu"      # -extrinsic_value
    EXPECTED_UTILITY_STATES = "eu-states"  # -E_q[log reference_prior(s)]
    RISK_ONLY = "klc"                     # KL(predicted states || reference prior)


@dataclass(frozen=True)
class EfeBreakdown:
    """Score components for one (policy, timestep), all in nats.

    risk_states needs the model's risk_state_prior; it is NaN when the model
    does not define one.
    """

    risk_states: float
    ambiguity: float
    intrinsic: float
    extrinsic: float
    total: float


@dataclass(frozen=True)
class PlanContext:
    """Where the planner stands: the epoch and the actions executed before it."""

    current_epoch: int
    executed_actions: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "executed_actions", tuple(int(a) for a in self.executed_actions))
        if len(self.executed_actions) != self.current_epoch - 1:
            raise ValueError(
                f"expected {self.current_epoch - 1} executed actions for epoch "
                f"{self.current_epoch}, got {len(self.executed_actions)}"
            )

    def viable(self, policies: Sequence[Policy]) -> list[int]:
        """Indices of the policies whose action prefix matches the executed actions."""
        executed = self.executed_actions
        return [i for i, pol in enumerate(policies) if pol.actions[: len(executed)] == executed]


def _check_states(name: str, belief: Categorical, model: GenerativeModel) -> None:
    if len(belief) != model.num_states:
        raise ValueError(f"{name} has {len(belief)} states, the model has {model.num_states}")


def predictive_states(
    model: GenerativeModel,
    q_now: Categorical,
    policy: Policy,
    from_epoch: int,
    to_epoch: int,
) -> Categorical:
    """Propagate the current state belief along the policy's transitions."""
    if not 1 <= from_epoch <= to_epoch <= model.horizon:
        raise ValueError(
            f"need 1 <= from_epoch <= to_epoch <= {model.horizon}, "
            f"got {from_epoch}..{to_epoch}"
        )
    _check_states("q_now", q_now, model)
    q = q_now.probs
    for tau in range(from_epoch + 1, to_epoch + 1):
        q = model.transitions[policy.actions[tau - 2]] @ q
    return Categorical(q / q.sum())


def predictive_outcome(q_s: Categorical, likelihood: np.ndarray) -> Categorical:
    """Outcome distribution implied by a state belief."""
    if likelihood.shape[1] != len(q_s):
        raise ValueError(
            f"likelihood has {likelihood.shape[1]} state columns, belief has {len(q_s)}"
        )
    q_o = likelihood @ q_s.probs
    return Categorical(q_o / q_o.sum())


def risk_states(q_s: Categorical, prior_s: Categorical) -> float:
    """Divergence of predicted states from the reference state prior, nats."""
    return kl_divergence(q_s, prior_s)


def ambiguity(q_s: Categorical, likelihood: np.ndarray) -> float:
    """Expected conditional outcome entropy under the state belief, nats."""
    if likelihood.shape[1] != len(q_s):
        raise ValueError(
            f"likelihood has {likelihood.shape[1]} state columns, belief has {len(q_s)}"
        )
    return float(q_s.probs @ _column_entropies(likelihood))


def _column_entropies(likelihood: np.ndarray) -> np.ndarray:
    """Outcome entropy of each likelihood column, with 0*log(0) := 0."""
    return np.where(
        likelihood > 0.0, -likelihood * np.log(np.where(likelihood > 0.0, likelihood, 1.0)), 0.0
    ).sum(axis=0)


def expected_info_gain(q_s: Categorical, likelihood: np.ndarray) -> float:
    """Mutual information between states and outcomes under the predictive joint.

    Computed as predicted-outcome entropy minus ambiguity.
    """
    return entropy(predictive_outcome(q_s, likelihood)) - ambiguity(q_s, likelihood)


def extrinsic_value(q_o: Categorical, preferences: np.ndarray) -> float:
    """Expected normalized log-preference of predicted outcomes, nats."""
    if preferences.shape != (len(q_o),):
        raise ValueError(
            f"preferences has shape {preferences.shape}, expected ({len(q_o)},)"
        )
    return float(q_o.probs @ (preferences - log_sum_exp(preferences)))


@dataclass(frozen=True, eq=False)
class PolicyScore:
    """One policy scored over the remaining horizon.

    breakdowns[k] and states[k] belong to timestep current_epoch + 1 + k.
    """

    total: float                          # G, the summed score; lower is better
    breakdowns: tuple[EfeBreakdown, ...]
    states: np.ndarray                    # predicted Q(s_tau | policy), timestep x state

    @property
    def summed(self) -> EfeBreakdown:
        """Every component summed over the remaining horizon; total is G."""
        parts = self.breakdowns
        return EfeBreakdown(
            risk_states=sum(p.risk_states for p in parts),
            ambiguity=sum(p.ambiguity for p in parts),
            intrinsic=sum(p.intrinsic for p in parts),
            extrinsic=sum(p.extrinsic for p in parts),
            total=sum(p.total for p in parts),
        )


def score_policies(
    model: GenerativeModel,
    q_now: Categorical,
    policies: Sequence[Policy],
    plan_ctx: PlanContext,
    objective: ObjectiveKind,
) -> list[PolicyScore]:
    """Score each policy over the remaining horizon, one PolicyScore per policy.

    Policies that share actions after the current epoch share predictions:
    the scorer walks the tree of remaining-action prefixes and predicts and
    scores each distinct prefix once. Every component is populated regardless
    of objective; risk is NaN when the model has no risk_state_prior, and the
    eu-states and klc objectives, which score against it, are refused.
    """
    t = plan_ctx.current_epoch
    if t >= model.horizon:
        raise ValueError(f"no future timesteps to plan at epoch {t} of {model.horizon}")
    _check_states("q_now", q_now, model)
    prior = model.risk_state_prior
    if objective in (ObjectiveKind.EXPECTED_UTILITY_STATES, ObjectiveKind.RISK_ONLY) and prior is None:
        raise ConfigurationError(
            f"objective {objective.value} needs a model that defines risk_state_prior"
        )

    likelihood = model.likelihood
    column_entropies = _column_entropies(likelihood)
    log_preferences = model.preferences - log_sum_exp(model.preferences)
    log_prior = None if prior is None else clamped_log(prior.probs)

    def score(q: np.ndarray) -> EfeBreakdown:
        """The public term functions' arithmetic on one predicted state belief."""
        q_o = likelihood @ q
        p_o = q_o / q_o.sum()
        ambig = float(q @ column_entropies)
        intrinsic = _entropy(p_o) - ambig
        extrinsic = float(p_o @ log_preferences)
        risk = math.nan if log_prior is None else _kl(q, log_prior)
        if objective is ObjectiveKind.EXPECTED_FREE_ENERGY:
            total = -intrinsic - extrinsic
        elif objective is ObjectiveKind.INFO_GAIN_ONLY:
            total = -intrinsic
        elif objective is ObjectiveKind.EXPECTED_UTILITY_OUTCOMES:
            total = -extrinsic
        elif objective is ObjectiveKind.EXPECTED_UTILITY_STATES:
            total = -float(q @ log_prior)
        else:  # RISK_ONLY
            total = risk
        return EfeBreakdown(risk_states=risk, ambiguity=ambig, intrinsic=intrinsic,
                            extrinsic=extrinsic, total=total)

    # remaining-action prefix -> (unnormalised rollout, normalised prediction, breakdown)
    nodes: dict[tuple[int, ...], tuple] = {(): (q_now.probs, None, None)}
    scores: list[PolicyScore] = []
    for policy in policies:
        rest = policy.actions[t - 1:]
        path = [nodes[()]]
        for k in range(1, len(rest) + 1):
            if rest[:k] not in nodes:
                raw = model.transitions[rest[k - 1]] @ path[-1][0]
                q_s = raw / raw.sum()
                nodes[rest[:k]] = (raw, q_s, score(q_s))
            path.append(nodes[rest[:k]])
        parts = tuple(node[2] for node in path[1:])
        scores.append(PolicyScore(
            total=sum(part.total for part in parts),
            breakdowns=parts,
            states=np.array([node[1] for node in path[1:]]),
        ))
    return scores


def expected_free_energy(
    model: GenerativeModel,
    q_now: Categorical,
    policy: Policy,
    plan_ctx: PlanContext,
    objective: ObjectiveKind,
) -> tuple[float, list[EfeBreakdown]]:
    """Score one policy over the remaining horizon.

    Returns the summed score (lower is better) and a per-future-timestep
    breakdown with every component populated regardless of objective.
    """
    [scored] = score_policies(model, q_now, [policy], plan_ctx, objective)
    return scored.total, list(scored.breakdowns)


def policy_posterior(
    g_values,
    policies: PolicySet,
    plan_ctx: PlanContext,
    precision: float = 1.0,
) -> Categorical:
    """Softmax of negative scores at precision, a nonnegative inverse
    temperature (0 is uniform, a huge value the argmax limit), over the
    policies plan_ctx.viable keeps; the rest get zero."""
    g = np.asarray(g_values, dtype=np.float64)
    if g.shape != (len(policies),):
        raise ValueError(f"expected one score per policy ({len(policies)}), got shape {g.shape}")
    viable = plan_ctx.viable(policies)
    if not viable:
        raise ValueError(
            f"no policy is consistent with executed actions {plan_ctx.executed_actions}"
        )
    if not np.all(np.isfinite(g[viable])):
        raise ValueError("scores of viable policies must be finite")
    kept = softmax(-g[viable], precision)
    probs = np.zeros(len(policies))
    probs[viable] = kept.probs
    return Categorical(probs)


def action_marginal(
    policy_post: Categorical,
    policies: PolicySet,
    epoch: int,
    num_actions: int,
) -> Categorical:
    """Marginal probability of each action at the given epoch under the posterior."""
    if not policies or len(policy_post) != len(policies):
        raise ValueError("policy posterior and policy set sizes differ")
    horizon_steps = len(policies[0].actions)
    if not 1 <= epoch <= horizon_steps:
        raise ValueError(f"epoch {epoch} outside 1..{horizon_steps}")
    marginal = np.zeros(num_actions)
    for prob, pol in zip(policy_post.probs, policies):
        marginal[pol.actions[epoch - 1]] += prob
    return Categorical(marginal / marginal.sum())


def select_action(
    action_marg: Categorical,
    rng: np.random.Generator,
    tie_tolerance: float = 1e-9,
) -> int:
    """Most likely action; ties within tie_tolerance break uniformly at random.

    Actions with zero probability never tie: no viable policy takes them.
    Consumes exactly one draw from the generator per call so matched seeds
    stay aligned whether or not a tie occurs.
    """
    probs = action_marg.probs
    tied = np.flatnonzero((probs > 0.0) & (probs >= probs.max() - tie_tolerance))
    draw = rng.random()
    return int(tied[int(draw * len(tied))])


def evidence_bound_diagnostic(
    model: GenerativeModel,
    q_now: Categorical,
    policy: Policy,
    plan_ctx: PlanContext,
    prior_states: Categorical,
) -> list[tuple[float, float, float]]:
    """Per future timestep: (info_gain, expected_log_evidence, evidence_bound).

    expected_log_evidence is the predicted-outcome expectation of the log
    marginal outcome probability under the reference prior; the bound is the
    nonnegative gap separating the full score from the other two terms.
    """
    if prior_states is None:
        raise ConfigurationError("evidence_bound_diagnostic requires prior_states")
    _check_states("prior_states", prior_states, model)
    [scored] = score_policies(model, q_now, [policy], plan_ctx,
                              ObjectiveKind.EXPECTED_FREE_ENERGY)
    likelihood = model.likelihood
    prior = prior_states.probs
    p_o = likelihood @ prior
    # log P(s | o) under the reference prior, one row per outcome
    log_posteriors = np.stack([
        clamped_log(likelihood[o] * prior / p_o[o] if p_o[o] > 0.0 else np.zeros_like(prior))
        for o in range(likelihood.shape[0])
    ])
    log_p_o = clamped_log(p_o)
    rows = []
    for part, q_s in zip(scored.breakdowns, scored.states):
        q_o = likelihood @ q_s
        # sum over outcomes o with mass of q_o[o] * KL[P(s | o) under q_s || under the prior]
        bound = 0.0
        for o in range(likelihood.shape[0]):
            if q_o[o] > 0.0:
                bound += float(q_o[o]) * _kl(likelihood[o] * q_s / q_o[o], log_posteriors[o])
        rows.append((part.intrinsic, float(q_o @ log_p_o), bound))
    return rows


def state_outcome_utility_comparison(
    model: GenerativeModel,
    q_s: Categorical,
    prior_states: Categorical,
) -> tuple[float, float]:
    """(expected log state prior, expected log outcome prior) under the belief.

    Reported side by side for diagnostics; neither side is asserted to bound
    the other.
    """
    _check_states("q_s", q_s, model)
    _check_states("prior_states", prior_states, model)
    e_log_ps = float(q_s.probs @ clamped_log(prior_states.probs))
    q_o = model.likelihood @ q_s.probs
    p_o = model.likelihood @ prior_states.probs
    e_log_po = float(q_o @ clamped_log(p_o))
    return e_log_ps, e_log_po
