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

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import GenerativeModel, Policy, PolicySet
from .numerics import (
    Categorical,
    _column_entropies,
    _kl,
    _softmax_probs,
    clamped_log,
    entropy,
    kl_divergence,
    log_sum_exp,
)

TIE_TOLERANCE = 1e-9  # default gap below the top action probability that still ties


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

    def viable(self, policies: PolicySet) -> list[int]:
        """Indices of the policies whose action prefix matches the executed actions."""
        executed = self.executed_actions
        actions = policies.actions
        if actions.shape[1] < len(executed):
            return []
        return (actions[:, : len(executed)] == executed).all(axis=1).nonzero()[0].tolist()


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

    summed: EfeBreakdown                  # every component summed over the remaining horizon
    breakdowns: tuple[EfeBreakdown, ...]
    states: np.ndarray                    # predicted Q(s_tau | policy), timestep x state

    @property
    def total(self) -> float:
        """G, the summed score; lower is better."""
        return self.summed.total


def _row_sums(terms, p: np.ndarray) -> np.ndarray:
    """terms(entries, columns).sum() for each row of p over the row's entries with
    mass, equal to the 1-d sum of the masked row to the bit.

    With no zero in p every row is reduced at once. Otherwise a zero kept in
    place would move the other entries between numpy's pairwise blocks of
    eight, so each row's entries with mass are laid out on their own, rows with
    the same count of them together, and each such block is reduced at once.
    """
    mass = p > 0.0
    if mass.all():
        return terms(p, slice(None)).sum(axis=1)
    counts = mass.sum(axis=1)
    by_count = np.argsort(counts, kind="stable")
    kept = mass[by_count]
    values = terms(p[by_count][kept], np.nonzero(kept)[1])  # row after row
    sums = np.empty(len(p))
    row = start = 0
    for k, rows in enumerate(np.bincount(counts).tolist()):
        if rows:
            block = values[start:start + rows * k].reshape(rows, k)
            sums[by_count[row:row + rows]] = block.sum(axis=1)
            row, start = row + rows, start + rows * k
    return sums


def _dots(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """row @ v for each row, as stacked products equal to the 1-d ones."""
    return np.matmul(rows[:, None, :], v[:, None])[:, 0, 0]


@functools.lru_cache(maxsize=64)
def _tree_layout(num_actions: int, shape: tuple[int, int], key: bytes):
    """The tree of remaining-action prefixes of an int array, which depends on the
    actions alone: (steps, paths, rows).

    A rollout table holds the root in row 0, then the nodes level by level, a
    level's nodes numbered as the (action, parent) pairs some policy takes,
    action-major; it has rows rows. Each step (action, parents, start, stop)
    makes rows start..stop-1 from the parent rows by that action, and policy
    i's node at step k is row paths[i, k] + 1. Every array is read-only, as
    the cache hands the same ones to every caller.
    """
    actions = np.frombuffer(key, dtype=np.intp).reshape(shape)
    node = np.zeros(shape[0], dtype=np.intp)  # each policy's node in the parent level
    steps, paths = [], np.empty(shape, dtype=np.intp)
    first, row = 0, 1  # the parent level's first row; the next free row
    for k, column in enumerate(actions.T):
        taken = np.zeros((num_actions, row - first), dtype=bool)
        taken[column, node] = True
        node = np.cumsum(taken).reshape(taken.shape)[column, node] - 1
        paths[:, k] = row - 1 + node
        level = row
        for a in taken.any(axis=1).nonzero()[0].tolist():
            parents = first + taken[a].nonzero()[0]
            parents.flags.writeable = False
            steps.append((a, parents, row, row + len(parents)))
            row += len(parents)
        first = level
    paths.flags.writeable = False
    return tuple(steps), paths, row


def _score_tree(
    model: GenerativeModel,
    q: np.ndarray,
    actions: np.ndarray,
    objective: ObjectiveKind,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Predict and score the tree of remaining-action prefixes as arrays.

    q is the present state belief and actions an np.intp array whose row i
    holds policy i's actions after the present epoch; score_policies checks
    both. The tree's layout comes from _tree_layout, once per actions array;
    each of its steps predicts the nodes one action makes from their parents'
    unnormalised rollouts with one stacked product. Then every node is scored
    in one batch with the public term functions' arithmetic, to the bit, from
    the model's cached constants.
    Returns (summed, paths, parts, states): policy i's terms summed over its
    steps, in EfeBreakdown's field order; the node of its step k at
    paths[i, k]; and a node's terms and normalised prediction at parts[j] and
    states[j].
    """
    log_prior = model.log_risk_prior
    if objective in (ObjectiveKind.EXPECTED_UTILITY_STATES, ObjectiveKind.RISK_ONLY) and (
            log_prior is None):
        raise ConfigurationError(
            f"objective {objective.value} needs a model that defines risk_state_prior"
        )

    steps, paths, rows = _tree_layout(model.num_actions, actions.shape, actions.tobytes())
    raw = np.empty((rows, model.num_states))  # unnormalised rollouts
    raw[0] = q
    for a, parents, start, stop in steps:
        raw[start:stop] = np.matmul(model.transitions[a][None], raw[parents, :, None])[..., 0]

    raw = raw[1:]
    states = raw / raw.sum(axis=1, keepdims=True)
    q_o = np.matmul(model.likelihood[None], states[:, :, None])[..., 0]
    p_o = q_o / q_o.sum(axis=1, keepdims=True)
    ambig = _dots(states, model.column_entropies)
    intrinsic = -_row_sums(lambda p, _: p * np.log(p), p_o) - ambig
    extrinsic = _dots(p_o, model.log_preferences)
    risk = (np.full(len(states), math.nan) if log_prior is None else
            _row_sums(lambda q, columns: q * (np.log(q) - log_prior[columns]), states))
    if objective is ObjectiveKind.EXPECTED_FREE_ENERGY:
        total = -intrinsic - extrinsic
    elif objective is ObjectiveKind.INFO_GAIN_ONLY:
        total = -intrinsic
    elif objective is ObjectiveKind.EXPECTED_UTILITY_OUTCOMES:
        total = -extrinsic
    elif objective is ObjectiveKind.EXPECTED_UTILITY_STATES:
        total = -_dots(states, log_prior)
    else:  # RISK_ONLY
        total = risk
    parts = np.array([risk, ambig, intrinsic, extrinsic, total]).T

    # running sums from +0.0, which sums as sum()'s int 0 does: -0.0 parts give 0.0
    summed = np.zeros((len(actions), parts.shape[1]))
    for path in paths.T:
        summed = summed + parts[path]
    return summed, paths, parts, states


def score_policies(
    model: GenerativeModel,
    q_now: Categorical,
    policies: Sequence[Policy],
    plan_ctx: PlanContext,
    objective: ObjectiveKind,
) -> list[PolicyScore]:
    """Score each policy over the remaining horizon, one PolicyScore per policy.

    Policies that share actions after the current epoch share predictions:
    the scorer predicts and scores each distinct remaining-action prefix once
    (_score_tree). Every component is populated regardless of objective; risk
    is NaN when the model has no risk_state_prior, and the eu-states and klc
    objectives, which score against it, are refused. An objective's name, such
    as "efe", is taken as its member.
    """
    objective = ObjectiveKind(objective)
    t = plan_ctx.current_epoch
    if t >= model.horizon:
        raise ValueError(f"no future timesteps to plan at epoch {t} of {model.horizon}")
    for p in policies:
        if len(p.actions) != model.horizon - 1:
            raise ValueError(f"{p}: policy length {len(p.actions)} does not match "
                             f"horizon {model.horizon}")
    _check_states("q_now", q_now, model)
    actions = np.array([p.actions[t - 1:] for p in policies], dtype=np.intp)
    summed, paths, parts, states = _score_tree(
        model, q_now.probs, actions.reshape(len(policies), model.horizon - t), objective)
    breakdowns = [EfeBreakdown(*row) for row in parts.tolist()]
    return [PolicyScore(summed=EfeBreakdown(*sums),
                        breakdowns=tuple(breakdowns[j] for j in path), states=states[path])
            for sums, path in zip(summed.tolist(), paths.tolist())]


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
    scores = g[viable]
    if not np.isfinite(scores).all():
        raise ValueError("scores of viable policies must be finite")
    probs = np.zeros(len(policies))
    probs[viable] = _softmax_probs(-scores, precision)
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
    actions = policies.actions
    if not 1 <= epoch <= actions.shape[1]:
        raise ValueError(f"epoch {epoch} outside 1..{actions.shape[1]}")
    # adds each policy's probability in policy order, from 0.0
    marginal = np.bincount(actions[:, epoch - 1], policy_post.probs, minlength=num_actions)
    return Categorical(marginal / marginal.sum())


def tie_set(action_marg: Categorical, tie_tolerance: float = TIE_TOLERANCE) -> tuple[int, ...]:
    """The actions within tie_tolerance of the most likely one, ascending.

    Actions with zero probability never tie: no viable policy takes them.
    """
    probs = action_marg.probs
    return tuple(np.flatnonzero((probs > 0.0) & (probs >= probs.max() - tie_tolerance)).tolist())


def break_tie(tied: Sequence[int], rng: np.random.Generator) -> int:
    """One of the tied actions, uniformly at random from exactly one draw."""
    return tied[int(rng.random() * len(tied))]


def select_action(
    action_marg: Categorical,
    rng: np.random.Generator,
    tie_tolerance: float = TIE_TOLERANCE,
) -> int:
    """Most likely action; ties within tie_tolerance break uniformly at random.

    Consumes exactly one draw from the generator per call so matched seeds
    stay aligned whether or not a tie occurs.
    """
    return break_tie(tie_set(action_marg, tie_tolerance), rng)


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
