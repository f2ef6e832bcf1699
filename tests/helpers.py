"""Independent oracles and random-model generators for the test suite.

Everything here is deliberately brute force: evidence and posteriors come
from enumeration over full state sequences, information quantities from
explicit outcome loops. None of it shares code with the package paths it
checks: reference_scores composes the public per-term functions, not the
policy scorer it is compared with.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from efeplan.model import GenerativeModel, Policy, PolicySet
from efeplan.numerics import Categorical, clamped_log
from efeplan.planning import (
    EfeBreakdown,
    ObjectiveKind,
    ambiguity,
    expected_info_gain,
    extrinsic_value,
    predictive_outcome,
    predictive_states,
    risk_states,
)


def joint_probability(model: GenerativeModel, policy: Policy, states, obs_map) -> float:
    """P(observations, state sequence | policy) for one full state sequence."""
    p = model.state_prior.probs[states[0]]
    for tau in range(2, model.horizon + 1):
        p *= model.transitions[policy.actions[tau - 2]][states[tau - 1], states[tau - 2]]
    for tau, outcome in obs_map.items():
        p *= model.likelihood[outcome, states[tau - 1]]
    return float(p)


def exact_neg_log_evidence(model: GenerativeModel, policy: Policy, observed) -> float:
    """-log P(o_{1:t} | policy) by summing the joint over all state sequences."""
    obs_map = dict(observed)
    total = 0.0
    for states in itertools.product(range(model.num_states), repeat=model.horizon):
        total += joint_probability(model, policy, states, obs_map)
    return -np.log(total)


def exact_filter_marginal(model: GenerativeModel, policy: Policy, observed, tau: int) -> np.ndarray:
    """P(s_tau | o_{1:tau}, policy) by enumeration, observations after tau dropped."""
    obs_map = {t: o for t, o in observed if t <= tau}
    weights = np.zeros(model.num_states)
    for states in itertools.product(range(model.num_states), repeat=tau):
        padded = states + (0,) * (model.horizon - tau)
        p = model.state_prior.probs[states[0]]
        for step in range(2, tau + 1):
            p *= model.transitions[policy.actions[step - 2]][states[step - 1], states[step - 2]]
        for t, outcome in obs_map.items():
            p *= model.likelihood[outcome, states[t - 1]]
        weights[states[-1]] += p
    return weights / weights.sum()


def info_gain_by_update(q_s: np.ndarray, likelihood: np.ndarray) -> float:
    """Expected divergence of the outcome-conditioned posterior from the belief."""
    q_o = likelihood @ q_s
    total = 0.0
    for o in range(likelihood.shape[0]):
        if q_o[o] <= 0.0:
            continue
        post = likelihood[o] * q_s / q_o[o]
        for s in range(q_s.size):
            if post[s] > 0.0:
                total += q_o[o] * post[s] * (np.log(post[s]) - np.log(q_s[s]))
    return total


def full_score_by_enumeration(q_s: np.ndarray, likelihood: np.ndarray,
                              prior_s: np.ndarray) -> float:
    """E over the predictive joint of log q(s) - log(P(s|o) P(o)).

    P(o) and P(s|o) are both induced by the reference prior through the
    likelihood, exactly as the diagnostic defines them.
    """
    p_o = likelihood @ prior_s
    total = 0.0
    for s in range(q_s.size):
        for o in range(likelihood.shape[0]):
            w = q_s[s] * likelihood[o, s]
            if w <= 0.0:
                continue
            # log(P(s|o) P(o)) with both factors induced by the prior
            post_prior = likelihood[o, s] * prior_s[s] / p_o[o]
            total += w * (np.log(q_s[s]) - np.log(post_prior * p_o[o]))
    return total


def random_model(rng: np.random.Generator, *, max_states: int = 6, max_outcomes: int = 6,
                 max_actions: int = 4, min_horizon: int = 1, max_horizon: int = 3,
                 deterministic_likelihood: bool = False, all_policies: bool = False,
                 risk_prior: bool = False) -> GenerativeModel:
    """A valid random model with strictly positive B and D (A optionally delta columns).

    all_policies takes the full |U|^(T-1) policy set instead of at most four
    random policies. risk_prior adds a risk_state_prior with some entries
    zeroed, so outcomes the prior rules out occur.
    """
    n_s = int(rng.integers(2, max_states + 1))
    n_o = int(rng.integers(2, max_outcomes + 1))
    n_u = int(rng.integers(1, max_actions + 1))
    horizon = int(rng.integers(min_horizon, max_horizon + 1))
    if deterministic_likelihood:
        likelihood = np.zeros((n_o, n_s))
        for s in range(n_s):
            likelihood[rng.integers(0, n_o), s] = 1.0
    else:
        likelihood = rng.dirichlet(np.ones(n_o), size=n_s).T
    transitions = tuple(rng.dirichlet(np.ones(n_s), size=n_s).T for _ in range(n_u))
    preferences = rng.normal(size=n_o)
    prior = rng.dirichlet(np.ones(n_s))

    if all_policies:
        policies = [Policy(a) for a in itertools.product(range(n_u), repeat=horizon - 1)]
    else:
        policies, seen = [], set()
        for _ in range(int(rng.integers(1, 5))):
            actions = tuple(int(a) for a in rng.integers(0, n_u, size=horizon - 1))
            if actions not in seen:
                seen.add(actions)
                policies.append(Policy(actions))
    risk_state_prior = None
    if risk_prior:
        weights = rng.dirichlet(np.ones(n_s)) * (rng.random(n_s) < 0.7)
        weights[rng.integers(0, n_s)] += 0.1
        risk_state_prior = Categorical(weights / weights.sum())
    return GenerativeModel(
        num_states=n_s,
        num_outcomes=n_o,
        num_actions=n_u,
        horizon=horizon,
        likelihood=likelihood,
        transitions=transitions,
        preferences=preferences,
        state_prior=Categorical(prior),
        policies=PolicySet(tuple(policies)),
        risk_state_prior=risk_state_prior,
    )


def sample_observations(rng: np.random.Generator, model: GenerativeModel,
                        policy: Policy, upto: int):
    """A reachable observation prefix (timestep, outcome) for timesteps 1..upto."""
    observed = []
    belief = model.state_prior.probs.copy()
    for tau in range(1, upto + 1):
        p_o = model.likelihood @ belief
        outcome = int(rng.choice(model.num_outcomes, p=p_o / p_o.sum()))
        observed.append((tau, outcome))
        belief = model.likelihood[outcome] * belief
        belief /= belief.sum()
        if tau < model.horizon:
            belief = model.transitions[policy.actions[tau - 1]] @ belief
    return observed


def random_categorical(rng: np.random.Generator, n: int) -> Categorical:
    return Categorical(rng.dirichlet(np.ones(n)))


def bma_by_timestep(weights: np.ndarray, per_policy_states) -> np.ndarray:
    """Posterior-weighted mix of per-policy belief tables, one timestep at a
    time: the weighted sum in policy order, then that timestep's row divided
    by its own sum. Policies without weight are skipped, tables or not."""
    timesteps = next(len(states) for w, states in zip(weights, per_policy_states) if w > 0.0)
    rows = []
    for tau in range(timesteps):
        mixed = None
        for w, states in zip(weights, per_policy_states):
            if w <= 0.0:
                continue
            contribution = w * states[tau]
            mixed = contribution if mixed is None else mixed + contribution
        rows.append(mixed / mixed.sum())
    return np.array(rows)


def evidence_bound_by_outcome_loop(q_s: np.ndarray, likelihood: np.ndarray,
                                   prior_s: np.ndarray) -> float:
    """E over predicted outcomes of KL[state posterior under q_s || state
    posterior under the reference prior], one outcome at a time."""
    p_o_prior = likelihood @ prior_s
    total = 0.0
    q_o = likelihood @ q_s
    for o in range(likelihood.shape[0]):
        if q_o[o] <= 0.0:
            continue
        post_q = likelihood[o] * q_s / q_o[o]
        if p_o_prior[o] > 0.0:
            post_prior = likelihood[o] * prior_s / p_o_prior[o]
        else:
            post_prior = np.zeros_like(prior_s)
        mask = post_q > 0.0
        total += float(q_o[o]) * float(
            (post_q[mask] * (np.log(post_q[mask]) - clamped_log(post_prior[mask]))).sum()
        )
    return total


def reference_scores(model: GenerativeModel, q_now: Categorical, policies, plan_ctx,
                     objective: ObjectiveKind):
    """(G, per-timestep breakdowns, predicted beliefs) for each policy, scoring
    every (policy, timestep) pair on its own from predictive_states and the
    public term functions: no prefix is shared and no constant is hoisted.
    The arithmetic is that of the per-node scorer nested in score_policies,
    so results compare exactly."""
    t = plan_ctx.current_epoch
    prior = model.risk_state_prior
    results = []
    for policy in policies:
        total, parts, states = 0.0, [], []
        for tau in range(t + 1, model.horizon + 1):
            q_s = predictive_states(model, q_now, policy, t, tau)
            q_o = predictive_outcome(q_s, model.likelihood)
            intrinsic = expected_info_gain(q_s, model.likelihood)
            extrinsic = extrinsic_value(q_o, model.preferences)
            risk = math.nan
            if prior is not None:
                risk = risk_states(q_s, prior)
            if objective is ObjectiveKind.EXPECTED_FREE_ENERGY:
                score = -intrinsic - extrinsic
            elif objective is ObjectiveKind.INFO_GAIN_ONLY:
                score = -intrinsic
            elif objective is ObjectiveKind.EXPECTED_UTILITY_OUTCOMES:
                score = -extrinsic
            elif objective is ObjectiveKind.EXPECTED_UTILITY_STATES:
                score = -float(q_s.probs @ clamped_log(prior.probs))
            else:  # RISK_ONLY
                score = risk_states(q_s, prior)
            parts.append(EfeBreakdown(
                risk_states=risk,
                ambiguity=ambiguity(q_s, model.likelihood),
                intrinsic=intrinsic,
                extrinsic=extrinsic,
                total=score,
            ))
            states.append(q_s)
            total += score
        results.append((total, parts, states))
    return results
