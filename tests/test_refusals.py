"""Public refusals that no other test reaches: each keeps its exception type and message."""
import numpy as np
import pytest

from efeplan.inference import infer_states, vfe
from efeplan.model import Policy, PolicySet
from efeplan.numerics import Categorical, DegenerateDistributionError, normalize, softmax
from efeplan.planning import (
    ConfigurationError,
    PlanContext,
    action_marginal,
    ambiguity,
    evidence_bound_diagnostic,
    expected_free_energy,
    expected_info_gain,
    extrinsic_value,
    policy_posterior,
    predictive_outcome,
    predictive_states,
    score_policies,
)
from efeplan.tmaze import build_tmaze_model

MAZE = build_tmaze_model()  # 8 states, 7 outcomes, 4 actions, horizon 3, 10 policies
SEVEN = Categorical(np.full(7, 1 / 7))
CTX = PlanContext(current_epoch=1)


def _nan_viable_score():
    g = np.zeros(10)
    g[4] = np.nan
    policy_posterior(g, MAZE.policies, CTX)


CASES = {
    "infer_states, a repeated timestep": (
        lambda: infer_states(MAZE, MAZE.policies[0], [(1, 0), (1, 0)]),
        ValueError, "duplicate observation for timestep 1"),
    "infer_states, a policy of the wrong length": (
        lambda: infer_states(MAZE, Policy((0,)), [(1, 0)]),
        ValueError, "policy length 1 does not match horizon 3"),
    "score_policies, policies of unequal length": (
        lambda: score_policies(MAZE, MAZE.state_prior, [Policy((0,)), Policy((0, 1))], CTX, "efe"),
        ValueError, "Policy(actions=(0,)): policy length 1 does not match horizon 3"),
    "expected_free_energy, a policy longer than the horizon": (
        lambda: expected_free_energy(MAZE, MAZE.state_prior, Policy((0, 1, 2)), CTX, "efe"),
        ValueError, "Policy(actions=(0, 1, 2)): policy length 3 does not match horizon 3"),
    "vfe, a belief of the wrong length": (
        lambda: vfe(MAZE, [SEVEN, MAZE.state_prior, MAZE.state_prior], [(1, 0)],
                    MAZE.policies[0]),
        ValueError, "belief at timestep 1 has wrong length 7"),
    "PolicySet.actions, policies of unequal length": (
        lambda: PolicySet((Policy((0,)), Policy((0, 1)))).actions,
        ValueError, "policies differ in length: [1, 2]"),
    "normalize, a 2-d array": (
        lambda: normalize([[1.0, 2.0]]),
        DegenerateDistributionError, "weights must be a nonempty vector, got shape (1, 2)"),
    "softmax, a 2-d array": (
        lambda: softmax([[1.0]]),
        ValueError, "logits must be a nonempty vector, got shape (1, 1)"),
    "softmax, a negative precision": (
        lambda: softmax([1.0], precision=-1.0),
        ValueError, "precision must be a nonnegative real, got -1.0"),
    "PlanContext, too few executed actions": (
        lambda: PlanContext(current_epoch=2),
        ValueError, "expected 1 executed actions for epoch 2, got 0"),
    "ambiguity, a belief of the wrong length": (
        lambda: ambiguity(SEVEN, MAZE.likelihood),
        ValueError, "likelihood has 8 state columns, belief has 7"),
    "extrinsic_value, preferences of the wrong length": (
        lambda: extrinsic_value(Categorical(np.full(8, 1 / 8)), MAZE.preferences),
        ValueError, "preferences has shape (7,), expected (8,)"),
    "policy_posterior, too few scores": (
        lambda: policy_posterior(np.zeros(9), MAZE.policies, CTX),
        ValueError, "expected one score per policy (10), got shape (9,)"),
    "policy_posterior, a NaN viable score": (
        _nan_viable_score,
        ValueError, "scores of viable policies must be finite"),
    "action_marginal, a posterior of the wrong length": (
        lambda: action_marginal(Categorical(np.full(9, 1 / 9)), MAZE.policies, 1, 4),
        ValueError, "policy posterior and policy set sizes differ"),
    "expected_free_energy, a negative action": (
        lambda: expected_free_energy(MAZE, MAZE.state_prior, Policy((-1, 0)), CTX, "efe"),
        ValueError, "Policy(actions=(-1, 0)): action 0 is -1, outside 0..3"),
    "expected_free_energy, an action past the last": (
        lambda: expected_free_energy(MAZE, MAZE.state_prior, Policy((0, 4)), CTX, "efe"),
        ValueError, "Policy(actions=(0, 4)): action 1 is 4, outside 0..3"),
    "score_policies, an action past the last": (
        lambda: score_policies(MAZE, MAZE.state_prior, [Policy((0, 1)), Policy((4, 0))], CTX,
                               "efe"),
        ValueError, "Policy(actions=(4, 0)): action 0 is 4, outside 0..3"),
    "infer_states, a negative action": (
        lambda: infer_states(MAZE, Policy((-1, 0)), [(1, 0)]),
        ValueError, "Policy(actions=(-1, 0)): action 0 is -1, outside 0..3"),
    "infer_states, an action past the last": (
        lambda: infer_states(MAZE, Policy((0, 4)), [(1, 0)]),
        ValueError, "Policy(actions=(0, 4)): action 1 is 4, outside 0..3"),
    "predictive_states, a negative action": (
        lambda: predictive_states(MAZE, MAZE.state_prior, Policy((-1, 0)), 1, 2),
        ValueError, "Policy(actions=(-1, 0)): action 0 is -1, outside 0..3"),
    "predictive_states, an action past the last": (
        lambda: predictive_states(MAZE, MAZE.state_prior, Policy((0, 4)), 1, 3),
        ValueError, "Policy(actions=(0, 4)): action 1 is 4, outside 0..3"),
    "predictive_states, a policy too short for the horizon": (
        lambda: predictive_states(MAZE, MAZE.state_prior, Policy((0,)), 1, 3),
        ValueError, "Policy(actions=(0,)): policy length 1 does not match horizon 3"),
    "vfe, a negative action": (
        lambda: vfe(MAZE, [MAZE.state_prior] * 3, [(1, 0)], Policy((-1, 0))),
        ValueError, "Policy(actions=(-1, 0)): action 0 is -1, outside 0..3"),
    "vfe, an action past the last": (
        lambda: vfe(MAZE, [MAZE.state_prior] * 3, [(1, 0)], Policy((0, 4))),
        ValueError, "Policy(actions=(0, 4)): action 1 is 4, outside 0..3"),
    "vfe, a policy too short for the horizon": (
        lambda: vfe(MAZE, [MAZE.state_prior] * 3, [(1, 0)], Policy((0,))),
        ValueError, "Policy(actions=(0,)): policy length 1 does not match horizon 3"),
    "ambiguity, a likelihood that is not a matrix": (
        lambda: ambiguity(MAZE.state_prior, np.ones(8)),
        ValueError, "likelihood must be an outcome x state matrix, got shape (8,)"),
    "predictive_outcome, a likelihood that is not a matrix": (
        lambda: predictive_outcome(MAZE.state_prior, np.ones(8)),
        ValueError, "likelihood must be an outcome x state matrix, got shape (8,)"),
    "expected_info_gain, a likelihood that is not a matrix": (
        lambda: expected_info_gain(MAZE.state_prior, np.ones((7, 8, 1))),
        ValueError, "likelihood must be an outcome x state matrix, got shape (7, 8, 1)"),
    "evidence_bound_diagnostic, no prior": (
        lambda: evidence_bound_diagnostic(MAZE, MAZE.state_prior, MAZE.policies[0], CTX, None),
        ConfigurationError, "evidence_bound_diagnostic requires prior_states"),
}


@pytest.mark.parametrize("name", CASES)
def test_refusal_keeps_its_type_and_message(name):
    call, error, fragment = CASES[name]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert fragment in str(info.value)
