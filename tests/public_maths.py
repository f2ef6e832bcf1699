"""Cases for tests/test_public_maths.py and the script that captures them.

    PYTHONPATH=src python tests/public_maths.py

rewrites tests/data/public_maths.json: 20 small random models (at most 5
states, 5 outcomes and horizon 3, each with a risk prior), a belief and one
observation sequence per policy, stored as float hex so the cases depend on
no random stream, together with every public maths value of each case as
JSON floats (repr round-trips exactly). Run it only to pin the values of a
version known to be right.
"""
import json
from pathlib import Path

import numpy as np

import helpers
from efeplan.inference import infer_states, vfe
from efeplan.model import GenerativeModel, Policy, PolicySet
from efeplan.numerics import Categorical, entropy, kl_divergence
from efeplan.planning import (
    ObjectiveKind,
    PlanContext,
    ambiguity,
    evidence_bound_diagnostic,
    expected_free_energy,
    expected_info_gain,
    extrinsic_value,
    predictive_outcome,
    predictive_states,
    risk_states,
    state_outcome_utility_comparison,
)

DATA = Path(__file__).parent / "data" / "public_maths.json"


def _floats(values) -> list[float]:
    return [float.fromhex(v) for v in values]


def _array(rows) -> np.ndarray:
    return np.array([_floats(row) for row in rows])


def case_inputs(case: dict):
    """(model, belief, observations per policy) of one stored case."""
    model = GenerativeModel(
        num_states=len(case["D"]),
        num_outcomes=len(case["C"]),
        num_actions=len(case["B"]),
        horizon=case["horizon"],
        likelihood=_array(case["A"]),
        transitions=tuple(_array(b) for b in case["B"]),
        preferences=np.array(_floats(case["C"])),
        state_prior=Categorical(_floats(case["D"])),
        policies=PolicySet(tuple(Policy(tuple(p)) for p in case["policies"])),
        risk_state_prior=Categorical(_floats(case["prior"])),
    )
    return model, Categorical(_floats(case["belief"])), case["observations"]


def public_maths(model: GenerativeModel, q: Categorical, observations) -> dict[str, list[float]]:
    """Every public maths value of one case, flattened, under a stable key."""
    A, prior = model.likelihood, model.risk_state_prior
    q_o = predictive_outcome(q, A)
    out = {
        "entropy": [entropy(q), entropy(prior)],
        "kl_divergence": [kl_divergence(q, prior), kl_divergence(prior, q)],
        "predictive_outcome": q_o.probs.tolist(),
        "ambiguity": [ambiguity(q, A)],
        "expected_info_gain": [expected_info_gain(q, A)],
        "extrinsic_value": [extrinsic_value(q_o, model.preferences)],
        "risk_states": [risk_states(q, prior)],
        "state_outcome_utility_comparison": list(state_outcome_utility_comparison(model, q, prior)),
    }
    for i, (policy, outcomes) in enumerate(zip(model.policies, observations)):
        for t in range(1, model.horizon):
            ctx = PlanContext(current_epoch=t, executed_actions=policy.actions[: t - 1])
            out[f"predictive_states/{i}/{t}"] = predictive_states(
                model, q, policy, t, model.horizon).probs.tolist()
            for objective in ObjectiveKind:
                total, parts = expected_free_energy(model, q, policy, ctx, objective)
                out[f"expected_free_energy/{objective.value}/{i}/{t}"] = [total] + [
                    value for p in parts for value in
                    (p.risk_states, p.ambiguity, p.intrinsic, p.extrinsic, p.total)
                ]
            out[f"evidence_bound_diagnostic/{i}/{t}"] = [
                value for row in evidence_bound_diagnostic(model, q, policy, ctx, prior)
                for value in row
            ]
        observed = list(enumerate(outcomes, start=1))
        filtered = infer_states(model, policy, observed).states
        out[f"infer_states/{i}"] = [v for s in filtered for v in s.probs.tolist()]
        out[f"vfe/{i}"] = [
            vfe(model, filtered, observed, policy),
            vfe(model, (q,) * model.horizon, observed, policy),
        ]
    return out


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.asarray(values, dtype=np.float64).ravel()]


def capture(num_cases: int = 20, seed: int = 20260) -> list[dict]:
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(num_cases):
        model = helpers.random_model(rng, max_states=5, max_outcomes=5, min_horizon=2,
                                     max_horizon=3, deterministic_likelihood=i % 4 == 3,
                                     risk_prior=True)
        weights = rng.dirichlet(np.ones(model.num_states))
        if i % 2:  # a belief that rules a state out
            weights[rng.integers(0, model.num_states)] = 0.0
        belief = Categorical(weights / weights.sum())
        observations = [
            [o for _, o in helpers.sample_observations(rng, model, policy, model.horizon)]
            for policy in model.policies
        ]
        cases.append({
            "horizon": model.horizon,
            "A": [_hex(row) for row in model.likelihood],
            "B": [[_hex(row) for row in b] for b in model.transitions],
            "C": _hex(model.preferences),
            "D": _hex(model.state_prior.probs),
            "prior": _hex(model.risk_state_prior.probs),
            "policies": [list(p.actions) for p in model.policies],
            "belief": _hex(belief.probs),
            "observations": observations,
            "outputs": public_maths(model, belief, observations),
        })
    return cases


if __name__ == "__main__":
    DATA.write_text(json.dumps(capture(), indent=1) + "\n")
