"""Model validation and spec-file round trips."""
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from efeplan.model import (
    GenerativeModel,
    ModelEnvironment,
    ModelSpecError,
    Policy,
    PolicySet,
    load_spec,
    save_spec,
    validate,
)
from efeplan.numerics import Categorical
from efeplan.tmaze import TMAZE_POLICIES, build_tmaze_model


def _broken_copy(model: GenerativeModel, **overrides) -> GenerativeModel:
    fields = dict(
        num_states=model.num_states,
        num_outcomes=model.num_outcomes,
        num_actions=model.num_actions,
        horizon=model.horizon,
        likelihood=model.likelihood,
        transitions=model.transitions,
        preferences=model.preferences,
        state_prior=model.state_prior,
        policies=model.policies,
        risk_state_prior=model.risk_state_prior,
    )
    fields.update(overrides)
    return GenerativeModel(**fields)


# (fields replaced on the built-in maze, each a value or a function of the maze,
# every violation validate reports, in order)
_SHAPE_VIOLATIONS = [
    ({"likelihood": np.full((6, 8), 1 / 6)},
     ["likelihood has shape (6, 8), expected (7, 8)"]),
    ({"transitions": lambda maze: maze.transitions[:3]},
     ["expected 4 transition matrices, got 3"]),
    ({"transitions": lambda maze: (np.full((8, 7), 1 / 8),) + maze.transitions[1:]},
     ["transition[0] has shape (8, 7), expected (8, 8)"]),
    ({"preferences": np.zeros(6)}, ["preferences has length (6,), expected 7"]),
    ({"state_prior": Categorical(np.full(7, 1 / 7))}, ["state prior has length 7, expected 8"]),
    ({"risk_state_prior": Categorical(np.full(7, 1 / 7))},
     ["risk state prior has length 7, expected 8"]),
    ({"num_states": 0}, ["num_states, num_outcomes, num_actions must all be positive"]),
    ({"horizon": 0},
     ["horizon must be positive, got 0",
      *[f"policy {i} has length 2, expected -1" for i in range(10)]]),
]


class TestValidate:
    def test_builtin_maze_is_clean(self):
        assert validate(build_tmaze_model()) == []

    def test_column_sum_violation(self):
        model = build_tmaze_model()
        bad = np.array(model.likelihood)
        bad[:, 3] *= 0.9
        violations = validate(_broken_copy(model, likelihood=bad))
        assert len(violations) == 1
        assert "likelihood column 3" in violations[0]

    def test_action_index_violation(self):
        model = build_tmaze_model()
        policies = PolicySet(tuple(model.policies) + (Policy((4, 0)),))
        violations = validate(_broken_copy(model, policies=policies))
        assert len(violations) == 1
        assert "action" in violations[0] and "4" in violations[0]

    def test_policy_length_violation(self):
        model = build_tmaze_model()
        policies = PolicySet((Policy((0,)),))
        violations = validate(_broken_copy(model, policies=policies))
        assert any("length" in v for v in violations)

    def test_negative_entry_violation(self):
        model = build_tmaze_model()
        bad = np.array(model.transitions[0])
        bad[0, 0] -= 2.0
        violations = validate(_broken_copy(model, transitions=(bad,) + model.transitions[1:]))
        assert any("transition[0]" in v and "negative" in v for v in violations)

    @pytest.mark.parametrize("changes,expected", _SHAPE_VIOLATIONS,
                             ids=[case[1][0] for case in _SHAPE_VIOLATIONS])
    def test_shape_violations(self, changes, expected):
        maze = build_tmaze_model()
        changes = {key: value(maze) if callable(value) else value
                   for key, value in changes.items()}
        assert validate(dataclasses.replace(maze, **changes)) == expected


class TestValidModelsAreAcceptedDownstream:
    def test_inference_and_planning_accept_clean_models(self):
        from efeplan.inference import infer_states
        from efeplan.planning import ObjectiveKind, PlanContext, expected_free_energy

        rng = np.random.default_rng(22)
        for _ in range(30):
            model = helpers.random_model(rng, max_horizon=3)
            assert validate(model) == []
            policy = model.policies[0]
            observed = helpers.sample_observations(rng, model, policy, model.horizon)
            result = infer_states(model, policy, observed)
            for tau, _ in observed:
                oracle = helpers.exact_filter_marginal(model, policy, observed, tau)
                assert np.abs(result.states[tau - 1].probs - oracle).max() < 1e-9
            if model.horizon >= 2:
                expected_free_energy(
                    model, result.states[0], policy, PlanContext(current_epoch=1),
                    ObjectiveKind.EXPECTED_FREE_ENERGY,
                )

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_accepted_preferences_keep_every_score_finite(self, seed, data):
        from efeplan.planning import ObjectiveKind, PlanContext, policy_posterior, score_policies

        model = helpers.random_model(np.random.default_rng(seed), min_horizon=2, max_horizon=4,
                                     risk_prior=True)
        # entries in [-5e307, 1e308] are at most 1.5e308 apart, so the normalised
        # log-preferences stay finite; only their sum over the horizon can overflow
        magnitudes = st.floats(-0.5, 1.0).map(lambda u: u * 1e308)
        preferences = data.draw(st.lists(magnitudes, min_size=model.num_outcomes,
                                         max_size=model.num_outcomes), label="preferences")
        model = dataclasses.replace(model, preferences=np.array(preferences))
        if validate(model):
            return
        ctx = PlanContext(current_epoch=1)
        for objective in ObjectiveKind:
            scores = score_policies(model, model.state_prior, model.policies, ctx, objective)
            g = [scored.total for scored in scores]
            assert np.all(np.isfinite(g)), (objective, g)
            policy_posterior(g, model.policies, ctx)


def _cut_columns(matrix: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """matrix with each column cut to a random support, its largest entry kept,
    and scaled back to sum to 1: some columns become one-hot."""
    keep = rng.random(matrix.shape) < 0.4
    keep[matrix.argmax(axis=0), np.arange(matrix.shape[1])] = True
    cut = np.where(keep, matrix, 0.0)
    return cut / cut.sum(axis=0)


class _TopDraw:
    """A generator stub whose every draw is the largest double below 1."""

    def random(self) -> float:
        return 1.0 - 2.0**-53


def _two_state_model(likelihood, transition) -> GenerativeModel:
    return GenerativeModel(
        num_states=2, num_outcomes=likelihood.shape[0], num_actions=1, horizon=2,
        likelihood=likelihood, transitions=(transition,),
        preferences=np.zeros(likelihood.shape[0]),
        state_prior=Categorical(np.array([0.5, 0.5])), policies=PolicySet((Policy((0,)),)),
    )


class TestModelEnvironment:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_every_draw_has_mass(self, seed):
        rng = np.random.default_rng(seed)
        model = helpers.random_model(rng, max_states=5, max_outcomes=5)
        model = dataclasses.replace(
            model, likelihood=_cut_columns(model.likelihood, rng),
            transitions=tuple(_cut_columns(b, rng) for b in model.transitions),
        )
        assert validate(model) == []
        env = ModelEnvironment(model, rng)
        env.reset(int(rng.integers(model.num_states)))
        assert model.likelihood[env.observe(), env.state] > 0.0
        for action in rng.integers(model.num_actions, size=30):
            before = env.state
            outcome = env.step(int(action))
            assert model.transitions[action][env.state, before] > 0.0
            assert model.likelihood[outcome, env.state] > 0.0

    def test_one_hot_moves_take_no_draw(self):
        model = build_tmaze_model()
        assert all(np.count_nonzero(b, axis=0).max() == 1 for b in model.transitions)
        env = ModelEnvironment(model, np.random.default_rng(5))
        reference = np.random.default_rng(5)
        env.reset(4)
        for action in (0, 3, 1, 2, 0, 3, 3, 1):
            env.observe()
            env.step(action)
            reference.random()
            reference.random()
            assert env.rng.bit_generator.state == reference.bit_generator.state

    def test_a_stochastic_move_takes_one_more_draw(self):
        # state 0 moves to either state, state 1 stays put
        model = _two_state_model(np.eye(2), np.array([[0.5, 0.0], [0.5, 1.0]]))
        env = ModelEnvironment(model, np.random.default_rng(9))
        reference = np.random.default_rng(9)
        for state, draws in ((0, 2), (1, 1), (0, 2)):
            env.reset(state)
            env.step(0)
            for _ in range(draws):
                reference.random()
            assert env.rng.bit_generator.state == reference.bit_generator.state

    def test_an_action_outside_the_model_is_refused_without_a_draw(self):
        env = ModelEnvironment(build_tmaze_model(), np.random.default_rng(3))
        env.reset(0)
        before = env.rng.bit_generator.state
        for action in (-1, 4):  # -1 would index the last action
            with pytest.raises(ValueError, match="outside 0..3"):
                env.step(action)
        assert env.rng.bit_generator.state == before and env.state == 0

    def test_no_draw_lands_past_the_last_entry_with_mass(self):
        # columns that validate accepts, summing to 1 - 1e-12 with a zero last entry
        column = np.array([0.5, 0.5 - 1e-12, 0.0])
        model = _two_state_model(np.column_stack([column, column]),
                                 np.column_stack([column[:2], column[:2]]))
        assert validate(model) == []
        assert np.cumsum(column).searchsorted(_TopDraw().random(), side="right") == 3
        env = ModelEnvironment(model, _TopDraw())
        env.reset(0)
        assert env.observe() == 1
        assert env.step(0) == 1
        assert env.state == 1


class TestPolicySet:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicates"):
            PolicySet((Policy((0, 1)), Policy((0, 1))))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            PolicySet(())


class TestRoundTrip:
    def test_maze_round_trip_exact(self, tmp_path):
        model = build_tmaze_model()
        path = tmp_path / "maze.json"
        save_spec(model, path)
        loaded = load_spec(path)
        assert np.array_equal(loaded.likelihood, model.likelihood)
        assert all(
            np.array_equal(a, b) for a, b in zip(loaded.transitions, model.transitions)
        )
        assert np.array_equal(loaded.preferences, model.preferences)
        assert np.array_equal(loaded.state_prior.probs, model.state_prior.probs)
        assert [p.actions for p in loaded.policies] == [p.actions for p in model.policies]
        assert loaded.state_labels == model.state_labels
        assert loaded.outcome_labels == model.outcome_labels
        assert loaded.action_labels == model.action_labels

    def test_maze_spec_dimensions(self, tmp_path):
        path = tmp_path / "maze.json"
        save_spec(build_tmaze_model(), path)
        model = load_spec(path)
        assert (model.num_states, model.num_outcomes, model.num_actions) == (8, 7, 4)
        assert model.horizon == 3
        assert len(model.policies) == 10

    def test_random_models_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        for i in range(100):
            model = helpers.random_model(rng, max_states=6, max_outcomes=6,
                                         max_actions=4, max_horizon=4)
            path = tmp_path / f"m{i}.json"
            save_spec(model, path)
            loaded = load_spec(path)
            assert np.abs(loaded.likelihood - model.likelihood).max() <= 1e-12
            for a, b in zip(loaded.transitions, model.transitions):
                assert np.abs(a - b).max() <= 1e-12
            assert np.abs(loaded.preferences - model.preferences).max() <= 1e-12
            assert np.abs(loaded.state_prior.probs - model.state_prior.probs).max() <= 1e-12
            assert [p.actions for p in loaded.policies] == [p.actions for p in model.policies]

    def test_risk_prior_round_trips(self, tmp_path):
        with_prior = _broken_copy(
            build_tmaze_model(), risk_state_prior=Categorical(np.full(8, 1 / 8))
        )
        path = tmp_path / "maze.json"
        save_spec(with_prior, path)
        loaded = load_spec(path)
        assert np.allclose(loaded.risk_state_prior.probs, 1 / 8)


# (key, entry replaced or None for the whole value, new value, exact message)
_ARRAY_ERRORS = [
    ("A", None, 3, "A must be a list of 7 rows"),
    ("A", None, [[0.0] * 8] * 6, "A must be a list of 7 rows"),
    ("A", (1,), [0.0] * 7, "A row 1 must be a list of 8 numbers"),
    ("A", (1,), "row", "A row 1 must be a list of 8 numbers"),
    ("A", (2, 3), True, "A[2][3] is not a number: True"),
    ("A", (2, 3), "0.5", "A[2][3] is not a number: '0.5'"),
    ("A", (2, 3), None, "A[2][3] is not a number: None"),
    ("A", (2, 3), -1, "A[2][3] = -1: negative probability"),
    ("A", (2, 3), 10**400, "A[2][3] is an integer too large for a float"),
    ("D", None, {"0": 1.0}, "D must be a list of 8 numbers"),
    ("D", None, [0.125] * 7, "D must be a list of 8 numbers"),
    ("D", (4,), False, "D[4] is not a number: False"),
    ("D", (4,), "x", "D[4] is not a number: 'x'"),
    ("D", (4,), None, "D[4] is not a number: None"),
    ("D", (4,), -0.25, "D[4] = -0.25: negative probability"),
    ("D", (4,), -(10**400), "D[4] is an integer too large for a float"),
    # C - log_sum_exp(C) is -inf at entry 0, and 0 * -inf is NaN in the extrinsic term
    ("C", None, [-1e308, 1e308, 0, 0, 0, 0, 0],
     "invalid model: normalised log-preferences entry [0] is -inf, expected a finite number"),
    # finite, but G adds two expected utilities of -1e308 each over the maze's horizon
    ("C", None, [1e308, 0, 0, 0, 0, 0, 0],
     "invalid model: normalised log-preferences entry [1] is -1e+308, which overflows G "
     "summed over 2 future epochs"),
    ("policies", None, [list(actions) for actions in TMAZE_POLICIES] + [[3, 1]],
     "policies[10] = [3, 1] repeats policies[7]"),
    ("num_states", None, 0, "num_states must be a positive integer, got 0"),
    ("horizon", None, True, "horizon must be a positive integer, got True"),
    ("B", None, 3, "B must be a list of 4 matrices"),
    ("policies", None, [], "policies must be a nonempty list of integer lists"),
    ("policies", (0,), ["a", 1], "policies[0] must be a list of integers"),
    ("state_labels", None, ["x"], "state_labels must be a list of 8 strings"),
    ("risk_state_prior", None, [1.0], "risk_state_prior must be a list of 8 numbers"),
]


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_spec(tmp_path / "absent.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ModelSpecError, match="not valid JSON"):
            load_spec(path)

    def test_missing_key_is_named(self, tmp_path):
        model = build_tmaze_model()
        path = tmp_path / "maze.json"
        save_spec(model, path)
        doc = json.loads(path.read_text())
        del doc["B"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelSpecError, match="missing required key: B"):
            load_spec(path)

    def test_negative_probability_names_entry(self, tmp_path):
        path = tmp_path / "maze.json"
        save_spec(build_tmaze_model(), path)
        doc = json.loads(path.read_text())
        doc["A"][0][2] = -0.25
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelSpecError, match=r"A\[0\]\[2\].*negative"):
            load_spec(path)

    def test_wrong_row_length_is_named(self, tmp_path):
        path = tmp_path / "maze.json"
        save_spec(build_tmaze_model(), path)
        doc = json.loads(path.read_text())
        doc["A"][1] = doc["A"][1][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelSpecError, match="A row 1"):
            load_spec(path)

    @pytest.mark.parametrize("key,where,value,message", _ARRAY_ERRORS,
                             ids=[case[-1] for case in _ARRAY_ERRORS])
    def test_array_entry_messages(self, tmp_path, key, where, value, message):
        path = tmp_path / "maze.json"
        save_spec(build_tmaze_model(), path)
        doc = json.loads(path.read_text())
        if where is None:
            doc[key] = value
        elif len(where) == 1:
            doc[key][where[0]] = value
        else:
            doc[key][where[0]][where[1]] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelSpecError) as info:
            load_spec(path)
        assert str(info.value) == message

    def test_invariant_violations_surface(self, tmp_path):
        path = tmp_path / "maze.json"
        save_spec(build_tmaze_model(), path)
        doc = json.loads(path.read_text())
        doc["A"][0][0] = 0.5  # breaks column stochasticity
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelSpecError, match="likelihood column 0"):
            load_spec(path)
