"""Model validation and spec-file round trips."""
import dataclasses
import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from efeplan import model as model_module
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
from efeplan.numerics import NORM_TOL, Categorical
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


def _columns_one_at_a_time(name: str, matrix: np.ndarray) -> list[str]:
    """The column checks of validate, one column at a time: the reference for
    model._check_columns."""
    violations: list[str] = []
    for col in range(matrix.shape[1]):
        column = matrix[:, col]
        if np.any(column < 0.0):
            violations.append(f"{name} column {col} has a negative entry")
        with np.errstate(over="ignore"):
            total = float(column.sum())
        if abs(total - 1.0) > NORM_TOL:
            violations.append(f"{name} column {col} sums to {total!r}, expected 1")
    return violations


def _column_cases(rng: np.random.Generator):
    """Matrices of many shapes and layouts: columns that are distributions, off 1,
    with negative entries, or whose sums overflow."""
    for i in range(360):
        rows, cols = int(rng.integers(1, 300)), int(rng.integers(1, 12))
        if i % 40 == 0:
            rows = int(rng.integers(8000, 9000))  # around numpy's 8192-entry buffer
        matrix = rng.dirichlet(np.ones(rows), size=cols).T * rng.choice([1.0, 1.0 + 1e-8, 3.7], cols)
        matrix[rng.random(matrix.shape) < 0.002] *= -1.0
        if i % 7 == 0:
            matrix[:2, rng.integers(cols)] = 1e308
        layout = i % 4
        if layout == 1:
            matrix = np.asfortranarray(matrix)
        elif layout == 2:
            matrix = np.repeat(matrix, 2, axis=0)[::2]  # rows strided in memory
        elif layout == 3:
            matrix = np.repeat(matrix, 2, axis=1)[:, ::2]  # columns strided in memory
        yield matrix


class TestValidate:
    def test_column_checks_match_one_column_at_a_time(self):
        # every verdict, in order, and each sum to the bit, as repr prints it
        messages = 0
        for matrix in _column_cases(np.random.default_rng(41)):
            got: list[str] = []
            model_module._check_columns("B[1]", matrix, got)
            assert got == _columns_one_at_a_time("B[1]", matrix), matrix.shape
            messages += len(got)
        assert messages > 1000

    def test_builtin_maze_is_clean(self):
        assert validate(build_tmaze_model()) == []

    @pytest.mark.parametrize("horizon, shown", [
        (10**400, "999999...999999 (400 digits)"),
        (-(10**400), "-10000...000001 (401 digits)"),
        # past the 4300 digits that str() converts where the interpreter sets that limit
        (10**5000, ""),
    ], ids=["10**400", "-10**400", "10**5000"])
    def test_a_horizon_of_hundreds_of_digits_is_reported_in_short(self, horizon, shown):
        violations = validate(_broken_copy(build_tmaze_model(), horizon=horizon))
        assert any(v.startswith(f"policies have lengths [2], expected {shown}")
                   for v in violations), violations
        assert len("; ".join(violations)) < 300, violations

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


class _Uniforms:
    """A generator stub that hands out the given draws in order."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self) -> float:
        return self.draws.pop(0)


def _searchsorted_draw(column: np.ndarray, u: float) -> int:
    """The searchsorted (side="right") index of u in the column's cumulative
    sums, inf from its last entry with mass on."""
    cumulative = np.cumsum(column)
    cumulative[np.flatnonzero(column > 0.0)[-1]:] = np.inf
    return int(np.searchsorted(cumulative, u, side="right"))


def _draws_for(column: np.ndarray, rng: np.random.Generator) -> list[float]:
    """Uniforms at and around each cumulative sum, the ends of [0, 1), and random ones."""
    sums = np.cumsum(column)
    return [0.0, 1.0 - 2.0**-53, *rng.random(3),
            *(x for s in sums for x in (np.nextafter(s, 0.0), s, np.nextafter(s, 2.0))
              if 0.0 <= x < 1.0)]


class TestModelEnvironment:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), deterministic=st.booleans())
    def test_draws_are_the_searchsorted_index(self, seed, deterministic):
        rng = np.random.default_rng(seed)
        model = helpers.random_model(rng, max_states=5, max_outcomes=5,
                                     deterministic_likelihood=deterministic)
        # one-hot moves, and columns whose cumulative sums end below 1
        one_hot = np.eye(model.num_states)[rng.integers(model.num_states, size=model.num_states)].T
        short = rng.random(model.num_states) < 0.5
        short[0] = True
        model = dataclasses.replace(
            model,
            likelihood=np.where(short, model.likelihood * (1.0 - 1e-12), model.likelihood),
            transitions=tuple(np.where(rng.random(model.num_states) < 0.5, one_hot, b)
                              for b in model.transitions),
        )
        assert validate(model) == []
        assert any(np.cumsum(model.likelihood, axis=0)[-1] < 1.0)
        env = ModelEnvironment(model)
        for s in range(model.num_states):
            column = model.likelihood[:, s]
            for u in _draws_for(column, rng):
                env.rng = _Uniforms([u])
                env.reset(s)
                assert env.observe() == _searchsorted_draw(column, u), (s, u)
            for a, b in enumerate(model.transitions):
                column = b[:, s]
                if np.count_nonzero(column) == 1:  # no draw: the one observation takes it
                    env.rng = _Uniforms([0.0])
                    env.reset(s)
                    env.step(a)
                    assert env.state == int(column.argmax()) and env.rng.draws == []
                    continue
                for u in _draws_for(column, rng):
                    env.rng = _Uniforms([u, 0.0])
                    env.reset(s)
                    env.step(a)
                    assert env.state == _searchsorted_draw(column, u), (a, s, u)

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

    def test_saved_bytes_equal_dumps(self, tmp_path):
        maze = build_tmaze_model()
        rng = np.random.default_rng(23)
        models = [maze, dataclasses.replace(maze, risk_state_prior=Categorical(np.full(8, 1 / 8)))]
        for i in range(20):
            model = helpers.random_model(rng, risk_prior=i % 2 == 1)
            models.append(dataclasses.replace(
                model,
                state_labels=tuple(f"s{j}" for j in range(model.num_states)),
                outcome_labels=tuple(f"o\u00e9\"{j}" for j in range(model.num_outcomes)),
                action_labels=tuple(f"a {j}" for j in range(model.num_actions)),
            ))
        # entries json spells NaN, Infinity and -Infinity, and matrices of other
        # dimensions than validate expects, which save_spec writes all the same
        odd = np.array(maze.likelihood)
        odd[0, :3] = [np.nan, np.inf, -np.inf]
        models += [
            dataclasses.replace(maze, likelihood=odd, preferences=np.full(7, -np.inf),
                                transitions=(odd,) + maze.transitions[1:]),
            dataclasses.replace(maze, likelihood=np.full(7, 0.5), transitions=(np.ones((2, 3, 4)),)),
            dataclasses.replace(maze, likelihood=np.zeros((0, 8)), preferences=np.zeros((7, 0)),
                                transitions=(np.zeros((2, 0, 3)), np.float64(0.25))),
            dataclasses.replace(maze, transitions=()),
        ]
        path = tmp_path / "model.json"
        for model in models:
            save_spec(model, path)
            assert path.read_bytes() == helpers.spec_text_by_dumps(model).encode()
        # the digest CI checks the console script's maze spec against
        save_spec(maze, path)
        pinned = (Path(__file__).parent / "data" / "maze_spec.sha256").read_text().split()[0]
        assert hashlib.sha256(path.read_bytes()).hexdigest() == pinned

    def test_save_peaks_near_the_file_size(self, tmp_path):
        # a save holds one matrix row as Python values and text, not the matrices
        model = helpers.random_model(np.random.default_rng(5), min_states=256, max_states=256,
                                     min_actions=2, max_actions=2)
        path = tmp_path / "model.json"
        tracemalloc.start()
        try:
            save_spec(model, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * path.stat().st_size

    @pytest.mark.parametrize("changes,message", [
        ({"state_labels": tuple(range(8))}, "state_labels must be a list of 8 strings"),
        ({"state_labels": ("left", "right")}, "state_labels must be a list of 8 strings"),
        ({"action_labels": ("c", "l", "r", object())}, "action_labels must be a list of 4 strings"),
        ({"state_labels": "abcdefgh"}, "state_labels must be a list of 8 strings"),
        ({"num_states": np.int64(8)}, f"num_states must be a positive integer, got {np.int64(8)!r}"),
        ({"horizon": 3.0}, "horizon must be a positive integer, got 3.0"),
        ({"num_actions": True}, "num_actions must be a positive integer, got True"),
    ], ids=["int labels", "two labels", "object label", "string", "numpy dim", "float dim",
            "bool dim"])
    def test_refused_save_leaves_the_file_unchanged(self, tmp_path, changes, message):
        path = tmp_path / "maze.json"
        path.write_bytes(b"an earlier file\n")
        with pytest.raises(ModelSpecError) as info:
            save_spec(dataclasses.replace(build_tmaze_model(), **changes), path)
        assert str(info.value) == message
        assert path.read_bytes() == b"an earlier file\n"


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
    # rows of floats alone arrive as float64 arrays, and still print as JSON values
    ("B", (1, 2, 3), -0.25, "B[1][2][3] = -0.25: negative probability"),
    ("D", None, [0.5, 0.5], "D must be a list of 8 numbers"),
    ("A", (2, 3), [0.5], "A[2][3] is not a number: [0.5]"),
    ("A", (2,), [[0.5]] * 8, "A[2][0] is not a number: [0.5]"),
    ("num_states", None, [8.0], "num_states must be a positive integer, got [8.0]"),
    ("policies", None, [0.5, 1.5], "policies[0] must be a list of integers"),
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
        else:
            target = doc[key]
            for i in where[:-1]:
                target = target[i]
            target[where[-1]] = value
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

    def test_a_repeated_key_is_refused_after_the_document_parses(self, tmp_path):
        path = tmp_path / "maze.json"
        save_spec(build_tmaze_model(), path)
        text = path.read_text().rstrip()
        a = json.dumps(json.loads(text)["A"])
        path.write_text(f'{text[:-1]}, "A": {a}}}')
        with pytest.raises(ModelSpecError) as info:
            load_spec(path)
        assert str(info.value) == 'spec key "A" appears twice'
        path.write_text(f'{text[:-1]}, "A": {a}}} x')  # a syntax error comes first
        with pytest.raises(ModelSpecError, match="is not valid JSON: Extra data"):
            load_spec(path)


# JSON documents with every kind of value, and strings that hold the marks the
# reader looks for
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(alphabet='[]{},:" \\\néab'),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(alphabet='ab]"', max_size=3), inner, max_size=3),
    max_leaves=12,
)
_FLOAT_ROWS = st.lists(st.lists(st.floats(), min_size=1, max_size=3), min_size=1, max_size=3)
# nonempty: the reader leaves "{}", which no spec is, to json.loads
_DOCUMENTS = st.dictionaries(st.text(alphabet='ab]" ', max_size=3),
                             _JSON_VALUES | _FLOAT_ROWS | st.lists(_FLOAT_ROWS, max_size=2),
                             min_size=1, max_size=4)
_WINDOWS = [1, 2, 3, 7, 64, model_module._WINDOW]


def _same(got, want) -> bool:
    """got is json.loads's want, but with a float64 array for some lists of floats
    alone, and one 2-D float64 array for some lists of such lists of one length;
    floats compare by their bits, so NaN and -0.0 count."""
    if isinstance(got, np.ndarray):
        rows = want if got.ndim == 2 else [want]
        return (got.ndim in (1, 2) and got.dtype == np.float64 and type(want) is list
                and len(want) > 0 and all(type(row) is list and len(row) == got.shape[-1] > 0
                                          and {type(x) for x in row} == {float} for row in rows)
                and got.tobytes() == np.array(want).tobytes())
    if type(got) is not type(want):
        return False
    if isinstance(got, list):
        return len(got) == len(want) and all(map(_same, got, want))
    if isinstance(got, dict):
        return list(got) == list(want) and all(_same(got[k], want[k]) for k in got)
    if isinstance(got, float):
        return np.float64(got).tobytes() == np.float64(want).tobytes()
    return got == want


def _no_whole_text_parse(path):
    raise AssertionError(f"the reader left {path} to json.loads")


def _read_outcome(read, path):
    try:
        return "doc", read(path)
    except ModelSpecError as exc:
        return "error", str(exc)


class TestSpecReader:
    @settings(max_examples=200, deadline=None)
    @given(doc=_DOCUMENTS, indent=st.sampled_from([None, 0, 2]),
           space=st.sampled_from(["", " ", "\n\t\r "]))
    def test_reads_what_json_loads_reads(self, tmp_path_factory, doc, indent, space):
        text = space + json.dumps(doc, indent=indent) + space
        path = tmp_path_factory.mktemp("doc") / "doc.json"
        path.write_text(text)
        for window in _WINDOWS:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(model_module, "_WINDOW", window)
                patch.setattr(model_module, "_parse", _no_whole_text_parse)
                assert _same(model_module._read_spec(path), json.loads(text)), window

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), indent=st.sampled_from([None, 2]))
    def test_mutated_specs_read_as_json_loads_reads_them(self, tmp_path_factory, data, indent):
        text = json.dumps(json.loads(helpers.spec_text_by_dumps(build_tmaze_model())),
                          indent=indent)
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(0, len(text)))
            cut = data.draw(st.sampled_from([0, 0, 1, 2, 9]))
            piece = data.draw(st.sampled_from(
                ["", "[", "]", "{", "}", ",", ":", '"', "-", ".", "e", "1", " ", "\n", "true",
                 "null", "NaN", "-Infinity", "1e400", "0" * 30, '"A": 1,', "[[", "]]"]))
            text = text[:at] + piece + text[at + cut:]
        path = tmp_path_factory.mktemp("spec") / "spec.json"
        path.write_text(text)
        try:
            want = "doc", json.loads(text)
        except ValueError as exc:  # the exact text load_spec has always given
            want = "error", f"{path} is not valid JSON: {exc}"
        for window in _WINDOWS:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(model_module, "_WINDOW", window)
                kind, got = _read_outcome(model_module._read_spec, path)
                if want[0] == "error":
                    assert _read_outcome(load_spec, path) == want, window
            if kind == "error" and got.endswith("appears twice"):
                assert want[0] == "doc", (window, got)
            else:
                assert kind == want[0], (window, got, want)
                assert got == want[1] if kind == "error" else _same(got, want[1]), window

    @pytest.mark.parametrize("text", [
        '{"A": [[0.5]-]}', '{"A": [[0.5], [0.5]x, [0.5]]}', '{"A": 0.}', '{"A": 1e}',
        '{"A": [[0.5]]} x', '{"A": 1} "B": 2}', '[{"A": 1}] x', '{"A": 1,}', '{"A" 1}', '{"A": [[0.5],]}',
        '{"A": [[0.5] [0.5]]}', '{"A": [[0.5]', '{"A": [[0.5', '{"A": [[', '{"A": "]',
        '{"A": 1' + "0" * 5000 + "}", '{"A": ' + "[" * 100000,
    ], ids=lambda text: text[:24])
    def test_refused_text_keeps_its_message(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises((ValueError, RecursionError)) as parse:
            json.loads(text)
        for window in _WINDOWS:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(model_module, "_WINDOW", window)
                with pytest.raises(ModelSpecError) as info:
                    load_spec(path)
            assert str(info.value) == f"{path} is not valid JSON: {parse.value}", window

    def test_text_that_is_not_utf8_keeps_its_message(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"num_states": "é"}'.encode("latin-1"))
        with pytest.raises(UnicodeDecodeError) as decode:
            path.read_text(encoding="utf-8")
        with pytest.raises(ModelSpecError) as info:
            load_spec(path)
        assert str(info.value) == f"{path} is not UTF-8 text: {decode.value}"

    def test_rows_of_floats_become_arrays(self, tmp_path):
        path = tmp_path / "maze.json"
        save_spec(build_tmaze_model(), path)
        doc = model_module._read_spec(path)

        def matrix(a) -> bool:
            return (type(a) is np.ndarray and a.ndim == 2 and a.dtype == np.float64
                    and a.flags.c_contiguous)

        assert matrix(doc["A"])
        assert type(doc["B"]) is list and all(map(matrix, doc["B"]))  # not one 3-D block
        assert isinstance(doc["C"], np.ndarray) and isinstance(doc["D"], np.ndarray)
        assert doc["policies"] == [list(p) for p in TMAZE_POLICIES]

    @pytest.mark.parametrize("text", [
        '{"A": [[0.5, 0.5], [1.0]]}', '{"A": [[0.5, 0.5], [1, 0.5]]}',
        '{"A": [[[0.5]], [0.5]]}',
    ], ids=["ragged", "int-row", "deeper-row"])
    def test_other_arrays_of_arrays_stay_lists(self, tmp_path, text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        doc = model_module._read_spec(path)
        assert type(doc["A"]) is list and _same(doc, json.loads(text))

    def test_loads_what_the_whole_text_parse_loads(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(29)
        models = [build_tmaze_model()] + [helpers.random_model(rng, risk_prior=i % 2 == 1)
                                          for i in range(30)]
        path = tmp_path / "model.json"
        for model in models:
            save_spec(model, path)
            loaded = [load_spec(path)]
            with monkeypatch.context() as patch:
                patch.setattr(model_module, "_read_spec", model_module._parse)
                loaded.append(load_spec(path))
            ours, whole = loaded
            for name in ("likelihood", "preferences"):
                assert getattr(ours, name).tobytes() == getattr(whole, name).tobytes()
            assert [b.tobytes() for b in ours.transitions] == [
                b.tobytes() for b in whole.transitions]
            assert ours.state_prior.probs.tobytes() == whole.state_prior.probs.tobytes()
            assert (ours.risk_state_prior is None) == (whole.risk_state_prior is None)
            if ours.risk_state_prior is not None:
                assert (ours.risk_state_prior.probs.tobytes()
                        == whole.risk_state_prior.probs.tobytes())
            assert ours.policies == whole.policies
            assert (ours.num_states, ours.num_outcomes, ours.num_actions, ours.horizon) == (
                whole.num_states, whole.num_outcomes, whole.num_actions, whole.horizon)

    def test_int_valued_matrices_load_as_the_whole_text_parse_loads(self, tmp_path,
                                                                    monkeypatch):
        # as a hand-written spec gives them: every B[u] in JSON ints, and a row of A
        # mixing ints and floats; the reader keeps such rows as lists
        path = tmp_path / "maze.json"
        save_spec(build_tmaze_model(), path)
        doc = json.loads(path.read_text())
        assert all(x in (0.0, 1.0) for b in doc["B"] for row in b for x in row)
        doc["B"] = [[[int(x) for x in row] for row in b] for b in doc["B"]]
        doc["A"][1] = [int(x) if x == 0.0 else x for x in doc["A"][1]]
        assert {type(x) for x in doc["A"][1]} == {int, float}
        path.write_text(json.dumps(doc, indent=2))
        ours = load_spec(path)
        monkeypatch.setattr(model_module, "_read_spec", model_module._parse)
        whole = load_spec(path)
        for got, want in zip((ours.likelihood, *ours.transitions),
                             (whole.likelihood, *whole.transitions), strict=True):
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert not got.flags.writeable
            assert got.tobytes() == want.tobytes()

    def test_load_peaks_below_the_file_size(self, tmp_path):
        # the whole text and its parsed tree peak near 2.1x the file's size, and
        # the whole text beside the model's arrays near 1.3x; with each matrix
        # held once, the peak is one matrix's rows beside its stacked copy
        model = helpers.random_model(np.random.default_rng(5), min_states=256, max_states=256,
                                     min_actions=2, max_actions=2)
        path = tmp_path / "model.json"
        save_spec(model, path)
        tracemalloc.start()
        try:
            load_spec(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * path.stat().st_size


def _matrices(model: GenerativeModel) -> list[np.ndarray]:
    return [model.likelihood, *model.transitions, model.preferences]


class TestHeldArrays:
    def test_arrays_passed_in_are_copied(self):
        maze = build_tmaze_model()
        likelihood = np.array(maze.likelihood)
        transitions = [np.array(b) for b in maze.transitions]
        preferences = np.array(maze.preferences)
        frozen = np.array(maze.likelihood)
        frozen.flags.writeable = False
        base = np.array(maze.likelihood)
        view = base[:]
        view.flags.writeable = False
        models = [
            dataclasses.replace(maze, likelihood=likelihood, transitions=tuple(transitions),
                                preferences=preferences),
            dataclasses.replace(maze, likelihood=frozen),
            dataclasses.replace(maze, likelihood=view),
        ]
        before = [[m.tobytes() for m in _matrices(model)] for model in models]
        frozen.flags.writeable = True  # an array that owns its data may be written again
        for array in (likelihood, *transitions, preferences, frozen, base):
            array *= 2.0
        assert [[m.tobytes() for m in _matrices(model)] for model in models] == before

    def test_loaded_matrices_are_read_only_float64_and_the_whole_text_parse_bits(
            self, tmp_path, monkeypatch):
        rng = np.random.default_rng(31)
        models = [build_tmaze_model()] + [helpers.random_model(rng) for _ in range(10)]
        path = tmp_path / "model.json"
        for model in models:
            save_spec(model, path)
            ours = load_spec(path)
            with monkeypatch.context() as patch:
                patch.setattr(model_module, "_read_spec", model_module._parse)
                whole = load_spec(path)
            for loaded in (ours, whole):
                for matrix in _matrices(loaded):
                    assert matrix.dtype == np.float64
                    assert matrix.flags.c_contiguous and not matrix.flags.writeable
            assert [m.tobytes() for m in _matrices(ours)] == [m.tobytes() for m in _matrices(whole)]
            assert [m.shape for m in _matrices(ours)] == [m.shape for m in _matrices(whole)]
