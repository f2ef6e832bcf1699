"""Trial loop, experiment driver, persistence, and CLI parsing."""
import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from efeplan.cli import UsageError, config_from_args, main, parse_cli
from efeplan.harness import (
    ExperimentConfig,
    ExperimentRecord,
    _csv_text,
    _json_text,
    _maze_model,
    _Rows,
    _scheduled_trial,
    _trial_rngs,
    build_tables,
    emit_plot_data,
    run_experiment,
    run_trial,
    write_records,
)
from efeplan.inference import ImpossibleObservationError, infer_states
from efeplan.model import (
    GenerativeModel,
    ModelEnvironment,
    ModelSpecError,
    Policy,
    PolicySet,
    load_spec,
    save_spec,
)
from efeplan.numerics import Categorical
from efeplan.planning import (
    ConfigurationError,
    EfeBreakdown,
    ObjectiveKind,
    PlanContext,
    evidence_bound_diagnostic,
    score_policies,
)
from efeplan.tmaze import (
    BLACK,
    CENTER,
    WHITE,
    build_tmaze_model,
    default_context,
    score_outcome,
    state_index,
)


def _config(**kwargs) -> ExperimentConfig:
    return ExperimentConfig(**kwargs)


def _env_from_prior(model: GenerativeModel, rng: np.random.Generator) -> ModelEnvironment:
    """The model's environment, reset to an initial state drawn from its prior."""
    env = ModelEnvironment(model, rng)
    env.reset(int(rng.choice(model.num_states, p=model.state_prior.probs)))
    return env


def _save_maze(path, **changes) -> str:
    """The built-in maze's spec file with some model fields replaced."""
    maze = build_tmaze_model()
    fields = {name: getattr(maze, name) for name in maze.__dataclass_fields__}
    save_spec(GenerativeModel(**{**fields, **changes}), path)
    return str(path)


def _save_contradicting_maze(path) -> None:
    """The maze with a likelihood that gives the black cue's outcome zero
    probability at the black cue location, which the environment still emits."""
    likelihood = build_tmaze_model().likelihood.copy()
    likelihood[5, 7], likelihood[6, 7] = 1.0, 0.0
    _save_maze(path, likelihood=likelihood)


def _save_horizon_one(path) -> str:
    """A valid two-state spec of horizon 1: one empty policy, no planning epoch."""
    save_spec(GenerativeModel(
        num_states=2, num_outcomes=2, num_actions=1, horizon=1,
        likelihood=np.eye(2), transitions=(np.eye(2),), preferences=np.zeros(2),
        state_prior=Categorical(np.array([0.5, 0.5])), policies=PolicySet((Policy(()),)),
    ), path)
    return str(path)


RUN_OUT_SHA256 = json.loads(
    (Path(__file__).parent / "data" / "run_out_sha256.json").read_text()
)
# sha256 of the stdout of `efeplan trial` and `efeplan decompose`, keyed by argv
CLI_STDOUT_SHA256 = json.loads(
    (Path(__file__).parent / "data" / "cli_stdout_sha256.json").read_text()
)


@pytest.fixture(scope="module")
def efe_record():
    return run_experiment(_config(agent=ObjectiveKind.EXPECTED_FREE_ENERGY))


class TestRunTrial:
    def test_efe_first_trial_goes_cue_then_left(self, efe_record):
        assert efe_record.trials[0].actions == (3, 1)

    def test_info_gain_first_action_is_cue(self):
        record = run_experiment(_config(agent=ObjectiveKind.INFO_GAIN_ONLY, trials=1))
        assert record.trials[0].actions[0] == 3

    def test_expected_utility_trial_start_posterior_is_uniform(self):
        record = run_experiment(_config(agent=ObjectiveKind.EXPECTED_UTILITY_OUTCOMES, trials=1))
        posterior = np.array(record.trials[0].epochs[0].policy_posterior)
        assert np.abs(posterior - 0.1).max() < 1e-9

    def test_expected_utility_first_action_is_a_coin_flip(self):
        # the stay-center and go-cue marginals tie at 0.4; arms sit at 0.1
        picks = set()
        for seed in range(12):
            record = run_experiment(
                _config(agent=ObjectiveKind.EXPECTED_UTILITY_OUTCOMES, trials=1, seed=seed)
            )
            picks.add(record.trials[0].actions[0])
        assert picks == {0, 3}

    def test_shared_filter_matches_per_policy_filtering(self):
        # score_outcome covers the maze's 7 outcomes only
        rng = np.random.default_rng(72)
        checked = 0
        while checked < 40:
            model = helpers.random_model(rng, max_outcomes=7, max_actions=3, max_horizon=4)
            if model.horizon < 2:
                continue
            checked += 1
            record = run_trial(model, _env_from_prior(model, rng), _config(), rng)
            observations = [e.observation for e in record.epochs]
            for e in record.epochs:
                observed = [(t, o) for t, o in enumerate(observations[: e.epoch], start=1)]
                mixed = np.zeros((model.horizon, model.num_states))
                for w, policy in zip(e.policy_posterior, model.policies):
                    if w > 0.0:
                        states = infer_states(model, policy, observed).states
                        mixed += w * np.array([q.probs for q in states])
                mixed /= mixed.sum(axis=1, keepdims=True)
                assert np.abs(np.array(e.bma_states) - mixed).max() < 1e-12

    def test_replanning_filters_executed_prefix(self, efe_record):
        for trial in efe_record.trials:
            first_action = trial.actions[0]
            posterior = np.array(trial.epochs[1].policy_posterior)
            model = build_tmaze_model()
            for i, policy in enumerate(model.policies):
                if policy.actions[0] != first_action:
                    assert posterior[i] == 0.0

    def test_context_belief_resolves_after_cue(self, efe_record):
        for trial in efe_record.trials:
            bma = np.array(trial.epochs[1].bma_states[1]).reshape(2, 4)
            assert bma.sum(axis=1)[trial.true_context] >= 0.999

    def test_score_accounts_for_every_outcome(self, efe_record):
        total = 0
        for trial in efe_record.trials:
            observed = [epoch.observation for epoch in trial.epochs]
            total += sum(score_outcome(o) for o in observed)
            assert trial.score_delta == sum(score_outcome(o) for o in observed)
        assert efe_record.final_score == total

    def test_cumulative_increments_are_single_outcomes(self, efe_record):
        previous = 0
        for trial in efe_record.trials:
            delta = trial.cumulative_score - previous
            assert delta in (-6, 0, 6)
            previous = trial.cumulative_score


    def test_impossible_observation_names_trial_and_epoch(self, tmp_path):
        # the agent's spec contradicts the maze it acts in at the black cue
        _save_contradicting_maze(tmp_path / "contradicting.json")
        contradicting = load_spec(tmp_path / "contradicting.json")
        env = ModelEnvironment(build_tmaze_model())
        with pytest.raises(ImpossibleObservationError, match="trial 12, epoch 2") as info:
            _scheduled_trial(contradicting, env, _config(), 12)
        assert isinstance(info.value, ModelSpecError)
        assert (info.value.trial, info.value.epoch) == (12, 2)

    def test_a_spec_run_samples_the_specs_own_likelihood(self, tmp_path, capsys):
        _save_contradicting_maze(tmp_path / "contradicting.json")
        path = str(tmp_path / "contradicting.json")
        assert main(["run", "--model", path, "--trials", "12"]) == 0
        capsys.readouterr()
        trial = run_experiment(_config(trials=12, model_path=path)).trials[11]
        assert trial.true_context == BLACK
        assert trial.actions[0] == 3
        # the spec's A emits cue-white at the black cue
        assert [e.observation for e in trial.epochs] == [0, 5, 2]


class TestRunExperiment:
    def test_trial_rngs_match_spawned_children(self):
        for seed in (0, 1, 7919, 2**40 + 3):
            for trial in (1, 2, 13, 50):
                children = np.random.SeedSequence(seed).spawn(2 * trial)
                expected = [np.random.default_rng(children[2 * (trial - 1) + j]).random(4)
                            for j in (0, 1)]
                got = [rng.random(4) for rng in _trial_rngs(seed, trial)]
                assert all(np.array_equal(a, b) for a, b in zip(got, expected)), (seed, trial)

    def test_schedule_is_applied(self, efe_record):
        for trial in efe_record.trials:
            expected = BLACK if 10 <= trial.trial <= 12 or trial.trial == 30 else WHITE
            assert trial.true_context == expected

    def test_same_seed_reproduces_records(self):
        a = run_experiment(_config(trials=10, seed=99))
        b = run_experiment(_config(trials=10, seed=99))
        for ta, tb in zip(a.trials, b.trials):
            assert ta.actions == tb.actions
            assert ta.epochs[0].policy_posterior == tb.epochs[0].policy_posterior
            assert ta.score_delta == tb.score_delta

    def test_environment_draws_match_across_agents(self):
        # the cue-first agents visit the same locations, so matched seeds must
        # give them identical outcome sequences
        a = run_experiment(_config(agent=ObjectiveKind.EXPECTED_FREE_ENERGY, trials=5, seed=3))
        b = run_experiment(_config(agent=ObjectiveKind.EXPECTED_FREE_ENERGY, trials=5, seed=3,
                                   precision=2.0))
        for ta, tb in zip(a.trials, b.trials):
            assert [e.observation for e in ta.epochs] == [e.observation for e in tb.epochs]

    def test_custom_trial_count(self):
        record = run_experiment(_config(trials=3))
        assert len(record.trials) == 3

    def test_state_objectives_need_a_risk_prior(self):
        from efeplan.planning import ConfigurationError
        with pytest.raises(ConfigurationError, match="risk_state_prior"):
            run_experiment(_config(agent=ObjectiveKind.EXPECTED_UTILITY_STATES, trials=1))

    def test_state_objectives_run_with_model_supplied_prior(self, tmp_path):
        model = build_tmaze_model()
        path = tmp_path / "maze.json"
        save_spec(model, path)
        doc = json.loads(path.read_text())
        doc["risk_state_prior"] = [0.125] * 8
        path.write_text(json.dumps(doc))
        for agent in (ObjectiveKind.EXPECTED_UTILITY_STATES, ObjectiveKind.RISK_ONLY):
            record = run_experiment(_config(agent=agent, trials=2, model_path=str(path)))
            assert len(record.trials) == 2
            breakdown = record.trials[0].epochs[0].breakdowns[0]
            assert math.isfinite(breakdown.risk_states)
        loaded = load_spec(path)
        rows = evidence_bound_diagnostic(loaded, loaded.state_prior, loaded.policies[0],
                                         PlanContext(current_epoch=1), loaded.risk_state_prior)
        assert all(math.isfinite(bound) for _, _, bound in rows)

    def test_agent_ordering_on_default_seed(self, efe_record):
        eig = run_experiment(_config(agent=ObjectiveKind.INFO_GAIN_ONLY))
        eu = run_experiment(_config(agent=ObjectiveKind.EXPECTED_UTILITY_OUTCOMES))
        assert efe_record.final_score - eu.final_score >= 100
        assert efe_record.final_score - eig.final_score >= 100

    def test_non_maze_model_is_rejected(self, tmp_path):
        import helpers
        rng = np.random.default_rng(71)
        model = helpers.random_model(rng, max_states=3, max_outcomes=3, max_horizon=2)
        path = tmp_path / "small.json"
        save_spec(model, path)
        from efeplan.model import ModelSpecError
        with pytest.raises(ModelSpecError, match="maze-shaped"):
            run_experiment(_config(trials=1, model_path=str(path)))


def _float_hex(x):
    """x with every float spelled as its hex string, so NaN equals NaN and a
    difference in the last bit shows."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, tuple):
        return tuple(_float_hex(v) for v in x)
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,
                *(_float_hex(getattr(x, f.name)) for f in dataclasses.fields(x)))
    return x


def _memo_free_trials(config: ExperimentConfig) -> tuple:
    """run_experiment's trials on the maze, planned afresh at every epoch with
    a new environment per trial."""
    model = build_tmaze_model(config.reward_prob)
    trials, cumulative = [], 0
    for trial in range(1, config.trials + 1):
        env_rng, tie_rng = _trial_rngs(config.seed, trial)
        env = ModelEnvironment(model, env_rng)
        env.reset(state_index(default_context(trial), CENTER))
        record = run_trial(model, env, config, tie_rng, trial=trial,
                           cumulative_before=cumulative)
        cumulative = record.cumulative_score
        trials.append(record)
    return tuple(trials)


class TestHistoryMemo:
    @pytest.mark.parametrize("agent", ["efe", "eig", "eu"])
    def test_matches_memo_free_loop_on_the_maze(self, agent):
        for seed in (0, 7, 31):
            config = _config(agent=ObjectiveKind(agent), seed=seed)
            got = run_experiment(config).trials
            assert _float_hex(got) == _float_hex(_memo_free_trials(config)), seed

    def test_memo_is_scoped_to_one_run(self):
        # back to back, each run meets the histories of the one before it
        for config in (
            _config(trials=13),
            _config(trials=13, precision=4.0),
            _config(trials=13, agent=ObjectiveKind.INFO_GAIN_ONLY),
            _config(trials=13, reward_prob=0.6),
        ):
            got = run_experiment(config).trials
            assert _float_hex(got) == _float_hex(_memo_free_trials(config)), config

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_shared_memo_matches_no_memo_on_random_models(self, seed):
        rng = np.random.default_rng(seed)
        model = helpers.random_model(
            rng, max_states=4, max_outcomes=3, max_actions=3, min_horizon=2, max_horizon=4,
            all_policies=True, risk_prior=True,
        )
        for agent in ObjectiveKind:
            config = _config(agent=agent)
            memo, planned = {}, 0
            for trial in range(1, 7):  # at most 3 first observations: epoch 1 repeats
                records = [
                    run_trial(model,
                              _env_from_prior(model, np.random.default_rng([seed, trial])),
                              config, np.random.default_rng([seed, trial, 1]),
                              trial=trial, memo=shared)
                    for shared in (memo, None)
                ]
                assert _float_hex(records[0]) == _float_hex(records[1]), (agent, trial)
                planned += len(records[0].epochs)
            assert len(memo) < planned, agent


class TestWriteRecords:
    def test_row_counts(self, efe_record, tmp_path):
        write_records(efe_record, tmp_path, "csv")
        trials = (tmp_path / "trials.csv").read_text().strip().splitlines()
        beliefs = (tmp_path / "beliefs.csv").read_text().strip().splitlines()
        policies = (tmp_path / "policies.csv").read_text().strip().splitlines()
        breakdown = (tmp_path / "breakdown.csv").read_text().strip().splitlines()
        assert len(trials) == 51        # header + 50
        assert len(beliefs) == 151      # header + 50 trials x 3 epochs
        assert len(policies) == 51
        assert len(breakdown) == 1 + 50 * 2 * 10

    def test_cumulative_column_steps(self, efe_record, tmp_path):
        write_records(efe_record, tmp_path, "csv")
        rows = (tmp_path / "trials.csv").read_text().strip().splitlines()[1:]
        previous = 0
        for row in rows:
            cumulative = int(row.split(",")[-1])
            assert cumulative - previous in (-6, 0, 6)
            previous = cumulative

    def test_csv_round_trip(self, efe_record, tmp_path):
        write_records(efe_record, tmp_path, "csv")
        header, *rows = (tmp_path / "policies.csv").read_text().strip().splitlines()
        for row, trial in zip(rows, efe_record.trials):
            values = row.split(",")
            assert int(values[0]) == trial.trial
            stored = trial.epochs[1].policy_posterior
            for text, value in zip(values[1:], stored):
                assert float(text or "nan") == pytest.approx(value, rel=1e-11, abs=1e-12)

    def test_json_single_document(self, efe_record, tmp_path):
        write_records(efe_record, tmp_path, "json")
        doc = json.loads((tmp_path / "records.json").read_text())
        assert doc["config"]["agent"] == "efe"
        assert len(doc["trials"]) == 50
        assert len(doc["beliefs"]) == 150
        assert len(doc["policies"]) == 50
        assert len(doc["breakdown"]) == 50 * 2 * 10
        assert doc["trials"][0]["action1"] == "go-cue"

    @pytest.mark.parametrize("fmt,name", [("csv", "config.json"), ("json", "records.json")])
    def test_config_echo_names_the_written_format(self, tmp_path, fmt, name):
        write_records(run_experiment(_config(trials=1)), tmp_path, fmt)
        doc = json.loads((tmp_path / name).read_text())
        assert doc.get("config", doc)["output_format"] == fmt

    def test_config_echo_keys_are_the_config_fields(self, tmp_path):
        write_records(run_experiment(_config(trials=1)), tmp_path, "csv")
        doc = json.loads((tmp_path / "config.json").read_text())
        names = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert list(doc) == [*names, "output_format"]
        assert doc["agent"] == "efe"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_beliefs_of_a_generic_model_are_per_state(self, tmp_path, fmt):
        # outcomes stay below 7 because score_outcome knows only the maze's
        rng = np.random.default_rng(61)
        small = helpers.random_model(rng, max_states=6, max_outcomes=6, min_horizon=2,
                                     max_horizon=4)
        large = small
        while not 9 <= large.num_states <= 12:
            large = helpers.random_model(rng, max_states=12, max_outcomes=6, min_horizon=2,
                                         max_horizon=4)
        for model in (small, large):
            self._check_generic_model_tables(model, tmp_path / str(model.num_states), fmt)

    @staticmethod
    def _check_generic_model_tables(model, out, fmt):
        config = _config()
        trials, cumulative = [], 0
        for t in (1, 2, 3):
            env = _env_from_prior(model, np.random.default_rng([61, t]))
            trials.append(run_trial(model, env, config, np.random.default_rng([62, t]),
                                    trial=t, cumulative_before=cumulative))
            cumulative = trials[-1].cumulative_score
        record = ExperimentRecord(config=config, trials=tuple(trials), final_score=cumulative,
                                  duration_seconds=0.0)
        write_records(record, out, fmt)

        header = ["trial", "epoch", *[f"state_{s}" for s in range(model.num_states)]]
        if fmt == "csv":
            lines = (out / "beliefs.csv").read_text().splitlines()
            assert lines[0].split(",") == header
            rows = [line.split(",") for line in lines[1:]]
            contexts = [int(row["context"]) for row in _read_csv_rows(out / "trials.csv")]
        else:
            doc = json.loads((out / "records.json").read_text())
            rows = doc["beliefs"]
            assert all(list(row) == header for row in rows)
            rows = [list(row.values()) for row in rows]
            contexts = [row["context"] for row in doc["trials"]]
        # a model without the maze's layout writes the initial state index as the context
        assert contexts == [tr.initial_state for tr in trials]
        expected = [[tr.trial, e.epoch, *e.bma_states[e.epoch - 1]]
                    for tr in trials for e in tr.epochs]
        assert len(rows) == len(expected)
        for row, want in zip(rows, expected):
            assert [int(x) for x in row[:2]] == want[:2]
            assert [float(x) for x in row[2:]] == [float(f"{x:.12g}") for x in want[2:]]

    def test_byte_identical_across_runs(self, tmp_path):
        for sub in ("a", "b"):
            record = run_experiment(_config(trials=10, seed=5))
            write_records(record, tmp_path / sub, "csv")
            emit_plot_data(record, tmp_path / sub)
        for name in ("trials.csv", "beliefs.csv", "policies.csv", "breakdown.csv",
                     "config.json", "fig2_position_trial1.csv", "fig3_score.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


    @pytest.mark.parametrize("key", sorted(RUN_OUT_SHA256))
    def test_run_out_files_match_goldens(self, key, tmp_path, capsys):
        agent, seed, fmt = key.split("/")
        argv = ["run", "--agent", agent, "--seed", seed, "--out", str(tmp_path), "--format", fmt]
        assert main(argv) == 0
        capsys.readouterr()
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in sorted(tmp_path.iterdir())}
        assert digests == RUN_OUT_SHA256[key]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("agent", [ObjectiveKind.EXPECTED_FREE_ENERGY,
                                       ObjectiveKind.EXPECTED_UTILITY_OUTCOMES])
    def test_records_that_share_no_tuple_write_the_same_bytes(self, agent, fmt, tmp_path):
        config = _config(agent=agent)
        shared = run_experiment(config)
        unshared = _record_without_memo(config)

        def ids(record):
            return [id(e.breakdowns) for tr in record.trials for e in tr.epochs]
        assert len(set(ids(unshared))) == len(ids(unshared))  # every epoch its own tuple
        assert len(set(ids(shared))) < len(ids(shared)) / 5    # memo hits share them
        for name, record in (("shared", shared), ("unshared", unshared)):
            write_records(record, tmp_path / name, fmt)
            emit_plot_data(record, tmp_path / name)
        files = sorted(path.name for path in (tmp_path / "shared").iterdir())
        assert files == sorted(path.name for path in (tmp_path / "unshared").iterdir())
        for name in files:
            assert (tmp_path / "shared" / name).read_bytes() == \
                (tmp_path / "unshared" / name).read_bytes(), name

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_equal_tuples_render_their_own_zero_sign(self, fmt, tmp_path):
        record = _signed_zero_record()
        first, second = (tr.epochs[0] for tr in record.trials)
        assert first.policy_posterior == second.policy_posterior
        assert first.policy_posterior is not second.policy_posterior
        assert first.breakdowns == second.breakdowns
        write_records(record, tmp_path, fmt)
        emit_plot_data(record, tmp_path)
        tables = {"fig3_policies": _read_csv_rows(tmp_path / "fig3_policies.csv")}
        if fmt == "csv":
            tables.update((name, _read_csv_rows(tmp_path / f"{name}.csv"))
                          for name in ("policies", "breakdown"))
        else:
            doc = json.loads((tmp_path / "records.json").read_text())
            tables.update((name, doc[name]) for name in ("policies", "breakdown"))
        for name, rows in tables.items():
            zeros = [(int(row["trial"]), math.copysign(1.0, float(value)))
                     for row in rows for key, value in row.items()
                     if key not in ("trial", "epoch", "policy", "viable")
                     and value not in ("", None) and float(value) == 0.0]
            assert {sign for trial, sign in zeros if trial == 1} == {1.0}, name
            assert {sign for trial, sign in zeros if trial == 2} == {-1.0}, name


def _record_without_memo(config: ExperimentConfig) -> ExperimentRecord:
    """run_experiment's record with each trial planned through its own fresh memo."""
    model = _maze_model(config)
    env = ModelEnvironment(model)
    trials, cumulative = [], 0
    for trial in range(1, config.trials + 1):
        trials.append(_scheduled_trial(model, env, config, trial, cumulative))
        cumulative = trials[-1].cumulative_score
    return ExperimentRecord(config=config, trials=tuple(trials), final_score=cumulative,
                            duration_seconds=0.0)


def _signed_zero_record() -> ExperimentRecord:
    """Two trials whose posteriors and breakdowns are equal in value, but hold
    0.0 in trial 1 and -0.0 in trial 2."""
    record = run_experiment(_config(trials=2))
    trials = []
    for tr, zero in zip(record.trials, (0.0, -0.0)):
        epochs = tuple(dataclasses.replace(
            e,
            policy_posterior=(zero,) * (len(e.policy_posterior) - 1) + (1.0,),
            breakdowns=tuple(None if b is None else EfeBreakdown(zero, zero, zero, zero, zero)
                             for b in e.breakdowns),
        ) for e in tr.epochs)
        trials.append(dataclasses.replace(tr, epochs=epochs))
    return dataclasses.replace(record, trials=tuple(trials))


def _read_csv_rows(path: Path) -> list[dict[str, str]]:
    header, *lines = path.read_text().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


# Cells the writers must render exactly as the one-cell-at-a-time oracle does.
_CELL_VALUES = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.0, 1, True, False, math.nan, math.inf, -math.inf, 5e-324,
                     2.5e-310, 1e16, 123456789012345.0, 1.7976931348623157e308, None,
                     10**30, -(10**30), "white", "\u00e9t\u00e9", "\u4e2d", ""]),
    st.floats(),
    st.integers(),
    st.text(max_size=4),
)


@st.composite
def _tables(draw):
    """A header and rows: plain rows, or `_Rows` whose spans reuse some sources
    and may hold value-equal ones (0.0 and -0.0, 1 and 1.0) as separate objects."""
    width = draw(st.integers(1, 5))
    header = draw(st.lists(st.text(max_size=3), min_size=width, max_size=width, unique=True))

    def cells(n):
        return st.lists(_CELL_VALUES, min_size=n, max_size=n)

    if draw(st.booleans()):
        return header, draw(st.lists(cells(width), max_size=6))
    lead = draw(st.integers(0, width))
    sources = draw(st.lists(st.lists(cells(width - lead), max_size=3), min_size=1, max_size=4))
    rows = _Rows()
    for pick in draw(st.lists(st.integers(0, len(sources) - 1), max_size=6)):
        rows.add(draw(cells(lead)), sources[pick], lambda tails: tails)
    return header, rows


class TestCellRenderers:
    @settings(max_examples=200, deadline=None)
    @given(table=_tables())
    def test_csv_matches_the_per_cell_oracle(self, table):
        header, rows = table
        assert _csv_text(header, rows) == helpers.csv_table_by_old_rule(header, rows)

    @settings(max_examples=200, deadline=None)
    @given(tables=st.dictionaries(st.text(max_size=3).filter(lambda name: name != "config"),
                                  _tables(), max_size=3))
    def test_json_matches_json_dumps(self, tables):
        config = {"agent": "efe", "seed": 0, "reward_prob": 0.98, "model_path": None}
        assert _json_text(config, tables) == helpers.records_json_by_dumps(config, tables)


class TestEmitPlotData:
    def test_first_trial_matrices(self, efe_record, tmp_path):
        emit_plot_data(efe_record, tmp_path)
        position = (tmp_path / "fig2_position_trial1.csv").read_text().strip().splitlines()
        context = (tmp_path / "fig2_context_trial1.csv").read_text().strip().splitlines()
        assert len(position) == 13      # header + 4 locations x 3 epochs
        assert len(context) == 7        # header + 2 contexts x 3 epochs
        assert position[0].split(",") == ["epoch", "location",
                                          "at_epoch1", "at_epoch2", "at_epoch3"]
        assert all(len(line.split(",")) == 5 for line in position[1:])

    def test_score_series_and_bands(self, efe_record, tmp_path):
        emit_plot_data(efe_record, tmp_path)
        score = (tmp_path / "fig3_score.csv").read_text().strip().splitlines()
        assert len(score) == 51
        bands = (tmp_path / "fig3_context_bands.csv").read_text().strip().splitlines()
        assert bands[1:] == ["10,12", "30,30"]

    def test_policy_heatmap_rows(self, efe_record, tmp_path):
        emit_plot_data(efe_record, tmp_path)
        rows = (tmp_path / "fig3_policies.csv").read_text().strip().splitlines()
        assert len(rows) == 51
        assert rows[0].split(",")[1] == "policy1"


class TestParseCli:
    def test_run_defaults(self):
        config = config_from_args(parse_cli(["run", "--agent", "efe", "--seed", "7"]))
        assert config.agent is ObjectiveKind.EXPECTED_FREE_ENERGY
        assert config.trials == 50
        assert config.seed == 7
        assert config.precision == 1.0
        assert config.reward_prob == 0.98

    @pytest.mark.parametrize("command", ["run", "trial"])
    def test_flag_defaults_are_the_config_defaults(self, command):
        assert config_from_args(parse_cli([command])) == ExperimentConfig()

    def test_every_agent_name_maps(self):
        names = {
            "efe": ObjectiveKind.EXPECTED_FREE_ENERGY,
            "eig": ObjectiveKind.INFO_GAIN_ONLY,
            "eu": ObjectiveKind.EXPECTED_UTILITY_OUTCOMES,
            "eu-states": ObjectiveKind.EXPECTED_UTILITY_STATES,
            "klc": ObjectiveKind.RISK_ONLY,
        }
        for name, kind in names.items():
            config = config_from_args(parse_cli(["run", "--agent", name]))
            assert config.agent is kind

    def test_unknown_agent_is_usage_error(self):
        with pytest.raises(UsageError):
            parse_cli(["run", "--agent", "bogus"])

    def test_malformed_flag_is_usage_error(self):
        with pytest.raises(UsageError):
            parse_cli(["run", "--trials", "many"])

    def test_main_exit_codes(self, tmp_path, capsys):
        two_state = tmp_path / "two_state.json"
        save_spec(GenerativeModel(
            num_states=2, num_outcomes=2, num_actions=1, horizon=3,
            likelihood=np.eye(2), transitions=(np.eye(2),), preferences=np.zeros(2),
            state_prior=Categorical(np.array([0.5, 0.5])),
            policies=PolicySet((Policy((0, 0)),)),
        ), two_state)
        nan_a = build_tmaze_model().likelihood.copy()
        nan_a[0, 0] = math.nan
        nan_a = _save_maze(tmp_path / "nan_a.json", likelihood=nan_a)
        inf_c = build_tmaze_model().preferences.copy()
        inf_c[1] = math.inf
        inf_c = _save_maze(tmp_path / "inf_c.json", preferences=inf_c)
        bad_risk = tmp_path / "bad_risk.json"
        save_spec(build_tmaze_model(), bad_risk)
        doc = json.loads(bad_risk.read_text())
        bad_risk.write_text(json.dumps({**doc, "risk_state_prior": [0.5] * 8}))
        huge_c = tmp_path / "huge_c.json"
        huge_c.write_text(json.dumps({**doc, "C": [10**400] + doc["C"][1:]}))
        bad_d = tmp_path / "bad_d.json"
        bad_d.write_text(json.dumps({**doc, "D": [0.5] * 8}))
        half_column = tmp_path / "half_column.json"
        doc["A"][0][0] = 0.5
        half_column.write_text(json.dumps(doc))
        not_utf8 = tmp_path / "not_utf8.json"
        not_utf8.write_bytes(b"\xff\xfe")
        maze = json.loads(Path(_save_maze(tmp_path / "maze.json")).read_text())
        repeated = tmp_path / "repeated_policy.json"
        repeated.write_text(json.dumps({**maze, "policies": maze["policies"] + [[0, 3]]}))
        overflow_c = tmp_path / "overflow_c.json"
        overflow_c.write_text(json.dumps({**maze, "C": [-1e308, 1e308, 0, 0, 0, 0, 0]}))
        json_list = tmp_path / "list.json"
        json_list.write_text(json.dumps([maze]))
        # built from the clean maze, so each fails on its own defect alone
        named_problem = {
            str(repeated): "policies[10] = [0, 3] repeats policies[3]",
            str(overflow_c): "normalised log-preferences entry [0] is -inf",
            str(json_list): "model spec must be a key-value tree",
        }
        horizon_one = _save_horizon_one(tmp_path / "horizon_one.json")
        # finite normalised log-preferences whose sum over two future epochs is not
        big_c = _save_maze(tmp_path / "big_c.json", preferences=np.array([1e308] + [0.0] * 6))
        big_a = build_tmaze_model().likelihood.copy()
        big_a[:2, 0] = 1e308
        big_a = _save_maze(tmp_path / "big_a.json", likelihood=big_a)
        big_d = tmp_path / "big_d.json"
        big_d.write_text(json.dumps({**maze, "D": [1e308, 1e308] + [0] * 6}))
        big_risk = tmp_path / "big_risk.json"
        big_risk.write_text(json.dumps({**maze, "risk_state_prior": [1e308, 1e308] + [0] * 6}))
        table = [
            (["run", "--agent", "bogus"], 1),
            (["run", "--reward-prob", "nan"], 1),
            (["run", "--reward-prob", "1.5"], 1),
            (["run", "--trials", "0"], 1),
            (["run", "--precision", "nan"], 1),
            (["run", "--tie-tolerance", "-1"], 1),
            (["trial", "--trial", "0"], 1),
            (["decompose", "--executed", "3,1"], 1),
            (["decompose", "--beliefs", "1,2"], 1),
            (["decompose", "--executed", "9"], 1),
            (["decompose", "--epoch", "2"], 1),
            (["decompose", "--precision", "1"], 1),
            (["run", "--seed", "-1"], 1),
            (["trial", "--seed", "-3"], 1),
            (["run", "--agent", "eu-states", "--trials", "1"], 2),
            (["trial", "--model", str(two_state)], 2),
            (["run", "--model", str(tmp_path / "maze.json"), "--reward-prob", "0.6"], 1),
            (["trial", "--model", str(tmp_path / "maze.json"), "--reward-prob", "0.6"], 1),
            (["validate", "--model", nan_a], 2),
            (["run", "--model", nan_a, "--trials", "1"], 2),
            (["validate", "--model", inf_c], 2),
            (["run", "--model", inf_c, "--trials", "1"], 2),
            (["decompose", "--model", inf_c], 2),
            (["validate", "--model", str(bad_risk)], 2),
            (["validate", "--model", str(huge_c)], 2),
            (["validate", "--model", str(bad_d)], 2),
            (["validate", "--model", str(half_column)], 2),
            (["validate", "--model", str(not_utf8)], 2),
            (["run", "--model", str(not_utf8), "--trials", "1"], 2),
            (["decompose", "--model", str(not_utf8)], 2),
            (["validate", "--model", str(repeated)], 2),
            (["run", "--model", str(repeated), "--trials", "1"], 2),
            (["decompose", "--model", str(repeated)], 2),
            (["validate", "--model", str(overflow_c)], 2),
            (["run", "--model", str(overflow_c), "--trials", "1"], 2),
            (["decompose", "--model", str(overflow_c)], 2),
            (["decompose", "--agent", "klc"], 2),
            (["validate", "--model", str(json_list)], 2),
            (["decompose", "--model", horizon_one], 2),
            (["validate", "--model", big_c], 2),
            (["run", "--model", big_c, "--trials", "1"], 2),
            (["decompose", "--model", big_c], 2),
            (["validate", "--model", big_a], 2),
            (["validate", "--model", str(big_d)], 2),
            (["validate", "--model", str(big_risk)], 2),
            (["decompose", "--beliefs", "1e308,1e308,1,1,1,1,1,1"], 0),
            (["validate", "--model", str(tmp_path / "absent.json")], 3),
        ]
        for argv, code in table:
            assert main(argv) == code, argv
            err = capsys.readouterr().err
            assert len(err.splitlines()) == (code != 0), (argv, err)
            assert "Traceback" not in err, argv
            assert "np." not in err, (argv, err)  # values print as Python floats
            if argv[-2:] == ["--agent", "klc"]:
                assert "risk_state_prior" in err, err  # the message run prints
            if "--reward-prob" in argv and "--model" in argv:
                assert "carries its own likelihood" in err, err
            spec = argv[argv.index("--model") + 1] if "--model" in argv else None
            if spec in named_problem:
                assert named_problem[spec] in err, (argv, err)

    def test_missing_risk_prior_reads_the_same_everywhere(self, capsys):
        maze = build_tmaze_model()
        with pytest.raises(ConfigurationError) as info:
            score_policies(maze, maze.state_prior, maze.policies, PlanContext(current_epoch=1),
                           ObjectiveKind.RISK_ONLY)
        for command in ("run", "trial", "decompose"):
            assert main([command, "--agent", "klc"]) == 2
            assert capsys.readouterr().err == f"error: {info.value}\n", command

    def test_decompose_names_the_horizon_without_a_planning_epoch(self, tmp_path, capsys):
        assert main(["decompose", "--model", _save_horizon_one(tmp_path / "h1.json")]) == 2
        assert capsys.readouterr().err == (
            "error: decompose needs a model with a planning epoch; horizon 1 has none\n"
        )

    def test_main_run_and_validate_succeed(self, tmp_path, capsys):
        save_spec(build_tmaze_model(), tmp_path / "maze.json")
        assert main(["validate", "--model", str(tmp_path / "maze.json")]) == 0
        assert main(["run", "--trials", "2", "--out", str(tmp_path / "out")]) == 0
        assert main(["run", "--trials", "1", "--precision", "1e308"]) == 0
        assert (tmp_path / "out" / "trials.csv").exists()
        capsys.readouterr()

    @pytest.mark.parametrize("command", sorted(CLI_STDOUT_SHA256))
    def test_trial_and_decompose_stdout_match_goldens(self, command, capsys):
        assert main(command.split()) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == CLI_STDOUT_SHA256[command]

    def test_decompose_lines_stay_in_their_columns_for_huge_preferences(self, tmp_path, capsys):
        # a valid spec whose G is 5e307: fixed-point G would print 308 digits
        spec = tmp_path / "huge_c.json"
        save_spec(GenerativeModel(
            num_states=2, num_outcomes=2, num_actions=1, horizon=2,
            likelihood=np.eye(2), transitions=(np.eye(2),), preferences=np.array([1e308, 0.0]),
            state_prior=Categorical(np.array([0.5, 0.5])), policies=PolicySet((Policy((0,)),)),
        ), spec)
        assert main(["decompose", "--model", str(spec)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split() == ["(0)", "5.00e+307", "nan", "0.0000", "0.6931", "-5.000e+307"]
        assert max(map(len, lines)) <= 70  # 12-character name and five columns of 10-11

    def test_main_trial_and_decompose_succeed(self, capsys):
        assert main(["trial", "--agent", "eu", "--seed", "0"]) == 0
        assert main(["trial", "--trial", "1000000"]) == 0
        assert main(["decompose", "--agent", "efe"]) == 0
        out = capsys.readouterr().out
        assert "policy" in out


class TestBuildTables:
    def test_breakdown_marks_unviable_policies(self, efe_record):
        tables = build_tables(efe_record)
        header, rows = tables["breakdown"]
        viable_column = header.index("viable")
        epoch_column = header.index("epoch")
        epoch2 = [r for r in rows if r[epoch_column] == 2]
        assert any(r[viable_column] == 0 for r in epoch2)
        for row in epoch2:
            if row[viable_column] == 0:
                assert row[header.index("G")] is None
