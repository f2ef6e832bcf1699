"""Trial loop, experiment driver, persistence, and CLI parsing."""
import contextlib
import copy
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from efeplan import harness
from efeplan.cli import AGENT_NAMES, UsageError, config_from_args, main, parse_cli
from efeplan.harness import (
    ExperimentConfig,
    ExperimentRecord,
    TrialRecord,
    _csv_text,
    _json_text,
    _plans,
    _Rows,
    _scheduled_trial,
    _trial_rngs,
    build_tables,
    emit_plot_data,
    run_experiment,
    run_trial,
    write_records,
)
from efeplan.inference import ImpossibleObservationError, bma_beliefs, infer_states
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
    select_action,
    tie_set,
)
from efeplan.tmaze import (
    BLACK,
    CENTER,
    LEFT,
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


def _save_maze_with_risk_prior(path) -> str:
    """The maze's spec with a uniform risk_state_prior, which the eu-states and
    klc objectives score against."""
    return _save_maze(path, risk_state_prior=Categorical(np.full(8, 0.125)))


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
        [rngs] = _trial_rngs(0, [12])
        with pytest.raises(ImpossibleObservationError, match="trial 12, epoch 2") as info:
            _scheduled_trial(contradicting, env, _config(), 12, rngs)
        assert isinstance(info.value, ModelSpecError)
        assert (info.value.trial, info.value.epoch) == (12, 2)
        # the filter names what it saw, not a policy the agent never committed to
        assert "outcome 6 at timestep 2 has zero probability" in str(info.value)
        assert "policy" not in str(info.value)

    def test_more_outcomes_than_the_maze_scores_are_refused_before_a_draw(self):
        model = GenerativeModel(
            num_states=2, num_outcomes=9, num_actions=1, horizon=2,
            likelihood=np.full((9, 2), 1 / 9), transitions=(np.eye(2),), preferences=np.zeros(9),
            state_prior=Categorical(np.array([0.5, 0.5])), policies=PolicySet((Policy((0,)),)),
        )
        env = ModelEnvironment(model, np.random.default_rng(0))
        env.reset(0)
        before = env.rng.bit_generator.state
        with pytest.raises(ValueError, match="maze's 7 outcome scores; the model has 9 outcomes"):
            run_trial(model, env, _config(), np.random.default_rng(1))
        assert env.rng.bit_generator.state == before

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
        for seed in (0, 1, 7919, 2**40 + 3, 2**64 + 1, 2**128 + 51):
            trials = (1, 2, 13, 50)
            children = np.random.SeedSequence(seed).spawn(2 * max(trials))
            for trial, pair in zip(trials, _trial_rngs(seed, trials), strict=True):
                expected = [np.random.default_rng(children[2 * (trial - 1) + j]).random(4)
                            for j in (0, 1)]
                got = [rng.random(4) for rng in pair]
                assert all(np.array_equal(a, b) for a, b in zip(got, expected)), (seed, trial)
            # spawn's child k is SeedSequence(seed, spawn_key=(k,)); from trial
            # 2**31 + 1 on, k takes two 32-bit words
            trials = (2**31, 2**31 + 1, 2**40)
            for trial, pair in zip(trials, _trial_rngs(seed, trials), strict=True):
                expected = [np.random.default_rng(np.random.SeedSequence(
                    seed, spawn_key=(2 * (trial - 1) + j,))).random(4) for j in (0, 1)]
                got = [rng.random(4) for rng in pair]
                assert all(np.array_equal(a, b) for a, b in zip(got, expected)), (seed, trial)
        # a run longer than one seeding pass goes on with the same children
        trials = range(1, harness._SEEDED_TRIALS + 3)
        children = np.random.SeedSequence(3).spawn(2 * len(trials))
        got = [rng.random(2) for pair in _trial_rngs(3, trials) for rng in pair]
        assert all(np.array_equal(a, np.random.default_rng(child).random(2))
                   for a, child in zip(got, children, strict=True))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 9, 2**96 - 1, 2**96,
                                          2**128 + 5, 2**160 + 7, 2**200 + 12345]),
                          st.integers(0, 2**192 - 1)),
           keys=st.lists(st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**40, 2**64]),
                                   st.integers(0, 2**96)), min_size=1, max_size=8))
    def test_spawned_states_match_seed_sequence(self, seed, keys):
        got = harness._spawned_states(seed, keys)
        for key, row in zip(keys, got, strict=True):
            want = np.random.SeedSequence(seed, spawn_key=(key,)).generate_state(4, np.uint64)
            assert row.dtype == want.dtype and np.array_equal(row, want), (seed, key)

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
        path = _save_maze_with_risk_prior(tmp_path / "maze.json")
        for agent in (ObjectiveKind.EXPECTED_UTILITY_STATES, ObjectiveKind.RISK_ONLY):
            record = run_experiment(_config(agent=agent, trials=2, model_path=str(path)))
            assert len(record.trials) == 2
            breakdown = record.trials[0].epochs[0].breakdowns[0]
            assert math.isfinite(breakdown.risk_states)
        loaded = load_spec(path)
        rows = evidence_bound_diagnostic(loaded, loaded.state_prior, loaded.policies[0],
                                         PlanContext(current_epoch=1), loaded.risk_state_prior)
        assert all(math.isfinite(bound) for _, _, bound in rows)

    def test_an_agent_name_plans_as_its_member(self, tmp_path):
        # on a spec with a risk prior, a name kept as a string planned as klc
        path = _save_maze_with_risk_prior(tmp_path / "maze.json")
        by_name, by_member = (run_experiment(_config(agent=agent, trials=20, model_path=path))
                              for agent in ("efe", ObjectiveKind.EXPECTED_FREE_ENERGY))
        assert by_name.config.agent is ObjectiveKind.EXPECTED_FREE_ENERGY
        assert _float_hex(by_name.trials) == _float_hex(by_member.trials)
        for fmt in ("csv", "json"):
            assert write_records(by_name, tmp_path / fmt, fmt)
        assert json.loads((tmp_path / "csv" / "config.json").read_text())["agent"] == "efe"

    def test_an_unknown_agent_is_refused_in_one_line(self):
        with pytest.raises(ValueError, match="'nope'") as info:
            _config(agent="nope")
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("field, value, stored", [
        ("trials", True, None), ("seed", False, None), ("precision", True, None),
        ("tie_tolerance", np.True_, None), ("reward_prob", True, None),
        ("trials", 2.5, None), ("seed", 1.5, None), ("trials", "3", None),
        ("trials", np.int64(2), 2), ("seed", np.uint8(7), 7),
        ("reward_prob", 1, 1),  # a real field keeps the number it was given
    ])
    def test_integer_fields_hold_ints_and_no_field_takes_a_bool(self, field, value, stored,
                                                                 tmp_path):
        if stored is None:
            with pytest.raises(ValueError, match=field) as info:
                _config(**{field: value})
            assert "\n" not in str(info.value)
            return
        config = _config(**{field: value})
        assert type(getattr(config, field)) is int and getattr(config, field) == stored
        write_records(run_experiment(config), tmp_path)
        assert json.loads((tmp_path / "config.json").read_text())[field] == stored

    @pytest.mark.parametrize("field, value", [
        ("precision", "1"), ("tie_tolerance", None), ("reward_prob", None),
        ("reward_prob", "0.5"), pytest.param("precision", 10**400, id="precision-10**400"),
        pytest.param("tie_tolerance", -(10**400), id="tie_tolerance--10**400"),
        ("precision", Fraction(1, 2)), ("reward_prob", Decimal("0.5")),
        ("model_path", 3), ("model_path", ["maze.json"]),
    ])
    def test_a_field_of_the_wrong_kind_is_refused_in_one_line(self, field, value):
        with pytest.raises(ValueError, match=field) as info:
            _config(**{field: value})
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("as_path", [Path, os.fsencode])
    def test_any_model_path_is_stored_as_its_str(self, as_path, tmp_path):
        spec = _save_maze(tmp_path / "maze.json")
        for fmt in ("csv", "json"):
            written = {}
            for name, model_path in (("str", spec), ("path", as_path(spec))):
                config = _config(trials=2, model_path=model_path)
                assert config.model_path == spec
                out = tmp_path / fmt / name
                write_records(run_experiment(config), out, fmt)
                written[name] = {p.name: p.read_bytes() for p in out.iterdir()}
            assert written["path"] == written["str"], fmt

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
    """run_experiment's trials on the config's model, planned afresh at every
    epoch with a new environment per trial."""
    model = (build_tmaze_model(config.reward_prob) if config.model_path is None
             else load_spec(config.model_path))
    trials, cumulative = [], 0
    schedule = range(1, config.trials + 1)
    for trial, (env_rng, tie_rng) in zip(schedule, _trial_rngs(config.seed, schedule)):
        env = ModelEnvironment(model, env_rng)
        env.reset(state_index(default_context(trial), CENTER))
        record = run_trial(model, env, config, tie_rng, trial=trial,
                           cumulative_before=cumulative)
        cumulative = record.cumulative_score
        trials.append(record)
    return tuple(trials)


def _planned_epochs(monkeypatch) -> list:
    """A list that grows by one for every epoch the harness plans from now on."""
    planned = []
    plan_epoch = harness._plan_epoch
    monkeypatch.setattr(harness, "_plan_epoch",
                        lambda *args: planned.append(args) or plan_epoch(*args))
    return planned


def _memo_corpus(seed: int, deterministic: bool) -> tuple[GenerativeModel, dict]:
    """A random model and, per objective, the memo that six trials of it fill."""
    rng = np.random.default_rng(seed)
    model = helpers.random_model(
        rng, max_states=4, max_outcomes=3, max_actions=3, min_horizon=2, max_horizon=4,
        deterministic_likelihood=deterministic, all_policies=True, risk_prior=True,
    )
    memos: dict = {}
    for agent in ObjectiveKind:
        memo = memos[agent] = {}
        for trial in range(1, 7):
            run_trial(model, _env_from_prior(model, np.random.default_rng([seed, trial])),
                      _config(agent=agent), np.random.default_rng([seed, trial, 1]),
                      trial=trial, memo=memo)
    return model, memos


class TestHistoryMemo:
    @pytest.mark.parametrize("agent", ["efe", "eig", "eu"])
    def test_matches_memo_free_loop_on_the_maze(self, agent):
        for seed in (0, 7, 31):
            config = _config(agent=ObjectiveKind(agent), seed=seed)
            got = run_experiment(config).trials
            assert _float_hex(got) == _float_hex(_memo_free_trials(config)), seed

    def test_each_plan_key_keeps_its_own_memo(self):
        # back to back, each run meets the histories of the one before it
        for config in (
            _config(trials=13),
            _config(trials=13, precision=4.0),
            _config(trials=13, agent=ObjectiveKind.INFO_GAIN_ONLY),
            _config(trials=13, reward_prob=0.6),
        ):
            got = run_experiment(config).trials
            assert _float_hex(got) == _float_hex(_memo_free_trials(config)), config

    def test_runs_that_share_a_memo_match_the_memo_free_loop(self):
        first = _config(trials=13, precision=3.5)  # a key no other test plans
        evicting = [_config(trials=1, precision=10.0 + k)
                    for k in range(harness._shared_plans.cache_info().maxsize)]
        for config in (
            first,
            _config(seed=0), _config(seed=7),  # one key, two seeds
            _config(trials=13, precision=1), _config(trials=13, precision=1.0),
            _config(trials=13, tie_tolerance=0.0), _config(trials=13, tie_tolerance=-0.0),
            _config(trials=13, tie_tolerance=0.6),  # every action with mass ties
            _config(trials=13, reward_prob=1), _config(trials=13, reward_prob=1.0),
            # equal keys whose likelihoods differ in the sign of their zeros
            _config(trials=13, reward_prob=0.0), _config(trials=13, reward_prob=-0.0),
            _config(trials=13, agent=ObjectiveKind.INFO_GAIN_ONLY),
            *evicting,
            first,
        ):
            got = run_experiment(config).trials
            assert _float_hex(got) == _float_hex(_memo_free_trials(config)), config

    def test_a_repeated_plan_key_plans_no_epoch(self, monkeypatch):
        config = _config(trials=20, seed=11, precision=2.5)
        run_experiment(config)
        repeats = (config, dataclasses.replace(config, trials=7))
        want = [_float_hex(_memo_free_trials(again)) for again in repeats]
        planned = _planned_epochs(monkeypatch)
        got = [_float_hex(run_experiment(again).trials) for again in repeats]
        assert planned == []
        assert got == want

    def test_an_evicted_plan_key_plans_again(self, monkeypatch):
        first = _config(trials=5, precision=5.5)
        run_experiment(first)
        for k in range(harness._shared_plans.cache_info().maxsize):
            run_experiment(_config(trials=1, precision=20.0 + k))
        planned = _planned_epochs(monkeypatch)
        run_experiment(first)
        assert planned

    def test_trial_plans_through_the_runs_memo(self, monkeypatch, capsys):
        run_experiment(_config())
        planned = _planned_epochs(monkeypatch)
        assert main(["trial", "--trial", "7"]) == 0
        assert planned == []
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == CLI_STDOUT_SHA256["trial --trial 7"]

    def test_spec_runs_plan_the_file_they_read(self, tmp_path):
        path = tmp_path / "maze.json"
        for reward_prob in (0.6, 0.98):  # the same path, rewritten between the runs
            save_spec(build_tmaze_model(reward_prob), path)
            config = _config(trials=13, model_path=str(path))
            got = run_experiment(config).trials
            assert _float_hex(got) == _float_hex(_memo_free_trials(config)), reward_prob

    @pytest.mark.parametrize("agent", ["efe", "eig", "eu"])
    def test_actions_replay_through_select_action(self, agent):
        # the memo's hit path draws the tie-break itself; the public
        # select_action on each recorded marginal must pick the same actions
        for seed in range(32):
            config = _config(agent=ObjectiveKind(agent), seed=seed)
            trials = run_experiment(config).trials
            for tr, (_, tie_rng) in zip(trials, _trial_rngs(seed, [t.trial for t in trials])):
                replayed = tuple(
                    select_action(Categorical(np.array(e.action_marginal)), tie_rng,
                                  config.tie_tolerance)
                    for e in tr.epochs if e.action_marginal is not None
                )
                assert replayed == tr.actions, (seed, tr.trial)

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

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), deterministic=st.booleans())
    def test_memo_carries_each_historys_filtered_rows(self, seed, deterministic):
        # a history's records are its memo value, and their first rows are its
        # filtered beliefs: the whole-history filter of every policy the history
        # allows, then the viable policies' predictions mixed by the posterior.
        # The records are keyed by the tie set of their action marginal and
        # share their tuples, which the tables' id-keyed render cache relies on.
        model, memos = _memo_corpus(seed, deterministic)
        for agent, memo in memos.items():
            for (executed, observations), records in memo.items():
                epoch = len(observations)
                first = next(iter(records.values()))
                assert len(first.bma_states) == model.horizon
                rows = np.array(first.bma_states[:epoch])
                if epoch < model.horizon:
                    marginal = Categorical(np.array(first.action_marginal))
                    assert tuple(records) == tie_set(marginal, ExperimentConfig.tie_tolerance)
                else:
                    assert tuple(records) == (None,)
                for action, record in records.items():
                    assert record.action == action
                    assert record.breakdowns is first.breakdowns
                    assert record.bma_states is first.bma_states
                    assert record.policy_posterior is first.policy_posterior
                observed = tuple(enumerate(observations, start=1))
                allowed = [p for p in model.policies if p.actions[: epoch - 1] == executed]
                assert allowed
                for policy in allowed:
                    want = infer_states(model, policy, observed).states[:epoch]
                    assert all(np.array_equal(row, q.probs) for row, q in zip(rows, want)), (
                        agent, executed, observations, policy)
                if epoch < model.horizon:
                    predicted = [None] * len(model.policies)
                    ctx = PlanContext(current_epoch=epoch, executed_actions=executed)
                    viable = ctx.viable(model.policies)
                    scores = score_policies(model, Categorical(rows[-1]),
                                            [model.policies[i] for i in viable], ctx, agent)
                    for i, scored in zip(viable, scores):
                        predicted[i] = scored.states
                    post = Categorical(np.array(first.policy_posterior))
                    assert np.array_equal(first.bma_states[epoch:],
                                          bma_beliefs(post, predicted)), (agent, executed)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), deterministic=st.booleans())
    def test_each_history_shares_its_parents_belief_rows(self, seed, deterministic):
        # a miss reads its past filtered rows from a record of the history one
        # epoch shorter and keeps those very tuples, so each row is held once
        _, memos = _memo_corpus(seed, deterministic)
        for memo in memos.values():
            for (executed, observations), records in memo.items():
                epoch = len(observations)
                if epoch == 1:
                    continue
                parent = next(iter(memo[executed[:-1], observations[:-1]].values()))
                for record in records.values():
                    past = record.bma_states[: epoch - 1]
                    assert all(row is kept for row, kept in zip(past, parent.bma_states))


def _close(got, want, tol: float = 1e-12) -> bool:
    """Nested tuples of floats, None and EfeBreakdowns agree to tol; NaN matches NaN."""
    if isinstance(want, EfeBreakdown):
        return isinstance(got, EfeBreakdown) and _close(
            dataclasses.astuple(got), dataclasses.astuple(want), tol)
    if isinstance(want, tuple):
        return (isinstance(got, tuple) and len(got) == len(want)
                and all(_close(a, b, tol) for a, b in zip(got, want)))
    if want is None or isinstance(want, int):
        return got == want
    return (math.isnan(got) and math.isnan(want)) or abs(got - want) <= tol


class TestReferenceAgent:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), risk_prior=st.booleans(),
           all_policies=st.booleans(), deterministic=st.booleans(),
           precision=st.sampled_from([0.0, 1.0, 16.0]))
    def test_records_match_the_public_functions(self, seed, risk_prior, all_policies,
                                                 deterministic, precision):
        # every field of every record, replanned from its history with the
        # public functions; the chosen action lies in the reference tie set
        rng = np.random.default_rng(seed)
        model = helpers.random_model(
            rng, max_states=6, max_outcomes=6, max_actions=3, min_horizon=1, max_horizon=4,
            deterministic_likelihood=deterministic, all_policies=all_policies,
            risk_prior=risk_prior,
        )
        for agent in ObjectiveKind:
            if model.risk_state_prior is None and agent in (ObjectiveKind.EXPECTED_UTILITY_STATES,
                                                            ObjectiveKind.RISK_ONLY):
                continue
            config = _config(agent=agent, precision=precision)
            memo: dict = {}
            for trial in range(1, 4):
                env = _env_from_prior(model, np.random.default_rng([seed, trial]))
                record = run_trial(model, env, config, np.random.default_rng([seed, trial, 1]),
                                   trial=trial, memo=memo)
                for e, (want, tied) in zip(record.epochs,
                                           helpers.reference(model, config, record.epochs),
                                           strict=True):
                    for name, value in want.items():
                        assert _close(getattr(e, name), value), (agent, e.epoch, name)
                    assert e.action in tied, (agent, e.epoch)


def _posterior_gap(a: TrialRecord, b: TrialRecord) -> float:
    """The largest difference between two trials' policy posteriors and state beliefs."""
    return max(max(np.abs(np.subtract(e.policy_posterior, f.policy_posterior)).max(),
                   np.abs(np.subtract(e.bma_states, f.bma_states)).max())
               for e, f in zip(a.epochs, b.epochs, strict=True))


class TestPaperReductionsInTheLoop:
    """The abstract's two limits in the closed loop: without preferences the
    efe agent acts as the eig agent, and without ambiguity and uncertainty as
    the eu agent, on the same environment and tie-break streams."""

    def test_flat_preferences_make_the_maze_efe_agent_act_as_eig(self):
        flat = dataclasses.replace(build_tmaze_model(), preferences=np.zeros(7))
        schedule = range(1, 51)
        for seed in range(8):
            runs = []
            for agent in (ObjectiveKind.EXPECTED_FREE_ENERGY, ObjectiveKind.INFO_GAIN_ONLY):
                config, env, memo = _config(agent=agent, seed=seed), ModelEnvironment(flat), {}
                runs.append([_scheduled_trial(flat, env, config, trial, rngs, 0, memo)
                             for trial, rngs in zip(schedule, _trial_rngs(seed, schedule))])
            for efe, eig in zip(*runs, strict=True):
                assert efe.actions == eig.actions, (seed, efe.trial)
                assert _posterior_gap(efe, eig) <= 1e-12, (seed, efe.trial)

    def test_a_certain_unambiguous_maze_makes_efe_act_as_eu_to_the_bit(self):
        # reward probability 1 and a belief one-hot on the white centre: no
        # outcome is ambiguous and no state uncertain
        white_centre = state_index(WHITE, CENTER)
        model = dataclasses.replace(build_tmaze_model(1.0),
                                    state_prior=Categorical(np.eye(8)[white_centre]))
        schedule = range(1, 10)
        runs = []
        for agent in (ObjectiveKind.EXPECTED_FREE_ENERGY, ObjectiveKind.EXPECTED_UTILITY_OUTCOMES):
            config, env = _config(agent=agent, reward_prob=1.0), ModelEnvironment(model)
            memo, trials = {}, []
            for trial, (env_rng, tie_rng) in zip(schedule, _trial_rngs(0, schedule)):
                env.rng = env_rng
                env.reset(white_centre)
                trials.append(run_trial(model, env, config, tie_rng, trial=trial, memo=memo))
            runs.append(trials)
        for efe, eu in zip(*runs, strict=True):
            assert efe.actions == eu.actions == (LEFT, LEFT), efe.trial
            for e, f in zip(efe.epochs, eu.epochs, strict=True):
                assert _float_hex(e.policy_posterior) == _float_hex(f.policy_posterior)
                assert _float_hex(e.bma_states) == _float_hex(f.bma_states)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), c=st.floats(-50.0, 50.0))
    def test_flat_preferences_make_efe_act_as_eig(self, seed, c):
        rng = np.random.default_rng(seed)
        model = helpers.random_model(rng, max_outcomes=7, min_horizon=2, max_horizon=4)
        model = dataclasses.replace(model, preferences=np.full(model.num_outcomes, c))
        runs = []
        for agent in (ObjectiveKind.EXPECTED_FREE_ENERGY, ObjectiveKind.INFO_GAIN_ONLY):
            config, memo, trials = _config(agent=agent), {}, []
            tie_rng = np.random.default_rng([seed, 1])
            for trial in range(1, 4):
                env = _env_from_prior(model, np.random.default_rng([seed, trial]))
                trials.append(run_trial(model, env, config, tie_rng, trial=trial, memo=memo))
            runs.append(trials)
        for efe, eig in zip(*runs, strict=True):
            assert efe.actions == eig.actions, efe.trial
            assert _posterior_gap(efe, eig) <= 1e-12, efe.trial


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
    model, _ = _plans(config)
    env = ModelEnvironment(model)
    trials, cumulative = [], 0
    schedule = range(1, config.trials + 1)
    for trial, rngs in zip(schedule, _trial_rngs(config.seed, schedule)):
        trials.append(_scheduled_trial(model, env, config, trial, rngs, cumulative))
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
    rows = _Rows(lambda tails: tails)
    for pick in draw(st.lists(st.integers(0, len(sources) - 1), max_size=6)):
        rows.add(draw(cells(lead)), sources[pick])
    return header, rows


class TestBaselineKernels:
    def test_pinned_outputs_hold_on_the_baseline_kernels(self):
        # a record's float bits depend on OpenBLAS's kernel and numpy's SIMD
        # log, but the pinned files, stdout and public maths values must not:
        # rerun those checks with the oldest x86-64 OpenBLAS kernel and every
        # dispatched SIMD feature of this numpy that the machine has turned off
        core = (np._core if hasattr(np, "_core") else np.core)._multiarray_umath
        simd = [f for f in core.__cpu_dispatch__ if core.__cpu_features__.get(f)]
        tests = Path(__file__).parent
        checks = ["tests/test_harness.py::TestWriteRecords::test_run_out_files_match_goldens",
                  "tests/test_harness.py::TestParseCli::"
                  "test_trial_and_decompose_stdout_match_goldens",
                  "tests/test_public_maths.py"]
        env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1]),
               "OPENBLAS_CORETYPE": "Prescott", "NPY_DISABLE_CPU_FEATURES": " ".join(simd)}
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               *checks], capture_output=True, text=True, env=env,
                              cwd=tests.parent, timeout=300)
        cases = (len(RUN_OUT_SHA256) + len(CLI_STDOUT_SHA256)
                 + len(json.loads((tests / "data" / "public_maths.json").read_text())))
        assert done.returncode == 0 and f"{cases} passed" in done.stdout, done.stdout[-2000:]


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

    def test_each_source_object_is_derived_once_per_write(self):
        # value-equal but distinct sources: 0.0 and -0.0, 1 and 1.0 render apart
        sources = [(value,) for value in (0.0, -0.0, 1, 1.0)]
        derived = []

        def derive(source):
            derived.append(source)
            return [source]

        rows = _Rows(derive)
        for lead in range(12):
            rows.add([lead], sources[lead % 4])
        header = ["lead", "value"]
        plain = [[lead, *sources[lead % 4]] for lead in range(12)]
        config = {"agent": "efe", "seed": 0}
        for text, oracle in (
            (lambda: _csv_text(header, rows), helpers.csv_table_by_old_rule(header, plain)),
            (lambda: _json_text(config, {"t": (header, rows)}),
             helpers.records_json_by_dumps(config, {"t": (header, plain)})),
        ):
            derived.clear()
            assert text() == oracle
            assert list(map(id, derived)) == list(map(id, sources))


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

    def test_importing_the_cli_and_building_the_maze_leaves_numpy_random_unloaded(self):
        # importing numpy.random lengthens start-up: a run pays for it when it
        # builds its first generator, not every process that imports efeplan
        src = str(Path(harness.__file__).parents[1])
        code = ("import sys, efeplan, efeplan.cli\n"
                "from efeplan.model import validate\n"
                "from efeplan.tmaze import build_tmaze_model\n"
                "validate(build_tmaze_model())\n"
                "print('numpy.random' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
        assert done.stdout.strip() == "False", done.stderr

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
        huge_horizon = tmp_path / "huge_horizon.json"
        huge_horizon.write_text(json.dumps({**maze, "horizon": 10**400}))
        negative_horizon = tmp_path / "negative_horizon.json"
        negative_horizon.write_text(json.dumps({**maze, "horizon": -(10**400)}))
        wide_horizon = tmp_path / "wide_horizon.json"  # past int()'s limit of 4300 digits
        wide_horizon.write_text(json.dumps({**maze, "horizon": 0}).replace(
            '"horizon": 0', '"horizon": 1' + "0" * 5000))
        # built from the clean maze, so each fails on its own defect alone
        named_problem = {
            str(repeated): "policies[10] = [0, 3] repeats policies[3]",
            str(overflow_c): "normalised log-preferences entry [0] is -inf",
            str(json_list): "model spec must be a key-value tree",
            str(huge_horizon): "overflows G",
            str(negative_horizon): "horizon must be a positive integer, got -10000",
        }
        # each holds an integer of hundreds of digits or more, which its message
        # must not spell out
        short_lines = {str(huge_horizon), str(negative_horizon), str(wide_horizon)}
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
            (["decompose", "--executed", "1,"], 1),
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
            (["validate", "--model", str(huge_horizon)], 2),
            (["run", "--model", str(huge_horizon), "--trials", "1"], 2),
            (["decompose", "--model", str(huge_horizon)], 2),
            (["validate", "--model", str(negative_horizon)], 2),
            (["validate", "--model", str(wide_horizon)], 2),
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
            if argv[-2:] == ["--executed", "1,"]:
                assert err.startswith("usage error: --executed: "), err
            if "--reward-prob" in argv and "--model" in argv:
                assert "carries its own likelihood" in err, err
            spec = argv[argv.index("--model") + 1] if "--model" in argv else None
            if spec in named_problem:
                assert named_problem[spec] in err, (argv, err)
            if spec in short_lines:
                assert len(err) < 300, (argv, err)

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


# odd JSON values a spec mutation puts in place of a key's value or a list entry
_ODD_JSON = (0, -1, 1, 2, 0.5, -0.0, math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-320,
             10**400, -(10**400), True, False, None, "x", [], [0.5], {})
# the values each flag is given, valid and not; {spec}, {absent}, {out} and {a_file}
# stand for paths in the example's directory
_FLAG_VALUES = {
    "--agent": (*AGENT_NAMES, "bogus"),
    "--seed": ("0", "7", "-1", "x", str(2**64), "1e3"),
    "--precision": ("0", "1", "16", "1e308", "-1", "nan", "inf", "x"),
    "--tie-tolerance": ("0", "1e-9", "0.5", "-1", "nan", "inf"),
    "--reward-prob": ("0", "-0.0", "0.5", "0.98", "1", "1.5", "nan"),
    "--model": ("{spec}", "{spec}", "{spec}", "{absent}"),
    "--trials": ("1", "2", "0", "-1", "x"),
    "--format": ("csv", "json", "xml"),
    "--out": ("{out}", "{a_file}"),
    "--trial": ("1", "3", "50", "0", "-2", "x"),
    "--beliefs": ("1,1,1,1,1,1,1,1", "1,2", "0,0,0,0,0,0,0,0", "nan,1,1,1,1,1,1,1",
                  "1e308,1e308,1,1,1,1,1,1", "-1,1,1,1,1,1,1,1", ""),
    "--executed": ("", "0", "1", "3", "9", "-1", "1,", "x", "1,2"),
}
_COMMON_FLAGS = ("--agent", "--seed", "--precision", "--tie-tolerance", "--reward-prob", "--model")
_COMMAND_FLAGS = {
    "run": (*_COMMON_FLAGS, "--trials", "--format", "--out"),
    "trial": (*_COMMON_FLAGS, "--trial"),
    "decompose": ("--model", "--agent", "--beliefs", "--executed"),
    "validate": ("--model",),
}
_ALWAYS = {"run": "--trials", "validate": "--model"}  # no run of 50 trials; a spec to check


@functools.cache
def _maze_doc() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return json.loads(Path(_save_maze(Path(tmp, "maze.json"))).read_text())


@st.composite
def _mutated_maze_spec(draw) -> dict:
    """The maze's spec document after up to three mutations, each dropping a key
    or putting an odd JSON value in place of a key's value or of an entry nested
    in its lists."""
    doc = copy.deepcopy(_maze_doc())
    for _ in range(draw(st.integers(0, 3))):
        if not doc:
            break
        owner, key = doc, draw(st.sampled_from(sorted(doc)))
        while isinstance(owner[key], list) and owner[key] and draw(st.booleans()):
            owner, key = owner[key], draw(st.integers(0, len(owner[key]) - 1))
        if isinstance(owner, dict) and draw(st.booleans()):
            del owner[key]
        else:
            owner[key] = copy.deepcopy(draw(st.sampled_from(_ODD_JSON)))
    return doc


@st.composite
def _cli_argv(draw) -> list[str]:
    """A command and some of its flags, each with one of its values."""
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    argv = [command]
    for flag in _COMMAND_FLAGS[command]:
        if flag == _ALWAYS.get(command) or draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(_FLAG_VALUES[flag]))]
    return argv


class TestExitCodeContract:
    """Any spec and any flag values end in exit code 0-3, one stderr line on a
    nonzero exit, and no warning."""

    @settings(max_examples=200, deadline=None)
    @given(doc=_mutated_maze_spec(), argv=_cli_argv())
    # counts of hundreds of digits; the horizon's once ended in a traceback
    @example(doc={**_maze_doc(), "horizon": 10**400}, argv=["validate", "--model", "{spec}"])
    @example(doc={**_maze_doc(), "num_states": 10**400}, argv=["run", "--model", "{spec}"])
    def test_every_input_ends_in_a_documented_exit_property(self, doc, argv):
        with tempfile.TemporaryDirectory() as tmp:
            paths = {name: str(Path(tmp, name)) for name in ("spec", "absent", "out", "a_file")}
            Path(paths["spec"]).write_text(json.dumps(doc))
            Path(paths["a_file"]).write_text("")
            argv = [arg.format(**paths) for arg in argv]
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main(argv)
        assert code in (0, 1, 2, 3), (argv, err.getvalue())
        assert len(err.getvalue().splitlines()) == (code != 0), (argv, err.getvalue())
        assert not caught, (argv, [str(w.message) for w in caught])


class TestBuildTables:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_horizon_one_record_is_refused_in_one_line(self, fmt, tmp_path):
        model = load_spec(_save_horizon_one(tmp_path / "h1.json"))
        env = ModelEnvironment(model, np.random.default_rng(0))
        env.reset(0)
        trial = run_trial(model, env, _config(), np.random.default_rng(1))
        record = ExperimentRecord(config=_config(), trials=(trial,),
                                  final_score=trial.cumulative_score, duration_seconds=0.0)
        with pytest.raises(ValueError) as info:
            write_records(record, tmp_path / fmt, fmt)
        assert str(info.value) == (
            "the policies table needs a planning epoch; a horizon-1 trial has none")
        assert "\n" not in str(info.value)
        assert not (tmp_path / fmt).exists()

    def test_an_unknown_format_is_refused_before_the_directory_is_made(self, efe_record,
                                                                       tmp_path):
        with pytest.raises(ValueError, match="unknown output format: 'xml'"):
            write_records(efe_record, tmp_path / "out", "xml")
        assert not (tmp_path / "out").exists()

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

    def test_a_non_maze_model_writes_action_indices(self, tmp_path):
        # six actions: the maze's four action labels cannot name action 5, and
        # the model with the maze's 8 states still lacks the maze's layout
        for num_states in (2, 8):
            to_last = np.zeros((num_states, num_states))
            to_last[-1] = 1.0
            likelihood = np.zeros((2, num_states))
            likelihood[0, :-1] = likelihood[1, -1] = 1.0  # the last state alone shows 1
            model = GenerativeModel(
                num_states=num_states, num_outcomes=2, num_actions=6, horizon=2,
                likelihood=likelihood, transitions=(*[np.eye(num_states)] * 5, to_last),
                preferences=np.array([0.0, 3.0]),
                state_prior=Categorical(np.full(num_states, 1.0 / num_states)),
                policies=PolicySet(tuple(Policy((a,)) for a in range(6))),
            )
            env = ModelEnvironment(model, np.random.default_rng(0))
            env.reset(0)
            trial = run_trial(model, env, _config(), np.random.default_rng(1))
            assert trial.actions == (5,)
            record = ExperimentRecord(config=_config(), trials=(trial,),
                                      final_score=trial.cumulative_score, duration_seconds=0.0)
            out = tmp_path / str(num_states)
            state_cols = [f"state_{s}" for s in range(num_states)]
            write_records(record, out / "csv", "csv")
            rows = (out / "csv" / "trials.csv").read_text().splitlines()
            assert rows[0].split(",")[:3] == ["trial", "context", "action1"]
            assert rows[1].split(",")[:3] == ["1", "0", "5"]
            beliefs = (out / "csv" / "beliefs.csv").read_text().splitlines()
            assert beliefs[0].split(",") == ["trial", "epoch", *state_cols]
            write_records(record, out / "json", "json")
            doc = json.loads((out / "json" / "records.json").read_text())
            assert doc["trials"][0]["action1"] == 5
            assert all(list(row) == ["trial", "epoch", *state_cols] for row in doc["beliefs"])
            with pytest.raises(ValueError, match="maze layout") as info:
                emit_plot_data(record, out / "plots")
            assert "\n" not in str(info.value)
            assert not (out / "plots").exists()
