"""Maze construction, context schedule, simulator statistics, scoring."""
import math

import numpy as np
import pytest

from efeplan.model import ModelEnvironment, validate
from efeplan.numerics import Categorical, kl_divergence
from efeplan.tmaze import (
    BLACK,
    CENTER,
    CUE,
    LEFT,
    RIGHT,
    TMAZE_POLICIES,
    WHITE,
    build_tmaze_model,
    default_context,
    score_outcome,
    state_index,
)


class TestBuildModel:
    def test_dimensions(self):
        model = build_tmaze_model()
        assert (model.num_states, model.num_outcomes, model.num_actions) == (8, 7, 4)
        assert model.horizon == 3
        assert len(model.policies) == 10
        assert tuple(p.actions for p in model.policies) == TMAZE_POLICIES

    @pytest.mark.parametrize("reward_prob", [0.0, 0.5, 0.98, 1.0])
    def test_validates_clean(self, reward_prob):
        assert validate(build_tmaze_model(reward_prob)) == []

    def test_center_columns_are_identical_in_both_contexts(self):
        model = build_tmaze_model()
        white_center = model.likelihood[:, state_index(WHITE, 0)]
        black_center = model.likelihood[:, state_index(BLACK, 0)]
        assert np.array_equal(white_center, black_center)
        assert white_center[0] == 1.0

    def test_arm_columns_follow_reward_probability(self):
        model = build_tmaze_model()
        left_white = model.likelihood[:, state_index(WHITE, 1)]
        assert np.allclose(left_white, [0, 0.98, 0.02, 0, 0, 0, 0])
        right_black = model.likelihood[:, state_index(BLACK, 2)]
        assert np.allclose(right_black, [0, 0, 0, 0.98, 0.02, 0, 0])

    def test_cue_columns_are_definitive(self):
        model = build_tmaze_model()
        assert model.likelihood[5, state_index(WHITE, 3)] == 1.0
        assert model.likelihood[6, state_index(BLACK, 3)] == 1.0

    def test_arms_absorb_under_every_action(self):
        model = build_tmaze_model()
        for action in range(4):
            for ctx in (WHITE, BLACK):
                for arm in (1, 2):
                    src = state_index(ctx, arm)
                    column = model.transitions[action][:, src]
                    assert column[src] == 1.0 and column.sum() == 1.0

    def test_movement_and_static_context(self):
        model = build_tmaze_model()
        for action in range(4):
            for ctx in (WHITE, BLACK):
                src = state_index(ctx, 0)
                dst = state_index(ctx, action)
                assert model.transitions[action][dst, src] == 1.0

    def test_prior_splits_center_between_contexts(self):
        model = build_tmaze_model()
        expected = np.zeros(8)
        expected[state_index(WHITE, 0)] = 0.5
        expected[state_index(BLACK, 0)] = 0.5
        assert np.allclose(model.state_prior.probs, expected)

    def test_preferences(self):
        model = build_tmaze_model()
        assert list(model.preferences) == [0, 6, -6, 6, -6, 0, 0]


class TestContextSchedule:
    def test_switch_points(self):
        assert default_context(1) == WHITE
        assert default_context(9) == WHITE
        assert default_context(10) == BLACK
        assert default_context(12) == BLACK
        assert default_context(13) == WHITE
        assert default_context(29) == WHITE
        assert default_context(30) == BLACK
        assert default_context(31) == WHITE
        assert default_context(50) == WHITE


def _maze_env(seed: int) -> ModelEnvironment:
    return ModelEnvironment(build_tmaze_model(), np.random.default_rng(seed))


def _at_center(env: ModelEnvironment, context: int) -> ModelEnvironment:
    env.reset(state_index(context, CENTER))
    return env


class TestEnv:
    """The maze's ground truth: a ModelEnvironment of build_tmaze_model()."""

    def test_cue_location_is_deterministic(self):
        env = _maze_env(61)
        for _ in range(100):
            assert _at_center(env, WHITE).step(CUE) == 5
            assert _at_center(env, BLACK).step(CUE) == 6

    def test_center_is_deterministic(self):
        env = _at_center(_maze_env(62), WHITE)
        assert all(env.observe() == 0 for _ in range(100))

    def test_left_arm_reward_frequency(self):
        env = _maze_env(63)
        outcomes = np.array([_at_center(env, WHITE).step(LEFT) for _ in range(10_000)])
        assert set(outcomes) <= {1, 2}
        assert abs((outcomes == 1).mean() - 0.98) < 0.01

    def test_arms_absorb(self):
        env = _at_center(_maze_env(64), WHITE)
        env.step(RIGHT)
        for action in (CENTER, LEFT, CUE, RIGHT):
            env.step(action)
            assert env.state == state_index(WHITE, RIGHT)

    def test_empirical_frequencies_match_model_columns(self):
        for reward_prob in (0.98, 0.7):
            model = build_tmaze_model(reward_prob)
            env = ModelEnvironment(model, np.random.default_rng(65))
            for ctx, location in ((WHITE, LEFT), (BLACK, RIGHT)):
                counts = np.zeros(7)
                for _ in range(100_000):
                    counts[_at_center(env, ctx).step(location)] += 1
                empirical = Categorical(counts / counts.sum())
                column = Categorical(model.likelihood[:, state_index(ctx, location)])
                assert kl_divergence(empirical, column) < 0.001

    def test_reward_prob_bounds(self):
        # build_tmaze_model owns the check: at 1.5 the maze would have a likelihood entry of -0.5
        for reward_prob in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError, match="reward_prob"):
                build_tmaze_model(reward_prob)

    def test_trial_state_comes_only_from_reset(self):
        with pytest.raises(TypeError):
            ModelEnvironment(build_tmaze_model(), np.random.default_rng(0), state=1)
        env = _maze_env(0)
        for state in (-1, 8):
            with pytest.raises(ValueError, match="outside 0..7"):
                env.reset(state)
        env.reset(np.int64(7))
        assert env.state == 7 and type(env.state) is int
        with pytest.raises(TypeError):
            env.reset(2.0)


class TestScoreOutcome:
    def test_table(self):
        assert score_outcome(1) == 6     # left cheese
        assert score_outcome(3) == 6     # right cheese
        assert score_outcome(2) == -6    # left null
        assert score_outcome(4) == -6    # right null
        assert score_outcome(0) == 0
        assert score_outcome(5) == 0
        assert score_outcome(6) == 0
