"""Maze construction, context schedule, simulator statistics, scoring."""
import numpy as np
import pytest

from efeplan.model import validate
from efeplan.numerics import Categorical, kl_divergence
from efeplan.tmaze import (
    BLACK,
    TMAZE_POLICIES,
    WHITE,
    TmazeEnv,
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


class TestEnv:
    def test_cue_location_is_deterministic(self):
        env = TmazeEnv(rng=np.random.default_rng(61))
        for _ in range(100):
            env.reset(WHITE)
            assert env.step(3) == 5
            env.reset(BLACK)
            assert env.step(3) == 6

    def test_center_is_deterministic(self):
        env = TmazeEnv(rng=np.random.default_rng(62))
        env.reset(WHITE)
        assert all(env.observe() == 0 for _ in range(100))

    def test_left_arm_reward_frequency(self):
        env = TmazeEnv(rng=np.random.default_rng(63))
        outcomes = []
        for _ in range(10_000):
            env.reset(WHITE)
            outcomes.append(env.step(1))
        outcomes = np.array(outcomes)
        assert set(outcomes) <= {1, 2}
        assert abs((outcomes == 1).mean() - 0.98) < 0.01

    def test_arms_absorb(self):
        env = TmazeEnv(rng=np.random.default_rng(64))
        env.reset(WHITE)
        env.step(2)
        for action in (0, 1, 3, 2):
            env.step(action)
            assert env.current_location == 2

    def test_empirical_frequencies_match_model_columns(self):
        model = build_tmaze_model()
        env = TmazeEnv(rng=np.random.default_rng(65))
        for ctx, location, action in ((WHITE, 1, 1), (BLACK, 2, 2)):
            counts = np.zeros(7)
            for _ in range(100_000):
                env.reset(ctx)
                counts[env.step(action)] += 1
            empirical = Categorical(counts / counts.sum())
            column = Categorical(model.likelihood[:, state_index(ctx, location)])
            assert kl_divergence(empirical, column) < 0.001

    def test_reward_prob_bounds(self):
        with pytest.raises(ValueError):
            TmazeEnv(rng=np.random.default_rng(0), reward_prob=1.5)

    def test_trial_state_comes_only_from_reset(self):
        for field in ("true_context", "current_location"):
            with pytest.raises(TypeError):
                TmazeEnv(rng=np.random.default_rng(0), **{field: 1})


class TestScoreOutcome:
    def test_table(self):
        assert score_outcome(1) == 6     # left cheese
        assert score_outcome(3) == 6     # right cheese
        assert score_outcome(2) == -6    # left null
        assert score_outcome(4) == -6    # right null
        assert score_outcome(0) == 0
        assert score_outcome(5) == 0
        assert score_outcome(6) == 0
