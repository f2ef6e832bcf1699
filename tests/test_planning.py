"""Policy scoring: pinned maze values, reduced objectives, diagnostics."""
import dataclasses
import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from efeplan.inference import infer_states
from efeplan.model import GenerativeModel, Policy, PolicySet
from efeplan.numerics import Categorical
from efeplan.planning import (
    ConfigurationError,
    EfeBreakdown,
    ObjectiveKind,
    PlanContext,
    action_marginal,
    ambiguity,
    break_tie,
    evidence_bound_diagnostic,
    expected_free_energy,
    expected_info_gain,
    extrinsic_value,
    policy_posterior,
    predictive_outcome,
    predictive_states,
    risk_states,
    score_policies,
    select_action,
    state_outcome_utility_comparison,
    tie_set,
)
from efeplan.tmaze import build_tmaze_model

# normalizer of the maze preferences [0, 6, -6, 6, -6, 0, 0], by hand
LSE = math.log(3.0 + 2.0 * math.exp(6.0) + 2.0 * math.exp(-6.0))

UNIFORM_CONTEXT_CENTER = np.array([0.5, 0, 0, 0, 0.5, 0, 0, 0])
UNIFORM_CONTEXT_CUE = np.array([0, 0, 0, 0.5, 0, 0, 0, 0.5])
UNIFORM_CONTEXT_LEFT = np.array([0, 0.5, 0, 0, 0, 0.5, 0, 0])


def _maze_epoch1_beliefs(model):
    """Q(s_1 | policy) after the center observation, identical for every policy."""
    return {
        i: infer_states(model, model.policies[i], [(1, 0)]).states
        for i in range(len(model.policies))
    }


class TestPredictiveStates:
    def test_same_epoch_is_identity(self):
        model = build_tmaze_model()
        q = Categorical(UNIFORM_CONTEXT_CENTER)
        out = predictive_states(model, q, model.policies[7], 1, 1)
        assert np.allclose(out.probs, q.probs)

    def test_deterministic_chain_moves_delta(self):
        model = build_tmaze_model()
        start = np.zeros(8)
        start[0] = 1.0  # white context, center
        out = predictive_states(model, Categorical(start), Policy((3, 1)), 1, 3)
        expected = np.zeros(8)
        expected[1] = 1.0  # white context, left arm
        assert np.allclose(out.probs, expected)

    def test_cue_then_left_from_prior(self):
        model = build_tmaze_model()
        out = predictive_states(model, model.state_prior, Policy((3, 1)), 1, 3)
        grid = out.probs.reshape(2, 4)
        assert np.allclose(grid.sum(axis=0), [0, 1, 0, 0])   # left arm for sure
        assert np.allclose(grid.sum(axis=1), [0.5, 0.5])     # context untouched

    def test_epoch_bounds(self):
        model = build_tmaze_model()
        with pytest.raises(ValueError):
            predictive_states(model, model.state_prior, model.policies[0], 2, 1)
        with pytest.raises(ValueError):
            predictive_states(model, model.state_prior, model.policies[0], 1, 4)


class TestPredictiveOutcome:
    def test_delta_state_deterministic_likelihood(self):
        model = build_tmaze_model()
        cue_white = np.zeros(8)
        cue_white[3] = 1.0
        out = predictive_outcome(Categorical(cue_white), model.likelihood)
        assert np.allclose(out.probs, [0, 0, 0, 0, 0, 1, 0])

    def test_left_arm_white_reward_split(self):
        model = build_tmaze_model()
        left_white = np.zeros(8)
        left_white[1] = 1.0
        out = predictive_outcome(Categorical(left_white), model.likelihood)
        assert np.allclose(out.probs, [0, 0.98, 0.02, 0, 0, 0, 0])

    def test_uniform_through_identity(self):
        out = predictive_outcome(Categorical(np.full(3, 1 / 3)), np.eye(3))
        assert np.allclose(out.probs, 1 / 3)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            predictive_outcome(Categorical(np.array([0.5, 0.5])), np.eye(3))


class TestRiskStates:
    def test_identity_is_zero(self):
        q = Categorical(np.array([0.25, 0.75]))
        assert risk_states(q, q) == pytest.approx(0.0, abs=1e-15)

    def test_delta_vs_uniform(self):
        q = Categorical(np.array([1.0, 0.0]))
        prior = Categorical(np.array([0.5, 0.5]))
        assert risk_states(q, prior) == pytest.approx(math.log(2), abs=1e-12)

    def test_zero_prior_entry_is_clamped_finite(self):
        q = Categorical(np.array([1.0, 0.0]))
        prior = Categorical(np.array([0.0, 1.0]))
        assert math.isfinite(risk_states(q, prior))
        assert risk_states(q, prior) > 30.0


class TestAmbiguity:
    def test_deterministic_columns_are_zero(self):
        model = build_tmaze_model()
        cue_mix = Categorical(UNIFORM_CONTEXT_CUE)
        assert ambiguity(cue_mix, model.likelihood) == pytest.approx(0.0, abs=1e-15)

    def test_uniform_columns_give_log_outcomes(self):
        likelihood = np.full((4, 3), 0.25)
        q = Categorical(np.array([0.2, 0.3, 0.5]))
        assert ambiguity(q, likelihood) == pytest.approx(math.log(4), abs=1e-12)

    def test_left_arm_white_delta(self):
        model = build_tmaze_model()
        left_white = np.zeros(8)
        left_white[1] = 1.0
        expected = -(0.98 * math.log(0.98) + 0.02 * math.log(0.02))
        got = ambiguity(Categorical(left_white), model.likelihood)
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(0.098039, abs=1e-6)


class TestExpectedInfoGain:
    def test_identical_columns_carry_nothing(self):
        likelihood = np.tile(np.array([[0.4], [0.6]]), (1, 3))
        q = Categorical(np.array([0.2, 0.3, 0.5]))
        assert expected_info_gain(q, likelihood) == pytest.approx(0.0, abs=1e-12)

    def test_definitive_cue_resolves_context(self):
        model = build_tmaze_model()
        got = expected_info_gain(Categorical(UNIFORM_CONTEXT_CUE), model.likelihood)
        assert got == pytest.approx(math.log(2), abs=1e-12)

    def test_arm_visit_under_uncertain_context(self):
        model = build_tmaze_model()
        got = expected_info_gain(Categorical(UNIFORM_CONTEXT_LEFT), model.likelihood)
        oracle = helpers.info_gain_by_update(UNIFORM_CONTEXT_LEFT, model.likelihood)
        assert got == pytest.approx(oracle, abs=1e-12)
        expected = math.log(2) - (-(0.98 * math.log(0.98) + 0.02 * math.log(0.02)))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.595108, abs=1e-6)

    def test_two_formulas_agree_on_random_instances(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            n_s = int(rng.integers(2, 7))
            n_o = int(rng.integers(2, 7))
            likelihood = rng.dirichlet(np.ones(n_o), size=n_s).T
            q = rng.dirichlet(np.ones(n_s))
            got = expected_info_gain(Categorical(q), likelihood)
            oracle = helpers.info_gain_by_update(q, likelihood)
            assert abs(got - oracle) < 1e-12


class TestExtrinsicValue:
    def test_constant_preferences(self):
        q = Categorical(np.array([0.1, 0.2, 0.7]))
        assert extrinsic_value(q, np.zeros(3)) == pytest.approx(-math.log(3), abs=1e-12)

    def test_certain_cheese(self):
        model = build_tmaze_model()
        q = Categorical(np.eye(7)[1])  # left-cheese for sure
        got = extrinsic_value(q, model.preferences)
        assert got == pytest.approx(6.0 - LSE, abs=1e-12)
        assert got == pytest.approx(-0.696965, abs=1e-3)

    def test_arm_under_uniform_context(self):
        model = build_tmaze_model()
        q = Categorical(np.array([0, 0.5, 0.5, 0, 0, 0, 0], dtype=np.float64))
        got = extrinsic_value(q, model.preferences)
        assert got == pytest.approx(-LSE, abs=1e-12)
        assert got == pytest.approx(-6.696965, abs=1e-3)

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            prefs = rng.normal(size=n)
            q = Categorical(rng.dirichlet(np.ones(n)))
            a = extrinsic_value(q, prefs)
            b = extrinsic_value(q, prefs + float(rng.normal(scale=10)))
            assert abs(a - b) < 1e-12


class TestExpectedFreeEnergy:
    def test_fully_known_world_has_zero_info_gain(self):
        model = build_tmaze_model()
        start = np.zeros(8)
        start[0] = 1.0
        ctx = PlanContext(current_epoch=1)
        for policy in model.policies:
            total, parts = expected_free_energy(
                model, Categorical(start), policy, ctx, ObjectiveKind.INFO_GAIN_ONLY
            )
            assert total == pytest.approx(0.0, abs=1e-12)
            assert all(p.intrinsic == pytest.approx(0.0, abs=1e-12) for p in parts)

    def test_trial_start_utilities_are_symmetric(self):
        model = build_tmaze_model()
        beliefs = _maze_epoch1_beliefs(model)
        ctx = PlanContext(current_epoch=1)
        totals = []
        for i, policy in enumerate(model.policies):
            total, _ = expected_free_energy(
                model, beliefs[i][0], policy, ctx, ObjectiveKind.EXPECTED_UTILITY_OUTCOMES
            )
            totals.append(total)
        assert max(totals) - min(totals) < 1e-9
        assert totals[0] == pytest.approx(2.0 * LSE, abs=1e-9)

    def test_post_cue_scores(self):
        model = build_tmaze_model()
        observed = [(1, 0), (2, 5)]  # center, then the white cue
        ctx = PlanContext(current_epoch=2, executed_actions=(3,))
        expected = {7: LSE - 5.76, 8: LSE + 5.76, 6: LSE, 9: LSE}
        for index, target in expected.items():
            states = infer_states(model, model.policies[index], observed).states
            total, parts = expected_free_energy(
                model, states[1], model.policies[index], ctx,
                ObjectiveKind.EXPECTED_FREE_ENERGY,
            )
            assert total == pytest.approx(target, abs=1e-9)
            assert parts[0].total == pytest.approx(
                -parts[0].intrinsic - parts[0].extrinsic, abs=1e-12
            )

    def test_breakdown_fields_populated_for_every_objective(self):
        prior = Categorical(np.full(8, 1 / 8))
        model = dataclasses.replace(build_tmaze_model(), risk_state_prior=prior)
        ctx = PlanContext(current_epoch=1)
        for objective in ObjectiveKind:
            _, parts = expected_free_energy(
                model, model.state_prior, model.policies[7], ctx, objective
            )
            assert len(parts) == 2
            for p in parts:
                for value in (p.risk_states, p.ambiguity, p.intrinsic, p.extrinsic, p.total):
                    assert math.isfinite(value)
                assert p.intrinsic >= -1e-12
                assert p.ambiguity >= -1e-12
        rows = evidence_bound_diagnostic(model, model.state_prior, model.policies[7], ctx, prior)
        assert len(rows) == 2
        for _, _, bound in rows:
            assert math.isfinite(bound)
            assert bound >= -1e-12

    def test_missing_prior_rejected_for_state_objectives(self):
        model = build_tmaze_model()
        ctx = PlanContext(current_epoch=1)
        for objective in (ObjectiveKind.EXPECTED_UTILITY_STATES, ObjectiveKind.RISK_ONLY):
            with pytest.raises(ConfigurationError, match="risk_state_prior"):
                expected_free_energy(model, model.state_prior, model.policies[0],
                                     ctx, objective)

    def test_info_gain_only_never_positive(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            model = helpers.random_model(rng, max_horizon=3)
            if model.horizon < 2:
                continue
            ctx = PlanContext(current_epoch=1)
            q = helpers.random_categorical(rng, model.num_states)
            for policy in model.policies:
                total, _ = expected_free_energy(model, q, policy, ctx,
                                                ObjectiveKind.INFO_GAIN_ONLY)
                assert total <= 1e-12

    def test_utility_scores_bounded_by_best_preference(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            model = helpers.random_model(rng, max_horizon=3)
            if model.horizon < 2:
                continue
            ctx = PlanContext(current_epoch=1)
            q = helpers.random_categorical(rng, model.num_states)
            prefs = model.preferences - np.log(np.exp(model.preferences).sum())
            for policy in model.policies:
                _, parts = expected_free_energy(model, q, policy, ctx,
                                                ObjectiveKind.EXPECTED_UTILITY_OUTCOMES)
                for p in parts:
                    assert p.total >= -prefs.max() - 1e-12

    def test_risk_only_matches_direct_divergence(self):
        prior = Categorical(np.full(8, 1 / 8))
        model = dataclasses.replace(build_tmaze_model(), risk_state_prior=prior)
        ctx = PlanContext(current_epoch=1)
        total, parts = expected_free_energy(
            model, model.state_prior, Policy((3, 1)), ctx, ObjectiveKind.RISK_ONLY
        )
        by_hand = sum(
            risk_states(predictive_states(model, model.state_prior, Policy((3, 1)), 1, tau),
                        prior)
            for tau in (2, 3)
        )
        assert total == pytest.approx(by_hand, abs=1e-12)

    def test_no_future_epochs_rejected(self):
        model = build_tmaze_model()
        ctx = PlanContext(current_epoch=3, executed_actions=(3, 1))
        with pytest.raises(ValueError, match="no future"):
            expected_free_energy(model, model.state_prior, model.policies[7], ctx,
                                 ObjectiveKind.EXPECTED_FREE_ENERGY)


class TestScorePolicies:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), objective=st.sampled_from(ObjectiveKind),
           deterministic=st.booleans(), data=st.data())
    def test_matches_per_policy_reference(self, seed, objective, deterministic, data):
        rng = np.random.default_rng(seed)
        model = helpers.random_model(
            rng, max_states=6, max_outcomes=5, max_actions=3, min_horizon=2, max_horizon=5,
            deterministic_likelihood=deterministic, all_policies=True, risk_prior=True,
        )
        epoch = data.draw(st.integers(1, model.horizon - 1), label="epoch")
        executed = data.draw(st.sampled_from(model.policies.policies)).actions[: epoch - 1]
        ctx = PlanContext(current_epoch=epoch, executed_actions=executed)
        viable = [p for p in model.policies if p.actions[: epoch - 1] == executed]
        q_now = helpers.random_categorical(rng, model.num_states)

        got = score_policies(model, q_now, viable, ctx, objective)
        want = helpers.reference_scores(model, q_now, viable, ctx, objective)
        assert len(got) == len(want) == len(viable)
        for policy, scored, (total, parts, states) in zip(viable, got, want):
            assert scored.total == total
            assert list(scored.breakdowns) == parts
            assert len(scored.states) == len(states)
            for a, b in zip(scored.states, states):
                assert np.array_equal(a, b.probs)
            for part, q_s in zip(scored.breakdowns, scored.states):
                by_update = helpers.info_gain_by_update(q_s, model.likelihood)
                assert abs(part.intrinsic - by_update) < 1e-12
            rows = evidence_bound_diagnostic(model, q_now, policy, ctx, model.risk_state_prior)
            assert [bound for _, _, bound in rows] == [
                helpers.evidence_bound_by_outcome_loop(
                    q_s, model.likelihood, model.risk_state_prior.probs)
                for q_s in scored.states
            ]

    @pytest.mark.parametrize("name", [kind.value for kind in ObjectiveKind])
    def test_an_objective_name_scores_as_its_member(self, name):
        # a name is taken as its member, never as the last branch's objective
        model = helpers.random_model(np.random.default_rng(5), min_horizon=3, risk_prior=True)
        ctx = PlanContext(current_epoch=1)
        by_name, by_member = (score_policies(model, model.state_prior, model.policies, ctx, kind)
                              for kind in (name, ObjectiveKind(name)))
        assert [repr(s.summed) for s in by_name] == [repr(s.summed) for s in by_member]
        policy = model.policies[0]
        assert repr(expected_free_energy(model, model.state_prior, policy, ctx, name)) == repr(
            expected_free_energy(model, model.state_prior, policy, ctx, ObjectiveKind(name)))

    def test_an_unknown_objective_is_refused_in_one_line(self):
        model = build_tmaze_model()
        with pytest.raises(ValueError, match="'nope'") as info:
            score_policies(model, model.state_prior, model.policies,
                           PlanContext(current_epoch=1), "nope")
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("objective, epoch, prior, error, message", [
        ("nope", 3, False, ValueError, "'nope' is not a valid ObjectiveKind"),
        ("efe", 3, False, ValueError, "no future timesteps to plan at epoch 3 of 3"),
        ("klc", 1, False, ValueError, "q_now has 7 states, the model has 8"),
        ("klc", 1, True, ConfigurationError, "objective klc needs a model that defines"),
    ])
    def test_refusals_keep_their_order(self, objective, epoch, prior, error, message):
        # each case also has every fault whose check comes later
        model = build_tmaze_model()
        q_now = model.state_prior if prior else Categorical(np.full(7, 1 / 7))
        ctx = PlanContext(current_epoch=epoch, executed_actions=(3, 1)[: epoch - 1])
        with pytest.raises(error) as info:
            score_policies(model, q_now, model.policies, ctx, objective)
        assert type(info.value) is error
        assert message in str(info.value)


class TestPlanContext:
    def test_holds_its_two_fields_alone(self):
        model = build_tmaze_model()
        ctx = PlanContext(current_epoch=2, executed_actions=(3,))
        assert ctx.viable(model.policies) == [6, 7, 8, 9]
        assert sorted(vars(ctx)) == ["current_epoch", "executed_actions"]

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_viable_matches_the_prefix_scan(self, seed, data):
        rng = np.random.default_rng(seed)
        model = helpers.random_model(rng, max_horizon=4, all_policies=seed % 2 == 0)
        policies = model.policies
        # a policy's prefix, or any actions, up to one more than the policies hold
        length = data.draw(st.integers(0, model.horizon), label="length")
        executed = tuple(data.draw(st.one_of(
            st.sampled_from(policies.policies).map(lambda p: p.actions[:length]),
            st.lists(st.integers(0, model.num_actions - 1), min_size=length,
                     max_size=length)), label="executed"))
        ctx = PlanContext(current_epoch=len(executed) + 1, executed_actions=executed)
        want = [i for i, p in enumerate(policies) if p.actions[: len(executed)] == executed]
        assert ctx.viable(policies) == want

    def test_an_executed_prefix_longer_than_the_policies_keeps_none(self):
        model = build_tmaze_model()
        ctx = PlanContext(current_epoch=4, executed_actions=(3, 1, 1))
        assert ctx.viable(model.policies) == []

    @pytest.mark.parametrize("action", [1.7, 1.0, np.float64(1.0), "1", None])
    def test_an_action_that_is_not_an_integer_is_refused(self, action):
        # int() would truncate 1.7 to action 1 and keep planning
        with pytest.raises(ValueError) as info:
            PlanContext(current_epoch=2, executed_actions=(action,))
        assert str(info.value) == f"actions must be integers, got {(action,)!r}"

    def test_numpy_integers_are_kept_as_ints(self):
        ctx = PlanContext(current_epoch=3, executed_actions=(np.int64(3), np.uint8(1)))
        assert ctx.executed_actions == (3, 1)
        assert all(type(a) is int for a in ctx.executed_actions)


def _scores_as_bits(scores) -> list:
    """Per policy: G, each breakdown field and the predicted states, as exact bits."""
    return [(total.hex(), [[getattr(part, f.name).hex() for f in dataclasses.fields(EfeBreakdown)]
                           for part in parts],
             [np.asarray(getattr(q, "probs", q)).tobytes() for q in states])
            for total, parts, states in scores]


class TestScorePoliciesToTheBit:
    """score_policies against the per-term reference at state counts from numpy's
    8-entry pairwise block up, with and without exact zeros in the rows it reduces."""

    def _assert_matches_reference(self, model, q_now) -> None:
        for objective in ObjectiveKind:
            for epoch in range(1, model.horizon):
                executed = model.policies[-1].actions[: epoch - 1]
                ctx = PlanContext(current_epoch=epoch, executed_actions=executed)
                viable = [model.policies[i] for i in ctx.viable(model.policies)]
                got = [(s.total, s.breakdowns, s.states)
                       for s in score_policies(model, q_now, viable, ctx, objective)]
                want = helpers.reference_scores(model, q_now, viable, ctx, objective)
                assert _scores_as_bits(got) == _scores_as_bits(want), (objective, epoch)

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("states", [8, 9, 17, 64])
    def test_random_models(self, states, sparse):
        for seed in range(3):
            rng = np.random.default_rng([states, seed])
            model = helpers.random_model(
                rng, min_states=states, max_states=states, min_outcomes=8,
                max_outcomes=min(states, 20), min_actions=2, max_actions=3, min_horizon=3,
                max_horizon=4, all_policies=True, risk_prior=True, sparse=sparse,
            )
            q_now = rng.dirichlet(np.ones(states))
            if sparse:  # and some states ruled out now
                q_now = q_now * (rng.random(states) < 0.7)
            q_now = Categorical(q_now / q_now.sum())
            # sparse rows take the grouped masked sums, dense ones the full-row reduction
            predicted = np.concatenate([s.states for s in score_policies(
                model, q_now, model.policies, PlanContext(current_epoch=1), "efe")])
            assert (predicted == 0.0).any() == sparse
            assert (model.likelihood == 0.0).any() == sparse
            self._assert_matches_reference(model, q_now)

    def test_a_dense_256_state_model(self):
        rng = np.random.default_rng(256)
        model = helpers.random_model(rng, min_states=256, max_states=256, min_outcomes=7,
                                     max_outcomes=7, min_actions=2, max_actions=2,
                                     min_horizon=4, max_horizon=4, all_policies=True,
                                     risk_prior=True)
        self._assert_matches_reference(model, helpers.random_categorical(rng, 256))


class TestCachedScoringState:
    """The scorer caches each model's constants on the model and each actions
    array's tree layout by value; neither may carry one model's values to another."""

    @staticmethod
    def _scores_bits(model, q_now, objective) -> list:
        """score_policies at epoch 1 as bits, checked against the per-term reference."""
        ctx = PlanContext(current_epoch=1)
        got = [(s.total, s.breakdowns, s.states)
               for s in score_policies(model, q_now, model.policies, ctx, objective)]
        bits = _scores_as_bits(got)
        want = helpers.reference_scores(model, q_now, model.policies, ctx, objective)
        assert bits == _scores_as_bits(want), objective
        return bits

    @staticmethod
    def _objectives(model) -> list[ObjectiveKind]:
        return [o for o in ObjectiveKind if model.risk_state_prior is not None or o not in (
            ObjectiveKind.EXPECTED_UTILITY_STATES, ObjectiveKind.RISK_ONLY)]

    def test_models_of_one_shape_built_and_dropped_in_turn(self):
        # every model has the same policies, so all share one cached layout; each is
        # dropped before the next is built, so object ids recycle
        for seed in range(24):
            rng = np.random.default_rng([5, seed])
            model = helpers.random_model(
                rng, min_states=5, max_states=5, min_outcomes=3, max_outcomes=3,
                min_actions=2, max_actions=2, min_horizon=4, max_horizon=4,
                all_policies=True, risk_prior=seed % 2 == 0, sparse=seed % 3 == 0)
            q_now = helpers.random_categorical(rng, 5)
            for objective in self._objectives(model):
                self._scores_bits(model, q_now, objective)
            del model
            gc.collect()

    def test_one_actions_array_under_two_models(self):
        rng = np.random.default_rng(11)
        first, second = (helpers.random_model(
            rng, min_states=6, max_states=6, min_outcomes=4, max_outcomes=4, min_actions=2,
            max_actions=2, min_horizon=4, max_horizon=4, all_policies=True, risk_prior=True)
            for _ in range(2))
        q_now = helpers.random_categorical(rng, 6)
        for objective in ObjectiveKind:
            bits = [self._scores_bits(model, q_now, objective)
                    for model in (first, second, first, second)]
            assert bits[0] == bits[2] != bits[1] == bits[3], objective

    def test_equal_action_bytes_of_another_shape(self):
        rng = np.random.default_rng(12)
        base = helpers.random_model(rng, min_states=4, max_states=4, min_actions=2,
                                    max_actions=2, min_horizon=3, max_horizon=3)
        short = dataclasses.replace(base, policies=PolicySet(
            (Policy((0, 0)), Policy((1, 1)), Policy((1, 0)))))
        long = dataclasses.replace(base, horizon=4, policies=PolicySet(
            (Policy((0, 0, 1)), Policy((1, 1, 0)))))
        assert short.policies.actions.tobytes() == long.policies.actions.tobytes()
        q_now = helpers.random_categorical(rng, 4)
        for model in (short, long, short):
            self._scores_bits(model, q_now, ObjectiveKind.EXPECTED_FREE_ENERGY)


def _assert_summed_is_the_sum_of_breakdowns(scores) -> None:
    """Each summed field, as hex, is sum() of that field over the breakdowns: NaN
    matches NaN and the sign of a zero counts."""
    for scored in scores:
        for field in dataclasses.fields(EfeBreakdown):
            want = sum(getattr(part, field.name) for part in scored.breakdowns)
            assert getattr(scored.summed, field.name).hex() == want.hex(), field.name


class TestScoreSums:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), deterministic=st.booleans(),
           risk_prior=st.booleans())
    def test_summed_is_the_left_to_right_sum_property(self, seed, deterministic, risk_prior):
        rng = np.random.default_rng(seed)
        model = helpers.random_model(
            rng, max_states=4, max_outcomes=3, max_actions=3, min_horizon=2, max_horizon=5,
            deterministic_likelihood=deterministic, all_policies=True, risk_prior=risk_prior,
        )
        q_now = helpers.random_categorical(rng, model.num_states)
        for objective in ObjectiveKind:
            if not risk_prior and objective in (ObjectiveKind.EXPECTED_UTILITY_STATES,
                                                ObjectiveKind.RISK_ONLY):
                continue
            for epoch in range(1, model.horizon):
                executed = model.policies[0].actions[: epoch - 1]
                ctx = PlanContext(current_epoch=epoch, executed_actions=executed)
                viable = [model.policies[i] for i in ctx.viable(model.policies)]
                _assert_summed_is_the_sum_of_breakdowns(
                    score_policies(model, q_now, viable, ctx, objective))

    def test_a_negative_zero_part_sums_to_positive_zero(self):
        # after the cue the context is known, so staying there predicts one
        # outcome for sure: the one step's intrinsic is -0.0, and sum() gives 0.0
        model = build_tmaze_model()
        cue_white = Categorical(np.eye(8)[3])
        ctx = PlanContext(current_epoch=2, executed_actions=(3,))
        [scored] = score_policies(model, cue_white, [Policy((3, 3))], ctx,
                                  ObjectiveKind.EXPECTED_FREE_ENERGY)
        assert [part.intrinsic.hex() for part in scored.breakdowns] == ["-0x0.0p+0"]
        assert scored.summed.intrinsic.hex() == "0x0.0p+0"
        _assert_summed_is_the_sum_of_breakdowns([scored])


def _totals(model, q_now, objective) -> np.ndarray:
    """G of each of the model's policies at epoch 1."""
    scores = score_policies(model, q_now, model.policies, PlanContext(current_epoch=1), objective)
    return np.array([s.total for s in scores])


class TestPaperReductions:
    """The abstract's two limits at the scorer: without preferences, efe is
    information gain (eig); without ambiguity and uncertainty, it is expected
    utility (eu)."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), c=st.floats(-50.0, 50.0))
    def test_flat_preferences_shift_efe_from_eig_by_a_constant(self, seed, c):
        rng = np.random.default_rng(seed)
        model = helpers.random_model(rng, min_horizon=2, max_horizon=4, all_policies=True)
        model = dataclasses.replace(model, preferences=np.full(model.num_outcomes, c))
        q_now = helpers.random_categorical(rng, model.num_states)
        efe = _totals(model, q_now, ObjectiveKind.EXPECTED_FREE_ENERGY)
        eig = _totals(model, q_now, ObjectiveKind.INFO_GAIN_ONLY)
        shift = (model.horizon - 1) * math.log(model.num_outcomes)
        assert np.abs(efe - eig - shift).max() <= 1e-12
        ctx = PlanContext(current_epoch=1)
        posteriors = [policy_posterior(g, model.policies, ctx).probs for g in (efe, eig)]
        assert np.abs(posteriors[0] - posteriors[1]).max() <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_no_ambiguity_and_no_uncertainty_make_efe_eu_to_the_bit(self, seed):
        rng = np.random.default_rng(seed)
        model = helpers.random_model(rng, min_horizon=2, max_horizon=4, all_policies=True,
                                     deterministic_likelihood=True)
        n = model.num_states
        moves = [np.eye(n)[:, rng.integers(0, n, size=n)] for _ in model.transitions]
        model = dataclasses.replace(model, transitions=tuple(moves))
        q_now = Categorical(np.eye(n)[rng.integers(0, n)])
        efe = _totals(model, q_now, ObjectiveKind.EXPECTED_FREE_ENERGY)
        eu = _totals(model, q_now, ObjectiveKind.EXPECTED_UTILITY_OUTCOMES)
        assert [g.hex() for g in efe.tolist()] == [g.hex() for g in eu.tolist()]

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_no_ambiguity_leaves_efe_at_most_eu(self, seed):
        # the gap is minus the predicted outcomes' entropy: efe's epistemic bonus
        rng = np.random.default_rng(seed)
        model = helpers.random_model(rng, min_horizon=2, max_horizon=4, all_policies=True,
                                     deterministic_likelihood=True)
        q_now = helpers.random_categorical(rng, model.num_states)
        efe = _totals(model, q_now, ObjectiveKind.EXPECTED_FREE_ENERGY)
        eu = _totals(model, q_now, ObjectiveKind.EXPECTED_UTILITY_OUTCOMES)
        assert (efe <= eu).all()


class TestPolicyPosterior:
    def test_equal_scores_give_uniform(self):
        model = build_tmaze_model()
        ctx = PlanContext(current_epoch=1)
        post = policy_posterior(np.zeros(10), model.policies, ctx)
        assert np.abs(post.probs - 0.1).max() < 1e-12

    def test_prefix_filter_keeps_cue_policies(self):
        model = build_tmaze_model()
        ctx = PlanContext(current_epoch=2, executed_actions=(3,))
        post = policy_posterior(np.zeros(10), model.policies, ctx)
        assert np.allclose(post.probs[:6], 0.0)
        assert np.allclose(post.probs[6:], 0.25)

    def test_post_cue_mass_concentrates_on_left(self):
        model = build_tmaze_model()
        g = np.full(10, np.nan)
        g[6:] = [LSE, LSE - 5.76, LSE + 5.76, LSE]
        ctx = PlanContext(current_epoch=2, executed_actions=(3,))
        post = policy_posterior(g, model.policies, ctx)
        assert post.probs[7] == pytest.approx(0.9937, abs=1e-3)

    def test_all_filtered_out_is_an_error(self):
        model = build_tmaze_model()
        policies = PolicySet((Policy((0, 0)), Policy((0, 1))))
        ctx = PlanContext(current_epoch=2, executed_actions=(3,))
        with pytest.raises(ValueError, match="consistent"):
            policy_posterior(np.zeros(2), policies, ctx)

    def test_precision_scaling_preserves_argmax(self):
        model = build_tmaze_model()
        rng = np.random.default_rng(45)
        for _ in range(100):
            g = rng.normal(size=10)
            argmaxes = set()
            for gamma in (0.1, 1.0, 10.0):
                ctx = PlanContext(current_epoch=1)
                post = policy_posterior(g, model.policies, ctx, gamma)
                argmaxes.add(int(np.argmax(post.probs)))
            assert len(argmaxes) == 1

    def test_preference_shift_leaves_posterior_unchanged(self):
        model = build_tmaze_model()
        shifted = GenerativeModel(
            num_states=8, num_outcomes=7, num_actions=4, horizon=3,
            likelihood=model.likelihood, transitions=model.transitions,
            preferences=model.preferences + 11.5,
            state_prior=model.state_prior, policies=model.policies,
        )
        beliefs = _maze_epoch1_beliefs(model)
        ctx = PlanContext(current_epoch=1)

        def posterior(variant):
            g = [
                expected_free_energy(variant, beliefs[i][0], policy, ctx,
                                     ObjectiveKind.EXPECTED_FREE_ENERGY)[0]
                for i, policy in enumerate(variant.policies)
            ]
            return policy_posterior(np.array(g), variant.policies, ctx).probs

        assert np.abs(posterior(model) - posterior(shifted)).max() < 1e-12


class TestActionMarginal:
    def test_uniform_posterior_counts_first_actions(self):
        model = build_tmaze_model()
        post = Categorical(np.full(10, 0.1))
        marg = action_marginal(post, model.policies, 1, 4)
        assert np.allclose(marg.probs, [0.4, 0.1, 0.1, 0.4])

    def test_delta_posterior_follows_its_policy(self):
        model = build_tmaze_model()
        post = Categorical(np.eye(10)[8])  # cue then right
        assert np.allclose(action_marginal(post, model.policies, 1, 4).probs, np.eye(4)[3])
        assert np.allclose(action_marginal(post, model.policies, 2, 4).probs, np.eye(4)[2])

    def test_trial_start_argmax_is_go_cue(self):
        model = build_tmaze_model()
        beliefs = _maze_epoch1_beliefs(model)
        ctx = PlanContext(current_epoch=1)
        g = np.array([
            expected_free_energy(model, beliefs[i][0], policy, ctx,
                                 ObjectiveKind.EXPECTED_FREE_ENERGY)[0]
            for i, policy in enumerate(model.policies)
        ])
        post = policy_posterior(g, model.policies, ctx)
        marg = action_marginal(post, model.policies, 1, 4)
        assert int(np.argmax(marg.probs)) == 3

    def test_epoch_out_of_range(self):
        model = build_tmaze_model()
        post = Categorical(np.full(10, 0.1))
        with pytest.raises(ValueError, match="epoch"):
            action_marginal(post, model.policies, 3, 4)

    @pytest.mark.parametrize("num_actions, action", [(1, 1), (2, 2), (3, 3)])
    def test_an_action_outside_num_actions_is_refused(self, num_actions, action):
        # the maze's policies take each of its 4 actions first, in policy order the
        # first outside the range is named; the marginal grew to 4 entries without a word
        model = build_tmaze_model()
        post = Categorical(np.full(10, 0.1))
        with pytest.raises(ValueError) as info:
            action_marginal(post, model.policies, 1, num_actions)
        assert str(info.value) == (f"action {action} at epoch 1 is outside "
                                   f"0..{num_actions - 1}")


class TestSelectAction:
    def test_unique_maximum(self):
        rng = np.random.default_rng(46)
        marg = Categorical(np.array([0.7, 0.2, 0.1]))
        assert select_action(marg, rng) == 0

    def test_two_way_tie_frequencies(self):
        rng = np.random.default_rng(47)
        marg = Categorical(np.array([0.4, 0.4, 0.1, 0.1]))
        picks = np.array([select_action(marg, rng, 1e-9) for _ in range(10_000)])
        assert set(picks) <= {0, 1}
        assert abs((picks == 0).mean() - 0.5) < 0.05

    def test_four_way_tie_frequencies(self):
        rng = np.random.default_rng(48)
        marg = Categorical(np.full(4, 0.25))
        picks = np.array([select_action(marg, rng, 1e-9) for _ in range(10_000)])
        for a in range(4):
            assert abs((picks == a).mean() - 0.25) < 0.03

    def test_zero_probability_actions_never_tie(self):
        rng = np.random.default_rng(49)
        marg = Categorical(np.array([0.0, 0.7, 0.0, 0.3]))
        picks = {select_action(marg, rng, 2.0) for _ in range(200)}
        assert picks == {1, 3}

    @pytest.mark.parametrize("tie_tolerance", [-1e-9, -0.5, math.nan, math.inf, -math.inf])
    def test_a_tie_tolerance_that_is_not_a_nonnegative_real_is_refused(self, tie_tolerance):
        # a negative or NaN tolerance left an empty tie set, and select_action an IndexError
        marg = Categorical(np.array([0.4, 0.4, 0.2]))
        message = f"tie_tolerance must be a nonnegative real, got {tie_tolerance!r}"
        for call in (lambda: tie_set(marg, tie_tolerance),
                     lambda: select_action(marg, np.random.default_rng(0), tie_tolerance)):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message

    def test_a_zero_tie_tolerance_of_either_sign_keeps_the_exact_ties(self):
        marg = Categorical(np.array([0.4, 0.4, 0.2]))
        assert tie_set(marg, 0.0) == tie_set(marg, -0.0) == (0, 1)

    def test_deterministic_for_fixed_seed(self):
        marg = Categorical(np.full(4, 0.25))
        a = [select_action(marg, np.random.default_rng(123), 1e-9) for _ in range(5)]
        b = [select_action(marg, np.random.default_rng(123), 1e-9) for _ in range(5)]
        assert a == b

    @settings(max_examples=200, deadline=None)
    @given(
        # weights with zeros and near-ties: the top weight plus or minus a hair
        weights=st.lists(st.sampled_from([0.0, 1.0, 1.0 + 1e-12, 1.0 - 1e-12, 1.0 + 1e-6,
                                          0.5, 0.25]), min_size=1, max_size=6)
                  .filter(lambda w: sum(w) > 0.0),
        tie_tolerance=st.sampled_from([0.0, 1e-13, 1e-9, 1e-3, 0.6, 2.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_select_action_is_the_tie_set_and_one_draw(self, weights, tie_tolerance, seed):
        marg = Categorical(np.array(weights) / sum(weights))
        tied = tie_set(marg, tie_tolerance)
        probs = marg.probs
        assert tied == tuple(a for a in range(len(probs))
                             if probs[a] > 0.0 and probs[a] >= probs.max() - tie_tolerance)
        assert int(np.argmax(probs)) in tied
        assert all(type(a) is int for a in tied)

        selecting, breaking, reference = (np.random.default_rng(seed) for _ in range(3))
        assert select_action(marg, selecting, tie_tolerance) == break_tie(tied, breaking)
        reference.random()
        for rng in (selecting, breaking):
            assert rng.bit_generator.state == reference.bit_generator.state


class TestEvidenceBoundDiagnostic:
    def test_belief_equal_to_prior_closes_the_gap(self):
        model = build_tmaze_model()
        prior = model.state_prior
        ctx = PlanContext(current_epoch=1)
        rows = evidence_bound_diagnostic(model, prior, Policy((0, 0)), ctx, prior)
        # staying keeps the predictive belief equal to the propagated prior
        for _, _, bound in rows:
            assert bound == pytest.approx(0.0, abs=1e-12)

    def test_invertible_deterministic_likelihood_closes_the_gap(self):
        rng = np.random.default_rng(49)
        n = 4
        permutation = np.eye(n)[rng.permutation(n)]
        model = GenerativeModel(
            num_states=n, num_outcomes=n, num_actions=1, horizon=2,
            likelihood=permutation,
            transitions=(rng.dirichlet(np.ones(n), size=n).T,),
            preferences=np.zeros(n),
            state_prior=Categorical(rng.dirichlet(np.ones(n))),
            policies=PolicySet((Policy((0,)),)),
        )
        q = helpers.random_categorical(rng, n)
        prior = helpers.random_categorical(rng, n)
        ctx = PlanContext(current_epoch=1)
        rows = evidence_bound_diagnostic(model, q, model.policies[0], ctx, prior)
        for _, _, bound in rows:
            assert bound == pytest.approx(0.0, abs=1e-12)

    def test_identity_against_enumerated_full_score(self):
        rng = np.random.default_rng(50)
        for _ in range(100):
            model = helpers.random_model(rng, max_states=5, max_outcomes=5, max_horizon=3)
            if model.horizon < 2:
                continue
            policy = model.policies[0]
            q_now = helpers.random_categorical(rng, model.num_states)
            prior = helpers.random_categorical(rng, model.num_states)
            ctx = PlanContext(current_epoch=1)
            rows = evidence_bound_diagnostic(model, q_now, policy, ctx, prior)
            for offset, (info_gain, log_evidence, bound) in enumerate(rows):
                q_tau = predictive_states(model, q_now, policy, 1, 2 + offset)
                full = helpers.full_score_by_enumeration(
                    q_tau.probs, model.likelihood, prior.probs
                )
                assert abs(full + info_gain + log_evidence - bound) < 1e-9
                assert bound >= -1e-12


class TestStateOutcomeUtilityComparison:
    def test_uniform_prior_identity_likelihood(self):
        n = 5
        model = GenerativeModel(
            num_states=n, num_outcomes=n, num_actions=1, horizon=2,
            likelihood=np.eye(n), transitions=(np.eye(n),),
            preferences=np.zeros(n),
            state_prior=Categorical(np.full(n, 1 / n)),
            policies=PolicySet((Policy((0,)),)),
        )
        q = Categorical(np.array([0.4, 0.3, 0.1, 0.1, 0.1]))
        prior = Categorical(np.full(n, 1 / n))
        states_side, outcomes_side = state_outcome_utility_comparison(model, q, prior)
        assert states_side == pytest.approx(-math.log(n), abs=1e-12)
        assert outcomes_side == pytest.approx(-math.log(n), abs=1e-12)

    def test_delta_belief_with_permutation_likelihood(self):
        n = 4
        rng = np.random.default_rng(51)
        permutation = np.eye(n)[rng.permutation(n)]
        model = GenerativeModel(
            num_states=n, num_outcomes=n, num_actions=1, horizon=2,
            likelihood=permutation, transitions=(np.eye(n),),
            preferences=np.zeros(n),
            state_prior=Categorical(np.full(n, 1 / n)),
            policies=PolicySet((Policy((0,)),)),
        )
        prior = Categorical(np.array([0.4, 0.3, 0.2, 0.1]))
        q = Categorical(np.eye(n)[2])
        states_side, outcomes_side = state_outcome_utility_comparison(model, q, prior)
        assert states_side == pytest.approx(math.log(0.2), abs=1e-12)
        assert outcomes_side == pytest.approx(math.log(0.2), abs=1e-12)

    def test_maze_values_are_finite(self):
        model = build_tmaze_model()
        both = state_outcome_utility_comparison(model, model.state_prior, model.state_prior)
        assert all(math.isfinite(v) for v in both)


_EFE = ObjectiveKind.EXPECTED_FREE_ENERGY


@pytest.mark.parametrize("call", [
    lambda m, short, ctx: score_policies(m, short, list(m.policies), ctx, _EFE),
    lambda m, short, ctx: expected_free_energy(m, short, m.policies[0], ctx, _EFE),
    lambda m, short, ctx: predictive_states(m, short, m.policies[0], 1, m.horizon),
    lambda m, short, ctx: evidence_bound_diagnostic(m, m.state_prior, m.policies[0], ctx, short),
], ids=["score_policies", "expected_free_energy", "predictive_states",
        "evidence_bound_diagnostic"])
def test_wrong_length_belief_names_both_lengths(call):
    model = build_tmaze_model()
    with pytest.raises(ValueError) as info:
        call(model, Categorical(np.full(3, 1 / 3)), PlanContext(current_epoch=1))
    message = str(info.value)
    assert "matmul" not in message and "gufunc" not in message
    assert "3" in message and "8" in message
