"""State estimation against enumeration oracles, plus free-energy contracts."""
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from efeplan.inference import bma_beliefs, infer_states, vfe
from efeplan.model import GenerativeModel, Policy, PolicySet
from efeplan.numerics import Categorical
from efeplan.tmaze import build_tmaze_model


def _random_observed_case(seed: int, deterministic: bool):
    """A random model (at most 4 states, horizon at most 4), its first policy and a
    reachable observation set: a sampled prefix with some timesteps dropped."""
    rng = np.random.default_rng(seed)
    model = helpers.random_model(rng, max_states=4, max_horizon=4,
                                 deterministic_likelihood=deterministic)
    policy = model.policies[0]
    upto = int(rng.integers(0, model.horizon + 1))
    prefix = helpers.sample_observations(rng, model, policy, upto)
    observed = [pair for pair in prefix if rng.random() < 0.8]
    return model, policy, observed


def _chain_model(likelihood, transitions, prior, horizon, num_actions=1):
    likelihood = np.asarray(likelihood, dtype=np.float64)
    return GenerativeModel(
        num_states=likelihood.shape[1],
        num_outcomes=likelihood.shape[0],
        num_actions=num_actions,
        horizon=horizon,
        likelihood=likelihood,
        transitions=tuple(np.asarray(b, dtype=np.float64) for b in transitions),
        preferences=np.zeros(likelihood.shape[0]),
        state_prior=Categorical(np.asarray(prior, dtype=np.float64)),
        policies=PolicySet((Policy((0,) * (horizon - 1)),)),
    )


class TestInferStates:
    def test_identity_likelihood_gives_delta(self):
        shift = np.roll(np.eye(3), 1, axis=0)  # deterministic cycle
        model = _chain_model(np.eye(3), [shift], [1 / 3] * 3, horizon=3)
        observed = [(2, 1)]
        result = infer_states(model, model.policies[0], observed)
        for tau in range(1, model.horizon + 1):
            oracle = helpers.exact_filter_marginal(model, model.policies[0], observed, tau)
            assert np.abs(result.states[tau - 1].probs - oracle).max() < 1e-12
        assert np.allclose(result.states[1].probs, [0.0, 1.0, 0.0])

    def test_no_observations_is_pure_prediction(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            model = helpers.random_model(rng, max_horizon=3)
            policy = model.policies[0]
            result = infer_states(model, policy, [])
            expected = model.state_prior.probs.copy()
            assert np.abs(result.states[0].probs - expected).max() < 1e-12
            for tau in range(2, model.horizon + 1):
                expected = model.transitions[policy.actions[tau - 2]] @ expected
                assert np.abs(result.states[tau - 1].probs - expected).max() < 1e-12

    def test_maze_cue_observation_resolves_context(self):
        model = build_tmaze_model()
        policy = model.policies[7]  # cue first, then left
        result = infer_states(model, policy, [(1, 0), (2, 5)])
        context = result.states[1].probs.reshape(2, 4).sum(axis=1)
        assert abs(context[0] - 1.0) < 1e-6
        assert context[1] < 1e-6

    def test_matches_exact_filtering_oracle(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            model = helpers.random_model(rng, max_horizon=3)
            policy = model.policies[0]
            upto = int(rng.integers(0, model.horizon + 1))
            observed = helpers.sample_observations(rng, model, policy, upto)
            result = infer_states(model, policy, observed)
            for tau, _ in observed:
                oracle = helpers.exact_filter_marginal(model, policy, observed, tau)
                assert np.abs(result.states[tau - 1].probs - oracle).max() < 1e-9

    def test_deterministic_likelihood_matches_filtering(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            model = helpers.random_model(rng, max_horizon=3, deterministic_likelihood=True)
            policy = model.policies[0]
            upto = int(rng.integers(1, model.horizon + 1))
            observed = helpers.sample_observations(rng, model, policy, upto)
            result = infer_states(model, policy, observed)
            for tau in range(1, model.horizon + 1):
                oracle = helpers.exact_filter_marginal(model, policy, observed, tau)
                assert np.abs(result.states[tau - 1].probs - oracle).max() < 1e-9

    def test_bit_identical_reruns(self):
        model = build_tmaze_model()
        policy = model.policies[7]
        a = infer_states(model, policy, [(1, 0), (2, 5)])
        b = infer_states(model, policy, [(1, 0), (2, 5)])
        for qa, qb in zip(a.states, b.states):
            assert np.array_equal(qa.probs, qb.probs)

    def test_invalid_indices_raise(self):
        model = build_tmaze_model()
        with pytest.raises(ValueError, match="outcome"):
            infer_states(model, model.policies[0], [(1, 7)])
        with pytest.raises(ValueError, match="timestep"):
            infer_states(model, model.policies[0], [(4, 0)])

    def test_impossible_observation_raises(self):
        model = build_tmaze_model()
        # staying at the center cannot produce the white cue at timestep 2
        with pytest.raises(ValueError, match="zero probability"):
            infer_states(model, model.policies[0], [(1, 0), (2, 5)])


    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), deterministic=st.booleans())
    def test_matches_exact_filter_marginal_property(self, seed, deterministic):
        model, policy, observed = _random_observed_case(seed, deterministic)
        result = infer_states(model, policy, observed)
        for tau, _ in observed:
            oracle = helpers.exact_filter_marginal(model, policy, observed, tau)
            assert np.abs(result.states[tau - 1].probs - oracle).max() < 1e-12


class TestVfe:
    def test_single_step_delta_equals_surprisal(self):
        model = _chain_model(np.eye(2), [np.eye(2)], [0.5, 0.5], horizon=1)
        q = [Categorical(np.array([1.0, 0.0]))]
        f = vfe(model, q, [(1, 0)], model.policies[0])
        assert f == pytest.approx(math.log(2), abs=1e-12)

    def test_single_step_soft_likelihood(self):
        likelihood = np.array([[0.75, 0.25], [0.25, 0.75]])
        model = _chain_model(likelihood, [np.eye(2)], [0.5, 0.5], horizon=1)
        q = [Categorical(np.array([0.5, 0.5]))]
        f = vfe(model, q, [(1, 0)], model.policies[0])
        expected = -0.5 * (math.log(0.75) + math.log(0.25))  # four summands by hand
        assert f == pytest.approx(expected, abs=1e-12)
        assert f == pytest.approx(0.836988, abs=1e-6)
        assert f >= -math.log(0.5)

    def test_pure_prediction_is_zero(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            model = helpers.random_model(rng, max_horizon=3)
            policy = model.policies[0]
            states = infer_states(model, policy, []).states
            assert vfe(model, states, [], policy) == pytest.approx(0.0, abs=1e-12)

    def test_bounds_exact_surprisal(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            model = helpers.random_model(rng, max_horizon=3)
            policy = model.policies[0]
            upto = int(rng.integers(1, model.horizon + 1))
            observed = helpers.sample_observations(rng, model, policy, upto)
            states = infer_states(model, policy, observed).states
            f = vfe(model, states, observed, policy)
            oracle = helpers.exact_neg_log_evidence(model, policy, observed)
            assert f - oracle >= -1e-9

    def test_equality_for_deterministic_likelihoods(self):
        rng = np.random.default_rng(36)
        for _ in range(100):
            model = helpers.random_model(rng, max_horizon=3, deterministic_likelihood=True)
            policy = model.policies[0]
            upto = int(rng.integers(1, model.horizon + 1))
            observed = helpers.sample_observations(rng, model, policy, upto)
            states = infer_states(model, policy, observed).states
            f = vfe(model, states, observed, policy)
            oracle = helpers.exact_neg_log_evidence(model, policy, observed)
            assert abs(f - oracle) < 1e-6

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), deterministic=st.booleans())
    def test_filtered_vfe_equals_exact_surprisal_property(self, seed, deterministic):
        model, policy, observed = _random_observed_case(seed, deterministic)
        states = infer_states(model, policy, observed).states
        f = vfe(model, states, observed, policy)
        oracle = helpers.exact_neg_log_evidence(model, policy, observed)
        assert abs(f - oracle) < 1e-9

    def test_local_optimality_under_first_epoch_observation(self):
        # with a single observation at the first timestep the filtered beliefs
        # are the global minimum, so no perturbation can lower the free energy
        rng = np.random.default_rng(37)
        for _ in range(10):
            model = helpers.random_model(rng, max_horizon=3)
            policy = model.policies[0]
            observed = helpers.sample_observations(rng, model, policy, 1)
            states = infer_states(model, policy, observed).states
            f_star = vfe(model, states, observed, policy)
            for _ in range(100):
                perturbed = []
                for q in states:
                    noisy = np.clip(q.probs + rng.normal(scale=0.01, size=len(q)), 1e-12, None)
                    perturbed.append(Categorical(noisy / noisy.sum()))
                assert vfe(model, perturbed, observed, policy) >= f_star - 1e-12

    def test_shape_mismatch(self):
        model = build_tmaze_model()
        states = infer_states(model, model.policies[0], []).states
        with pytest.raises(ValueError, match="belief"):
            vfe(model, states[:2], [], model.policies[0])


class TestBmaBeliefs:
    def test_single_policy_identity(self):
        mixed = bma_beliefs(Categorical(np.array([1.0])), [np.array([[0.3, 0.7]])])
        assert np.allclose(mixed, [[0.3, 0.7]])

    def test_symmetric_mixture_of_deltas(self):
        a = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        b = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        mixed = bma_beliefs(Categorical(np.array([0.5, 0.5])), [a, b])
        assert np.allclose(mixed, [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])

    def test_zero_weight_policies_may_lack_beliefs(self):
        mixed = bma_beliefs(Categorical(np.array([1.0, 0.0])), [np.array([[0.5, 0.5]]), None])
        assert np.allclose(mixed, [[0.5, 0.5]])

    def test_one_belief_sequence_per_policy(self):
        with pytest.raises(ValueError, match="one belief sequence per policy"):
            bma_beliefs(Categorical(np.array([0.5, 0.5])), [np.array([[1.0, 0.0]])])

    def test_mass_on_missing_beliefs_rejected(self):
        with pytest.raises(ValueError, match="posterior mass"):
            bma_beliefs(Categorical(np.array([1.0])), [None])

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_policies=st.integers(1, 6),
           num_states=st.integers(1, 9), timesteps=st.integers(1, 5))
    def test_matches_per_timestep_reference(self, seed, num_policies, num_states, timesteps):
        rng = np.random.default_rng(seed)
        weights = rng.random(num_policies) * (rng.random(num_policies) < 0.6)
        weights[rng.integers(num_policies)] += 1.0
        post = Categorical(weights / weights.sum())
        tables = [
            None if w == 0.0 and rng.random() < 0.5
            else rng.dirichlet(np.ones(num_states), size=timesteps)
            for w in post.probs
        ]
        assert np.array_equal(bma_beliefs(post, tables),
                              helpers.bma_by_timestep(post.probs, tables))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_policies=st.sampled_from([1, 2, 7, 64, 1024]),
           num_states=st.integers(1, 9), timesteps=st.integers(1, 5),
           zeros=st.sampled_from([0.0, 0.5, 0.99]))
    def test_matches_the_per_policy_loop_to_the_bit(self, seed, num_policies, num_states,
                                                    timesteps, zeros):
        rng = np.random.default_rng(seed)
        weights = rng.random(num_policies) * (rng.random(num_policies) >= zeros)
        weights[rng.integers(num_policies)] += rng.random()
        post = Categorical(weights / weights.sum())
        tables = [None if w == 0.0 and rng.random() < 0.5
                  else rng.dirichlet(np.ones(num_states), size=timesteps) for w in post.probs]
        got = bma_beliefs(post, tables)
        assert got.tobytes() == helpers.bma_by_policy_loop(post.probs, tables).tobytes()

    def test_names_the_first_policy_with_mass_but_no_beliefs(self):
        post = Categorical(np.array([0.0, 0.25, 0.0, 0.25, 0.5]))
        tables = [None, np.ones((1, 2)) / 2, None, None, None]
        with pytest.raises(ValueError) as want:
            helpers.bma_by_policy_loop(post.probs, tables)
        with pytest.raises(ValueError) as got:
            bma_beliefs(post, tables)
        assert str(got.value) == str(want.value) == "policy 3 has posterior mass but no beliefs"

    def test_a_posterior_without_mass_is_refused_as_before(self):
        weightless = types.SimpleNamespace(probs=np.zeros(3))  # no Categorical is massless
        tables = [np.ones((1, 2)) / 2] * 3
        with pytest.raises(ValueError) as want:
            helpers.bma_by_policy_loop(weightless.probs, tables)
        with pytest.raises(ValueError) as got:
            bma_beliefs(weightless, tables)
        assert str(got.value) == str(want.value) == "policy posterior has no mass"
