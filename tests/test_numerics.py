"""Distribution arithmetic: pinned values and randomized properties."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from efeplan.numerics import (
    LOG_EPS,
    NORM_TOL,
    Categorical,
    DegenerateDistributionError,
    entropy,
    kl_divergence,
    normalize,
    softmax,
)


class TestCategorical:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Categorical(np.array([1.1, -0.1]))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sum to 1"):
            Categorical(np.array([0.5, 0.4]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Categorical(np.array([]))

    def test_is_immutable(self):
        c = Categorical(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            c.probs[0] = 1.0


# entries at the edges of each check: non-finite, signed and subnormal zeros,
# tiny negatives, entries just above 1 and overflowing ones
_EDGE_ENTRIES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.2e-308, -5e-324, -1e-300,
                 -1e-12, 1.0, math.nextafter(1.0, 2.0), 1.0 + NORM_TOL, 2.0, 1e308)
# sums off 1 by exactly NORM_TOL and by one ulp of it either way
_SUM_OFFSETS = (0.0, NORM_TOL, -NORM_TOL, math.nextafter(NORM_TOL, 1.0),
                math.nextafter(NORM_TOL, 0.0), -math.nextafter(NORM_TOL, 1.0), 3e-9, -3e-9)


@st.composite
def _probability_vectors(draw):
    """A normalised vector, one entry of it moved so the sum misses 1 by an edge
    offset, and some entries replaced by edge entries."""
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=9)))
    if weights.sum() > 0.0:
        weights = weights / weights.sum()
    values = weights.tolist()
    values[draw(st.integers(0, len(values) - 1))] += draw(st.sampled_from(_SUM_OFFSETS))
    for _ in range(draw(st.integers(0, 2))):
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(_EDGE_ENTRIES))
    return values


class TestCategoricalChecks:
    """Categorical's one-pass acceptance against its checks run one at a time."""

    @settings(max_examples=250, deadline=None)
    @given(values=_probability_vectors())
    def test_accepts_and_refuses_as_the_checks_do_property(self, values):
        fault = helpers.categorical_fault(values)
        if fault is None:
            assert Categorical(np.array(values)).probs.tobytes() == np.array(values).tobytes()
        else:
            with pytest.raises(ValueError) as info:
                Categorical(np.array(values))
            assert str(info.value) == fault

    @pytest.mark.parametrize("values", [
        [math.nextafter(1.0, 2.0)],  # above 1, within NORM_TOL: left to the checks
        [1.0 + NORM_TOL / 2, 0.0],
        [-0.0, 1.0],
        [5e-324, 1.0],
    ])
    def test_edge_vectors_the_checks_accept_are_accepted(self, values):
        assert helpers.categorical_fault(values) is None
        assert Categorical(np.array(values)).probs.tolist() == values

    @pytest.mark.parametrize("values, message", [
        ([math.nan, 1.0], "probs must be finite"),
        ([math.inf, -math.inf], "probs must be finite"),
        ([-5e-324, 1.0], "probs must be nonnegative, got min -5e-324"),
        ([1e308, 1e308], "probs must sum to 1 within 1e-09, got inf"),
        ([1.0, 2 * NORM_TOL], "probs must sum to 1 within 1e-09, got 1.000000002"),
    ])
    def test_refusals_name_the_fault(self, values, message):
        with pytest.raises(ValueError) as info:
            Categorical(np.array(values))
        assert str(info.value) == message == helpers.categorical_fault(values)


class TestNormalize:
    def test_symmetric_weights(self):
        assert np.allclose(normalize([2, 2]).probs, [0.5, 0.5])

    def test_all_zero_is_degenerate(self):
        with pytest.raises(DegenerateDistributionError):
            normalize([0, 0])

    def test_negative_is_degenerate(self):
        with pytest.raises(DegenerateDistributionError):
            normalize([1, -1])

    def test_prior_counts(self):
        out = normalize([128, 128, 0, 0, 0, 0, 0, 0])
        assert np.allclose(out.probs, [0.5, 0.5, 0, 0, 0, 0, 0, 0])

    def test_proportionality(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            w = rng.random(int(rng.integers(1, 9))) + 1e-3
            out = normalize(w).probs
            assert np.allclose(out * w.sum(), w, atol=1e-12)

    def test_ordinary_weights_are_divided_by_their_sum(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            w = (rng.random(int(rng.integers(1, 9))) + 1e-3) * 10.0 ** int(rng.integers(-300, 300))
            assert np.array_equal(normalize(w).probs, w / w.sum())

    def test_weights_whose_sum_overflows(self):
        out = normalize([1e308, 1e308, 1.0, 1.0]).probs
        assert out[:2].tolist() == [0.5, 0.5]
        assert 0.0 <= out[2] == out[3] < 1e-307

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            w = rng.random(int(rng.integers(1, 9)))
            if w.sum() == 0:
                continue
            once = normalize(w)
            twice = normalize(once.probs)
            assert np.abs(once.probs - twice.probs).max() < 1e-12


class TestSoftmax:
    def test_symmetric_logits(self):
        assert np.allclose(softmax([0.0, 0.0], 1.0).probs, [0.5, 0.5])

    def test_zero_precision_is_uniform(self):
        assert np.allclose(softmax([5.0, -3.0, 7.0], 0.0).probs, [1 / 3] * 3)

    def test_log_two_logit(self):
        out = softmax([math.log(2.0), 0.0], 1.0)
        assert np.allclose(out.probs, [2 / 3, 1 / 3], atol=1e-12)

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            softmax([math.nan, 0.0], 1.0)
        with pytest.raises(ValueError):
            softmax([math.inf, 0.0], 1.0)

    def test_valid_for_random_inputs(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            z = rng.normal(scale=100.0, size=int(rng.integers(1, 9)))
            out = softmax(z, float(rng.random() * 10))
            assert np.all(out.probs >= 0.0)
            assert abs(out.probs.sum() - 1.0) < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(10)
        for _ in range(500):
            z = rng.normal(size=int(rng.integers(2, 9)))
            shift = float(rng.normal(scale=50.0))
            gamma = float(rng.random() * 5)
            a = softmax(z, gamma).probs
            b = softmax(z + shift, gamma).probs
            assert np.abs(a - b).max() < 1e-12


class TestEntropy:
    def test_delta_is_zero(self):
        assert entropy(Categorical(np.array([1.0, 0.0]))) == 0.0

    def test_uniform_is_log_n(self):
        assert entropy(Categorical(np.array([0.5, 0.5]))) == pytest.approx(math.log(2), abs=1e-12)

    def test_binary_098(self):
        expected = -(0.98 * math.log(0.98) + 0.02 * math.log(0.02))
        got = entropy(Categorical(np.array([0.98, 0.02])))
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(0.098039, abs=1e-6)

    def test_bounded_by_log_n_with_uniform_equality(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            p = Categorical(rng.dirichlet(np.ones(n)))
            assert entropy(p) <= math.log(n) + 1e-12
        for n in range(1, 9):
            uniform = Categorical(np.full(n, 1.0 / n))
            assert entropy(uniform) == pytest.approx(math.log(n), abs=1e-12)


class TestKlDivergence:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            p = Categorical(rng.dirichlet(np.ones(int(rng.integers(1, 9)))))
            assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_delta_vs_uniform(self):
        p = Categorical(np.array([1.0, 0.0]))
        q = Categorical(np.array([0.5, 0.5]))
        assert kl_divergence(p, q) == pytest.approx(math.log(2), abs=1e-12)

    def test_disjoint_support_hits_clamp(self):
        p = Categorical(np.array([1.0, 0.0]))
        q = Categorical(np.array([0.0, 1.0]))
        assert kl_divergence(p, q) == pytest.approx(math.log(1.0 / LOG_EPS), abs=1e-9)
        assert kl_divergence(p, q) == pytest.approx(36.8414, abs=1e-3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            kl_divergence(Categorical(np.array([1.0])), Categorical(np.array([0.5, 0.5])))

    def test_nonnegative_with_equality_iff_equal(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            p = Categorical(rng.dirichlet(np.ones(n)))
            q = Categorical(rng.dirichlet(np.ones(n)))
            d = kl_divergence(p, q)
            assert d >= -1e-15
            if np.abs(p.probs - q.probs).max() > 1e-6:
                assert d > 0.0
