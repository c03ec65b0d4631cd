import numpy as np
import pytest

from bigatid.layers import LayerNormParams, layer_norm_forward
from bigatid.numerics import NumericError, RngStream, finite_diff_grad, sigmoid, softmax_rows


class TestActivations:
    def test_symmetry_points(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_sigmoid_complement_identity(self):
        x = RngStream(2).normal(size=100) * 5
        total = sigmoid(x) + sigmoid(-x)
        assert np.abs(total - 1.0).max() < 1e-12

    def test_sigmoid_matches_logistic_closed_form(self):
        x = np.linspace(-30.0, 30.0, 60_001)
        assert np.abs(sigmoid(x) - 1.0 / (1.0 + np.exp(-x))).max() <= 2.3e-16

    def test_sigmoid_saturates_without_floating_point_errors(self):
        with np.errstate(all="raise"):
            out = sigmoid(np.array([-800.0, 800.0]))
        assert np.isfinite(out).all()
        assert 0.0 <= out[0] <= out[1] <= 1.0

    def test_sigmoid_in_place_equals_allocating(self):
        x = RngStream(3).normal(size=(4, 5)) * 10
        expected = sigmoid(x)
        assert sigmoid(x, out=x) is x
        assert np.array_equal(x, expected)


class TestSoftmax:
    def test_uniform_on_zeros(self):
        out = softmax_rows(np.zeros(6))
        assert np.abs(out - 1.0 / 6.0).max() < 1e-15

    def test_in_place_equals_allocating(self):
        x = RngStream(4).normal(size=(3, 4, 5)) * 10
        expected = softmax_rows(x)
        assert softmax_rows(x, out=x) is x
        assert np.array_equal(x, expected)

    def test_log_sum_exp_recovers_the_softmax(self):
        x = RngStream(5).normal(size=(3, 4, 5)) * 10
        lse = np.empty((3, 4, 1))
        out = softmax_rows(x, lse=lse)
        assert np.array_equal(out, softmax_rows(x))
        assert np.abs(lse - np.log(np.exp(x).sum(axis=-1, keepdims=True))).max() < 1e-13
        assert np.abs(np.exp(x - lse) - out).max() < 1e-14  # x - lse rounds at |x| ~ 25

    def test_large_magnitude_no_overflow(self):
        out = softmax_rows(np.array([1000.0, 0.0]))
        assert np.isfinite(out).all()
        assert out[0] > 1.0 - 1e-12 and out[1] < 1e-12

    def test_shift_invariance(self):
        rng = RngStream(3)
        x = rng.normal(size=(4, 6))
        assert np.abs(softmax_rows(x + 17.3) - softmax_rows(x)).max() < 1e-12

    def test_rows_sum_to_one_large_inputs(self):
        for seed in range(20):
            x = RngStream(seed).uniform(size=(8, 6), low=-1e3, high=1e3)
            sums = softmax_rows(x).sum(axis=-1)
            assert np.abs(sums - 1.0).max() < 1e-12


def layer_norm(x, gamma, beta, eps=1e-3):
    y, _ = layer_norm_forward(LayerNormParams(gamma=gamma, beta=beta), x, eps=eps)
    return y


class TestLayerNorm:
    """Values of `layers.layer_norm_forward`; test_layers checks its gradient."""

    def test_constant_row_zeroed_by_eps(self):
        out = layer_norm(np.full((2, 5), 3.7), np.ones(5), np.zeros(5))
        assert np.abs(out).max() < 1e-12

    def test_closed_form_standardization(self):
        out = layer_norm(np.array([1.0, 2.0, 3.0]), np.ones(3), np.zeros(3), eps=1e-15)
        expected = np.array([-np.sqrt(1.5), 0.0, np.sqrt(1.5)])
        assert np.abs(out - expected).max() < 1e-6

    def test_gamma_zero_gives_beta(self):
        beta = np.array([1.0, -2.0, 0.5])
        out = layer_norm(RngStream(4).normal(size=(6, 3)), np.zeros(3), beta)
        assert np.abs(out - beta).max() < 1e-12

    def test_shift_invariance(self):
        x = RngStream(5).normal(size=(3, 8))
        a = layer_norm(x, np.ones(8), np.zeros(8))
        b = layer_norm(x + 4.2, np.ones(8), np.zeros(8))
        assert np.abs(a - b).max() < 1e-9

    def test_standardizes_rows(self):
        x = RngStream(6).normal(size=(10, 16)) * 3
        out = layer_norm(x, np.ones(16), np.zeros(16), eps=1e-12)
        assert np.abs(out.mean(axis=-1)).max() < 1e-12
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-9


class TestFiniteDiff:
    def test_square(self):
        g = finite_diff_grad(lambda v: float((v ** 2).sum()), np.array([3.0]))
        assert abs(g[0] - 6.0) < 1e-8

    def test_sum_gives_ones(self):
        g = finite_diff_grad(lambda v: float(v.sum()), RngStream(7).normal(size=(3, 4)))
        assert np.abs(g - 1.0).max() < 1e-10

    def test_nonfinite_evaluation_raises(self):
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            finite_diff_grad(lambda v: float(np.log(v).sum()), np.array([1e-9]))

    def test_does_not_mutate_input(self):
        x = np.array([1.0, 2.0])
        backup = x.copy()
        finite_diff_grad(lambda v: float(v.sum()), x)
        assert np.array_equal(x, backup)


class TestRngStream:
    def test_equal_seeds_equal_draws(self):
        a = RngStream(12345).uniform(size=10_000)
        b = RngStream(12345).uniform(size=10_000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(RngStream(1).uniform(size=100),
                                  RngStream(2).uniform(size=100))

    def test_spawn_is_deterministic_and_independent(self):
        root = RngStream(9)
        child1 = root.spawn(3).normal(size=50)
        child1_again = RngStream(9).spawn(3).normal(size=50)
        other = RngStream(9).spawn(4).normal(size=50)
        assert np.array_equal(child1, child1_again)
        assert not np.array_equal(child1, other)

    def test_permutation_covers_range(self):
        perm = RngStream(11).permutation(100)
        assert sorted(perm.tolist()) == list(range(100))
