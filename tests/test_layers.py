import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import check_layer_grads
from bigatid import layers as L
from bigatid.numerics import RngStream, ShapeError, finite_diff_grad, grad_mismatch, sigmoid


class TestDense:
    def test_identity_kernel(self):
        p = L.DenseParams(W=np.eye(4), b=np.zeros(4))
        x = RngStream(1).normal(size=(3, 4))
        y, _ = L.dense_forward(p, x, act="none")
        assert np.array_equal(y, x)

    def test_width_mismatch(self):
        p = L.DenseParams.init(RngStream(0), 5, 2)
        with pytest.raises(ShapeError):
            L.dense_forward(p, np.zeros((3, 4)))

    def test_linear_grad_is_xt_dy(self):
        rng = RngStream(2)
        p = L.DenseParams.init(rng, 5, 3)
        x = rng.normal(size=(4, 5))
        _, cache = L.dense_forward(p, x, act="none")
        dy = rng.normal(size=(4, 3))
        _, grads = L.dense_backward(p, cache, dy)
        assert np.abs(grads.W - x.T @ dy).max() < 1e-12

    @pytest.mark.parametrize("act", ["none", "relu", "softmax"])
    def test_gradients(self, act):
        for seed in range(3):
            rng = RngStream(seed)
            p = L.DenseParams.init(rng, 5, 4)
            x = rng.normal(size=(3, 5))
            check_layer_grads(p, lambda p_, x_: L.dense_forward(p_, x_, act=act),
                              L.dense_backward, x, rng)


class TestLayerNorm:
    def test_gradients(self):
        for seed in range(3):
            rng = RngStream(seed)
            p = L.LayerNormParams(gamma=rng.normal(size=6), beta=rng.normal(size=6))
            x = rng.normal(size=(2, 4, 6))
            check_layer_grads(p, lambda p_, x_: L.layer_norm_forward(p_, x_, eps=1e-3),
                              L.layer_norm_backward, x, rng)


class TestDropout:
    def test_eval_is_identity(self):
        x = RngStream(3).normal(size=(5, 7))
        y, mask = L.dropout_apply(x, 0.5, "eval")
        assert np.array_equal(y, x) and mask is None

    def test_rate_zero_is_identity(self):
        x = RngStream(3).normal(size=(5, 7))
        y, mask = L.dropout_apply(x, 0.0, "train", RngStream(0))
        assert np.array_equal(y, x) and mask is None

    def test_survivor_fraction_and_mean(self):
        rng = RngStream(4)
        x = rng.uniform(size=100_000, low=0.5, high=1.5)
        y, mask = L.dropout_apply(x, 0.5, "train", rng.spawn(1))
        survive = mask.mean()
        assert abs(survive - 0.5) < 0.01
        assert abs(y.mean() - x.mean()) / x.mean() < 0.02

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            L.dropout_apply(np.zeros(3), 1.0, "train", RngStream(0))

    def test_train_requires_rng(self):
        with pytest.raises(ValueError, match="requires an RngStream"):
            L.dropout_apply(np.zeros(3), 0.5, "train", None)

    def test_backward_matches_cached_mask(self):
        rng = RngStream(5)
        x = rng.normal(size=(4, 6))
        y, mask = L.dropout_apply(x, 0.4, "train", rng.spawn(1))
        dy = rng.normal(size=(4, 6))
        dx = L.dropout_backward(mask, 0.4, dy)
        oracle = finite_diff_grad(
            lambda v: float((np.where(mask, v, 0.0) / 0.6 * dy).sum()), x)
        assert grad_mismatch(dx, oracle) < 1e-4

    def test_eval_backward_passthrough(self):
        dy = RngStream(6).normal(size=(3, 3))
        assert np.array_equal(L.dropout_backward(None, 0.5, dy), dy)


class TestFlattenConcat:
    def test_published_shapes(self):
        assert L.flatten(np.zeros((2, 83, 128))).shape == (2, 10_624)
        assert L.flatten(np.zeros((2, 60, 128))).shape == (2, 7_680)

    def test_round_trip(self):
        x = RngStream(7).normal(size=(3, 5, 4))
        assert np.array_equal(L.flatten(x).reshape(3, 5, 4), x)

    def test_rank_checked(self):
        with pytest.raises(ShapeError):
            L.flatten(np.zeros((3, 5)))

    def test_concat_widths(self):
        assert L.concat_last(np.zeros((2, 10_624)), np.zeros((2, 32))).shape == (2, 10_656)
        assert L.concat_last(np.zeros((2, 7_680)), np.zeros((2, 32))).shape == (2, 7_712)

    def test_concat_with_empty(self):
        a = RngStream(8).normal(size=(4, 3))
        assert np.array_equal(L.concat_last(a, np.zeros((4, 0))), a)

    def test_concat_batch_mismatch(self):
        with pytest.raises(ShapeError):
            L.concat_last(np.zeros((2, 3)), np.zeros((3, 3)))


# (seed, (batch, T)): three seeds at a small shape, then batch 1 with T=1, the
# edge shape of the recurrences' hoisted input GEMMs and after-loop weight GEMMs.
EDGE_SHAPE_CASES = ((0, (2, 3)), (1, (2, 3)), (2, (2, 3)), (3, (1, 1)))


def manual_gru_step(p: L.GruParams, x_t, h_prev):
    """Independent single-step reference for the reset-after recurrence."""
    n = p.units
    a_in = x_t @ p.W_in + p.b_in
    a_rec = h_prev @ p.W_rec + p.b_rec
    z = sigmoid(a_in[:, :n] + a_rec[:, :n])
    r = sigmoid(a_in[:, n:2 * n] + a_rec[:, n:2 * n])
    hc = np.tanh(a_in[:, 2 * n:] + r * a_rec[:, 2 * n:])
    return (1.0 - z) * h_prev + z * hc


class TestGru:
    def test_zero_params_zero_output(self):
        p = L.GruParams(W_in=np.zeros((2, 12)), W_rec=np.zeros((4, 12)),
                        b_in=np.zeros(12), b_rec=np.zeros(12))
        h, _ = L.gru_sequence_forward(p, RngStream(9).normal(size=(3, 5, 2)))
        assert np.abs(h).max() == 0.0

    def test_single_step_matches_manual_recurrence(self):
        rng = RngStream(10)
        p = L.GruParams.init(rng, 2, 4)
        x = rng.normal(size=(3, 1, 2))
        h, _ = L.gru_sequence_forward(p, x)
        expected = manual_gru_step(p, x[:, 0], np.zeros((3, 4)))
        assert np.abs(h[:, 0] - expected).max() < 1e-12

    def test_full_sequence_matches_manual_recurrence(self):
        rng = RngStream(11)
        p = L.GruParams.init(rng, 1, 4)
        x = rng.normal(size=(2, 5, 1))
        h_seq, _ = L.gru_sequence_forward(p, x)
        h = np.zeros((2, 4))
        for t in range(5):
            h = manual_gru_step(p, x[:, t], h)
            assert np.abs(h_seq[:, t] - h).max() < 1e-12

    def test_shape_mismatch(self):
        p = L.GruParams.init(RngStream(0), 2, 4)
        with pytest.raises(ShapeError):
            L.gru_sequence_forward(p, np.zeros((2, 5, 3)))

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradients(self, reverse):
        for seed, shape in EDGE_SHAPE_CASES:
            rng = RngStream(seed)
            p = L.GruParams.init(rng, 1, 4)
            x = rng.normal(size=shape + (1,))
            check_layer_grads(
                p, lambda p_, x_: L.gru_sequence_forward(p_, x_, reverse=reverse),
                L.gru_sequence_backward, x, rng)


class TestBigru:
    def test_published_width(self):
        rng = RngStream(12)
        p_f = L.GruParams.init(rng, 1, 64)
        p_b = L.GruParams.init(rng, 1, 64)
        y, _ = L.bigru_forward(p_f, p_b, rng.normal(size=(2, 83, 1)))
        assert y.shape == (2, 83, 128)

    def test_equals_independent_directions(self):
        rng = RngStream(13)
        p_f = L.GruParams.init(rng, 1, 4)
        p_b = L.GruParams.init(rng, 1, 4)
        x = rng.normal(size=(2, 6, 1))
        y, _ = L.bigru_forward(p_f, p_b, x)
        h_f, _ = L.gru_sequence_forward(p_f, x)
        h_b, _ = L.gru_sequence_forward(p_b, x, reverse=True)
        assert np.array_equal(y, np.concatenate([h_f, h_b], axis=-1))

    def test_tied_params_constant_input_time_symmetry(self):
        rng = RngStream(14)
        p = L.GruParams.init(rng, 1, 4)
        x = np.ones((1, 5, 1)) * 0.3
        y, _ = L.bigru_forward(p, p, x)
        fwd, bwd = y[..., :4], y[..., 4:]
        assert np.abs(fwd - bwd[:, ::-1]).max() < 1e-12

    def test_direction_shape_disagreement(self):
        rng = RngStream(15)
        with pytest.raises(ShapeError):
            L.bigru_forward(L.GruParams.init(rng, 1, 4), L.GruParams.init(rng, 1, 5),
                            np.zeros((1, 3, 1)))

    def test_gradients(self):
        rng = RngStream(16)
        p_f = L.GruParams.init(rng, 1, 4)
        p_b = L.GruParams.init(rng, 1, 4)
        x = rng.normal(size=(2, 3, 1))
        y, cache = L.bigru_forward(p_f, p_b, x)
        dy = rng.normal(size=y.shape)
        dx, g_f, g_b = L.bigru_backward(p_f, p_b, cache, dy)
        fd = finite_diff_grad(
            lambda v: float((L.bigru_forward(p_f, p_b, v)[0] * dy).sum()), x)
        assert grad_mismatch(dx, fd) < 1e-4
        for fld in ("W_in", "W_rec", "b_in", "b_rec"):
            fd = finite_diff_grad(
                lambda t, fld=fld: float((L.bigru_forward(
                    dataclasses.replace(p_f, **{fld: t}), p_b, x)[0] * dy).sum()),
                getattr(p_f, fld))
            assert grad_mismatch(getattr(g_f, fld), fd) < 1e-4


class TestLstm:
    def test_published_width(self):
        rng = RngStream(17)
        p = L.LstmParams.init(rng, 1, 32)
        y, _ = L.lstm_last_forward(p, rng.normal(size=(2, 83, 1)))
        assert y.shape == (2, 32)

    def test_zero_params_zero_output(self):
        p = L.LstmParams(W_in=np.zeros((1, 16)), W_rec=np.zeros((4, 16)), b=np.zeros(16))
        y, _ = L.lstm_last_forward(p, RngStream(18).normal(size=(2, 5, 1)))
        assert np.abs(y).max() == 0.0

    def test_last_equals_sequence_tail(self):
        rng = RngStream(20)
        p = L.LstmParams.init(rng, 1, 4)
        x = rng.normal(size=(2, 5, 1))
        h_seq, _ = L.lstm_sequence_forward(p, x)
        h_last, _ = L.lstm_last_forward(p, x)
        assert np.array_equal(h_last, h_seq[:, -1])

    def test_gradients_last(self):
        for seed, shape in EDGE_SHAPE_CASES:
            rng = RngStream(seed)
            p = L.LstmParams.init(rng, 1, 4)
            x = rng.normal(size=shape + (1,))
            check_layer_grads(p, L.lstm_last_forward, L.lstm_last_backward, x, rng)

    def test_gradients_sequence(self):
        for seed, shape in ((21, (2, 3)), (22, (1, 1))):
            rng = RngStream(seed)
            p = L.LstmParams.init(rng, 1, 4)
            x = rng.normal(size=shape + (1,))
            check_layer_grads(p, L.lstm_sequence_forward, L.lstm_sequence_backward, x, rng)


def plain_attention(p: L.MhaParams, x, heads, d_k, dy):
    """Untiled reference attention in einsums, with the whole (b, h, T, T)
    attention kept: returns y and the gradients (dx, MhaParams) for dy."""
    b, t, d_model = x.shape
    x2 = x.reshape(b * t, d_model)

    def split(w, bias):
        return (x2 @ w + bias).reshape(b, t, heads, d_k)

    q, k, v = split(p.Wq, p.bq), split(p.Wk, p.bk), split(p.Wv, p.bv)
    s = np.einsum("bqhd,bkhd->bhqk", q, k) / np.sqrt(d_k)
    a = np.exp(s - s.max(axis=-1, keepdims=True))
    a /= a.sum(axis=-1, keepdims=True)
    o2 = np.einsum("bhqk,bkhd->bqhd", a, v).reshape(b * t, heads * d_k)
    y = (o2 @ p.Wo + p.bo).reshape(b, t, d_model)

    dy2 = dy.reshape(b * t, d_model)
    do = (dy2 @ p.Wo.T).reshape(b, t, heads, d_k)
    da = np.einsum("bqhd,bkhd->bhqk", do, v)
    ds = a * (da - (da * a).sum(axis=-1, keepdims=True)) / np.sqrt(d_k)
    dq = np.einsum("bhqk,bkhd->bqhd", ds, k).reshape(b * t, -1)
    dk = np.einsum("bhqk,bqhd->bkhd", ds, q).reshape(b * t, -1)
    dv = np.einsum("bhqk,bqhd->bkhd", a, do).reshape(b * t, -1)
    grads = L.MhaParams(Wq=x2.T @ dq, bq=dq.sum(axis=0), Wk=x2.T @ dk, bk=dk.sum(axis=0),
                        Wv=x2.T @ dv, bv=dv.sum(axis=0), Wo=o2.T @ dy2, bo=dy2.sum(axis=0))
    dx = (dq @ p.Wq.T + dk @ p.Wk.T + dv @ p.Wv.T).reshape(b, t, d_model)
    return y, dx, grads


def with_noisy_biases(p: L.MhaParams, rng: RngStream) -> L.MhaParams:
    return dataclasses.replace(p, **{f: rng.normal(size=a.shape) * 0.1
                                     for f, a in p.tensors() if f.startswith("b")})


class TestMha:
    def test_single_token_closed_form(self):
        rng = RngStream(22)
        p = L.MhaParams.init(rng, 6, 2, 3)
        x = rng.normal(size=(2, 1, 6))
        y, _ = L.mha_self_forward(p, x, 2, 3)
        x2 = x.reshape(2, 6)
        expected = ((x2 @ p.Wv + p.bv) @ p.Wo + p.bo).reshape(2, 1, 6)
        assert np.abs(y - expected).max() < 1e-12
        # 1x1 attention is forced to 1, whatever the queries and keys score
        loud = dataclasses.replace(p, Wq=p.Wq * 100.0, bq=p.bq + 3.0,
                                   Wk=-p.Wk * 100.0, bk=p.bk - 3.0)
        y_loud, _ = L.mha_self_forward(loud, x, 2, 3)
        assert np.abs(y_loud - y).max() < 1e-15

    def test_zero_query_key_uniform_attention(self):
        rng = RngStream(23)
        p = L.MhaParams.init(rng, 6, 2, 3)
        p.Wq[:] = 0.0
        p.bq[:] = 0.0
        p.Wk[:] = 0.0
        p.bk[:] = 0.0
        x = rng.normal(size=(2, 5, 6))
        y, _ = L.mha_self_forward(p, x, 2, 3)
        # uniform attention: every position outputs its sequence's mean value
        expected = ((x @ p.Wv + p.bv) @ p.Wo + p.bo).mean(axis=1, keepdims=True)
        assert np.abs(y - expected).max() < 1e-15

    def test_attention_rows_sum_to_one(self):
        rng = RngStream(24)
        p = L.MhaParams.init(rng, 8, 2, 4)
        c = rng.normal(size=8)
        p.Wv[:] = 0.0
        p.bv[:] = c
        y, _ = L.mha_self_forward(p, rng.normal(size=(3, 7, 8)) * 10, 2, 4)
        # every value row is c, so y = (sum of a row of A) c Wo + bo
        assert np.abs(y - (c @ p.Wo + p.bo)).max() < 1e-12

    def test_projection_shape_mismatch(self):
        p = L.MhaParams.init(RngStream(0), 6, 2, 3)
        with pytest.raises(ShapeError):
            L.mha_self_forward(p, np.zeros((1, 4, 5)), 2, 3)
        with pytest.raises(ShapeError):
            L.mha_self_forward(p, np.zeros((1, 4, 6)), 3, 3)

    def test_gradients(self):
        for seed, shape in ((0, (1, 4)), (1, (1, 4)), (2, (1, 4)), (3, (1, 1))):
            rng = RngStream(seed)
            p = L.MhaParams.init(rng, 6, 2, 3)
            x = rng.normal(size=shape + (6,))
            check_layer_grads(p, lambda p_, x_: L.mha_self_forward(p_, x_, 2, 3),
                              L.mha_self_backward, x, rng)

    def test_key_bias_gradient_is_rounding_noise(self):
        # canonical block: d_model 128 (BiGRU64, both directions), 8 heads of 64
        rng = RngStream(27)
        p = with_noisy_biases(L.MhaParams.init(rng, 128, 8, 64), rng)
        x = rng.normal(size=(2, 83, 128))
        _, cache = L.mha_self_forward(p, x, 8, 64)
        _, grads = L.mha_self_backward(p, cache, rng.normal(size=x.shape))
        assert np.abs(grads.bk).max() <= 1e-10 * np.abs(grads.bq).max()

    def test_gradients_one_row_per_tile(self, monkeypatch):
        monkeypatch.setattr(L, "_TILE_ROWS", 1)
        rng = RngStream(26)
        p = with_noisy_biases(L.MhaParams.init(rng, 6, 2, 3), rng)
        x = rng.normal(size=(3, 4, 6))
        check_layer_grads(p, lambda p_, x_: L.mha_self_forward(p_, x_, 2, 3),
                          L.mha_self_backward, x, rng)

    def test_ragged_tiles_match_untiled_attention(self):
        rng = RngStream(27)
        t, heads, d_k = 83, 2, 4
        tile = max(1, L._TILE_ROWS // t)
        p = with_noisy_biases(L.MhaParams.init(rng, 8, heads, d_k), rng)
        x = rng.normal(size=(2 * tile + 1, t, 8))
        dy = rng.normal(size=x.shape)
        y_ref, dx_ref, g_ref = plain_attention(p, x, heads, d_k, dy)
        y_eval, _ = L.mha_self_forward(p, x, heads, d_k, train=False)
        y, cache = L.mha_self_forward(p, x, heads, d_k, train=True)
        assert np.abs(y_eval - y_ref).max() < 1e-12
        assert np.abs(y - y_ref).max() < 1e-12
        dx, grads = L.mha_self_backward(p, cache, dy)
        assert grad_mismatch(dx, dx_ref) < 1e-12
        for name, ref in g_ref.tensors():
            assert grad_mismatch(getattr(grads, name), ref) < 1e-12, name

    def test_eval_holds_no_whole_batch_score_buffer(self):
        b, t, heads, d_k = 64, 83, 8, 64
        rng = RngStream(28)
        p = L.MhaParams.init(rng, 128, heads, d_k)
        x = rng.normal(size=(b, t, 128))
        tracemalloc.start()
        try:
            L.mha_self_forward(p, x, heads, d_k, train=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < b * heads * t * t * 8


class TestTimeDense:
    def test_gradients(self):
        rng = RngStream(25)
        p = L.DenseParams.init(rng, 1, 4)
        x = rng.normal(size=(2, 3, 1))
        check_layer_grads(p, L.time_dense_forward, L.time_dense_backward, x, rng)
