"""Forward and backward passes for the network's layers: dense, layer
norm, dropout, flatten, GRU (reset-after, dual bias), LSTM, and multi-head
self-attention. A bidirectional GRU is two GRU passes, one with
reverse=True; `model` runs both directions of its BiGRU kind and joins its
branches.

Conventions: batch-first shapes, float64 arrays in and out (the layers do
not coerce their inputs; `model.forward` and `model.backward` do, once, at
the model boundary), parameters immutable during a forward/backward pair.
Each forward returns (output, cache); the matching backward consumes
exactly one forward's cache and returns the input gradient plus parameter
gradients carried in the same dataclass shape as the parameters
themselves. The recurrent and attention forwards take `train`: when it is
False they keep nothing for a backward pass and the cache is None.

Self-attention runs over batch tiles of about _TILE_ROWS rows (batch rows x
steps), and every intermediate (QKV, scores, merged heads and their
gradients) is one tile's worth. Its forward and backward run one tile
routine, which computes each tile's Q, K, V and scores, so the backward
recomputes exactly what the forward normalised. The train cache is x and
each score row's log-sum-exp, (x, lse), from which the backward rebuilds
each tile's attention A = exp(scores - lse) and merged heads A V
(FlashAttention, Dao et al. 2022; recomputation, Chen et al. 2016), so
attention memory grows with the batch only through x, the output and dx.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import RngStream, ShapeError, sigmoid, softmax_rows


# ---------------------------------------------------------------------------
# initializers
# ---------------------------------------------------------------------------

def glorot_uniform(rng: RngStream, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(size=(fan_in, fan_out), low=-limit, high=limit)


def orthogonal(rng: RngStream, n: int) -> np.ndarray:
    """Orthogonal n x n matrix via QR with the sign fix that makes the
    distribution uniform (Haar) and the result deterministic per stream."""
    a = rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

@dataclass
class DenseParams:
    W: np.ndarray  # (in, out)
    b: np.ndarray  # (out,)

    @classmethod
    def init(cls, rng: RngStream, fan_in: int, fan_out: int) -> "DenseParams":
        return cls(W=glorot_uniform(rng, fan_in, fan_out), b=np.zeros(fan_out))


@dataclass
class LayerNormParams:
    gamma: np.ndarray  # (d,)
    beta: np.ndarray   # (d,)

    @classmethod
    def init(cls, d: int) -> "LayerNormParams":
        return cls(gamma=np.ones(d), beta=np.zeros(d))


@dataclass
class GruParams:
    """Reset-after GRU with separate input and recurrent biases.

    Gate order along the 3n axis is update (z), reset (r), candidate (h).
    Parameter count 3*(d*n + n*n + 2n): the dual-bias formulation.
    """

    W_in: np.ndarray   # (d, 3n)
    W_rec: np.ndarray  # (n, 3n)
    b_in: np.ndarray   # (3n,)
    b_rec: np.ndarray  # (3n,)

    @classmethod
    def init(cls, rng: RngStream, d: int, n: int) -> "GruParams":
        w_rec = np.concatenate([orthogonal(rng, n) for _ in range(3)], axis=1)
        return cls(
            W_in=glorot_uniform(rng, d, 3 * n),
            W_rec=w_rec,
            b_in=np.zeros(3 * n),
            b_rec=np.zeros(3 * n),
        )

    @property
    def units(self) -> int:
        return self.W_rec.shape[0]


@dataclass
class LstmParams:
    """LSTM with a single bias vector; gate order input, forget, candidate, output."""

    W_in: np.ndarray   # (d, 4n)
    W_rec: np.ndarray  # (n, 4n)
    b: np.ndarray      # (4n,)

    @classmethod
    def init(cls, rng: RngStream, d: int, n: int) -> "LstmParams":
        w_rec = np.concatenate([orthogonal(rng, n) for _ in range(4)], axis=1)
        return cls(W_in=glorot_uniform(rng, d, 4 * n), W_rec=w_rec, b=np.zeros(4 * n))

    @property
    def units(self) -> int:
        return self.W_rec.shape[0]


@dataclass
class MhaParams:
    """Projections for multi-head self-attention; h*d_k may differ from d_model."""

    Wq: np.ndarray  # (d_model, h*d_k)
    bq: np.ndarray
    Wk: np.ndarray
    bk: np.ndarray
    Wv: np.ndarray
    bv: np.ndarray
    Wo: np.ndarray  # (h*d_k, d_model)
    bo: np.ndarray  # (d_model,)

    @classmethod
    def init(cls, rng: RngStream, d_model: int, heads: int, d_k: int) -> "MhaParams":
        hd = heads * d_k
        return cls(
            Wq=glorot_uniform(rng, d_model, hd), bq=np.zeros(hd),
            Wk=glorot_uniform(rng, d_model, hd), bk=np.zeros(hd),
            Wv=glorot_uniform(rng, d_model, hd), bv=np.zeros(hd),
            Wo=glorot_uniform(rng, hd, d_model), bo=np.zeros(d_model),
        )


# ---------------------------------------------------------------------------
# dense
# ---------------------------------------------------------------------------

def dense_forward(p: DenseParams, x: np.ndarray, act: str = "none"):
    """y = act(x W + b). x (b, in) -> y (b, out); act in {none, relu, softmax}."""
    if x.shape[-1] != p.W.shape[0]:
        raise ShapeError(f"dense: input width {x.shape} does not match kernel {p.W.shape}")
    z = x @ p.W
    z += p.b
    if act == "none":
        y = z
    elif act == "relu":
        y = np.maximum(z, 0.0)
    elif act == "softmax":
        y = softmax_rows(z)
    else:
        raise ValueError(f"dense: unknown activation {act!r}")
    return y, (x, z, y, act)


def dense_backward(p: DenseParams, cache, dy: np.ndarray):
    x, z, y, act = cache
    if act == "none":
        dz = dy
    elif act == "relu":
        dz = dy * (z > 0)
    elif act == "softmax":
        dz = y * (dy - (dy * y).sum(axis=-1, keepdims=True))
    else:  # pragma: no cover - guarded at forward time
        raise ValueError(act)
    dW = x.T @ dz
    db = dz.sum(axis=0)
    dx = dz @ p.W.T
    return dx, DenseParams(W=dW, b=db)


def time_dense_forward(p: DenseParams, x: np.ndarray):
    """Width-expanding linear map applied per time step: (b, T, d) -> (b, T, out)."""
    b, t, d = x.shape
    y2, cache = dense_forward(p, x.reshape(b * t, d), act="none")
    return y2.reshape(b, t, -1), (cache, (b, t, d))


def time_dense_backward(p: DenseParams, cache, dy: np.ndarray):
    inner, (b, t, d) = cache
    dx2, grads = dense_backward(p, inner, dy.reshape(b * t, -1))
    return dx2.reshape(b, t, d), grads


# ---------------------------------------------------------------------------
# layer norm
# ---------------------------------------------------------------------------

LN_EPS = 1e-3  # the variance floor of every layer norm in the model (Keras's default)


def layer_norm_forward(p: LayerNormParams, x: np.ndarray, eps: float = LN_EPS):
    xhat = x - x.mean(axis=-1, keepdims=True)
    y = np.square(xhat)
    inv = 1.0 / np.sqrt(y.mean(axis=-1, keepdims=True) + eps)
    xhat *= inv
    np.multiply(xhat, p.gamma, out=y)
    y += p.beta
    return y, (xhat, inv)


def layer_norm_backward(p: LayerNormParams, cache, dy: np.ndarray):
    xhat, inv = cache
    reduce_axes = tuple(range(dy.ndim - 1))
    dgamma = (dy * xhat).sum(axis=reduce_axes)
    dbeta = dy.sum(axis=reduce_axes)
    dxhat = dy * p.gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv * (dxhat - m1 - xhat * m2)
    return dx, LayerNormParams(gamma=dgamma, beta=dbeta)


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------

def dropout_apply(x: np.ndarray, rate: float, mode: str, rng: RngStream | None = None):
    """Inverted dropout: train mode zeros with probability `rate` and scales
    survivors by 1/(1-rate); eval mode is the identity. Returns (y, mask)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate must be in [0, 1), got {rate}")
    if mode == "eval" or rate == 0.0:
        return x, None
    if mode != "train":
        raise ValueError(f"dropout: unknown mode {mode!r}")
    if rng is None:
        raise ValueError("dropout: train mode requires an RngStream")
    mask = rng.uniform(size=x.shape) >= rate
    return x * mask / (1.0 - rate), mask


def dropout_backward(mask, rate: float, dy: np.ndarray) -> np.ndarray:
    if mask is None:
        return dy
    return dy * mask / (1.0 - rate)


# ---------------------------------------------------------------------------
# flatten
# ---------------------------------------------------------------------------

def flatten(x: np.ndarray) -> np.ndarray:
    """(b, T, c) -> (b, T*c), row-major over the trailing axes."""
    if x.ndim != 3:
        raise ShapeError(f"flatten: expected rank-3 input, got shape {x.shape}")
    return x.reshape(x.shape[0], -1)


def flatten_backward(shape: tuple[int, ...], dy: np.ndarray) -> np.ndarray:
    return dy.reshape(shape)


# ---------------------------------------------------------------------------
# fused projections
# ---------------------------------------------------------------------------

def _gate_blocks(w: np.ndarray, k: int) -> np.ndarray:
    """(m, k*n) -> (k, m, n) view, one block per gate."""
    return w.reshape(w.shape[0], k, -1).transpose(1, 0, 2)


def _bias_kernel(w: np.ndarray, bias: np.ndarray, k: int = 1) -> np.ndarray:
    """A (d, k*n) kernel and its bias as one (k, d+1, n) kernel for inputs
    from _ones_column: the bias is the weight row of the constant-1 column,
    so one batched GEMM adds it and no pass over the output does."""
    return _gate_blocks(np.concatenate([w, bias[None]]), k)


def _ones_column(x: np.ndarray) -> np.ndarray:
    """x (..., d) as an (m, d+1) matrix whose last column is 1, m the product
    of the leading dimensions."""
    x1 = np.ones(x.shape[:-1] + (x.shape[-1] + 1,))
    x1[..., :-1] = x
    return x1.reshape(-1, x1.shape[-1])


# ---------------------------------------------------------------------------
# GRU
# ---------------------------------------------------------------------------

def _input_projection(x: np.ndarray, w: np.ndarray, bias: np.ndarray, k: int) -> np.ndarray:
    """Every step's input projection for k gates, (b, T, d) -> (k, T, b, n):
    gate-major and time-major, so each gate's slice at each step is one
    contiguous block."""
    b, t, _ = x.shape
    x1 = _ones_column(x.transpose(1, 0, 2))
    return np.matmul(x1, _bias_kernel(w, bias, k)).reshape(k, t, b, -1)


def _input_backward(w: np.ndarray, x: np.ndarray, da: np.ndarray):
    """Input and kernel gradients of _input_projection from the stacked
    (T, b, k*n) pre-activation gradients: (dx (b, T, d), dW), one GEMM each."""
    b, t, d = x.shape
    da2 = da.reshape(t * b, -1)
    dw = x.transpose(1, 0, 2).reshape(t * b, d).T @ da2
    dx = (da2 @ w.T).reshape(t, b, d).transpose(1, 0, 2)
    return dx, dw


def _recurrent_weight_grad(h_seq: np.ndarray, da: np.ndarray, reverse: bool) -> np.ndarray:
    """Sum over steps of h_prev^T da as one GEMM, for time-major (T, b, n)
    states and (T, b, k*n) gradients. The first step in recurrence order has
    h_prev = 0 and contributes nothing."""
    n = h_seq.shape[2]
    h_prev, da_rec = (h_seq[1:], da[:-1]) if reverse else (h_seq[:-1], da[1:])
    return h_prev.reshape(-1, n).T @ da_rec.reshape(-1, da.shape[2])


def gru_sequence_forward(p: GruParams, x: np.ndarray, reverse: bool = False,
                         train: bool = True):
    """Reset-after GRU over a full sequence, zero initial state.

    x (b, T, d) -> h_seq (b, T, n). Per step:
        z = sig(x W_z + bz_in + h U_z + bz_rec)
        r = sig(x W_r + br_in + h U_r + br_rec)
        hc = tanh(x W_h + bh_in + r * (h U_h + bh_rec))
        h' = (1 - z) * h + z * hc
    reverse=True runs the recurrence back in time; h_seq stays in input time
    order. The input projections of all steps, with the z and r recurrent
    biases, are one GEMM before the loop; each step writes z, r and hc over
    its slice of that buffer.
    """
    if x.ndim != 3 or x.shape[2] != p.W_in.shape[0]:
        raise ShapeError(f"gru: input {x.shape} does not match kernel {p.W_in.shape}")
    n = p.units
    b, t, _ = x.shape
    bias = p.b_in.copy()
    bias[:2 * n] += p.b_rec[:2 * n]
    gates = _input_projection(x, p.W_in, bias, 3)    # (3, T, b, n): z, r, hc after the step
    w_rec = _gate_blocks(p.W_rec, 3)
    bh_rec = np.broadcast_to(p.b_rec[2 * n:], (b, n)).copy()  # full rows: contiguous adds
    h_seq = np.empty((t, b, n))
    s_seq = np.empty((t, b, n)) if train else None  # h U_h + bh_rec, kept for backward
    a_rec = np.empty((3, b, n))
    tmp = np.empty((b, n))
    h = np.zeros((b, n))
    for i in (range(t - 1, -1, -1) if reverse else range(t)):
        np.matmul(h, w_rec, out=a_rec)
        zr = gates[:2, i]
        zr += a_rec[:2]
        sigmoid(zr, out=zr)
        z, r, hc = gates[:, i]
        s = a_rec[2]
        s += bh_rec
        if train:
            s_seq[i] = s
        np.multiply(r, s, out=tmp)
        hc += tmp
        np.tanh(hc, out=hc)
        np.subtract(1.0, z, out=tmp)
        tmp *= h
        h = h_seq[i]
        np.multiply(z, hc, out=h)
        h += tmp
    cache = (x, gates, s_seq, h_seq, reverse) if train else None
    return h_seq.transpose(1, 0, 2), cache


def gru_sequence_backward(p: GruParams, cache, dh_seq: np.ndarray):
    """BPTT over all steps. Returns (dx (b,T,d), GruParams gradients)."""
    x, gates, s_seq, h_seq, reverse = cache
    n = p.units
    t, b, _ = h_seq.shape
    da = np.empty((t, b, 3 * n))   # recurrent pre-activation gradients: z, r, s
    dah = np.empty((t, b, n))      # candidate pre-activation gradient
    zeros = np.zeros((b, n))
    dh = np.zeros((b, n))
    for i in (range(t) if reverse else range(t - 1, -1, -1)):
        prev = i + 1 if reverse else i - 1
        h_prev = h_seq[prev] if 0 <= prev < t else zeros
        z, r, hc = gates[:, i]
        dh += dh_seq[:, i]
        dz = dh * (hc - h_prev)
        dhc = dh * z
        dh_prev = dh - dhc
        np.multiply(dhc, 1.0 - hc * hc, out=dah[i])
        d = da[i]
        np.multiply(dz, z * (1.0 - z), out=d[:, :n])
        np.multiply(dah[i] * s_seq[i], r * (1.0 - r), out=d[:, n:2 * n])
        np.multiply(dah[i], r, out=d[:, 2 * n:])
        dh = d @ p.W_rec.T
        dh += dh_prev
    dW_rec = _recurrent_weight_grad(h_seq, da, reverse)
    db_rec = da.sum(axis=(0, 1))
    db_in = np.concatenate([db_rec[:2 * n], dah.sum(axis=(0, 1))])
    da[:, :, 2 * n:] = dah         # now the input pre-activation gradients
    dx, dW_in = _input_backward(p.W_in, x, da)
    return dx, GruParams(W_in=dW_in, W_rec=dW_rec, b_in=db_in, b_rec=db_rec)


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------

def lstm_sequence_forward(p: LstmParams, x: np.ndarray, train: bool = True):
    """LSTM over a full sequence, zero initial hidden and cell states.

    x (b, T, d) -> h_seq (b, T, n). Gates i, f, g, o along the 4n axis;
    c' = f*c + i*g, h' = o*tanh(c'). The input projections of all steps are
    one GEMM before the loop, and each step writes its gates over its slice
    of that buffer.
    """
    if x.ndim != 3 or x.shape[2] != p.W_in.shape[0]:
        raise ShapeError(f"lstm: input {x.shape} does not match kernel {p.W_in.shape}")
    n = p.units
    b, t, _ = x.shape
    gates = _input_projection(x, p.W_in, p.b, 4)   # (4, T, b, n): i, f, g, o after the step
    w_rec = _gate_blocks(p.W_rec, 4)
    h_seq = np.empty((t, b, n))
    c_seq = np.empty((t, b, n)) if train else None
    a_rec = np.empty((4, b, n))
    tmp = np.empty((b, n))
    h = np.zeros((b, n))
    c = np.zeros((b, n))
    for idx in range(t):
        a = gates[:, idx]
        np.matmul(h, w_rec, out=a_rec)
        a += a_rec
        sigmoid(a[:2], out=a[:2])
        i, f, g, o = a
        np.tanh(g, out=g)
        sigmoid(o, out=o)
        np.multiply(i, g, out=tmp)
        c_new = c_seq[idx] if train else c
        np.multiply(f, c, out=c_new)
        c_new += tmp
        c = c_new
        h = h_seq[idx]
        np.tanh(c, out=h)
        h *= o
    cache = (x, gates, c_seq, h_seq) if train else None
    return h_seq.transpose(1, 0, 2), cache


def lstm_sequence_backward(p: LstmParams, cache, dh_seq: np.ndarray):
    x, gates, c_seq, h_seq = cache
    n = p.units
    t, b, _ = h_seq.shape
    da = np.empty((t, b, 4 * n))
    zeros = np.zeros((b, n))
    dh = np.zeros((b, n))
    dc = np.zeros((b, n))
    for idx in range(t - 1, -1, -1):
        i, f, g, o = gates[:, idx]
        c, c_prev = c_seq[idx], c_seq[idx - 1] if idx > 0 else zeros
        dh += dh_seq[:, idx]
        tc = np.tanh(c)
        do = dh * tc
        dc = dc + dh * o * (1.0 - tc * tc)
        d = da[idx]
        np.multiply(dc * g, i * (1.0 - i), out=d[:, :n])
        np.multiply(dc * c_prev, f * (1.0 - f), out=d[:, n:2 * n])
        np.multiply(dc * i, 1.0 - g * g, out=d[:, 2 * n:3 * n])
        np.multiply(do, o * (1.0 - o), out=d[:, 3 * n:])
        dc = dc * f  # carries to c_{t-1}
        dh = d @ p.W_rec.T
    dW_rec = _recurrent_weight_grad(h_seq, da, reverse=False)
    dx, dW_in = _input_backward(p.W_in, x, da)
    return dx, LstmParams(W_in=dW_in, W_rec=dW_rec, b=da.sum(axis=(0, 1)))


def lstm_last_forward(p: LstmParams, x: np.ndarray, train: bool = True):
    """Sequence LSTM returning only the final hidden state: (b, T, d) -> (b, n)."""
    h_seq, cache = lstm_sequence_forward(p, x, train=train)
    return h_seq[:, -1], ((cache, h_seq.shape) if train else None)


def lstm_last_backward(p: LstmParams, cache, dy: np.ndarray):
    inner, seq_shape = cache
    dh_seq = np.zeros(seq_shape)
    dh_seq[:, -1] = dy
    return lstm_sequence_backward(p, inner, dh_seq)


# ---------------------------------------------------------------------------
# multi-head self-attention
# ---------------------------------------------------------------------------

# Rows (batch rows x steps) of one attention tile. A sweep of 128-2,048
# rows (recorded in CHANGES.md) found 256 the fastest at T=83, forward and
# backward, and no slower at T=20; smaller tiles also hold less memory.
_TILE_ROWS = 256


def _tiles(b: int, t: int) -> tuple[list[slice], int]:
    """Batch slices of max(1, _TILE_ROWS // t) rows (the last may be
    shorter), and that tile size, capped at max(b, 1)."""
    n = max(1, min(b, _TILE_ROWS // t))
    return [slice(i, min(i + n, b)) for i in range(0, b, n)], n


def _attention_tiles(p: MhaParams, x: np.ndarray, heads: int, d_k: int):
    """The tile work mha_self_forward and mha_self_backward share, so the
    backward recomputes exactly the scores the forward normalised. For each
    tile s of _tiles (m rows), x1 is x[s] with a constant-1 column; one GEMM
    of it against [Wq | Wk | Wv] and their bias row fills an (m, T, 3, h, d_k)
    buffer whose (m, h, T, d_k) views are q, k and v; scores = Q K^T /
    sqrt(d_k). Yields (s, x1, merged, q, k, v, scores), merged an unfilled
    (m, T, h, d_k) buffer for A V. Every buffer is one tile, reused."""
    b, t, _ = x.shape
    w1 = _bias_kernel(np.concatenate([p.Wq, p.Wk, p.Wv], axis=1),
                      np.concatenate([p.bq, p.bk, p.bv]))
    scale = 1.0 / np.sqrt(d_k)
    tiles, n = _tiles(b, t)
    qkv = np.empty((n, t, 3, heads, d_k))
    merged = np.empty((n, t, heads, d_k))
    scores = np.empty((n, heads, t, t))
    for s in tiles:
        m = s.stop - s.start
        x1 = _ones_column(x[s])
        np.matmul(x1, w1, out=qkv[:m].reshape(1, m * t, -1))
        q, k, v = qkv[:m].transpose(2, 0, 3, 1, 4)
        a = scores[:m]
        np.matmul(q, k.transpose(0, 1, 3, 2), out=a)
        a *= scale
        yield s, x1, merged[:m], q, k, v, a


def mha_self_forward(p: MhaParams, x: np.ndarray, heads: int, d_k: int, train: bool = True):
    """Self-attention: per head A = softmax(Q K^T / sqrt(d_k)), head = A V;
    heads concatenated then projected back to d_model. No mask, no
    positional encoding. x (b, T, d_model) -> (b, T, d_model).

    Each tile of _attention_tiles takes the row softmax of its scores in
    place, A V into its merged heads and the Wo GEMM straight into its slice
    of the output, in train and eval alike. Eval keeps nothing. Train's
    cache is (x, lse) with heads and d_k: x and each score row's log-sum-exp
    (b, h, T, 1), from which the backward recomputes each tile's A and
    merged heads, so the cache grows with the batch only as x does.

    The key bias bk adds q.bk to every score of a query's row, and softmax is
    invariant to a per-row shift, so bk has no effect on the output and its
    gradient is zero up to rounding; it is still kept as a parameter."""
    if x.ndim != 3 or x.shape[2] != p.Wq.shape[0]:
        raise ShapeError(f"mha: input {x.shape} does not match projections {p.Wq.shape}")
    if heads * d_k != p.Wq.shape[1]:
        raise ShapeError(f"mha: heads*d_k = {heads * d_k} != projection width {p.Wq.shape[1]}")
    b, t, d_model = x.shape
    lse = np.empty((b, heads, t, 1)) if train else None
    y = np.empty((b, t, d_model))
    for s, _, merged, _, _, v, a in _attention_tiles(p, x, heads, d_k):
        m = s.stop - s.start
        softmax_rows(a, out=a, lse=lse[s] if train else None)
        np.matmul(a, v, out=merged.transpose(0, 2, 1, 3))
        y_s = y[s].reshape(m * t, d_model)
        np.matmul(merged.reshape(m * t, -1), p.Wo, out=y_s)
        y_s += p.bo
    cache = (x, lse, heads, d_k) if train else None
    return y, cache


def mha_self_backward(p: MhaParams, cache, dy: np.ndarray):
    """Gradients of mha_self_forward, one pass over the same _attention_tiles,
    so each tile's scores are bit-identical to the forward's. A = exp(scores
    - lse) and the merged heads O = A V; then dO = dy Wo^T, dV = A^T dO,
    dS = A * (dO V^T - rowsum(dO * O)) / sqrt(d_k), dQ = dS K and
    dK = dS^T Q go into one tile-sized (m, T, 3, h, d_k) buffer, from which
    dW_qkv and the biases accumulate, and dx against [Wq | Wk | Wv]^T is
    written, one GEMM each. Every buffer but dx is one tile."""
    x, lse, heads, d_k = cache
    b, t, d_model = x.shape
    hd = heads * d_k
    w_qkv_t = np.concatenate([p.Wq, p.Wk, p.Wv], axis=1).T
    scale = 1.0 / np.sqrt(d_k)
    n = _tiles(b, t)[1]
    dqkv = np.empty((n, t, 3, heads, d_k))
    do = np.empty((n, t, heads, d_k))
    dscores = np.empty((n, heads, t, t))
    dWo = np.zeros((hd, d_model))
    dw1 = np.zeros((d_model + 1, 3 * hd))
    dx = np.empty((b, t, d_model))
    for s, x1, merged, q, k, v, a in _attention_tiles(p, x, heads, d_k):
        m = s.stop - s.start
        a -= lse[s]
        np.exp(a, out=a)
        np.matmul(a, v, out=merged.transpose(0, 2, 1, 3))
        dy_s = dy[s].reshape(m * t, d_model)
        dWo += merged.reshape(m * t, hd).T @ dy_s
        np.matmul(dy_s, p.Wo.T, out=do[:m].reshape(m * t, hd))
        do_s = do[:m].transpose(0, 2, 1, 3)
        dq, dk, dv = dqkv[:m].transpose(2, 0, 3, 1, 4)
        da = dscores[:m]
        np.matmul(a.transpose(0, 1, 3, 2), do_s, out=dv)
        np.matmul(do_s, v.transpose(0, 1, 3, 2), out=da)
        da -= np.einsum("bthd,bthd->bht", do[:m], merged)[..., None]  # rowsum(dO * O)
        da *= a
        da *= scale
        np.matmul(da, k, out=dq)
        np.matmul(da.transpose(0, 1, 3, 2), q, out=dk)
        dqkv2 = dqkv[:m].reshape(m * t, 3 * hd)
        dw1 += x1.T @ dqkv2                  # the last row is the bias gradient
        np.matmul(dqkv2, w_qkv_t, out=dx[s].reshape(m * t, d_model))
    (dWq, dWk, dWv), (dbq, dbk, dbv) = np.split(dw1[:-1], 3, axis=1), np.split(dw1[-1], 3)
    dbo = dy.reshape(b * t, d_model).sum(axis=0)
    grads = MhaParams(Wq=dWq, bq=dbq, Wk=dWk, bk=dbk, Wv=dWv, bv=dbv, Wo=dWo, bo=dbo)
    return dx, grads
