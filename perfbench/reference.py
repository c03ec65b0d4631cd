"""A plain-numpy forward pass of the canonical network, written from the model
description and sharing no code with the library:

    (BiGRU64 -> LayerNorm -> MHA(8 heads, key dim 64) -> Dropout)
    || (LSTM32 -> Dropout) -> concat -> Dense64 relu -> Dense32 relu
    -> Dense(n_classes) softmax

Eval mode, so dropout is the identity. GRU: reset-after, gates z, r, h along
the 3n axis, separate input and recurrent biases. LSTM: gates i, f, g, o.
Parameters are read by their checkpoint names.
"""

from __future__ import annotations

import numpy as np

LN_EPS = 1e-3
HEADS = 8
KEY_DIM = 64


def _sigmoid(a):
    return 1.0 / (1.0 + np.exp(-a))


def _gru(p, prefix, x, reverse):
    w_in, w_rec = p[prefix + ".W_in"], p[prefix + ".W_rec"]
    b_in, b_rec = p[prefix + ".b_in"], p[prefix + ".b_rec"]
    n = w_rec.shape[0]
    b, t, _ = x.shape
    h = np.zeros((b, n))
    out = np.zeros((b, t, n))
    steps = range(t - 1, -1, -1) if reverse else range(t)
    for s in steps:
        gi = x[:, s] @ w_in + b_in
        gr = h @ w_rec + b_rec
        z = _sigmoid(gi[:, :n] + gr[:, :n])
        r = _sigmoid(gi[:, n:2 * n] + gr[:, n:2 * n])
        cand = np.tanh(gi[:, 2 * n:] + r * gr[:, 2 * n:])
        h = z * cand + (1.0 - z) * h
        out[:, s] = h
    return out


def _lstm_last(p, prefix, x):
    w_in, w_rec, bias = p[prefix + ".W_in"], p[prefix + ".W_rec"], p[prefix + ".b"]
    n = w_rec.shape[0]
    h = np.zeros((x.shape[0], n))
    c = np.zeros_like(h)
    for s in range(x.shape[1]):
        a = x[:, s] @ w_in + h @ w_rec + bias
        i, f = _sigmoid(a[:, :n]), _sigmoid(a[:, n:2 * n])
        g, o = np.tanh(a[:, 2 * n:3 * n]), _sigmoid(a[:, 3 * n:])
        c = f * c + i * g
        h = o * np.tanh(c)
    return h


def _attention(p, prefix, x):
    b, t, _ = x.shape
    out = np.zeros((b, t, HEADS * KEY_DIM))
    q = x @ p[prefix + ".Wq"] + p[prefix + ".bq"]
    k = x @ p[prefix + ".Wk"] + p[prefix + ".bk"]
    v = x @ p[prefix + ".Wv"] + p[prefix + ".bv"]
    for head in range(HEADS):
        cols = slice(head * KEY_DIM, (head + 1) * KEY_DIM)
        scores = np.einsum("btd,bsd->bts", q[..., cols], k[..., cols]) / np.sqrt(KEY_DIM)
        scores = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights = scores / scores.sum(axis=-1, keepdims=True)
        out[..., cols] = np.einsum("bts,bsd->btd", weights, v[..., cols])
    return out @ p[prefix + ".Wo"] + p[prefix + ".bo"]


def forward(p: dict, x: np.ndarray) -> np.ndarray:
    """Class probabilities (b, n_classes) of the canonical network for x (b, T, 1)."""
    x = np.asarray(x, dtype=np.float64)
    seq = np.concatenate([_gru(p, "branch1.0_bigru.fwd", x, reverse=False),
                          _gru(p, "branch1.0_bigru.bwd", x, reverse=True)], axis=-1)
    mu = seq.mean(axis=-1, keepdims=True)
    var = ((seq - mu) ** 2).mean(axis=-1, keepdims=True)
    seq = (seq - mu) / np.sqrt(var + LN_EPS) * p["branch1.1_layer_norm.gamma"] \
        + p["branch1.1_layer_norm.beta"]
    seq = _attention(p, "branch1.2_mha", seq)
    h = np.concatenate([seq.reshape(x.shape[0], -1), _lstm_last(p, "branch2.0_lstm", x)],
                       axis=1)
    h = np.maximum(h @ p["head.0_dense.W"] + p["head.0_dense.b"], 0.0)
    h = np.maximum(h @ p["head.1_dense.W"] + p["head.1_dense.b"], 0.0)
    logits = h @ p["head.2_dense.W"] + p["head.2_dense.b"]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)
