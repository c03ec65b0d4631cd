"""Shared test helpers: the finite-difference gradient oracle, the exact
Shapley oracle, tiny model configs, gradient-check plumbing and traced
memory peaks."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np

from bigatid.explain import _as_2d
from bigatid.model import BlockSpec, VariantSpec, backward, build, forward
from bigatid.numerics import RngStream, as_f64

GRAD_TOL = 1e-4
DEFAULT_FD_STEP = 1e-5
EXACT_FEATURE_CAP = 12


class NumericError(ArithmeticError):
    """Raised when a computation produces non-finite values."""


def finite_diff_grad(f, x: np.ndarray, h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central-difference gradient of a scalar function: (f(x+h*e_i)-f(x-h*e_i))/2h.

    This is the independent oracle every analytic backward pass is checked
    against; it never shares code with the layers it validates.
    """
    if h <= 0:
        raise ValueError("finite_diff_grad: h must be positive")
    x = as_f64(x).copy()
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(x))
        flat[i] = orig - h
        fm = float(f(x))
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(f"finite_diff_grad: non-finite evaluation at coordinate {i}")
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def grad_mismatch(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max absolute deviation relative to the larger gradient magnitude.

    The unit floor keeps the measure absolute for (near-)zero gradients,
    where central-difference noise would otherwise dominate the ratio.
    """
    analytic = as_f64(analytic)
    numeric = as_f64(numeric)
    scale = max(float(np.abs(analytic).max(initial=0.0)),
                float(np.abs(numeric).max(initial=0.0)), 1.0)
    return float(np.abs(analytic - numeric).max(initial=0.0)) / scale


def tiny_bigat_spec(dropout: float = 0.0) -> VariantSpec:
    """Desk-size dual-branch config: T=6, units 4/4, 2 heads, key dim 3, c=3."""
    return VariantSpec(
        seq_len=6,
        n_classes=3,
        branches=(
            (BlockSpec("bigru", units=4), BlockSpec("layer_norm"),
             BlockSpec("mha", heads=2, key_dim=3), BlockSpec("dropout", rate=dropout)),
            (BlockSpec("lstm", units=4), BlockSpec("dropout", rate=dropout)),
        ),
        head=(8, 4),
    )


def shrink_variant(spec: VariantSpec) -> VariantSpec:
    """Map a production-size variant to a finite-difference-friendly size,
    preserving its block structure exactly. Dropout rates go to 0 so the
    train-mode forward is deterministic under the difference oracle."""
    units_map = {64: 4, 32: 3, 128: 5, 256: 6}

    def shrink_block(b: BlockSpec) -> BlockSpec:
        if b.kind in ("bigru", "lstm", "lstm_seq", "proj"):
            return dataclasses.replace(b, units=units_map.get(b.units, 4))
        if b.kind == "mha":
            return dataclasses.replace(b, heads=2, key_dim=3)
        if b.kind == "dropout":
            return dataclasses.replace(b, rate=0.0)
        return b

    return VariantSpec(
        seq_len=5,
        n_classes=3,
        branches=tuple(tuple(shrink_block(b) for b in br) for br in spec.branches),
        head=(6, 4),
    )


def check_layer_grads(p, forward_fn, backward_fn, x, rng, fields=None, tol=GRAD_TOL):
    """Finite-difference check of one layer: input gradient plus every
    parameter field. forward_fn(p, x) -> (y, cache); backward_fn(p, cache, dy)
    -> (dx, grads). Returns the worst mismatch."""
    y, cache = forward_fn(p, x)
    dy = rng.normal(size=y.shape)
    dx, grads = backward_fn(p, cache, dy)

    def scalar_for(pp, xx):
        out, _ = forward_fn(pp, xx)
        return float((out * dy).sum())

    worst = grad_mismatch(dx, finite_diff_grad(lambda v: scalar_for(p, v), x))
    for fld in (fields or [f.name for f in dataclasses.fields(p)]):
        def f(t, fld=fld):
            return scalar_for(dataclasses.replace(p, **{fld.split(".")[-1]: t}), x)
        worst = max(worst, grad_mismatch(
            getattr(grads, fld), finite_diff_grad(f, getattr(p, fld))))
    assert worst < tol, f"gradient mismatch {worst:.3e} >= {tol}"
    return worst


def check_model_grads(spec: VariantSpec, seed: int, tol=GRAD_TOL, batch: int = 2):
    """Finite-difference check of the full model: d(sum(dy * probs))/dparams
    for every parameter tensor and the input."""
    rng = RngStream(seed)
    params = build(spec, rng.spawn(0))
    x = rng.normal(size=(batch, spec.seq_len, 1))
    probs, caches = forward(params, spec, x, mode="train", rng=rng.spawn(1))
    dy = rng.normal(size=probs.shape)
    grads = backward(params, spec, caches, dy)

    worst = 0.0
    for name in params:
        def f(t, name=name):
            saved = params[name]
            params[name] = t
            out, _ = forward(params, spec, x, mode="train", rng=None)
            params[name] = saved
            return float((out * dy).sum())
        fd = finite_diff_grad(f, params[name])
        err = grad_mismatch(grads[name], fd)
        assert err < tol, f"{name}: gradient mismatch {err:.3e} >= {tol}"
        worst = max(worst, err)
    return worst


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees allocated while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def shapley_exact_small(f, x: np.ndarray, background_mean: np.ndarray) -> np.ndarray:
    """Exact Shapley values by enumerating all 2^m coalitions (m <= 12).

    f maps a (k, m) batch of feature rows to (k,) or (k, p) outputs; absent
    features take the background mean. Returns (m,) or (m, p) values.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    bg = np.asarray(background_mean, dtype=np.float64).reshape(-1)
    m = x.size
    if m > EXACT_FEATURE_CAP:
        raise ValueError(f"shapley_exact_small: {m} features exceeds the "
                         f"2^{EXACT_FEATURE_CAP} enumeration cap")
    masks = np.arange(2 ** m, dtype=np.int64)
    present = (masks[:, None] >> np.arange(m)) & 1       # (2^m, m)
    rows = np.where(present.astype(bool), x, bg)
    vals = _as_2d(f(rows))                               # (2^m, p)
    sizes = present.sum(axis=1)
    fact = [math.factorial(i) for i in range(m + 1)]
    weight_by_size = np.array([fact[s] * fact[m - 1 - s] / fact[m] for s in range(m)])

    out = np.zeros((m, vals.shape[1]))
    for i in range(m):
        without = masks[(masks >> i) & 1 == 0]
        w = weight_by_size[sizes[without]]
        diff = vals[without + (1 << i)] - vals[without]
        out[i] = (w[:, None] * diff).sum(axis=0)
    return out[:, 0] if out.shape[1] == 1 else out
