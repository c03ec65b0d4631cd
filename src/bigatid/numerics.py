"""Float64 primitives shared by the layers and the tests: the shape and
numeric error types, float64 coercion, an overflow-safe sigmoid, a row
softmax, a deterministic seeded RNG stream, and the central
finite-difference gradient oracle used to validate every backward pass."""

from __future__ import annotations

import numpy as np

DEFAULT_FD_STEP = 1e-5


class ShapeError(ValueError):
    """Raised when tensor shapes do not satisfy an operation's contract."""


class NumericError(ArithmeticError):
    """Raised when a computation produces non-finite values."""


def as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function in the form 0.5 * (1 + tanh(x / 2)), which cannot
    overflow for any finite x. Pass `out` (which may be `x` itself) to write
    the result there instead of into a new array.

    Its absolute deviation from 1/(1 + exp(-x)) is at most about 2.2e-16, one
    ulp of 1. Below about x = -38 the result is exactly 0, so relative
    accuracy is lost in that tail.
    """
    out = np.multiply(as_f64(x), 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def softmax_rows(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Last-axis softmax with max subtraction; each row sums to 1. Pass `out`
    (which may be `x` itself) to write the result there."""
    x = as_f64(x)
    out = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


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


class RngStream:
    """Deterministic random stream (PCG64): equal seeds yield equal draws
    across runs and platforms. One stream per logical task, never shared."""

    def __init__(self, seed: int, _key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._key = tuple(int(k) for k in _key)
        seq = np.random.SeedSequence(self.seed, spawn_key=self._key)
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def spawn(self, *key: int) -> "RngStream":
        """Derive an independent child stream with a stable integer key path."""
        return RngStream(self.seed, self._key + tuple(int(k) for k in key))

    def uniform(self, size=None, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._gen.uniform(low, high, size=size)

    def normal(self, size=None) -> np.ndarray:
        return self._gen.standard_normal(size=size)

    def integers(self, low: int, high: int, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, key={self._key})"
