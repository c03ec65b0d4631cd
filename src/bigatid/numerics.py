"""Primitives shared by the layers: the shape error type, an overflow-safe
sigmoid and a row softmax, which compute in their input's dtype, a
deterministic seeded RNG stream, and `as_f64`, the float64 cast with which
`model.forward` and `backward` take their arrays in. The finite-difference
gradient oracle that checks every backward pass lives with the tests, in
tests/conftest.py."""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Raised when tensor shapes do not satisfy an operation's contract."""


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
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def softmax_rows(x: np.ndarray, out: np.ndarray | None = None,
                 lse: np.ndarray | None = None) -> np.ndarray:
    """Last-axis softmax with max subtraction; each row sums to 1. Pass `out`
    (which may be `x` itself) to write the result there, and `lse` (shape
    `x.shape[:-1] + (1,)`) to receive each row's log-sum-exp, from which
    `exp(x - lse)` gives the softmax again."""
    top = x.max(axis=-1, keepdims=True)
    out = np.subtract(x, top, out=out)
    np.exp(out, out=out)
    total = out.sum(axis=-1, keepdims=True)
    out /= total
    if lse is not None:
        np.add(np.log(total), top, out=lse)
    return out


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
