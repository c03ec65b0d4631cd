"""Shapley-value feature attribution: an unbiased Monte Carlo permutation
estimator and per-class mean-|value| summaries over an evaluation sample.
The exact coalition-enumeration oracle it is tested against lives with the
tests.

Absent features are replaced by the background feature means (a single
reference baseline): cheap, deterministic, and sufficient for ranking-level
claims, at the cost of ignoring feature dependence.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .data import Dataset, to_sequences
from .model import VariantSpec
from .numerics import RngStream
from .training import batched_probs

BATCH_ROWS = 2048  # coalition rows per call of the value function f


@dataclass
class ShapleySettings:
    n_instances: int = 200
    n_permutations: int = 2000
    batch_size: int = BATCH_ROWS

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
                    or value < 1):
                raise ValueError(f"{f.name} must be an integer >= 1, got {value!r}")


@dataclass
class Attribution:
    """Mean absolute Shapley value per (feature, class) over a sample."""

    values: np.ndarray           # (n_features, n_classes), all >= 0
    feature_names: list[str]
    class_names: list[str]
    n_instances: int
    n_permutations: int

    def ranking(self, class_index: int | None = None) -> np.ndarray:
        """Feature indices sorted by importance, strongest first; overall
        importance (mean across classes) when class_index is None."""
        score = self.values.mean(axis=1) if class_index is None else self.values[:, class_index]
        return np.argsort(-score, kind="stable")


def _as_2d(vals: np.ndarray) -> np.ndarray:
    vals = np.asarray(vals, dtype=np.float64)
    return vals[:, None] if vals.ndim == 1 else vals


def shapley_permutation(f, x: np.ndarray, background_mean: np.ndarray,
                        n_permutations: int, rng: RngStream,
                        batch_size: int = BATCH_ROWS) -> np.ndarray:
    """Monte Carlo permutation estimator, unbiased for the exact values under
    the background-mean replacement scheme.

    Each sampled feature ordering contributes the marginal f(coalition + i)
    - f(coalition) for every feature. The walks share coalitions: each starts
    at the background row and ends at x, and short and long coalitions
    repeat. So f sees each distinct coalition of the sample once, at most
    `batch_size` rows per call, and the cost is the number of distinct
    coalitions, at most n_permutations * (m + 1). The marginals are reduced
    in a fixed order. Working memory is linear in n_permutations * (m + 1):
    per walk step a packed coalition key, its index among the distinct
    coalitions and, per distinct coalition, the p outputs of f; no float row
    array over all walks is built. Returns (m,) or (m, p) values.
    """
    if n_permutations < 1 or batch_size < 1:
        raise ValueError("shapley_permutation: n_permutations and batch_size must be >= 1")
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    bg = np.asarray(background_mean, dtype=np.float64).reshape(-1)
    m = x.size
    perms = np.stack([rng.permutation(m) for _ in range(n_permutations)])  # (P, m)
    walks = max(1, batch_size // (m + 1))                                  # walks per chunk
    chunks = [slice(s, s + walks) for s in range(0, n_permutations, walks)]
    keys = np.concatenate([_walk_keys(perms[c]) for c in chunks])
    coalitions, inverse = np.unique(keys, axis=0, return_inverse=True)
    inverse = inverse.reshape(n_permutations, m + 1)
    outs = []
    for start in range(0, len(coalitions), batch_size):
        present = np.unpackbits(coalitions[start:start + batch_size], axis=1, count=m)
        outs.append(_as_2d(f(np.where(present.astype(bool), x, bg))))
    vals = np.concatenate(outs)                                            # (distinct, out)
    totals = np.zeros((m, vals.shape[1]))
    for c in chunks:
        walk_vals = vals[inverse[c]]                                       # (p, m+1, out)
        diffs = walk_vals[:, 1:] - walk_vals[:, :-1]                       # (p, m, out)
        np.add.at(totals, perms[c].reshape(-1), diffs.reshape(-1, vals.shape[1]))
    totals /= n_permutations
    return totals[:, 0] if totals.shape[1] == 1 else totals


def _walk_keys(perms: np.ndarray) -> np.ndarray:
    """Packed membership rows, (p * (m + 1), ceil(m / 8)) uint8, of every
    step of the walks along perms (p, m); step j holds its first j features."""
    p, m = perms.shape
    ranks = np.argsort(perms, axis=1)                                      # rank of feature i
    grown = ranks[:, None, :] < np.arange(m + 1)[None, :, None]            # (p, m+1, m)
    return np.packbits(grown, axis=2).reshape(p * (m + 1), (m + 7) // 8)


def model_value_fn(params: dict, spec: VariantSpec):
    """Wrap the model as a batched feature-row function: (k, T) -> (k, c)
    eval-mode class probabilities, through `batched_probs` in forwards of
    at most its EVAL_BATCH rows."""
    def f(rows: np.ndarray) -> np.ndarray:
        return batched_probs(params, spec, to_sequences(rows))
    return f


def background_mean_of(background) -> np.ndarray:
    if isinstance(background, Dataset):
        feats = background.features()
    else:
        feats = np.asarray(background, dtype=np.float64)
    if feats.size == 0:
        raise ValueError("shapley: background sample is empty")
    return feats.mean(axis=0)


def attribution_summary(params: dict, spec: VariantSpec, eval_sample: Dataset,
                        settings: ShapleySettings, rng: RngStream,
                        background: Dataset | None = None) -> Attribution:
    """Mean |Shapley| per (feature, class) over an evaluation sample; all
    class outputs share each permutation walk, so one pass covers every
    class column of the summary."""
    if len(eval_sample) == 0:
        raise ValueError("attribution_summary: evaluation sample is empty")
    bg = background_mean_of(background if background is not None else eval_sample)
    f = model_value_fn(params, spec)
    n = min(settings.n_instances, len(eval_sample))
    pick = rng.permutation(len(eval_sample))[:n]
    feats = eval_sample.features()
    acc = np.zeros((eval_sample.seq_len, eval_sample.n_classes))
    for row in pick:
        values = shapley_permutation(f, feats[row], bg, settings.n_permutations,
                                     rng, batch_size=settings.batch_size)
        acc += np.abs(values)
    acc /= n
    return Attribution(
        values=acc,
        feature_names=[f"f{j}" for j in range(eval_sample.seq_len)],
        class_names=list(eval_sample.codec.classes),
        n_instances=int(n),
        n_permutations=settings.n_permutations,
    )
