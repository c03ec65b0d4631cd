"""Flow-record ingestion and preparation: CSV loading with type inference,
cleaning, label/categorical encoding, min-max scaling, sequence reshaping,
stratified splitting, class balancing (random oversampling and SMOTE), and
a synthetic desk-scale dataset generator."""

from __future__ import annotations

import csv
import json
import operator
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .numerics import RngStream


class DataError(Exception):
    """Base class for dataset pipeline failures."""


class MissingLabelError(DataError):
    pass


class RaggedRowError(DataError):
    pass


class EmptyDatasetError(DataError):
    pass


class UnknownClassError(DataError):
    pass


class StratifyError(DataError):
    pass


# ---------------------------------------------------------------------------
# tables and codecs
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class RawTable:
    """A typed, column-wise view of one CSV: feature columns plus the label
    column, each cell parsed once by `load_csv`.

    kinds[i] is 'numeric' when every non-empty cell of column i parses as a
    real number (Python's `float`), else 'categorical'; the label column is
    always categorical. values[i] is a float64 array for a numeric column,
    with 0.0 in its empty cells, and an object array of the cell strings for
    a categorical one. empty[i] marks the empty cells of a numeric column, or
    is None when it has none (and for every categorical column). first_seen
    marks each row that is the first with its exact field strings, so "1" and
    "1.0" rows are different rows."""

    columns: list[str]
    kinds: list[str]
    values: list[np.ndarray]
    empty: list[np.ndarray | None]
    first_seen: np.ndarray
    label_column: str

    @property
    def label_index(self) -> int:
        return self.columns.index(self.label_column)

    @property
    def n_rows(self) -> int:
        return self.first_seen.shape[0]

    def feature_indices(self) -> list[int]:
        li = self.label_index
        return [i for i in range(len(self.columns)) if i != li]

    def subset(self, keep: np.ndarray) -> "RawTable":
        """The rows where the boolean mask `keep` is set, in order."""
        return replace(self, values=[v[keep] for v in self.values],
                       empty=[None if e is None else e[keep] for e in self.empty],
                       first_seen=self.first_seen[keep])


@dataclass(frozen=True)
class LabelCodec:
    """Bijective class-name <-> index map; indices follow lexicographic name order."""

    classes: tuple[str, ...]

    @classmethod
    def fit(cls, names) -> "LabelCodec":
        return cls(classes=tuple(sorted(set(names))))

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def to_index(self, name: str) -> int:
        try:
            return self.classes.index(name)
        except ValueError:
            raise UnknownClassError(f"label {name!r} not in codec classes {self.classes}") from None

    def from_index(self, idx: int) -> str:
        return self.classes[idx]

    def encode(self, names) -> np.ndarray:
        lut = {c: i for i, c in enumerate(self.classes)}
        try:
            return np.array([lut[n] for n in names], dtype=np.int64)
        except KeyError as exc:
            raise UnknownClassError(f"label {exc.args[0]!r} not in codec classes "
                                    f"{self.classes}") from None

    def to_dict(self) -> dict:
        return {"classes": list(self.classes)}

    @classmethod
    def from_dict(cls, d: dict) -> "LabelCodec":
        return cls(classes=tuple(d["classes"]))


@dataclass(frozen=True)
class ScalerParams:
    """Per-feature min/max fitted on the training split only."""

    mins: np.ndarray
    maxs: np.ndarray

    def to_dict(self) -> dict:
        return {"mins": self.mins.tolist(), "maxs": self.maxs.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "ScalerParams":
        return cls(mins=np.asarray(d["mins"], dtype=np.float64),
                   maxs=np.asarray(d["maxs"], dtype=np.float64))


@dataclass
class Dataset:
    """Model-ready samples: X (n, T, 1) float64, y (n,) int64, label codec."""

    X: np.ndarray
    y: np.ndarray
    codec: LabelCodec

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def seq_len(self) -> int:
        return self.X.shape[1]

    @property
    def n_classes(self) -> int:
        return self.codec.n_classes

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.y, minlength=self.n_classes)

    def features(self) -> np.ndarray:
        """Flattened (n, T) feature view of the sequence tensor."""
        return self.X.reshape(self.X.shape[0], -1)

    def subset(self, idx) -> "Dataset":
        return Dataset(X=self.X[idx], y=self.y[idx], codec=self.codec)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def _parse_column(cells: tuple[str, ...]):
    """One column's cells -> (float64 values with 0.0 where empty, empty mask
    or None), or None as soon as a non-empty cell is not a real number.
    numpy converts each str with Python's `float`, so "1_0", " 2 ", "nan"
    and "1e400" parse exactly as `float` parses them."""
    try:
        if "" not in cells:
            return np.array(cells, dtype=np.float64), None
        return (np.array([c or "0" for c in cells], dtype=np.float64),
                np.fromiter(map(operator.not_, cells), dtype=bool, count=len(cells)))
    except ValueError:
        return None


def load_csv(path, label_column: str = "Label") -> RawTable:
    """Read a header-first CSV into a column-wise typed table, parsing each
    cell once. A column is numeric when every non-empty cell parses as a real
    (an all-empty column too), else categorical; the label column is always
    categorical. Also records which rows are the first with their exact field
    strings, for `clean`. The file is UTF-8, with or without a byte-order
    mark. Raises RaggedRowError naming the first row whose field count differs
    from the header's, and DataError for a header that names a column twice."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                columns = next(reader)
            except StopIteration:
                raise DataError(f"{path}: file is empty, expected a header row") from None
            if len(set(columns)) < len(columns):
                twice = next(c for i, c in enumerate(columns) if c in columns[:i])
                raise DataError(f"{path}: header names column {twice!r} more than once")
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(columns):
                    raise RaggedRowError(f"{path}:{lineno}: expected {len(columns)} fields, "
                                         f"got {len(row)}")
                rows.append(tuple(row))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: file is not UTF-8: cannot decode byte "
                        f"0x{exc.object[exc.start]:02x}") from exc
    if label_column not in columns:
        raise MissingLabelError(f"{path}: label column {label_column!r} not found in "
                                f"header {columns}")
    n = len(rows)
    # Later rows are inserted first, so each row ends up with its first index.
    first_index = dict(zip(reversed(rows), range(n - 1, -1, -1)))
    first_seen = np.zeros(n, dtype=bool)
    first_seen[np.fromiter(first_index.values(), dtype=np.intp, count=len(first_index))] = True
    # free the row tuples (held by rows and the dict) before parsing columns
    del first_index
    cells_by_column = list(zip(*rows)) if n else [()] * len(columns)
    del rows
    li = columns.index(label_column)
    kinds, values, empty = [], [], []
    for j, cells in enumerate(cells_by_column):
        parsed = None if j == li else _parse_column(cells)
        if parsed is None:
            kinds.append("categorical")
            values.append(np.array(cells, dtype=object))
            empty.append(None)
        else:
            kinds.append("numeric")
            values.append(parsed[0])
            empty.append(parsed[1])
    return RawTable(columns=columns, kinds=kinds, values=values, empty=empty,
                    first_seen=first_seen, label_column=label_column)


def clean(t: RawTable) -> tuple[RawTable, dict]:
    """Drop invalid rows (an empty label, or an empty or non-finite numeric
    feature cell), then every valid row that is not the first with its exact
    field strings. Returns the cleaned table plus drop counts. Raises
    EmptyDatasetError with both counts when nothing is left, naming any
    column that is invalid in every row."""
    li = t.label_index
    numeric_idx = [j for j in t.feature_indices() if t.kinds[j] == "numeric"]

    def invalid(j):
        if j == li:
            return t.values[j] == ""
        bad = ~np.isfinite(t.values[j])
        return bad if t.empty[j] is None else bad | t.empty[j]

    bad = np.zeros(t.n_rows, dtype=bool)
    for j in [li] + numeric_idx:
        bad |= invalid(j)
    # identical rows are valid or invalid together, so a valid row's first
    # occurrence in the table is also its first among the valid rows
    keep = t.first_seen & ~bad
    n_bad = int(bad.sum())
    drops = {"dropped_invalid": n_bad, "dropped_duplicate": t.n_rows - n_bad - int(keep.sum())}
    if not keep.any():
        causes = [f"column {t.columns[j]!r} is {'empty' if j == li else 'empty or non-finite'} "
                  "in every row" for j in [li] + numeric_idx if t.n_rows and invalid(j).all()]
        raise EmptyDatasetError("; ".join([f"cleaning removed every row: {n_bad} invalid, "
                                           f"{drops['dropped_duplicate']} duplicate"] + causes))
    return t.subset(keep), drops


def encode(t: RawTable, codec: LabelCodec | None = None):
    """Map the table to numbers: numeric columns are copied (an empty cell is
    0.0), categorical feature columns become integer codes in lexicographic
    value order, labels go through the (fitted or given) codec.
    Returns (features (n, T), labels (n,), codec)."""
    li = t.label_index
    feat_idx = t.feature_indices()
    n = t.n_rows
    features = np.empty((n, len(feat_idx)), dtype=np.float64)
    for out_j, j in enumerate(feat_idx):
        col = t.values[j]
        if t.kinds[j] == "numeric":
            features[:, out_j] = col
        else:
            order = {v: k for k, v in enumerate(sorted(set(col)))}
            features[:, out_j] = np.fromiter(map(order.__getitem__, col),
                                             dtype=np.float64, count=n)
    labels_raw = t.values[li]
    if codec is None:
        codec = LabelCodec.fit(labels_raw)
    labels = codec.encode(labels_raw)
    return features, labels, codec


# ---------------------------------------------------------------------------
# scaling / reshaping / encoding helpers
# ---------------------------------------------------------------------------

def fit_scaler(train_features: np.ndarray) -> ScalerParams:
    f = np.asarray(train_features, dtype=np.float64)
    return ScalerParams(mins=f.min(axis=0), maxs=f.max(axis=0))


def apply_scaler(p: ScalerParams, features: np.ndarray) -> np.ndarray:
    """Min-max map to [0, 1]; constant features go to 0, out-of-range
    test-time values are clamped."""
    f = np.asarray(features, dtype=np.float64)
    span = p.maxs - p.mins
    safe = np.where(span > 0, span, 1.0)
    scaled = (f - p.mins) / safe
    scaled = np.where(span > 0, scaled, 0.0)
    return np.clip(scaled, 0.0, 1.0)


def to_sequences(features: np.ndarray) -> np.ndarray:
    """(n, T) -> (n, T, 1): the feature axis becomes the time axis."""
    f = np.asarray(features, dtype=np.float64)
    return f.reshape(f.shape[0], f.shape[1], 1)


def one_hot(labels: np.ndarray, c: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise DataError(f"one_hot: labels outside [0, {c})")
    out = np.zeros((labels.shape[0], c))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


# ---------------------------------------------------------------------------
# splitting and balancing
# ---------------------------------------------------------------------------

def stratified_split(ds: Dataset, train_frac: float, rng: RngStream):
    """Per-class split preserving proportions within one sample; shuffled
    within class by the rng. Returns (train, test)."""
    if not 0.0 < train_frac < 1.0:
        raise StratifyError(f"train_frac must be in (0, 1), got {train_frac}")
    train_idx = []
    test_idx = []
    for k in range(ds.n_classes):
        members = np.flatnonzero(ds.y == k)
        if members.size < 2:
            raise StratifyError(f"class {ds.codec.from_index(k)!r} has {members.size} "
                                "sample(s); need at least 2 to stratify")
        perm = members[rng.permutation(members.size)]
        n_train = int(round(train_frac * members.size))
        n_train = min(max(n_train, 1), members.size - 1)  # both splits keep every class
        train_idx.append(perm[:n_train])
        test_idx.append(perm[n_train:])
    train_idx = np.concatenate(train_idx)
    test_idx = np.concatenate(test_idx)
    return ds.subset(train_idx), ds.subset(test_idx)


def ros_balance(ds: Dataset, rng: RngStream) -> Dataset:
    """Random oversampling: duplicate minority rows (with replacement) until
    every class matches the majority count."""
    counts = ds.class_counts()
    if (counts == 0).any():
        missing = ds.codec.from_index(int(np.argmin(counts)))
        raise DataError(f"ros_balance: class {missing!r} has no samples")
    target = counts.max()
    extra = []
    for k in range(ds.n_classes):
        need = int(target - counts[k])
        if need <= 0:
            continue
        members = np.flatnonzero(ds.y == k)
        picks = members[rng.integers(0, members.size, size=need)]
        extra.append(picks)
    if not extra:
        return ds
    idx = np.concatenate([np.arange(len(ds))] + extra)
    return ds.subset(idx)


# Cells of float64 that one block of _nearest_neighbours holds at once. The
# rows of a block are set by the larger of its (rows, m) GEMM distances and
# its (rows, candidates, T) exact recheck, and those of the exact path by its
# (rows, m, T) differences. A GEMM block may hold m*T cells, one row of
# exact differences, when that is more, so a large class spreads each GEMM
# over enough rows; memory grows with m*T, never with m^2*T. On the
# benchmark's minority classes (m = 46-285, T = 83, k = 5) the recheck is
# the larger array, and 512 kB keeps a block in cache. In a sweep of
# 2^12-2^19 cells there, larger blocks were at most about 1.3x faster, and
# 2^18 cells (2 MB) added about 0.7 MB to ingest_csv's peak RSS.
_NEIGHBOUR_BLOCK_CELLS = 1 << 16


def _exact_neighbours(pts: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """Indices (len(rows), k) of the k nearest other rows of pts to each of
    pts[rows], from every exact squared distance ((a - b)^2).sum() and a
    stable argsort, so ties go to the lower index."""
    m, t = pts.shape
    step = max(1, _NEIGHBOUR_BLOCK_CELLS // (m * t))
    neigh = np.empty((rows.size, k), dtype=np.intp)
    for s in range(0, rows.size, step):
        r = rows[s:s + step]
        diff = pts[r, None, :] - pts[None, :, :]  # (len(r), m, T)
        d2 = np.square(diff, out=diff).sum(axis=2)
        d2[np.arange(r.size), r] = np.inf
        neigh[s:s + step] = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return neigh


def _nearest_neighbours(pts: np.ndarray, k: int) -> np.ndarray:
    """Indices (m, k) of each row's k nearest other rows of pts (m, T),
    identical to `_exact_neighbours` over every row: by the exact squared
    distance ((a - b)^2).sum() and a stable argsort, so ties go to the lower
    index. Computed for blocks of rows at a time, in three steps:

    1. GEMM distances ||a||^2 + ||b||^2 - 2 a.b pick each row's c = 2k
       nearest candidates (or all m - 1 others) with one argpartition.
    2. The exact distance to each candidate is recomputed by the same
       contiguous reduction over T, so it is bit-identical.
    3. A stable sort of the candidates, in index order, picks the k nearest.

    A GEMM distance is within half of bound = 4 (T + 2) (eps (||a||^2 +
    max ||b||^2) + tiny) of the exact one, so the candidates hold every
    true neighbour when no other row's GEMM distance is within `bound` of
    the k-th candidate's. A row for which that is not proved, as with many
    tied rows, takes the exact path; so does every row when a squared norm
    is not finite or is near overflow."""
    m, t = pts.shape
    with np.errstate(over="ignore"):  # an overflowing norm takes the exact path
        sq = np.square(pts).sum(axis=1)
    top, fi = sq.max(), np.finfo(np.float64)
    if not top < fi.max / 16:
        return _exact_neighbours(pts, np.arange(m), k)
    c = min(m - 1, 2 * k)
    bound = 4 * (t + 2) * (fi.eps * (sq + top) + fi.tiny)
    rows = max(1, max(_NEIGHBOUR_BLOCK_CELLS, m * t) // max(m, c * t))
    neigh = np.empty((m, k), dtype=np.intp)
    for s in range(0, m, rows):
        e = min(s + rows, m)
        i = np.arange(e - s)
        d = pts[s:e] @ pts.T                          # (e - s, m)
        d *= -2.0
        d += sq[s:e, None]
        d += sq
        d[i, s + i] = np.inf
        # place c holds the nearest row left out, or the row itself when c = m - 1
        part = np.argpartition(d, c, axis=1)
        cand = np.sort(part[:, :c], axis=1)
        kth = np.partition(d[i[:, None], cand], k - 1, axis=1)[:, k - 1]
        proved = d[i, part[:, c]] > kth + bound[s:e]
        diff = pts[cand]                              # (e - s, c, T)
        np.subtract(pts[s:e, None, :], diff, out=diff)
        d2 = np.square(diff, out=diff).sum(axis=2)
        order = np.argsort(d2, axis=1, kind="stable")[:, :k]
        neigh[s:e] = np.take_along_axis(cand, order, axis=1)
        redo = s + np.flatnonzero(~proved)
        if redo.size:
            neigh[redo] = _exact_neighbours(pts, redo, k)
    return neigh


def smote_balance(ds: Dataset, rng: RngStream, k: int = 5) -> Dataset:
    """SMOTE (Chawla et al. 2002): upsample each minority class by
    interpolating between a member and one of its k nearest same-class
    neighbors (Euclidean on the flattened features, ties to the earlier
    member), x + lambda*(z - x), lambda ~ U[0, 1). Neighbours are found in
    row blocks, so memory grows with the class size, not with its square:
    candidates by GEMM distances, ranked by their exact distances, so they
    are those of the exact all-pairs search. Classes of size 1 fall back to
    duplication with a warning."""
    if k < 1:
        raise DataError(f"smote_balance: k must be >= 1, got {k}")
    counts = ds.class_counts()
    if (counts == 0).any():
        missing = ds.codec.from_index(int(np.argmin(counts)))
        raise DataError(f"smote_balance: class {missing!r} has no samples")
    target = counts.max()
    feats = ds.features()
    new_X = [ds.X]
    new_y = [ds.y]
    for cls in range(ds.n_classes):
        need = int(target - counts[cls])
        if need <= 0:
            continue
        members = np.flatnonzero(ds.y == cls)
        if members.size == 1:
            warnings.warn(f"smote_balance: class {ds.codec.from_index(cls)!r} has a single "
                          "sample; duplicating instead of interpolating", stacklevel=2)
            picks = np.repeat(members, need)
            new_X.append(ds.X[picks])
            new_y.append(ds.y[picks])
            continue
        pts = feats[members]                       # (m, T)
        k_eff = min(k, members.size - 1)
        neigh = _nearest_neighbours(pts, k_eff)    # (m, k_eff)
        base = rng.integers(0, members.size, size=need)
        pick = rng.integers(0, k_eff, size=need)
        lam = rng.uniform(size=(need, 1))
        x0 = pts[base]
        x1 = pts[neigh[base, pick]]
        synth = x0 + lam * (x1 - x0)
        new_X.append(to_sequences(synth))
        new_y.append(np.full(need, cls, dtype=np.int64))
    return Dataset(X=np.concatenate(new_X), y=np.concatenate(new_y), codec=ds.codec)


# ---------------------------------------------------------------------------
# synthetic desk-scale data
# ---------------------------------------------------------------------------

def synth_generate(c: int, n_per_class: int, seq_len: int, separation: float,
                   rng: RngStream, imbalance: list[float] | None = None) -> Dataset:
    """Class-conditional Gaussians around well-separated prototypes.

    Prototype directions are orthonormal (scaled by `separation`, in noise
    standard deviations) so separation=0 is chance level and separation >= 5
    is near-perfectly separable. Classes are 'normal' plus attack_01..; the
    `imbalance` fractions follow generation order (normal first, then attacks).
    """
    if c < 2 or seq_len < 4:
        raise DataError("synth_generate: need c >= 2 and seq_len >= 4")
    if imbalance is not None and len(imbalance) != c:
        raise DataError(f"synth_generate: imbalance must list {c} fractions")
    names = ["normal"] + [f"attack_{i:02d}" for i in range(1, c)]
    codec = LabelCodec.fit(names)

    if c <= seq_len:
        basis, _ = np.linalg.qr(rng.normal(size=(seq_len, c)))
        prototypes = separation * basis.T          # (c, T), orthonormal rows
    else:
        raw = rng.normal(size=(c, seq_len))
        prototypes = separation * raw / np.linalg.norm(raw, axis=1, keepdims=True)

    xs = []
    ys = []
    for cls_pos, name in enumerate(names):
        frac = 1.0 if imbalance is None else float(imbalance[cls_pos])
        n_k = max(2, int(round(n_per_class * frac)))
        pts = prototypes[cls_pos] + rng.normal(size=(n_k, seq_len))
        xs.append(pts)
        ys.extend([name] * n_k)
    features = np.concatenate(xs)
    labels = codec.encode(ys)
    return Dataset(X=to_sequences(features), y=labels, codec=codec)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_dataset_csv(ds: Dataset, csv_path, sidecar_path=None) -> None:
    """Write features as f0..f{T-1} plus a Label column; the JSON sidecar
    carries the codec."""
    feats = ds.features()
    t = feats.shape[1]
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(t)] + ["Label"])
        for i in range(len(ds)):
            writer.writerow([repr(float(v)) for v in feats[i]]
                            + [ds.codec.from_index(int(ds.y[i]))])
    if sidecar_path is not None:
        with open(sidecar_path, "w", encoding="utf-8") as fh:
            json.dump({"codec": ds.codec.to_dict()}, fh, indent=2)
