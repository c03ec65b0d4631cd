import csv
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import traced_peak
from bigatid import data as D
from bigatid.numerics import RngStream


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def column(t, name):
    return t.values[t.columns.index(name)]


MIXED_CSV = """duration,proto,bytes,Label
1.5,tcp,100,Normal
2.0,udp,250,DDoS
0.1,icmp,30,MITM
"""


class TestLoadCsv:
    def test_kind_inference(self, tmp_path):
        t = D.load_csv(write_csv(tmp_path / "a.csv", MIXED_CSV))
        assert t.columns == ["duration", "proto", "bytes", "Label"]
        assert t.kinds == ["numeric", "categorical", "numeric", "categorical"]
        assert t.n_rows == 3
        assert column(t, "duration").tolist() == [1.5, 2.0, 0.1]
        assert column(t, "proto").tolist() == ["tcp", "udp", "icmp"]

    def test_header_only_is_empty_not_error(self, tmp_path):
        t = D.load_csv(write_csv(tmp_path / "h.csv", "a,b,Label\n"))
        assert t.n_rows == 0
        assert all(len(v) == 0 for v in t.values)

    def test_ragged_row_names_line(self, tmp_path):
        path = write_csv(tmp_path / "r.csv", "a,b,Label\n1,2,x\n1,2\n")
        with pytest.raises(D.RaggedRowError, match=":3"):
            D.load_csv(path)

    def test_missing_label_column(self, tmp_path):
        path = write_csv(tmp_path / "m.csv", "a,b\n1,2\n")
        with pytest.raises(D.MissingLabelError):
            D.load_csv(path)

    def test_quoted_fields(self, tmp_path):
        path = write_csv(tmp_path / "q.csv", 'a,Label\n"1.5","attack, complex"\n')
        t = D.load_csv(path)
        assert column(t, "Label").tolist() == ["attack, complex"]
        assert t.kinds[0] == "numeric"

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(D.DataError):
            D.load_csv(tmp_path / "missing.csv")

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        t = D.load_csv(write_csv(tmp_path / "bom.csv", "\ufeffLabel,a\nx,1\n"))
        assert t.columns == ["Label", "a"]
        assert column(t, "Label").tolist() == ["x"]

    def test_non_utf8_byte_names_the_file(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,Label\n1,caf\xe9\n")
        with pytest.raises(D.DataError, match=r"latin1\.csv: file is not UTF-8.*0xe9"):
            D.load_csv(path)

    def test_duplicate_header_name_rejected(self, tmp_path):
        path = write_csv(tmp_path / "dup.csv", "a,b,a,Label\n1,2,3,x\n")
        with pytest.raises(D.DataError, match=r"dup\.csv: header names column 'a' more than once"):
            D.load_csv(path)


class TestClean:
    def test_infinite_cell_dropped_and_counted(self, tmp_path):
        t = D.load_csv(write_csv(tmp_path / "a.csv", "v,Label\n1,x\ninf,y\n2,z\n"))
        cleaned, drops = D.clean(t)
        assert drops["dropped_invalid"] == 1
        assert column(cleaned, "v").tolist() == [1.0, 2.0]
        assert column(cleaned, "Label").tolist() == ["x", "z"]

    def test_nan_and_empty_label_dropped(self, tmp_path):
        t = D.load_csv(write_csv(tmp_path / "a.csv", "v,Label\nnan,x\n1,\n2,ok\n"))
        cleaned, drops = D.clean(t)
        assert drops["dropped_invalid"] == 2
        assert cleaned.n_rows == 1

    def test_duplicates_deduplicated(self, tmp_path):
        t = D.load_csv(write_csv(tmp_path / "a.csv", "v,Label\n1,x\n1,x\n2,y\n"))
        cleaned, drops = D.clean(t)
        assert drops["dropped_duplicate"] == 1
        assert cleaned.n_rows == 2

    def test_clean_table_unchanged(self, tmp_path):
        t = D.load_csv(write_csv(tmp_path / "a.csv", MIXED_CSV))
        cleaned, drops = D.clean(t)
        assert cleaned.n_rows == t.n_rows
        for a, b in zip(cleaned.values, t.values):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert drops == {"dropped_invalid": 0, "dropped_duplicate": 0}

    def test_everything_removed_is_an_error(self, tmp_path):
        t = D.load_csv(write_csv(tmp_path / "a.csv", "v,Label\ninf,x\n"))
        with pytest.raises(D.EmptyDatasetError):
            D.clean(t)

    @pytest.mark.parametrize("text, message", [
        # an all-empty column is numeric, and empty in every row
        ("v,w,Label\n,1,x\n,2,y\n,2,y\n",
         "3 invalid, 0 duplicate; column 'v' is empty or non-finite in every row"),
        ("v,Label\n1,\n2,\n", "2 invalid, 0 duplicate; column 'Label' is empty in every row"),
        ("v,Label\ninf,x\n1,\n", "2 invalid, 0 duplicate"),   # no one column is to blame
    ])
    def test_everything_removed_names_counts_and_cause(self, tmp_path, text, message):
        t = D.load_csv(write_csv(tmp_path / "a.csv", text))
        with pytest.raises(D.EmptyDatasetError) as err:
            D.clean(t)
        assert str(err.value).endswith(message)


# Cells the loader parity test draws from. Numeric ones include forms that
# Python's float accepts and a naive parser might not ("1_0", " 2 ", "-0",
# "1e400" -> inf) and the near-duplicates "1"/"1.0"; categorical ones carry
# commas, quotes and a line break, so csv quoting is exercised.
NUMERIC_CELLS = ("", "nan", "inf", "-inf", "1e400", "1_0", " 2 ", "-0", "0", "1", "1.0",
                 "2.5", "-3e-2")
CATEGORICAL_CELLS = ("tcp", "udp", "a,b", 'say "hi"', "two\nlines", "", "1", "ICMP")
LABEL_CELLS = ("Normal", "DDoS", "Mirai, v2", "")


@st.composite
def raw_csv_texts(draw):
    """A small raw CSV: numeric, categorical and mixed feature columns plus a
    Label column at a random place. Rows are drawn from a small pool, so
    exact duplicates are common."""
    numeric_cell = st.one_of(st.sampled_from(NUMERIC_CELLS),
                             st.floats(width=32).map(repr), st.integers(-3, 3).map(str))
    cell_kinds = {"numeric": numeric_cell, "categorical": st.sampled_from(CATEGORICAL_CELLS),
                  "mixed": st.one_of(numeric_cell, st.sampled_from(CATEGORICAL_CELLS))}
    kinds = draw(st.lists(st.sampled_from(sorted(cell_kinds)), min_size=1, max_size=4))
    label_at = draw(st.integers(0, len(kinds)))
    cells = [cell_kinds[k] for k in kinds]
    cells.insert(label_at, st.sampled_from(LABEL_CELLS))
    pool = draw(st.lists(st.tuples(*cells), min_size=1, max_size=6))
    rows = draw(st.lists(st.sampled_from(pool), max_size=12))
    header = [f"c{j}" for j in range(len(kinds))]
    header.insert(label_at, "Label")
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])))
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def reference_kinds_and_rows(text):
    """Column kinds and rows of a CSV, by the per-cell rules: a column is
    numeric when every non-empty cell parses with float(); the label column
    is categorical."""
    records = list(csv.reader(io.StringIO(text, newline="")))
    columns, rows = records[0], records[1:]
    li = columns.index("Label")

    def parses(cell):
        try:
            float(cell)
            return True
        except ValueError:
            return False

    kinds = ["numeric" if all(parses(r[j]) for r in rows if r[j] != "") else "categorical"
             for j in range(len(columns))]
    kinds[li] = "categorical"
    return kinds, rows, li


def reference_encode(kinds, rows, li):
    """Features, labels and classes of rows, cell by cell: numeric cells
    through float() (empty -> 0.0), categorical cells to their rank among the
    column's sorted values, labels to their rank among the sorted labels."""
    feat = [j for j in range(len(kinds)) if j != li]
    features = np.empty((len(rows), len(feat)))
    for out_j, j in enumerate(feat):
        col = [r[j] for r in rows]
        if kinds[j] == "numeric":
            features[:, out_j] = [float(c) if c != "" else 0.0 for c in col]
        else:
            rank = {v: k for k, v in enumerate(sorted(set(col)))}
            features[:, out_j] = [rank[c] for c in col]
    classes = tuple(sorted({r[li] for r in rows}))
    labels = np.array([classes.index(r[li]) for r in rows], dtype=np.int64)
    return features, labels, classes


def reference_clean(kinds, rows, li):
    """Rows left after dropping invalid rows (empty label, empty or
    non-finite numeric cell), then repeats of earlier rows' exact strings."""
    numeric = [j for j in range(len(kinds)) if j != li and kinds[j] == "numeric"]
    valid = [r for r in rows
             if r[li] != "" and all(r[j] != "" and math.isfinite(float(r[j])) for j in numeric)]
    kept, seen = [], set()
    for r in valid:
        if tuple(r) not in seen:
            seen.add(tuple(r))
            kept.append(r)
    return kept, {"dropped_invalid": len(rows) - len(valid),
                  "dropped_duplicate": len(valid) - len(kept)}


def assert_bit_identical(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestLoaderParity:
    @settings(max_examples=300, deadline=None, database=None)
    @given(text=raw_csv_texts())
    @example(text="v,Label\n1,x\n1.0,x\n1,x\n")   # near-duplicates both stay, the repeat goes
    def test_load_clean_encode_match_per_cell_reference(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("parity") / "raw.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        kinds, rows, li = reference_kinds_and_rows(text)
        table = D.load_csv(path)
        assert table.kinds == kinds
        assert table.n_rows == len(rows)

        features, labels, codec = D.encode(table)   # uncleaned: nan, inf and empty cells
        ref_features, ref_labels, ref_classes = reference_encode(kinds, rows, li)
        assert_bit_identical(features, ref_features)
        assert_bit_identical(labels, ref_labels)
        assert codec.classes == ref_classes

        kept, ref_drops = reference_clean(kinds, rows, li)
        if not kept:
            with pytest.raises(D.EmptyDatasetError,
                               match=f"{ref_drops['dropped_invalid']} invalid, "
                                     f"{ref_drops['dropped_duplicate']} duplicate"):
                D.clean(table)
            return
        cleaned, drops = D.clean(table)
        assert drops == ref_drops
        features, labels, codec = D.encode(cleaned)
        ref_features, ref_labels, ref_classes = reference_encode(kinds, kept, li)
        assert_bit_identical(features, ref_features)
        assert_bit_identical(labels, ref_labels)
        assert codec.classes == ref_classes

    @settings(max_examples=100, deadline=None, database=None)
    @given(feats=st.integers(1, 6).flatmap(lambda t: st.lists(
               st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=t, max_size=t),
               min_size=1, max_size=8)),
           names=st.lists(st.sampled_from(["normal", "attack_01", "attack_02"]),
                          min_size=8, max_size=8))
    def test_save_load_encode_round_trip(self, tmp_path_factory, feats, names):
        x = np.array(feats, dtype=np.float64)
        names = names[:len(x)]
        codec = D.LabelCodec.fit(names)
        ds = D.Dataset(X=D.to_sequences(x), y=codec.encode(names), codec=codec)
        path = tmp_path_factory.mktemp("round") / "d.csv"
        D.save_dataset_csv(ds, path)
        features, labels, got_codec = D.encode(D.load_csv(path))
        assert_bit_identical(features, x)   # -0.0, subnormals and 1e308 included
        assert got_codec == codec
        assert_bit_identical(labels, ds.y)


class TestEncode:
    def test_label_codec_lexicographic(self, tmp_path):
        t = D.load_csv(write_csv(tmp_path / "a.csv", MIXED_CSV))
        _, labels, codec = D.encode(t)
        assert codec.classes == ("DDoS", "MITM", "Normal")
        assert labels.tolist() == [2, 0, 1]

    def test_categorical_feature_codes(self, tmp_path):
        t = D.load_csv(write_csv(tmp_path / "a.csv", MIXED_CSV))
        features, _, _ = D.encode(t)
        # proto column: {icmp: 0, tcp: 1, udp: 2}
        assert features[:, 1].tolist() == [1.0, 2.0, 0.0]

    def test_numeric_passthrough(self, tmp_path):
        t = D.load_csv(write_csv(tmp_path / "a.csv", "x,y,Label\n1,2,a\n3,4,b\n"))
        features, _, _ = D.encode(t)
        assert np.array_equal(features, [[1.0, 2.0], [3.0, 4.0]])

    def test_fitted_codec_rejects_unseen_label(self, tmp_path):
        t = D.load_csv(write_csv(tmp_path / "a.csv", MIXED_CSV))
        _, _, codec = D.encode(t)
        t2 = D.load_csv(write_csv(tmp_path / "b.csv", "duration,proto,bytes,Label\n1,tcp,5,Worm\n"))
        with pytest.raises(D.UnknownClassError):
            D.encode(t2, codec=codec)

    def test_codec_encode_idempotent(self):
        codec = D.LabelCodec.fit(["b", "a", "b"])
        once = codec.encode(["a", "b", "a"])
        again = codec.encode([codec.from_index(i) for i in once])
        assert np.array_equal(once, again)


class TestScaler:
    def test_basic_map(self):
        p = D.fit_scaler(np.array([[0.0], [5.0], [10.0]]))
        out = D.apply_scaler(p, np.array([[0.0], [5.0], [10.0]]))
        assert out.ravel().tolist() == [0.0, 0.5, 1.0]

    def test_constant_feature_maps_to_zero(self):
        p = D.fit_scaler(np.full((4, 2), 7.0))
        out = D.apply_scaler(p, np.full((3, 2), 7.0))
        assert np.abs(out).max() == 0.0

    def test_out_of_range_clamped(self):
        p = D.fit_scaler(np.array([[0.0], [10.0]]))
        out = D.apply_scaler(p, np.array([[12.0], [-3.0]]))
        assert out.ravel().tolist() == [1.0, 0.0]

    def test_round_trip_dict(self):
        p = D.fit_scaler(RngStream(0).normal(size=(5, 3)))
        q = D.ScalerParams.from_dict(p.to_dict())
        assert np.array_equal(p.mins, q.mins) and np.array_equal(p.maxs, q.maxs)


class TestSequences:
    def test_feature_axis_becomes_time(self):
        assert D.to_sequences(np.zeros((4, 83))).shape == (4, 83, 1)
        assert D.to_sequences(np.zeros((4, 60))).shape == (4, 60, 1)

    def test_round_trip(self):
        f = RngStream(1).normal(size=(5, 9))
        assert np.array_equal(D.to_sequences(f).reshape(5, 9), f)


class TestOneHot:
    def test_single_position(self):
        row = D.one_hot(np.array([2]), 6)[0]
        assert row.tolist() == [0, 0, 1, 0, 0, 0]

    def test_rows_sum_to_one_and_argmax_inverts(self):
        labels = RngStream(2).integers(0, 6, size=50)
        oh = D.one_hot(labels, 6)
        assert np.array_equal(oh.sum(axis=1), np.ones(50))
        assert np.array_equal(oh.argmax(axis=1), labels)

    def test_out_of_range(self):
        with pytest.raises(D.DataError):
            D.one_hot(np.array([6]), 6)


def make_dataset(counts, seq_len=8, seed=0):
    rng = RngStream(seed)
    names = [f"c{i}" for i in range(len(counts))]
    codec = D.LabelCodec.fit(names)
    xs, ys = [], []
    for i, n in enumerate(counts):
        xs.append(rng.normal(size=(n, seq_len)) + 3.0 * i)
        ys.extend([i] * n)
    return D.Dataset(X=D.to_sequences(np.concatenate(xs)),
                     y=np.array(ys, dtype=np.int64), codec=codec)


class TestStratifiedSplit:
    def test_exact_proportions(self):
        ds = make_dataset([60, 40])
        train, test = D.stratified_split(ds, 0.8, RngStream(3))
        assert train.class_counts().tolist() == [48, 32]
        assert test.class_counts().tolist() == [12, 8]

    def test_disjoint_and_exhaustive(self):
        ds = make_dataset([30, 20, 10])
        train, test = D.stratified_split(ds, 0.7, RngStream(4))
        assert len(train) + len(test) == len(ds)
        seen = np.concatenate([train.features(), test.features()])
        assert sorted(map(tuple, seen)) == sorted(map(tuple, ds.features()))

    def test_proportions_within_one_all_seeds(self):
        ds = make_dataset([37, 23, 11])
        for seed in range(20):
            train, _ = D.stratified_split(ds, 0.8, RngStream(seed))
            for k, n_k in enumerate([37, 23, 11]):
                assert abs(train.class_counts()[k] - round(0.8 * n_k)) <= 1

    def test_full_fraction_rejected(self):
        with pytest.raises(D.StratifyError):
            D.stratified_split(make_dataset([10, 10]), 1.0, RngStream(5))

    def test_small_class_rejected(self):
        with pytest.raises(D.StratifyError, match="c1"):
            D.stratified_split(make_dataset([10, 1]), 0.8, RngStream(6))

    def test_same_seed_identical(self):
        ds = make_dataset([25, 15])
        a_train, a_test = D.stratified_split(ds, 0.8, RngStream(7))
        b_train, b_test = D.stratified_split(ds, 0.8, RngStream(7))
        assert np.array_equal(a_train.X, b_train.X)
        assert np.array_equal(a_test.y, b_test.y)


class TestRosBalance:
    def test_counts_equalized_with_duplicates_only(self):
        ds = make_dataset([10, 3])
        out = D.ros_balance(ds, RngStream(8))
        assert out.class_counts().tolist() == [10, 10]
        originals = {tuple(row) for row in ds.features()[ds.y == 1]}
        for row in out.features()[out.y == 1]:
            assert tuple(row) in originals

    def test_already_balanced_unchanged(self):
        ds = make_dataset([5, 5])
        out = D.ros_balance(ds, RngStream(9))
        assert np.array_equal(out.X, ds.X) and np.array_equal(out.y, ds.y)

    def test_histogram_uniform(self):
        ds = make_dataset([20, 7, 3])
        out = D.ros_balance(ds, RngStream(10))
        assert len(set(out.class_counts().tolist())) == 1


def dist_to_segment(p, a, b):
    """Distance from point p to segment [a, b]: the geometric oracle."""
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * ab)))


class TestSmoteBalance:
    def test_two_point_class_interpolates_on_segment(self):
        codec = D.LabelCodec.fit(["maj", "min"])
        X = np.concatenate([np.zeros((10, 2)), np.array([[0.0, 0.0], [1.0, 1.0]])])
        X[:10] += 5.0
        y = np.array([0] * 10 + [1] * 2, dtype=np.int64)
        ds = D.Dataset(X=D.to_sequences(X), y=y, codec=codec)
        out = D.smote_balance(ds, RngStream(11), k=1)
        assert out.class_counts().tolist() == [10, 10]
        synth = out.features()[10 + 2:]
        for row in synth:
            assert abs(row[0] - row[1]) < 1e-12  # on the diagonal segment
            assert -1e-12 <= row[0] <= 1.0 + 1e-12

    def test_synthetic_points_pass_segment_oracle(self):
        ds = make_dataset([40, 8], seq_len=5, seed=12)
        out = D.smote_balance(ds, RngStream(13), k=3)
        minority = ds.features()[ds.y == 1]
        synth = out.features()[len(ds):]
        assert len(synth) == 32
        for p in synth:
            best = min(dist_to_segment(p, a, b)
                       for i, a in enumerate(minority) for b in minority[i:])
            assert best < 1e-9

    def test_singleton_class_falls_back_with_warning(self):
        codec = D.LabelCodec.fit(["a", "b"])
        X = np.concatenate([np.zeros((4, 3)), np.ones((1, 3))])
        ds = D.Dataset(X=D.to_sequences(X), y=np.array([0] * 4 + [1]), codec=codec)
        with pytest.warns(UserWarning, match="single"):
            out = D.smote_balance(ds, RngStream(14))
        assert out.class_counts().tolist() == [4, 4]
        assert np.array_equal(out.features()[5:], np.ones((3, 3)))

    def test_k_clipped_to_class_size(self):
        ds = make_dataset([12, 3], seq_len=4, seed=15)
        out = D.smote_balance(ds, RngStream(16), k=5)  # class of 3 has only 2 neighbors
        assert out.class_counts().tolist() == [12, 12]

    def test_bad_k(self):
        with pytest.raises(D.DataError):
            D.smote_balance(make_dataset([4, 2]), RngStream(0), k=0)

    @pytest.mark.parametrize("block_rows", [1, 4, None])
    def test_matches_unblocked_reference_with_ties(self, monkeypatch, block_rows):
        # 11 minority members on an integer grid, two of them repeated: many
        # exact distance ties between distinct points, and 11 = 4 + 4 + 3
        # leaves a ragged last block at 4 rows per block.
        grid = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0], [1, 1, 0],
                         [2, 0, 0], [0, 0, 1], [1, 0, 0], [0, 0, 0], [0, 2, 0]], dtype=float)
        majority = RngStream(30).normal(size=(30, 3)) + 10.0
        ds = D.Dataset(X=D.to_sequences(np.concatenate([majority, grid])),
                       y=np.array([0] * 30 + [1] * 11, dtype=np.int64),
                       codec=D.LabelCodec.fit(["maj", "min"]))
        if block_rows is not None:
            monkeypatch.setattr(D, "_NEIGHBOUR_BLOCK_CELLS", block_rows * grid.size)
        for k in (1, 3, 5):
            assert np.array_equal(D._nearest_neighbours(grid, k), reference_neighbours(grid, k))
            out = D.smote_balance(ds, RngStream(31), k=k)
            ref_X, ref_y = reference_smote(ds, RngStream(31), k)
            assert_bit_identical(out.X, ref_X)
            assert_bit_identical(out.y, ref_y)

    def test_neighbour_search_memory_is_not_quadratic(self):
        m, t = 400, 83
        rng = RngStream(32)
        X = np.concatenate([rng.normal(size=(m + 1, t)), rng.normal(size=(m, t)) + 3.0])
        ds = D.Dataset(X=D.to_sequences(X), y=np.array([0] * (m + 1) + [1] * m, dtype=np.int64),
                       codec=D.LabelCodec.fit(["a", "b"]))
        peak = traced_peak(lambda: D.smote_balance(ds, RngStream(33)))
        # the whole (m, m, T) broadcast is m^2 T 8 B = 106 MB
        assert peak < m * m * t * 8 / 4


def reference_neighbours(pts, k):
    """Each row's k nearest other rows from the whole (m, m, T) broadcast;
    the row itself is dropped by index, since an overflowed distance is inf."""
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    order = np.argsort(d2, axis=1, kind="stable")
    return order[order != np.arange(len(pts))[:, None]].reshape(len(pts), -1)[:, :k]


def reference_smote(ds, rng, k):
    """SMOTE with unblocked neighbours, drawing from rng as smote_balance
    does (classes of one member are not handled)."""
    counts = ds.class_counts()
    feats = ds.features()
    new_X, new_y = [ds.X], [ds.y]
    for cls in range(ds.n_classes):
        need = int(counts.max() - counts[cls])
        if need <= 0:
            continue
        pts = feats[ds.y == cls]
        k_eff = min(k, len(pts) - 1)
        neigh = reference_neighbours(pts, k_eff)
        base = rng.integers(0, len(pts), size=need)
        pick = rng.integers(0, k_eff, size=need)
        lam = rng.uniform(size=(need, 1))
        x0 = pts[base]
        new_X.append(D.to_sequences(x0 + lam * (pts[neigh[base, pick]] - x0)))
        new_y.append(np.full(need, cls, dtype=np.int64))
    return np.concatenate(new_X), np.concatenate(new_y)


@st.composite
def neighbour_cases(draw):
    """A family name, points (m, T), k and a block budget from one cell to
    the whole (m, m, T) broadcast. The families: a small integer grid with
    repeated rows (exact ties), 1e8 plus small noise (the GEMM form
    cancels), the same in float32 at 1e4, magnitudes near 1e160 (squared
    norms overflow) and uniform points."""
    m = draw(st.integers(2, 60))
    t = draw(st.integers(1, 12))
    k = draw(st.integers(1, min(6, m - 1)))
    family = draw(st.sampled_from(["grid", "cancel", "cancel32", "huge", "uniform"]))
    rng = RngStream(draw(st.integers(0, 2**32 - 1)))
    if family == "grid":
        pts = rng.integers(-2, 3, size=(m, t)).astype(np.float64)
        pts[rng.integers(0, m, size=m // 2)] = pts[rng.integers(0, m, size=m // 2)]
    elif family == "cancel":
        pts = 1e8 + 1e-3 * rng.normal(size=(m, t))
    elif family == "cancel32":
        pts = (1e4 + 1e-3 * rng.normal(size=(m, t))).astype(np.float32)
    elif family == "huge":
        scale = 10.0 ** rng.uniform(size=(m, 1), low=150, high=160)
        pts = scale * rng.uniform(size=(m, t), low=-1.0)
    else:
        pts = rng.uniform(size=(m, t))
    return family, pts, k, draw(st.integers(1, m * m * t))


class TestNearestNeighbours:
    @settings(max_examples=400, deadline=None, database=None)
    @given(case=neighbour_cases())
    def test_matches_exact_reference(self, case):
        family, pts, k, cells = case
        # exact distances between huge points overflow to inf, as they should
        with pytest.MonkeyPatch.context() as mp, np.errstate(
                over="ignore" if family == "huge" else "warn"):
            mp.setattr(D, "_NEIGHBOUR_BLOCK_CELLS", cells)
            assert np.array_equal(D._nearest_neighbours(pts, k), reference_neighbours(pts, k))

    def test_row_is_not_its_own_neighbour_when_distances_overflow(self):
        # every squared distance overflows to inf, so an inf placed on the
        # diagonal would tie with them, and rows 0 and 1 would list themselves
        pts = np.array([[1e160, 0], [2e160, 0], [3e160, 0], [-1e160, 5]])
        with np.errstate(over="ignore"):
            neigh = D._nearest_neighbours(pts, 2)
        assert neigh.tolist() == [[1, 2], [0, 2], [0, 1], [0, 1]]


class TestSynthGenerate:
    def test_same_seed_identical(self):
        a = D.synth_generate(4, 30, 10, 5.0, RngStream(17))
        b = D.synth_generate(4, 30, 10, 5.0, RngStream(17))
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    def test_class_names_and_counts(self):
        ds = D.synth_generate(3, 20, 8, 4.0, RngStream(18), imbalance=[1.0, 0.5, 1.0])
        assert ds.codec.classes == ("attack_01", "attack_02", "normal")
        counts = {ds.codec.from_index(i): c for i, c in enumerate(ds.class_counts())}
        assert counts == {"normal": 20, "attack_01": 10, "attack_02": 20}

    def test_high_separation_prototype_oracle(self):
        ds = D.synth_generate(5, 100, 12, 6.0, RngStream(19))
        feats = ds.features()
        means = np.stack([feats[ds.y == k].mean(axis=0) for k in range(5)])
        d2 = ((feats[:, None, :] - means[None]) ** 2).sum(axis=2)
        acc = (d2.argmin(axis=1) == ds.y).mean()
        assert acc > 0.99

    def test_zero_separation_indistinguishable(self):
        ds = D.synth_generate(4, 50, 8, 0.0, RngStream(20))
        feats = ds.features()
        means = np.stack([feats[ds.y == k].mean(axis=0) for k in range(4)])
        d2 = ((feats[:, None, :] - means[None]) ** 2).sum(axis=2)
        acc = (d2.argmin(axis=1) == ds.y).mean()
        assert acc < 0.45  # chance is 0.25; nothing near separable

    def test_zero_separation_trained_model_at_chance(self):
        from conftest import tiny_bigat_spec
        from bigatid.model import VariantSpec
        from bigatid.training import TrainConfig, train
        ds = D.synth_generate(3, 50, 8, 0.0, RngStream(23))
        tr, te = D.stratified_split(ds, 0.8, RngStream(24))
        base = tiny_bigat_spec(dropout=0.2)
        spec = VariantSpec(seq_len=8, n_classes=3, branches=base.branches,
                           head=base.head)
        _, history = train(spec, tr, te, TrainConfig(epochs=4, batch_size=32, seed=2))
        assert history.rows[-1].val_acc < 0.55  # chance is 1/3

    def test_argument_validation(self):
        with pytest.raises(D.DataError):
            D.synth_generate(1, 10, 8, 1.0, RngStream(0))
        with pytest.raises(D.DataError):
            D.synth_generate(3, 10, 3, 1.0, RngStream(0))
        with pytest.raises(D.DataError):
            D.synth_generate(3, 10, 8, 1.0, RngStream(0), imbalance=[1.0])

    @pytest.mark.parametrize("separation", [-1.0, float("nan"), float("inf")])
    def test_separation_not_finite_or_negative_rejected(self, separation):
        with pytest.raises(D.DataError, match=f"separation {separation!r} "):
            D.synth_generate(3, 10, 8, separation, RngStream(0))

    @pytest.mark.parametrize("frac", [-1.0, 0, float("nan"), float("inf")])
    def test_fraction_not_finite_or_not_above_zero_rejected(self, frac):
        with pytest.raises(D.DataError, match=f"imbalance fraction {frac!r} "):
            D.synth_generate(3, 10, 8, 1.0, RngStream(0), imbalance=[1.0, frac, 1.0])


class TestPersistence:
    def test_csv_round_trip(self, tmp_path):
        ds = D.synth_generate(3, 10, 6, 3.0, RngStream(21))
        csv_path = tmp_path / "d.csv"
        D.save_dataset_csv(ds, csv_path)
        table = D.load_csv(csv_path)
        features, labels, codec = D.encode(table)
        assert codec.classes == ds.codec.classes
        assert np.array_equal(labels, ds.y)
        assert np.abs(features - ds.features()).max() == 0.0  # repr round trip

    def test_pipeline_deterministic_from_file_and_seed(self, tmp_path):
        ds = D.synth_generate(3, 12, 6, 3.0, RngStream(22))
        csv_path = tmp_path / "d.csv"
        D.save_dataset_csv(ds, csv_path)

        def run():
            table, _ = D.clean(D.load_csv(csv_path))
            features, labels, codec = D.encode(table)
            full = D.Dataset(X=D.to_sequences(features), y=labels, codec=codec)
            train, test = D.stratified_split(full, 0.75, RngStream(5))
            scaler = D.fit_scaler(train.features())
            return D.apply_scaler(scaler, test.features())

        assert np.array_equal(run(), run())
