import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import shapley_exact_small, tiny_bigat_spec, traced_peak
from bigatid import data as D, model as MOD
from bigatid.explain import (
    Attribution,
    ShapleySettings,
    attribution_summary,
    background_mean_of,
    model_value_fn,
    shapley_permutation,
)
from bigatid.model import VariantSpec, build, forward
from bigatid.numerics import RngStream
from bigatid.training import TrainConfig, train


def surrogate_8(rows):
    """Smooth nonlinear 8-feature function with a mild pairwise interaction."""
    rows = np.atleast_2d(rows)
    w = np.array([0.62, -0.27, 0.41, 0.93, -0.51, 0.18, -0.74, 0.35])
    return np.tanh(rows @ w * 0.5 + 0.15 * rows[:, 0] * rows[:, 1])


def plain_walk(f, x, bg, n_permutations, rng, batch_size):
    """The permutation estimator with one f row per walk step, shared
    coalitions evaluated again: the reference for the coalition-sharing one."""
    m = x.size
    perms_per_chunk = max(1, batch_size // (m + 1))
    totals = None
    done = 0
    while done < n_permutations:
        p = min(perms_per_chunk, n_permutations - done)
        perms = np.stack([rng.permutation(m) for _ in range(p)])
        ranks = np.argsort(perms, axis=1)
        grown = ranks[:, None, :] < np.arange(m + 1)[None, :, None]
        rows = np.where(grown, x, bg).reshape(p * (m + 1), m)
        vals = np.asarray(f(rows), dtype=np.float64)
        vals = (vals[:, None] if vals.ndim == 1 else vals).reshape(p, m + 1, -1)
        diffs = vals[:, 1:] - vals[:, :-1]
        if totals is None:
            totals = np.zeros((m, diffs.shape[2]))
        np.add.at(totals, perms.reshape(-1), diffs.reshape(p * m, -1))
        done += p
    totals /= n_permutations
    return totals[:, 0] if totals.shape[1] == 1 else totals


class CountingF:
    """Wraps a value function and records every batch of rows it receives."""

    def __init__(self, f):
        self.f = f
        self.batches = []

    def __call__(self, rows):
        self.batches.append(np.array(rows))
        return self.f(rows)


def kendall_tau_topk(a: Attribution, b: Attribution, k: int = 10) -> float:
    """Pairwise order agreement of a's top-k features between both rankings."""
    top = [int(f) for f in a.ranking()[:k]]
    pos_a = {f: i for i, f in enumerate(top)}
    rank_b = {int(f): i for i, f in enumerate(b.ranking())}
    conc = disc = 0
    for i in range(k):
        for j in range(i + 1, k):
            fi, fj = top[i], top[j]
            s = (pos_a[fi] - pos_a[fj]) * (rank_b[fi] - rank_b[fj])
            conc += s > 0
            disc += s <= 0
    return (conc - disc) / (conc + disc)


class TestExactSmall:
    def test_efficiency_axiom(self):
        rng = RngStream(0)
        x = rng.normal(size=8) + 1.0
        bg = rng.normal(size=8) * 0.2
        values = shapley_exact_small(surrogate_8, x, bg)
        gap = surrogate_8(x[None])[0] - surrogate_8(bg[None])[0]
        assert abs(values.sum() - gap) < 1e-9

    def test_symmetry_axiom(self):
        # features 0 and 1 play identical roles and carry identical values
        def sym(rows):
            rows = np.atleast_2d(rows)
            return rows[:, 0] * rows[:, 2] + rows[:, 1] * rows[:, 2] + rows[:, 3]
        x = np.array([0.7, 0.7, -1.2, 0.4])
        values = shapley_exact_small(sym, x, np.zeros(4))
        assert abs(values[0] - values[1]) < 1e-9

    def test_null_player_is_zero(self):
        def ignores_last(rows):
            rows = np.atleast_2d(rows)
            return rows[:, 0] ** 2 + rows[:, 1]
        values = shapley_exact_small(ignores_last, np.array([1.5, -0.3, 9.9]), np.zeros(3))
        assert values[2] == 0.0

    def test_two_feature_hand_enumeration(self):
        def xor_like(rows):
            rows = np.atleast_2d(rows)
            return rows[:, 0] * (1 - rows[:, 1]) + rows[:, 1] * (1 - rows[:, 0])
        x = np.array([1.0, 0.8])
        bg = np.array([0.2, 0.1])

        def f(a, b):
            return xor_like(np.array([[a, b]]))[0]
        # 4-coalition formula written out by hand
        phi0 = 0.5 * (f(x[0], bg[1]) - f(bg[0], bg[1])) + 0.5 * (f(x[0], x[1]) - f(bg[0], x[1]))
        phi1 = 0.5 * (f(bg[0], x[1]) - f(bg[0], bg[1])) + 0.5 * (f(x[0], x[1]) - f(x[0], bg[1]))
        values = shapley_exact_small(xor_like, x, bg)
        assert abs(values[0] - phi0) < 1e-12
        assert abs(values[1] - phi1) < 1e-12

    def test_feature_cap(self):
        with pytest.raises(ValueError, match="cap"):
            shapley_exact_small(surrogate_8, np.zeros(13), np.zeros(13))

    def test_multi_output(self):
        def two_headed(rows):
            rows = np.atleast_2d(rows)
            return np.stack([rows[:, 0], rows[:, 1] * 2], axis=1)
        values = shapley_exact_small(two_headed, np.array([3.0, 4.0]), np.zeros(2))
        assert values.shape == (2, 2)
        assert abs(values[0, 0] - 3.0) < 1e-12 and abs(values[1, 1] - 8.0) < 1e-12


class TestPermutationEstimator:
    def test_additive_function_exact_for_any_permutation_count(self):
        rng = RngStream(1)
        w = rng.normal(size=6)

        def additive(rows):
            return np.atleast_2d(rows) @ w
        x = rng.normal(size=6)
        values = shapley_permutation(additive, x, np.zeros(6), 3, rng.spawn(1))
        assert np.abs(values - w * x).max() < 1e-12

    def test_null_player_exactly_zero(self):
        def ignores_first(rows):
            rows = np.atleast_2d(rows)
            return rows[:, 1] ** 3
        rng = RngStream(2)
        values = shapley_permutation(ignores_first, np.array([5.0, 1.2]), np.zeros(2),
                                     50, rng)
        assert values[0] == 0.0

    def test_efficiency_holds_per_run(self):
        rng = RngStream(3)
        x = rng.normal(size=8)
        bg = rng.normal(size=8) * 0.3
        values = shapley_permutation(surrogate_8, x, bg, 40, rng.spawn(1))
        gap = surrogate_8(x[None])[0] - surrogate_8(bg[None])[0]
        assert abs(values.sum() - gap) < 1e-9

    @settings(max_examples=200, deadline=None, database=None)
    @given(m=st.integers(1, 8), outputs=st.integers(1, 3), n_perm=st.integers(1, 20),
           batch_size=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
    def test_efficiency_at_random_small_m(self, m, outputs, n_perm, batch_size, seed):
        # the values of any permutation sample, in any chunking, sum to f(x) - f(bg)
        rng = RngStream(seed)
        a, b = rng.normal(size=(m, 4)), rng.normal(size=(4, outputs))

        def f(rows):
            out = np.tanh(np.atleast_2d(rows) @ a) ** 2 @ b
            return out[:, 0] if outputs == 1 else out
        x, bg = rng.normal(size=m), rng.normal(size=m)
        values = shapley_permutation(f, x, bg, n_perm, rng.spawn(1), batch_size=batch_size)
        assert values.shape == ((m,) if outputs == 1 else (m, outputs))
        gap = f(x[None])[0] - f(bg[None])[0]
        assert np.abs(values.sum(axis=0) - gap).max() < 1e-9

    def test_matches_exact_within_one_percent_of_gap(self):
        rng = RngStream(4)
        x = rng.normal(size=8) + 1.0
        bg = np.zeros(8)
        exact = shapley_exact_small(surrogate_8, x, bg)
        gap = abs(float(surrogate_8(x[None])[0] - surrogate_8(bg[None])[0]))
        for seed in range(3):
            mc = shapley_permutation(surrogate_8, x, bg, 5000, RngStream(seed))
            assert np.abs(mc - exact).max() < 0.01 * gap

    def test_error_shrinks_as_inverse_sqrt(self):
        rng = RngStream(5)
        x = rng.normal(size=8) + 1.0
        bg = np.zeros(8)
        exact = shapley_exact_small(surrogate_8, x, bg)
        errs = {}
        for n in (100, 1000, 10000):
            runs = [np.abs(shapley_permutation(surrogate_8, x, bg, n,
                                               RngStream(n + s)) - exact).mean()
                    for s in range(5)]
            errs[n] = float(np.mean(runs))
        ratio = errs[100] / errs[10000]  # ideal sqrt(10000/100) = 10
        assert 10 / 3 <= ratio <= 30
        assert errs[100] > errs[1000] > errs[10000]

    def test_determinism_given_seed(self):
        rng_a = RngStream(6)
        rng_b = RngStream(6)
        x = RngStream(7).normal(size=5)
        a = shapley_permutation(surrogate_8_5(), x, np.zeros(5), 64, rng_a)
        b = shapley_permutation(surrogate_8_5(), x, np.zeros(5), 64, rng_b)
        assert np.array_equal(a, b)

    def test_permutation_count_validated(self):
        with pytest.raises(ValueError):
            shapley_permutation(surrogate_8, np.zeros(8), np.zeros(8), 0, RngStream(0))


class TestCoalitionSharing:
    def test_three_features_need_at_most_eight_rows(self):
        f = CountingF(surrogate_8_5())
        shapley_permutation(f, np.array([0.3, -1.1, 2.0]), np.zeros(3), 200, RngStream(30))
        assert sum(len(b) for b in f.batches) <= 2 ** 3

    def test_each_distinct_coalition_evaluated_once(self):
        m, n_perm = 20, 97
        rng = RngStream(31)
        x, bg = rng.normal(size=m) + 3.0, rng.normal(size=m) - 3.0
        f = CountingF(surrogate_8_5())
        shapley_permutation(f, x, bg, n_perm, RngStream(32))
        replay = RngStream(32)
        perms = [replay.permutation(m) for _ in range(n_perm)]
        distinct = {frozenset(int(i) for i in p[:k]) for p in perms for k in range(m + 1)}
        rows = np.concatenate(f.batches)
        assert len(rows) == len(distinct)
        assert len({r.tobytes() for r in rows}) == len(rows)

    @pytest.mark.parametrize("batch_size", [1, 3, 7])
    def test_no_call_exceeds_batch_size(self, batch_size):
        f = CountingF(surrogate_8_5())
        shapley_permutation(f, RngStream(33).normal(size=6), np.zeros(6), 10, RngStream(34),
                            batch_size=batch_size)
        assert max(len(b) for b in f.batches) <= batch_size

    def test_memory_linear_in_walk_steps(self):
        # the (P, m+1, m) boolean membership of every walk step would take 32 MB
        m, n_perm = 400, 200
        peak = traced_peak(lambda: shapley_permutation(
            surrogate_8_5(), RngStream(37).normal(size=m), np.zeros(m), n_perm, RngStream(38),
            batch_size=64))
        assert peak < 0.75 * n_perm * (m + 1) * m

    def test_rng_consumed_as_by_the_plain_walk(self):
        x = RngStream(35).normal(size=9)
        rng_a, rng_b = RngStream(36), RngStream(36)
        shapley_permutation(surrogate_8_5(), x, np.zeros(9), 25, rng_a, batch_size=16)
        plain_walk(surrogate_8_5(), x, np.zeros(9), 25, rng_b, batch_size=16)
        assert rng_a.normal() == rng_b.normal()

    @settings(max_examples=200, deadline=None, database=None)
    @given(m=st.integers(1, 10), outputs=st.integers(1, 3), n_perm=st.integers(1, 30),
           batch_size=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
    def test_matches_plain_walk(self, m, outputs, n_perm, batch_size, seed):
        rng = RngStream(seed)
        a, b = rng.normal(size=(m, 4)), rng.normal(size=(4, outputs))

        def f(rows):
            out = np.tanh(np.atleast_2d(rows) @ a) ** 2 @ b
            return out[:, 0] if outputs == 1 else out
        x, bg = rng.normal(size=m), rng.normal(size=m)
        shared = shapley_permutation(f, x, bg, n_perm, rng.spawn(1), batch_size=batch_size)
        plain = plain_walk(f, x, bg, n_perm, rng.spawn(1), batch_size=batch_size)
        assert shared.shape == plain.shape
        assert np.abs(shared - plain).max() <= 1e-12


def surrogate_8_5():
    def f(rows):
        rows = np.atleast_2d(rows)
        return np.tanh(rows.sum(axis=1) * 0.3)
    return f


class TestModelEstimator:
    def test_estimate_against_exact_enumeration(self):
        spec = tiny_bigat_spec()
        spec = VariantSpec(seq_len=8, n_classes=3, branches=spec.branches, head=spec.head)
        params = build(spec, RngStream(8))
        background = RngStream(9).normal(size=(16, 8))
        x = RngStream(10).normal(size=8)
        f = model_value_fn(params, spec)
        exact = shapley_exact_small(lambda rows: f(rows)[:, 1], x,
                                    background_mean_of(background))
        mc = shapley_permutation(lambda rows: f(rows)[:, 1], x,
                                 background_mean_of(background), 4000, RngStream(11))
        # untrained model output gaps are small; compare on the value scale
        scale = max(np.abs(exact).max(), 1e-6)
        assert np.abs(mc - exact).max() < 0.05 * scale + 1e-4

    @pytest.mark.parametrize("k, sizes", [
        (1, [1]), (130, [130]), (513, [256, 257]), (1664, [512, 512, 320, 320])],
        ids=["1", "130", "513", "1664"])
    def test_value_fn_forwards_unpadded_eval_batch_chunks(self, monkeypatch, k, sizes):
        seen = []

        def counting(params, spec, X, **kwargs):
            seen.append(X.copy())
            return forward(params, spec, X, **kwargs)
        monkeypatch.setattr(MOD, "forward", counting)
        # chunks of EVAL_ROW_STEPS // T = 512 rows at T=20, the last two even
        spec = tiny_spec_for(20, 3, rate=0.0)
        assert MOD.eval_rows(spec) == 512
        params = build(spec, RngStream(12))
        rows = RngStream(13).normal(size=(k, 20))
        out = model_value_fn(params, spec)(rows)
        assert [len(X) for X in seen] == sizes
        assert np.array_equal(np.concatenate(seen), rows[:, :, None])
        assert out.shape == (k, 3)
        assert np.abs(out - forward(params, spec, rows[:, :, None])[0]).max() <= 1e-12

    def test_empty_background_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            background_mean_of(np.zeros((0, 6)))


def graded_signal_dataset(rng, seq_len=12, c=3, n=120):
    """Class signal concentrated in early features, decaying geometrically:
    attributions then have a clear, stable hierarchy."""
    q, _ = np.linalg.qr(rng.normal(size=(seq_len, c)))
    protos = 7.0 * q.T * (0.72 ** np.arange(seq_len))
    codec = D.LabelCodec.fit([f"c{i}" for i in range(c)])
    X = np.concatenate([protos[k] + rng.normal(size=(n, seq_len)) for k in range(c)])
    y = np.repeat(np.arange(c), n)
    return D.Dataset(X=D.to_sequences(X), y=y, codec=codec)


def tiny_spec_for(seq_len, c, rate=0.2):
    base = tiny_bigat_spec(dropout=rate)
    return VariantSpec(seq_len=seq_len, n_classes=c, branches=base.branches,
                       head=base.head)


class TestShapleySettings:
    @pytest.mark.parametrize("name", ["n_instances", "n_permutations", "batch_size"])
    @pytest.mark.parametrize("value", [0, -1, 2.5, True])
    def test_each_count_must_be_a_positive_integer(self, name, value):
        with pytest.raises(ValueError, match=name):
            ShapleySettings(**{name: value})


class TestAttributionSummary:
    def test_single_instance_equals_abs_values(self):
        spec = tiny_spec_for(6, 3, rate=0.0)
        params = build(spec, RngStream(14))
        ds = D.synth_generate(3, 4, 6, 3.0, RngStream(15))
        one = ds.subset(np.array([2]))
        settings = ShapleySettings(n_instances=1, n_permutations=64)
        att = attribution_summary(params, spec, one, settings, RngStream(16))

        f = model_value_fn(params, spec)
        rng = RngStream(16)
        rng.permutation(1)  # the summary draws the instance subset first
        values = shapley_permutation(f, one.features()[0], background_mean_of(one),
                                     64, rng, batch_size=settings.batch_size)
        assert np.abs(att.values - np.abs(values)).max() < 1e-12

    def test_matches_plain_walk_over_instances(self):
        spec = tiny_spec_for(6, 3, rate=0.0)
        params = build(spec, RngStream(25))
        ds = D.synth_generate(3, 4, 6, 3.0, RngStream(26))
        settings = ShapleySettings(n_instances=5, n_permutations=24, batch_size=40)
        att = attribution_summary(params, spec, ds, settings, RngStream(27))

        f = model_value_fn(params, spec)
        bg = background_mean_of(ds)
        rng = RngStream(27)
        pick = rng.permutation(len(ds))[:5]
        expected = sum(np.abs(plain_walk(f, ds.features()[row], bg, 24, rng, 40))
                       for row in pick) / 5
        assert att.n_instances == 5
        assert np.abs(att.values - expected).max() <= 1e-12

    def test_model_reading_only_feature_zero_ranks_it_first(self):
        rng = RngStream(17)
        seq_len, c, n = 8, 3, 120
        protos = np.zeros((c, seq_len))
        protos[0, 0] = -6.0
        protos[2, 0] = 6.0
        codec = D.LabelCodec.fit(["a", "b", "c"])
        X = np.concatenate([protos[k] + rng.normal(size=(n, seq_len)) for k in range(c)])
        ds = D.Dataset(X=D.to_sequences(X), y=np.repeat(np.arange(c), n), codec=codec)
        tr, te = D.stratified_split(ds, 0.8, rng.spawn(1))
        spec = tiny_spec_for(seq_len, c)
        params, hist = train(spec, tr, te, TrainConfig(epochs=30, batch_size=32, seed=5))
        assert hist.rows[-1].val_acc > 0.9

        att = attribution_summary(params, spec, te,
                                  ShapleySettings(n_instances=6, n_permutations=500),
                                  RngStream(18))
        assert int(att.ranking()[0]) == 0
        for j in range(c):
            assert int(att.ranking(j)[0]) == 0

    def test_rankings_stable_across_seeds(self):
        rng = RngStream(19)
        ds = graded_signal_dataset(rng)
        tr, te = D.stratified_split(ds, 0.8, rng.spawn(1))
        spec = tiny_spec_for(12, 3)
        params, hist = train(spec, tr, te, TrainConfig(epochs=20, batch_size=32, seed=4))
        assert hist.rows[-1].val_acc > 0.6  # well above the 1/3 chance level
        sample = te.subset(np.arange(6))
        settings = ShapleySettings(n_instances=6, n_permutations=5000)
        att1 = attribution_summary(params, spec, sample, settings, RngStream(100))
        att2 = attribution_summary(params, spec, sample, settings, RngStream(200))
        assert kendall_tau_topk(att1, att2, k=10) >= 0.8

    def test_values_nonnegative_and_finite(self):
        spec = tiny_spec_for(6, 3, rate=0.0)
        params = build(spec, RngStream(20))
        ds = D.synth_generate(3, 6, 6, 3.0, RngStream(21))
        att = attribution_summary(params, spec, ds,
                                  ShapleySettings(n_instances=3, n_permutations=32),
                                  RngStream(22))
        assert (att.values >= 0).all() and np.isfinite(att.values).all()

    def test_empty_sample_rejected(self):
        spec = tiny_spec_for(6, 3)
        params = build(spec, RngStream(23))
        empty = D.Dataset(X=np.zeros((0, 6, 1)), y=np.zeros(0, dtype=np.int64),
                          codec=D.LabelCodec.fit(["a", "b"]))
        with pytest.raises(ValueError, match="empty"):
            attribution_summary(params, spec, empty, ShapleySettings(), RngStream(24))
