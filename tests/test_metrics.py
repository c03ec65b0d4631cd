import numpy as np
import pytest

from conftest import tiny_bigat_spec
from bigatid import cli, metrics as M
from bigatid.model import build
from bigatid.numerics import RngStream, softmax_rows


def confusion_oracle(y_true, y_pred, c):
    """Per-pair tally, independent of the vectorized path."""
    out = np.zeros((c, c), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        out[t][p] += 1
    return out


def auc_pairwise_oracle(pos_scores, neg_scores):
    """AUC = P(score+ > score-) + 0.5 P(tie), by exhaustive comparison."""
    wins = ties = 0
    for sp in pos_scores:
        for sn in neg_scores:
            if sp > sn:
                wins += 1
            elif sp == sn:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos_scores) * len(neg_scores))


class TestConfusion:
    def test_perfect_is_diagonal(self):
        y = np.array([0, 1, 2, 2, 1, 0])
        cm = M.confusion(y, y, 3)
        assert np.array_equal(cm.counts, np.diag([2, 2, 2]))

    def test_published_benign_mqtt_pattern(self):
        # benign row: 98% diagonal, 2% misclassified into one attack class
        y_true = np.zeros(100, dtype=int)
        y_pred = np.zeros(100, dtype=int)
        y_pred[:2] = 4
        cm = M.confusion(y_true, y_pred, 6)
        row = cm.normalized_rows()[0]
        assert abs(row[0] - 0.98) < 1e-12 and abs(row[4] - 0.02) < 1e-12

    def test_matches_pair_counting_oracle(self):
        for seed in range(25):
            rng = RngStream(seed)
            c = int(rng.integers(2, 7))
            n = int(rng.integers(1, 200))
            y_true = rng.integers(0, c, size=n)
            y_pred = rng.integers(0, c, size=n)
            cm = M.confusion(y_true, y_pred, c)
            assert np.array_equal(cm.counts, confusion_oracle(y_true, y_pred, c))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            M.confusion(np.array([0, 3]), np.array([0, 0]), 3)

    def test_normalized_rows_sum_to_one(self):
        rng = RngStream(1)
        cm = M.confusion(rng.integers(0, 4, 50), rng.integers(0, 4, 50), 4)
        sums = cm.normalized_rows().sum(axis=1)
        present = cm.counts.sum(axis=1) > 0
        assert np.abs(sums[present] - 1.0).max() < 1e-12


class TestClassReport:
    def test_perfect_six_class(self):
        y = np.repeat(np.arange(6), 10)
        report = M.class_report(M.confusion(y, y, 6))
        assert np.abs(report.precision - 1.0).max() == 0.0
        assert np.abs(report.recall - 1.0).max() == 0.0
        assert np.abs(report.f1 - 1.0).max() == 0.0
        assert report.accuracy == 1.0

    def test_binary_hand_case(self):
        cm = M.ConfusionMatrix(counts=np.array([[98, 2], [0, 100]]))
        report = M.class_report(cm)
        assert abs(report.precision[1] - 100 / 102) < 1e-12
        assert report.recall[1] == 1.0
        f1 = 2 * (100 / 102) / (1 + 100 / 102)
        assert abs(report.f1[1] - f1) < 1e-12
        assert abs(report.accuracy - 198 / 200) < 1e-12

    def test_absent_class_flagged_zero(self):
        cm = M.confusion(np.array([0, 0, 1]), np.array([0, 0, 0]), 3)
        report = M.class_report(cm)
        assert report.recall[2] == 0.0 and report.precision[1] == 0.0
        assert "recall[2]" in report.undefined
        assert "precision[1]" in report.undefined
        assert "precision[2]" in report.undefined

    def test_undefined_scores_listed_by_class(self):
        # class 0 is predicted but never true, class 1 true but never predicted
        cm = M.confusion(np.array([1, 2, 2]), np.array([0, 2, 2]), 3)
        assert M.class_report(cm).undefined == ["recall[0]", "precision[1]"]

    def test_accuracy_equals_micro_recall_identity(self):
        for seed in range(10):
            rng = RngStream(seed)
            y_true = rng.integers(0, 5, 120)
            y_pred = rng.integers(0, 5, 120)
            cm = M.confusion(y_true, y_pred, 5)
            report = M.class_report(cm)
            micro_recall = cm.tp().sum() / cm.counts.sum()
            assert abs(report.accuracy - micro_recall) < 1e-12
            assert abs(report.accuracy - np.trace(cm.counts) / cm.total) < 1e-12

    def test_macro_f1_bounded_by_per_class(self):
        rng = RngStream(3)
        cm = M.confusion(rng.integers(0, 4, 80), rng.integers(0, 4, 80), 4)
        report = M.class_report(cm)
        assert report.f1.min() - 1e-12 <= report.macro_f1 <= report.f1.max() + 1e-12

    def test_weighted_is_support_weighted(self):
        rng = RngStream(4)
        cm = M.confusion(rng.integers(0, 3, 60), rng.integers(0, 3, 60), 3)
        report = M.class_report(cm)
        w = report.support / report.support.sum()
        assert abs(report.weighted_f1 - (report.f1 * w).sum()) < 1e-12

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            M.class_report(M.ConfusionMatrix(counts=np.zeros((3, 3), dtype=np.int64)))


class TestFpr:
    def test_perfect_is_zero(self):
        y = np.repeat(np.arange(4), 5)
        assert M.fpr_macro(M.confusion(y, y, 4)) == 0.0

    def test_binary_hand_case(self):
        cm = M.ConfusionMatrix(counts=np.array([[98, 2], [0, 100]]))
        per = M.fpr_per_class(cm)
        assert per[0] == 0.0 and abs(per[1] - 0.02) < 1e-12
        assert abs(M.fpr_macro(cm) - 0.01) < 1e-12

    def test_all_one_class_predictor_on_balanced_data(self):
        y_true = np.array([0] * 50 + [1] * 50)
        y_pred = np.zeros(100, dtype=int)
        assert abs(M.fpr_macro(M.confusion(y_true, y_pred, 2)) - 0.5) < 1e-12

    def test_micro_vs_macro_both_emitted(self):
        rng = RngStream(5)
        cm = M.confusion(rng.integers(0, 3, 90), rng.integers(0, 3, 90), 3)
        assert 0.0 <= M.fpr_micro(cm) <= 1.0
        assert 0.0 <= M.fpr_macro(cm) <= 1.0


class TestRocAuc:
    def test_perfect_separation_auc_one(self):
        y = np.repeat(np.arange(3), 4)
        probs = np.full((12, 3), 0.05)
        probs[np.arange(12), y] = 0.9
        for curve in M.roc_auc_ovr(y, probs):
            assert curve.auc == 1.0

    def test_constant_scores_auc_half(self):
        y = np.array([0, 1, 0, 1])
        probs = np.full((4, 2), 0.5)
        for curve in M.roc_auc_ovr(y, probs):
            assert abs(curve.auc - 0.5) < 1e-12

    def test_six_point_hand_case(self):
        y = np.array([1, 0, 1, 0, 1, 0])
        scores = np.array([0.9, 0.8, 0.8, 0.3, 0.2, 0.1])
        probs = np.stack([1 - scores, scores], axis=1)
        curve = M.roc_auc_ovr(y, probs)[1]
        oracle = auc_pairwise_oracle(scores[y == 1], scores[y == 0])
        assert abs(curve.auc - oracle) < 1e-12

    def test_matches_pairwise_oracle_randomized(self):
        for seed in range(30):
            rng = RngStream(seed)
            c = int(rng.integers(2, 7))
            n = int(rng.integers(5, 200))
            y = rng.integers(0, c, size=n)
            # quantized scores force plenty of ties
            probs = np.round(softmax_rows(rng.normal(size=(n, c))), 2)
            for k, curve in enumerate(M.roc_auc_ovr(y, probs)):
                pos = probs[y == k, k]
                neg = probs[y != k, k]
                if len(pos) == 0 or len(neg) == 0:
                    assert curve.auc is None
                    continue
                assert abs(curve.auc - auc_pairwise_oracle(pos, neg)) < 1e-12

    def test_curve_monotone_from_origin_to_one(self):
        rng = RngStream(6)
        y = rng.integers(0, 3, 60)
        probs = softmax_rows(rng.normal(size=(60, 3)))
        for curve in M.roc_auc_ovr(y, probs):
            assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
            assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
            assert (np.diff(curve.fpr) >= 0).all()
            assert (np.diff(curve.tpr) >= 0).all()

    def test_absent_class_reported_absent(self):
        y = np.array([0, 0, 1, 1])
        probs = softmax_rows(RngStream(7).normal(size=(4, 3)))
        curves = M.roc_auc_ovr(y, probs)
        assert curves[2].auc is None and not curves[2].defined
        assert curves[0].auc is not None


class TestBench:
    def setup_method(self):
        self.spec = tiny_bigat_spec()
        self.params = build(self.spec, RngStream(8))
        self.x = RngStream(9).normal(size=(16, 6, 1))

    def test_zero_repeats_rejected(self):
        with pytest.raises(ValueError):
            M.inference_bench(self.params, self.spec, self.x, repeats=0)

    def test_batch_size_does_not_change_predictions(self):
        from bigatid.training import batched_probs
        a = batched_probs(self.params, self.spec, self.x, batch_size=4)
        b = batched_probs(self.params, self.spec, self.x, batch_size=16)
        assert np.abs(a - b).max() < 1e-12

    def test_stats_positive_and_complete(self):
        from bigatid.training import batched_probs
        probs, stats = M.inference_bench(self.params, self.spec, self.x, warmup=1, repeats=3)
        assert np.array_equal(probs, batched_probs(self.params, self.spec, self.x, 256))
        assert stats.mean_sec_per_instance > 0
        assert stats.median_sec_per_instance > 0
        assert stats.p95_sec_per_instance > 0
        assert stats.repeats == 3 and stats.n_instances == 16


class TestEvalReport:
    def test_json_layout(self):
        rng = RngStream(10)
        y = rng.integers(0, 3, 40)
        probs = softmax_rows(rng.normal(size=(40, 3)))
        report = M.evaluate_probs(probs, y, ["a", "b", "c"], loss=0.5)
        d = report.to_json_dict()
        assert {"per_class", "accuracy", "macro_avg", "weighted_avg", "loss",
                "fpr_macro", "fpr_micro", "confusion", "confusion_normalized",
                "table_row", "inference"} <= set(d)
        assert {"accuracy", "loss", "precision", "recall", "f1", "fpr",
                "inference_sec_per_instance"} == set(d["table_row"])
        assert [r["class"] for r in d["per_class"]] == ["a", "b", "c"]

    def test_roc_csv_export(self, tmp_path, monkeypatch):
        synth = ["--synth", "--synth-classes", "3", "--synth-per-class", "20",
                 "--synth-seq-len", "8", "--seed", "11"]
        assert cli.main(["train", *synth, "--epochs", "1", "--out-dir", str(tmp_path)]) == 0
        reports, evaluate_model = [], cli.evaluate_model

        def recording(*args):
            reports.append(evaluate_model(*args))
            return reports[-1]

        monkeypatch.setattr(cli, "evaluate_model", recording)
        assert cli.main(["evaluate", "--checkpoint", str(tmp_path / "checkpoint.bgid"),
                         *synth, "--out-dir", str(tmp_path / "ev")]) == 0
        (report,) = reports
        for curve, name in zip(report.roc, report.class_names):
            lines = (tmp_path / "ev" / f"roc_{name}.csv").read_text().strip().splitlines()
            assert lines[0] == "fpr,tpr"
            assert len(lines) == len(curve.fpr) + 1
