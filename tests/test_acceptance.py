"""Acceptance suite: one test per exit criterion, each printing a PASS line
with its measured values. Criteria 7-9 share one synthetic benchmark (six
classes, 400 per majority class, 20 features, strong separation, 10:1
imbalance on two attack classes) trained through the CLI pipeline."""

import json
import time

import numpy as np
import pytest

from conftest import (check_layer_grads, check_model_grads, finite_diff_grad, grad_mismatch,
                      shapley_exact_small, shrink_variant, tiny_bigat_spec)
from bigatid import data as D
from bigatid import layers as L
from bigatid import metrics as M
from bigatid.cli import main
from bigatid.explain import shapley_permutation
from bigatid.model import (
    CheckpointChecksumError,
    bigat_spec,
    build,
    forward,
    load,
    param_manifest,
    param_total,
    predict,
    save,
    table5_variants,
)
from bigatid.numerics import RngStream, softmax_rows
from bigatid.training import cce_loss, focal_loss


def announce(criterion: int, message: str) -> None:
    print(f"[criterion {criterion:02d}] PASS — {message}")


# ---------------------------------------------------------------------------
# shared synthetic benchmark (criteria 6-9)
# ---------------------------------------------------------------------------

BENCH_ARGS = ["--synth-classes", "6", "--synth-per-class", "400",
              "--synth-seq-len", "20", "--synth-separation", "6.0",
              "--synth-imbalance", "1,0.1,0.1,1,1,1"]
BENCH_SEED = "11"
BENCH_EPOCHS = "15"
MINORITY_CLASSES = ("attack_01", "attack_02")


@pytest.fixture(scope="module")
def bench_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench_data")
    rc = main(["synth", "--synth", *BENCH_ARGS, "--seed", BENCH_SEED,
               "--out-dir", str(out), "--out", str(out / "bench.csv")])
    assert rc == 0
    return out / "bench.csv"


def _train_benchmark(tmp_path_factory, bench_csv, balancing: str) -> dict:
    out = tmp_path_factory.mktemp(f"bench_{balancing}")
    rc = main(["train", "--csv", str(bench_csv), "--seed", BENCH_SEED,
               "--out-dir", str(out), "--epochs", BENCH_EPOCHS,
               "--balancing", balancing, "--variant", "4"])
    assert rc == 0
    report = json.loads((out / "run_report.json").read_text())
    report["_out_dir"] = str(out)
    return report


@pytest.fixture(scope="module")
def balanced_run(tmp_path_factory, bench_csv):
    return _train_benchmark(tmp_path_factory, bench_csv, "ros")


@pytest.fixture(scope="module")
def unbalanced_run(tmp_path_factory, bench_csv):
    return _train_benchmark(tmp_path_factory, bench_csv, "none")


def _recall_of(report: dict, class_name: str) -> float:
    row = [r for r in report["eval"]["per_class"] if r["class"] == class_name][0]
    return row["recall"]


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_c01_parameter_golden():
    t0 = time.perf_counter()
    spec = bigat_spec(83, 6)
    total = param_total(spec)
    assert total == 978_470

    sums = {}
    for name, shape in param_manifest(spec):
        prefix = name.split(".fwd.")[0].split(".bwd.")[0] if (".fwd." in name or ".bwd." in name) \
            else name.rsplit(".", 1)[0]
        sums[prefix] = sums.get(prefix, 0) + int(np.prod(shape))
    expected = {
        "branch1.0_bigru": 2 * 12_864,
        "branch1.1_layer_norm": 256,
        "branch1.2_mha": 263_808,
        "branch2.0_lstm": 4_352,
        "head.0_dense": 682_048,
        "head.1_dense": 2_080,
        "head.2_dense": 198,
    }
    assert sums == expected
    assert sum(expected.values()) == 978_470
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    announce(1, f"param_total = 978,470 with exact component breakdown ({elapsed:.3f}s)")


def test_c02_shape_golden():
    t0 = time.perf_counter()
    spec = bigat_spec(83, 6)
    params = build(spec, RngStream(0))
    trace = []
    forward(params, spec, RngStream(1).normal(size=(4, 83, 1)), trace=trace)
    got = dict(trace)
    expected = {
        "input": (4, 83, 1),
        "branch1.0_bigru": (4, 83, 128),
        "branch1.1_layer_norm": (4, 83, 128),
        "branch1.2_mha": (4, 83, 128),
        "branch1.3_dropout": (4, 83, 128),
        "branch1.4_flatten": (4, 10_624),
        "branch2.0_lstm": (4, 32),
        "branch2.1_dropout": (4, 32),
        "concat": (4, 10_656),
        "head.0_dense": (4, 64),
        "head.1_dense": (4, 32),
        "head.2_dense": (4, 6),
    }
    assert got == expected
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    announce(2, f"forward on (4, 83, 1) reproduces every published output shape "
                f"({elapsed:.3f}s)")


def test_c03_gradient_suite():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = RngStream(seed)
        for act in ("none", "relu", "softmax"):
            p = L.DenseParams.init(rng, 5, 4)
            x = rng.normal(size=(3, 5))
            worst = max(worst, check_layer_grads(
                p, lambda p_, x_: L.dense_forward(p_, x_, act=act),
                L.dense_backward, x, rng))
        p = L.DenseParams.init(rng, 1, 3)
        worst = max(worst, check_layer_grads(
            p, L.time_dense_forward, L.time_dense_backward,
            rng.normal(size=(2, 4, 1)), rng))
        p = L.LayerNormParams(gamma=rng.normal(size=5), beta=rng.normal(size=5))
        worst = max(worst, check_layer_grads(
            p, lambda p_, x_: L.layer_norm_forward(p_, x_, eps=1e-3),
            L.layer_norm_backward, rng.normal(size=(2, 3, 5)), rng))
        for reverse in (False, True):
            p = L.GruParams.init(rng, 1, 4)
            worst = max(worst, check_layer_grads(
                p, lambda p_, x_: L.gru_sequence_forward(p_, x_, reverse=reverse),
                L.gru_sequence_backward, rng.normal(size=(2, 3, 1)), rng))
        p = L.LstmParams.init(rng, 1, 4)
        worst = max(worst, check_layer_grads(
            p, L.lstm_last_forward, L.lstm_last_backward,
            rng.normal(size=(2, 3, 1)), rng))
        p = L.LstmParams.init(rng, 1, 4)
        worst = max(worst, check_layer_grads(
            p, L.lstm_sequence_forward, L.lstm_sequence_backward,
            rng.normal(size=(2, 3, 1)), rng))
        p = L.MhaParams.init(rng, 6, 2, 3)
        worst = max(worst, check_layer_grads(
            p, lambda p_, x_: L.mha_self_forward(p_, x_, 2, 3),
            L.mha_self_backward, rng.normal(size=(1, 4, 6)), rng))

        # dropout backward against its cached mask, flatten/concat linearity
        x = rng.normal(size=(3, 4))
        y, mask = L.dropout_apply(x, 0.4, "train", rng.spawn(1))
        dy = rng.normal(size=(3, 4))
        dx = L.dropout_backward(mask, 0.4, dy)
        fd = finite_diff_grad(lambda v: float((np.where(mask, v, 0.0) / 0.6 * dy).sum()), x)
        worst = max(worst, grad_mismatch(dx, fd))
        x3 = rng.normal(size=(2, 3, 4))
        dyf = rng.normal(size=(2, 12))
        fd = finite_diff_grad(lambda v: float((L.flatten(v) * dyf).sum()), x3)
        worst = max(worst, grad_mismatch(L.flatten_backward(x3.shape, dyf), fd))

        # full dual-branch model on the tiny configuration
        worst = max(worst, check_model_grads(tiny_bigat_spec(), seed=seed))

    elapsed = time.perf_counter() - t0
    assert worst < 1e-4
    assert elapsed < 120.0
    announce(3, f"every layer and the full tiny model match finite differences, "
                f"20 seeds, worst rel err {worst:.2e} ({elapsed:.1f}s)")


def test_c04_metric_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for case in range(100):
        rng = RngStream(case)
        c = int(rng.integers(2, 7))
        n = int(rng.integers(5, 201))
        y_true = rng.integers(0, c, size=n)
        y_pred = rng.integers(0, c, size=n)
        probs = np.round(softmax_rows(rng.normal(size=(n, c))), 2)

        cm = M.confusion(y_true, y_pred, c)
        oracle_counts = np.zeros((c, c), dtype=np.int64)
        for yt, yp in zip(y_true, y_pred):
            oracle_counts[yt][yp] += 1
        assert np.array_equal(cm.counts, oracle_counts)

        report = M.class_report(cm)
        for k in range(c):
            tp = oracle_counts[k, k]
            fp = oracle_counts[:, k].sum() - tp
            fn = oracle_counts[k, :].sum() - tp
            tn = n - tp - fp - fn
            prec = tp / (tp + fp) if tp + fp else 0.0
            rec = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
            fpr = fp / (fp + tn) if fp + tn else 0.0
            worst = max(worst, abs(report.precision[k] - prec),
                        abs(report.recall[k] - rec), abs(report.f1[k] - f1),
                        abs(M.fpr_per_class(cm)[k] - fpr))
        worst = max(worst, abs(report.accuracy - np.trace(oracle_counts) / n))

        for k, curve in enumerate(M.roc_auc_ovr(y_true, probs)):
            pos = probs[y_true == k, k]
            neg = probs[y_true != k, k]
            if len(pos) == 0 or len(neg) == 0:
                assert curve.auc is None
                continue
            wins = ties = 0
            for sp in pos:
                wins += int((sp > neg).sum())
                ties += int((sp == neg).sum())
            oracle_auc = (wins + 0.5 * ties) / (len(pos) * len(neg))
            worst = max(worst, abs(curve.auc - oracle_auc))

    elapsed = time.perf_counter() - t0
    assert worst < 1e-12
    assert elapsed < 30.0
    announce(4, f"confusion/PRF/FPR/AUC match brute-force oracles on 100 instances, "
                f"worst dev {worst:.1e} ({elapsed:.1f}s)")


def test_c05_loss_identities():
    worst = 0.0
    for seed in range(20):
        rng = RngStream(seed)
        probs = softmax_rows(rng.normal(size=(6, 5)))
        onehot = D.one_hot(rng.integers(0, 5, size=6), 5)
        fl, fg = focal_loss(probs, onehot, gamma=0.0)
        cl, cg = cce_loss(probs, onehot)
        worst = max(worst, abs(fl - cl), float(np.abs(fg - cg).max()))
    assert worst < 1e-12

    uniform = np.full((4, 2), 0.5)
    onehot2 = D.one_hot(np.array([0, 1, 1, 0]), 2)
    loss, _ = cce_loss(uniform, onehot2)
    assert abs(loss - np.log(2.0)) < 1e-12
    announce(5, f"focal(gamma=0) == cce (worst dev {worst:.1e}); "
                f"uniform 2-class loss == ln 2")


def test_c06_balancing_properties(balanced_run):
    rng = RngStream(33)
    ds = D.synth_generate(5, 60, 10, 4.0, rng.spawn(0),
                          imbalance=[1.0, 0.2, 0.1, 1.0, 0.5])

    ros = D.ros_balance(ds, rng.spawn(1))
    assert len(set(ros.class_counts().tolist())) == 1
    for k in range(ds.n_classes):
        originals = {row.tobytes() for row in ds.features()[ds.y == k]}
        for row in ros.features()[ros.y == k]:
            assert row.tobytes() in originals

    sm = D.smote_balance(ds, rng.spawn(2), k=5)
    assert len(set(sm.class_counts().tolist())) == 1
    synth = sm.features()[len(ds):]
    synth_labels = sm.y[len(ds):]
    assert len(synth) >= 100
    for p, cls in zip(synth, synth_labels):
        members = ds.features()[ds.y == cls]
        best = np.inf
        for i in range(len(members)):
            ab = members - members[i]
            denom = (ab * ab).sum(axis=1)
            t = np.where(denom > 0, ((p - members[i]) @ ab.T) / np.where(denom > 0, denom, 1), 0)
            t = np.clip(t, 0.0, 1.0)
            proj = members[i] + t[:, None] * ab
            best = min(best, float(np.sqrt(((p - proj) ** 2).sum(axis=1)).min()))
        assert best < 1e-9

    # the pipeline's evaluation supports equal the untouched test split
    supports = [r["support"] for r in balanced_run["eval"]["per_class"]]
    assert supports == [8, 8, 80, 80, 80, 80]
    announce(6, "RoS emits only duplicated originals, SMOTE points sit on "
                "same-class segments (< 1e-9), test split untouched")


def test_c07_synthetic_benchmark(balanced_run, unbalanced_run):
    train_sec = balanced_run["timing"]["train_sec"]
    assert train_sec < 600.0
    best_val = max(r["val_acc"] for r in balanced_run["history"])
    assert len(balanced_run["history"]) <= 15
    assert best_val >= 0.95
    fpr = balanced_run["eval"]["fpr_macro"]
    assert fpr <= 0.02

    bal_minority = np.mean([_recall_of(balanced_run, c) for c in MINORITY_CLASSES])
    unb_minority = np.mean([_recall_of(unbalanced_run, c) for c in MINORITY_CLASSES])
    assert bal_minority >= unb_minority
    announce(7, f"variant #4 + RoS: best val acc {best_val:.4f} >= 0.95, macro FPR "
                f"{fpr:.4f} <= 0.02 in <= 15 epochs ({train_sec:.0f}s); minority recall "
                f"balanced {bal_minority:.3f} >= unbalanced {unb_minority:.3f}")


def test_c08_ablation_harness(tmp_path, bench_csv):
    out = tmp_path / "ablate"
    rc = main(["ablate", "--csv", str(bench_csv), "--seed", BENCH_SEED,
               "--out-dir", str(out), "--epochs", "1", "--balancing", "ros"])
    assert rc == 0
    rows = json.loads((out / "ablation.json").read_text())["rows"]
    assert len(rows) == 24
    assert sorted({r["variant"] for r in rows}) == list(range(1, 13))
    assert {r["setting"] for r in rows} == {"unbalanced", "balanced"}
    for row in rows:
        assert row["status"] == "ok", row
        for col in ("accuracy", "loss", "fpr"):
            assert row[col] is not None and np.isfinite(row[col])
        assert row["param_total"] > 0

    worst = 0.0
    for v in table5_variants(20, 6):
        worst = max(worst, check_model_grads(shrink_variant(v.spec), seed=v.id))
    assert worst < 1e-4
    announce(8, f"12 variants x 2 balancing settings trained and reported; all 12 "
                f"gradient-check at tiny size (worst rel err {worst:.1e})")


def test_c09_loao_protocol(tmp_path, bench_csv, balanced_run):
    out = tmp_path / "loao"
    rc = main(["loao", "--csv", str(bench_csv), "--seed", BENCH_SEED,
               "--out-dir", str(out), "--epochs", "10", "--balancing", "ros",
               "--sweep"])
    assert rc == 0
    results = json.loads((out / "loao_report.json").read_text())["results"]
    attack_classes = [f"attack_{i:02d}" for i in range(1, 6)]
    assert [r["held_out"] for r in results] == attack_classes

    benchmark_acc = balanced_run["eval"]["accuracy"]
    floor = benchmark_acc - 0.05
    for entry in results:
        assert entry["held_out_train_count"] == 0
        assert entry["held_out"] not in entry["retained_classes"]
        assert "zero_day_detection_rate" in entry
        assert "combined_accuracy_detection_counted" in entry
        assert entry["retained_accuracy"] >= floor, entry
    rates = {r["held_out"]: round(r["zero_day_detection_rate"], 3) for r in results}
    announce(9, f"LOAO sweep: zero held-out leakage, retained acc >= "
                f"{floor:.3f} for all folds; detection rates {rates}")


def test_c10_shapley_axioms():
    t0 = time.perf_counter()

    def surrogate(rows):
        rows = np.atleast_2d(rows)
        w = np.array([0.62, -0.27, 0.41, 0.93, -0.51, 0.18, -0.74, 0.35])
        return np.tanh(rows @ w * 0.5 + 0.15 * rows[:, 0] * rows[:, 1])

    rng = RngStream(0)
    x = rng.normal(size=8) + 1.0
    bg = np.zeros(8)
    exact = shapley_exact_small(surrogate, x, bg)
    gap = float(surrogate(x[None])[0] - surrogate(bg[None])[0])
    eff_dev = abs(exact.sum() - gap)
    assert eff_dev < 1e-9

    def symmetric(rows):
        rows = np.atleast_2d(rows)
        return rows[:, 0] * rows[:, 2] + rows[:, 1] * rows[:, 2]
    sym_vals = shapley_exact_small(symmetric, np.array([0.9, 0.9, -1.1]), np.zeros(3))
    sym_dev = abs(sym_vals[0] - sym_vals[1])
    assert sym_dev < 1e-9

    mc_err = 0.0
    for seed in range(3):
        mc = shapley_permutation(surrogate, x, bg, 5000, RngStream(seed))
        mc_err = max(mc_err, float(np.abs(mc - exact).max()))
    assert mc_err < 0.01 * abs(gap)

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    announce(10, f"efficiency dev {eff_dev:.1e}, symmetry dev {sym_dev:.1e}, "
                 f"MC-vs-exact {mc_err:.2e} < 1% of gap {abs(gap):.3f} ({elapsed:.1f}s)")


def test_c11_determinism_and_persistence(tmp_path):
    args = ["--synth", "--synth-classes", "3", "--synth-per-class", "40",
            "--synth-seq-len", "8", "--synth-separation", "6.0", "--seed", "21",
            "--epochs", "2", "--batch-size", "32", "--balancing", "smote"]
    for sub in ("a", "b"):
        assert main(["train", *args, "--out-dir", str(tmp_path / sub)]) == 0

    rep = {}
    for sub in ("a", "b"):
        rep[sub] = json.loads((tmp_path / sub / "run_report.json").read_text())
        rep[sub].pop("timing")
        rep[sub]["eval"].pop("inference")
        rep[sub]["eval"]["table_row"].pop("inference_sec_per_instance")
        rep[sub].pop("artifacts")
        rep[sub]["config"].pop("out_dir")
    assert rep["a"] == rep["b"]
    assert (tmp_path / "a" / "history.csv").read_bytes() == \
        (tmp_path / "b" / "history.csv").read_bytes()

    params, spec, _ = load(tmp_path / "a" / "checkpoint.bgid")
    x = RngStream(5).normal(size=(6, spec.seq_len, 1))
    before = predict(params, spec, x)
    save(params, spec, {"resaved": True}, tmp_path / "resaved.bgid")
    loaded, spec2, _ = load(tmp_path / "resaved.bgid")
    assert np.array_equal(before, predict(loaded, spec2, x))

    blob = bytearray((tmp_path / "resaved.bgid").read_bytes())
    blob[-3] ^= 0x08
    (tmp_path / "corrupt.bgid").write_bytes(bytes(blob))
    with pytest.raises(CheckpointChecksumError):
        load(tmp_path / "corrupt.bgid")
    announce(11, "identical config+seed reproduces History and EvalReport "
                 "bit-for-bit; checkpoints round-trip exactly and reject corruption")


def test_c12_reporting_parity(balanced_run, capsys):
    assert main(["inspect", "--variant", "4"]) == 0
    out = capsys.readouterr().out
    for token in ["Input", "BiGRU", "LayerNorm", "MHA", "Dropout", "Flatten",
                  "LSTM", "Concatenate", "Dense", "(None, 83, 1)", "(None, 83, 128)",
                  "(None, 10624)", "(None, 32)", "(None, 10656)", "(None, 64)",
                  "(None, 6)", "Total parameters: 978,470",
                  "Trainable parameters: 978,470", "Non-trainable parameters: 0",
                  "Connected to"]:
        assert token in out, token

    row = balanced_run["eval"]["table_row"]
    assert {"accuracy", "loss", "precision", "recall", "f1", "fpr",
            "inference_sec_per_instance"} == set(row)
    # timing is measured on this hardware and only required to exist and be
    # positive; no comparison against any published figure
    assert row["inference_sec_per_instance"] > 0
    announce(12, f"inspect table matches the published layout; report carries "
                 f"Acc/Loss/Pr/Rc/F1/FPR and measured "
                 f"{row['inference_sec_per_instance']:.2e} s/instance")
