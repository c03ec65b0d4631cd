"""Workload process of the benchmark: set-up, the timed closed loop, the
correctness checks and, with --trace 1, the traced repeat.

Started by run.py with the BLAS thread count already fixed in the
environment; reads the inputs that inputs.py wrote. The last line of stdout
is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import reference
from inputs import N_CLASSES, WORKLOADS, sizes_for
from tracer import SETUP_OP, Tracer

SETUPS = 3            # set-up is repeated and its median reported
MIN_OPS = 3
FINISH_OP = -2        # trace phase of the end-of-run work (detect_t83's evaluate_probs)
CHECK_OP = -3         # trace phase of the per-op checks

REF_TOL = 1e-10       # library forward vs plain-numpy reference, float64 probabilities
BATCH_TOL = 1e-12     # batch-1 vs batch-256 probabilities of the same flow
SUM_TOL = 1e-12       # probability rows sum to 1
EFFICIENCY_TOL = 1e-9 # Shapley efficiency: sum of values vs f(x) - f(background mean)
LEARNING_RATE = 1e-4  # full-batch Adam steps small enough that the loss falls
FD_STEP = 1e-5
FD_TOL = 1e-6         # relative, directional finite difference vs model.backward
SEGMENT_TOL = 1e-9    # SMOTE rows: distance to the nearest same-class segment

FORWARD_LAYERS = (
    "model.forward", "layers.gru_sequence_forward", "layers.lstm_sequence_forward",
    "layers.mha_self_forward", "layers.layer_norm_forward", "layers.dense_forward",
    "layers.dropout_apply", "numerics.sigmoid", "numerics.softmax_rows",
)
TRAIN_LAYERS = FORWARD_LAYERS + (
    "model.backward", "training.cce_loss", "training.adam_step", "training.batched_probs",
    "layers.gru_sequence_backward", "layers.lstm_sequence_backward",
    "layers.mha_self_backward", "layers.layer_norm_backward", "layers.dense_backward",
)
INGEST_STAGES = (
    "data.load_csv", "data.clean", "data.encode", "data.to_sequences",
    "data.stratified_split", "data.fit_scaler", "data.apply_scaler", "data.smote_balance",
)


def codec_for(lib):
    return lib.data.LabelCodec.fit([f"c{k}" for k in range(N_CLASSES)])


# ---------------------------------------------------------------------------
# workloads: setup() is timed as set-up, op(i) is the timed operation,
# check_op(i, out) and finish(outputs) are untimed checks.
# ---------------------------------------------------------------------------

class TrainT83:
    """One `training.train` epoch at batch 128 per op, continuing from the
    previous op's parameters. Item: one training sample."""

    layers = {"op": TRAIN_LAYERS}
    keep_outputs = True

    def __init__(self, lib, inputs: Path, sz: dict, seed: int):
        self.lib, self.sz, self.seed = lib, sz, seed
        d = np.load(inputs / "data.npz")
        codec = codec_for(lib)
        self.train_ds = lib.data.Dataset(X=d["x_train"], y=d["y_train"], codec=codec)
        self.val_ds = lib.data.Dataset(X=d["x_val"], y=d["y_val"], codec=codec)
        self.ckpt = inputs / "init.bgid"
        self.items_per_op = len(self.train_ds)
        self.steps_per_op = math.ceil(len(self.train_ds) / sz["batch"])

    def setup(self):
        self.params, stored, _ = self.lib.model.load(self.ckpt)
        self.spec = self.lib.model.bigat_spec(self.sz["seq_len"], N_CLASSES)
        if stored != self.spec:
            raise RuntimeError("train checkpoint does not hold the canonical spec")
        self.op(SETUP_OP)

    def op(self, i):
        cfg = self.lib.training.TrainConfig(epochs=1, batch_size=self.sz["batch"],
                                            learning_rate=LEARNING_RATE,
                                            seed=self.seed * 1_000_003 + i + 1)
        self.params, history = self.lib.training.train(
            self.spec, self.train_ds, self.val_ds, cfg, init_params=self.params)
        return history

    def check_op(self, i, history):
        fails = []
        if history.total_steps != self.steps_per_op:
            fails.append(f"History.total_steps {history.total_steps} != steps attempted "
                         f"{self.steps_per_op}")
        if len(history.rows) != 1 or not math.isfinite(history.rows[0].train_loss):
            fails.append("epoch row missing or non-finite training loss")
        return fails

    def _loss(self, params):
        """Mean cross-entropy on the training set, eval mode, by the reference forward."""
        probs = reference.forward(params, self.train_ds.X)
        return float(-np.log(probs[np.arange(len(probs)), self.train_ds.y]).mean())

    def start(self):
        self.loss_before = self._loss(self.lib.model.load(self.ckpt)[0])

    def finish(self, outputs):
        checks = []
        loss_after = self._loss(self.params)
        checks.append(("training loss falls from the initial checkpoint to the end of the run",
                       loss_after < self.loss_before,
                       f"{self.loss_before:.6f} -> {loss_after:.6f}"))
        finite = all(np.isfinite(a).all() for a in self.params.values())
        checks.append(("parameters stay finite", finite, ""))
        steps = sum(h.total_steps for h in outputs.values())
        checks.append(("History.total_steps sum equals steps attempted",
                       steps == self.steps_per_op * len(outputs),
                       f"{steps} vs {self.steps_per_op * len(outputs)}"))
        checks.append(self._fd_check())
        return checks, set()

    def _fd_check(self):
        """Directional finite difference of the training loss against
        model.backward, with the same dropout stream on every evaluation."""
        lib = self.lib
        rng = np.random.default_rng([self.seed, 11])
        xb, yb = self.train_ds.X[:4], self.train_ds.y[:4]
        params = {k: v.copy() for k, v in self.params.items()}
        u = {k: rng.standard_normal(v.shape) for k, v in params.items()}
        norm = math.sqrt(sum(float((a * a).sum()) for a in u.values()))
        u = {k: a / norm for k, a in u.items()}

        def loss(p):
            probs, caches = lib.model.forward(p, self.spec, xb, mode="train",
                                              rng=lib.numerics.RngStream(self.seed + 17))
            return float(-np.log(probs[np.arange(len(yb)), yb]).mean()), probs, caches

        _, probs, caches = loss(params)
        dprobs = np.zeros_like(probs)
        dprobs[np.arange(len(yb)), yb] = -1.0 / (len(yb) * probs[np.arange(len(yb)), yb])
        grads = lib.model.backward(params, self.spec, caches, dprobs)
        analytic = sum(float((grads[k] * u[k]).sum()) for k in params)
        plus = loss({k: v + FD_STEP * u[k] for k, v in params.items()})[0]
        minus = loss({k: v - FD_STEP * u[k] for k, v in params.items()})[0]
        numeric = (plus - minus) / (2 * FD_STEP)
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)
        return ("directional finite difference of model.backward", err < FD_TOL,
                f"analytic {analytic:.9e} numeric {numeric:.9e} rel err {err:.2e}")


class DetectT83:
    """`model.predict` on one batch of 256 flows per op, from a checkpoint
    loaded in set-up. Item: one flow classified."""

    layers = {"op": FORWARD_LAYERS, "setup": ("model.load",),
              "finish": ("metrics.evaluate_probs",)}
    keep_outputs = True

    def __init__(self, lib, inputs: Path, sz: dict, seed: int):
        self.lib, self.sz = lib, sz
        d = np.load(inputs / "data.npz")
        self.x, self.y, self.ref_rows = d["x"], d["y"], d["ref_rows"]
        self.ckpt = inputs / "detect.bgid"
        self.items_per_op = sz["batch"]
        self.min_ops = sz["n_batches"]     # every batch is predicted at least once

    def _batch(self, i):
        b = max(i, 0) % self.sz["n_batches"]
        return slice(b * self.sz["batch"], (b + 1) * self.sz["batch"])

    def setup(self):
        self.params, stored, _ = self.lib.model.load(self.ckpt)
        self.spec = self.lib.model.bigat_spec(self.sz["seq_len"], N_CLASSES)
        if stored != self.spec:
            raise RuntimeError("detect checkpoint does not hold the canonical spec")
        self.op(SETUP_OP)

    def op(self, i):
        return self.lib.model.predict(self.params, self.spec, self.x[self._batch(i)])

    def check_op(self, i, probs):
        if probs.shape != (self.sz["batch"], N_CLASSES) or not np.isfinite(probs).all():
            return [f"bad probabilities, shape {probs.shape}"]
        if np.abs(probs.sum(axis=1) - 1.0).max() > SUM_TOL or probs.min() < 0:
            return ["a probability row does not sum to 1"]
        return []

    def start(self):
        pass

    def finish(self, outputs):
        checks, failed = [], set()
        first_op = {}
        for i in outputs:
            first_op.setdefault(self._batch(i).start, i)
        for r in self.ref_rows:
            start = (r // self.sz["batch"]) * self.sz["batch"]
            i = first_op[start]
            got = outputs[i][r - start]
            ref = reference.forward(self.params, self.x[r:r + 1])[0]
            single = self.lib.model.predict(self.params, self.spec, self.x[r:r + 1])[0]
            ref_err, batch_err = np.abs(got - ref).max(), np.abs(got - single).max()
            if ref_err > REF_TOL or batch_err > BATCH_TOL:
                failed.add(i)
            checks.append((f"flow {r}: reference forward and batch-1 agree",
                           ref_err <= REF_TOL and batch_err <= BATCH_TOL,
                           f"ref err {ref_err:.1e}, batch-1 err {batch_err:.1e}"))
        probs = np.concatenate([outputs[i] for i in sorted(outputs)])
        y = np.concatenate([self.y[self._batch(i)] for i in sorted(outputs)])
        loss = float(-np.log(probs[np.arange(len(y)), y]).mean())
        report = self.lib.metrics.evaluate_probs(probs, y, [f"c{k}" for k in range(N_CLASSES)],
                                                 loss)
        counts = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
        np.add.at(counts, (y, probs.argmax(axis=1)), 1)
        checks.append(("evaluate_probs confusion and accuracy match a direct count",
                       np.array_equal(np.asarray(report.cm.counts), counts)
                       and abs(report.accuracy - float(np.trace(counts)) / len(y)) < 1e-12,
                       f"{len(y)} predictions"))
        return checks, failed


class IngestCsv:
    """One raw flow CSV turned into a balanced, model-ready train/test pair
    per op. Item: one CSV row read."""

    layers = {"op": INGEST_STAGES}
    keep_outputs = False

    def __init__(self, lib, inputs: Path, sz: dict, seed: int):
        self.lib, self.sz, self.seed = lib, sz, seed
        self.path = inputs / "flows.csv"
        t = np.load(inputs / "truth.npz")
        self.truth = {k: t[k] for k in t.files}
        self.items_per_op = int(self.truth["rows"])
        expected = self.truth["numeric"].copy()
        for k, j in enumerate(self.truth["categorical_columns"]):
            col = self.truth["categorical"][:, k]
            rank = {v: r for r, v in enumerate(sorted(set(col.tolist())))}
            expected[:, j] = [rank[v] for v in col.tolist()]
        self.expected = expected
        names = self.truth["labels"].tolist()
        rank = {v: r for r, v in enumerate(sorted(set(names)))}
        self.expected_labels = np.array([rank[v] for v in names])

    def setup(self):
        self.op(SETUP_OP)

    def op(self, i):
        D, RngStream = self.lib.data, self.lib.numerics.RngStream
        table = D.load_csv(self.path)
        table, drops = D.clean(table)
        feats, labels, codec = D.encode(table)
        ds = D.Dataset(X=D.to_sequences(feats), y=labels, codec=codec)
        train, test = D.stratified_split(ds, 0.8, RngStream(self.seed).spawn(i + 1, 0))
        scaler = D.fit_scaler(train.features())

        def scaled(part):
            return D.Dataset(X=D.to_sequences(D.apply_scaler(scaler, part.features())),
                             y=part.y, codec=codec)

        train_s, test_s = scaled(train), scaled(test)
        balanced = D.smote_balance(train_s, RngStream(self.seed).spawn(i + 1, 1), k=5)
        return {"drops": drops, "feats": feats, "labels": labels, "ds": ds, "train": train,
                "test": test, "train_s": train_s, "test_s": test_s, "balanced": balanced}

    def check_op(self, i, o):
        fails = []
        t = self.truth
        if o["drops"] != {"dropped_invalid": int(t["dropped_invalid"]),
                          "dropped_duplicate": int(t["dropped_duplicate"])}:
            fails.append(f"drop counts {o['drops']}")
        if o["feats"].shape != self.expected.shape or not np.array_equal(o["feats"],
                                                                        self.expected):
            fails.append("parsed values or categorical codes differ from the generator's")
        if not np.array_equal(o["labels"], self.expected_labels):
            fails.append("labels differ from the generator's")
        fails += self._split_checks(o["ds"], o["train"], o["test"])
        fails += self._scale_checks(o["train_s"], o["test_s"])
        fails += self._smote_checks(i, o["train_s"], o["balanced"])
        return fails

    def _split_checks(self, ds, train, test):
        rows = {r.tobytes() for r in ds.features()}
        tr = [r.tobytes() for r in train.features()]
        te = [r.tobytes() for r in test.features()]
        fails = []
        if set(tr) & set(te) or len(set(tr)) + len(set(te)) != len(rows) \
                or set(tr) | set(te) != rows:
            fails.append("split is not a disjoint partition of the cleaned rows")
        n_k = np.bincount(ds.y, minlength=N_CLASSES)
        tr_k = np.bincount(train.y, minlength=N_CLASSES)
        if (np.abs(tr_k - 0.8 * n_k) > 1).any() or (tr_k < 1).any() or (n_k - tr_k < 1).any():
            fails.append(f"split is not stratified: train {tr_k.tolist()} of {n_k.tolist()}")
        return fails

    def _scale_checks(self, train_s, test_s):
        f, g = train_s.features(), test_s.features()
        fails = []
        if f.min() < 0 or f.max() > 1 or g.min() < 0 or g.max() > 1:
            fails.append("scaled features outside [0, 1]")
        lo, hi = f.min(axis=0), f.max(axis=0)
        varying = hi > lo
        if not ((lo[varying] == 0.0).all() and (hi[varying] == 1.0).all()):
            fails.append("a non-constant training column does not reach both 0 and 1")
        return fails

    def _smote_checks(self, i, train_s, bal):
        counts = bal.class_counts()
        n = len(train_s)
        if (counts != counts.max()).any():
            return [f"class counts after SMOTE not equal: {counts.tolist()}"]
        if not np.array_equal(bal.X[:n], train_s.X) or not np.array_equal(bal.y[:n], train_s.y):
            return ["SMOTE did not keep the training rows"]
        rng = np.random.default_rng([self.seed, 5, i + 1])
        feats = train_s.features()
        for s in rng.choice(np.arange(n, len(bal)), size=min(self.sz["segment_samples"],
                                                              len(bal) - n), replace=False):
            members = feats[train_s.y == bal.y[s]]
            if _segment_distance(bal.features()[s], members) > SEGMENT_TOL:
                return [f"synthetic row {s} is not on a segment between same-class rows"]
        return []

    def start(self):
        pass

    def finish(self, outputs):
        return [], set()


def _segment_distance(s, members):
    """Smallest distance from s to a segment [a, b] between two member rows."""
    best = np.inf
    for a in members:
        d = members - a
        v = s - a
        dd = (d * d).sum(axis=1)
        lam = np.clip(np.divide(d @ v, dd, out=np.zeros_like(dd), where=dd > 0), 0.0, 1.0)
        best = min(best, float(np.sqrt(((v - lam[:, None] * d) ** 2).sum(axis=1)).min()))
    return best


class ExplainT20:
    """`explain.attribution_summary` over a small evaluation sample, every row
    explained, per op. Item: one instance explained."""

    layers = {"op": ("explain.shapley_permutation",) + FORWARD_LAYERS}
    keep_outputs = False

    def __init__(self, lib, inputs: Path, sz: dict, seed: int):
        self.lib, self.sz, self.seed = lib, sz, seed
        d = np.load(inputs / "data.npz")
        codec = codec_for(lib)
        self.eval_ds = lib.data.Dataset(X=d["x_eval"], y=d["y_eval"], codec=codec)
        self.bg_ds = lib.data.Dataset(X=d["x_background"],
                                      y=np.zeros(len(d["x_background"]), dtype=np.int64),
                                      codec=codec)
        self.bg_mean = d["x_background"][:, :, 0].mean(axis=0)
        self.ckpt = inputs / "explain.bgid"
        self.items_per_op = len(self.eval_ds)

    def setup(self):
        self.params, stored, _ = self.lib.model.load(self.ckpt)
        self.spec = self.lib.model.bigat_spec(self.sz["seq_len"], N_CLASSES)
        if stored != self.spec:
            raise RuntimeError("explain checkpoint does not hold the T=20 canonical spec")
        self.op(SETUP_OP)

    def op(self, i):
        E = self.lib.explain
        settings = E.ShapleySettings(n_instances=len(self.eval_ds),
                                     n_permutations=self.sz["permutations"], batch_size=2048)
        return E.attribution_summary(self.params, self.spec, self.eval_ds, settings,
                                     self.lib.numerics.RngStream(self.seed).spawn(i + 1),
                                     background=self.bg_ds)

    def start(self):
        self.fx = reference.forward(self.params, self.eval_ds.X)
        self.fbg = reference.forward(self.params, self.bg_mean[None, :, None])[0]
        self.lower = np.abs(self.fx - self.fbg).mean(axis=0)

    def check_op(self, i, attr):
        v = attr.values
        if v.shape != (self.sz["seq_len"], N_CLASSES) or not np.isfinite(v).all() or v.min() < 0:
            return [f"bad attribution values, shape {v.shape}"]
        if attr.n_instances != len(self.eval_ds):
            return [f"{attr.n_instances} instances explained of {len(self.eval_ds)}"]
        short = v.sum(axis=0) - self.lower
        if short.min() < -EFFICIENCY_TOL:
            return [f"sum of mean |value| below mean |f(x) - f(bg)| by {-short.min():.2e}"]
        return []

    def finish(self, outputs):
        E = self.lib.explain
        x = self.eval_ds.features()[0]
        phi = E.shapley_permutation(E.model_value_fn(self.params, self.spec), x, self.bg_mean,
                                    self.sz["check_permutations"],
                                    self.lib.numerics.RngStream(self.seed).spawn(0, 9))
        gap = np.abs(phi.sum(axis=0) - (self.fx[0] - self.fbg)).max()
        return [("shapley_permutation efficiency: sum = f(x) - f(background mean)",
                 gap <= EFFICIENCY_TOL, f"max gap {gap:.1e}")], set()


CLASSES = {"train_t83": TrainT83, "detect_t83": DetectT83,
           "ingest_csv": IngestCsv, "explain_t20": ExplainT20}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def run_ops(wl, seconds: float, tracer: Tracer | None = None):
    """Closed loop with one caller until the ops' summed wall time reaches
    `seconds`. Checks run between ops, outside the timed region."""
    min_ops = max(MIN_OPS, getattr(wl, "min_ops", 0))
    times, outputs, failed, notes = [], {}, set(), []
    i = 0
    while sum(times) < seconds or len(times) < min_ops:
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out = wl.op(i)
        except Exception:  # an op that raises counts as failed; the run goes on
            times.append(time.perf_counter() - t0)
            failed.add(i)
            notes.append(f"op {i} raised:\n{traceback.format_exc()}")
            i += 1
            continue
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.op = CHECK_OP
        fails = wl.check_op(i, out)
        if fails:
            failed.add(i)
            notes += [f"op {i}: {f}" for f in fails]
        if wl.keep_outputs:
            outputs[i] = out
        i += 1
    return times, outputs, failed, notes


def percentile_line(times_ms):
    """Highest whole percentile with at least ten samples beyond it (n >= 40)."""
    n = len(times_ms)
    if n < 40:
        return None
    q = math.floor(100 * (1 - 10 / n))
    return f"op_ms.p{q} {np.percentile(times_ms, q):.3f} ms (n={n})"


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy without mode="dicts"
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    sz = sizes_for(args.workload, args.smoke)
    print("machine " + " ".join(f"{k}={v}" for k, v in machine_facts().items()))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} smoke {int(args.smoke)} sizes {json.dumps(sz)}")

    t0 = time.perf_counter()
    import bigatid
    import bigatid.data, bigatid.explain, bigatid.metrics, bigatid.training  # noqa: E401,F401
    import_s = time.perf_counter() - t0
    src = Path(bigatid.__file__).resolve().parents[1]
    if src != Path(__file__).resolve().parents[1] / "src":
        print(f"bigatid was imported from {src}, not from this checkout", file=sys.stderr)
        return 2
    print(f"library {src}")

    wl = CLASSES[args.workload](bigatid, Path(args.inputs), sz, args.seed)
    setups = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        wl.setup()
        setups.append(import_s + time.perf_counter() - t0)
    wl.start()

    times, outputs, failed, notes = run_ops(wl, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checks, failed_by_finish = wl.finish(outputs)
    failed |= failed_by_finish
    attempted = len(times)

    times_ms = [t * 1e3 for t in times]
    op_p50 = statistics.median(times_ms)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "op_ms.p50": {"value": op_p50, "unit": "ms"},
        "throughput_per_s": {"value": wl.items_per_op * (attempted - len(failed)) / sum(times),
                             "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    print(f"set-up runs (s): {', '.join(f'{s:.4f}' for s in setups)}  (import {import_s:.4f})")
    print(f"ops attempted {attempted} failed {len(failed)} samples {attempted} "
          f"items/op {wl.items_per_op}")
    line = percentile_line(times_ms)
    if line:
        print(line)
    for name, passed, detail in checks:
        print(f"check {'PASS' if passed else 'FAIL'} {name} {detail}")
    for note in notes:
        print(f"check FAIL {note}")
    correct = all(passed for _, passed, _ in checks)
    n_failed = len(failed)

    if args.trace:
        metrics, t_attempted, t_failed, t_correct = traced_run(wl, args, op_p50)
        attempted += t_attempted
        n_failed += t_failed
        correct = correct and t_correct

    if not args.trace:
        for name, m in metrics.items():
            print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": n_failed,
                      "metrics": metrics}))
    return 0


def layer_metric_names() -> dict:
    """Every per-layer metric of the benchmark, over all workloads: name -> unit."""
    names = {}
    for cls in CLASSES.values():
        for phase, fns in cls.layers.items():
            for fn in fns:
                names[f"{fn}.ms"] = "ms"
                if phase != "setup":
                    names[f"{fn}.calls"] = "count"
                if fn.startswith("data."):
                    names[f"{fn}.peak_mb"] = "MB"
    names["explain.rows_evaluated"] = "count"
    names["trace.overhead_ms"] = "ms"
    names["trace.missing"] = "count"
    return names


def traced_run(wl, args, untraced_p50):
    """Repeats the workload on the same inputs with every public function of
    the measured modules wrapped in a span; per-layer metrics per op."""
    import bigatid

    counters = {"model.forward": ("rows", lambda a, kw: len(kw.get("x", a[2] if len(a) > 2
                                                                     else ())))}
    tracer = Tracer(bigatid, arg_counters=counters)
    with tracer:
        tracer.op = SETUP_OP
        wl.setup()
        tracer.op = CHECK_OP
        wl.start()
        times, outputs, failed, notes = run_ops(wl, args.seconds, tracer)
        tracer.op = FINISH_OP
        checks, failed_by_finish = wl.finish(outputs)
    # Memory is traced in a short phase of its own: tracemalloc slows every
    # allocation, so it would inflate the self times above.
    memory, m_times, m_failed = Tracer(bigatid, memory=True), [], set()
    if any(fn.startswith("data.") for fns in wl.layers.values() for fn in fns):
        with memory:
            m_times, _, m_failed, m_notes = run_ops(wl, 0.0, memory)
        notes += m_notes
    peaks = memory.per_op()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    span_file = out_dir / f"spans-{args.workload}.jsonl"
    tracer.write(span_file)

    table = tracer.per_op()
    ops = range(len(times))
    values = {name: 0.0 for name in layer_metric_names()}
    missing = []
    for phase, fns in wl.layers.items():
        for fn in fns:
            if fn not in tracer.wrapped:
                missing.append(fn)
                continue
            if phase == "op":
                rows = [table[i].get(fn, [0.0, 0, 0.0]) for i in ops]
            else:
                rows = [table[SETUP_OP if phase == "setup" else FINISH_OP].get(fn, [0.0, 0, 0.0])]
            values[f"{fn}.ms"] = statistics.median(r[0] for r in rows)
            if phase != "setup":
                values[f"{fn}.calls"] = statistics.median(r[1] for r in rows)
            if fn.startswith("data."):
                values[f"{fn}.peak_mb"] = statistics.median(
                    peaks[i].get(fn, [0.0, 0, 0.0])[2] for i in range(len(m_times)))
    if args.workload == "explain_t20":
        values["explain.rows_evaluated"] = statistics.median(
            tracer.counters[(i, "rows")] for i in ops) / wl.items_per_op
    traced_p50 = statistics.median(t * 1e3 for t in times)
    values["trace.overhead_ms"] = traced_p50 - untraced_p50
    values["trace.missing"] = float(len(missing))

    print(f"traced ops {len(times)}, spans {len(tracer.spans)} -> {span_file}")
    units = layer_metric_names()
    print(f"{'per-layer metric':<44}{'value':>14}  unit   phase")
    shown = [(f"{fn}.{suffix}", phase) for phase, fns in wl.layers.items() for fn in fns
             for suffix in ("ms", "calls", "peak_mb") if f"{fn}.{suffix}" in values]
    if args.workload == "explain_t20":
        shown.append(("explain.rows_evaluated", "op"))
    for key, phase in shown:
        fn = key.rsplit(".", 1)[0]
        text = "MISSING" if fn in missing else f"{values[key]:.4f}"
        print(f"  {key:<42}{text:>14}  {units[key]:<6} {phase}")
    print(f"trace overhead: traced op_ms.p50 {traced_p50:.3f} - untraced {untraced_p50:.3f} "
          f"= {values['trace.overhead_ms']:.3f} ms")
    for note in notes:
        print(f"check FAIL traced {note}")
    for name, passed, detail in checks:
        if not passed:
            print(f"check FAIL traced {name} {detail}")
    return ({k: {"value": float(v), "unit": units[k]} for k, v in values.items()},
            len(times) + len(m_times), len(failed | failed_by_finish) + len(m_failed),
            all(p for _, p, _ in checks))


if __name__ == "__main__":
    sys.exit(main())
