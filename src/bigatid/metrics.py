"""Evaluation quantities for the classifier: confusion matrix (raw and
row-normalized), per-class/macro/weighted precision-recall-F1, accuracy,
one-vs-rest FPR and ROC/AUC with tie-grouped threshold sweeps, loss, and
per-instance inference timing."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .model import VariantSpec
from .training import batched_probs


def _ratio(num, den) -> np.ndarray:
    """num / den elementwise, 0 where den is 0."""
    return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)


@dataclass
class ConfusionMatrix:
    """c x c counts; rows are true classes, columns predicted."""

    counts: np.ndarray

    @property
    def n_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def normalized_rows(self) -> np.ndarray:
        """Each row divided by its sum; rows of absent classes stay zero."""
        return _ratio(self.counts, self.counts.sum(axis=1, keepdims=True))

    def tp(self) -> np.ndarray:
        return np.diag(self.counts).astype(np.int64)

    def fp(self) -> np.ndarray:
        return self.counts.sum(axis=0) - self.tp()

    def fn(self) -> np.ndarray:
        return self.counts.sum(axis=1) - self.tp()

    def tn(self) -> np.ndarray:
        return self.total - self.tp() - self.fp() - self.fn()


def confusion(y_true, y_pred, c: int) -> ConfusionMatrix:
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"confusion: length mismatch {y_true.shape} vs {y_pred.shape}")
    for name, arr in (("y_true", y_true), ("y_pred", y_pred)):
        if arr.size and (arr.min() < 0 or arr.max() >= c):
            raise ValueError(f"confusion: {name} contains labels outside [0, {c})")
    counts = np.zeros((c, c), dtype=np.int64)
    np.add.at(counts, (y_true, y_pred), 1)
    return ConfusionMatrix(counts=counts)


@dataclass
class ClassReport:
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    support: np.ndarray
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    undefined: list[str] = field(default_factory=list)  # e.g. "recall[3]"


def class_report(cm: ConfusionMatrix) -> ClassReport:
    """Precision TP/(TP+FP), recall TP/(TP+FN), harmonic-mean F1, accuracy
    trace/total; zero denominators score 0 and are flagged in `undefined`."""
    if cm.total == 0:
        raise ValueError("class_report: empty confusion matrix")
    tp, fp, fn = cm.tp(), cm.fp(), cm.fn()
    support = cm.counts.sum(axis=1)
    dens = {"precision": tp + fp, "recall": tp + fn}
    undefined = [f"{name}[{k}]" for k in range(cm.n_classes)
                 for name, den in dens.items() if den[k] == 0]
    precision, recall = _ratio(tp, dens["precision"]), _ratio(tp, dens["recall"])
    f1 = _ratio(2.0 * precision * recall, precision + recall)
    total = float(support.sum())
    weights = support / total
    return ClassReport(
        precision=precision, recall=recall, f1=f1, support=support,
        accuracy=float(tp.sum() / total),
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
        weighted_precision=float((precision * weights).sum()),
        weighted_recall=float((recall * weights).sum()),
        weighted_f1=float((f1 * weights).sum()),
        undefined=undefined,
    )


def fpr_per_class(cm: ConfusionMatrix) -> np.ndarray:
    """One-vs-rest FP/(FP+TN) per class; 0 when the denominator is empty."""
    fp = cm.fp()
    return _ratio(fp, fp + cm.tn())


def fpr_macro(cm: ConfusionMatrix) -> float:
    return float(fpr_per_class(cm).mean())


def fpr_micro(cm: ConfusionMatrix) -> float:
    fp = cm.fp().sum()
    return float(_ratio(fp, fp + cm.tn().sum()))


# ---------------------------------------------------------------------------
# ROC / AUC
# ---------------------------------------------------------------------------

@dataclass
class RocCurve:
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float | None  # None when the class is absent from y_true

    @property
    def defined(self) -> bool:
        return self.auc is not None


def _binary_roc(pos: np.ndarray, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Threshold sweep with equal scores grouped into one step; trapezoidal AUC."""
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    p = pos[order]
    boundaries = np.r_[np.flatnonzero(np.diff(s) != 0.0), s.size - 1]
    tp = np.cumsum(p)[boundaries]
    fp = (boundaries + 1.0) - tp
    n_pos = p.sum()
    n_neg = p.size - n_pos
    tpr = np.r_[0.0, tp / n_pos]
    fpr = np.r_[0.0, fp / n_neg]
    auc = float(0.5 * ((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1])).sum())
    return fpr, tpr, auc


def roc_auc_ovr(y_true, probs: np.ndarray) -> list[RocCurve]:
    """Per-class one-vs-rest ROC over that class's score column. Classes
    absent from y_true (or filling it entirely) get auc=None."""
    y_true = np.asarray(y_true, dtype=np.int64)
    if probs.ndim != 2 or probs.shape[0] != y_true.shape[0]:
        raise ValueError(f"roc_auc_ovr: probs {probs.shape} does not match y {y_true.shape}")
    curves = []
    for k in range(probs.shape[1]):
        pos = y_true == k
        n_pos = int(pos.sum())
        if n_pos == 0 or n_pos == y_true.size:
            curves.append(RocCurve(np.array([]), np.array([]), None))
            continue
        fpr, tpr, auc = _binary_roc(pos, probs[:, k])
        curves.append(RocCurve(fpr, tpr, auc))
    return curves


# ---------------------------------------------------------------------------
# inference timing
# ---------------------------------------------------------------------------

@dataclass
class BenchStats:
    mean_sec_per_instance: float
    median_sec_per_instance: float
    p95_sec_per_instance: float
    batch_size: int
    repeats: int
    n_instances: int

    def to_dict(self) -> dict:
        return vars(self).copy()


def inference_bench(params, spec: VariantSpec, x: np.ndarray, warmup: int = 1, repeats: int = 5,
                    batch_size: int = 256) -> tuple[np.ndarray, BenchStats]:
    """Eval-mode prediction timing on a monotonic clock after warmup runs.
    Returns the last timed pass's probabilities (batching changes none) and the timing."""
    if repeats < 1:
        raise ValueError("inference_bench: repeats must be >= 1")
    n = x.shape[0]
    if n < 1:
        raise ValueError("inference_bench: need at least one instance")

    for _ in range(warmup):
        batched_probs(params, spec, x, batch_size)
    per_instance = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        probs = batched_probs(params, spec, x, batch_size)
        per_instance.append((time.perf_counter() - t0) / n)
    arr = np.array(per_instance)
    return probs, BenchStats(
        mean_sec_per_instance=float(arr.mean()),
        median_sec_per_instance=float(np.median(arr)),
        p95_sec_per_instance=float(np.percentile(arr, 95)),
        batch_size=batch_size,
        repeats=repeats,
        n_instances=n,
    )


# ---------------------------------------------------------------------------
# full evaluation report
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    class_names: list[str]
    cm: ConfusionMatrix
    report: ClassReport
    roc: list[RocCurve]
    loss: float
    fpr_macro: float
    fpr_micro: float
    bench: BenchStats | None = None

    @property
    def accuracy(self) -> float:
        return self.report.accuracy

    def table_row(self) -> dict:
        """The headline columns: accuracy, loss, precision, recall, F1, FPR,
        and measured inference seconds per instance."""
        return {
            "accuracy": self.accuracy,
            "loss": self.loss,
            "precision": self.report.weighted_precision,
            "recall": self.report.weighted_recall,
            "f1": self.report.weighted_f1,
            "fpr": self.fpr_macro,
            "inference_sec_per_instance":
                None if self.bench is None else self.bench.mean_sec_per_instance,
        }

    def to_json_dict(self) -> dict:
        return {
            "per_class": [
                {
                    "class": name,
                    "precision": float(self.report.precision[k]),
                    "recall": float(self.report.recall[k]),
                    "f1": float(self.report.f1[k]),
                    "support": int(self.report.support[k]),
                    "fpr": float(fpr_per_class(self.cm)[k]),
                    "auc": None if self.roc[k].auc is None else float(self.roc[k].auc),
                }
                for k, name in enumerate(self.class_names)
            ],
            "accuracy": self.accuracy,
            "macro_avg": {
                "precision": self.report.macro_precision,
                "recall": self.report.macro_recall,
                "f1": self.report.macro_f1,
            },
            "weighted_avg": {
                "precision": self.report.weighted_precision,
                "recall": self.report.weighted_recall,
                "f1": self.report.weighted_f1,
            },
            "undefined_scores": self.report.undefined,
            "loss": self.loss,
            "fpr_macro": self.fpr_macro,
            "fpr_micro": self.fpr_micro,
            "confusion": self.cm.counts.tolist(),
            "confusion_normalized": self.cm.normalized_rows().tolist(),
            "table_row": self.table_row(),
            "inference": None if self.bench is None else self.bench.to_dict(),
        }


def evaluate_probs(probs: np.ndarray, y_true: np.ndarray, class_names: list[str],
                   loss: float, bench: BenchStats | None = None) -> EvalReport:
    """Assemble the full report from precomputed eval-mode probabilities."""
    c = len(class_names)
    y_pred = probs.argmax(axis=1)
    cm = confusion(y_true, y_pred, c)
    return EvalReport(
        class_names=list(class_names),
        cm=cm,
        report=class_report(cm),
        roc=roc_auc_ovr(y_true, probs),
        loss=loss,
        fpr_macro=fpr_macro(cm),
        fpr_micro=fpr_micro(cm),
        bench=bench,
    )
