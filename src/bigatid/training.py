"""Losses (categorical cross-entropy and focal), the Adam optimizer, and the
seeded mini-batch training loop with per-epoch train/validation history."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, one_hot
from .model import VariantSpec, backward, build, forward
from .numerics import RngStream

LOSS_KINDS = ("cce", "focal")

PROB_FLOOR = 1e-12
EVAL_BATCH = 512


class TrainingDivergedError(RuntimeError):
    """Loss or a gradient became non-finite; the message names the epoch and
    batch, and for a gradient the tensor."""


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 128
    epochs: int = 30
    loss: str = "cce"
    focal_gamma: float = 2.0
    focal_alpha: list[float] | None = None
    grad_clip: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.focal_gamma < 0:
            raise ValueError("focal_gamma must be >= 0")
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"loss must be one of {LOSS_KINDS}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ValueError("grad_clip must be positive")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float


@dataclass
class History:
    rows: list[EpochStats] = field(default_factory=list)
    total_steps: int = 0

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "train_acc", "val_loss", "val_acc"])
            for r in self.rows:
                writer.writerow([r.epoch, repr(r.train_loss), repr(r.train_acc),
                                 repr(r.val_loss), repr(r.val_acc)])

    def as_dicts(self) -> list[dict]:
        return [vars(r).copy() for r in self.rows]


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def cce_loss(probs: np.ndarray, onehot: np.ndarray):
    """Mean categorical cross-entropy. Returns (loss, grad w.r.t. probs);
    composed with the softmax backward this yields (p - y)/batch on logits."""
    probs = np.asarray(probs, dtype=np.float64)
    onehot = np.asarray(onehot, dtype=np.float64)
    if probs.shape != onehot.shape:
        raise ValueError(f"cce_loss: shape mismatch {probs.shape} vs {onehot.shape}")
    b = probs.shape[0]
    clamped = np.clip(probs, PROB_FLOOR, 1.0)
    loss = float(-(onehot * np.log(clamped)).sum() / b)
    grad = -(onehot / clamped) / b
    return loss, grad


def focal_loss(probs: np.ndarray, onehot: np.ndarray, gamma: float = 2.0,
               alpha: np.ndarray | None = None):
    """Mean of -alpha_y (1 - p_y)^gamma log(p_y) over the batch, where p_y is
    the true-class probability. gamma=0, alpha=1 reduces to cce_loss."""
    if gamma < 0:
        raise ValueError("focal_loss: gamma must be >= 0")
    probs = np.asarray(probs, dtype=np.float64)
    onehot = np.asarray(onehot, dtype=np.float64)
    if probs.shape != onehot.shape:
        raise ValueError(f"focal_loss: shape mismatch {probs.shape} vs {onehot.shape}")
    b, c = probs.shape
    alpha = np.ones(c) if alpha is None else np.asarray(alpha, dtype=np.float64)
    true_idx = onehot.argmax(axis=1)
    a_y = alpha[true_idx]
    p_y = np.clip((probs * onehot).sum(axis=1), PROB_FLOOR, 1.0)
    u = 1.0 - p_y
    log_p = np.log(p_y)
    loss = float((-a_y * np.power(u, gamma) * log_p).sum() / b)

    if gamma == 0.0:
        d_py = -a_y / p_y / b
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            term = gamma * np.power(u, gamma - 1.0) * log_p
        term = np.where(u > 0.0, term, 0.0)  # p_y -> 1 limit is 0 for gamma > 0
        d_py = a_y * (term - np.power(u, gamma) / p_y) / b
    grad = np.zeros_like(probs)
    grad[np.arange(b), true_idx] = d_py
    return loss, grad


def loss_fn_for(cfg: TrainConfig, n_classes: int):
    if cfg.loss == "cce":
        return cce_loss
    alpha = None if cfg.focal_alpha is None else np.asarray(cfg.focal_alpha, dtype=np.float64)
    if alpha is not None and alpha.shape != (n_classes,):
        raise ValueError(f"focal_alpha must have {n_classes} entries")
    return lambda p, y: focal_loss(p, y, gamma=cfg.focal_gamma, alpha=alpha)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-7  # Keras's defaults


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def init(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(m={k: np.zeros_like(a) for k, a in params.items()},
                   v={k: np.zeros_like(a) for k, a in params.items()})


def adam_step(params: dict, grads: dict, state: AdamState, lr: float):
    """One Adam update with bias correction, in place. Parameters and
    gradients must align by name and shape."""
    if params.keys() != grads.keys():
        missing = set(params) ^ set(grads)
        raise ValueError(f"adam_step: parameter/gradient name sets differ: {sorted(missing)[:4]}")
    state.step += 1
    t = state.step
    corr1 = 1.0 - ADAM_BETA1 ** t
    corr2 = 1.0 - ADAM_BETA2 ** t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"adam_step: gradient shape {g.shape} != parameter "
                             f"shape {p.shape} for {name!r}")
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= lr * (m / corr1) / (np.sqrt(v / corr2) + ADAM_EPS)
    return params, state


def global_norm_clip(grads: dict, max_norm: float) -> dict:
    total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return grads


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def batched_probs(params, spec, X, batch_size: int = EVAL_BATCH) -> np.ndarray:
    """Eval-mode probabilities over a full dataset, chunked to bound memory.
    Every evaluation, timing and attribution path runs the model through here."""
    outs = []
    for start in range(0, X.shape[0], batch_size):
        probs, _ = forward(params, spec, X[start:start + batch_size], mode="eval")
        outs.append(probs)
    return np.concatenate(outs) if outs else np.empty((0, spec.n_classes))


def train(spec: VariantSpec, train_ds: Dataset, val_ds: Dataset, cfg: TrainConfig,
          init_params: dict | None = None):
    """Seeded mini-batch training. Shuffles each epoch, keeps the last
    partial batch, applies dropout only in the train forward, and records
    one History row per epoch. A non-finite loss or gradient raises
    TrainingDivergedError before the step's update. Returns (params, History)."""
    if len(train_ds) == 0:
        raise ValueError("train: empty training set")
    if train_ds.seq_len != spec.seq_len or val_ds.seq_len != spec.seq_len:
        raise ValueError(f"train: dataset seq_len {train_ds.seq_len} does not match "
                         f"spec seq_len {spec.seq_len}")
    c = spec.n_classes
    loss_fn = loss_fn_for(cfg, c)
    root = RngStream(cfg.seed)
    params = init_params if init_params is not None else build(spec, root.spawn(0))
    shuffle_rng = root.spawn(1)
    dropout_rng = root.spawn(2)
    state = AdamState.init(params)

    y_train_1h = one_hot(train_ds.y, c)
    y_val_1h = one_hot(val_ds.y, c)
    n = len(train_ds)
    history = History()

    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        total_loss = 0.0
        total_correct = 0
        for bi, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start:start + cfg.batch_size]
            xb = train_ds.X[idx]
            yb = y_train_1h[idx]
            probs, caches = forward(params, spec, xb, mode="train", rng=dropout_rng)
            loss, dprobs = loss_fn(probs, yb)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch + 1}, batch {bi + 1}")
            grads = backward(params, spec, caches, dprobs)
            del caches   # neither this step's activations nor its gradients outlive it
            bad = next((k for k, g in grads.items() if not np.isfinite(g).all()), None)
            if bad is not None:   # before a NaN or inf reaches the clip or the Adam moments
                raise TrainingDivergedError(
                    f"non-finite gradient of {bad!r} at epoch {epoch + 1}, batch {bi + 1}")
            if cfg.grad_clip is not None:
                global_norm_clip(grads, cfg.grad_clip)
            adam_step(params, grads, state, cfg.learning_rate)
            del grads
            total_loss += loss * len(idx)
            total_correct += int((probs.argmax(axis=1) == train_ds.y[idx]).sum())

        val_loss = val_acc = 0.0
        if len(val_ds):
            val_probs = batched_probs(params, spec, val_ds.X)
            val_loss, _ = loss_fn(val_probs, y_val_1h)
            val_acc = float((val_probs.argmax(axis=1) == val_ds.y).mean())
        history.rows.append(EpochStats(
            epoch=epoch + 1,
            train_loss=total_loss / n,
            train_acc=total_correct / n,
            val_loss=val_loss,
            val_acc=val_acc,
        ))
    history.total_steps = state.step
    return params, history
