"""Workbench command line: train, evaluate, ablate, loao, explain, bench,
synth, and inspect subcommands over JSON configs with flag overrides.

Every report echoes the merged effective config and seed so a run can be
reproduced exactly; artifacts (checkpoint, history CSV, ROC CSVs,
attribution CSVs, report JSON) land in the output directory, each report
file written by this module alone, inside its command's "persist" stage.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
import time
import urllib.parse
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import data as D
from . import explain as E
from . import metrics as M
from . import model as MOD
from . import training as T
from .numerics import RngStream

OUT_DIR_ENV = "BIGATID_OUT_DIR"
SEED_ENV = "BIGATID_SEED"


class ConfigError(ValueError):
    """Invalid or contradictory run configuration."""


class StageError(RuntimeError):
    """Pipeline failure wrapped with the stage that produced it."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[stage={stage}] {cause}")
        self.stage = stage
        self.cause = cause


class _Stage:
    """Context manager attributing any failure to a named pipeline stage; on
    exit, `seconds` holds the stage's wall time."""

    def __init__(self, name: str):
        self.name = name
        self.seconds = None

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.seconds = time.perf_counter() - self._start
        # an interrupt or exit is not a stage failure and passes through as is
        if isinstance(exc, Exception) and not isinstance(exc, StageError):
            raise StageError(self.name, exc) from exc
        return False


def derive_seed(*keys: int) -> int:
    """Stable child seed for per-variant / per-fold runs."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Option:
    """One run key: its default and type, the subcommands whose parser has its
    flag, that flag's choices and help, and the interval its value lies in,
    "[a, b)" or "(a, b)", where b may be inf. A bool key's flag stores the
    opposite of its default, so one that is on by default is --no-KEY.
    `group` places the flag in a command's help: after --config come the
    data, fit and model flags; `own` flags come last."""
    key: str
    default: object
    type: type
    commands: tuple = ()
    group: str = "data"
    choices: tuple | list | None = None
    help: str | None = None
    bound: str | None = None

    @property
    def flag(self) -> str:
        return ("--no-" if self.default is True else "--") + self.key.replace("_", "-")

    def add_flag(self, p: argparse.ArgumentParser) -> None:
        if self.type is bool:
            kwargs = dict(action="store_const", const=not self.default, default=None)
        else:
            kwargs = dict(type=self.type if self.type in (int, float) else None,
                          choices=self.choices)
        p.add_argument(self.flag, dest=self.key, help=self.help, **kwargs)

    def check(self, value, origin: str):
        """`value`, from `origin`, as the run takes it, or a ConfigError naming
        the key. A float takes an int, never a bool; a list holds floats, or is
        given as its flag takes it, one comma-separated string; an unset
        default takes null."""
        if value is None and self.default is None:
            return value
        if self.type is list and self.commands and type(value) is str:
            with contextlib.suppress(ValueError):  # a malformed string stays one
                value = [float(v) for v in value.split(",")]
        kinds = (int, float) if self.type is float else (self.type,)
        if type(value) not in kinds or type(value) is list and any(
                type(v) not in (int, float) for v in value):
            problem = "of type " + ("list of float" if self.type is list
                                    else self.type.__name__)
        elif self.choices is not None and value not in self.choices:
            problem = f"one of {list(self.choices)}"
        elif (problem := self._outside_bound(value)) is None:
            return value
        raise ConfigError(f"{origin}: {self.key} must be {problem}, got {value!r}")

    def _outside_bound(self, value) -> str | None:
        """None when `value`, or each entry of a list, lies in `bound`, else
        what the key must be: "in [a, b)" for a range; for an interval up to
        inf, "finite" if an entry is inf or nan, else ">= a" or "> a"."""
        if self.bound is None:
            return None
        low, high = self.bound.split(", ")
        a = float(low[1:])
        outside = [v for v in (value if self.type is list else [value])
                   if not (((v >= a) if low[0] == "[" else (v > a)) and v < float(high[:-1]))]
        if not outside:
            return None
        if high != "inf)":
            problem = f"in {self.bound}"
        elif any(v != v or v == np.inf for v in outside):
            problem = "finite"
        else:
            problem = (">= " if low[0] == "[" else "> ") + low[1:]
        return problem + (" in every entry" if self.type is list else "")


_RUN = ("train", "evaluate", "ablate", "loao", "explain", "bench", "synth")
_FIT = ("train", "ablate", "loao")
_GROUPS = ("data", "fit", "model", "own")

# every run key, in the order each report echoes the config
_OPTIONS = (
    _Option("csv", None, str, _RUN, help="flow-record CSV with a header row"),
    _Option("synth", False, bool, _RUN,
            help="use the synthetic generator as the data source"),
    _Option("label_column", "Label", str, _RUN),
    _Option("synth_classes", 6, int, _RUN, bound="[2, inf)"),
    _Option("synth_per_class", 400, int, _RUN, bound="[1, inf)"),
    _Option("synth_seq_len", 20, int, _RUN, bound="[4, inf)"),
    _Option("synth_separation", 6.0, float, _RUN, bound="[0, inf)"),
    _Option("synth_imbalance", None, list, _RUN,
            help="comma-separated per-class count fractions"),
    _Option("train_frac", 0.8, float, _FIT, "fit", bound="(0, 1)"),
    _Option("scale", True, bool, _FIT, "fit", help="disable min-max feature scaling"),
    _Option("balancing", "none", str, _FIT, "fit", choices=["none", "ros", "smote"]),
    _Option("smote_k", 5, int, _FIT, "fit", bound="[1, inf)"),
    _Option("variant", 4, int, ("train", "loao"), "model", bound="[1, 13)"),
    _Option("dropout", None, float, ("train",), "model",
            help="dropout override for variant 4", bound="[0, 1)"),
    _Option("learning_rate", T.TrainConfig.learning_rate, float, _FIT, "fit",
            bound="(0, inf)"),
    _Option("batch_size", T.TrainConfig.batch_size, int, _FIT, "fit", bound="[1, inf)"),
    _Option("epochs", T.TrainConfig.epochs, int, _FIT, "fit", bound="[1, inf)"),
    _Option("loss", T.TrainConfig.loss, str, _FIT, "fit", choices=T.LOSS_KINDS),
    _Option("focal_gamma", T.TrainConfig.focal_gamma, float, _FIT, "fit",
            bound="[0, inf)"),
    _Option("focal_alpha", T.TrainConfig.focal_alpha, list, bound="[0, inf)"),  # no flag
    _Option("grad_clip", T.TrainConfig.grad_clip, float, _FIT, "fit", bound="(0, inf)"),
    _Option("seed", T.TrainConfig.seed, int, _RUN, bound="[0, inf)"),
    _Option("out_dir", "runs", str, _RUN),
    _Option("bench_warmup", 1, int, ("bench",), "own", bound="[0, inf)"),
    _Option("bench_repeats", 3, int, ("bench",), "own", bound="[1, inf)"),
    _Option("normal_class", "normal", str, ("loao",), "own"),
)
_OPTION = {o.key: o for o in _OPTIONS}
RUN_DEFAULTS: dict = {o.key: o.default for o in _OPTIONS}


@dataclass
class RunConfig:
    values: dict

    def __getattr__(self, name):
        try:
            return self.values[name]
        except KeyError:
            raise AttributeError(name) from None

    def echo(self) -> dict:
        return dict(self.values)

    def train_config(self, seed=None) -> T.TrainConfig:
        kwargs = {f.name: self.values[f.name] for f in fields(T.TrainConfig)}
        if seed is not None:
            kwargs["seed"] = seed
        return T.TrainConfig(**kwargs)


def merge_config(args: argparse.Namespace) -> RunConfig:
    """defaults < environment < config file < explicit flags; unknown file keys
    are rejected and every value is checked against its key's row."""
    merged = dict(RUN_DEFAULTS)
    if os.environ.get(OUT_DIR_ENV):
        merged["out_dir"] = os.environ[OUT_DIR_ENV]
    if os.environ.get(SEED_ENV):
        try:
            seed = int(os.environ[SEED_ENV])
        except ValueError:
            raise ConfigError(f"{SEED_ENV} must be an integer, got "
                              f"{os.environ[SEED_ENV]!r}") from None
        merged["seed"] = _OPTION["seed"].check(seed, SEED_ENV)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config file {config_path}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file {config_path} must hold a JSON object")
        unknown = set(file_cfg) - set(merged)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_cfg.items():
            merged[key] = _OPTION[key].check(value, f"config file {config_path}")
    for opt in _OPTIONS:
        flag_val = getattr(args, opt.key, None)
        if flag_val is not None:
            merged[opt.key] = opt.check(flag_val, opt.flag)
    if bool(merged["csv"]) == bool(merged["synth"]):
        raise ConfigError("exactly one data source required: pass --csv PATH or --synth")
    if (getattr(args, "command", None) in _OPTION["variant"].commands
            and merged["dropout"] is not None and merged["variant"] != 4):
        raise ConfigError(f"dropout override is only supported for variant 4, "
                          f"got variant {merged['variant']}")
    return RunConfig(values=merged)


def _start(args) -> tuple[RunConfig, Path]:
    """The merged config of a run and its output directory, created."""
    cfg = merge_config(args)
    out_dir = Path(cfg.out_dir)
    with _Stage("persist"):
        out_dir.mkdir(parents=True, exist_ok=True)
    return cfg, out_dir


# ---------------------------------------------------------------------------
# shared pipeline stages
# ---------------------------------------------------------------------------

def load_source_dataset(cfg: RunConfig, rng: RngStream,
                        codec: D.LabelCodec | None = None) -> D.Dataset:
    """The configured CSV or synthetic dataset. A CSV's labels go through
    `codec` when one is given, else through a codec fitted to them."""
    if cfg.csv:
        with _Stage("load"):
            table = D.load_csv(cfg.csv, label_column=cfg.label_column)
        with _Stage("clean"):
            table, _drops = D.clean(table)
        with _Stage("encode"):
            features, labels, codec = D.encode(table, codec=codec)
        with _Stage("reshape"):
            return D.Dataset(X=D.to_sequences(features), y=labels, codec=codec)
    with _Stage("synth"):
        return D.synth_generate(cfg.synth_classes, cfg.synth_per_class, cfg.synth_seq_len,
                                cfg.synth_separation, rng.spawn(0),
                                imbalance=cfg.synth_imbalance)


def split_and_scale(cfg: RunConfig, ds: D.Dataset, rng: RngStream):
    """Split first, then fit the scaler on the training split only."""
    with _Stage("split"):
        train_ds, test_ds = D.stratified_split(ds, cfg.train_frac, rng.spawn(1))
    scaler = None
    if cfg.scale:
        with _Stage("scale"):
            scaler = D.fit_scaler(train_ds.features())
            train_ds = _scaled(train_ds, scaler)
            test_ds = _scaled(test_ds, scaler)
    return train_ds, test_ds, scaler


def _scaled(ds: D.Dataset, scaler: D.ScalerParams) -> D.Dataset:
    return D.Dataset(X=D.to_sequences(D.apply_scaler(scaler, ds.features())),
                     y=ds.y, codec=ds.codec)


def balance_train(cfg: RunConfig, train_ds: D.Dataset, rng: RngStream,
                  strategy: str) -> D.Dataset:
    with _Stage("balance"):
        if strategy == "ros":
            return D.ros_balance(train_ds, rng.spawn(2))
        if strategy == "smote":
            return D.smote_balance(train_ds, rng.spawn(2), k=cfg.smote_k)
        return train_ds  # "none": merge_config checks the choice


def resolve_variant(vid: int, seq_len: int, n_classes: int,
                    dropout: float | None = None) -> MOD.Variant:
    """Ablation-table variant `vid`; `dropout` overrides variant 4's rate
    (merge_config rejects a dropout for any other variant)."""
    variants = {v.id: v for v in MOD.table5_variants(seq_len, n_classes)}
    if vid not in variants:
        raise ConfigError(f"variant must be 1..12, got {vid}")
    if dropout is None:
        return variants[vid]
    return MOD.Variant(4, f"(BiGRU64+MHA8)-LSTM32 d={dropout}",
                       MOD.bigat_spec(seq_len, n_classes, dropout_rate=dropout))


def evaluate_model(params, spec, test_ds: D.Dataset, cfg: RunConfig) -> M.EvalReport:
    """The report of one eval-mode pass over `test_ds`, timed as it runs;
    `bigatid bench` is the repeated measurement."""
    probs, stats = M.inference_bench(params, spec, test_ds.X, warmup=0, repeats=1,
                                     batch_size=T.EVAL_BATCH)
    loss_fn = T.loss_fn_for(cfg.train_config(), spec.n_classes)
    loss, _ = loss_fn(probs, D.one_hot(test_ds.y, spec.n_classes))
    return M.evaluate_probs(probs, test_ds.y, list(test_ds.codec.classes), loss, bench=stats)


def fit(cfg: RunConfig, spec, train_ds: D.Dataset, test_ds: D.Dataset, strategy: str,
        rng: RngStream, seed: int, *, val_ds: D.Dataset):
    """Balance `train_ds` by `strategy` from `rng`, train `spec` on it with
    `seed`, validating on `val_ds` after every epoch (none when it is empty),
    then evaluate on `test_ds`, each step in its stage. Every command that
    fits a model fits it here. Returns (params, history, report, train_sec,
    eval_sec): the seconds of its train and evaluate stages."""
    train_bal = balance_train(cfg, train_ds, rng, strategy)
    with _Stage("train") as training:
        params, history = T.train(spec, train_bal, val_ds, cfg.train_config(seed=seed))
    with _Stage("evaluate") as evaluation:
        report = evaluate_model(params, spec, test_ds, cfg)
    return params, history, report, training.seconds, evaluation.seconds


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)


def _write_csv(path, header, rows) -> None:
    """A header row, then `rows`; a float, Python or numpy, is written as its
    repr, so it reads back exactly."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                          for v in row] for row in rows)


def _write_roc_csvs(report: M.EvalReport, out_dir: Path) -> list[str]:
    """One roc_<label>.csv per defined curve; percent-quoting the label keeps
    each file in `out_dir`, and distinct labels in distinct files."""
    paths = []
    for curve, name in zip(report.roc, report.class_names):
        if curve.defined:
            path = out_dir / f"roc_{urllib.parse.quote(name, safe='')}.csv"
            _write_csv(path, ["fpr", "tpr"], zip(curve.fpr, curve.tpr))
            paths.append(str(path))
    return paths


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    cfg, out_dir = _start(args)
    rng = RngStream(cfg.seed)

    ds = load_source_dataset(cfg, rng)
    train_ds, test_ds, scaler = split_and_scale(cfg, ds, rng)
    variant = resolve_variant(cfg.variant, ds.seq_len, ds.n_classes, cfg.dropout)
    params, history, report, train_sec, eval_sec = fit(
        cfg, variant.spec, train_ds, test_ds, cfg.balancing, rng, cfg.seed, val_ds=test_ds)

    with _Stage("persist"):
        ckpt_path = out_dir / "checkpoint.bgid"
        metadata = {
            "codec": test_ds.codec.to_dict(),
            "scaler": None if scaler is None else scaler.to_dict(),
            "config": cfg.echo(),
            "variant_id": variant.id,
            "variant_label": variant.label,
        }
        MOD.save(params, variant.spec, metadata, ckpt_path)
        history_path = out_dir / "history.csv"
        _write_csv(history_path, [f.name for f in fields(T.EpochStats)],
                   (vars(r).values() for r in history.rows))
        roc_paths = _write_roc_csvs(report, out_dir)
        run_report = {
            "config": cfg.echo(),
            "variant": {"id": variant.id, "label": variant.label,
                        "param_total": MOD.param_total(variant.spec)},
            "history": history.as_dicts(),
            "eval": report.to_json_dict(),
            "timing": {"train_sec": train_sec, "eval_sec": eval_sec},
            "artifacts": {"checkpoint": str(ckpt_path), "history_csv": str(history_path),
                          "roc_csvs": roc_paths},
        }
        report_path = out_dir / "run_report.json"
        _write_json(report_path, run_report)

    row = report.table_row()
    print(f"variant #{variant.id} {variant.label}: "
          f"acc {row['accuracy']:.4f}  loss {row['loss']:.4f}  "
          f"f1 {row['f1']:.4f}  fpr {row['fpr']:.4f}")
    print(f"report: {report_path}")
    return 0


def _checkpoint_run(args):
    """The preamble of the checkpoint commands: the merged config, its output
    directory, the checkpoint, the loss keys of its stored training config,
    checked, and the configured dataset prepared the way the checkpoint's
    training data was (label codec, feature count, scaler). Returns (cfg,
    out_dir, params, spec, ds, trained_loss)."""
    cfg, out_dir = _start(args)
    with _Stage("checkpoint"):
        params, spec, metadata = MOD.load(args.checkpoint)
        if "codec" not in metadata:
            raise MOD.CheckpointFormatError(f"checkpoint {args.checkpoint} has no label "
                                            "codec: its metadata lacks 'codec'")
        trained = metadata.get("config", {})
        if not isinstance(trained, dict):
            raise MOD.CheckpointFormatError(f"checkpoint {args.checkpoint} has a config "
                                            "that is not a JSON object")
        trained_loss = {key: _OPTION[key].check(trained[key], f"checkpoint {args.checkpoint}")
                        for key in ("loss", "focal_gamma", "focal_alpha") if key in trained}
        codec = D.LabelCodec.from_dict(metadata["codec"])
        scaler = (None if metadata.get("scaler") is None
                  else D.ScalerParams.from_dict(metadata["scaler"]))
        if len(codec.classes) != spec.n_classes:
            raise MOD.CheckpointFormatError(
                f"checkpoint {args.checkpoint} has a label codec of {len(codec.classes)} "
                f"classes but a model of {spec.n_classes}")
        for name, arr in vars(scaler).items() if scaler is not None else ():
            if arr.shape != (spec.seq_len,):
                raise MOD.CheckpointFormatError(
                    f"checkpoint {args.checkpoint} has scaler {name} of shape {arr.shape} "
                    f"but a model of {spec.seq_len} features")
    ds = load_source_dataset(cfg, RngStream(cfg.seed), codec=codec)
    # a CSV is encoded with `codec`; only synthetic classes can differ
    if tuple(ds.codec.classes) != tuple(codec.classes):
        raise ConfigError("synthetic classes do not match the checkpoint codec")
    if ds.seq_len != spec.seq_len:
        raise ConfigError(f"dataset has {ds.seq_len} features but the checkpoint "
                          f"expects {spec.seq_len}")
    if scaler is not None:
        ds = _scaled(ds, scaler)
    return cfg, out_dir, params, spec, ds, trained_loss


def cmd_evaluate(args) -> int:
    cfg, out_dir, params, spec, ds, trained_loss = _checkpoint_run(args)
    # score with the loss the checkpoint was trained with
    cfg = RunConfig({**cfg.values, **trained_loss})
    with _Stage("evaluate"):
        report = evaluate_model(params, spec, ds, cfg)
    with _Stage("persist"):
        report_path = out_dir / "eval_report.json"
        _write_json(report_path, {"config": cfg.echo(), "checkpoint": str(args.checkpoint),
                                  "eval": report.to_json_dict()})
        _write_roc_csvs(report, out_dir)
    row = report.table_row()
    print(f"acc {row['accuracy']:.4f}  loss {row['loss']:.4f}  f1 {row['f1']:.4f}  "
          f"fpr {row['fpr']:.4f}")
    print(f"report: {report_path}")
    return 0


def cmd_ablate(args) -> int:
    cfg, out_dir = _start(args)
    rng = RngStream(cfg.seed)

    ds = load_source_dataset(cfg, rng)
    train_ds, test_ds, _scaler = split_and_scale(cfg, ds, rng)
    balanced_strategy = cfg.balancing if cfg.balancing != "none" else "ros"
    settings = [("unbalanced", "none"), ("balanced", balanced_strategy)]
    no_val = test_ds.subset(slice(0))  # the table keeps no training history

    rows = []
    any_failed = False
    for variant in MOD.table5_variants(ds.seq_len, ds.n_classes):
        for si, (setting, strategy) in enumerate(settings):
            row = {"variant": variant.id, "label": variant.label,
                   "canonical": variant.id == 4,
                   "param_total": MOD.param_total(variant.spec),
                   "setting": setting, "status": "ok",
                   "accuracy": None, "loss": None, "fpr": None}
            try:
                seed_v = derive_seed(cfg.seed, variant.id, si)
                _params, _hist, report, _, _ = fit(cfg, variant.spec, train_ds, test_ds,
                                                   strategy, rng, seed_v, val_ds=no_val)
                row.update(accuracy=report.accuracy, loss=report.loss,
                           fpr=report.fpr_macro)
            except Exception as exc:  # isolate the failing row, keep sweeping
                any_failed = True
                row.update(status="failed", error=str(exc))
            rows.append(row)
            acc = "-" if row["accuracy"] is None else f"{row['accuracy']:.4f}"
            print(f"#{variant.id:<3}{setting:<12}{row['status']:<8}acc {acc}")

    columns = ["variant", "label", "canonical", "param_total", "setting", "status",
               "accuracy", "loss", "fpr"]
    with _Stage("persist"):
        csv_path = out_dir / "ablation.csv"
        _write_csv(csv_path, columns, ([str(r[k]).lower() if k == "canonical" else r[k]
                                        for k in columns] for r in rows))
        _write_json(out_dir / "ablation.json", {"config": cfg.echo(), "rows": rows})
    print(f"ablation table: {csv_path}")
    return 1 if any_failed else 0


def _remap(ds: D.Dataset, new_codec: D.LabelCodec) -> D.Dataset:
    names = [ds.codec.from_index(int(k)) for k in ds.y]
    return D.Dataset(X=ds.X, y=new_codec.encode(names), codec=new_codec)


def cmd_loao(args) -> int:
    cfg, out_dir = _start(args)
    if args.sweep and args.held_out:
        raise ConfigError("pass --held-out CLASS or --sweep, not both")
    if not (args.sweep or args.held_out):
        raise ConfigError("pass --held-out CLASS or --sweep")
    if args.held_out == cfg.normal_class:
        raise ConfigError("the zero-day protocol holds out attack classes, "
                          "not the normal class")
    rng = RngStream(cfg.seed)

    ds = load_source_dataset(cfg, rng)
    classes = list(ds.codec.classes)
    if cfg.normal_class not in classes:
        raise ConfigError(f"normal class {cfg.normal_class!r} not in {classes}")
    if args.held_out and args.held_out not in classes:
        raise ConfigError(f"held-out class {args.held_out!r} not in {classes}")
    try:  # against the dataset's classes; each fold then drops one entry
        T.loss_fn_for(cfg.train_config(), ds.n_classes)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    train_ds, test_ds, _scaler = split_and_scale(cfg, ds, rng)
    no_val = test_ds.subset(slice(0))  # the report keeps no training history
    # a fold's random streams follow its class's place among the attacks, so
    # a single-fold run reproduces that class's row of the sweep
    attacks = [c for c in classes if c != cfg.normal_class]

    results = []
    for held_out in attacks if args.sweep else [args.held_out]:
        fold = attacks.index(held_out)
        held_idx = ds.codec.to_index(held_out)
        retained_codec = D.LabelCodec.fit([c for c in classes if c != held_out])
        tr_subset = train_ds.subset(train_ds.y != held_idx)
        held_in_train = int((tr_subset.y == held_idx).sum())
        if held_in_train:  # protocol invariant: asserted, not assumed
            raise StageError("loao", RuntimeError(
                f"{held_in_train} held-out samples leaked into the training split"))
        tr = _remap(tr_subset, retained_codec)
        te_retained = _remap(test_ds.subset(test_ds.y != held_idx), retained_codec)
        te_holdout = test_ds.subset(test_ds.y == held_idx)

        variant = resolve_variant(cfg.variant, ds.seq_len, retained_codec.n_classes,
                                  cfg.dropout)
        seed_f = derive_seed(cfg.seed, 100 + fold)
        # focal_alpha follows the codec's class order, which the retained codec keeps
        alpha = (None if cfg.focal_alpha is None
                 else cfg.focal_alpha[:held_idx] + cfg.focal_alpha[held_idx + 1:])
        params, _hist, report, _, _ = fit(RunConfig({**cfg.values, "focal_alpha": alpha}),
                                          variant.spec, tr, te_retained, cfg.balancing,
                                          rng.spawn(10 + fold), seed_f, val_ds=no_val)
        with _Stage("evaluate"):
            holdout_probs = T.batched_probs(params, variant.spec, te_holdout.X)
            detected = holdout_probs.argmax(axis=1) != retained_codec.to_index(cfg.normal_class)
            detection_rate = float(detected.mean())
            combined_correct = int(report.cm.tp().sum()) + int(detected.sum())
            combined_acc = combined_correct / (len(te_retained) + len(te_holdout))
        results.append({
            "held_out": held_out,
            "held_out_train_count": held_in_train,
            "retained_classes": list(retained_codec.classes),
            "retained_accuracy": report.accuracy,
            "zero_day_detection_rate": detection_rate,
            "combined_accuracy_detection_counted": combined_acc,
            "n_holdout_test": len(te_holdout),
            "seed": seed_f,
        })
        print(f"held-out {held_out}: retained acc {report.accuracy:.4f}, "
              f"zero-day detection {detection_rate:.4f}")

    with _Stage("persist"):
        report_path = out_dir / "loao_report.json"
        _write_json(report_path, {"config": cfg.echo(), "results": results})
    print(f"report: {report_path}")
    return 0


def cmd_explain(args) -> int:
    if args.top_k < 1:
        raise ConfigError(f"explain: --top-k must be an integer >= 1, got {args.top_k}")
    try:
        settings = E.ShapleySettings(n_instances=args.instances,
                                     n_permutations=args.permutations)
    except ValueError as exc:
        raise ConfigError(f"explain: {exc}") from exc
    cfg, out_dir, params, spec, ds, _trained_loss = _checkpoint_run(args)
    rng = RngStream(cfg.seed).spawn(7)
    with _Stage("attribution"):
        attribution = E.attribution_summary(params, spec, ds, settings, rng)
    names, classes, values = attribution.feature_names, attribution.class_names, attribution.values
    order = attribution.ranking()[:args.top_k]
    with _Stage("persist"):
        csv_path = out_dir / "attribution.csv"
        _write_csv(csv_path, ["feature", "class", "mean_abs_value"],
                   ([f, c, values[i, j]] for i, f in enumerate(names)
                    for j, c in enumerate(classes)))
        _write_json(out_dir / "attribution_topk.json", {
            "n_instances": attribution.n_instances, "n_permutations": attribution.n_permutations,
            "top_features": [{"feature": names[i], "overall": float(values[i].mean()),
                              "per_class": dict(zip(classes, map(float, values[i])))}
                             for i in order]})
    for i in order:
        print(f"{names[i]:<8}{values[i].mean():.6f}")
    print(f"attribution: {csv_path}")
    return 0


def cmd_bench(args) -> int:
    if args.batch < 1:
        raise ConfigError(f"bench: --batch must be an integer >= 1, got {args.batch}")
    cfg, out_dir, params, spec, ds, _trained_loss = _checkpoint_run(args)
    with _Stage("bench"):
        _probs, stats = M.inference_bench(params, spec, ds.X, warmup=cfg.bench_warmup,
                                          repeats=cfg.bench_repeats, batch_size=args.batch)
    with _Stage("persist"):
        _write_json(out_dir / "bench.json", {"config": cfg.echo(), "bench": stats.to_dict()})
    print(f"mean {stats.mean_sec_per_instance:.3e} s/inst  "
          f"median {stats.median_sec_per_instance:.3e}  p95 {stats.p95_sec_per_instance:.3e}")
    return 0


def cmd_synth(args) -> int:
    cfg, out_dir = _start(args)
    ds = load_source_dataset(cfg, RngStream(cfg.seed))
    csv_path = Path(args.out) if args.out else out_dir / "synth.csv"
    with _Stage("persist"):
        D.save_dataset_csv(ds, csv_path)
        _write_json(csv_path.with_suffix(".sidecar.json"), {"codec": ds.codec.to_dict()})
    print(f"wrote {len(ds)} rows to {csv_path}")
    return 0


def cmd_inspect(args) -> int:
    if (args.checkpoint is None) == (args.variant is None):
        raise ConfigError("pass exactly one of --checkpoint or --variant")
    if args.checkpoint is not None:
        with _Stage("checkpoint"):
            _params, spec, metadata = MOD.load(args.checkpoint)
        label = metadata.get("variant_label", "?")
    else:
        variant = resolve_variant(args.variant, args.seq_len, args.classes)
        spec, label = variant.spec, variant.label
    print(f"variant: {label}")
    print(MOD.format_inspect_table(spec))
    if args.json:
        with _Stage("persist"):
            _write_json(args.json, MOD.inspect_table(spec))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bigatid",
        description="dual-branch recurrent-attention intrusion detection workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, func, checkpoint=False):
        p = sub.add_parser(name, help=summary)
        if checkpoint:
            p.add_argument("--checkpoint", required=True)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for opt in sorted(_OPTIONS, key=lambda o: _GROUPS.index(o.group)):
            if name in opt.commands and opt.group != "own":
                opt.add_flag(p)
        p.set_defaults(func=func)
        return p

    command("train", "train one variant end to end", cmd_train)
    command("evaluate", "evaluate a checkpoint on a dataset", cmd_evaluate, checkpoint=True)
    command("ablate", "train/evaluate all 12 variants, both balancings", cmd_ablate)

    p = command("loao", "leave-one-attack-out zero-day protocol", cmd_loao)
    p.add_argument("--held-out", dest="held_out", help="attack class to exclude")
    p.add_argument("--sweep", action="store_true", help="run every attack class in turn")

    p = command("explain", "Shapley attribution for a checkpoint", cmd_explain,
                checkpoint=True)
    p.add_argument("--instances", type=int, default=E.ShapleySettings.n_instances)
    p.add_argument("--permutations", type=int, default=E.ShapleySettings.n_permutations)
    p.add_argument("--top-k", dest="top_k", type=int, default=10)

    p = command("bench", "inference timing for a checkpoint", cmd_bench, checkpoint=True)
    p.add_argument("--batch", type=int, default=256)

    p = command("synth", "generate a synthetic dataset CSV", cmd_synth)
    p.add_argument("--out", help="CSV output path (default <out-dir>/synth.csv)")
    p.set_defaults(synth=True)

    p = sub.add_parser("inspect", help="per-layer shape and parameter table")
    p.add_argument("--checkpoint")
    p.add_argument("--variant", type=int)
    p.add_argument("--seq-len", dest="seq_len", type=int, default=83)
    p.add_argument("--classes", type=int, default=6)
    p.add_argument("--json", help="also write the table to this JSON path")
    p.set_defaults(func=cmd_inspect)

    for opt in _OPTIONS:  # a command's own run flags follow its other flags
        for name in opt.commands if opt.group == "own" else ():
            opt.add_flag(sub.choices[name])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, StageError, MOD.CheckpointError, MOD.ConstructionError,
            D.DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
