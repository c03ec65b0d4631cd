"""Input step of the benchmark: makes every input of one workload from a seed.

Runs in its own process before any clock starts, so input generation counts
neither in `setup_s` nor in `peak_rss_mb` of the workload process.

    python3 perfbench/inputs.py --workload detect_t83 --seed 3 --out DIR [--smoke]

Everything written to DIR is a pure function of (workload, seed, smoke).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

WORKLOADS = ("train_t83", "detect_t83", "ingest_csv", "explain_t20")
N_CLASSES = 6

# Sizes of every workload's inputs: "full" is what the benchmark measures,
# "smoke" is the toy size the benchmark's own test runs.
SIZES = {
    "full": {
        "train_t83": {"seq_len": 83, "n_train": 128, "n_val": 32, "batch": 128},
        "detect_t83": {"seq_len": 83, "batch": 256, "n_batches": 8, "ref_flows": 6},
        "ingest_csv": {"rows": 1500, "invalid_share": 0.02, "duplicate_share": 0.03,
                       "segment_samples": 3},
        "explain_t20": {"seq_len": 20, "instances": 1, "permutations": 97,
                        "background": 32, "train_per_class": 48, "epochs": 3,
                        "check_permutations": 8},
    },
    "smoke": {
        "train_t83": {"seq_len": 83, "n_train": 16, "n_val": 4, "batch": 8},
        "detect_t83": {"seq_len": 83, "batch": 8, "n_batches": 2, "ref_flows": 3},
        "ingest_csv": {"rows": 150, "invalid_share": 0.04, "duplicate_share": 0.04,
                       "segment_samples": 2},
        "explain_t20": {"seq_len": 20, "instances": 2, "permutations": 3,
                        "background": 8, "train_per_class": 8, "epochs": 1,
                        "check_permutations": 2},
    },
}

# ingest_csv: class names, shares of valid unique rows, and categorical
# vocabularies (protocol-like, flag-like, and one many-valued column).
CSV_CLASSES = ("Benign", "DDoS", "DoS", "MQTT", "Recon", "Spoofing")
CSV_SHARES = (0.40, 0.25, 0.15, 0.10, 0.06, 0.04)
CSV_CATEGORICAL = {
    2: ("proto", ("icmp", "igmp", "tcp", "udp")),
    7: ("flag", ("OTH", "REJ", "RSTO", "RSTR", "S0", "SF", "SH")),
    41: ("service", tuple(f"svc{i:03d}" for i in range(400))),
}
CSV_CONSTANT_COLUMN = 60          # a numeric column that is 0 in every row
CSV_INTEGER_COLUMNS = range(10, 20)
CSV_FEATURES = 83


def sizes_for(workload: str, smoke: bool) -> dict:
    return SIZES["smoke" if smoke else "full"][workload]


def flows(rng: np.random.Generator, n_per_class: list[int], seq_len: int):
    """Separable synthetic flows already scaled to [0, 1]: one prototype per
    class plus Gaussian noise, shape (n, seq_len, 1); labels shuffled."""
    protos = rng.uniform(0.2, 0.8, size=(N_CLASSES, seq_len))
    y = np.repeat(np.arange(N_CLASSES), n_per_class)
    y = y[rng.permutation(y.size)]
    x = np.clip(protos[y] + 0.08 * rng.standard_normal((y.size, seq_len)), 0.0, 1.0)
    return x[:, :, None], y.astype(np.int64)


def split_counts(n: int) -> list[int]:
    base = [n // N_CLASSES] * N_CLASSES
    for i in range(n - sum(base)):
        base[i] += 1
    return base


def make_train(out: Path, seed: int, sz: dict) -> None:
    from bigatid import model
    from bigatid.numerics import RngStream

    rng = np.random.default_rng([seed, 1])
    x, y = flows(rng, split_counts(sz["n_train"] + sz["n_val"]), sz["seq_len"])
    n = sz["n_train"]
    np.savez(out / "data.npz", x_train=x[:n], y_train=y[:n], x_val=x[n:], y_val=y[n:])
    spec = model.bigat_spec(sz["seq_len"], N_CLASSES)
    model.save(model.build(spec, RngStream(seed)), spec, {}, out / "init.bgid")


def make_detect(out: Path, seed: int, sz: dict) -> None:
    from bigatid import model
    from bigatid.numerics import RngStream

    rng = np.random.default_rng([seed, 2])
    x, y = flows(rng, split_counts(sz["batch"] * sz["n_batches"]), sz["seq_len"])
    picks = rng.choice(x.shape[0], size=sz["ref_flows"], replace=False)
    np.savez(out / "data.npz", x=x, y=y, ref_rows=np.sort(picks))
    spec = model.bigat_spec(sz["seq_len"], N_CLASSES)
    model.save(model.build(spec, RngStream(seed)), spec, {}, out / "detect.bgid")


def make_explain(out: Path, seed: int, sz: dict) -> None:
    from bigatid import model, training
    from bigatid.data import Dataset, LabelCodec

    rng = np.random.default_rng([seed, 3])
    t = sz["seq_len"]
    n_train = sz["train_per_class"] * N_CLASSES
    n_extra = sz["instances"] + sz["background"]
    x, y = flows(rng, split_counts(n_train + n_extra + N_CLASSES), t)
    codec = LabelCodec.fit([f"c{k}" for k in range(N_CLASSES)])
    train_ds = Dataset(X=x[:n_train], y=y[:n_train], codec=codec)
    val_ds = Dataset(X=x[n_train:n_train + N_CLASSES], y=y[n_train:n_train + N_CLASSES],
                     codec=codec)
    spec = model.bigat_spec(t, N_CLASSES)
    cfg = training.TrainConfig(epochs=sz["epochs"], batch_size=16, seed=seed)
    params, history = training.train(spec, train_ds, val_ds, cfg)
    model.save(params, spec, {"codec": codec.to_dict()}, out / "explain.bgid")
    rest = x[n_train + N_CLASSES:]
    np.savez(out / "data.npz", x_eval=rest[:sz["instances"]],
             y_eval=y[n_train + N_CLASSES:][:sz["instances"]],
             x_background=rest[sz["instances"]:])
    (out / "train_history.json").write_text(json.dumps(history.as_dicts()))


def _csv_cell(v: float, j: int) -> str:
    return str(int(v)) if j in CSV_INTEGER_COLUMNS else repr(float(v))


def make_ingest(out: Path, seed: int, sz: dict) -> None:
    """A raw flow CSV with a known truth: the unique valid rows in order,
    plus exact duplicates (each after its original) and invalid rows (a
    non-finite numeric cell or an empty label) at random places."""
    rng = np.random.default_rng([seed, 4])
    rows = sz["rows"]
    n_invalid = round(sz["invalid_share"] * rows)
    n_dup = round(sz["duplicate_share"] * rows)
    n_unique = rows - n_invalid - n_dup
    counts = [math.floor(s * n_unique) for s in CSV_SHARES]
    counts[0] += n_unique - sum(counts)
    labels = np.repeat(np.arange(N_CLASSES), counts)
    labels = labels[rng.permutation(n_unique)]

    means = rng.uniform(0.0, 1000.0, size=(N_CLASSES, CSV_FEATURES))
    scales = rng.uniform(1.0, 50.0, size=CSV_FEATURES)

    def feature_rows(lab):
        vals = means[lab] + scales * rng.standard_normal((lab.size, CSV_FEATURES))
        vals[:, list(CSV_INTEGER_COLUMNS)] = np.abs(np.round(vals[:, list(CSV_INTEGER_COLUMNS)]))
        vals[:, CSV_CONSTANT_COLUMN] = 0.0
        cats = {}
        for j, (_, vocab) in CSV_CATEGORICAL.items():
            # a class-dependent value, spread over two neighbours for the small
            # vocabularies and over the whole vocabulary for the large one
            spread = len(vocab) if len(vocab) > 20 else 2
            shift = rng.integers(0, spread, size=lab.size)
            cats[j] = [vocab[(int(c) * 3 + int(s)) % len(vocab)] for c, s in zip(lab, shift)]
        return vals, cats

    vals, cats = feature_rows(labels)
    numeric = np.where(np.isin(np.arange(CSV_FEATURES), list(CSV_CATEGORICAL)), np.nan, vals)
    header = [CSV_CATEGORICAL[j][0] if j in CSV_CATEGORICAL else f"f{j:02d}"
              for j in range(CSV_FEATURES)] + ["Label"]

    def render(v, c, label):
        return [c[j] if j in CSV_CATEGORICAL else _csv_cell(v[j], j)
                for j in range(CSV_FEATURES)] + [label]

    unique_lines = [render(vals[i], {j: cats[j][i] for j in CSV_CATEGORICAL},
                           CSV_CLASSES[labels[i]]) for i in range(n_unique)]
    keyed = [(float(i), line) for i, line in enumerate(unique_lines)]
    for src in rng.integers(0, n_unique, size=n_dup):
        keyed.append((src + 0.5 + rng.uniform(0.0, n_unique - src - 0.5), unique_lines[src]))
    bad_vals, bad_cats = feature_rows(rng.integers(0, N_CLASSES, size=n_invalid))
    numeric_cols = [j for j in range(CSV_FEATURES) if j not in CSV_CATEGORICAL]
    for i in range(n_invalid):
        line = render(bad_vals[i], {j: bad_cats[j][i] for j in CSV_CATEGORICAL},
                      CSV_CLASSES[int(rng.integers(0, N_CLASSES))])
        if i % 2:
            line[-1] = ""
        else:
            line[int(rng.choice(numeric_cols))] = ("inf", "-inf", "nan")[i % 3]
        keyed.append((rng.uniform(0.0, n_unique), line))
    keyed.sort(key=lambda kv: kv[0])

    with open(out / "flows.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(line for _, line in keyed)
    np.savez(out / "truth.npz", numeric=numeric,
             categorical=np.array([cats[j] for j in sorted(CSV_CATEGORICAL)]).T,
             categorical_columns=np.array(sorted(CSV_CATEGORICAL)),
             labels=np.array([CSV_CLASSES[k] for k in labels]),
             rows=rows, dropped_invalid=n_invalid, dropped_duplicate=n_dup)


MAKERS = {"train_t83": make_train, "detect_t83": make_detect,
          "ingest_csv": make_ingest, "explain_t20": make_explain}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for old in out.iterdir():
        old.unlink()
    # Importing the library here also leaves its byte-code cache warm, so the
    # import timed in set-up is the same in every run of a checkout.
    import bigatid.data, bigatid.explain, bigatid.metrics, bigatid.training  # noqa: E401,F401
    MAKERS[args.workload](out, args.seed, sizes_for(args.workload, args.smoke))
    (out / "inputs.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "smoke": args.smoke}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
