"""Output parity of two source trees.

    python tests/parity.py OLD_SRC NEW_SRC [--work DIR]

OLD_SRC and NEW_SRC are directories holding the `bigatid` package (a
checkout's `src`). The script runs the same CLI commands, at fixed seeds on
a 3-class synthetic set and on a small flow CSV with a categorical column,
once with each tree on PYTHONPATH, each side in its own directory and with
one BLAS thread. It then compares what the two sides wrote: every output
file, each command's stdout and exit code, and the --help text of the
program and of every subcommand at COLUMNS=100.

A file passes when it is byte-identical, or when it is JSON and equal once
the wall-clock keys (timing, inference, inference_sec_per_instance) and the
artifact paths are removed. One line is printed per file; the exit status
is 1 when any file differs. Only the standard library is used, and pytest
does not collect this file. The outputs are kept in --work when it is
given, else in a temporary directory that is removed at the end.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

VOLATILE = {"timing", "inference", "inference_sec_per_instance", "artifacts"}
DATA = ["--synth", "--synth-classes", "3", "--synth-per-class", "40", "--synth-seq-len", "8",
        "--seed", "5"]
FIT = [*DATA, "--batch-size", "32"]
CHECKPOINT = ["--checkpoint", "train/checkpoint.bgid"]
RUNS = (
    ("train", ["train", *FIT, "--epochs", "2", "--balancing", "smote", "--out-dir", "train"]),
    ("train_csv", ["train", "--csv", "flows.csv", "--seed", "5", "--epochs", "1",
                   "--batch-size", "32", "--balancing", "smote", "--out-dir", "train_csv"]),
    ("evaluate", ["evaluate", *CHECKPOINT, *DATA, "--out-dir", "evaluate"]),
    ("ablate", ["ablate", *FIT, "--epochs", "1", "--balancing", "ros", "--out-dir", "ablate"]),
    ("loao", ["loao", *FIT, "--epochs", "1", "--sweep", "--out-dir", "loao"]),
    ("explain", ["explain", *CHECKPOINT, *DATA, "--instances", "4", "--permutations", "16",
                 "--out-dir", "explain"]),
)
COMMANDS = ("train", "evaluate", "ablate", "loao", "explain", "bench", "synth", "inspect")


def write_flows_csv(path: Path) -> None:
    """180 flow rows of three classes: six numeric features, a categorical
    `proto`, one exact duplicate row, one empty and one `nan` cell."""
    rng = random.Random(5)
    rows = []
    for k, label in enumerate(("benign", "dos", "scan")):
        for _ in range(60):
            rows.append([repr(rng.gauss(2.0 * k, 1.0)) for _ in range(6)]
                        + [rng.choice(("tcp", "udp", "icmp")), label])
    rows.append(list(rows[7]))
    rows[11][2] = ""
    rows[12][3] = "nan"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(6)] + ["proto", "Label"])
        writer.writerows(rows)


def run_side(src: Path, side: Path) -> None:
    """Every run and help text with `src` on PYTHONPATH, outputs under `side`."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("BIGATID_")}
    env.update(PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1", COLUMNS="100",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    side.mkdir(parents=True)
    write_flows_csv(side / "flows.csv")
    helps = [("help", ["--help"])] + [(f"help_{c}", [c, "--help"]) for c in COMMANDS]
    for name, argv in (*RUNS, *helps):
        proc = subprocess.run([sys.executable, "-m", "bigatid.cli", *argv], cwd=side,
                              env=env, capture_output=True, text=True)
        (side / f"{name}.stdout").write_text(f"exit {proc.returncode}\n{proc.stdout}",
                                             encoding="utf-8")
        if proc.returncode:
            sys.stderr.write(f"{src}: {name} exited {proc.returncode}\n{proc.stderr}")


def _stripped(text: str) -> str:
    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items() if k not in VOLATILE}
        return [strip(v) for v in obj] if isinstance(obj, list) else obj
    return json.dumps(strip(json.loads(text)), sort_keys=True)


def compare(a: Path, b: Path) -> str:
    if not a.exists() or not b.exists():
        return "ONLY IN " + ("NEW" if b.exists() else "OLD")
    da, db = a.read_bytes(), b.read_bytes()
    if da == db:
        return "identical"
    if a.suffix == ".json" and _stripped(da.decode()) == _stripped(db.decode()):
        return "equal without timing"
    return "DIFFERENT"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--work", type=Path, help="keep the outputs in this new directory")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        for side, src in (("old", args.old_src), ("new", args.new_src)):
            run_side(src.resolve(), work / side)
        names = sorted({p.relative_to(work / side).as_posix()
                        for side in ("old", "new") for p in (work / side).rglob("*")
                        if p.is_file()})
        differ = 0
        for name in names:
            status = compare(work / "old" / name, work / "new" / name)
            differ += status not in ("identical", "equal without timing")
            print(f"{status:<22} {name}")
    print(f"{len(names)} files, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
