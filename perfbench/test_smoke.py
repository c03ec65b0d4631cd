"""Tests of the benchmark itself, at toy sizes:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK = ROOT / ".perfbench-out" / "test"


def fresh_dir(name: str) -> Path:
    d = WORK / name
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    return d


def run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().split("\n")[-1])


def test_smoke_traced_runs_every_workload_and_check():
    result = last_json(run("--smoke", "--trace", "1"))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 4 * 6
    names = {m["name"] for m in SPEC["per_layer"]}
    for w in SPEC["workloads"]:
        got = {k.split(".", 1)[1] for k in result["metrics"] if k.startswith(w["name"] + ".")}
        assert got == names, w["name"]


def test_smoke_untraced_reports_end_to_end_metrics():
    result = last_json(run("--smoke", "--workload", "ingest_csv", "--seed", "7"))
    assert result["correct"] is True and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_gives_same_inputs():
    root = fresh_dir("same_seed")
    out = []
    for k in range(2):
        d = root / str(k)
        subprocess.run([sys.executable, "perfbench/inputs.py", "--workload", "ingest_csv",
                        "--seed", "3", "--out", str(d), "--smoke"], cwd=ROOT, check=True,
                       env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"})
        out.append((d / "flows.csv").read_bytes())
    assert out[0] == out[1]


def test_fails_without_the_program():
    bare = fresh_dir("bare")
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "detect_t83", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")
