"""Benchmark entry point for bigatid.

    python3 perfbench/run.py --workload detect_t83 --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py                 # every workload, one after another
    python3 perfbench/run.py --smoke --trace 1   # every workload and check, toy sizes

Run from the root of a source checkout; the library is imported from its
`src/`. Per workload this starts two processes: the input step
(inputs.py), which makes every input from the seed, then the workload
process (bench.py), which sets up, measures and checks. Both get the same
fixed BLAS thread count before numpy loads. The last line of stdout is one
JSON object: correct, attempted, failed and metrics.

Writes only under `.perfbench-out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
# The same names as inputs.WORKLOADS, repeated so this entry point never loads numpy.
WORKLOADS = ("train_t83", "detect_t83", "ingest_csv", "explain_t20")

# One BLAS thread: with two OpenBLAS threads on the two-core reference
# machine, a 512x512 matmul loop showed outliers of up to 10x its median.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
DEADLINE_S = 170.0       # per workload, for the input step and the workload process
INPUT_STEP_LIMIT_S = 60.0


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: BLAS_THREADS for v in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def run_workload(name: str, args, env: dict) -> dict | None:
    start = time.monotonic()
    inputs = OUT / "inputs" / name
    smoke = ["--smoke"] if args.smoke else []
    step = [sys.executable, str(HERE / "inputs.py"), "--workload", name,
            "--seed", str(args.seed), "--out", str(inputs)] + smoke
    try:
        subprocess.run(step, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                       timeout=INPUT_STEP_LIMIT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"input step for {name} failed: {exc}", file=sys.stderr)
        return None
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--inputs", str(inputs), "--out", str(OUT)] + smoke
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, DEADLINE_S - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        print(f"workload {name} did not finish within {DEADLINE_S:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
        return None
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds per run (default 20, or 0.2 with --smoke)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="toy input sizes; every workload and check still runs")
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.2 if args.smoke else 20.0
    if not (ROOT / "src" / "bigatid" / "__init__.py").is_file():
        print(f"no bigatid sources under {ROOT / 'src'}: run from a source checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    env = child_env()
    print(f"blas_threads {BLAS_THREADS} (set in {', '.join(THREAD_VARS)} before numpy loads)")
    results = {}
    for name in names:
        result = run_workload(name, args, env)
        if result is None:
            return 1
        results[name] = result
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for name, r in results.items():
        print(f"{name} " + json.dumps(r))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
