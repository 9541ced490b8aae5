"""Benchmark of the kgdg decision layer, measured through `kgdg.cli.main`.

Runs one workload in a fresh worker process (BLAS pools pinned to one
thread, nothing else running) and prints, as the last line of standard
output, {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones from a traced run. The line before it gives the per-command figures
and the sha256 of every output file.

    python3 perfbench/run.py --workload mdg --seed 7 --seconds 12 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

from spans import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mdg", "sdg", "train", "serve")
TIMEOUT_S = 170
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Per-command figures of the untraced round, reported with the layers.
COMMAND_METRICS = {
    "eval_s": "s", "train_gbm_s": "s", "train_logistic_s": "s", "train_forest_s": "s", "train_knn_s": "s",
    "grade_rows_per_s": "rows/s", "fuse_rows_per_s": "rows/s", "score_rows_per_s": "rows/s",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=10, help="round time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "kgdg" / "cli.py").is_file():
        print(f"perfbench: no kgdg sources under {src}", file=sys.stderr)
        return 2
    work = HERE / "_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result_path = work / "result.json"
    env = {**os.environ, **{name: "1" for name in PINNED_THREADS}}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    worker = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed), str(args.seconds),
              str(args.trace), str(work), str(result_path)]
    try:
        code = subprocess.run(worker, env=env, stdout=sys.stderr, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 1
    if code != 0 or not result_path.is_file():
        print(f"perfbench: worker exited with {code}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text())
    for problem in result["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    commands = result["commands"]
    if args.trace:
        layers = result["layers"]
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in {**LAYER_METRICS, "trace.overhead_s": "s"}.items()}
        metrics.update({f"cli.{name}": {"value": commands.get(name, 0.0), "unit": unit}
                        for name, unit in COMMAND_METRICS.items()})
    else:
        peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        metrics = {
            "round_s": {"value": result["round_s"], "unit": "s"},
            "setup_s": {"value": result["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": peak_mib, "unit": "MiB"},
        }
    detail = {
        "workload": args.workload, "seed": args.seed, "rounds": result["rounds"],
        "commands": {name: {"value": v, "unit": COMMAND_METRICS[name]} for name, v in commands.items()},
        "outputs_sha256": result["outputs"], "wall": result.get("wall", {}),
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": not result["problems"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
