"""One workload in one process: set up, run whole rounds, check outputs.

Started by run.py with BLAS thread pools pinned to 1 and ``src`` on the
path. Every CLI call goes through ``kgdg.cli.main`` in this process.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR RESULT
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

import calibration
import checks
import workloads
from spans import Tracer, layer_metrics

SETUP_REPEATS = 3  # set-up time is the median of this many fresh builds


def call(argv: list[str]) -> int:
    """Run one CLI call; argparse rejections surface as their exit code."""
    from kgdg.cli import main

    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    if code != 0:
        print(f"perfbench: exit {code} from kgdg {' '.join(argv)}: {stderr.getvalue().strip()}", file=sys.stderr)
    return code


class Round(NamedTuple):
    seconds: float  # wall time, calibration included
    times: list[float]  # per op, as are the fields below
    calibrations: list[float]  # calibration time just before the op
    codes: list[int]
    digests: list[str]


def run_round(ops: list[workloads.Op]) -> Round:
    gc.collect()
    times, calibrations, codes = [], [], []
    start = time.perf_counter()
    for op in ops:
        calibrations.append(calibration.run())
        t = time.perf_counter()
        codes.append(call(op.argv))
        times.append(time.perf_counter() - t)
    total = time.perf_counter() - start
    digests = [checks.sha256(op.output) if code == 0 else "" for op, code in zip(ops, codes)]
    return Round(total, times, calibrations, codes, digests)


def check_outputs(workload: workloads.Workload, ops: list[workloads.Op], rounds: list[Round]) -> list[list[str]]:
    """Problems per op: its output checks, and byte identity across rounds."""
    problems = []
    for i, op in enumerate(ops):
        if any(r.codes[i] != 0 for r in rounds):
            problems.append([])  # counted through its exit code
            continue
        try:
            found = workload.check_op(op)
        except Exception as exc:  # a malformed output must read as a failed check
            found = [f"check raised {type(exc).__name__}: {exc}"]
        if any(r.digests[i] != rounds[0].digests[i] for r in rounds):
            found.append("output bytes differ between rounds")
        problems.append(found)
    return problems


def speed_factor(rounds: list[Round]) -> float:
    """Reference seconds per measured second: the calibration's reference
    time over its mean time in this run. Its runs sit next to every call,
    so the mean follows the machine through the same slow spells as the
    calls (see calibration.py)."""
    times = [c for r in rounds for c in r.calibrations]
    return calibration.REFERENCE_S * len(times) / sum(times)


def op_costs(rounds: list[Round]) -> list[float]:
    """Per op, its mean time over the rounds in reference seconds. Means,
    not medians, so that calls and calibration are averaged alike."""
    factor = speed_factor(rounds)
    return [factor * sum(ts) / len(ts) for ts in zip(*(r.times for r in rounds))]


def command_figures(ops: list[workloads.Op], costs: list[float]) -> dict[str, float]:
    """Per command, from each op's cost: seconds per call, or rows per
    second for the serving commands. Every round handles the same rows, as
    its outputs have the same bytes."""
    throughput = {"grade", "fuse", "score"}
    seconds: dict[str, list[float]] = {}
    rows: dict[str, int] = {}
    for op, t in zip(ops, costs):
        seconds.setdefault(op.command, []).append(t)
        if op.command in throughput and op.output.exists():
            rows[op.command] = rows.get(op.command, 0) + op.handled_rows()
    figures = {}
    for c, ts in seconds.items():
        if c in throughput:
            figures[f"{c}_rows_per_s"] = rows.get(c, 0) / sum(ts)
        else:
            figures[f"{c}_s"] = sum(ts) / len(ts)
    return figures


def timed_setup(workload: workloads.Workload) -> float:
    gc.collect()
    t = time.perf_counter()
    workload.setup()
    return time.perf_counter() - t


def measure(workload: workloads.Workload, ops: list[workloads.Op], seconds: float) -> tuple[list[float], list[Round]]:
    """Set up SETUP_REPEATS times. After the k-th set-up, run rounds until
    they add up to k/SETUP_REPEATS of ``seconds``; the first two set-ups
    are each followed by at least one round, so the determinism check always
    has two rounds to compare. Spreading the rounds over the run makes their
    mean less sensitive to a slow spell of a shared machine."""
    setup_times: list[float] = []
    rounds: list[Round] = []
    measured = 0.0
    for k in range(1, SETUP_REPEATS + 1):
        setup_times.append(timed_setup(workload))
        while len(rounds) < min(k, 2) or measured < seconds * k / SETUP_REPEATS:
            rounds.append(run_round(ops))
            measured += rounds[-1].seconds
    return setup_times, rounds


def traced_run(workload: workloads.Workload, ops: list[workloads.Op], seconds: float) -> tuple[dict, list[Round]]:
    """One traced set-up, one untraced round as the reference for the
    tracing overhead, then traced rounds for ``seconds`` (at least one)."""
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    timed_setup(workload)
    tracer.active = False
    setup_layers = tracer.take()
    rounds, traced = [run_round(ops)], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        tracer.active = True
        rounds.append(run_round(ops))
        tracer.active = False
        traced.append(tracer.take())
    layers = layer_metrics(setup_layers, traced)
    layers["trace.overhead_s"] = statistics.median(sum(r.times) for r in rounds[1:]) - sum(rounds[0].times)
    return layers, rounds


def main(argv: list[str]) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    work, result_path = Path(argv[4]), Path(argv[5])
    src = Path(__file__).resolve().parent.parent / "src"

    t = time.perf_counter()
    import kgdg.cli  # noqa: F401  (the import is part of set-up)
    import_s = time.perf_counter() - t
    if not Path(kgdg.cli.__file__).resolve().is_relative_to(src):
        print(f"perfbench: kgdg imported from {kgdg.cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = workloads.make(name, work, seed)
    ops = workload.ops()
    if trace:
        layers, rounds = traced_run(workload, ops, seconds)
    else:
        setup_times, rounds = measure(workload, ops, seconds)

    problems = check_outputs(workload, ops, rounds)
    exits_failed = [sum(r.codes[i] != 0 for r in rounds) for i in range(len(ops))]
    result = {
        "attempted": len(ops) * len(rounds),
        # an op whose output fails a check failed in every round, as the bytes are the same
        "failed": sum(n or (len(rounds) if ps else 0) for n, ps in zip(exits_failed, problems)),
        "problems": [f"{op.argv[0]} {op.output.name}: {p}" for op, ps in zip(ops, problems) for p in ps],
        "rounds": len(rounds),
        "commands": command_figures(ops, op_costs(rounds[:1] if trace else rounds)),
        "outputs": {op.output.name: d for op, d in zip(ops, rounds[-1].digests)},
    }
    if trace:
        result["layers"] = layers
    else:
        setup_s = import_s + statistics.median(setup_times)
        factor = speed_factor(rounds)
        result["round_s"] = sum(op_costs(rounds))
        result["setup_s"] = setup_s * factor
        result["wall"] = {"round_s": statistics.median(sum(r.times) for r in rounds), "setup_s": setup_s,
                          "calibration_s": calibration.REFERENCE_S / factor}
    result_path.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
