"""Benchmark entry point: one workload, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports ``fareychain`` from its
``src`` directory.  It measures set-up time over several fresh
interpreters, runs one untimed warm-up round, then runs whole rounds of the
workload's operations for ``--seconds`` seconds, each from a collected
garbage-collector state, and one more, untimed, round under
``tracemalloc`` for the peak memory of the program's calls.  The warm-up
outputs are checked against the oracle; every later output must equal
them.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of ``tracing.Tracer``
with ``--trace 1``.

The speed of the shared machine this was built on drifts by up to 50 %
within minutes, so every operation is timed right after a fixed
calibration kernel and the end-to-end times are reported in seconds at
the reference speed (``CAL_REF_S``); the unscaled median goes to stderr.
The per-layer times of a traced round are scaled by that round's factor.
"""

from __future__ import annotations

import os

# One BLAS thread: the collocation matrices are 48 x 48, so more threads only
# contend for the cores.  This must happen before numpy is imported.
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

from calibration import CAL_REF_S, calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_STARTS = 11
# A fresh interpreter imports the CLI, says so, then times the calibration
# kernel, so that each start is scaled by its own process's speed.
SETUP_CHILD = ("import fareychain.cli; print('ready', flush=True); "
               "import statistics, calibration; "
               "print(statistics.median(calibration.calibrate()[0] for _ in range(5)))")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def measure_setup() -> float:
    """Median time from starting an interpreter to ``fareychain.cli``
    imported in it, at the reference speed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    ratios = []
    for i in range(SETUP_STARTS + 1):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CHILD], env=env, cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT) as proc:
            before = []
            for line in proc.stdout:
                if line == "ready\n":
                    break
                before.append(line)
            elapsed = time.perf_counter() - t0
            rest = proc.stdout.read()
        if proc.returncode != 0:
            fail("a fresh interpreter could not import fareychain.cli:\n" + "".join(before) + rest)
        if i:  # the first start may write byte-code caches
            ratios.append(elapsed / float(rest.split()[-1]))
    return CAL_REF_S * statistics.median(ratios)


def run_round(ops, reference=None):
    """Run every operation once, each from a collected garbage-collector
    state and right after a calibration kernel.

    Returns the round's wall and cpu time scaled to the reference speed
    (each operation's time divided by its own calibration time, summed,
    times CAL_REF_S), the unscaled wall time, the outputs, and the names
    of operations whose output differs from ``reference``.
    """
    wall = cpu = raw = 0.0
    outputs = {}
    mismatched = []
    for op in ops:
        gc.collect()
        cal_wall, cal_cpu = calibrate()
        c0 = time.process_time()
        t0 = time.perf_counter()
        result = op.call()
        op_wall = time.perf_counter() - t0
        op_cpu = time.process_time() - c0
        raw += op_wall
        wall += op_wall / cal_wall
        cpu += op_cpu / max(cal_cpu, 1e-9)
        if reference is None:
            outputs[op.name] = result
        elif result != reference[op.name]:
            mismatched.append(op.name)
    return CAL_REF_S * wall, CAL_REF_S * cpu, raw, outputs, mismatched


def peak_alloc_mb(ops) -> float:
    """Largest peak, over the operations, of the memory allocated during
    one call above what was allocated when it began.  ``tracemalloc`` sees
    Python objects and numpy buffers, and none of the interpreter's or the
    benchmark's own memory from before the call."""
    peak = 0
    tracemalloc.start()
    try:
        for op in ops:
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            op.call()
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak / 2**20


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "fareychain" / "cli.py").is_file():
        fail(f"no fareychain sources under {SRC}")
    sys.path.insert(0, str(SRC))

    setup_s = measure_setup() if not args.trace else None

    import oracle
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    ops = workload.ops

    *_, reference, _ = run_round(ops)
    tracer = tracing.Tracer() if args.trace else None

    walls, cpus, raw_walls, traced_walls, layer_rounds = [], [], [], [], []
    rounds = 0
    mismatched = set()
    deadline = time.perf_counter() + args.seconds
    while True:
        # traced rounds follow the pattern untraced, traced, traced,
        # untraced: the cost of the large-row operations alternates from one
        # round to the next, so both kinds of round must see both phases
        traced = tracer is not None and rounds % 4 in (1, 2)
        if traced:
            tracer.reset()
            tracer.install()
        try:
            wall, cpu, raw, _, bad = run_round(ops, reference)
        finally:
            if traced:
                tracer.uninstall()
        rounds += 1
        mismatched.update(bad)
        if traced:
            # layer times get the round's own scaling to the reference speed
            traced_walls.append(wall)
            layer_rounds.append({k: v * wall / raw if k.endswith("_s") else v
                                 for k, v in tracer.summary().items()})
        else:
            walls.append(wall)
            cpus.append(cpu)
            raw_walls.append(raw)
        if time.perf_counter() >= deadline and (tracer is None or traced):
            break
    peak_mb = peak_alloc_mb(ops) if tracer is None else None

    problems = [f"oracle self-test: {msg}" for msg in oracle.self_test()]
    report = workload.check(reference)
    problems += report.global_failures
    problems += [f"{name}: output differs from the warm-up round" for name in sorted(mismatched)]
    failing = set()
    for name, message in sorted(report.failed.items()):
        print(f"check failed: {name}: {message}", file=sys.stderr)
        if name in workload.known_faults:
            failing.add(name)
        else:
            problems.append(f"{name}: {message}")
    for message in problems:
        print(f"check failed: {message}", file=sys.stderr)

    attempted = rounds * len(ops)
    failed = rounds * len(failing)
    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_alloc_mb": (peak_mb, "MB"),
            "setup_s": (setup_s, "s"),
        }
        print(f"{len(walls)} rounds of {len(ops)} operations; unscaled median round "
              f"{statistics.median(raw_walls):.4f} s", file=sys.stderr)
    else:
        metrics = per_layer_metrics(walls, traced_walls, layer_rounds)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


def per_layer_metrics(walls, traced_walls, layer_rounds):
    """Per-layer self times and counts of the median traced round.

    Taking every layer from one round keeps them consistent: they sum,
    with ``trace.unattributed_s``, to that round's time, which is the
    untraced ``wall_s`` plus ``trace.overhead_s``.
    """
    import tracing

    order = sorted(range(len(traced_walls)), key=traced_walls.__getitem__)
    pick = order[(len(order) - 1) // 2]
    chosen, traced = layer_rounds[pick], traced_walls[pick]
    self_keys = [f"{layer}.self_s" for layer in tracing.SELF_LAYERS]
    metrics = {key: (chosen[key], "s") for key in self_keys + ["rings.exact_s"]}
    for key in ("spinchain.calls", "spinchain.entries", "thermo.bisection_steps", "transfer.leaves",
                "transfer.eigen.calls", "transfer.power_checks"):
        metrics[key] = (chosen[key], "count")
    untraced = statistics.median(walls)
    layers = sum(chosen[k] for k in self_keys)
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.unattributed_s"] = (traced - layers, "s")
    print(f"untraced round {untraced:.4f} s; traced round {traced:.4f} s; "
          f"layer self times sum to {layers:.4f} s", file=sys.stderr)
    return metrics


if __name__ == "__main__":
    main()
