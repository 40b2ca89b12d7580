"""supergrr benchmark: one measured run of one workload.

    python3 bench/run.py --workload curve_calculator --seed 1 --seconds 40 --trace 0

Run from the root of a checkout: the package is imported from the
checkout's ``src/`` (and ``cli_calls`` starts ``python -m supergrr``
with ``PYTHONPATH`` set to it), never from an installed copy.  One
process, one caller, closed loop: the next operation starts when the
previous one has returned and been checked.

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds,
with operation times scaled to a reference host speed (``hostspeed.py``).
``--trace 1`` replays a fixed prefix of the workload's inputs untraced
and then traced, and reports the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print the same metrics for a reader, with ``failed_ratio``
and the percentile behind ``op_tail_ms``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path
from random import Random

from hostspeed import (
    INTERPRETER_PERIOD_S,
    INTERPRETER_REFERENCE_S,
    KERNEL_PERIOD_S,
    KERNEL_REFERENCE_S,
    HostSpeed,
    fraction_kernel_seconds,
)
from tracer import Tracer
from workloads import (
    WORKLOADS,
    Context,
    child_env,
    cli_inputs,
    run_child,
)

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
PROBE_REPEATS = 5
MAX_ERRORS_KEPT = 20
# the fixed rotation of the five subcommands every traced run ends with
CLI_PROBE = cli_inputs(Random("cli-probe"))[:7]
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import supergrr.cli; "
    "print(time.perf_counter() - start)"
)


def load_package(ctx: Context, *, import_cli: bool = False, import_package: bool = True) -> None:
    """Check for the checkout's src/supergrr and import it from there, not from elsewhere."""
    init = ROOT / "src" / "supergrr" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from the root of a supergrr checkout")
    if not import_package:
        return
    sys.path.insert(0, str(ROOT / "src"))
    ctx.sg = importlib.import_module("supergrr")
    if Path(ctx.sg.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported supergrr from {ctx.sg.__file__}, not {init}")
    if import_cli:
        ctx.cli = importlib.import_module("supergrr.cli")


def run_op(ctx: Context, workload, item, errors: list) -> bool:
    try:
        return bool(workload.op(ctx, item))
    except Exception as exc:  # a raising operation counts as failed; the run goes on
        if len(errors) < MAX_ERRORS_KEPT:
            errors.append(f"{type(exc).__name__}: {exc}")
        return False


def prepare(workload, seed: int, ctx: Context, errors: list, *, trace: bool) -> list:
    """Everything before the first timed op: import, input generation, untimed warm-up.

    For cli_calls the warm-up is one untimed call, which also fills the
    bytecode cache under src/.
    """
    load_package(ctx, import_cli=trace, import_package=trace or not workload.in_children)
    inputs = workload.inputs(Random(f"{workload.name}:{seed}"))
    for item in inputs[: workload.warmup_ops]:
        run_op(ctx, workload, item, errors)
    return inputs


def setup_seconds(workload: str, seed: int) -> float:
    """Median time of fresh processes that only start, import, generate and warm up.

    Each is scaled like a cli_calls operation, by ``python -c pass``
    probes timed before each process.
    """
    speed = interpreter_speed(period_s=0.0)
    times = []
    for _ in range(SETUP_REPEATS):
        current = speed.tick()
        elapsed_ms, _ = child_output(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            child_env(ROOT),
        )
        times.append((elapsed_ms / 1e3, current))
    scales = speed.scales()
    return statistics.median(elapsed * scales[k] for elapsed, k in times)


def interpreter_speed(period_s: float) -> HostSpeed:
    env = child_env(ROOT)
    return HostSpeed(
        lambda: child_output([sys.executable, "-c", "pass"], env)[0] / 1e3,
        INTERPRETER_REFERENCE_S,
        period_s,
    )


def host_speed(workload) -> HostSpeed:
    """The probe that tracks the host's speed for this kind of workload."""
    if workload.in_children:
        return interpreter_speed(INTERPRETER_PERIOD_S)
    return HostSpeed(fraction_kernel_seconds, KERNEL_REFERENCE_S, KERNEL_PERIOD_S)


def nearest_rank(ordered: list[float], pct: float) -> tuple[float, int]:
    """The pct-th percentile by nearest rank, and how many samples lie beyond it."""
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def measure(workload, seed: int, seconds: float) -> dict:
    ctx, errors = Context(ROOT), []
    inputs = prepare(workload, seed, ctx, errors, trace=False)
    ctx.max_child_rss_kb = 0
    # compact arrays, so the benchmark's own bookkeeping adds little to
    # peak_rss_mb however many operations a faster program completes
    durations = array("d")
    probe = array("l")  # the host-speed probe in force per op
    speed = host_speed(workload)
    failed = 0
    gc.collect()
    clock = time.perf_counter
    deadline = clock() + seconds
    index = 0
    while True:
        current = speed.tick()
        item = inputs[index % len(inputs)]
        index += 1
        start = clock()
        ok = run_op(ctx, workload, item, errors)
        end = clock()
        durations.append(end - start)
        probe.append(current)
        failed += not ok
        if end >= deadline:
            break
    if workload.in_children:
        peak_kb = ctx.max_child_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scales = speed.scales()
    ordered = sorted(d * scales[k] for d, k in zip(durations, probe))
    tail, beyond = nearest_rank(ordered, workload.tail_pct)
    metrics = {
        "ops_per_s": len(ordered) / sum(ordered),
        "op_p50_ms": statistics.median(ordered) * 1e3,
        "op_tail_ms": tail * 1e3,
        "setup_s": setup_seconds(workload.name, seed),
        "peak_rss_mb": peak_kb / 1024,
    }
    print(f"workload {workload.name}: seed {seed}, {len(ordered)} ops in {seconds} s, "
          f"one caller, closed loop")
    print(f"times scaled to the reference host speed: {len(speed.samples)} probes, "
          f"median probe {statistics.median(speed.samples) * 1e3:.3f} ms "
          f"(reference {speed.reference_s * 1e3:g} ms), unscaled ops_per_s "
          f"{len(durations) / sum(durations):.4g}")
    print(f"op_tail_ms is p{workload.tail_pct:g} ({beyond} samples beyond it)")
    if beyond < 10:
        print(f"warning: only {beyond} samples beyond p{workload.tail_pct:g}", file=sys.stderr)
    print(f"failed_ratio: {failed / len(ordered)} ({failed} of {len(ordered)})")
    return finish(metrics, units("end_to_end"), len(ordered), failed, errors)


def child_output(argv: list[str], env: dict) -> tuple[float, str]:
    """Wall milliseconds and output of a child that must succeed."""
    start = time.perf_counter()
    code, out, _ = run_child(argv, ROOT, env)
    elapsed = (time.perf_counter() - start) * 1e3
    if code != 0:
        raise SystemExit(f"error: {argv[1:]} exited {code}: {out}")
    return elapsed, out


def trace(workload, seed: int) -> dict:
    ctx, errors = Context(ROOT), []
    inputs = prepare(workload, seed, ctx, errors, trace=True)
    batch = inputs[: workload.trace_ops]
    # CLI calls run in-process through cli.main so the tracer sees them
    ctx.in_process_cli = True
    attempted = failed = 0

    def replay() -> float:
        nonlocal attempted, failed
        start = time.perf_counter()
        for item in batch:
            failed += not run_op(ctx, workload, item, errors)
        elapsed = time.perf_counter() - start
        for item in CLI_PROBE:
            failed += not run_op(ctx, WORKLOADS["cli_calls"], item, errors)
        attempted += len(batch) + len(CLI_PROBE)
        return elapsed

    plain = replay()
    tracer = Tracer()
    tracer.install()
    try:
        traced = replay()
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()

    env = child_env(ROOT)
    metrics["cli.interpreter_ms"] = statistics.median(
        child_output([sys.executable, "-c", "pass"], env)[0] for _ in range(PROBE_REPEATS)
    )
    metrics["cli.import_ms"] = statistics.median(
        float(child_output([sys.executable, "-c", IMPORT_PROBE], env)[1]) * 1e3
        for _ in range(PROBE_REPEATS)
    )
    call_ms: dict[str, list[float]] = {}
    ctx.in_process_cli = False
    for _ in range(PROBE_REPEATS):
        for item in CLI_PROBE:
            start = time.perf_counter()
            ok = run_op(ctx, WORKLOADS["cli_calls"], item, errors)
            call_ms.setdefault(item[0], []).append((time.perf_counter() - start) * 1e3)
            attempted += 1
            failed += not ok
    for name, values in call_ms.items():
        metrics[f"cli.{name}.call_ms"] = statistics.median(values)
    metrics["trace.overhead_ratio"] = traced / plain

    print(f"workload {workload.name}: seed {seed}, traced replay of {len(batch)} ops "
          f"plus the {len(CLI_PROBE)}-call CLI probe; untraced {plain:.3f} s, "
          f"traced {traced:.3f} s")
    return finish(metrics, units("per_layer"), attempted, failed, errors)


def units(kind: str) -> dict[str, str]:
    """Metric names and units of one kind, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def finish(values: dict, units: dict, attempted: int, failed: int, errors: list) -> dict:
    missing = set(units) ^ set(values)
    if missing:
        raise SystemExit(f"error: metric set mismatch: {sorted(missing)}")
    for message in dict.fromkeys(errors):
        print(f"operation error: {message}", file=sys.stderr)
    for name, unit in units.items():
        print(f"  {name}: {values[name]} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only start, import, generate inputs and warm up (times set-up)")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        prepare(workload, args.seed, Context(ROOT), [], trace=False)
        return
    result = trace(workload, args.seed) if args.trace else measure(workload, args.seed, args.seconds)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
