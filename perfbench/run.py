"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sink_plan_stream --seed 1 \\
        --seconds 35 --trace 0

Run from the repository root.  The program is imported from ``src/``
in-process (one client, closed loop, ``workers=1``).  ``setup_s`` is
the import time (scipy's lazy load included) plus the median of
``SETUP_REPEATS`` repetitions of input generation and a warm-up op;
every repetition must generate the same inputs.

The timed region repeats the workload's pass of ``PASS_OPS`` ops, each
time from fresh program state, for ``--seconds`` of wall time (at least
``MIN_PASSES`` passes), so every pass does the same work.  An op's time
is the median of its times over the passes.  Output checks run after
the timed region: the first pass is checked in full, and every later
pass must reproduce its outputs exactly.

Every time is scaled to a reference machine speed.  On a shared host
the speed of one core swings by tens of percent, within seconds and
from one minute to the next, and that swamps a change to the program.
So a fixed pure-Python loop (:func:`reference_s`) is timed before every
op and before every set-up step, and a time measured while that loop
took ``t`` is multiplied by ``REFERENCE_S / t``, where ``t`` is the
median loop time over the ``SCALE_WINDOW`` ops on either side of the
op, or over the samples taken just before a set-up step.  A change to
the program moves its times in full; a slower phase of the machine
slows the loop too, and cancels.  The report line keeps the unscaled
wall-clock time and the median scale of every pass.

``--trace 0`` reports the end-to-end metrics named in
``BENCHMARK.json``; ``--trace 1`` runs one pass untraced, then again
with the layer wrappers of :mod:`tracing` installed, and reports the
per-layer metrics plus the tracing overhead, writing a Chrome trace to
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it (``perfbench-report: {...}``) is the full report, including the
input digest, the quality counts that do not apply to every workload
and the machine-calibration time.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

SETUP_REPEATS = 3
MIN_PASSES = 3
TAIL_MIN_SAMPLES = 100
#: Iterations of the reference loop, and the time it is scaled to.
REFERENCE_ITERS = 2000
REFERENCE_S = 0.3e-3
#: Reference samples taken before each set-up step.
REFERENCE_SAMPLES = 20
#: Ops on either side of an op whose reference samples scale its time.
SCALE_WINDOW = 8
CALIBRATION_REPEATS = 3
#: Seed reserved for confirming a claimed gain; never tune against it.
HELD_OUT_SEED = 90210

#: Every end-to-end metric with its unit; ``BENCHMARK.json`` gates the
#: ones that apply to every workload.
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "failed_op_ratio": "ratio",
    "script_bytes": "bytes",
    "diff_inst": "count",
    "diff_cycle": "cycles",
    "network_energy_j": "J",
    "sim_convergence_s": "s",
    "converged_node_ratio": "ratio",
}

def calibrate() -> float:
    """Median time of a fixed pure-Python loop, in ms (informational:
    tells a slower machine apart from a regression)."""
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000.0


def reference_s() -> float:
    """Time one run of a fixed loop of dict, int and branch work, the
    kind of work the program's interpreter-bound layers do."""
    start = time.perf_counter()
    acc = 0
    table: dict = {}
    for i in range(REFERENCE_ITERS):
        key = i & 63
        table[key] = table.get(key, 0) + (acc & 7)
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


def machine_scale(samples=None) -> float:
    """Factor that scales a time measured now to the reference speed."""
    if samples is None:
        samples = [reference_s() for _ in range(REFERENCE_SAMPLES)]
    return REFERENCE_S / statistics.median(samples)


def op_scales(reference) -> list:
    """Per-op scale from the reference samples taken before each op of
    a pass; the sample taken after an op is the one before the next."""
    return [
        machine_scale(reference[max(0, i - SCALE_WINDOW) : i + SCALE_WINDOW + 2])
        for i in range(len(reference))
    ]


def tail(samples_s):
    """``(value_ms, percentile)`` of the highest percentile with at
    least ten samples beyond it.  Below ``TAIL_MIN_SAMPLES`` samples
    that percentile would sit in the body of the distribution, so the
    maximum is reported instead."""
    ordered = sorted(samples_s)
    index = len(ordered) - 1
    if len(ordered) >= TAIL_MIN_SAMPLES:
        index = len(ordered) - 11
    return ordered[index] * 1000.0, 100.0 * (index + 1) / len(ordered)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_op(workload, state, inputs, index):
    from workloads import OpResult

    try:
        return workload.op(state, inputs, index)
    except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
        return OpResult(ok=False, error=f"{type(exc).__name__}: {exc}")


def quality(results) -> dict:
    """Exact quality counts summed over one pass."""
    totals: dict = {}
    for result in results:
        for name, value in result.counts.items():
            totals[name] = totals.get(name, 0) + value
    fleet = totals.pop("fleet_nodes", 0)
    converged = totals.pop("converged_nodes", 0)
    if fleet:
        totals["converged_node_ratio"] = converged / fleet
    return totals


def failed_ops(workload, inputs, first, later=()) -> int:
    """Failed ops over all passes: ops that raised, ops of the ``first``
    pass whose outputs fail the checks, and ops of a ``later`` pass,
    given as ``(ok, fingerprint)`` pairs, whose output differs from the
    first pass's."""
    bad = {i for i, result in enumerate(first) if not result.ok}
    bad.update(workload.check(inputs, first))
    reference = [
        workload.fingerprint(result) if result.ok else None for result in first
    ]
    failed = len(bad)
    for outputs in later:
        failed += sum(
            1
            for i, (ok, fingerprint) in enumerate(outputs)
            if i in bad or not ok or fingerprint != reference[i]
        )
    return failed


def run_untraced(workload, inputs, seconds: float) -> dict:
    """Repeat the pass; the first pass's results are kept whole for the
    checks, later passes only as ``(ok, fingerprint)`` pairs, so memory
    does not grow with the number of passes."""
    first, later, errors = None, [], set()
    times, scales, wall = [], [], []
    start = time.perf_counter()
    while len(times) < MIN_PASSES or time.perf_counter() - start < seconds:
        state = workload.start(inputs)
        results, durations, reference = [], [], []
        for index in range(len(inputs.items)):
            reference.append(reference_s())
            began = time.perf_counter()
            results.append(run_op(workload, state, inputs, index))
            durations.append(time.perf_counter() - began)
        scale = op_scales(reference)
        times.append([duration * s for duration, s in zip(durations, scale)])
        scales.append(statistics.median(scale))
        wall.append(sum(durations))
        errors.update(result.error for result in results if result.error)
        if first is None:
            first = results
        else:
            later.append(
                [
                    (r.ok, workload.fingerprint(r) if r.ok else None)
                    for r in results
                ]
            )
    wall_s = time.perf_counter() - start
    rss = peak_rss_mb()
    attempted = len(first) * len(times)
    failed = failed_ops(workload, inputs, first, later)
    op_s = [statistics.median(op_times) for op_times in zip(*times)]
    tail_ms, tail_pct = tail(op_s)
    metrics = {
        "ops_per_s": len(op_s) / sum(op_s),
        "op_p50_ms": statistics.median(op_s) * 1000.0,
        "op_tail_ms": tail_ms,
        "peak_rss_mb": rss,
        "failed_op_ratio": failed / attempted,
    }
    metrics.update(quality(first))
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "errors": sorted(errors)[:5],
        "tail_percentile": tail_pct,
        "tail_samples": len(op_s),
        "passes": len(times),
        "pass_wall_s": wall,
        "pass_scale": scales,
        "wall_s": wall_s,
    }


def _counter_state():
    from repro.obs.metrics import REGISTRY

    state = REGISTRY.values()
    for name, snap in REGISTRY.snapshot().items():
        if snap["type"] == "histogram":
            state[name + ".sum"] = snap["sum"]
    return state


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, counts: dict) -> dict:
    """Per-layer metrics from the tracer's spans and the deltas of the
    program's own ``repro.obs`` counters."""
    from tracing import LAYERS

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = tracer.calls.get(layer, 0)
        out[f"{layer}.busy_ms"] = tracer.busy_s.get(layer, 0.0) * 1e3
        out[f"{layer}.self_ms"] = tracer.self_s.get(layer, 0.0) * 1e3

    def count(name):
        return counts.get(name, 0.0)

    def share(part, other):
        return _ratio(count(part), count(part) + count(other))

    out.update(
        {
            "ilp.cache_hit_ratio": share("ilp.cache.hits", "ilp.cache.misses"),
            "ilp.bb_nodes": count("ilp.bb_nodes"),
            "sim.instructions_per_s": _ratio(
                count("sim.instructions"), tracer.busy_s.get("sim", 0.0)
            ),
            "service.job_cache_hit_ratio": share(
                "service.cache.job_hits", "service.cache.job_misses"
            ),
            "service.compile_cache_hit_ratio": share(
                "service.cache.compile_hits", "service.cache.compile_misses"
            ),
            "net.kernel.events": count("net.kernel.events"),
            "net.kernel.events_per_s": _ratio(
                count("net.kernel.events"), tracer.busy_s.get("net.kernel", 0.0)
            ),
            "net.trickle.suppressed_ratio": share(
                "net.trickle.suppressed", "net.trickle.beacons"
            ),
            "net.campaign.retx_ratio": _ratio(
                count("campaign.retransmissions"), count("campaign.broadcasts")
            ),
            "net.coding.transmissions": count("net.coding.transmissions"),
            "versioning.build_ms": tracer.name_s.get("build_version_graph", 0.0) * 1e3,
            "versioning.plan_ms": tracer.name_s.get("plan_cohorts", 0.0) * 1e3,
            "versioning.edges": count("versioning.edges"),
            "net.profiles.deferrals": count("net.profile.airtime_deferrals"),
            "net.profiles.brownouts": count("net.profile.brownouts"),
            "regalloc.tags_broken": count("regalloc.ucc.tags_broken"),
            "diff.script_bytes": count("diff.script_bytes.sum"),
        }
    )
    return out


def run_traced(workload, inputs, seed: int) -> dict:
    from tracing import LayerTracer

    ops = len(inputs.items)
    state = workload.start(inputs)
    start = time.perf_counter()
    for index in range(ops):
        run_op(workload, state, inputs, index)
    untraced_s = time.perf_counter() - start

    state = workload.start(inputs)
    tracer = LayerTracer()
    before = _counter_state()
    tracer.install()
    try:
        start = time.perf_counter()
        results = [
            tracer.op(index, run_op, workload, state, inputs, index)
            for index in range(ops)
        ]
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    after = _counter_state()
    counts = {name: value - before.get(name, 0.0) for name, value in after.items()}
    failed = failed_ops(workload, inputs, results)

    metrics = layer_metrics(tracer, counts)
    metrics["trace.coverage_ratio"] = tracer.coverage()
    metrics["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
    metrics["trace.spans"] = tracer.span_count
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
    tracer.write_chrome_trace(
        str(trace_path),
        {"workload": workload.name, "seed": seed, "inputs_digest": inputs.digest},
    )
    return {
        "metrics": metrics,
        "attempted": ops,
        "failed": failed,
        "errors": sorted({r.error for r in results if r.error})[:5],
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "trace_file": str(trace_path.relative_to(ROOT)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_scale = machine_scale()
    import_start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro.api  # noqa: F401 - timed as part of set-up
        import scipy.optimize  # noqa: F401 - the ILP backend's lazy load
    except ImportError as exc:
        print(f"perfbench: cannot import the program from src/: {exc}", file=sys.stderr)
        return 2
    import_s = (time.perf_counter() - import_start) * import_scale
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    setup_times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        scale = machine_scale()
        start = time.perf_counter()
        inputs = workload.setup(args.seed)
        workload.warm_up()
        setup_times.append((time.perf_counter() - start) * scale)
        digests.add(inputs.digest)
    setup_s = import_s + statistics.median(setup_times)
    calibration_ms = calibrate()

    if args.trace:
        run = run_traced(workload, inputs, args.seed)
        run["metrics"]["calibration_ms"] = calibration_ms
        declared = benchmark["per_layer"]
    else:
        run = run_untraced(workload, inputs, args.seconds)
        run["metrics"]["setup_s"] = setup_s
        declared = benchmark["end_to_end"]
    units = dict(END_TO_END_UNITS)
    units.update((m["name"], m["unit"]) for m in benchmark["per_layer"])

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "inputs_digest": inputs.digest,
        "setup_s": setup_s,
        "setup_samples_s": setup_times,
        "import_s": import_s,
        "calibration_ms": calibration_ms,
        **{k: v for k, v in run.items() if k != "metrics"},
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in run["metrics"].items()
        },
    }
    print("perfbench-report: " + json.dumps(report, sort_keys=True))
    result = {
        "correct": run["failed"] == 0 and len(digests) == 1,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            m["name"]: {"value": run["metrics"][m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
