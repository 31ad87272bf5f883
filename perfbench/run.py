"""Repository benchmark: one workload, one seed, one result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload hybrid_rollout --seed 1 \\
        --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``hybrid_rollout``, ``serve_storm``,
``serve_unique_process``.  Inputs come from ``--seed`` alone; the run
drives the program for ``--seconds`` and checks every output.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` splits the
run length between an untraced and a traced phase of the same inputs
and prints the per-layer metrics of the traced phase plus the tracing
overhead (traced minus untraced) of every end-to-end metric; its spans
are written to ``.perfbench_out/`` as JSONL and as Chrome trace-event
JSON.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything
before it is a human-readable report.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

#: (name, unit) — the end-to-end metrics, reported with --trace 0
END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("episodes_per_s", "1/s"),
    ("cpu_ms_per_episode", "ms"),
    ("setup_s", "s"),
)

#: (name, unit) — the per-layer metrics, reported with --trace 1; a
#: layer that does no work on a workload reports 0
PER_LAYER = (
    ("engine.call_ms_p50", "ms"),
    ("engine.self_ms_p50", "ms"),
    ("engine.rows_per_call", "rows"),
    ("engine.pad_share", "1"),
    ("engine.plan_hit_share", "1"),
    ("plan.replay_ms_p50", "ms"),
    ("plan.replay_share", "1"),
    ("plan.gflops", "GFLOP/s"),
    ("plan.steps", "count"),
    ("plan.mflop_per_replay", "Mflop"),
    ("plan.mbytes_per_replay", "MB"),
    ("grad.call_ms_p50", "ms"),
    ("grad.backward_ms_p50", "ms"),
    ("grad.over_forward", "1"),
    ("verify.ms_p50", "ms"),
    ("solver.fallbacks", "count"),
    ("solver.episode_ms_p50", "ms"),
    ("solver.busy_share", "1"),
    ("hybrid.self_ms_p50", "ms"),
    ("server.submit_us_p50", "us"),
    ("server.cache_hit_share", "1"),
    ("server.dedup_share", "1"),
    ("sched.queue_ms_p50", "ms"),
    ("sched.queue_ms_p99", "ms"),
    ("sched.batch_rows_mean", "rows"),
    ("pool.ipc_wait_ms_per_batch", "ms"),
    ("pool.marshal_kb_per_batch", "KiB"),
    ("gen.lag_ms_p99", "ms"),
    ("gen.sent", "count"),
) + tuple((f"overhead.{name}", unit) for name, unit in END_TO_END)


#: computed from the model config and the plans, not measured: FLOPs
#: from ``swin.flops.surrogate_flops``, bytes from
#: ``ExecutionPlan.arena_bytes() + const_bytes()``.  No roofline claim
#: is made from a CPU VM.
COMPUTED = ("plan.gflops", "plan.mflop_per_replay", "plan.mbytes_per_replay")


def _print_phase(title: str, phase) -> None:
    print(f"== {title}")
    for name, unit in END_TO_END:
        print(f"  {name:<28} {phase.metrics[name]:>14.6g} {unit}")
    for name, (value, unit) in phase.extra.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    print(f"  attempted {phase.attempted}, failed {phase.failed}")
    for note in phase.notes:
        print(f"  NOTE: {note}")


def _print_trace(tracer, layers) -> None:
    print("== self time by span (traced phase)")
    print(f"  {'span':<24} {'calls':>8} {'total ms':>12} {'self ms':>12}")
    for name, calls, total, own in tracer.self_table():
        print(f"  {name:<24} {calls:>8} {total:>12.1f} {own:>12.1f}")
    print("== per-layer metrics (traced phase; overhead = traced - untraced)")
    for name, unit in PER_LAYER:
        label = " (computed)" if name in COMPUTED else ""
        print(f"  {name:<28} {layers[name]:>14.6g} {unit}{label}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    phase_seconds = args.seconds / 2 if args.trace else args.seconds
    workload = WORKLOADS[args.workload](args.seed, phase_seconds)
    untraced = workload.phase(traced=False)
    _print_phase(f"{args.workload} seed {args.seed} (untraced)", untraced)
    attempted, failed = untraced.attempted, untraced.failed
    metrics = {name: {"value": untraced.metrics[name], "unit": unit}
               for name, unit in END_TO_END}

    if args.trace:
        traced = workload.phase(traced=True)
        _print_phase(f"{args.workload} seed {args.seed} (traced)", traced)
        attempted += traced.attempted
        failed += traced.failed
        layers = dict(traced.layers)
        for name, _ in END_TO_END:
            layers[f"overhead.{name}"] = \
                traced.metrics[name] - untraced.metrics[name]
        layers = {name: layers.get(name, 0.0) for name, _ in PER_LAYER}
        _print_trace(traced.tracer, layers)
        paths = traced.tracer.export(
            OUT_DIR, f"{args.workload}-seed{args.seed}")
        print("== spans written to " + ", ".join(
            str(p.relative_to(ROOT)) for p in paths))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER}

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def stop_helpers() -> None:
    """Stop the ``multiprocessing`` resource tracker, if the process
    tier started one (its shared-memory segments register there), and
    wait for it to end: otherwise it outlives this process by a moment.
    Every worker child has been joined by the servers' ``close()``."""
    from multiprocessing import resource_tracker
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


if __name__ == "__main__":
    # a terminated run still takes the teardown paths (``finally``)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        code = main()
    finally:
        stop_helpers()
    sys.exit(code)
