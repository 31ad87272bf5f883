"""Batched vs serial and compiled vs eager inference throughput.

The inference stack stages N episodes through one vectorised model
forward instead of N batch-1 forwards (PR 1), and — since PR 4 —
replays that forward through a compiled, allocation-free execution
plan (``repro.tensor.plan``).  This benchmark measures both layers at
the paper's motivating workload — an ensemble of perturbed initial
conditions ("an ensemble of tens of thousands of models for
uncertainty quantification", §I):

* **Serving scale** (the 16×16×6 operational mesh of the tests and
  examples): per-episode dispatch overhead dominates, so the batched
  engine must clear ≥ 1.5× throughput over the serial path at 8
  members.
* **Bench scale** (the 64×64×6 mesh of the benchmark suite): on this
  single-core NumPy backend the forward is memory-bandwidth-bound and
  a batch-1 chain is more cache-friendly, so the batched gain shrinks;
  the numbers are reported for the record.  (On the paper's GPUs the
  large-mesh regime is exactly where batching pays most.)
* **Compiled vs eager** (serving batch sizes 1..8): the compiled plan
  must be bitwise-identical to the eager forward, allocate strictly
  less per call, and — on hosts with ≥ 2 cores — clear ≥ 1.3×
  throughput at the serving micro-batch size.  The plan replays the
  same kernels serially on the calling thread; what it saves is
  per-op dispatch (no Tensor wrapping or autograd bookkeeping),
  allocation (outputs land in a liveness-packed arena) and, through
  fusion, whole kernel calls.  A single-core host does not arm the
  speed gate (same policy as ``bench_serving.py``).  Throughputs are
  recorded best-of and as p50/p90 over the timed repeats.  Since the
  plan-IR passes (``repro.tensor.plan_passes``) the compiled column
  replays the *fused* plan; an ``optimize_plans=False`` engine
  provides the unfused column so the fusion win is its own number,
  and the pass statistics (steps folded/fused/eliminated, arena
  bytes) land in the JSON record as ``plan_pass_stats``.
* **Bucketed partial batches**: a mixed-size request stream through an
  engine warmed with ``compile_buckets`` must hit a compiled plan for
  *every* batch (hit rate 1.0 — the eager-fallback bug this sweep
  pins down), stay bitwise-identical to eager, and report the padding
  overhead (``bucket_pad_fraction``).
* **Histogram-tuned buckets**: the same skewed stream served twice —
  canonical power-of-two buckets vs a set tuned to the observed
  batch-size histogram (``compile_buckets(..., histogram=...)``,
  backed by ``plan_buckets_from_histogram``).  The tuned set must
  keep the 1.0 hit rate while padding strictly no more than the
  canonical set; the before/after pad fractions land in the record.

Run as a script (``python benchmarks/bench_batched_inference.py
[--quick]``) this writes ``BENCH_inference.json`` — timestamped
medians, speedups and peak buffer bytes — so per-PR perf is trackable
(``tools/bench_gate.py`` compares two such files).
"""

import argparse
import json
import os
import sys
import time
import tracemalloc
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

try:
    import repro  # noqa: F401
except ModuleNotFoundError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.data import Normalizer
from repro.eval import compute_errors_many, format_table
from repro.swin import CoastalSurrogate, SurrogateConfig
from repro.workflow import (
    DualModelForecaster,
    EnsembleForecaster,
    FieldWindow,
    ForecastEngine,
    SurrogateForecaster,
)

try:
    from conftest import T
except ImportError:          # script mode: the bench env is not needed
    T = 8

N_MEMBERS = 8
SERVING = SurrogateConfig(
    mesh=(16, 16, 6), time_steps=4,
    patch3d=(4, 4, 2), patch2d=(4, 4),
    embed_dim=8, num_heads=(2, 4, 8), depths=(2, 2, 2),
    window_first=(2, 2, 2, 2), window_rest=(2, 2, 2, 2),
)


def _time_paths(forecaster, members, repeats=3):
    """Best-of-N wall clock for the serial loop and the batched pass."""
    forecaster.forecast_episode(members[0])          # warm-up
    serial_s, batched_s = float("inf"), float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        serial = [forecaster.forecast_episode(m) for m in members]
        serial_s = min(serial_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        batched = forecaster.forecast_batch(members)
        batched_s = min(batched_s, time.perf_counter() - t0)
    for s, b in zip(serial, batched):                # pure optimisation
        np.testing.assert_allclose(b.fields.zeta, s.fields.zeta,
                                   rtol=1e-4, atol=1e-5)
    return serial, batched, serial_s, batched_s


def _row(label, n, seconds, baseline):
    return [label, n, f"{seconds:.3f}", f"{n / seconds:.2f}",
            f"{baseline / seconds:.2f}x"]


def test_serving_scale_throughput(capsys):
    """≥ 1.5× batched throughput at 8 members on the serving mesh."""
    rng = np.random.default_rng(0)
    norm = Normalizer({v: 0.0 for v in ("u3", "v3", "w3", "zeta")},
                      {v: 1.0 for v in ("u3", "v3", "w3", "zeta")})
    fc = SurrogateForecaster(CoastalSurrogate(SERVING), norm)
    Ts = SERVING.time_steps
    members = [
        FieldWindow(rng.normal(size=(Ts, 15, 14, 6)),
                    rng.normal(size=(Ts, 15, 14, 6)),
                    rng.normal(size=(Ts, 15, 14, 6)),
                    rng.normal(size=(Ts, 15, 14)))
        for _ in range(N_MEMBERS)
    ]
    _, _, serial_s, batched_s = _time_paths(fc, members)
    speedup = serial_s / batched_s

    with capsys.disabled():
        print()
        print(format_table(
            ["Path", "Episodes", "Time [s]", "Episodes/s", "Speedup"],
            [_row("serial", N_MEMBERS, serial_s, serial_s),
             _row("batched", N_MEMBERS, batched_s, serial_s)],
            title=f"Serving scale {SERVING.mesh}, T={Ts}, "
                  f"{N_MEMBERS} ensemble members"))

    assert speedup >= 1.5, (
        f"batched path only {speedup:.2f}x over serial at "
        f"{N_MEMBERS} members (serving scale)")


def test_bench_scale_throughput(env, capsys):
    """Bench-mesh numbers for the record (bandwidth-bound regime)."""
    fc = env.fine_forecaster
    reference = env.test_windows()[0]
    ens = EnsembleForecaster(fc, n_members=N_MEMBERS,
                             zeta_sigma=0.02, velocity_sigma=0.02, seed=0)
    wet = env.ocean.solver.wet
    members = [ens._perturbed(reference, m, wet)
               for m in range(N_MEMBERS)]
    serial, batched, serial_s, batched_s = _time_paths(fc, members,
                                                       repeats=2)

    # accuracy parity against the reference, wet cells only
    err_serial = compute_errors_many([s.fields for s in serial],
                                     [reference] * N_MEMBERS, wet=wet)
    err_batched = compute_errors_many([b.fields for b in batched],
                                      [reference] * N_MEMBERS, wet=wet)
    assert abs(err_serial.rmse["zeta"] - err_batched.rmse["zeta"]) < 1e-4

    # dual-model rollout: one coarse forward + ONE batched fine forward
    horizon = env.test_windows(length=T * T)[0]
    dual = DualModelForecaster(env.coarse_forecaster, fc, coarse_ratio=T)
    t0 = time.perf_counter()
    dual_out = dual.forecast(horizon)
    dual_s = time.perf_counter() - t0

    with capsys.disabled():
        print()
        print(format_table(
            ["Path", "Episodes", "Time [s]", "Episodes/s", "Speedup"],
            [_row("ensemble serial", N_MEMBERS, serial_s, serial_s),
             _row("ensemble batched", N_MEMBERS, batched_s, serial_s),
             [f"dual rollout ({dual_out.episodes} ep)", dual_out.episodes,
              f"{dual_s:.3f}", f"{dual_out.episodes / dual_s:.2f}", "—"]],
            title=f"Bench scale {env.fine_model.config.mesh}, T={T}, "
                  f"{N_MEMBERS} ensemble members"))
        print(f"ζ RMSE vs reference — serial: {err_serial.rmse['zeta']:.4f}, "
              f"batched: {err_batched.rmse['zeta']:.4f}")


# ----------------------------------------------------------------------
# compiled vs eager (PR 4): plan replay at serving batch sizes
# ----------------------------------------------------------------------
def _serving_windows(n, seed=0):
    rng = np.random.default_rng(seed)
    Ts = SERVING.time_steps
    return [FieldWindow(rng.normal(size=(Ts, 15, 14, 6)),
                        rng.normal(size=(Ts, 15, 14, 6)),
                        rng.normal(size=(Ts, 15, 14, 6)),
                        rng.normal(size=(Ts, 15, 14)))
            for _ in range(n)]


def _timed_repeats(fn, repeats):
    """Wall clock of every one of ``repeats`` calls, after a warm-up."""
    fn()                                     # warm-up
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def _tracemalloc_peak(fn):
    tracemalloc.start()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def run_compiled_sweep(batches=(1, 2, 4, 8), repeats=5, quick=False):
    """Eager vs compiled ``forecast_batch`` on the serving mesh.

    Returns a dict with per-batch throughputs/speedups, peak buffer
    bytes (measured via tracemalloc around one call each, plus the
    plan's analytic arena/live model), and the bitwise check outcome.
    """
    if quick:
        batches, repeats = (1, max(batches)), 2
    model = CoastalSurrogate(SERVING)
    norm = Normalizer({v: 0.0 for v in ("u3", "v3", "w3", "zeta")},
                      {v: 1.0 for v in ("u3", "v3", "w3", "zeta")})
    eager = ForecastEngine(model, norm)      # never compiled
    compiled = ForecastEngine(model, norm)   # fused plans (the default)
    unfused = ForecastEngine(model, norm, optimize_plans=False)
    out = {"batches": {}, "bitwise_equal": True}
    for n in batches:
        windows = _serving_windows(n, seed=n)
        compiled.compile(n)
        unfused.compile(n)
        res_e = eager.forecast_batch(windows)
        res_c = compiled.forecast_batch(windows)
        res_u = unfused.forecast_batch(windows)
        assert res_c[0].compiled and res_u[0].compiled \
            and not res_e[0].compiled
        for a, b, c in zip(res_e, res_c, res_u):
            for var in ("u3", "v3", "w3", "zeta"):
                if not (np.array_equal(getattr(a.fields, var),
                                       getattr(b.fields, var))
                        and np.array_equal(getattr(a.fields, var),
                                           getattr(c.fields, var))):
                    out["bitwise_equal"] = False
        ts_eager = _timed_repeats(lambda: eager.forecast_batch(windows),
                                  repeats)
        ts_comp = _timed_repeats(lambda: compiled.forecast_batch(windows),
                                 repeats)
        t_eager, t_comp = min(ts_eager), min(ts_comp)
        t_unf = min(_timed_repeats(lambda: unfused.forecast_batch(windows),
                                   repeats))
        peak_eager = _tracemalloc_peak(
            lambda: eager.forecast_batch(windows))
        peak_comp = _tracemalloc_peak(
            lambda: compiled.forecast_batch(windows))
        plan = compiled.compile(n).plan
        out["batches"][n] = {
            "eager_eps": n / t_eager,
            "compiled_eps": n / t_comp,
            "unfused_eps": n / t_unf,
            "speedup": t_eager / t_comp,
            "fused_speedup": t_unf / t_comp,
            # throughput at the median / 90th-percentile call time (the
            # p90 key is the slow tail, not the fast one)
            "eager_eps_p50": n / np.percentile(ts_eager, 50),
            "compiled_eps_p50": n / np.percentile(ts_comp, 50),
            "compiled_eps_p90": n / np.percentile(ts_comp, 90),
            "eager_peak_bytes": peak_eager,
            "compiled_peak_bytes": peak_comp,
            "arena_bytes": plan.arena_bytes(),
            "plan_steps": plan.n_steps,
            "plan_peak_model_bytes": plan.peak_buffer_bytes(),
            "eager_peak_model_bytes": plan.eager_peak_bytes(),
        }
    out["plan_stats"] = compiled.plan_stats()
    out["plan_pass_stats"] = {
        int(b): dict(s) for b, s in
        compiled.plan_stats()["pass_stats"].items()}
    return out


def run_bucketed_sweep(max_batch=8, rounds=3, quick=False):
    """Mixed-size request stream against a bucket-warmed engine.

    Every partial batch must land in a compiled bucket (the
    eager-fallback bug this PR removes): hit rate 1.0, zero plan
    misses, bitwise-identical to eager, padding overhead reported.
    """
    if quick:
        max_batch, rounds = 4, 2
    model = CoastalSurrogate(SERVING)
    norm = Normalizer({v: 0.0 for v in ("u3", "v3", "w3", "zeta")},
                      {v: 1.0 for v in ("u3", "v3", "w3", "zeta")})
    eager = ForecastEngine(model, norm)
    engine = ForecastEngine(model, norm)
    buckets = engine.compile_buckets(max_batch)
    bitwise = True
    served = 0
    for r in range(rounds):
        for n in range(1, max_batch + 1):
            windows = _serving_windows(n, seed=100 * r + n)
            res = engine.forecast_batch(windows)
            served += 1
            if not all(x.compiled for x in res):
                bitwise = False       # a fallback also breaks the gate
                continue
            want = eager.forecast_batch(windows)
            for a, b in zip(res, want):
                for var in ("u3", "v3", "w3", "zeta"):
                    if not np.array_equal(getattr(a.fields, var),
                                          getattr(b.fields, var)):
                        bitwise = False
    stats = engine.plan_stats()
    return {
        "buckets": buckets,
        "requests": served,
        "hits": stats["hits"],
        "misses": stats["misses"],
        "hit_rate": stats["hits"] / served if served else 0.0,
        "bucket_hits": {int(k): v for k, v in
                        stats["bucket_hits"].items()},
        "bucket_pad_fraction": stats["bucket_pad_fraction"],
        "bitwise_equal": bitwise,
    }


def run_histogram_sweep(max_batch=8, rounds=4, quick=False):
    """Canonical vs histogram-tuned buckets on a skewed stream.

    Arrivals concentrate on a few awkward sizes (3 and 6 dominate);
    the canonical power-of-two set pads 3 → 4 and 6 → 8 on every such
    batch, while the tuned set compiles the observed sizes themselves
    (within the same plan-cache budget).  Both engines must keep the
    1.0 hit rate; the win is the pad-fraction drop.
    """
    if quick:
        rounds = 2
    # the skewed arrival pattern, repeated per round: mostly 3s, some
    # 6s, an occasional full flush
    sizes_per_round = [3, 3, 3, 6, 3, 6, max_batch, 3]
    observed = sizes_per_round * rounds

    model = CoastalSurrogate(SERVING)
    norm = Normalizer({v: 0.0 for v in ("u3", "v3", "w3", "zeta")},
                      {v: 1.0 for v in ("u3", "v3", "w3", "zeta")})
    canonical = ForecastEngine(model, norm)
    tuned = ForecastEngine(model, norm)
    canonical_buckets = canonical.compile_buckets(max_batch)
    tuned_buckets = tuned.compile_buckets(max_batch, histogram=observed)

    out = {}
    for label, engine, buckets in (
            ("canonical", canonical, canonical_buckets),
            ("tuned", tuned, tuned_buckets)):
        for r in range(rounds):
            for i, n in enumerate(sizes_per_round):
                engine.forecast_batch(
                    _serving_windows(n, seed=1000 * r + i))
        stats = engine.plan_stats()
        served = rounds * len(sizes_per_round)
        out[label] = {
            "buckets": list(buckets),
            "requests": served,
            "hit_rate": stats["hits"] / served if served else 0.0,
            "misses": stats["misses"],
            "bucket_pad_fraction": stats["bucket_pad_fraction"],
        }
    out["pad_fraction_saving"] = (
        out["canonical"]["bucket_pad_fraction"]
        - out["tuned"]["bucket_pad_fraction"])
    return out


def _print_histogram_report(sweep):
    c, t = sweep["canonical"], sweep["tuned"]
    print(f"Histogram-tuned buckets: canonical {c['buckets']} pads "
          f"{c['bucket_pad_fraction']:.3f} of served rows; tuned "
          f"{t['buckets']} pads {t['bucket_pad_fraction']:.3f} "
          f"(saving {sweep['pad_fraction_saving']:.3f}; hit rates "
          f"{c['hit_rate']:.2f} / {t['hit_rate']:.2f})")


def _check_histogram_sweep(sweep):
    failures = []
    for label in ("canonical", "tuned"):
        s = sweep[label]
        if s["hit_rate"] < 1.0 or s["misses"]:
            failures.append(
                f"{label} buckets: hit rate {s['hit_rate']:.2f} "
                f"({s['misses']} misses) on the skewed stream")
    if sweep["pad_fraction_saving"] < 0:
        failures.append(
            "histogram-tuned buckets pad MORE than the canonical set "
            f"({sweep['tuned']['bucket_pad_fraction']:.3f} > "
            f"{sweep['canonical']['bucket_pad_fraction']:.3f})")
    return failures


def test_histogram_tuned_buckets(capsys):
    """Tuned buckets keep the 1.0 hit rate and pad no more than the
    canonical power-of-two set on a skewed stream."""
    sweep = run_histogram_sweep(quick=True)
    with capsys.disabled():
        print()
        _print_histogram_report(sweep)
    assert not _check_histogram_sweep(sweep)


def _print_compiled_report(sweep):
    rows = []
    for n, m in sorted(sweep["batches"].items()):
        rows.append([n, f"{m['eager_eps']:.2f}", f"{m['unfused_eps']:.2f}",
                     f"{m['compiled_eps']:.2f}",
                     f"{m['speedup']:.2f}x", f"{m['fused_speedup']:.2f}x",
                     f"{m['eager_peak_bytes'] / 1e6:.2f}",
                     f"{m['compiled_peak_bytes'] / 1e6:.2f}",
                     f"{m['arena_bytes'] / 1e6:.2f}"])
    print(format_table(
        ["Batch", "Eager ep/s", "Unfused ep/s", "Fused ep/s",
         "Speedup", "Fusion gain", "Eager peak MB", "Compiled peak MB",
         "Arena MB"],
        rows, title=f"Compiled vs eager, serving scale {SERVING.mesh}, "
                    f"T={SERVING.time_steps}"))
    print(f"bitwise compiled == eager: {sweep['bitwise_equal']}")
    for b, ps in sorted(sweep["plan_pass_stats"].items()):
        print(f"  batch {b}: {ps['steps_before']} -> {ps['steps_after']} "
              f"steps ({ps['folded_steps']} folded, "
              f"{sum(ps['fused'].values())} fused, "
              f"{ps['dead_steps']} dead)")


def _print_bucketed_report(sweep):
    print(f"Bucketed partial batches: buckets {sweep['buckets']}, "
          f"{sweep['requests']} mixed-size requests, "
          f"hit rate {sweep['hit_rate']:.2f} "
          f"({sweep['misses']} misses), "
          f"pad fraction {sweep['bucket_pad_fraction']:.3f}, "
          f"bitwise {sweep['bitwise_equal']}")


def _check_bucketed_sweep(sweep):
    failures = []
    if sweep["hit_rate"] < 1.0 or sweep["misses"]:
        failures.append(
            f"bucketed sweep hit rate {sweep['hit_rate']:.2f} "
            f"({sweep['misses']} misses) — partial batches fell "
            "back to eager")
    if not sweep["bitwise_equal"]:
        failures.append("bucketed replay is not bitwise-identical "
                        "to eager")
    return failures


def _check_compiled_sweep(sweep, quick=False):
    """Shared verdicts for the pytest and script entry points.

    Returns a list of failure strings (empty = pass).
    """
    failures = []
    if not sweep["bitwise_equal"]:
        failures.append("compiled results are not bitwise-identical "
                        "to eager")
    for n, m in sweep["batches"].items():
        if m["compiled_peak_bytes"] >= m["eager_peak_bytes"]:
            failures.append(
                f"batch {n}: compiled peak buffer bytes "
                f"{m['compiled_peak_bytes']} not below eager "
                f"{m['eager_peak_bytes']}")
    cores = os.cpu_count() or 1
    top = max(sweep["batches"])
    speedup = sweep["batches"][top]["speedup"]
    if quick:
        print(f"NOTE: quick mode — ≥1.3x speedup gate not armed "
              f"(measured {speedup:.2f}x at batch {top})")
    elif cores < 2:
        # the plan saves dispatch, allocation and fused kernel calls;
        # one core shared with the harness measures that saving too
        # noisily to hold it to a fixed ratio
        print(f"NOTE: host has 1 CPU core — the ≥1.3x compiled speedup "
              f"gate is not armed (measured {speedup:.2f}x at "
              f"batch {top})")
    elif speedup < 1.3:
        failures.append(
            f"compiled speedup {speedup:.2f}x < 1.3x at serving batch "
            f"{top} on {cores} cores")
    return failures


def test_compiled_vs_eager(capsys):
    """Bitwise identity, lower peak bytes, core-gated ≥1.3× speedup."""
    sweep = run_compiled_sweep()
    with capsys.disabled():
        print()
        _print_compiled_report(sweep)
        failures = _check_compiled_sweep(sweep)
    assert not failures, "; ".join(failures)


def test_bucketed_partial_batches(capsys):
    """100% plan hit rate and bitwise replay on a mixed-size stream."""
    sweep = run_bucketed_sweep(quick=True)
    with capsys.disabled():
        print()
        _print_bucketed_report(sweep)
    assert not _check_bucketed_sweep(sweep)


# ----------------------------------------------------------------------
# script mode: machine-readable benchmark trajectory
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small CI smoke run (correctness asserts only)")
    ap.add_argument("--out", default=None,
                    help="JSON output path (default: BENCH_inference.json "
                         "next to this file's repo root)")
    args = ap.parse_args(argv)

    sweep = run_compiled_sweep(quick=args.quick)
    _print_compiled_report(sweep)
    failures = _check_compiled_sweep(sweep, quick=args.quick)

    bucketed = run_bucketed_sweep(quick=args.quick)
    _print_bucketed_report(bucketed)
    failures += _check_bucketed_sweep(bucketed)

    histogram = run_histogram_sweep(quick=args.quick)
    _print_histogram_report(histogram)
    failures += _check_histogram_sweep(histogram)

    top = max(sweep["batches"])
    metrics = {"bitwise_equal": sweep["bitwise_equal"]}
    for n, m in sweep["batches"].items():
        for k, v in m.items():
            metrics[f"{k}_b{n}"] = v
    # the compiled column replays the fused plan; name it explicitly so
    # the gate entry reads as what it is
    metrics[f"fused_eps_b{top}"] = metrics[f"compiled_eps_b{top}"]
    metrics["bucket_hit_rate"] = bucketed["hit_rate"]
    metrics["bucket_pad_fraction"] = bucketed["bucket_pad_fraction"]
    metrics["hist_pad_fraction_canonical"] = \
        histogram["canonical"]["bucket_pad_fraction"]
    metrics["hist_pad_fraction_tuned"] = \
        histogram["tuned"]["bucket_pad_fraction"]
    metrics["hist_pad_fraction_saving"] = \
        histogram["pad_fraction_saving"]
    record = {
        "benchmark": "inference",
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "quick": bool(args.quick),
        "cores": os.cpu_count() or 1,
        "config": {"mesh": list(SERVING.mesh),
                   "time_steps": SERVING.time_steps,
                   "batches": sorted(sweep["batches"]),
                   "buckets": list(bucketed["buckets"])},
        "metrics": metrics,
        "plan_pass_stats": sweep["plan_pass_stats"],
        "bucketed": bucketed,
        "histogram_buckets": histogram,
        # tools/bench_gate.py regresses these (higher = better); the
        # fused-plan throughput is gated the same way bench_serving
        # gates proc_pool_sat_qps
        "gate": {"higher_better": [f"compiled_eps_b{top}",
                                   f"fused_eps_b{top}",
                                   "bucket_hit_rate",
                                   f"compiled_eps_p50_b{top}"]},
    }
    out_path = Path(args.out) if args.out else \
        Path(__file__).resolve().parent.parent / "BENCH_inference.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out_path}")

    for f in failures:
        print(f"FAIL: {f}")
    if not failures:
        print("PASS: compiled plans bitwise-identical with lower peak "
              "buffer bytes")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
