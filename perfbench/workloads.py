"""The three workloads: set-up, drive, checks and metrics.

Each workload prepares its seeded inputs once (untimed), then runs one
or two *phases*.  A phase sets the system up several times (the median
is ``setup_s``; the last system is kept), warms it, drives it for the
run length, checks every output and tears it down.  A traced phase also
wraps the program's public calls with a :class:`~tracer.Tracer` for the
driven part only, so warm-up, set-up and checks leave no spans.

* ``hybrid_rollout`` — closed loop, one caller: ``HybridWorkflow.run_many``
  over 8 scenarios x 12 chained episodes, solver fallbacks dispatched
  to a thread pool.
* ``serve_storm`` — open loop into a thread-tier ``ForecastServer``
  (cache on, key-affinity routing, ``nproc`` replicas), forecasts and
  gradient requests on four basins.
* ``serve_unique_process`` — open loop, unique forecasts only, in bursts
  of 8, into a process-tier server with one child replica and no cache.
"""

from __future__ import annotations

import ctypes
import functools
import os
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

import inputs
from inputs import ESTUARY, N_EPISODES, T, VARS
from tracer import Span, Target, Tracer

from repro.ocean import RomsLikeModel
from repro.physics import Verifier
from repro.serve import ForecastServer, PoolSaturated
from repro.serve.procpool import ProcessWorker
from repro.swin.flops import surrogate_flops
from repro.tensor import PlanExecutor, Tensor
from repro.workflow import ForecastEngine, GradientRequest, HybridWorkflow

NPROC = os.cpu_count() or 1
MAX_BATCH = 8
#: solver-fallback pool width (at most nproc).  One thread: the solver
#: holds the GIL, and on a 2-vCPU host two pool threads made rollouts
#: about 1.5x slower than one and their times far less repeatable.
SOLVER_THREADS = 1
#: open-loop generator starts this long after its clock is read [s]
LEAD_S = 0.05
RESULT_TIMEOUT_S = 120.0
#: a generator running later than this at p99 makes the run suspect
MAX_LAG_S = 0.02

_LIBC = ctypes.CDLL(None, use_errno=True)


def cpu_seconds(pids=()) -> float:
    """CPU time of this process (every thread) plus that of the given
    child processes, read from their CPU-time clocks."""
    total = time.process_time()
    for pid in pids:
        clock = ctypes.c_int()
        if _LIBC.clock_getcpuclockid(int(pid), ctypes.byref(clock)) != 0:
            raise OSError(ctypes.get_errno(), f"no CPU clock for pid {pid}")
        total += time.clock_gettime(clock.value)
    return total


def pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def tail(values, candidates=(99, 98, 95, 90, 75)) -> Tuple[int, float]:
    """The highest candidate percentile with at least ten samples beyond
    it, and its value (the last candidate if none has)."""
    for q in candidates:
        if len(values) * (100 - q) >= 1000:
            break
    return q, pct(values, q)


def windows_equal(a, b) -> bool:
    return all(np.array_equal(getattr(a, v), getattr(b, v)) for v in VARS)


@dataclass
class Phase:
    """One measured phase: end-to-end metrics (the ``BENCHMARK.json``
    names), workload-specific figures that are printed only, request
    accounting, and — when traced — the per-layer metrics."""

    metrics: Dict[str, float]
    extra: Dict[str, Tuple[float, str]]
    attempted: int
    failed: int
    layers: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    tracer: Optional[Tracer] = None


def _engine_return(span_args, args, results) -> None:
    """Span fields read from a ``forecast_batch`` result: rows asked,
    plan bucket used (``None`` on the eager path), and the engine's own
    replay timer (the results' summed ``inference_seconds``)."""
    span_args["rows"] = len(args[1])
    span_args["plan_batch"] = results[0].plan_batch if results else None
    span_args["replay_s"] = sum(r.inference_seconds for r in results)


def _grad_return(span_args, args, results) -> None:
    span_args["rows"] = len(args[1])


class Workload:
    name = ""
    #: set-ups per phase; ``setup_s`` is their median
    setup_repeats = 31
    #: thread whose open span parents spans on threads with none
    ambient = False

    def __init__(self, seed: int, seconds: float):
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.model = inputs.surrogate(seed)
        self.norm = inputs.normalizer()
        self.flops_per_row = surrogate_flops(self.model.config).total
        self._rid: Optional[str] = None

    # -- to implement ----------------------------------------------------
    def setup(self):
        raise NotImplementedError

    def teardown(self, system) -> None:
        raise NotImplementedError

    def drive(self, system, tracer: Optional[Tracer]) -> Phase:
        raise NotImplementedError

    # -- shared ----------------------------------------------------------
    def phase(self, traced: bool) -> Phase:
        times, system = [], None
        for _ in range(self.setup_repeats):
            if system is not None:
                self.teardown(system)
            t0 = time.perf_counter()
            system = self.setup()
            times.append(time.perf_counter() - t0)
        try:
            tracer = Tracer(threading.current_thread() if self.ambient
                            else None) if traced else None
            result = self.drive(system, tracer)
        finally:
            self.teardown(system)
        result.metrics["setup_s"] = statistics.median(times)
        result.tracer = tracer
        return result

    def engine_targets(self, executor_cls=ForecastEngine) -> List[Target]:
        rid = self._request_ids
        return [
            Target(executor_cls, "forecast_batch", "workflow.engine",
                   request_id=rid, on_return=_engine_return),
            Target(PlanExecutor, "run", "tensor.plan"),
        ]

    def _request_ids(self, args) -> Optional[str]:
        return self._rid

    def plan_layers(self, tracer: Tracer, engine: ForecastEngine,
                    before: Dict, after: Dict) -> Dict[str, float]:
        """``workflow.engine`` and ``tensor.plan`` metrics.

        Replay time is the engine's own timer around ``PlanExecutor.run``
        (the ``replay_s`` span field), the one figure that is also visible
        from the parent of a process-tier child.  FLOPs
        (``swin.flops.surrogate_flops``) and bytes
        (``ExecutionPlan.arena_bytes`` + ``const_bytes``) are computed
        from the plan each call replayed, not measured.
        """
        calls = tracer.by_name("workflow.engine")
        if not calls:
            return {}
        replayed = [c for c in calls if c.args["plan_batch"] is not None]
        replay_times = [c.args["replay_s"] for c in replayed]
        buckets = [c.args["plan_batch"] for c in replayed]
        busy = sum(c.seconds for c in calls)
        plans = {b: engine.compile(b).plan for b in set(buckets)}
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        total = after["total_rows"] - before["total_rows"]
        padded = after["padded_rows"] - before["padded_rows"]
        return {
            "engine.call_ms_p50": 1e3 * pct([c.seconds for c in calls], 50),
            "engine.self_ms_p50": 1e3 * pct(
                [c.seconds - c.args["replay_s"] for c in calls], 50),
            "engine.rows_per_call": float(np.mean(
                [c.args["rows"] for c in calls])),
            "engine.pad_share": padded / total if total else 0.0,
            "engine.plan_hit_share": hits / (hits + misses)
            if hits + misses else 0.0,
            "plan.replay_ms_p50": 1e3 * pct(replay_times, 50),
            "plan.replay_share": sum(replay_times) / busy if busy else 0.0,
            "plan.gflops": 1e-9 * self.flops_per_row * sum(buckets)
            / sum(replay_times) if replay_times else 0.0,
            "plan.steps": float(np.mean(
                [plans[b].n_steps for b in buckets])) if buckets else 0.0,
            "plan.mflop_per_replay": 1e-6 * self.flops_per_row
            * float(np.mean(buckets)) if buckets else 0.0,
            "plan.mbytes_per_replay": 1e-6 * float(np.mean(
                [plans[b].arena_bytes() + plans[b].const_bytes()
                 for b in buckets])) if buckets else 0.0,
        }


# ----------------------------------------------------------------------
# hybrid_rollout
# ----------------------------------------------------------------------
@dataclass
class _HybridSystem:
    engine: ForecastEngine
    workflow: HybridWorkflow
    pool: ThreadPoolExecutor


class HybridRollout(Workload):
    """Closed loop, one caller; the paper's verify-or-fallback workflow."""

    name = "hybrid_rollout"
    ambient = True

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed, seconds)
        probe = ForecastEngine(self.model, self.norm)
        probe.compile_buckets(MAX_BATCH)
        self.inp = inputs.hybrid_inputs(seed, probe)
        # the eager reference: a never-compiled engine, fallbacks serial
        ocean = RomsLikeModel(ESTUARY)
        ref = HybridWorkflow(
            ForecastEngine(self.model, self.norm), ocean,
            Verifier(ocean.grid, ocean.depth,
                     dt=ESTUARY.snapshot_interval)).run_many(
            self.inp.references, self.inp.states, self.inp.threshold)
        self.reference = [
            (fields, [e.used_fallback for e in report.episodes])
            for fields, report in ref]
        self.reference_fallbacks = sum(r.n_fallbacks for _, r in ref)

    def setup(self) -> _HybridSystem:
        engine = ForecastEngine(self.model, self.norm)
        engine.compile_buckets(MAX_BATCH)
        ocean = RomsLikeModel(ESTUARY)
        verifier = Verifier(ocean.grid, ocean.depth,
                            dt=ESTUARY.snapshot_interval)
        # the solver-fallback pool, wired as ForecastServer.submit_hybrid
        # wires its own
        pool = ThreadPoolExecutor(max_workers=SOLVER_THREADS,
                                  thread_name_prefix="solver")
        return _HybridSystem(engine, HybridWorkflow(
            engine, ocean, verifier, fallback_pool=pool), pool)

    def teardown(self, system: _HybridSystem) -> None:
        system.pool.shutdown(wait=True)

    def targets(self) -> List[Target]:
        rid = self._request_ids
        return self.engine_targets() + [
            Target(Verifier, "verify_batch", "physics.verifier",
                   request_id=rid),
            Target(RomsLikeModel, "forecast", "ocean.solver",
                   request_id=rid),
            Target(HybridWorkflow, "run_many", "workflow.hybrid",
                   request_id=rid),
        ]

    def _check(self, out) -> int:
        """Episodes whose fields or fallback decision differ from the
        eager reference rollout."""
        bad = 0
        for (fields, report), (ref, ref_flags) in zip(out, self.reference):
            flags = [e.used_fallback for e in report.episodes]
            for ep in range(N_EPISODES):
                sl = slice(ep * T, (ep + 1) * T)
                same = flags[ep] == ref_flags[ep] and all(
                    np.array_equal(getattr(fields, v)[sl],
                                   getattr(ref, v)[sl]) for v in VARS)
                bad += not same
        return bad

    def drive(self, system: _HybridSystem, tracer) -> Phase:
        inp = self.inp
        wf = system.workflow
        # warm-up: the first episode of every scenario, untimed
        wf.run_many([inputs.slice_window(r, 0, T) for r in inp.references],
                    [s[:1] for s in inp.states], inp.threshold)
        before = system.engine.plan_stats()
        restore = tracer.install(self.targets()) if tracer else None
        walls, cpus, fallbacks, bad = [], [], [], 0
        deadline = time.perf_counter() + self.seconds
        try:
            while True:
                self._rid = f"rollout{len(walls)}"
                c0, t0 = cpu_seconds(), time.perf_counter()
                out = wf.run_many(inp.references, inp.states, inp.threshold)
                t1, c1 = time.perf_counter(), cpu_seconds()
                walls.append(t1 - t0)
                cpus.append(c1 - c0)
                fallbacks.append(sum(r.n_fallbacks for _, r in out))
                bad += self._check(out)
                if t1 >= deadline:
                    break
        finally:
            if restore:
                restore()
        after = system.engine.plan_stats()
        per_rollout = len(inp.references) * N_EPISODES
        episodes = len(walls) * per_rollout
        notes = []
        if bad:
            notes.append(f"{bad} episodes differ from the eager reference")
        if inp.predicted_fallbacks != self.reference_fallbacks:
            notes.append("threshold sweep predicted "
                         f"{inp.predicted_fallbacks} fallbacks, the "
                         f"reference rollout made {self.reference_fallbacks}")
        phase = Phase(
            # medians over the rollouts, so that one rollout caught in
            # a host stall does not move the run's figures
            metrics={
                "episodes_per_s": per_rollout / statistics.median(walls),
                "cpu_ms_per_episode": 1e3 * statistics.median(cpus)
                / per_rollout,
                "latency_p50_ms": 1e3 * statistics.median(walls),
            },
            extra={
                "rollout_p50_s": (statistics.median(walls), "s"),
                "rollouts": (len(walls), "count"),
                "fallbacks_per_rollout": (statistics.median(fallbacks),
                                          "count"),
                "reference_fallbacks": (self.reference_fallbacks, "count"),
                "threshold": (inp.threshold, "m/s"),
                "failed_share": (bad / episodes, "1"),
            },
            attempted=episodes, failed=bad, notes=notes)
        if tracer is not None:
            phase.layers = self.layers(tracer, system.engine, before, after,
                                       statistics.median(fallbacks))
        return phase

    def layers(self, tracer: Tracer, engine, before, after,
               fallbacks: float) -> Dict[str, float]:
        out = self.plan_layers(tracer, engine, before, after)
        kids = tracer.children()
        rollouts = tracer.by_name("workflow.hybrid")
        solver = tracer.by_name("ocean.solver")
        wall = sum(r.seconds for r in rollouts)
        out.update({
            "verify.ms_p50": 1e3 * pct(
                [s.seconds for s in tracer.by_name("physics.verifier")], 50),
            "solver.fallbacks": float(fallbacks),
            "solver.episode_ms_p50": 1e3 * pct(
                [s.seconds for s in solver], 50),
            "solver.busy_share": _union(solver) / wall if wall else 0.0,
            "hybrid.self_ms_p50": 1e3 * pct(
                [tracer.self_seconds(r, kids) for r in rollouts], 50),
        })
        return out


def _union(spans: List[Span]) -> float:
    """Seconds covered by at least one of the spans."""
    covered, hi = 0.0, -float("inf")
    for s in sorted(spans, key=lambda s: s.start):
        lo = max(s.start, hi)
        if s.end > lo:
            covered += s.end - lo
            hi = s.end
    return covered


# ----------------------------------------------------------------------
# serve_storm / serve_unique_process
# ----------------------------------------------------------------------
@dataclass
class _ServeSystem:
    engine: ForecastEngine
    server: ForecastServer

    def child_pids(self) -> List[int]:
        return [w.executor.pid for w in self.server.pool.workers
                if isinstance(w.executor, ProcessWorker)]

    def plan_stats(self) -> Dict:
        execs = {id(w.executor): w.executor
                 for w in self.server.pool.workers}
        keys = ("hits", "misses", "total_rows", "padded_rows")
        stats = [e.plan_stats() for e in execs.values()]
        return {k: sum(s[k] for s in stats) for k in keys}

    def counters(self) -> Dict[str, float]:
        m = self.server.pool.metrics
        cache = self.server.cache
        return {
            "engine_requests": m.n_requests,
            "batches": m.n_batches,
            "shed": m.shed_requests,
            "ipc_wait_s": m.ipc_wait_s,
            "marshal_bytes": m.marshal_bytes,
            "cache_hits": cache.stats.hits if cache else 0,
            "cache_misses": cache.stats.misses if cache else 0,
            "deduped": self.server.deduped_requests,
            "batch_marks": {w.worker_id: len(w.scheduler.metrics.batches)
                            for w in self.server.pool.workers},
        }


def _stamp(done_at: List[float], i: int, _future) -> None:
    done_at[i] = time.perf_counter()


class Serve(Workload):
    """Open loop: one generator replays the seeded arrivals on their due
    times (the main thread), whatever the server's state."""

    backend = "thread"
    unique_only = False

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed, seconds)
        self.arrivals = inputs.serve_arrivals(seed, seconds,
                                              self.unique_only)
        self.warm = inputs.warmup_windows(seed, 2 * MAX_BATCH)
        self.check_engine = ForecastEngine(self.model, self.norm)
        self.check_engine.compile_buckets(MAX_BATCH)
        self._rids: Dict[int, str] = {}

    def server_kwargs(self) -> Dict:
        raise NotImplementedError

    def setup(self) -> _ServeSystem:
        engine = ForecastEngine(self.model, self.norm)
        engine.compile_buckets(MAX_BATCH)
        server = ForecastServer(engine, max_batch=MAX_BATCH,
                                backend=self.backend, **self.server_kwargs())
        return _ServeSystem(engine, server)

    def teardown(self, system: _ServeSystem) -> None:
        system.server.close()

    def _request_ids(self, args) -> Optional[str]:
        refs = args[1]
        return ",".join(self._rids.get(id(r), "?") for r in refs)

    def targets(self) -> List[Target]:
        executor = ProcessWorker if self.backend == "process" \
            else ForecastEngine
        return self.engine_targets(executor) + [
            Target(ForecastEngine, "sensitivity_batch",
                   "workflow.sensitivity", request_id=self._request_ids,
                   on_return=_grad_return),
            Target(Tensor, "backward", "tensor.backward"),
            Target(ForecastServer, "submit", "serve.server",
                   request_id=self._submit_rid),
            Target(ForecastServer, "submit_sensitivity", "serve.server",
                   request_id=self._submit_rid),
        ]

    def _submit_rid(self, args) -> Optional[str]:
        window = getattr(args[1], "window", args[1])
        return self._rids.get(id(window))

    def _warm_up(self, server: ForecastServer) -> None:
        futures = [server.submit(w, route_key="warm-up") for w in self.warm]
        if not self.unique_only:
            storm = next(a.grad.storm for a in self.arrivals
                         if a.kind == "gradient")
            futures += [server.submit_sensitivity(
                GradientRequest(w, wrt=("fields", "storm"), storm=storm),
                route_key="warm-up") for w in self.warm[:MAX_BATCH]]
        for f in futures:
            f.result(timeout=RESULT_TIMEOUT_S)

    def drive(self, system: _ServeSystem, tracer) -> Phase:
        server = system.server
        self._warm_up(server)
        before = system.counters()
        plan_before = system.plan_stats()
        arrivals = self.arrivals
        n = len(arrivals)
        futures: List[Optional[object]] = [None] * n
        done_at = [0.0] * n
        lags = [0.0] * n
        pids = system.child_pids()
        restore = tracer.install(self.targets()) if tracer else None
        try:
            c0 = cpu_seconds(pids)
            t0 = time.perf_counter() + LEAD_S
            for i, a in enumerate(arrivals):
                due = t0 + a.due
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                lags[i] = time.perf_counter() - due
                self._rids[id(a.window)] = f"r{i}"
                try:
                    if a.kind == "gradient":
                        f = server.submit_sensitivity(a.grad,
                                                      route_key=a.basin)
                    else:
                        f = server.submit(a.window, route_key=a.basin)
                except PoolSaturated:
                    continue
                f.add_done_callback(functools.partial(_stamp, done_at, i))
                futures[i] = f
            results: List[Optional[object]] = [None] * n
            raised = 0
            for i, f in enumerate(futures):
                if f is None:
                    continue
                try:
                    results[i] = f.result(timeout=RESULT_TIMEOUT_S)
                except Exception:           # counted, reported below
                    raised += 1
            c1 = cpu_seconds(pids)
        finally:
            if restore:
                restore()
        plan_after = system.plan_stats()
        after = system.counters()
        return self._account(system, tracer, futures, results, done_at,
                             lags, t0, c1 - c0, raised, before, after,
                             plan_before, plan_after)

    # ------------------------------------------------------------------
    def _account(self, system, tracer, futures, results, done_at, lags,
                 t0, cpu, raised, before, after, plan_before,
                 plan_after) -> Phase:
        arrivals = self.arrivals
        n = len(arrivals)
        ok = [i for i in range(n) if results[i] is not None]
        shed = sum(f is None for f in futures)
        cached = sum(futures[i].cache_hit for i in ok)
        served = len(ok) - cached
        notes = []
        failed = shed + raised
        if n != served + cached + shed + raised:
            notes.append(f"accounting: offered {n} != served {served} + "
                         f"cached {cached} + shed {shed} + raised {raised}")
            failed += abs(n - served - cached - shed - raised)
        # the program's own counters must tell the same story
        own = {
            "served": after["engine_requests"] - before["engine_requests"],
            "cached": (after["cache_hits"] - before["cache_hits"]
                       + after["deduped"] - before["deduped"]),
            "shed": after["shed"] - before["shed"],
        }
        mine = {"served": served + raised, "cached": cached, "shed": shed}
        for key in own:
            if own[key] != mine[key]:
                notes.append(f"accounting: server counts {own[key]} "
                             f"{key}, the generator {mine[key]}")
                failed += abs(own[key] - mine[key])
        mismatched = self._check_outputs(system, futures, results, ok)
        if mismatched:
            notes.append(f"{mismatched} responses differ from the direct "
                         "engine call")
        failed += mismatched

        if pct(lags, 99) > MAX_LAG_S:
            notes.append(f"generator lagged: p99 {1e3 * pct(lags, 99):.1f} "
                         "ms behind the due times")
        fc = [i for i in ok if arrivals[i].kind == "forecast"]
        gr = [i for i in ok if arrivals[i].kind == "gradient"]
        lat = {i: done_at[i] - (t0 + arrivals[i].due) for i in ok}
        fc_lat = [lat[i] for i in fc]
        gr_lat = [lat[i] for i in gr]
        wall = max(done_at[i] for i in ok) - t0 if ok else float("nan")
        fq, f_tail = tail(fc_lat)
        extra = {
            "offered": (n, "count"),
            "served": (served, "count"),
            "cached": (cached, "count"),
            "shed": (shed, "count"),
            "forecasts": (len(fc), "count"),
            "forecast_p50_ms": (1e3 * pct(fc_lat, 50), "ms"),
            f"forecast_p{fq}_ms": (1e3 * f_tail, "ms"),
            "gen_lag_p99_ms": (1e3 * pct(lags, 99), "ms"),
            "failed_share": (failed / n, "1"),
        }
        if not self.unique_only:
            gq, g_tail = tail(gr_lat, (90, 75))
            extra.update({
                "gradients": (len(gr), "count"),
                "grad_p50_ms": (1e3 * pct(gr_lat, 50), "ms"),
                f"grad_p{gq}_ms": (1e3 * g_tail, "ms"),
            })
        phase = Phase(
            metrics={
                "episodes_per_s": len(ok) / wall,
                "cpu_ms_per_episode": 1e3 * cpu / len(ok),
                "latency_p50_ms": 1e3 * pct(fc_lat, 50),
            },
            extra=extra, attempted=n, failed=failed, notes=notes)
        if tracer is not None:
            phase.layers = self.layers(system, tracer, futures, ok, lags,
                                       before, after, plan_before,
                                       plan_after)
        return phase

    def _check_outputs(self, system, futures, results, ok) -> int:
        """Responses that differ from a direct engine call.

        Forecasts: every distinct window is forecast directly in batches
        of ``MAX_BATCH`` (the forward is row-independent, so each row is
        what a direct call on that window alone returns) and every
        response — served, cached or deduplicated — must be bitwise
        equal to it.  Gradients: every served gradient micro-batch is
        replayed with the same composition through ``sensitivity_batch``
        (batch shape changes the eager BLAS paths), and cached
        gradients must equal the served response of the same request.
        """
        arrivals = self.arrivals
        direct: Dict[tuple, object] = {}
        first = {}
        for i in ok:
            if arrivals[i].kind == "forecast":
                first.setdefault(arrivals[i].content, i)
        keys = list(first)
        for lo in range(0, len(keys), MAX_BATCH):
            chunk = keys[lo:lo + MAX_BATCH]
            res = self.check_engine.forecast_batch(
                [arrivals[first[k]].window for k in chunk])
            direct.update(zip(chunk, (r.fields for r in res)))

        by_slot = {(futures[i].worker_id, futures[i].request_id): i
                   for i in ok if arrivals[i].kind == "gradient"
                   and not futures[i].cache_hit}
        for w in system.server.pool.workers:
            for batch in w.scheduler.metrics.batches:
                idx = [by_slot.get((w.worker_id, r))
                       for r in batch.request_ids]
                if batch.kind != "gradient" or None in idx:
                    continue
                reqs = [arrivals[i].grad for i in idx]
                res = self.check_engine.sensitivity_batch(
                    [r.window for r in reqs], wrt=reqs[0].wrt,
                    diagnostic=reqs[0].diagnostic,
                    storms=[r.storm for r in reqs])
                for i, d in zip(idx, res):
                    direct.setdefault(arrivals[i].content, d)
        bad = 0
        for i in ok:
            want = direct.get(arrivals[i].content)
            got = results[i]
            if want is None:
                bad += 1
            elif arrivals[i].kind == "forecast":
                bad += not windows_equal(got.fields, want)
            else:
                bad += not (got.value == want.value
                            and got.d_storm == want.d_storm
                            and windows_equal(got.d_fields, want.d_fields))
        return bad

    def layers(self, system, tracer, futures, ok, lags, before, after,
               plan_before, plan_after) -> Dict[str, float]:
        out = self.plan_layers(tracer, system.engine, plan_before,
                               plan_after)
        kids = tracer.children()
        grads = tracer.by_name("workflow.sensitivity")
        calls = tracer.by_name("workflow.engine")
        if grads:
            per_fwd = sum(c.seconds for c in calls) \
                / max(sum(c.args["rows"] for c in calls), 1)
            per_grad = sum(g.seconds for g in grads) \
                / sum(g.args["rows"] for g in grads)
            out.update({
                "grad.call_ms_p50": 1e3 * pct([g.seconds for g in grads],
                                              50),
                "grad.backward_ms_p50": 1e3 * pct(
                    [sum(k.seconds for k in kids.get(g.span_id, ())
                         if k.name == "tensor.backward") for g in grads],
                    50),
                "grad.over_forward": per_grad / per_fwd if per_fwd else 0.0,
            })
        batches = []
        for w in system.server.pool.workers:
            mark = before["batch_marks"].get(w.worker_id, 0)
            batches += w.scheduler.metrics.batches[mark:]
        engine_served = [futures[i] for i in ok if not futures[i].cache_hit]
        queue = [f.queue_seconds for f in engine_served]
        d_batches = after["batches"] - before["batches"]
        hits = after["cache_hits"] - before["cache_hits"]
        misses = after["cache_misses"] - before["cache_misses"]
        n = len(self.arrivals)
        out.update({
            "server.submit_us_p50": 1e6 * pct(
                [s.seconds for s in tracer.by_name("serve.server")], 50),
            "server.cache_hit_share": hits / (hits + misses)
            if hits + misses else 0.0,
            "server.dedup_share": (after["deduped"] - before["deduped"]) / n,
            "sched.queue_ms_p50": 1e3 * pct(queue, 50),
            "sched.queue_ms_p99": 1e3 * pct(queue, 99),
            "sched.batch_rows_mean": float(np.mean(
                [b.size for b in batches])) if batches else 0.0,
            "pool.ipc_wait_ms_per_batch": 1e3 * (
                after["ipc_wait_s"] - before["ipc_wait_s"]) / d_batches
            if d_batches else 0.0,
            "pool.marshal_kb_per_batch": (
                after["marshal_bytes"] - before["marshal_bytes"])
            / 1024.0 / d_batches if d_batches else 0.0,
            "gen.lag_ms_p99": 1e3 * pct(lags, 99),
            "gen.sent": float(n),
        })
        return out


class ServeStorm(Serve):
    """Forecasts and gradients, thread tier, cache on, key affinity."""

    name = "serve_storm"

    def server_kwargs(self) -> Dict:
        return dict(workers=NPROC, router="key-affinity",
                    cache_bytes=256 << 20)


class ServeUniqueProcess(Serve):
    """Unique forecasts in bursts, process tier, one child, no cache."""

    name = "serve_unique_process"
    backend = "process"
    unique_only = True
    setup_repeats = 7

    def server_kwargs(self) -> Dict:
        return dict(workers=1, cache_bytes=0)


WORKLOADS = {w.name: w for w in (HybridRollout, ServeStorm,
                                 ServeUniqueProcess)}
