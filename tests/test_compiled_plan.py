"""Compiled inference plans: trace/replay equivalence, arena safety,
and plan dispatch through engine, scheduler, pool, and server.

The invariant under test everywhere is **bitwise equality**: a compiled
plan replays the exact NumPy expressions of the eager inference path,
so every field of every result must be ``np.array_equal`` to the eager
one — for plain, ensemble, and hybrid requests, under every pool
routing policy.
"""

import threading

import numpy as np
import pytest
from conftest import (  # noqa: F401 — shared serving fixtures
    VARS,
    assert_windows_equal,
    make_window,
)

from repro.data import Normalizer
from repro.physics import Verifier
from repro.serve import EngineWorkerPool, ForecastServer
from repro.tensor import (
    BufferArena,
    PlanExecutor,
    Tensor,
    TraceError,
    concatenate,
    no_grad,
    trace,
)
from repro.tensor import plan as plan_mod
from repro.workflow import (
    EnsembleForecaster,
    ForecastEngine,
    HybridWorkflow,
)

POLICIES = ("round-robin", "least-outstanding", "key-affinity")


def assert_windows_bitwise(a, b):
    """Exact equality on every field — the compiled-plan invariant."""
    for var in ("u3", "v3", "w3", "zeta"):
        np.testing.assert_array_equal(getattr(a, var), getattr(b, var),
                                      err_msg=var)


@pytest.fixture()
def engine(tiny_surrogate, identity_norm):
    """A fresh engine per test so plan caches/counters start empty.

    Shadows the session-scoped conftest ``engine`` on purpose: plan
    tests inspect cache/counter state and need it empty.
    """
    return ForecastEngine(tiny_surrogate, identity_norm)


def _fn(a, b):
    """A shape-static toy forward touching many primitive kinds."""
    h = (a + b) * 2.0
    h = h.roll((1, -2), axis=(0, 1))
    h = h.transpose(1, 0).reshape(4, -1)
    h = h.softmax(axis=-1)
    h = concatenate([h, h * 0.5], axis=0)
    return (h.sum(axis=0, keepdims=True) + h[:1]).tanh()


class TestTraceReplay:
    def test_replay_bitwise_on_new_data(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 6)).astype(np.float32)
        y = rng.normal(size=(8, 6)).astype(np.float32)
        plan, traced = trace(_fn, (x, y))
        with no_grad():
            eager = _fn(Tensor(x), Tensor(y))
        assert np.array_equal(traced.data, eager.data)
        ex = PlanExecutor(plan)
        for seed in range(3):
            r = np.random.default_rng(10 + seed)
            x2 = r.normal(size=(8, 6)).astype(np.float32)
            y2 = r.normal(size=(8, 6)).astype(np.float32)
            with no_grad():
                want = _fn(Tensor(x2), Tensor(y2))
            (got,) = ex.run((x2, y2))
            assert np.array_equal(got, want.data)

    def test_constant_subgraphs_fold_into_no_steps(self):
        c1, c2 = Tensor(np.ones((3, 3), np.float32)), \
            Tensor(np.full((3, 3), 2.0, np.float32))

        def fn(a):
            return a + (c1 * c2 + 1.0)     # const subtree: one add step

        plan, _ = trace(fn, (np.zeros((3, 3), np.float32),))
        assert plan.n_steps == 1
        assert plan.steps[0].name == "add"

    def test_movement_classification_is_view_or_copy(self):
        def fn(a):
            v = a.transpose(1, 0)          # view
            c = v.reshape(-1)              # copy (non-contiguous source)
            return c * 1.0

        plan, _ = trace(fn, (np.zeros((4, 5), np.float32),))
        kinds = {s.name: plan.slots[s.out].kind for s in plan.steps}
        assert kinds["transpose"] == "view"
        assert kinds["reshape"] == "compute"

    def test_plan_peak_never_exceeds_eager_model(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(16, 32)).astype(np.float32)
        plan, _ = trace(_fn, (x, x.copy()))
        assert plan.arena_bytes() > 0
        assert plan.peak_buffer_bytes() <= plan.eager_peak_bytes()

    def test_liveness_no_live_ranges_overlap(self, tiny_surrogate):
        """Offset assignment: two arena slots may share bytes only if
        their alias-group lifetimes are disjoint — so no step's output
        buffer can overlap a buffer that is still live (e.g. one of
        its own inputs)."""
        norm = Normalizer({v: 0.0 for v in VARS}, {v: 1.0 for v in VARS})
        engine = ForecastEngine(tiny_surrogate, norm)
        plan = engine.compile(2).plan
        last = plan._last_uses()
        group_end = {}
        for sid, spec in enumerate(plan.slots):
            group_end[spec.root] = max(group_end.get(spec.root, -1),
                                       last[sid])
        lives = []      # (byte_lo, byte_hi, born_step, dies_step)
        for i, step in enumerate(plan.steps):
            spec = plan.slots[step.out]
            if spec.phys is None:
                continue
            lives.append((spec.phys, spec.phys + spec.nbytes, i,
                          group_end[spec.root]))
        assert len(lives) > 50       # the real model, not a toy
        for i, (lo_a, hi_a, b_a, d_a) in enumerate(lives):
            for lo_b, hi_b, b_b, d_b in lives[i + 1:]:
                bytes_overlap = lo_a < hi_b and lo_b < hi_a
                # b born at step b_b while a is live through d_a means
                # time overlap (birth step counts: inputs are read
                # while the output is written)
                time_overlap = b_b <= d_a and b_a <= d_b
                assert not (bytes_overlap and time_overlap), (
                    f"slots at bytes [{lo_a},{hi_a}) and [{lo_b},{hi_b}) "
                    f"are live together (steps {b_a}-{d_a} vs {b_b}-{d_b})")

    def test_roll_repeated_axis_matches_numpy(self):
        """np.roll accumulates shifts on a repeated axis; the arena
        replay kernel must reproduce that exactly."""
        def fn(a):
            return a.roll((1, 1, 3), axis=(0, 0, 1)) * 1.0

        x = np.arange(40, dtype=np.float32).reshape(8, 5)
        plan, _ = trace(fn, (x,))
        (got,) = PlanExecutor(plan).run((x,))
        want = np.roll(x, (1, 1, 3), axis=(0, 0, 1)) * 1.0
        assert np.array_equal(got, want)

    def test_detach_and_copy_keep_the_trace(self):
        """detach()/copy() of a traced intermediate must not silently
        constant-fold the rest of the forward."""
        def fn(a):
            return a.detach() * 2.0 + a.copy()

        x = np.ones((2, 3), np.float32)
        plan, _ = trace(fn, (x,))
        ex = PlanExecutor(plan)
        y = np.full((2, 3), 5.0, np.float32)
        (got,) = ex.run((y,))
        assert np.array_equal(got, y * 2.0 + y)

    def test_inplace_into_constant_refused(self):
        """An in-place kernel whose target is a plan constant but whose
        operand is traced cannot be captured (each replay would need to
        re-mutate the frozen constant)."""
        const = Tensor(np.zeros(4, np.float32))

        def fn(a):
            return plan_mod.trace_apply("iadd", (const, a))

        with pytest.raises(TraceError, match="constant"):
            trace(fn, (np.ones(4, np.float32),))

    def test_inplace_on_input_refused(self):
        from repro.nn import Linear
        lin = Linear(4, 4)

        def fn(a):
            # Linear's traced bias add is in-place on the matmul
            # output — fine; an in-place op targeting the *input*
            # buffer itself must be refused
            return plan_mod.trace_apply("iadd", (a, Tensor(np.ones(4,
                                        np.float32))))

        with pytest.raises(TraceError, match="mutate caller data"):
            trace(fn, (np.zeros((3, 4), np.float32),))
        # and the legal version (via Linear) traces fine
        plan, _ = trace(lambda a: lin(a), (np.zeros((3, 4), np.float32),))
        assert "iadd" in plan.kernel_counts()

    def test_training_mode_layers_refuse_to_trace(self, tiny_surrogate):
        tiny_surrogate.train()
        try:
            with pytest.raises(TraceError, match="eval"):
                trace(lambda a, b: tiny_surrogate(a, b),
                      (np.zeros((1, 3, 16, 16, 6, 4), np.float32),
                       np.zeros((1, 1, 16, 16, 4), np.float32)))
        finally:
            tiny_surrogate.eval()

    def test_trace_is_not_reentrant(self):
        def fn(a):
            trace(lambda x: x * 2.0, (np.zeros(2, np.float32),))
            return a

        with pytest.raises(TraceError, match="reentrant"):
            trace(fn, (np.zeros(2, np.float32),))

    def test_executor_validates_inputs(self):
        plan, _ = trace(lambda a: a * 2.0, (np.zeros((2, 3), np.float32),))
        ex = PlanExecutor(plan)
        with pytest.raises(ValueError, match="expects 1 inputs"):
            ex.run(())
        with pytest.raises(ValueError, match="C-contiguous"):
            ex.run((np.zeros((3, 2), np.float32),))
        with pytest.raises(ValueError, match="C-contiguous"):
            ex.run((np.zeros((2, 3), np.float64),))


class TestBufferArena:
    def test_growth_then_reuse(self):
        arena = BufferArena()
        a = arena.take(1000)
        assert arena.stats() == {"allocated_bytes": 1000,
                                 "allocations": 1, "reuses": 0}
        arena.give(a)
        b = arena.take(800)          # fits in the freed blob
        assert b is a
        assert arena.stats()["reuses"] == 1
        c = arena.take(2000)         # no fit: the arena grows
        assert c.nbytes == 2000
        assert arena.stats()["allocations"] == 2
        assert arena.stats()["allocated_bytes"] == 3000

    def test_executor_release_returns_blob(self):
        plan, _ = trace(lambda a: a * 2.0,
                        (np.zeros((64, 64), np.float32),))
        arena = BufferArena()
        ex1 = PlanExecutor(plan, arena)
        ex1.release()
        ex2 = PlanExecutor(plan, arena)
        stats = arena.stats()
        assert stats["allocations"] == 1 and stats["reuses"] == 1
        (out,) = ex2.run((np.ones((64, 64), np.float32),))
        assert np.array_equal(out, np.full((64, 64), 2.0, np.float32))


class TestEngineCompiled:
    def test_compiled_bitwise_equal_eager(self, engine, tiny_surrogate,
                                          windows):
        norm = Normalizer({v: 0.0 for v in VARS}, {v: 1.0 for v in VARS})
        eager = ForecastEngine(tiny_surrogate, norm)   # no plans ever
        engine.compile(4)
        got = engine.forecast_batch(windows[:4])
        want = eager.forecast_batch(windows[:4])
        assert all(r.compiled for r in got)
        assert not any(r.compiled for r in want)
        for g, w in zip(got, want):
            for var in VARS:
                assert np.array_equal(getattr(g.fields, var),
                                      getattr(w.fields, var))

    def test_partial_batch_buckets_into_larger_plan(self, engine, windows):
        """A batch-3 request no longer falls back to eager: it pads into
        the compiled batch-4 plan and records the bucket it used."""
        engine.compile(4)
        res = engine.forecast_batch(windows[:3])
        assert all(r.compiled for r in res)
        assert all(r.plan_batch == 4 for r in res)
        stats = engine.plan_stats()
        assert stats["hits"] == 1 and stats["misses"] == 0
        assert stats["bucket_hits"] == {4: 1}
        assert stats["padded_rows"] == 1 and stats["total_rows"] == 4
        assert stats["bucket_pad_fraction"] == pytest.approx(0.25)
        engine.forecast_batch(windows[:4])
        stats = engine.plan_stats()
        assert stats["hits"] == 2 and stats["batches"] == [4]
        assert stats["bucket_pad_fraction"] == pytest.approx(1 / 8)

    def test_oversized_batch_still_falls_back_to_eager(self, engine,
                                                       windows):
        """No compiled plan can hold the request ⇒ genuine eager path."""
        engine.compile(4)
        res = engine.forecast_batch(windows[:5])
        assert not any(r.compiled for r in res)
        assert all(r.plan_batch is None for r in res)
        stats = engine.plan_stats()
        assert stats["hits"] == 0 and stats["misses"] == 1
        assert stats["padded_rows"] == 0 and stats["total_rows"] == 5

    def test_bucket_partial_off_restores_eager_fallback(self,
                                                        tiny_surrogate,
                                                        windows):
        norm = Normalizer({v: 0.0 for v in VARS}, {v: 1.0 for v in VARS})
        engine = ForecastEngine(tiny_surrogate, norm, bucket_partial=False)
        engine.compile(4)
        res = engine.forecast_batch(windows[:3])
        assert not any(r.compiled for r in res)
        stats = engine.plan_stats()
        assert stats["hits"] == 0 and stats["misses"] == 1

    def test_compile_idempotent_and_clear(self, engine, windows):
        cf1 = engine.compile(2)
        cf2 = engine.compile(2)
        assert cf1 is cf2
        assert engine.compiled_batches == [2]
        engine.clear_plans()
        assert engine.compiled_batches == []
        res = engine.forecast_batch(windows[:2])
        assert not res[0].compiled

    def test_clear_plans_recycles_arena_blobs(self, engine, windows):
        """Retired executors hand their blobs back; the recompiled
        plan's executor reuses them instead of growing the arena."""
        engine.compile(2)
        engine.forecast_batch(windows[:2])      # creates one executor
        before = engine.plan_stats()["arena"]
        assert before["allocations"] == 1
        engine.clear_plans()
        engine.compile(2)
        engine.forecast_batch(windows[:2])
        after = engine.plan_stats()["arena"]
        assert after["reuses"] == before["reuses"] + 1
        assert after["allocated_bytes"] == before["allocated_bytes"]

    def test_weight_reload_then_recompile_matches_eager(self, engine,
                                                        windows):
        """Plans bake the weights they were traced with; the documented
        contract after ``load_state_dict`` is clear_plans + recompile,
        which must land bitwise back on the eager path."""
        engine.compile(2)
        before = engine.forecast_batch(windows[:2])
        state = engine.model.state_dict()
        state2 = {k: v * 0.5 for k, v in state.items()}
        engine.model.load_state_dict(state2)
        try:
            engine.clear_plans()
            engine.compile(2)
            compiled = engine.forecast_batch(windows[:2])
            assert compiled[0].compiled
            engine.clear_plans()
            eager = engine.forecast_batch(windows[:2])
            assert not eager[0].compiled
            assert_windows_equal(compiled[0].fields, eager[0].fields)
            assert not np.array_equal(before[0].fields.zeta,
                                      compiled[0].fields.zeta)
        finally:
            engine.model.load_state_dict(state)

    def test_concurrent_forecasts_share_one_plan(self, engine, windows):
        """Thread-safety: concurrent compiled calls acquire distinct
        executors and all produce bitwise-correct results."""
        cf = engine.compile(2)
        serial = [engine.forecast_batch(windows[2 * i:2 * i + 2])
                  for i in range(4)]
        results = [None] * 4
        errors = []
        barrier = threading.Barrier(4)

        def worker(i):
            try:
                barrier.wait(timeout=30)
                results[i] = engine.forecast_batch(
                    windows[2 * i:2 * i + 2])
            except Exception as exc:    # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for ser, par in zip(serial, results):
            for s, p in zip(ser, par):
                assert p.compiled
                assert_windows_equal(s.fields, p.fields)
        assert cf.executors_created >= 1
        stats = engine.plan_stats()
        assert stats["hits"] == 8 and stats["plans"] == 1


class TestSerialReplay:
    def test_replay_starts_no_threads(self, engine, windows):
        """Replay runs every step on the calling thread: a B=8 plan at
        serving scale leaves no worker thread behind."""
        before = threading.active_count()
        engine.compile(8)
        for _ in range(2):
            assert engine.forecast_batch(windows[:8])[0].compiled
        assert not [t.name for t in threading.enumerate()
                    if t.name.startswith("plan-elementwise")]
        assert threading.active_count() <= before


class TestServedPlans:
    def test_scheduler_warm_plans_and_metrics(self, engine, windows):
        from repro.serve import MicroBatchScheduler
        sched = MicroBatchScheduler(engine, max_batch=4, autostart=False,
                                    warm_plans=True)
        # warmup now compiles the whole bucket set, not just max_batch
        assert engine.compiled_batches == [1, 2, 4]
        for w in windows[:4]:
            sched.submit(w)
        assert sched.step() == 4
        # partial batch: served by the batch-1 bucket, no eager fallback
        sched.submit(windows[4])
        sched.flush()
        sched.close()
        m = sched.metrics
        assert m.n_batches == 2 and m.plan_batches == 2
        assert m.batches[0].compiled and m.batches[1].compiled
        assert m.batches[0].plan_batch == 4
        assert m.batches[1].plan_batch == 1
        assert m.summary()["plan_batches"] == 2
        assert m.bucket_hits() == {4: 1, 1: 1}
        assert m.padded_rows == 0
        assert m.summary()["bucket_pad_fraction"] == 0.0
        assert engine.plan_stats()["misses"] == 0

    def test_scheduler_warm_plans_needs_compile(self, windows):
        from repro.serve import MicroBatchScheduler

        class Executorish:
            time_steps = 4

            def forecast_batch(self, refs):
                raise AssertionError("never called")

        with pytest.raises(ValueError, match="compile"):
            MicroBatchScheduler(Executorish(), autostart=False,
                                warm_plans=True)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_pool_compiled_bitwise_any_policy(self, tiny_surrogate,
                                              windows, policy):
        norm = Normalizer({v: 0.0 for v in VARS}, {v: 1.0 for v in VARS})
        eager = ForecastEngine(tiny_surrogate, norm)
        engine = ForecastEngine(tiny_surrogate, norm)
        pool = EngineWorkerPool(engine, replicas=3, max_batch=2,
                                max_wait=10.0, autostart=False,
                                router=policy, warm_plans=True)
        futures = [(w, pool.submit(w, key=f"k{i % 4}"))
                   for i, w in enumerate(windows[:8])]
        pool.flush()
        by_id = {}
        for w, fut in futures:
            by_id[(fut.worker_id, fut.request_id)] = (w,
                                                      fut.result(timeout=1))
        for worker in pool.workers:
            for batch in worker.scheduler.metrics.batches:
                # identical micro-batch composition ⇒ exact equality
                direct = eager.forecast_batch(
                    [by_id[(worker.worker_id, rid)][0]
                     for rid in batch.request_ids])
                for rid, d in zip(batch.request_ids, direct):
                    assert_windows_bitwise(
                        by_id[(worker.worker_id, rid)][1].fields, d.fields)
        m = pool.metrics
        # warmup compiles the full bucket set (1, 2), so every
        # micro-batch — full or partial — replays a compiled plan
        n_batches = sum(len(w.scheduler.metrics.batches)
                        for w in pool.workers)
        assert m.plan_batches == n_batches > 0
        assert m.summary()["plan_batches"] == m.plan_batches
        # replicas share one engine, hence one plan cache holding the
        # warm bucket set (1, 2)
        stats = pool.plan_stats()
        assert list(stats) == [0] and stats[0]["plans"] == 2
        pool.close()

    @pytest.mark.parametrize("policy", POLICIES)
    def test_ensemble_hybrid_compiled_bitwise(self, tiny_surrogate,
                                              tiny_ocean, windows, policy):
        """Compiled vs eager under *identical* deterministic pools:
        ensemble and hybrid results must match to the bit for every
        routing policy (manual mode ⇒ same placement, same micro-batch
        composition on both sides)."""
        norm = Normalizer({v: 0.0 for v in VARS}, {v: 1.0 for v in VARS})
        verifier = Verifier(tiny_ocean.grid, tiny_ocean.depth, dt=1800.0)
        hybrid_window = make_window(77, t=8)
        outputs = []
        for warm in (False, True):
            engine = ForecastEngine(tiny_surrogate, norm)
            if warm:
                for n in range(1, 5):
                    engine.compile(n)
            with EngineWorkerPool(engine, replicas=2, max_batch=4,
                                  max_wait=10.0, autostart=False,
                                  router=policy,
                                  warm_plans=warm) as pool:
                plain = pool.forecast_batch(windows[:3])
                ens = EnsembleForecaster(pool, n_members=4,
                                         seed=3).forecast(windows[0])
                hyb = HybridWorkflow(pool, tiny_ocean, verifier).run(
                    hybrid_window, [object()] * 2, threshold=1e30)
                plan_batches = pool.metrics.plan_batches
            outputs.append((plain, ens, hyb, plan_batches))
        (e_plain, e_ens, e_hyb, e_pb), (c_plain, c_ens, c_hyb, c_pb) = \
            outputs
        assert e_pb == 0 and c_pb > 0
        for a, b in zip(e_plain, c_plain):
            assert_windows_bitwise(a.fields, b.fields)
        for a, b in zip(e_ens.members, c_ens.members):
            assert_windows_bitwise(a, b)
        assert_windows_bitwise(e_ens.mean, c_ens.mean)
        assert_windows_bitwise(e_ens.spread, c_ens.spread)
        assert_windows_bitwise(e_hyb[0], c_hyb[0])
        assert e_hyb[1].pass_rate == c_hyb[1].pass_rate

    def test_server_plain_ensemble_hybrid_matches_direct(
            self, tiny_surrogate, tiny_ocean, windows):
        """End-to-end through the threaded warmed server: results match
        the direct eager path (float tolerance here — the threaded
        scheduler's micro-batch composition is timing-dependent, and
        composition, not compilation, is what moves the last bits;
        the manual-pool test above pins exact equality)."""
        norm = Normalizer({v: 0.0 for v in VARS}, {v: 1.0 for v in VARS})
        eager = ForecastEngine(tiny_surrogate, norm)
        engine = ForecastEngine(tiny_surrogate, norm)
        verifier = Verifier(tiny_ocean.grid, tiny_ocean.depth, dt=1800.0)
        hybrid_window = make_window(99, t=8)
        direct_plain = eager.forecast_batch([windows[0]])[0]
        direct_ens = EnsembleForecaster(eager, n_members=4,
                                        seed=3).forecast(windows[0])
        direct_hyb = HybridWorkflow(eager, tiny_ocean, verifier).run(
            hybrid_window, [object()] * 2, threshold=1e30)

        with ForecastServer(engine, workers=2, max_batch=4, max_wait=0.01,
                            ocean=tiny_ocean, verifier=verifier,
                            warm_plans=True) as server:
            assert engine.compiled_batches == [1, 2, 4]
            # partial micro-batches are timing-dependent under the
            # threaded scheduler: compile the smaller sizes too so
            # every batch replays a plan
            for n in (1, 2, 3):
                engine.compile(n)
            plain = server.forecast(windows[0])
            ens = server.submit_ensemble(windows[0], n_members=4,
                                         seed=3).result(timeout=120)
            fields, report = server.submit_hybrid(
                hybrid_window, [object()] * 2,
                threshold=1e30).result(timeout=120)
            served_metrics = server.metrics()

        assert_windows_equal(plain.fields, direct_plain.fields)
        assert_windows_equal(ens.mean, direct_ens.mean)
        assert_windows_equal(ens.spread, direct_ens.spread)
        assert report.pass_rate == direct_hyb[1].pass_rate == 1.0
        assert_windows_equal(fields, direct_hyb[0])
        assert "plan_batches" in served_metrics
        assert engine.plan_stats()["hits"] >= 1


class TestDetachContract:
    def test_detach_aliases_copy_does_not(self):
        t = Tensor(np.arange(6.0, dtype=np.float32).reshape(2, 3),
                   requires_grad=True)
        d = t.detach()
        c = t.copy()
        assert not d.requires_grad and not c.requires_grad
        assert np.shares_memory(d.data, t.data)
        assert not np.shares_memory(c.data, t.data)
        d.data[0, 0] = 42.0
        assert t.data[0, 0] == 42.0      # documented aliasing
        c.data[0, 1] = -1.0
        assert t.data[0, 1] == 1.0       # copy is independent
