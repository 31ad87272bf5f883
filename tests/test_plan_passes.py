"""Plan-IR optimisation passes: fusion, folding, DCE and batch-shape
bucketing.

The structural passes (fusion / folding / dead-step elimination) and
the bucketing policy replay the exact NumPy expressions of the eager
path — every result must be bitwise equal to eager, on the thread and
the process serving backends alike.
"""

import pickle

import numpy as np
import pytest
from conftest import VARS, make_window

from repro.data import Normalizer
from repro.nn import Linear, gelu
from repro.serve import EngineWorkerPool, MicroBatchScheduler
from repro.tensor import PlanExecutor, Tensor, no_grad, trace
from repro.tensor.plan import repack
from repro.tensor.plan_passes import (
    eliminate_dead_steps,
    fold_constants,
    fuse_elementwise,
    optimize,
    plan_buckets,
    plan_buckets_from_histogram,
)
from repro.workflow import ForecastEngine


def assert_windows_bitwise(a, b, msg=""):
    for var in VARS:
        np.testing.assert_array_equal(getattr(a, var), getattr(b, var),
                                      err_msg=f"{var} {msg}")


@pytest.fixture()
def norm():
    return Normalizer({v: 0.0 for v in VARS}, {v: 1.0 for v in VARS})


@pytest.fixture(scope="module")
def windows():
    return [make_window(seed) for seed in range(12)]


class TestBucketPolicy:
    def test_powers_of_two_capped_at_max(self):
        assert plan_buckets(1) == (1,)
        assert plan_buckets(2) == (1, 2)
        assert plan_buckets(4) == (1, 2, 4)
        assert plan_buckets(8) == (1, 2, 4, 8)

    def test_non_power_max_batch_is_kept_as_top_bucket(self):
        assert plan_buckets(6) == (1, 2, 4, 6)
        assert plan_buckets(3) == (1, 2, 3)

    def test_invalid_max_batch(self):
        with pytest.raises(ValueError):
            plan_buckets(0)


class TestHistogramBuckets:
    def test_few_sizes_fit_budget_verbatim(self):
        # budget (canonical set size for max 8 = 4) covers 2 sizes
        assert plan_buckets_from_histogram({3: 10, 8: 1}) == (3, 8)

    def test_minimises_pad_rows_under_budget(self):
        # budget 2: {3, 8} pads 3·2=6 rows (the two 5s into 8);
        # {5, 8} would pad 2·100=200 (every 3 into 5) — DP must pick
        # the heavy size as its own bucket
        hist = {3: 100, 5: 2, 8: 1}
        assert plan_buckets_from_histogram(hist, max_plans=2) == (3, 8)

    def test_largest_size_always_kept(self):
        # nothing may fall back to eager: the top size is a bucket
        # even when it was observed once
        got = plan_buckets_from_histogram({2: 1000, 7: 1}, max_plans=1)
        assert got == (7,)

    def test_iterable_input_counts_occurrences(self):
        stream = [3, 3, 3, 5, 8, 3]
        assert plan_buckets_from_histogram(stream) == (3, 5, 8)

    def test_max_batch_joins_candidates(self):
        # a scheduler's full flush stays an exact hit even before one
        # was observed
        got = plan_buckets_from_histogram({3: 10}, max_batch=8)
        assert 8 in got and 3 in got

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            plan_buckets_from_histogram({})
        with pytest.raises(ValueError):
            plan_buckets_from_histogram({0: 5})

    def test_tuned_buckets_pad_less_than_canonical(self):
        # a spiky arrival pattern concentrated on odd sizes: the tuned
        # set beats powers-of-two on expected pad rows
        hist = {3: 50, 6: 30, 12: 5}
        tuned = plan_buckets_from_histogram(hist, max_batch=12,
                                            max_plans=3)

        def pad_rows(buckets):
            total = 0
            for size, count in hist.items():
                bucket = min(b for b in buckets if b >= size)
                total += count * (bucket - size)
            return total

        canonical = plan_buckets(12)
        assert pad_rows(tuned) <= pad_rows(canonical)


def _overlaps(a_lo, a_len, b_lo, b_len):
    return a_lo < b_lo + b_len and b_lo < a_lo + a_len


def assert_arena_packing_sound(plan):
    """Independent liveness check: no two simultaneously-live arena
    buffers (including per-step scratch) may share bytes."""
    last = plan._last_uses()
    group_end = {}
    for sid, spec in enumerate(plan.slots):
        group_end[spec.root] = max(group_end.get(spec.root, -1), last[sid])
    placed = []                     # (sid, offset, nbytes, birth, end)
    for i, step in enumerate(plan.steps):
        ids = list(step.scratch)
        if step.kind == "compute":
            ids.append(step.out)
        for sid in ids:
            spec = plan.slots[sid]
            assert spec.phys is not None, f"slot {sid} unplaced"
            assert spec.phys + spec.nbytes <= plan.arena_total
            placed.append((sid, spec.phys, spec.nbytes, i,
                           group_end[spec.root]))
    for ai, (sa, oa, na, ba, ea) in enumerate(placed):
        for sb, ob, nb, bb, eb in placed[ai + 1:]:
            live_together = ba <= eb and bb <= ea
            if live_together and _overlaps(oa, na, ob, nb):
                raise AssertionError(
                    f"slots {sa} and {sb} overlap while both live")


class TestStructuralPasses:
    def _toy_plan(self):
        lin = Linear(4, 3, rng=np.random.default_rng(0))

        def fn(x):
            h = gelu(lin(x))                 # matmul -> iadd -> gelu
            return (h * 0.25).softmax(axis=-1)

        x = np.random.default_rng(1).normal(size=(5, 4)) \
            .astype(np.float32)
        plan, _ = trace(fn, (x,))
        return plan, fn, x

    def test_fusion_replays_bitwise_and_shrinks_steps(self):
        plan, fn, x = self._toy_plan()
        with no_grad():
            want = fn(Tensor(x)).data
        before = plan.n_steps
        plan, stats = optimize(plan)
        assert stats["steps_after"] < before
        assert sum(stats["fused"].values()) >= 2
        assert "matmul_bias_gelu" in stats["fused"]
        (got,) = PlanExecutor(plan).run((x,))
        assert np.array_equal(got, want)
        assert_arena_packing_sound(plan)

    def test_fold_constants_after_input_freeze(self):
        """The tracer folds const subgraphs at trace time, so the pass
        matters for *rewritten* plans: freeze an input into a constant
        (what a specialisation pass would do) and the step consuming it
        must fold into a frozen plan constant."""
        def fn(x, y):
            return x + y * 2.0

        rng = np.random.default_rng(2)
        x0 = rng.normal(size=(4, 4)).astype(np.float32)
        y0 = rng.normal(size=(4, 4)).astype(np.float32)
        ref_plan, _ = trace(fn, (x0, y0))
        plan, _ = trace(fn, (x0, y0))

        y_slot = plan.inputs[1]
        frozen = y0.copy()
        frozen.flags.writeable = False
        cid = len(plan.const_arrays)
        plan.const_arrays.append(frozen)
        for st in plan.steps:
            st.ins = tuple(("c", cid) if ref == ("s", y_slot) else ref
                           for ref in st.ins)

        assert fold_constants(plan) == 1
        assert eliminate_dead_steps(plan) == 0
        repack(plan)
        x2 = rng.normal(size=(4, 4)).astype(np.float32)
        (want,) = PlanExecutor(ref_plan).run((x2, y0))
        garbage = np.full_like(y0, np.nan)      # frozen: must be ignored
        (got,) = PlanExecutor(plan).run((x2, garbage))
        assert np.array_equal(got, want)

    def test_dce_removes_unreachable_steps(self):
        def fn(x):
            (x * 3.0).sum(axis=0)            # traced but never used
            return x + 1.0

        x = np.random.default_rng(3).normal(size=(4, 4)) \
            .astype(np.float32)
        ref_plan, _ = trace(fn, (x,))
        plan, _ = trace(fn, (x,))
        removed = eliminate_dead_steps(plan)
        assert removed >= 2
        repack(plan)
        assert plan.arena_total <= ref_plan.arena_total
        (want,) = PlanExecutor(ref_plan).run((x,))
        (got,) = PlanExecutor(plan).run((x,))
        assert np.array_equal(got, want)

    def test_dce_refuses_to_kill_live_steps(self):
        plan, _, _ = self._toy_plan()
        assert eliminate_dead_steps(plan) == 0

    def test_fusion_alone_is_a_fixpoint(self):
        plan, _, _ = self._toy_plan()
        fuse_elementwise(plan)
        assert fuse_elementwise(plan) == {}

    def test_optimized_plan_pickle_round_trip(self):
        plan, fn, x = self._toy_plan()
        plan, _ = optimize(plan)
        clone = pickle.loads(pickle.dumps(plan))
        with no_grad():
            want = fn(Tensor(x)).data
        (got,) = PlanExecutor(clone).run((x,))
        assert np.array_equal(got, want)


class TestRealModelFusion:
    def test_fused_model_plan_bitwise_all_batches(self, tiny_surrogate,
                                                  norm, windows):
        eager = ForecastEngine(tiny_surrogate, norm)
        engine = ForecastEngine(tiny_surrogate, norm)   # optimised plans
        engine.compile_buckets(4)
        stats = engine.plan_stats()
        for batch, ps in stats["pass_stats"].items():
            assert ps["steps_after"] < ps["steps_before"], batch
            assert sum(ps["fused"].values()) > 0, batch
        for n in range(1, 5):
            got = engine.forecast_batch(windows[:n])
            want = eager.forecast_batch(windows[:n])
            assert all(r.compiled for r in got)
            assert not any(r.compiled for r in want)
            for g, w in zip(got, want):
                assert_windows_bitwise(g.fields, w.fields, f"n={n}")
        assert engine.plan_stats()["misses"] == 0

    def test_fused_model_plan_arena_packing_sound(self, tiny_surrogate,
                                                  norm):
        engine = ForecastEngine(tiny_surrogate, norm)
        compiled = engine.compile(4)
        assert any(s.scratch for s in compiled.plan.steps)
        assert_arena_packing_sound(compiled.plan)

    def test_fused_bucketed_plan_pickles_bitwise(self, tiny_surrogate,
                                                 norm, windows):
        """The wire format the process pool ships: a fused plan with
        scratch slots must survive pickling and replay bitwise."""
        engine = ForecastEngine(tiny_surrogate, norm)
        compiled = engine.compile(2)
        clone = pickle.loads(pickle.dumps(compiled.plan))
        assert any(s.scratch for s in clone.steps)
        x3d, x2d, _ = engine._prepare_inputs(windows[:2])
        want = PlanExecutor(compiled.plan).run((x3d, x2d))
        got = PlanExecutor(clone).run((x3d, x2d))
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


class TestBucketedServing:
    def test_scheduler_mixed_sizes_zero_misses(self, tiny_surrogate,
                                               norm, windows):
        eager = ForecastEngine(tiny_surrogate, norm)
        engine = ForecastEngine(tiny_surrogate, norm)
        sched = MicroBatchScheduler(engine, max_batch=4, autostart=False,
                                    warm_plans=True)
        want = {}
        sizes = (1, 3, 2, 4, 1, 2)
        start = 0
        futs = []
        for n in sizes:
            batch = windows[start:start + n]
            start += n
            want[n] = want.get(n, []) + [eager.forecast_batch(batch)]
            for w in batch:
                futs.append((n, sched.submit(w)))
            sched.flush()
        sched.close()
        stats = engine.plan_stats()
        assert stats["misses"] == 0
        assert stats["hits"] == len(sizes)
        assert set(stats["bucket_hits"]) <= set(plan_buckets(4))
        m = sched.metrics
        assert m.plan_batches == len(sizes)
        assert all(b.compiled for b in m.batches)
        got = iter(futs)
        for n in sizes:
            direct = want[n].pop(0)
            for d in direct:
                size, fut = next(got)
                res = fut.result(timeout=1)
                assert res.compiled and size == n
                assert_windows_bitwise(res.fields, d.fields, f"n={n}")

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_pool_bucketed_bitwise_both_backends(self, tiny_surrogate,
                                                 norm, windows, backend):
        eager = ForecastEngine(tiny_surrogate, norm)
        truth = {n: eager.forecast_batch(windows[:n])
                 for n in range(1, 5)}
        pool = EngineWorkerPool(
            ForecastEngine(tiny_surrogate, norm), replicas=1,
            backend=backend, max_batch=4, warm_plans=True,
            autostart=False)
        try:
            for n in (1, 3, 2, 4):
                res = pool.forecast_batch(windows[:n])
                assert all(r.compiled for r in res), (backend, n)
                assert all(r.plan_batch in plan_buckets(4) for r in res)
                for g, w in zip(res, truth[n]):
                    assert_windows_bitwise(g.fields, w.fields,
                                           f"{backend} n={n}")
            stats = next(iter(pool.plan_stats().values()))
            assert stats["misses"] == 0
            assert stats["bucket_pad_fraction"] > 0
            m = pool.metrics
            assert m.plan_batches == 4
            assert m.bucket_hits()
            assert 0 < m.bucket_pad_fraction < 1
            assert "bucket_pad_fraction" in m.summary()
        finally:
            pool.close()
