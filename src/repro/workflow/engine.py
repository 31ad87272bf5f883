"""Batched forecast engine: the vectorised inference core.

Every consumer of the surrogate — single-episode forecasts, ensemble
uncertainty quantification, dual-model rollouts, multi-scenario hybrid
serving — ultimately needs the same five steps: normalisation, mesh
padding, episode assembly, the model forward, and denormalisation +
cropping.  :class:`ForecastEngine` runs all five vectorised over a
leading batch axis in a single pass, so N episodes cost one model
forward instead of N.  The paper motivates exactly this regime: "an
ensemble of tens of thousands of models for uncertainty
quantification" (§I) is only affordable when members share a forward.

:class:`~repro.workflow.forecast.SurrogateForecaster` keeps its
one-episode API as the batch-1 special case of this engine.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data.dataset import _rim_mask, assemble_episode_input_batch
from ..data.preprocess import Normalizer, pad_mesh
from ..swin.model import CoastalSurrogate
from ..tensor import BufferArena, PlanExecutor, Tensor, enable_grad, no_grad
from ..tensor import plan as _plan
from ..tensor import plan_passes as _passes

__all__ = ["FieldWindow", "ForecastResult", "CompiledForward",
           "ForecastEngine"]


@dataclass
class FieldWindow:
    """A window of physical fields (denormalised, unpadded).

    ``u3, v3, w3``: (T, H, W, D); ``zeta``: (T, H, W).
    """

    u3: np.ndarray
    v3: np.ndarray
    w3: np.ndarray
    zeta: np.ndarray

    @property
    def T(self) -> int:
        return self.zeta.shape[0]

    def snapshot(self, t: int) -> "FieldWindow":
        """Single-snapshot view (T = 1)."""
        return FieldWindow(self.u3[t:t + 1], self.v3[t:t + 1],
                           self.w3[t:t + 1], self.zeta[t:t + 1])

    def copy(self) -> "FieldWindow":
        return FieldWindow(self.u3.copy(), self.v3.copy(),
                           self.w3.copy(), self.zeta.copy())

    @staticmethod
    def concat(windows: Sequence["FieldWindow"]) -> "FieldWindow":
        """Concatenate windows along time; meshes must match exactly."""
        windows = list(windows)
        if not windows:
            raise ValueError("FieldWindow.concat: no windows to concatenate")
        base = windows[0]
        for i, w in enumerate(windows[1:], start=1):
            for var in ("u3", "v3", "w3", "zeta"):
                got = getattr(w, var).shape[1:]
                want = getattr(base, var).shape[1:]
                if got != want:
                    raise ValueError(
                        "FieldWindow.concat: windows must share one mesh; "
                        f"window {i} has {var} mesh {got} != {want}")
        return FieldWindow(
            np.concatenate([w.u3 for w in windows], axis=0),
            np.concatenate([w.v3 for w in windows], axis=0),
            np.concatenate([w.w3 for w in windows], axis=0),
            np.concatenate([w.zeta for w in windows], axis=0),
        )


@dataclass
class ForecastResult:
    """Forecast plus bookkeeping.

    ``inference_seconds`` of episodes that shared a batched forward is
    the batch wall-clock split evenly, so sums over results remain the
    total time actually spent in the model.
    """

    fields: FieldWindow
    inference_seconds: float
    episodes: int = 1
    #: whether the forward replayed a compiled plan (bitwise-identical
    #: to the eager path either way)
    compiled: bool = False
    #: batch size of the plan that served this result — equal to the
    #: request batch on an exact hit, larger when a partial batch was
    #: padded into a bucket, ``None`` on the eager path
    plan_batch: Optional[int] = None
    #: engine version that produced this result when served through a
    #: versioned pool (:class:`~repro.serve.pool.EngineWorkerPool`);
    #: ``None`` for direct engine calls
    engine_version: Optional[int] = None


class CompiledForward:
    """A captured model forward for one input signature.

    Holds the traced :class:`~repro.tensor.plan.ExecutionPlan` plus a
    free-list of :class:`~repro.tensor.plan.PlanExecutor` instances:
    executors are single-threaded by design (they own arena buffers),
    so concurrent engine calls each :meth:`acquire` their own and
    :meth:`release` it once the outputs have been consumed.  The
    free-list is bounded by the actual concurrency, and released
    executors are reused, so steady state allocates nothing.
    """

    def __init__(self, plan, arena: BufferArena):
        self.plan = plan
        self._arena = arena
        self._free: List[PlanExecutor] = []
        self._lock = threading.Lock()
        self.executors_created = 0

    def acquire(self) -> PlanExecutor:
        with self._lock:
            if self._free:
                return self._free.pop()
            self.executors_created += 1
        return PlanExecutor(self.plan, self._arena)

    def release(self, executor: PlanExecutor) -> None:
        with self._lock:
            self._free.append(executor)

    def retire(self) -> None:
        """Return the free executors' arena blobs for reuse by future
        plans (executors still in flight are simply dropped to GC when
        their calls finish)."""
        with self._lock:
            executors, self._free = self._free, []
        for ex in executors:
            ex.release()


class ForecastEngine:
    """Vectorised (IC, boundary-condition) episode inference.

    Parameters
    ----------
    model: trained surrogate; its ``config.mesh`` fixes the padded
        (H', W') every episode is staged onto.
    normalizer: fitted z-score statistics.
    boundary_width: rim width of the boundary-condition slots.

    Batches whose shape matches a plan prepared with :meth:`compile`
    replay that plan instead of walking the dynamic eager path.  When
    ``bucket_partial`` is on (the default), a batch *smaller* than any
    compiled plan is zero-padded up to the nearest compiled batch size
    (its "bucket"), replayed there, and the outputs sliced back — the
    forward is row-independent, so the sliced result is still bitwise
    identical to the unpadded eager run.  Only a batch larger than
    every compiled plan falls back to eager.

    ``optimize_plans`` (default on) runs the
    :mod:`~repro.tensor.plan_passes` structural passes — peephole
    fusion, constant folding, dead-step elimination — on every plan at
    compile time.  Fused kernels replay the exact eager ufunc
    sequences, so the optimised plan keeps the bitwise guarantee.
    """

    def __init__(self, model: CoastalSurrogate, normalizer: Normalizer,
                 boundary_width: int = 1, *,
                 optimize_plans: bool = True,
                 bucket_partial: bool = True):
        self.model = model
        self.normalizer = normalizer
        self.boundary_width = boundary_width
        self.optimize_plans = optimize_plans
        self.bucket_partial = bucket_partial
        cfg = model.config
        self.pad_hw = (cfg.mesh[0], cfg.mesh[1])
        self._plans: Dict[Tuple[int, ...], CompiledForward] = {}
        self._pass_stats: Dict[int, Dict[str, object]] = {}
        self._plan_lock = threading.Lock()
        # serialises sensitivity_batch backward passes: the backward
        # temporarily clears parameter requires_grad flags (a model-wide
        # write), which concurrent forecast_batch calls never read (they
        # run under no_grad) but concurrent backwards would race on
        self._grad_lock = threading.Lock()
        self._arena = BufferArena()
        # counters below are written only under _plan_lock, at plan
        # lookup time, so hit/miss attribution is decided in the same
        # critical section as the lookup itself (no mid-forward race
        # with clear_plans()/compile())
        self.plan_hits = 0       # forwards served by a compiled plan
        self.plan_misses = 0     # forwards that ran the eager path
        self.padded_rows = 0     # pad rows added by bucketing
        self.total_rows = 0      # episode rows actually computed
        self.bucket_hits: Dict[int, int] = {}  # plan batch -> hits

    @property
    def time_steps(self) -> int:
        """Episode length T — part of the batch-executor protocol."""
        return self.model.config.time_steps

    def with_model(self, model: CoastalSurrogate) -> "ForecastEngine":
        """A fresh engine around ``model`` sharing this engine's
        normalizer and boundary configuration.

        This is the hot-swap constructor: a new checkpoint deploys as
        ``engine.with_model(new_model)`` so the serving-side
        configuration (and the fitted statistics the model was trained
        against) carries over while plans start from a clean cache —
        plans bake weights, so reusing the old engine's plans for new
        weights would be wrong.
        """
        return ForecastEngine(model, self.normalizer, self.boundary_width,
                              optimize_plans=self.optimize_plans,
                              bucket_partial=self.bucket_partial)

    # ------------------------------------------------------------------
    # compiled plans
    # ------------------------------------------------------------------
    def _input_shapes(self, batch: int) -> Tuple[Tuple[int, ...],
                                                 Tuple[int, ...]]:
        """(x3d, x2d) shapes for a ``batch``-episode forward — fully
        determined by the model config, independent of the request
        mesh (episodes are padded to ``pad_hw`` before assembly)."""
        ph, pw = self.pad_hw
        D = self.model.config.mesh[2]
        T = self.time_steps
        return (batch, 3, ph, pw, D, T), (batch, 1, ph, pw, T)

    def compile(self, batch: int) -> CompiledForward:
        """Capture the model forward for ``batch`` episodes.

        Traces one forward on zero inputs (the captured program is
        shape-dependent only), finalizes it into a liveness-packed
        :class:`~repro.tensor.plan.ExecutionPlan` and caches it;
        subsequent :meth:`forecast_batch` calls with ``batch`` episodes
        replay the plan.  Idempotent and thread-safe.

        Plans bake the weights they were traced with (BatchNorm
        statistics fold into per-channel scale/shift constants, the
        positional tables into one summed table), exactly like engine
        builds in production inference runtimes — after
        ``load_state_dict`` or further training call
        :meth:`clear_plans` and recompile.
        """
        batch = int(batch)
        if batch < 1:
            raise ValueError("compile() needs batch >= 1")
        s3d, s2d = self._input_shapes(batch)
        with self._plan_lock:
            cached = self._plans.get(s3d)
        if cached is not None:
            return cached
        self.model.eval()
        plan, _ = _plan.trace(
            lambda a, b: self.model(a, b),
            (np.zeros(s3d, np.float32), np.zeros(s2d, np.float32)))
        pass_stats = None
        if self.optimize_plans:
            plan, pass_stats = _passes.optimize(plan)
        compiled = CompiledForward(plan, self._arena)
        with self._plan_lock:
            # a concurrent compile of the same shape may have won
            winner = self._plans.setdefault(s3d, compiled)
            if winner is compiled and pass_stats is not None:
                self._pass_stats[batch] = pass_stats
            return winner

    def compile_buckets(self, max_batch: Optional[int] = None,
                        histogram=None) -> List[int]:
        """Compile a bucket set so partial batches pad into plans.

        Without ``histogram``, compiles the canonical
        :func:`~repro.tensor.plan_passes.plan_buckets` set (powers of
        two up to and including ``max_batch``).  Given a ``histogram``
        — a ``{batch_size: count}`` mapping (e.g.
        ``ServeMetrics.occupancy_histogram()``) or an iterable of
        observed batch sizes — the buckets come from
        :func:`~repro.tensor.plan_passes.plan_buckets_from_histogram`
        instead, minimising expected pad rows for the observed
        arrival pattern.  Either way :meth:`forecast_batch` hits the
        plan cache at any observed size: a partial batch pads into the
        nearest bucket instead of falling back to eager.  Returns the
        bucket sizes, ascending.
        """
        if histogram is not None:
            buckets = _passes.plan_buckets_from_histogram(
                histogram, max_batch=max_batch)
        elif max_batch is not None:
            buckets = _passes.plan_buckets(max_batch)
        else:
            raise ValueError(
                "compile_buckets() needs max_batch or histogram")
        for b in buckets:
            self.compile(b)
        return list(buckets)

    def clear_plans(self) -> None:
        """Drop every cached plan (required after retraining: folded
        BatchNorm statistics are baked into plans as constants).  The
        retired executors' arena blobs go back to the engine's
        :class:`~repro.tensor.plan.BufferArena`, so recompiled plans
        reuse them instead of allocating fresh."""
        with self._plan_lock:
            plans, self._plans = dict(self._plans), {}
            self._pass_stats = {}
        for compiled in plans.values():
            compiled.retire()

    @property
    def compiled_batches(self) -> List[int]:
        """Batch sizes with a cached plan, ascending."""
        with self._plan_lock:
            return sorted(k[0] for k in self._plans)

    def plan_stats(self) -> Dict[str, object]:
        """Plan-cache, bucketing and arena counters (for serving
        metrics), read as **one consistent snapshot**: every counter is
        captured inside a single ``_plan_lock`` critical section, so a
        concurrent forward can never show e.g. a hit without its bucket
        attribution."""
        with self._plan_lock:
            plans = dict(self._plans)
            hits, misses = self.plan_hits, self.plan_misses
            padded, total = self.padded_rows, self.total_rows
            bucket_hits = dict(self.bucket_hits)
            pass_stats = dict(self._pass_stats)
        return {
            "plans": len(plans),
            "batches": sorted(k[0] for k in plans),
            "hits": hits,
            "misses": misses,
            "padded_rows": padded,
            "total_rows": total,
            "bucket_pad_fraction": padded / total if total else 0.0,
            "bucket_hits": bucket_hits,
            "pass_stats": pass_stats,
            "arena": self._arena.stats(),
            "executors": sum(p.executors_created for p in plans.values()),
            "arena_bytes": {k[0]: p.plan.arena_bytes()
                            for k, p in plans.items()},
        }

    # ------------------------------------------------------------------
    def _normalize_batch(self, references: Sequence[FieldWindow]
                         ) -> Dict[str, np.ndarray]:
        """Stack, normalise and pad N windows: (N, T, H', W'[, D])."""
        base = references[0]
        for i, r in enumerate(references):
            for var in ("u3", "v3", "w3", "zeta"):
                got, want = getattr(r, var).shape, getattr(base, var).shape
                if got != want:
                    raise ValueError(
                        "all windows of a batch must share one mesh; "
                        f"window {i} has {var} {got} != {want}")
        ph, pw = self.pad_hw
        stacks = {
            "u3": np.stack([r.u3 for r in references]),
            "v3": np.stack([r.v3 for r in references]),
            "w3": np.stack([r.w3 for r in references]),
            "zeta": np.stack([r.zeta for r in references]),
        }
        out = {}
        for var, arr in stacks.items():
            a = self.normalizer.normalize(var, arr.astype(np.float32))
            out[var] = pad_mesh(a, ph, pw, axes=(2, 3))
        return out

    # ------------------------------------------------------------------
    def _prepare_inputs(self, references: Sequence[FieldWindow]
                        ) -> Tuple[np.ndarray, np.ndarray,
                                   Tuple[int, int]]:
        """Validate, normalise and assemble N windows into the model's
        (x3d, x2d) inputs; returns them with the (H, W) crop of the
        request mesh."""
        T = self.time_steps
        for r in references:
            if r.T != T:
                raise ValueError(
                    f"window length {r.T} != model time_steps {T}")
        norm = self._normalize_batch(references)
        x3d, x2d = assemble_episode_input_batch(
            norm["u3"], norm["v3"], norm["w3"], norm["zeta"],
            self.boundary_width)
        x3d = np.ascontiguousarray(x3d, dtype=np.float32)
        x2d = np.ascontiguousarray(x2d, dtype=np.float32)
        H, W = references[0].zeta.shape[1:3]
        return x3d, x2d, (H, W)

    def _lookup_plan(self, shape: Tuple[int, ...]
                     ) -> Tuple[Optional[CompiledForward], Optional[int]]:
        """One-critical-section plan lookup **and** outcome recording.

        Exact-shape plans win; otherwise, with ``bucket_partial`` on,
        the smallest compiled plan whose batch exceeds the request's
        serves as its bucket (the batch pads up, outputs slice back).
        The hit/miss, per-bucket and padding counters are all updated
        here, inside the same ``_plan_lock`` section as the lookup —
        the counters describe the decision actually taken even if a
        concurrent :meth:`clear_plans`/:meth:`compile` lands while the
        forward itself runs outside the lock.
        """
        n = shape[0]
        with self._plan_lock:
            compiled_fwd = self._plans.get(shape)
            plan_batch: Optional[int] = \
                n if compiled_fwd is not None else None
            if compiled_fwd is None and self.bucket_partial:
                tail = shape[1:]
                for key in self._plans:
                    if key[1:] == tail and key[0] > n and \
                            (plan_batch is None or key[0] < plan_batch):
                        plan_batch = key[0]
                if plan_batch is not None:
                    compiled_fwd = self._plans[(plan_batch,) + tail]
            if compiled_fwd is not None:
                self.plan_hits += 1
                self.bucket_hits[plan_batch] = \
                    self.bucket_hits.get(plan_batch, 0) + 1
                self.padded_rows += plan_batch - n
                self.total_rows += plan_batch
            else:
                self.plan_misses += 1
                self.total_rows += n
        return compiled_fwd, plan_batch

    def _finalize(self, references: Sequence[FieldWindow],
                  vol: np.ndarray, zet: np.ndarray, seconds: float, *,
                  compiled: bool, plan_batch: Optional[int]
                  ) -> List[ForecastResult]:
        """Denormalise, crop to the request mesh, restore the exact
        initial condition and wrap per-episode results."""
        H, W = references[0].zeta.shape[1:3]
        u3 = self.normalizer.denormalize("u3", vol[:, 0])[:, :, :H, :W]
        v3 = self.normalizer.denormalize("v3", vol[:, 1])[:, :, :H, :W]
        w3 = self.normalizer.denormalize("w3", vol[:, 2])[:, :, :H, :W]
        zeta = self.normalizer.denormalize("zeta", zet)[:, :, :H, :W]

        per_episode = seconds / len(references)
        results: List[ForecastResult] = []
        for i, r in enumerate(references):
            fields = FieldWindow(
                np.ascontiguousarray(u3[i]), np.ascontiguousarray(v3[i]),
                np.ascontiguousarray(w3[i]), np.ascontiguousarray(zeta[i]))
            # the initial condition is known exactly — keep it
            fields.u3[0], fields.v3[0], fields.w3[0] = \
                r.u3[0], r.v3[0], r.w3[0]
            fields.zeta[0] = r.zeta[0]
            results.append(ForecastResult(fields, per_episode,
                                          compiled=compiled,
                                          plan_batch=plan_batch))
        return results

    def forecast_batch(self, references: Sequence[FieldWindow]
                       ) -> List[ForecastResult]:
        """Forecast N episodes in one vectorised pass.

        Parameters
        ----------
        references: windows of T snapshots each, all on the same mesh;
            ``u3, v3, w3`` are (T, H, W, D) and ``zeta`` is (T, H, W).
            Slot 0 of each is consumed as the initial condition, slots
            1..T−1 contribute only their lateral boundary rims.

        Returns
        -------
        One :class:`ForecastResult` per input window, in order, each
        holding (T, H, W[, D]) fields on the input mesh; results are
        identical (up to float associativity) to running each window
        through the serial one-episode path.

        A batch with no exact-shape plan pads into the nearest larger
        compiled bucket (zero rows appended, outputs sliced back) when
        ``bucket_partial`` is on; the forward is row-independent, so
        the sliced result stays bitwise-identical to the unpadded eager
        run.  ``ForecastResult.plan_batch`` records the bucket used.

        Thread safety: this method never writes model or normalizer
        state (``eval()`` is an idempotent flag write and the autograd
        switch is thread-local), and the input windows are only read —
        so concurrent calls on one engine, or on several engines
        sharing one model (an
        :class:`~repro.serve.pool.EngineWorkerPool` of replicas), are
        safe without locking.  The compiled path keeps the guarantee:
        plan *executors* own mutable arena buffers, so every call
        acquires a private executor from the plan's free-list
        (:class:`CompiledForward`) and returns it only after the
        outputs have been copied out.
        """
        references = list(references)
        if not references:
            return []
        n = len(references)
        x3d, x2d, _ = self._prepare_inputs(references)
        compiled_fwd, plan_batch = self._lookup_plan(x3d.shape)

        self.model.eval()
        # (N, 3, H', W', D, T) → (N, 3, T, H', W', D); ζ → (N, T, H', W')
        # denormalised in float64 so the exact initial condition can be
        # restored losslessly below
        if compiled_fwd is not None:
            if plan_batch != n:
                pad = plan_batch - n
                x3d = np.concatenate(
                    [x3d, np.zeros((pad,) + x3d.shape[1:], x3d.dtype)])
                x2d = np.concatenate(
                    [x2d, np.zeros((pad,) + x2d.shape[1:], x2d.dtype)])
            executor = compiled_fwd.acquire()
            try:
                t0 = time.perf_counter()
                p3_arr, p2_arr = executor.run((x3d, x2d))
                seconds = time.perf_counter() - t0
                # the outputs are arena views — consume them (and drop
                # any pad rows) before the executor goes back on the
                # free-list
                vol = np.moveaxis(p3_arr[:n], -1, 2).astype(np.float64)
                zet = np.moveaxis(p2_arr[:n, 0], -1, 1).astype(np.float64)
            finally:
                compiled_fwd.release(executor)
        else:
            t0 = time.perf_counter()
            with no_grad():
                p3d, p2d = self.model(Tensor(x3d), Tensor(x2d))
            seconds = time.perf_counter() - t0
            vol = np.moveaxis(p3d.data, -1, 2).astype(np.float64)
            zet = np.moveaxis(p2d.data[:, 0], -1, 1).astype(np.float64)

        return self._finalize(references, vol, zet, seconds,
                              compiled=compiled_fwd is not None,
                              plan_batch=plan_batch)

    # ------------------------------------------------------------------
    # adjoint / sensitivity path
    # ------------------------------------------------------------------
    def sensitivity_batch(self, references: Sequence[FieldWindow], *,
                          wrt: Sequence[str] = ("fields",),
                          diagnostic: str = "peak_surge",
                          observations=None, storms=None):
        """Differentiate a scalar diagnostic of N episodes' forecasts.

        The adjoint counterpart of :meth:`forecast_batch`: runs one
        grad-enabled batched forward through the same
        :meth:`_prepare_inputs` staging (normalise → pad → rim-mask
        assembly), reduces the predicted surge to a scalar diagnostic
        per episode, and pulls the gradient back through the model
        *and* the staging pipeline, so the returned sensitivities are
        in physical units on the request mesh.

        Parameters
        ----------
        references: reference windows, exactly as for
            :meth:`forecast_batch`.
        wrt: subset of ``("fields", "storm")``.  ``"fields"`` returns
            ∂J/∂(input fields) as a :class:`FieldWindow` per episode;
            ``"storm"`` additionally chains the field adjoint through a
            differentiable storm overlay and returns ∂J/∂θ for every
            :data:`~repro.workflow.sensitivity.STORM_PARAMS` entry.
        diagnostic: a :data:`~repro.workflow.sensitivity.DIAGNOSTICS`
            name, reduced over forecast steps 1..T−1 of the predicted
            surge (slot 0 is the exactly-restored initial condition and
            carries no model sensitivity).
        observations: per-episode observed surge windows (T, H, W),
            required by ``surge_mse``.
        storms: per-episode
            :class:`~repro.workflow.sensitivity.StormOverlay`
            hypotheses (or ``None`` entries).  Each overlay is applied
            to its reference window *before* the forward, so the storm
            parameters sit upstream of normalisation and the reported
            ∂J/∂θ is the true end-to-end sensitivity.

        Returns
        -------
        One :class:`~repro.workflow.sensitivity.SensitivityResult` per
        episode, in order.  ``backward_seconds`` is the batch's
        forward+backward wall clock split evenly, mirroring
        :class:`ForecastResult.inference_seconds`.

        Notes
        -----
        The backward always runs the eager autograd graph — compiled
        plans are forward-only (traced backward plans are roadmap
        work, see ``docs/differentiation.md``) — and is serialised per
        engine by an internal lock; concurrent :meth:`forecast_batch`
        calls proceed untouched.  Every sensitivity exposed here is
        validated against central finite differences
        (:func:`repro.tensor.gradcheck.numerical_grad`) in
        ``tests/test_sensitivity.py``.
        """
        from .sensitivity import (DIAGNOSTICS, STORM_PARAMS,
                                  SensitivityResult)
        from ..tensor import astensor

        references = list(references)
        if not references:
            return []
        n = len(references)
        wrt = tuple(wrt)
        bad = [w for w in wrt if w not in ("fields", "storm")]
        if bad or not wrt:
            raise ValueError(
                f"wrt must be a non-empty subset of ('fields', 'storm'); "
                f"got {wrt}")
        if diagnostic not in DIAGNOSTICS:
            raise ValueError(
                f"unknown diagnostic {diagnostic!r}; expected one of "
                f"{sorted(DIAGNOSTICS)}")
        observations = list(observations) if observations is not None \
            else [None] * n
        storms = list(storms) if storms is not None else [None] * n
        if len(observations) != n or len(storms) != n:
            raise ValueError(
                "observations/storms must match the reference batch")
        if diagnostic == "surge_mse" and any(o is None for o in observations):
            raise ValueError(
                "diagnostic 'surge_mse' requires an observation per episode")
        if "storm" in wrt and any(s is None for s in storms):
            raise ValueError(
                "wrt='storm' requires a StormOverlay per episode")

        composed = [s.apply(r) if s is not None else r
                    for r, s in zip(references, storms)]
        x3d, x2d, (H, W) = self._prepare_inputs(composed)

        eps = Normalizer.EPS
        std_z = self.normalizer.std["zeta"] + eps
        mean_z = self.normalizer.mean["zeta"]
        obs_t = None
        if diagnostic == "surge_mse":
            obs_t = astensor(np.stack(
                [np.asarray(o, dtype=np.float64) for o in observations]))

        params = list(self.model.parameters())
        with self._grad_lock:
            # the diagnostic differentiates inputs, not weights — mask
            # the parameters out of the tape so backward neither builds
            # nor accumulates weight gradients (restored below; safe
            # because forecast_batch runs under no_grad and never reads
            # the flag, and this lock serialises sensitivity calls)
            prev_flags = [p.requires_grad for p in params]
            for p in params:
                p.requires_grad = False
            self.model.eval()
            try:
                t0 = time.perf_counter()
                with enable_grad():
                    t3 = Tensor(x3d, requires_grad=True)
                    t2 = Tensor(x2d, requires_grad=True)
                    _, p2d = self.model(t3, t2)
                    # ζ head → (N, T, H', W') → denormalise → crop:
                    # the in-graph mirror of _finalize's numpy epilogue
                    z = p2d[:, 0].transpose(0, 3, 1, 2) \
                        .astype(np.float64) * std_z + mean_z
                    z = z[:, :, :H, :W]
                    per = DIAGNOSTICS[diagnostic](z, obs_t)
                    per.sum().backward()
                seconds = time.perf_counter() - t0
            finally:
                for p, flag in zip(params, prev_flags):
                    p.requires_grad = flag
        values = np.asarray(per.data, dtype=np.float64).reshape(n)

        # ---- analytic adjoint of assemble_episode_input_batch --------
        g3 = np.asarray(t3.grad, dtype=np.float64)  # (N,3,H',W',D,T)
        g2 = np.asarray(t2.grad, dtype=np.float64)  # (N,1,H',W',T)
        ph, pw = self.pad_hw
        mask = _rim_mask(ph, pw, self.boundary_width, np.float64)
        gvol = np.moveaxis(g3, -1, 2)               # (N,3,T,H',W',D)
        grad_vol = gvol * mask[:, :, None]
        grad_vol[:, :, 0] = gvol[:, :, 0]           # IC slot: full fields
        gz = np.moveaxis(g2, -1, 2)[:, 0]           # (N,T,H',W')
        grad_zeta = gz * mask
        grad_zeta[:, 0] = gz[:, 0]
        # pad adjoint = crop; z-score adjoint = divide by (std + EPS)
        d_u3 = grad_vol[:, 0, :, :H, :W] / (self.normalizer.std["u3"] + eps)
        d_v3 = grad_vol[:, 1, :, :H, :W] / (self.normalizer.std["v3"] + eps)
        d_w3 = grad_vol[:, 2, :, :H, :W] / (self.normalizer.std["w3"] + eps)
        d_zeta = grad_zeta[:, :, :H, :W] / std_z

        per_episode = seconds / n
        results = []
        for i in range(n):
            d_fields = None
            if "fields" in wrt:
                d_fields = FieldWindow(
                    np.ascontiguousarray(d_u3[i]),
                    np.ascontiguousarray(d_v3[i]),
                    np.ascontiguousarray(d_w3[i]),
                    np.ascontiguousarray(d_zeta[i]))
            d_storm = None
            if "storm" in wrt:
                # chain rule through the additive overlay: the composed
                # window is reference + increments(θ), so ∂J/∂θ is the
                # field adjoint contracted with ∂increments/∂θ — one
                # small vector-Jacobian product per episode
                storm = storms[i]
                T = self.time_steps
                D = references[i].u3.shape[-1]
                with enable_grad():
                    theta = storm.tensor_params(requires_grad=True)
                    du3, dv3, dz = storm.increments(theta, T, (H, W), D)
                    proxy = (du3 * astensor(d_u3[i])).sum() \
                        + (dv3 * astensor(d_v3[i])).sum() \
                        + (dz * astensor(d_zeta[i])).sum()
                    proxy.backward()
                d_storm = {
                    name: float(theta[name].grad)
                    if theta[name].grad is not None else 0.0
                    for name in STORM_PARAMS
                }
            results.append(SensitivityResult(
                value=float(values[i]), diagnostic=diagnostic, wrt=wrt,
                d_fields=d_fields, d_storm=d_storm,
                backward_seconds=per_episode))
        return results
