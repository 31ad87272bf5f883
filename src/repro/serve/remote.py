"""One remote-worker protocol behind the process and host tiers.

A remote worker is a :class:`~repro.workflow.engine.ForecastEngine`
rebuilt somewhere else — a child process (:mod:`repro.serve.procpool`)
or a remote rank behind the fabric (:mod:`repro.serve.hostpool`) —
from one pickled **payload** shipped once at spawn: the exact weights
plus every compiled :class:`~repro.tensor.plan.ExecutionPlan` the
parent engine already holds (steps travel by kernel name and rebind
from the registry; constants travel by value, bit-exact).  Results are
**bitwise-identical** to the in-process engine: the remote runs the
same ``forecast_batch`` code on bit-equal weights.

Everything but the wire lives here, written once:

* :func:`build_payload` / :func:`build_engine` — the payload and the
  engine rebuilt from it;
* :data:`OPS` — the op table (``batch``, ``compile``,
  ``compile_buckets``, ``plan_stats``): each op takes
  ``(engine, meta, arrays)`` and returns ``(meta, arrays)``;
* :func:`serve` — the remote side's loop.  A request is
  ``(op, seq, meta, arrays)``; every reply is
  ``("ok" | "err", seq, meta, arrays)`` carrying the request's
  ``seq``, with the remote traceback in ``meta["trace"]`` on
  ``"err"``.  The handshake is the ``seq = -1`` reply: the ready info
  on ``"ok"``, the engine-build traceback on ``"err"``;
* :class:`RemoteWorker` — the parent-side client base: the executor
  surface (``time_steps`` / ``compiled_batches`` / ``compile`` /
  ``compile_buckets`` / ``plan_stats`` / ``transport_stats``), the
  once-only ``on_death`` and the graceful → ``terminate`` → ``kill``
  close.

A transport only moves ``(op, seq, meta, arrays)`` tuples.  Its remote
half is any object with ``recv()`` (the next request, ``None`` once the
peer is gone), ``send(status, seq, meta, arrays)`` and ``close()``;
its client half is a :class:`RemoteWorker` subclass implementing
``_start``, ``_call``, ``_send_stop``, ``_on_dead`` and ``_release``.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..hpc.fabric import FabricError
from ..tensor.plan_passes import plan_buckets
from ..workflow.engine import (CompiledForward, FieldWindow, ForecastEngine,
                               ForecastResult)

__all__ = ["ProcessWorkerError", "ProcessWorkerDied", "RemoteWorker",
           "OPS", "build_payload", "build_engine", "serve"]

#: the field arrays of one window, in wire order
VARS = ("u3", "v3", "w3", "zeta")

#: what a transport raises once its peer is gone
_GONE = (EOFError, OSError, FabricError)


class ProcessWorkerError(RuntimeError):
    """A request failed inside a remote worker; the remote traceback is
    carried in the message.  The worker is still alive — subsequent
    requests proceed normally."""


class ProcessWorkerDied(ProcessWorkerError):
    """The remote worker died (crash, OOM-kill, ``kill -9``, lost link).

    Raised for the in-flight request and every request after it; the
    worker's ``on_death`` hook fires once so the pool can retire the
    replica instead of routing more traffic at a corpse.
    """


# ----------------------------------------------------------------------
# payload and engine
# ----------------------------------------------------------------------
def build_payload(engine, warm_batches: Sequence[int] = ()
                  ) -> Tuple[bytes, List[int]]:
    """Pickle ``engine`` for a remote worker; returns the payload and
    the batch sizes whose compiled plans ship with it.

    Ships every plan the engine already holds (a deploy warms the new
    engine before surging replicas — those sizes must reach the
    remote) plus ``warm_batches``, compiled here first so the remote
    starts warm without ever tracing.  The plan-handling knobs mirror
    the parent so the remote buckets partial batches (and optimises
    any plan it traces itself) exactly as the in-process tier would.
    """
    warm = sorted({int(b) for b in warm_batches}
                  | set(getattr(engine, "compiled_batches", None) or []))
    payload = pickle.dumps({
        "model": engine.model,
        "normalizer": engine.normalizer,
        "boundary_width": engine.boundary_width,
        "optimize_plans": getattr(engine, "optimize_plans", True),
        "bucket_partial": getattr(engine, "bucket_partial", True),
        "plans": {b: engine.compile(b).plan for b in warm},
    }, protocol=pickle.HIGHEST_PROTOCOL)
    return payload, warm


def build_engine(payload: dict) -> ForecastEngine:
    """Rebuild a ForecastEngine from an unpickled payload — the exact
    weights plus every shipped plan, on the engine's heap arena."""
    engine = ForecastEngine(
        payload["model"], payload["normalizer"], payload["boundary_width"],
        optimize_plans=payload["optimize_plans"],
        bucket_partial=payload["bucket_partial"])
    for plan in payload["plans"].values():
        key = plan.slots[plan.inputs[0]].shape
        engine._plans[key] = CompiledForward(plan, engine._arena)
    return engine


# ----------------------------------------------------------------------
# op table
# ----------------------------------------------------------------------
def _op_batch(engine, meta, arrays):
    refs = [FieldWindow(*arrays[4 * i:4 * i + 4])
            for i in range(meta["n"])]
    t0 = time.perf_counter()
    results = engine.forecast_batch(refs)
    return {
        "n": len(results),
        "batch_seconds": time.perf_counter() - t0,
        "secs": [r.inference_seconds for r in results],
        "compiled": [r.compiled for r in results],
        "plan_batches": [r.plan_batch for r in results],
    }, [getattr(r.fields, var) for r in results for var in VARS]


def _op_compile(engine, meta, arrays):
    engine.compile(meta["batch"])
    return {"compiled": engine.compiled_batches}, []


def _op_compile_buckets(engine, meta, arrays):
    engine.compile_buckets(meta["max_batch"],
                           histogram=meta.get("histogram"))
    return {"compiled": engine.compiled_batches}, []


def _op_plan_stats(engine, meta, arrays):
    return {"stats": engine.plan_stats()}, []


OPS: Dict[str, Callable] = {
    "batch": _op_batch,
    "compile": _op_compile,
    "compile_buckets": _op_compile_buckets,
    "plan_stats": _op_plan_stats,
}


def results_from_reply(meta: dict, arrays: Sequence[np.ndarray]
                       ) -> List[ForecastResult]:
    """Decode a ``batch`` reply; ``arrays`` must be owned by the caller
    (copied out of the transport's buffer)."""
    return [ForecastResult(
        FieldWindow(*arrays[4 * i:4 * i + 4]),
        meta["secs"][i], compiled=meta["compiled"][i],
        plan_batch=meta["plan_batches"][i]) for i in range(meta["n"])]


# ----------------------------------------------------------------------
# remote side
# ----------------------------------------------------------------------
def serve(transport, payload_bytes: bytes) -> None:
    """Build the engine from the payload, then serve requests in
    arrival order until ``stop`` or until the peer is gone.

    A failed request is reported as an ``"err"`` reply and the loop
    keeps serving; a failed build is reported as the ``seq = -1``
    reply and ends it.  Only :class:`Exception` is caught:
    ``KeyboardInterrupt``/``SystemExit`` propagate so the remote can
    actually be stopped.  The transport is closed on the way out.
    """
    try:
        try:
            engine = build_engine(pickle.loads(payload_bytes))
        except Exception:  # noqa: BLE001 — report the build failure
            transport.send("err", -1, {"trace": traceback.format_exc()}, [])
            return
        transport.send("ok", -1, {"pid": os.getpid(),
                                  "time_steps": engine.time_steps,
                                  "compiled": engine.compiled_batches}, [])
        while True:
            request = transport.recv()
            if request is None or request[0] == "stop":
                return
            op, seq, meta, arrays = request
            try:
                if op not in OPS:
                    raise ValueError(f"unknown op {op!r}")
                reply = ("ok", seq) + OPS[op](engine, meta, arrays)
            except Exception:  # noqa: BLE001 — report, keep serving
                reply = ("err", seq, {"trace": traceback.format_exc()}, [])
            # release views into the request buffer before replying
            del request, arrays
            transport.send(*reply)
    except _GONE:
        pass                    # peer gone: clean up and exit
    finally:
        transport.close()


# ----------------------------------------------------------------------
# client side
# ----------------------------------------------------------------------
class RemoteWorker:
    """Parent-side base of :class:`~repro.serve.procpool.ProcessWorker`
    and :class:`~repro.serve.hostpool.HostWorker`.

    Drop-in for a :class:`~repro.workflow.engine.ForecastEngine` where
    the serving stack is concerned, which is what lets
    :class:`~repro.serve.pool.EngineWorkerPool` run the remote tiers
    without touching the scheduler, router, or deploy machinery.

    Subclasses implement the transport: ``_start(payload, mp_context,
    spawn_timeout)`` spawns the remote and returns its ready info,
    ``_call(op, meta, arrays)`` sends one request and returns the
    reply's ``(meta, arrays)`` (raising on ``"err"``), plus
    ``_send_stop``, ``_on_dead`` and ``_release`` for the lifecycle;
    ``forecast_batch`` and the transport counters are theirs too.
    """

    backend = ""
    label = "worker"
    error = ProcessWorkerError
    died = ProcessWorkerDied

    def __init__(self, engine, warm_batches: Sequence[int], mp_context: str,
                 spawn_timeout: float, on_death: Optional[Callable],
                 request_timeout: Optional[float]):
        for attr in ("model", "normalizer", "boundary_width"):
            if not hasattr(engine, attr):
                raise TypeError(
                    f"backend={self.backend!r} needs a ForecastEngine-like "
                    f"executor with .{attr}; {type(engine).__name__} "
                    "has none")
        self.engine = engine
        self.on_death = on_death
        self.request_timeout = request_timeout
        self.pid: Optional[int] = None
        self._proc = None       # the child process, if the remote is one
        self.spawn_seconds: Optional[float] = None
        self.batches = 0
        self._state_lock = threading.Lock()
        self._closed = False
        self._dead = False
        self._death_reason = ""

        payload, warm = build_payload(engine, warm_batches)
        self._compiled = set(warm)
        self.payload_bytes = len(payload)
        t0 = time.perf_counter()
        try:
            info = self._start(payload, mp_context, spawn_timeout)
        except BaseException:
            self.close()
            raise
        self.pid = info["pid"]
        self._time_steps = info["time_steps"]
        self._compiled.update(info["compiled"])
        self.spawn_seconds = time.perf_counter() - t0

    # -- executor protocol ---------------------------------------------
    @property
    def time_steps(self) -> int:
        return self._time_steps

    @property
    def alive(self) -> bool:
        return not self._dead and not self._closed \
            and (self._proc is None or self._proc.is_alive())

    @property
    def compiled_batches(self) -> List[int]:
        """Batch sizes the remote engine holds a compiled plan for."""
        with self._state_lock:
            return sorted(self._compiled)

    def compile(self, batch: int) -> None:
        """Have the remote engine compile (or confirm) a plan for
        ``batch`` episodes; plans shipped at spawn are installed."""
        batch = int(batch)
        with self._state_lock:
            if batch in self._compiled:
                return
        self._update_compiled(self._call("compile", {"batch": batch}))

    def compile_buckets(self, max_batch: Optional[int] = None,
                        histogram=None) -> None:
        """Have the remote engine compile a bucket set — the canonical
        :func:`~repro.tensor.plan_passes.plan_buckets` set for
        ``max_batch``, or a histogram-tuned one (see
        :meth:`~repro.workflow.engine.ForecastEngine.compile_buckets`)
        — so its partial micro-batches pad into compiled buckets
        instead of running eager."""
        meta = {"max_batch": None if max_batch is None else int(max_batch)}
        if histogram is not None:
            meta["histogram"] = dict(histogram) \
                if isinstance(histogram, dict) else list(histogram)
        elif max_batch is None:
            raise ValueError(
                "compile_buckets() needs max_batch or histogram")
        else:
            with self._state_lock:
                if set(plan_buckets(meta["max_batch"])) <= self._compiled:
                    return
        self._update_compiled(self._call("compile_buckets", meta))

    def _update_compiled(self, reply) -> None:
        with self._state_lock:
            self._compiled.update(reply[0]["compiled"])

    def plan_stats(self) -> Dict[str, object]:
        """The remote engine's plan/arena counters plus this side's
        transport counters; degrades to transport-only when dead."""
        stats: Dict[str, object] = {}
        if self.alive:
            try:
                stats = dict(self._call("plan_stats", {})[0]["stats"])
            except ProcessWorkerError:
                stats = {}
        stats["transport"] = self.transport_stats()
        return stats

    def transport_stats(self) -> Dict[str, object]:
        """Transport counters and spawn cost — the observable overhead
        of the tier."""
        with self._state_lock:
            return {"backend": self.backend, "pid": self.pid,
                    "alive": self.alive, "batches": self.batches,
                    **self._transport_fields(),
                    "payload_bytes": self.payload_bytes,
                    "spawn_seconds": self.spawn_seconds}

    def _transport_fields(self) -> Dict[str, object]:
        return {}

    def segment_names(self) -> List[str]:
        """Shared-memory segments this worker may currently own — the
        set that must be gone after :meth:`close`."""
        return []

    # -- replies and death ----------------------------------------------
    def _ready(self, status: str, info: dict) -> dict:
        """The handshake reply's ready info, or the remote build
        failure raised."""
        if status != "ok":
            raise self.error(f"{self.label} failed to start:\n"
                             f"{info.get('trace', '')}")
        return info

    def _remote_error(self, op: str, meta: dict) -> ProcessWorkerError:
        return self.error(f"{self.label} pid {self.pid} failed {op}:\n"
                          f"{meta.get('trace', '')}")

    def _ensure_alive(self) -> None:
        if self._closed:
            raise RuntimeError(f"{self.label} is closed")
        if self._dead:
            raise self.died(
                f"{self.label} pid {self.pid} is dead"
                + (f": {self._death_reason}" if self._death_reason else ""))

    def _died(self, reason: str) -> ProcessWorkerDied:
        """Mark the worker dead; returns the exception to raise."""
        self._mark_dead(reason)
        return self.died(f"{self.label} pid {self.pid} died: {reason}")

    def _mark_dead(self, reason: str) -> None:
        """Declare the remote dead, exactly once: the transport fails
        what is in flight, then ``on_death`` fires."""
        with self._state_lock:
            if self._dead:
                return
            self._dead = True
            self._death_reason = reason
        self._on_dead(reason)
        if self.on_death is not None:
            try:
                self.on_death(self)
            except Exception:  # noqa: BLE001 — observer must not break IPC
                pass

    # -- lifecycle ------------------------------------------------------
    def close(self, timeout: float = 10.0) -> None:
        """Stop the remote (graceful, then ``terminate``, then ``kill``
        for a child process) and release the transport.  Idempotent and
        safe after death."""
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        if not self._dead:
            self._send_stop()
        proc = self._proc
        if proc is not None:
            proc.join(timeout)
            for stop in (proc.terminate, proc.kill):
                if proc.is_alive():
                    stop()
                    proc.join(timeout)
        self._release(timeout)
        if proc is not None:
            try:
                proc.close()
            except ValueError:
                pass    # child stuck past every kill deadline: leak the
                        # handle rather than raise out of close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()
