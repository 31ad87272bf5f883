"""Process-backed execution tier: escape the GIL with shared memory.

A threaded :class:`~repro.serve.pool.EngineWorkerPool` scales to
exactly one core on the pure-NumPy backend: every numpy-Python
dispatch between kernels holds the GIL, so two threaded replicas are
*slower* than one (``BENCH_serving.json`` measured 0.93×).  The
compiled plans of :mod:`repro.tensor.plan` are the unlock — replay is
a flat sequence of raw-``np.ndarray`` kernel steps over one
offset-packed arena, exactly the shape of work that can move into a
worker *process*.

This module adds that tier under the existing in-process control
plane:

* a :class:`ProcessWorker` owns a child process which, **once at
  spawn**, receives the pickled model weights plus the engine's
  compiled :class:`~repro.tensor.plan.ExecutionPlan`\\ s (steps travel
  by kernel name and rebind from the registry; constants travel by
  value, bit-exact);
* the child rebuilds a :class:`~repro.workflow.engine.ForecastEngine`
  whose :class:`~repro.tensor.plan.BufferArena` blob lives inside a
  ``multiprocessing.shared_memory`` segment (:class:`ShmArena`), so
  plan replay writes its intermediates into shared memory;
* each request batch is marshalled as ``(shape, dtype, offset)``
  **descriptors** into a per-worker shared-memory request segment, and
  results come back the same way through a child-owned response
  segment — the control pipe only ever carries tiny descriptor
  tuples, never a pickled field array;
* the parent-side :class:`ProcessWorker` presents the same
  ``forecast_batch``/``time_steps`` executor interface the
  :class:`~repro.serve.scheduler.MicroBatchScheduler` already drives,
  so the whole router/admission/version/autoscale control plane works
  unchanged with ``backend="process"``.

Results are **bitwise-identical** to the in-process engine: the child
runs the *same* ``ForecastEngine.forecast_batch`` code on bit-equal
weights (pickling preserves float bits), compiled and eager paths
alike, so any batch composition any routing policy produces matches
the direct call exactly.

Failure model: the child's liveness is watched through its process
**sentinel** — a worker that dies mid-flush surfaces as a
:class:`ProcessWorkerDied` on the in-flight batch (failing its
futures, never hanging them) and an ``on_death`` notification the pool
uses to retire the worker.  Shared-memory lifecycle is strict: every
segment is unlinked exactly once — by its creating side on graceful
shutdown, by the parent on abnormal child death (segment names are
deterministic per worker, so the parent can always find them).
"""

from __future__ import annotations

import os
import pickle
import secrets
import threading
import time
import traceback
from multiprocessing import connection, get_context, shared_memory
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..tensor.plan import BufferArena, ExecutionPlan
from ..workflow.engine import FieldWindow, ForecastResult

__all__ = [
    "ProcessWorker",
    "ProcessWorkerError",
    "ProcessWorkerDied",
    "ShmArena",
]

_ALIGN = 64


class ProcessWorkerError(RuntimeError):
    """A request failed inside the worker process; the remote traceback
    is carried in the message.  The child is still alive — subsequent
    batches proceed normally."""


class ProcessWorkerDied(ProcessWorkerError):
    """The worker's child process died (crash, OOM-kill, ``kill -9``).

    Raised for the in-flight batch and every batch after it; the
    worker's ``on_death`` hook fires once so the pool can retire the
    replica instead of routing more traffic at a corpse.
    """


# ----------------------------------------------------------------------
# shared-memory arena
# ----------------------------------------------------------------------
class ShmArena(BufferArena):
    """A :class:`~repro.tensor.plan.BufferArena` whose blobs live in
    one ``multiprocessing.shared_memory`` segment.

    The free-list reuse semantics are inherited unchanged; only fresh
    allocation differs — blobs are carved from the segment by a bump
    pointer (64-byte aligned).  Demand beyond the segment's capacity
    falls back to ordinary heap arrays, honestly counted in
    ``heap_allocations``, so an undersized segment degrades instead of
    failing.

    :meth:`destroy` unlinks the segment; creating and destroying are
    this process's responsibility (the worker child), with the parent
    unlinking by name only after abnormal death.
    """

    def __init__(self, nbytes: int, name: Optional[str] = None):
        super().__init__()
        self.shm = shared_memory.SharedMemory(
            create=True, size=max(int(nbytes), 1), name=name)
        self.capacity = self.shm.size
        self.heap_allocations = 0
        self._offset = 0
        self._bump_lock = threading.Lock()

    def _alloc(self, nbytes: int) -> np.ndarray:
        with self._bump_lock:
            aligned = -(-nbytes // _ALIGN) * _ALIGN
            if self._offset + aligned <= self.capacity:
                off = self._offset
                self._offset += aligned
                return np.frombuffer(self.shm.buf, np.uint8,
                                     count=nbytes, offset=off)
            self.heap_allocations += 1
        return np.empty(nbytes, np.uint8)

    def stats(self) -> Dict[str, int]:
        out = super().stats()
        with self._bump_lock:
            out.update({"shm_bytes": self.capacity,
                        "shm_used": self._offset,
                        "heap_allocations": self.heap_allocations})
        return out

    def destroy(self) -> str:
        """Drop the free-list, unlink and close the segment; returns
        the segment name.  Unlink happens first — it cannot fail on
        exported views, while close might, and the mapping dies with
        the process anyway."""
        with self._lock:
            self._free.clear()
        name = self.shm.name
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass
        try:
            self.shm.close()
        except BufferError:
            pass        # views still alive; process exit reclaims them
        return name


# ----------------------------------------------------------------------
# descriptor marshalling
# ----------------------------------------------------------------------
#: one array descriptor: (shape, dtype-str, byte offset into segment)
_Desc = Tuple[Tuple[int, ...], str, int]


def _measure(arrays: Sequence[np.ndarray]) -> int:
    total = 0
    for a in arrays:
        total += -(-a.nbytes // _ALIGN) * _ALIGN
    return total


def _write(seg: shared_memory.SharedMemory, offset: int,
           arr: np.ndarray) -> Tuple[_Desc, int]:
    """Copy ``arr`` into the segment at ``offset``; returns its
    descriptor and the next (aligned) offset."""
    view = np.frombuffer(seg.buf, dtype=arr.dtype, count=arr.size,
                         offset=offset).reshape(arr.shape)
    np.copyto(view, arr)
    del view
    return ((tuple(arr.shape), arr.dtype.str, offset),
            offset + -(-arr.nbytes // _ALIGN) * _ALIGN)


def _read(seg: shared_memory.SharedMemory, desc: _Desc,
          copy: bool) -> np.ndarray:
    shape, dtype, offset = desc
    count = 1
    for s in shape:
        count *= s
    view = np.frombuffer(seg.buf, dtype=np.dtype(dtype), count=count,
                         offset=offset).reshape(shape)
    return view.copy() if copy else view


class _Segment:
    """One grow-by-replacement shared-memory segment with
    deterministic generation names (``{token}-{tag}{gen}``).

    The owner creates generations as demand grows and unlinks the
    superseded one immediately (POSIX keeps live mappings valid);
    the peer attaches by the name it reads from each message.  The
    deterministic naming is what lets the *parent* clean up a dead
    child's segments: it can enumerate every name the child can
    possibly have created.
    """

    def __init__(self, token: str, tag: str):
        self.token = token
        self.tag = tag
        self.gen = -1
        self.shm: Optional[shared_memory.SharedMemory] = None

    @property
    def name(self) -> Optional[str]:
        return self.shm.name if self.shm is not None else None

    def ensure(self, nbytes: int) -> shared_memory.SharedMemory:
        if self.shm is not None and self.shm.size >= nbytes:
            return self.shm
        grown = max(nbytes, 2 * self.shm.size if self.shm else nbytes)
        self.destroy()
        self.gen += 1
        self.shm = shared_memory.SharedMemory(
            create=True, size=max(grown, 1),
            name=f"{self.token}-{self.tag}{self.gen}")
        return self.shm

    def destroy(self) -> None:
        if self.shm is None:
            return
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass
        try:
            self.shm.close()
        except BufferError:
            pass
        self.shm = None


def _unlink_by_name(name: str) -> bool:
    """Best-effort unlink of a segment this process did not create."""
    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    try:
        seg.unlink()
    except FileNotFoundError:
        pass
    seg.close()
    return True


class _Attached:
    """Peer-side cache of the remote end's current segment."""

    def __init__(self):
        self.shm: Optional[shared_memory.SharedMemory] = None

    def get(self, name: str) -> shared_memory.SharedMemory:
        if self.shm is not None and self.shm.name == name:
            return self.shm
        self.close()
        self.shm = shared_memory.SharedMemory(name=name)
        return self.shm

    def close(self) -> None:
        if self.shm is not None:
            try:
                self.shm.close()
            except BufferError:
                pass
            self.shm = None


# ----------------------------------------------------------------------
# child process
# ----------------------------------------------------------------------
def _child_main(conn, payload_bytes: bytes) -> None:
    """Worker-process entry point.

    Receives the engine description ONCE (weights + compiled plans),
    rebuilds the engine with its arena in shared memory, then serves
    descriptor-marshalled batches until ``stop`` or parent EOF.  Every
    segment this process created is unlinked on the way out.
    """
    # imports here, not at module top: under the spawn start method the
    # child imports this module fresh, and the engine import pulls in
    # the full kernel registry the unpickled plans rebind against
    from ..workflow.engine import CompiledForward, ForecastEngine

    payload = pickle.loads(payload_bytes)
    token = payload["token"]
    engine = ForecastEngine(
        payload["model"], payload["normalizer"],
        payload["boundary_width"],
        optimize_plans=payload.get("optimize_plans", True),
        bucket_partial=payload.get("bucket_partial", True))
    plans: Dict[int, ExecutionPlan] = payload["plans"]
    arena_bytes = max(
        [p.arena_total for p in plans.values()] + [payload["arena_hint"]])
    arena = ShmArena(arena_bytes, name=f"{token}-arena")
    engine._arena = arena
    for plan in plans.values():
        key = plan.slots[plan.inputs[0]].shape
        engine._plans[key] = CompiledForward(plan, arena)

    response = _Segment(token, "r")
    request = _Attached()
    conn.send(("ready", {"pid": os.getpid(), "arena": arena.shm.name,
                         "time_steps": engine.time_steps,
                         "compiled": sorted(plans)}))
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break               # parent gone: clean up and exit
            op = msg[0]
            if op == "stop":
                break
            try:
                if op == "batch":
                    _, req_name, descs = msg
                    seg = request.get(req_name)
                    refs = [FieldWindow(*(_read(seg, d, copy=False)
                                          for d in wdescs))
                            for wdescs in descs]
                    t0 = time.perf_counter()
                    results = engine.forecast_batch(refs)
                    batch_seconds = time.perf_counter() - t0
                    del refs        # release request-segment views
                    arrays = [getattr(r.fields, var) for r in results
                              for var in ("u3", "v3", "w3", "zeta")]
                    seg = response.ensure(_measure(arrays))
                    offset, out_descs = 0, []
                    for r in results:
                        wdescs = []
                        for var in ("u3", "v3", "w3", "zeta"):
                            d, offset = _write(seg, offset,
                                               getattr(r.fields, var))
                            wdescs.append(d)
                        out_descs.append(tuple(wdescs))
                    conn.send(("ok", seg.name, out_descs, batch_seconds,
                               [r.inference_seconds for r in results],
                               [r.compiled for r in results],
                               [r.plan_batch for r in results]))
                elif op == "compile":
                    engine.compile(msg[1])
                    conn.send(("ok", engine.compiled_batches))
                elif op == "compile_buckets":
                    engine.compile_buckets(
                        msg[1], histogram=msg[2] if len(msg) > 2 else None)
                    conn.send(("ok", engine.compiled_batches))
                elif op == "plan_stats":
                    conn.send(("ok", engine.plan_stats()))
                else:
                    conn.send(("err", f"unknown op {op!r}"))
            except Exception:  # noqa: BLE001 — report, keep serving
                # Exception only: KeyboardInterrupt/SystemExit must
                # propagate so the child can actually be stopped
                try:
                    conn.send(("err", traceback.format_exc()))
                except (BrokenPipeError, OSError):
                    break
    finally:
        engine.clear_plans()      # retire executors → views back to arena
        arena.destroy()
        response.destroy()
        request.close()
        try:
            conn.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# parent-side handle
# ----------------------------------------------------------------------
class ProcessWorker:
    """A batch executor whose engine runs in a child process.

    Drop-in for a :class:`~repro.workflow.engine.ForecastEngine` where
    the serving stack is concerned (``forecast_batch`` / ``time_steps``
    / ``compile`` / ``compile_buckets`` / ``plan_stats``), which is
    exactly what lets
    :class:`~repro.serve.pool.EngineWorkerPool` run ``backend="process"``
    without touching the scheduler, router, or deploy machinery.

    Parameters
    ----------
    engine: the :class:`~repro.workflow.engine.ForecastEngine` to
        replicate into the child (its model, normalizer and boundary
        configuration are pickled across **once**, at spawn).
    warm_batches: batch sizes whose compiled plans ship with the
        payload — compiled on the parent engine first (replicas sharing
        one engine share the trace), so the child starts warm without
        ever tracing.
    mp_context: multiprocessing start method (default ``"spawn"`` —
        safe with the parent's scheduler threads; ``"fork"`` starts
        faster but inherits the whole parent address space).
    spawn_timeout: seconds to wait for the child's ready handshake.
    on_death: callback invoked exactly once, with this worker, when the
        child process is found dead.
    request_timeout: optional per-batch ceiling [s]; ``None`` trusts
        the sentinel (a hung-but-alive child is not detectable without
        a timeout, a dead one always is).

    Thread safety: all public methods serialise on one lock (the
    transport is a single request/response channel); the scheduler
    drives one batch at a time anyway.
    """

    def __init__(self, engine, warm_batches: Sequence[int] = (),
                 mp_context: str = "spawn", spawn_timeout: float = 120.0,
                 on_death: Optional[Callable[["ProcessWorker"], None]] = None,
                 request_timeout: Optional[float] = None):
        for attr in ("model", "normalizer", "boundary_width"):
            if not hasattr(engine, attr):
                raise TypeError(
                    "backend='process' needs a ForecastEngine-like "
                    f"executor with .{attr}; {type(engine).__name__} "
                    "has none")
        self.engine = engine
        self.on_death = on_death
        self.request_timeout = request_timeout
        self._token = f"repro-{secrets.token_hex(4)}"
        self._lock = threading.Lock()
        self._closed = False
        self._dead = False
        self._death_notified = False

        # transport counters (read by scheduler/pool metrics)
        self.ipc_wait_s = 0.0
        self.marshal_bytes = 0
        self.batches = 0

        # ship every plan the parent engine already holds (a deploy()
        # warms the new engine before surging replicas — those sizes
        # must reach the children) plus the explicitly requested sizes
        warm = sorted({int(b) for b in warm_batches}
                      | set(getattr(engine, "compiled_batches", None) or []))
        plans = {b: engine.compile(b).plan for b in warm}
        self._compiled = set(warm)
        payload = pickle.dumps({
            "token": self._token,
            "model": engine.model,
            "normalizer": engine.normalizer,
            "boundary_width": engine.boundary_width,
            # plan-handling knobs mirror the parent engine so the child
            # buckets partial batches (and optimises any plan it traces
            # itself) exactly the way the in-process tier would
            "optimize_plans": getattr(engine, "optimize_plans", True),
            "bucket_partial": getattr(engine, "bucket_partial", True),
            "plans": plans,
            "arena_hint": max((p.arena_total for p in plans.values()),
                              default=0),
        }, protocol=pickle.HIGHEST_PROTOCOL)
        self.payload_bytes = len(payload)

        t0 = time.perf_counter()
        ctx = get_context(mp_context)
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self._proc = ctx.Process(target=_child_main,
                                 args=(child_conn, payload),
                                 name=f"procworker-{self._token}",
                                 daemon=True)
        self._proc.start()
        child_conn.close()
        self._request = _Segment(self._token, "q")
        self._response = _Attached()
        self._last_res_gen = -1
        self._arena_name = f"{self._token}-arena"
        try:
            msg = self._recv(timeout=spawn_timeout)
        except BaseException:
            self.close()
            raise
        if msg[0] != "ready":
            self.close()
            raise ProcessWorkerError(f"bad handshake: {msg!r}")
        info = msg[1]
        self.pid = info["pid"]
        self._time_steps = info["time_steps"]
        self.spawn_seconds = time.perf_counter() - t0

    # -- executor protocol ---------------------------------------------
    @property
    def time_steps(self) -> int:
        return self._time_steps

    @property
    def alive(self) -> bool:
        return not self._dead and not self._closed \
            and self._proc.is_alive()

    @property
    def compiled_batches(self) -> List[int]:
        """Batch sizes the child holds a compiled plan for."""
        return sorted(self._compiled)

    def forecast_batch(self, references: Sequence[FieldWindow]
                       ) -> List[ForecastResult]:
        """Marshal one micro-batch to the child and wait for results.

        Bitwise-identical to ``self.engine.forecast_batch`` (the child
        runs the same code on bit-equal weights).  Raises
        :class:`ProcessWorkerDied` if the child dies under the batch —
        the caller's futures fail instead of hanging.
        """
        references = list(references)
        if not references:
            return []
        with self._lock:
            self._ensure_alive()
            t0 = time.perf_counter()
            arrays = [getattr(r, var) for r in references
                      for var in ("u3", "v3", "w3", "zeta")]
            need = _measure(arrays)
            seg = self._request.ensure(need)
            offset, descs = 0, []
            for r in references:
                wdescs = []
                for var in ("u3", "v3", "w3", "zeta"):
                    d, offset = _write(seg, offset, getattr(r, var))
                    wdescs.append(d)
                descs.append(tuple(wdescs))
            self.marshal_bytes += need
            self._send(("batch", seg.name, descs))
            msg = self._recv(timeout=self.request_timeout)
            if msg[0] == "err":
                raise ProcessWorkerError(
                    f"worker pid {self.pid} failed a batch:\n{msg[1]}")
            _, res_name, out_descs, batch_seconds, secs, compiled, \
                plan_batches = msg
            res_seg = self._attach_response(res_name)
            results = []
            for wdescs, sec, comp, pb in zip(out_descs, secs, compiled,
                                             plan_batches):
                fields = FieldWindow(*(_read(res_seg, d, copy=True)
                                       for d in wdescs))
                results.append(ForecastResult(fields, sec, compiled=comp,
                                              plan_batch=pb))
                self.marshal_bytes += sum(
                    getattr(fields, v).nbytes
                    for v in ("u3", "v3", "w3", "zeta"))
            self.ipc_wait_s += max(
                time.perf_counter() - t0 - batch_seconds, 0.0)
            self.batches += 1
        return results

    def compile(self, batch: int) -> None:
        """Have the child compile (or confirm) a plan for ``batch``
        episodes; plans shipped at spawn are already installed."""
        batch = int(batch)
        with self._lock:
            if batch in self._compiled:
                return
            self._ensure_alive()
            self._send(("compile", batch))
            msg = self._recv(timeout=self.request_timeout)
            if msg[0] == "err":
                raise ProcessWorkerError(
                    f"compile({batch}) failed in worker:\n{msg[1]}")
            self._compiled.update(msg[1])

    def compile_buckets(self, max_batch: Optional[int] = None,
                        histogram=None) -> None:
        """Have the child compile a bucket set — the canonical
        :func:`~repro.tensor.plan_passes.plan_buckets` set for
        ``max_batch``, or a histogram-tuned one (see
        :meth:`~repro.workflow.engine.ForecastEngine.compile_buckets`)
        — so its partial micro-batches pad into compiled buckets
        instead of running eager."""
        from ..tensor.plan_passes import plan_buckets
        with self._lock:
            if histogram is None and max_batch is not None and \
                    set(plan_buckets(int(max_batch))) <= self._compiled:
                return
            self._ensure_alive()
            if histogram is None:
                self._send(("compile_buckets", int(max_batch)))
            else:
                hist = dict(histogram) if isinstance(histogram, dict) \
                    else list(histogram)
                self._send(("compile_buckets",
                            None if max_batch is None else int(max_batch),
                            hist))
            msg = self._recv(timeout=self.request_timeout)
            if msg[0] == "err":
                raise ProcessWorkerError(
                    f"compile_buckets({max_batch}) failed in worker:\n"
                    f"{msg[1]}")
            self._compiled.update(msg[1])

    def plan_stats(self) -> Dict[str, object]:
        """The child engine's plan/arena counters plus this side's
        transport counters; degrades to transport-only when dead."""
        with self._lock:
            if self.alive:
                try:
                    self._send(("plan_stats",))
                    msg = self._recv(timeout=self.request_timeout)
                    stats = dict(msg[1]) if msg[0] == "ok" else {}
                except ProcessWorkerError:
                    stats = {}
            else:
                stats = {}
            stats["transport"] = self._transport_locked()
        return stats

    def transport_stats(self) -> Dict[str, object]:
        """IPC/marshalling counters (``ipc_wait_s``, ``marshal_bytes``,
        spawn cost) — the observable overhead of the process tier."""
        with self._lock:
            return self._transport_locked()

    def _transport_locked(self) -> Dict[str, object]:
        return {
            "backend": "process",
            "pid": self.pid if hasattr(self, "pid") else None,
            "alive": self.alive,
            "batches": self.batches,
            "ipc_wait_s": self.ipc_wait_s,
            "marshal_bytes": self.marshal_bytes,
            "payload_bytes": self.payload_bytes,
            "spawn_seconds": getattr(self, "spawn_seconds", None),
        }

    def segment_names(self) -> List[str]:
        """Names of every shared-memory segment this worker pair may
        currently own (request, response, arena) — the set that must
        be gone after :meth:`close`."""
        names = [self._arena_name]
        if self._request.name:
            names.append(self._request.name)
        for gen in range(self._last_res_gen + 1):
            names.append(f"{self._token}-r{gen}")
        return names

    # -- transport internals --------------------------------------------
    def _ensure_alive(self) -> None:
        if self._closed:
            raise RuntimeError("process worker is closed")
        if self._dead:
            raise ProcessWorkerDied(
                f"worker pid {getattr(self, 'pid', '?')} is dead")

    def _send(self, msg) -> None:
        try:
            self._conn.send(msg)
        except (BrokenPipeError, OSError) as exc:
            self._mark_dead()
            raise ProcessWorkerDied(
                f"worker pid {getattr(self, 'pid', '?')} died "
                "(pipe closed)") from exc

    def _recv(self, timeout: Optional[float] = None):
        deadline = None if timeout is None else \
            time.perf_counter() + timeout
        while True:
            remaining = None if deadline is None else \
                max(deadline - time.perf_counter(), 0.0)
            ready = connection.wait([self._conn, self._proc.sentinel],
                                    timeout=remaining)
            if self._conn in ready:
                try:
                    return self._conn.recv()
                except (EOFError, OSError) as exc:
                    self._mark_dead()
                    raise ProcessWorkerDied(
                        f"worker pid {getattr(self, 'pid', '?')} died "
                        "(EOF on control pipe)") from exc
            if self._proc.sentinel in ready:
                self._mark_dead()
                raise ProcessWorkerDied(
                    f"worker pid {getattr(self, 'pid', '?')} died "
                    f"(exitcode {self._proc.exitcode})")
            if not ready:
                raise ProcessWorkerError(
                    f"worker pid {getattr(self, 'pid', '?')} did not "
                    f"respond within {timeout}s")

    def _attach_response(self, name: str) -> shared_memory.SharedMemory:
        # track the child's response generation so abnormal-death
        # cleanup can enumerate every segment it may have created
        if name.startswith(f"{self._token}-r"):
            try:
                self._last_res_gen = max(self._last_res_gen,
                                         int(name.rsplit("-r", 1)[1]))
            except ValueError:
                pass
        return self._response.get(name)

    def _mark_dead(self) -> None:
        if self._dead:
            return
        self._dead = True
        self._response.close()
        self._cleanup_child_segments()
        if self.on_death is not None and not self._death_notified:
            self._death_notified = True
            try:
                self.on_death(self)
            except Exception:  # noqa: BLE001 — observer must not break IPC
                pass

    def _cleanup_child_segments(self) -> None:
        """Unlink segments the dead child can no longer unlink itself
        (its names are deterministic: the arena plus every response
        generation up to one past the last seen)."""
        _unlink_by_name(self._arena_name)
        for gen in range(self._last_res_gen + 2):
            _unlink_by_name(f"{self._token}-r{gen}")

    # -- lifecycle ------------------------------------------------------
    def close(self, timeout: float = 10.0) -> None:
        """Stop the child (graceful, then ``terminate``, then ``kill``)
        and unlink every shared-memory segment of the pair.  Idempotent
        and safe after child death."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if not self._dead and self._proc.is_alive():
                try:
                    self._conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        self._proc.join(timeout)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join(timeout)
        with self._lock:
            self._response.close()
            self._request.destroy()
            # graceful children unlink their own segments; after an
            # abnormal exit these names still exist and fall to us
            self._cleanup_child_segments()
            try:
                self._conn.close()
            except OSError:
                pass
        # a terminated child cannot run its resource_tracker
        # unregistrations; the unlinks above did the actual cleanup
        self._proc.close()

    def __enter__(self) -> "ProcessWorker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
