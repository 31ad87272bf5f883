"""Process-backed execution tier: escape the GIL with shared memory.

A threaded :class:`~repro.serve.pool.EngineWorkerPool` scales to
exactly one core on the pure-NumPy backend: every numpy-Python
dispatch between kernels holds the GIL, so two threaded replicas are
*slower* than one (``BENCH_serving.json`` measured 0.93×).  The
compiled plans of :mod:`repro.tensor.plan` are the unlock — replay is
a flat sequence of raw-``np.ndarray`` kernel steps over one
offset-packed arena, exactly the shape of work that can move into a
worker *process*.

This module is the process tier's transport for the one remote-worker
protocol of :mod:`repro.serve.remote` (payload, engine rebuild, op
table and serve loop all live there):

* a :class:`ProcessWorker` owns a child process that receives the
  engine payload **once at spawn** and serves
  :func:`~repro.serve.remote.serve` on the far end of a pipe;
* each request's arrays are marshalled as ``(shape, dtype, offset)``
  **descriptors** into a per-worker shared-memory request segment, and
  reply arrays come back the same way through a child-owned response
  segment — the control pipe only ever carries
  ``(op, seq, meta, segment, descriptors)`` tuples, never a pickled
  field array;
* request/reply is synchronous — one request in flight, no reaper
  thread on the batch path.  Replies carry the request's ``seq``, so
  the late reply to a timed-out request is dropped instead of being
  taken for the next one's.

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

import secrets
import threading
import time
from multiprocessing import connection, get_context, shared_memory
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..workflow.engine import FieldWindow, ForecastResult
from .remote import (VARS, ProcessWorkerDied, ProcessWorkerError,
                     RemoteWorker, results_from_reply, serve)

__all__ = [
    "ProcessWorker",
    "ProcessWorkerError",
    "ProcessWorkerDied",
]

_ALIGN = 64


# ----------------------------------------------------------------------
# descriptor marshalling
# ----------------------------------------------------------------------
#: one array descriptor: (shape, dtype-str, byte offset into segment)
_Desc = Tuple[Tuple[int, ...], str, int]


def _aligned(nbytes: int) -> int:
    return -(-nbytes // _ALIGN) * _ALIGN


def _measure(arrays: Sequence[np.ndarray]) -> int:
    return sum(_aligned(a.nbytes) for a in arrays)


def _write_all(seg: shared_memory.SharedMemory,
               arrays: Sequence[np.ndarray]) -> List[_Desc]:
    """Copy ``arrays`` into the segment back to back (64-byte aligned);
    returns their descriptors."""
    offset, descs = 0, []
    for arr in arrays:
        view = np.frombuffer(seg.buf, dtype=arr.dtype, count=arr.size,
                             offset=offset).reshape(arr.shape)
        np.copyto(view, arr)
        del view
        descs.append((tuple(arr.shape), arr.dtype.str, offset))
        offset += _aligned(arr.nbytes)
    return descs


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
# child side
# ----------------------------------------------------------------------
class _PipeServer:
    """The child's half of the transport: requests arrive as
    descriptors into the parent's request segment, reply arrays go
    into this side's response segment.  Built in the parent and handed
    to the child as the spawn argument (the pipe end pickles; the
    segments are created or attached only on first use)."""

    def __init__(self, conn, token: str):
        self.conn = conn
        self.request = _Attached()
        self.response = _Segment(token, "r")

    def recv(self):
        try:
            op, seq, meta, name, descs = self.conn.recv()
        except (EOFError, OSError):
            return None
        seg = self.request.get(name) if descs else None
        return op, seq, meta, [_read(seg, d, copy=False) for d in descs]

    def send(self, status: str, seq: int, meta: dict, arrays) -> None:
        name, descs = None, []
        if arrays:
            seg = self.response.ensure(_measure(arrays))
            name, descs = seg.name, _write_all(seg, arrays)
        self.conn.send((status, seq, meta, name, descs))

    def close(self) -> None:
        self.response.destroy()
        self.request.close()
        try:
            self.conn.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# parent-side handle
# ----------------------------------------------------------------------
class ProcessWorker(RemoteWorker):
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
    request_timeout: optional per-request ceiling [s]; ``None`` trusts
        the sentinel (a hung-but-alive child is not detectable without
        a timeout, a dead one always is).  A timed-out request fails;
        its late reply is dropped when it arrives.

    Thread safety: requests serialise on one lock (the transport is a
    single request/response channel); the scheduler drives one batch
    at a time anyway.
    """

    backend = "process"

    def __init__(self, engine, warm_batches: Sequence[int] = (),
                 mp_context: str = "spawn", spawn_timeout: float = 120.0,
                 on_death: Optional[Callable[["ProcessWorker"], None]] = None,
                 request_timeout: Optional[float] = None):
        self._token = f"repro-{secrets.token_hex(4)}"
        self._lock = threading.Lock()
        self._seq = 0
        self._conn = None
        self._request = _Segment(self._token, "q")
        self._response = _Attached()
        self._last_res_gen = -1
        # transport counters (read by scheduler/pool metrics)
        self.ipc_wait_s = 0.0
        self.marshal_bytes = 0
        super().__init__(engine, warm_batches, mp_context, spawn_timeout,
                         on_death, request_timeout)

    def _start(self, payload: bytes, mp_context: str,
               spawn_timeout: float) -> dict:
        ctx = get_context(mp_context)
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self._proc = ctx.Process(
            target=serve, args=(_PipeServer(child_conn, self._token),
                                payload),
            name=f"procworker-{self._token}", daemon=True)
        self._proc.start()
        child_conn.close()
        status, _, info, _, _ = self._recv(-1, spawn_timeout)
        return self._ready(status, info)

    # -- executor protocol ---------------------------------------------
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
        t0 = time.perf_counter()
        meta, arrays = self._call(
            "batch", {"n": len(references)},
            [getattr(r, var) for r in references for var in VARS])
        results = results_from_reply(meta, arrays)
        with self._state_lock:
            self.ipc_wait_s += max(
                time.perf_counter() - t0 - meta["batch_seconds"], 0.0)
            self.batches += 1
        return results

    def _transport_fields(self) -> Dict[str, object]:
        return {"ipc_wait_s": self.ipc_wait_s,
                "marshal_bytes": self.marshal_bytes}

    def segment_names(self) -> List[str]:
        """Names of every shared-memory segment this worker pair may
        currently own (request, response) — the set that must be gone
        after :meth:`close`."""
        names = [self._request.name] if self._request.name else []
        return names + [f"{self._token}-r{gen}"
                        for gen in range(self._last_res_gen + 1)]

    # -- transport internals --------------------------------------------
    def _call(self, op: str, meta: dict, arrays=()):
        """One request/reply round trip; returns the reply's meta and
        its arrays, copied out of the response segment."""
        with self._lock:
            self._ensure_alive()
            seq = self._seq
            self._seq += 1
            name, descs = None, []
            if arrays:
                need = _measure(arrays)
                seg = self._request.ensure(need)
                name, descs = seg.name, _write_all(seg, arrays)
                self.marshal_bytes += need
            try:
                self._conn.send((op, seq, meta, name, descs))
            except (BrokenPipeError, OSError) as exc:
                raise self._died("pipe closed") from exc
            status, _, meta, name, descs = self._recv(seq,
                                                      self.request_timeout)
            if status != "ok":
                raise self._remote_error(op, meta)
            out = []
            if descs:
                seg = self._response.get(name)
                out = [_read(seg, d, copy=True) for d in descs]
                self.marshal_bytes += sum(a.nbytes for a in out)
            return meta, out

    def _recv(self, seq: int, timeout: Optional[float]):
        """The reply to request ``seq``; replies to earlier requests
        (which timed out) are dropped on the way."""
        deadline = None if timeout is None else \
            time.perf_counter() + timeout
        while True:
            remaining = None if deadline is None else \
                max(deadline - time.perf_counter(), 0.0)
            ready = connection.wait([self._conn, self._proc.sentinel],
                                    timeout=remaining)
            if self._conn in ready:
                try:
                    reply = self._conn.recv()
                except (EOFError, OSError) as exc:
                    raise self._died("EOF on control pipe") from exc
                self._track_response(reply[3])
                if reply[1] == seq:
                    return reply
                continue
            if self._proc.sentinel in ready:
                raise self._died(f"exitcode {self._proc.exitcode}")
            raise self.error(f"{self.label} pid {self.pid} did not "
                             f"respond within {timeout}s")

    def _track_response(self, name: Optional[str]) -> None:
        # track the child's response generation so abnormal-death
        # cleanup can enumerate every segment it may have created
        if name and name.startswith(f"{self._token}-r"):
            self._last_res_gen = max(self._last_res_gen,
                                     int(name.rsplit("-r", 1)[1]))

    def _cleanup_child_segments(self) -> None:
        """Unlink segments the dead child can no longer unlink itself
        (its names are deterministic: every response generation up to
        one past the last seen)."""
        for gen in range(self._last_res_gen + 2):
            _unlink_by_name(f"{self._token}-r{gen}")

    # -- lifecycle ------------------------------------------------------
    def _on_dead(self, reason: str) -> None:
        self._response.close()
        self._cleanup_child_segments()

    def _send_stop(self) -> None:
        with self._lock:
            if self._proc is not None and self._proc.is_alive():
                try:
                    self._conn.send(("stop", -1, {}, None, []))
                except (BrokenPipeError, OSError):
                    pass

    def _release(self, timeout: float) -> None:
        with self._lock:
            self._response.close()
            self._request.destroy()
            # graceful children unlink their own segments; after an
            # abnormal exit these names still exist and fall to us
            self._cleanup_child_segments()
            if self._conn is not None:
                try:
                    self._conn.close()
                except OSError:
                    pass
