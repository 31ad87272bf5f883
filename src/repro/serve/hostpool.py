"""Host-backed execution tier: descriptor frames over the fabric.

:mod:`repro.serve.procpool` escapes the GIL on one host — descriptors
through shared memory, a pipe for control.  The next hop is a replica
on a *different* host, where there is no ``/dev/shm`` to share, only a
wire.  This module is that tier's transport for the one remote-worker
protocol of :mod:`repro.serve.remote` (payload, engine rebuild, op
table and serve loop all live there): a :class:`HostWorker` presents
the same batch-executor surface as
:class:`~repro.serve.procpool.ProcessWorker`, but its engine lives
behind a :mod:`repro.hpc.fabric` endpoint and every request and reply
travels as one length-prefixed RFB1 frame (the same
``(shape, dtype, offset)`` triples the shm tier uses, packed
contiguously so a batch is one ``sendall``, not a syscall per array).

Two interchangeable fabrics, selected per worker:

* ``fabric="sim"`` — the remote "rank" is a daemon thread in this
  process serving a :class:`~repro.hpc.fabric.SimEndpoint` pair, with
  all wire bytes accounted through a
  :class:`~repro.hpc.mpi.SimComm`.  Deterministic, no processes, and
  the engine is still rebuilt from the *pickled* payload — the same
  serialization path a real remote host would run, so bitwise
  equivalence is tested honestly.
* ``fabric="socket"`` — a spawned child process connected over TCP
  loopback (token handshake, ``TCP_NODELAY``): actual wire
  serialization with measurable bytes-on-wire, standing in for a
  remote host.

The perf substance over the shm tier is **pipelining**: the network
hop adds latency shm never had, so :meth:`HostWorker.submit_batch`
returns immediately with a handle and a reaper thread matches replies
to requests by sequence number — batch N+1 is packed and on the wire
while the remote computes batch N.  ``inflight_depth`` records the
deepest overlap actually achieved; ``net_wait_s`` and ``frame_bytes``
make the hop's cost visible through ``ServeMetrics``/``PoolMetrics``.

Failure model: the remote sends heartbeat frames between replies; the
reaper raises :class:`HostWorkerDied` (a
:class:`~repro.serve.procpool.ProcessWorkerDied` subclass, so the
pool's retire path and every existing ``except`` clause work
unchanged) when the connection drops, a frame fails to parse, the
child process exits, or the heartbeat deadline lapses — failing every
in-flight handle instead of hanging it, and firing ``on_death``
exactly once.  A synchronous request that outlives ``request_timeout``
is abandoned: it leaves the in-flight set and its late reply is
dropped.
"""

from __future__ import annotations

import threading
import time
from multiprocessing import get_context
from typing import Callable, Dict, List, Optional, Sequence

from ..hpc.fabric import (FabricError, FabricTimeout, FrameError,
                          accept_loopback, connect_loopback,
                          listen_loopback, pack_frame, sim_pair, unpack_frame)
from ..workflow.engine import FieldWindow, ForecastResult
from .remote import (VARS, ProcessWorkerDied, ProcessWorkerError,
                     RemoteWorker, results_from_reply, serve)

__all__ = ["HostWorker", "HostWorkerError", "HostWorkerDied"]


class HostWorkerError(ProcessWorkerError):
    """A request failed on the remote host; the remote traceback is in
    the message.  The host worker is still alive."""


class HostWorkerDied(ProcessWorkerDied):
    """The remote host (or the link to it) died: connection dropped,
    frame corruption, child exit, or heartbeat deadline lapsed.
    Raised on every in-flight handle and every request after it."""


# ----------------------------------------------------------------------
# remote side (thread for fabric="sim", child process for "socket")
# ----------------------------------------------------------------------
class _FrameServer:
    """The remote half of the transport: RFB1 frames on a fabric
    endpoint.

    A heartbeat thread keeps frames flowing between replies so the
    client's deadline detector can tell "slow" from "dead".  Endpoint
    sends are atomic (the endpoint locks internally), so a heartbeat
    never interleaves into a reply frame.
    """

    def __init__(self, ep, heartbeat_s: float):
        self.ep = ep
        self._stop_hb = threading.Event()
        self._hb = None
        if heartbeat_s > 0:
            self._hb = threading.Thread(
                target=self._heartbeat, args=(max(heartbeat_s / 3.0, 0.01),),
                daemon=True, name="hostworker-heartbeat")
            self._hb.start()

    def _heartbeat(self, interval: float) -> None:
        while not self._stop_hb.wait(interval):
            try:
                self.ep.send_frame(pack_frame("hb", -1))
            except FabricError:
                return

    def recv(self):
        try:
            raw = self.ep.recv_frame(timeout=None)
        except FabricError:
            return None
        try:
            frame = unpack_frame(raw)
        except FrameError as exc:
            # framing is lost — report once and hang up
            self.send("err", -1, {"trace": f"frame rejected: {exc}"}, [])
            return None
        return frame.op, frame.seq, frame.meta, frame.arrays

    def send(self, status: str, seq: int, meta: dict, arrays) -> None:
        self.ep.send_frame(pack_frame(status, seq, meta, arrays))

    def close(self) -> None:
        self._stop_hb.set()
        if self._hb is not None:
            self._hb.join(timeout=1.0)
        self.ep.close()


def _host_main(port: int, token: str, payload_bytes: bytes,
               heartbeat_s: float) -> None:
    """Child-process entry point for ``fabric="socket"``: connect back
    to the parent's loopback listener and serve."""
    serve(_FrameServer(connect_loopback(port, token), heartbeat_s),
          payload_bytes)


# ----------------------------------------------------------------------
# client side
# ----------------------------------------------------------------------
class _Handle:
    """A pending request: resolved (or failed) by the reaper thread.

    ``result()`` blocks like a future; the batch stays attributable to
    its sequence number however deep the pipeline runs.
    """

    __slots__ = ("seq", "op", "t0", "_event", "_value", "_error")

    def __init__(self, seq: int, op: str):
        self.seq = seq
        self.op = op
        self.t0 = time.perf_counter()
        self._event = threading.Event()
        self._value = None
        self._error: Optional[BaseException] = None

    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._event.wait(timeout)

    def result(self, timeout: Optional[float] = None):
        if not self._event.wait(timeout):
            raise HostWorkerError(
                f"no response to {self.op} (seq {self.seq}) within "
                f"{timeout}s")
        if self._error is not None:
            raise self._error
        return self._value

    def _complete(self, value) -> None:
        self._value = value
        self._event.set()

    def _fail(self, exc: BaseException) -> None:
        self._error = exc
        self._event.set()


class HostWorker(RemoteWorker):
    """A batch executor whose engine runs behind a fabric endpoint.

    Drop-in sibling of :class:`~repro.serve.procpool.ProcessWorker`:
    the same executor protocol, so
    :class:`~repro.serve.pool.EngineWorkerPool` runs ``backend="host"``
    without touching the scheduler, router, or deploy machinery — and
    additionally :meth:`submit_batch` for pipelined use (multiple
    batches in flight over one connection).

    Parameters
    ----------
    engine: the :class:`~repro.workflow.engine.ForecastEngine` to
        replicate to the remote rank (model, normalizer, plans are
        pickled across **once**, at spawn).
    fabric: ``"socket"`` (spawned child over TCP loopback — real wire)
        or ``"sim"`` (in-process deterministic fabric).
    warm_batches: batch sizes whose compiled plans ship with the
        payload.
    heartbeat_s: remote heartbeat period; ``0`` disables heartbeats
        (and deadline-based death detection with them).
    death_timeout: seconds of radio silence before the worker is
        declared dead (default ``4 × heartbeat_s``).
    request_timeout: optional per-request ceiling for the synchronous
        calls (``forecast_batch``/``compile``/``plan_stats``).
    """

    backend = "host"
    label = "host worker"
    error = HostWorkerError
    died = HostWorkerDied

    def __init__(self, engine, fabric: str = "socket",
                 warm_batches: Sequence[int] = (),
                 mp_context: str = "spawn", spawn_timeout: float = 120.0,
                 on_death: Optional[Callable[["HostWorker"], None]] = None,
                 request_timeout: Optional[float] = None,
                 heartbeat_s: float = 2.0,
                 death_timeout: Optional[float] = None):
        if fabric not in ("socket", "sim"):
            raise ValueError(
                f"unknown fabric {fabric!r}: expected 'socket' or 'sim'")
        self.fabric = fabric
        self.heartbeat_s = float(heartbeat_s)
        self.death_timeout = float(death_timeout) if death_timeout \
            is not None else 4.0 * self.heartbeat_s
        self._pending: Dict[int, _Handle] = {}
        self._seq = 0
        self._ep = None
        self._remote_ep = None
        self._reaper = None
        # transport counters (read by scheduler/pool metrics)
        self.net_wait_s = 0.0
        self.frame_bytes = 0
        self.inflight_depth = 0
        super().__init__(engine, warm_batches, mp_context, spawn_timeout,
                         on_death, request_timeout)

    def _start(self, payload: bytes, mp_context: str,
               spawn_timeout: float) -> dict:
        if self.fabric == "sim":
            self._ep, self._remote_ep = sim_pair()
            self.comm = self._ep.comm
            threading.Thread(
                target=serve,
                args=(_FrameServer(self._remote_ep, self.heartbeat_s),
                      payload),
                daemon=True, name="hostworker-sim-rank").start()
        else:
            listener, port, token = listen_loopback()
            try:
                self._proc = get_context(mp_context).Process(
                    target=_host_main,
                    args=(port, token, payload, self.heartbeat_s),
                    name="hostworker-child", daemon=True)
                self._proc.start()
                self._ep = accept_loopback(listener, token,
                                           timeout=spawn_timeout)
            finally:
                listener.close()
        info = self._handshake(spawn_timeout)
        self._last_seen = time.perf_counter()
        self._reaper = threading.Thread(target=self._reap, daemon=True,
                                        name="hostworker-reaper")
        self._reaper.start()
        return info

    def _handshake(self, timeout: float) -> dict:
        deadline = time.perf_counter() + timeout
        while True:
            remaining = max(deadline - time.perf_counter(), 0.01)
            frame = unpack_frame(self._ep.recv_frame(timeout=remaining))
            if frame.op != "hb":
                return self._ready(frame.op, frame.meta)

    # -- executor protocol ---------------------------------------------
    def submit_batch(self, references: Sequence[FieldWindow]) -> _Handle:
        """Send one micro-batch and return immediately with a handle.

        This is the pipelined path: several submitted batches may be
        in flight over the one connection, matched back to their
        handles by sequence number.  ``handle.result()`` blocks for
        that batch alone; a dead worker fails every outstanding handle
        with :class:`HostWorkerDied` instead of hanging it.
        """
        references = list(references)
        if not references:
            done = _Handle(-1, "batch")
            done._complete([])
            return done
        return self._submit("batch", {"n": len(references)},
                            [getattr(r, var) for r in references
                             for var in VARS])

    def forecast_batch(self, references: Sequence[FieldWindow]
                       ) -> List[ForecastResult]:
        """Marshal one micro-batch to the remote rank and wait.

        Bitwise-identical to ``self.engine.forecast_batch`` — the
        remote runs the same code on bit-equal (pickled) weights.
        Raises :class:`HostWorkerDied` if the remote dies under the
        batch, failing the caller instead of hanging it.
        """
        return self._wait(self.submit_batch(references))

    def _transport_fields(self) -> Dict[str, object]:
        return {"fabric": self.fabric, "net_wait_s": self.net_wait_s,
                "frame_bytes": self.frame_bytes,
                "inflight_depth": self.inflight_depth}

    # -- transport internals --------------------------------------------
    def _call(self, op: str, meta: dict, arrays=()):
        return self._wait(self._submit(op, meta, arrays))

    def _submit(self, op: str, meta: dict, arrays) -> _Handle:
        with self._state_lock:
            self._ensure_alive()
            seq = self._seq
            self._seq += 1
        data = pack_frame(op, seq, meta, arrays)
        handle = _Handle(seq, op)
        with self._state_lock:
            self._ensure_alive()
            self._pending[seq] = handle
            depth = sum(1 for h in self._pending.values()
                        if h.op == "batch")
            self.inflight_depth = max(self.inflight_depth, depth)
            self.frame_bytes += len(data)
        try:
            self._ep.send_frame(data)
        except FabricError as exc:
            raise self._died(f"send failed: {exc}") from exc
        return handle

    def _wait(self, handle: _Handle):
        """Block for a synchronous request.  Past ``request_timeout``
        the request is abandoned: it leaves the in-flight set, and the
        reaper drops its late reply."""
        if not handle.wait(self.request_timeout):
            with self._state_lock:
                abandoned = self._pending.pop(handle.seq, None)
            if abandoned is not None:
                raise self.error(
                    f"no response to {handle.op} (seq {handle.seq}) "
                    f"within {self.request_timeout}s")
        # not abandoned: the reaper holds the reply and resolves it
        return handle.result()

    def _reap(self) -> None:
        """Reaper thread: match reply frames to pending handles, watch
        heartbeats and child liveness, fail everything on death."""
        tick = max(min(self.heartbeat_s / 2.0, 0.2), 0.02) \
            if self.heartbeat_s > 0 else 0.2
        while True:
            try:
                raw = self._ep.recv_frame(timeout=tick)
                frame = unpack_frame(raw)
            except FabricTimeout:
                if self._closed or self._check_liveness():
                    return
                continue
            except FrameError as exc:
                self._mark_dead(f"corrupt frame: {exc}")
                return
            except FabricError:
                if not self._closed:
                    self._mark_dead("connection closed")
                return
            self._last_seen = time.perf_counter()
            if frame.op == "hb":
                continue
            if frame.op == "err" and frame.seq < 0:
                self._mark_dead(
                    f"remote fatal error:\n{frame.meta.get('trace', '')}")
                return
            self._resolve(frame, len(raw))

    def _check_liveness(self) -> bool:
        """True if the worker was just declared dead."""
        if self._proc is not None and not self._proc.is_alive():
            self._mark_dead(
                f"child exited (exitcode {self._proc.exitcode})")
            return True
        if self.heartbeat_s > 0 and \
                time.perf_counter() - self._last_seen > self.death_timeout:
            self._mark_dead(
                f"no heartbeat within {self.death_timeout:.2f}s")
            return True
        return False

    def _resolve(self, frame, raw_len: int) -> None:
        with self._state_lock:
            handle = self._pending.pop(frame.seq, None)
            self.frame_bytes += raw_len
        if handle is None:
            return                  # abandoned or unknown seq: drop
        if frame.op != "ok":
            handle._fail(self._remote_error(handle.op, frame.meta))
        elif handle.op != "batch":
            handle._complete((frame.meta, frame.arrays))
        else:
            results = results_from_reply(
                frame.meta, [a.copy() for a in frame.arrays])
            with self._state_lock:
                self.batches += 1
                self.net_wait_s += max(time.perf_counter() - handle.t0
                                       - frame.meta["batch_seconds"], 0.0)
            handle._complete(results)

    def _fail_pending(self, exc: HostWorkerDied) -> None:
        with self._state_lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for handle in pending:
            handle._fail(exc)

    def kill(self) -> None:
        """Kill the remote rank abruptly (test hook): ``SIGKILL`` to
        the socket child, endpoint teardown for the sim fabric — the
        fault the reaper must then detect and surface."""
        if self._proc is not None:
            self._proc.kill()
        elif self._remote_ep is not None:
            self._remote_ep.close()

    # -- lifecycle ------------------------------------------------------
    def _on_dead(self, reason: str) -> None:
        self._fail_pending(self.died(
            f"{self.label} pid {self.pid} died: {reason}"))
        self._ep.close()
        if self._proc is not None and self._proc.is_alive():
            self._proc.terminate()

    def _send_stop(self) -> None:
        if self._ep is not None:
            try:
                self._ep.send_frame(pack_frame("stop", -1))
            except FabricError:
                pass

    def _release(self, timeout: float) -> None:
        for ep in (self._ep, self._remote_ep):
            if ep is not None:
                ep.close()
        if self._reaper is not None and \
                self._reaper is not threading.current_thread():
            self._reaper.join(timeout)
        self._fail_pending(self.died(
            f"{self.label} pid {self.pid} closed with requests in flight"))
