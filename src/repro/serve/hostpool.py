"""Host-backed execution tier: descriptor frames over the fabric.

:mod:`repro.serve.procpool` escapes the GIL on one host — descriptors
through shared memory, a pipe for control.  The next hop is a replica
on a *different* host, where there is no ``/dev/shm`` to share, only a
wire.  This module adds that tier: a :class:`HostWorker` presents the
same batch-executor surface as :class:`~repro.serve.procpool.ProcessWorker`
(``forecast_batch`` / ``compile`` / ``plan_stats`` / ``on_death`` /
``close``), but its engine lives behind a
:mod:`repro.hpc.fabric` endpoint and every batch travels as one
length-prefixed descriptor frame (the same ``(shape, dtype, offset)``
triples the shm tier uses, packed contiguously so a batch is one
``sendall``, not a syscall per array).

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
returns immediately with a handle and a reaper thread matches
responses to requests by sequence number — batch N+1 is packed and on
the wire while the remote computes batch N.  ``inflight_depth``
records the deepest overlap actually achieved; ``net_wait_s`` and
``frame_bytes`` make the hop's cost visible through
``ServeMetrics``/``PoolMetrics``.

Failure model: the remote sends heartbeat frames between batches; the
reaper raises :class:`HostWorkerDied` (a
:class:`~repro.serve.procpool.ProcessWorkerDied` subclass, so the
pool's retire path and every existing ``except`` clause work
unchanged) when the connection drops, a frame fails to parse, the
child process exits, or the heartbeat deadline lapses — failing every
in-flight handle instead of hanging it, and firing ``on_death``
exactly once.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from multiprocessing import get_context
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..hpc.fabric import (FabricError, FabricTimeout, FrameError,
                          SocketEndpoint, accept_loopback, connect_loopback,
                          listen_loopback, pack_frame, sim_pair, unpack_frame)
from ..workflow.engine import FieldWindow, ForecastResult
from .procpool import ProcessWorkerDied, ProcessWorkerError

__all__ = ["HostWorker", "HostWorkerError", "HostWorkerDied"]

_VARS = ("u3", "v3", "w3", "zeta")


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
def _build_engine(payload: dict):
    """Rebuild a ForecastEngine from an unpickled worker payload —
    the exact weights plus every shipped plan."""
    from ..workflow.engine import CompiledForward, ForecastEngine

    engine = ForecastEngine(
        payload["model"], payload["normalizer"],
        payload["boundary_width"],
        optimize_plans=payload.get("optimize_plans", True),
        bucket_partial=payload.get("bucket_partial", True))
    for plan in payload["plans"].values():
        key = plan.slots[plan.inputs[0]].shape
        engine._plans[key] = CompiledForward(plan, engine._arena)
    return engine


def _serve_endpoint(ep, engine, heartbeat_s: float) -> None:
    """Serve descriptor frames on ``ep`` until stop/disconnect.

    One request at a time, in arrival order — pipelining is the
    *client's* overlap of marshalling and wire time with this loop's
    compute.  A heartbeat thread keeps frames flowing between batches
    so the client's deadline detector can tell "slow" from "dead".
    Endpoint sends are atomic (the endpoint locks internally), so the
    heartbeat never interleaves into a result frame.
    """
    stop_hb = threading.Event()

    def _heartbeat() -> None:
        interval = max(heartbeat_s / 3.0, 0.01)
        while not stop_hb.wait(interval):
            try:
                ep.send_frame(pack_frame("hb", -1))
            except FabricError:
                return

    hb = None
    if heartbeat_s > 0:
        hb = threading.Thread(target=_heartbeat, daemon=True,
                              name="hostworker-heartbeat")
        hb.start()
    try:
        ep.send_frame(pack_frame("ready", -1, {
            "pid": os.getpid(),
            "time_steps": engine.time_steps,
            "compiled": sorted(engine.compiled_batches)}))
        while True:
            try:
                raw = ep.recv_frame(timeout=None)
            except FabricError:
                break               # client gone: clean up and exit
            try:
                frame = unpack_frame(raw)
            except FrameError as exc:
                # framing is lost — report once and hang up
                try:
                    ep.send_frame(pack_frame(
                        "err", -1, {"trace": f"frame rejected: {exc}"}))
                except FabricError:
                    pass
                break
            if frame.op == "stop":
                break
            try:
                if frame.op == "batch":
                    n = frame.meta["n"]
                    refs = [FieldWindow(*frame.arrays[4 * i:4 * i + 4])
                            for i in range(n)]
                    t0 = time.perf_counter()
                    results = engine.forecast_batch(refs)
                    batch_seconds = time.perf_counter() - t0
                    del refs        # release frame-buffer views
                    out = [getattr(r.fields, var) for r in results
                           for var in _VARS]
                    ep.send_frame(pack_frame("result", frame.seq, {
                        "n": len(results),
                        "batch_seconds": batch_seconds,
                        "secs": [r.inference_seconds for r in results],
                        "compiled": [r.compiled for r in results],
                        "plan_batches": [r.plan_batch for r in results],
                    }, out))
                elif frame.op == "compile":
                    engine.compile(frame.meta["batch"])
                    ep.send_frame(pack_frame(
                        "ok", frame.seq,
                        {"compiled": engine.compiled_batches}))
                elif frame.op == "compile_buckets":
                    engine.compile_buckets(
                        frame.meta.get("max_batch"),
                        histogram=frame.meta.get("histogram"))
                    ep.send_frame(pack_frame(
                        "ok", frame.seq,
                        {"compiled": engine.compiled_batches}))
                elif frame.op == "plan_stats":
                    ep.send_frame(pack_frame(
                        "ok", frame.seq, {"stats": engine.plan_stats()}))
                else:
                    ep.send_frame(pack_frame(
                        "err", frame.seq,
                        {"trace": f"unknown op {frame.op!r}"}))
            except FabricError:
                break
            except Exception:  # noqa: BLE001 — report, keep serving
                # Exception only: KeyboardInterrupt/SystemExit must
                # propagate so the child can actually be stopped
                import traceback
                try:
                    ep.send_frame(pack_frame(
                        "err", frame.seq,
                        {"trace": traceback.format_exc()}))
                except FabricError:
                    break
    finally:
        stop_hb.set()
        if hb is not None:
            hb.join(timeout=1.0)
        ep.close()


def _host_main(port: int, token: str, payload_bytes: bytes,
               heartbeat_s: float) -> None:
    """Child-process entry point for ``fabric="socket"``: connect back
    to the parent's loopback listener, rebuild the engine from the
    payload, serve until stop or disconnect."""
    ep = connect_loopback(port, token)
    try:
        engine = _build_engine(pickle.loads(payload_bytes))
    except BaseException:  # noqa: BLE001 — surface the build failure
        import traceback
        try:
            ep.send_frame(pack_frame("err", -1,
                                     {"trace": traceback.format_exc()}))
        except FabricError:
            pass
        ep.close()
        return
    _serve_endpoint(ep, engine, heartbeat_s)


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


class HostWorker:
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
        for attr in ("model", "normalizer", "boundary_width"):
            if not hasattr(engine, attr):
                raise TypeError(
                    "backend='host' needs a ForecastEngine-like "
                    f"executor with .{attr}; {type(engine).__name__} "
                    "has none")
        self.engine = engine
        self.fabric = fabric
        self.on_death = on_death
        self.request_timeout = request_timeout
        self.heartbeat_s = float(heartbeat_s)
        self.death_timeout = float(death_timeout) if death_timeout \
            is not None else 4.0 * self.heartbeat_s

        self._state_lock = threading.Lock()
        self._pending: Dict[int, _Handle] = {}
        self._seq = 0
        self._closed = False
        self._dead = False
        self._death_notified = False
        self._death_reason = ""

        # transport counters (read by scheduler/pool metrics)
        self.batches = 0
        self.net_wait_s = 0.0
        self.frame_bytes = 0
        self.inflight_depth = 0

        warm = sorted({int(b) for b in warm_batches}
                      | set(getattr(engine, "compiled_batches", None) or []))
        plans = {b: engine.compile(b).plan for b in warm}
        self._compiled = set(warm)
        payload = pickle.dumps({
            "model": engine.model,
            "normalizer": engine.normalizer,
            "boundary_width": engine.boundary_width,
            "optimize_plans": getattr(engine, "optimize_plans", True),
            "bucket_partial": getattr(engine, "bucket_partial", True),
            "plans": plans,
        }, protocol=pickle.HIGHEST_PROTOCOL)
        self.payload_bytes = len(payload)

        t0 = time.perf_counter()
        self._proc = None
        self._remote_ep = None
        if fabric == "sim":
            self._ep, self._remote_ep = sim_pair()
            self.comm = self._ep.comm
            # the remote rank rebuilds its engine from the *pickled*
            # payload, exactly as a real remote host would
            remote_engine = _build_engine(pickle.loads(payload))
            self._serve_thread = threading.Thread(
                target=_serve_endpoint,
                args=(self._remote_ep, remote_engine, self.heartbeat_s),
                daemon=True, name="hostworker-sim-rank")
            self._serve_thread.start()
        else:
            listener, port, token = listen_loopback()
            ctx = get_context(mp_context)
            self._proc = ctx.Process(
                target=_host_main,
                args=(port, token, payload, self.heartbeat_s),
                name="hostworker-child", daemon=True)
            self._proc.start()
            try:
                self._ep = accept_loopback(listener, token,
                                           timeout=spawn_timeout)
            except BaseException:
                listener.close()
                self._kill_child()
                raise
            finally:
                listener.close()

        try:
            info = self._handshake(spawn_timeout)
        except BaseException:
            self.close()
            raise
        self.pid = info["pid"]
        self._time_steps = info["time_steps"]
        self._compiled.update(info["compiled"])
        self.spawn_seconds = time.perf_counter() - t0
        self._last_seen = time.perf_counter()

        self._reaper = threading.Thread(target=self._reap, daemon=True,
                                        name="hostworker-reaper")
        self._reaper.start()

    def _handshake(self, timeout: float) -> dict:
        deadline = time.perf_counter() + timeout
        while True:
            remaining = max(deadline - time.perf_counter(), 0.01)
            raw = self._ep.recv_frame(timeout=remaining)
            frame = unpack_frame(raw)
            if frame.op == "hb":
                continue
            if frame.op == "err":
                raise HostWorkerError(
                    f"remote engine failed to start:\n"
                    f"{frame.meta.get('trace', '')}")
            if frame.op != "ready":
                raise HostWorkerError(f"bad handshake: {frame.op!r}")
            return frame.meta

    # -- executor protocol ---------------------------------------------
    @property
    def time_steps(self) -> int:
        return self._time_steps

    @property
    def alive(self) -> bool:
        if self._dead or self._closed:
            return False
        if self._proc is not None and not self._proc.is_alive():
            return False
        return True

    @property
    def compiled_batches(self) -> List[int]:
        """Batch sizes the remote engine holds a compiled plan for."""
        with self._state_lock:
            return sorted(self._compiled)

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
        arrays = [np.ascontiguousarray(getattr(r, var))
                  for r in references for var in _VARS]
        handle, data = self._register(
            "batch", {"n": len(references)}, arrays)
        self._send(data)
        return handle

    def forecast_batch(self, references: Sequence[FieldWindow]
                       ) -> List[ForecastResult]:
        """Marshal one micro-batch to the remote rank and wait.

        Bitwise-identical to ``self.engine.forecast_batch`` — the
        remote runs the same code on bit-equal (pickled) weights.
        Raises :class:`HostWorkerDied` if the remote dies under the
        batch, failing the caller instead of hanging it.
        """
        return self.submit_batch(references).result(
            timeout=self.request_timeout)

    def compile(self, batch: int) -> None:
        """Have the remote engine compile (or confirm) a plan for
        ``batch`` episodes; plans shipped at spawn are installed."""
        batch = int(batch)
        with self._state_lock:
            if batch in self._compiled:
                return
        handle, data = self._register("compile", {"batch": batch}, ())
        self._send(data)
        meta, _ = handle.result(timeout=self.request_timeout)
        with self._state_lock:
            self._compiled.update(meta["compiled"])

    def compile_buckets(self, max_batch: Optional[int] = None,
                        histogram=None) -> None:
        """Have the remote engine compile a bucket set (canonical for
        ``max_batch``, or histogram-tuned — see
        :meth:`~repro.workflow.engine.ForecastEngine.compile_buckets`)."""
        from ..tensor.plan_passes import plan_buckets
        if histogram is None and max_batch is not None:
            with self._state_lock:
                if set(plan_buckets(int(max_batch))) <= self._compiled:
                    return
        meta_req = {"max_batch": None if max_batch is None
                    else int(max_batch)}
        if histogram is not None:
            meta_req["histogram"] = dict(histogram) \
                if isinstance(histogram, dict) else list(histogram)
        handle, data = self._register("compile_buckets", meta_req, ())
        self._send(data)
        meta, _ = handle.result(timeout=self.request_timeout)
        with self._state_lock:
            self._compiled.update(meta["compiled"])

    def plan_stats(self) -> Dict[str, object]:
        """The remote engine's plan/arena counters plus this side's
        transport counters; degrades to transport-only when dead."""
        stats: Dict[str, object] = {}
        if self.alive:
            try:
                handle, data = self._register("plan_stats", {}, ())
                self._send(data)
                meta, _ = handle.result(timeout=self.request_timeout)
                stats = dict(meta["stats"])
            except ProcessWorkerError:
                stats = {}
        stats["transport"] = self.transport_stats()
        return stats

    def transport_stats(self) -> Dict[str, object]:
        """Wire counters (``net_wait_s``, ``frame_bytes``,
        ``inflight_depth``, spawn cost) — the observable overhead of
        the host tier."""
        with self._state_lock:
            return {
                "backend": "host",
                "fabric": self.fabric,
                "pid": getattr(self, "pid", None),
                "alive": self.alive,
                "batches": self.batches,
                "net_wait_s": self.net_wait_s,
                "frame_bytes": self.frame_bytes,
                "inflight_depth": self.inflight_depth,
                "payload_bytes": self.payload_bytes,
                "spawn_seconds": getattr(self, "spawn_seconds", None),
            }

    def segment_names(self) -> List[str]:
        """The host tier holds no shared-memory segments (that is the
        point); provided for pool bookkeeping uniformity."""
        return []

    # -- transport internals --------------------------------------------
    def _ensure_alive(self) -> None:
        if self._closed:
            raise RuntimeError("host worker is closed")
        if self._dead:
            raise HostWorkerDied(
                f"host worker pid {getattr(self, 'pid', '?')} is dead"
                + (f": {self._death_reason}" if self._death_reason else ""))

    def _register(self, op: str, meta: dict, arrays):
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
            if depth > self.inflight_depth:
                self.inflight_depth = depth
            self.frame_bytes += len(data)
        return handle, data

    def _send(self, data: bytes) -> None:
        try:
            self._ep.send_frame(data)
        except FabricError as exc:
            self._mark_dead(f"send failed: {exc}")
            raise HostWorkerDied(
                f"host worker pid {getattr(self, 'pid', '?')} died "
                f"({exc})") from exc

    def _reap(self) -> None:
        """Reaper thread: match response frames to pending handles,
        watch heartbeats and child liveness, fail everything on
        death."""
        tick = max(min(self.heartbeat_s / 2.0, 0.2), 0.02) \
            if self.heartbeat_s > 0 else 0.2
        while True:
            try:
                raw = self._ep.recv_frame(timeout=tick)
            except FabricTimeout:
                if self._closed:
                    return
                if self._check_liveness():
                    return
                continue
            except FrameError as exc:
                self._mark_dead(f"corrupt frame: {exc}")
                return
            except FabricError:
                if self._closed:
                    return
                self._mark_dead("connection closed")
                return
            self._last_seen = time.perf_counter()
            try:
                frame = unpack_frame(raw)
            except FrameError as exc:
                self._mark_dead(f"corrupt frame: {exc}")
                return
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
        if handle is None:
            return                          # stale/unknown seq: drop
        if frame.op == "err":
            handle._fail(HostWorkerError(
                f"host worker pid {self.pid} failed {handle.op}:\n"
                f"{frame.meta.get('trace', '')}"))
            return
        if handle.op == "batch":
            meta = frame.meta
            results = []
            for i in range(meta["n"]):
                fields = FieldWindow(*(a.copy() for a in
                                       frame.arrays[4 * i:4 * i + 4]))
                results.append(ForecastResult(
                    fields, meta["secs"][i],
                    compiled=meta["compiled"][i],
                    plan_batch=meta["plan_batches"][i]))
            elapsed = time.perf_counter() - handle.t0
            with self._state_lock:
                self.batches += 1
                self.net_wait_s += max(
                    elapsed - meta["batch_seconds"], 0.0)
                self.frame_bytes += raw_len
            handle._complete(results)
        else:
            with self._state_lock:
                self.frame_bytes += raw_len
            handle._complete((frame.meta,
                              [a.copy() for a in frame.arrays]))

    def _mark_dead(self, reason: str) -> None:
        with self._state_lock:
            if self._dead:
                return
            self._dead = True
            self._death_reason = reason
            pending = list(self._pending.values())
            self._pending.clear()
        exc = HostWorkerDied(
            f"host worker pid {getattr(self, 'pid', '?')} died: {reason}")
        for handle in pending:
            handle._fail(exc)
        self._ep.close()
        self._kill_child()
        if self.on_death is not None and not self._death_notified:
            self._death_notified = True
            try:
                self.on_death(self)
            except Exception:  # noqa: BLE001 — observer must not break us
                pass

    def _kill_child(self) -> None:
        if self._proc is None:
            return
        if self._proc.is_alive():
            self._proc.terminate()

    def kill(self) -> None:
        """Kill the remote rank abruptly (test hook): ``SIGKILL`` to
        the socket child, endpoint teardown for the sim fabric — the
        fault the reaper must then detect and surface."""
        if self._proc is not None:
            self._proc.kill()
        elif self._remote_ep is not None:
            self._remote_ep.close()

    # -- lifecycle ------------------------------------------------------
    def close(self, timeout: float = 10.0) -> None:
        """Stop the remote rank (graceful, then ``terminate``, then
        ``kill`` for the socket child), close the endpoint and fail any
        handle still outstanding.  Idempotent and safe after death."""
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        if not self._dead:
            try:
                self._ep.send_frame(pack_frame("stop", -1))
            except FabricError:
                pass
        if self._proc is not None:
            self._proc.join(timeout)
            if self._proc.is_alive():
                self._proc.terminate()
                self._proc.join(timeout)
            if self._proc.is_alive():
                self._proc.kill()
                self._proc.join(timeout)
        self._ep.close()
        if self._remote_ep is not None:
            self._remote_ep.close()
        reaper = getattr(self, "_reaper", None)
        if reaper is not None and reaper is not threading.current_thread():
            reaper.join(timeout)
        with self._state_lock:
            pending = list(self._pending.values())
            self._pending.clear()
        if pending:
            exc = HostWorkerDied(
                f"host worker pid {getattr(self, 'pid', '?')} closed "
                "with requests in flight")
            for handle in pending:
                handle._fail(exc)
        if self._proc is not None:
            try:
                self._proc.close()
            except ValueError:
                pass    # child stuck past every kill deadline: leak the
                        # handle rather than raise out of close()

    def __enter__(self) -> "HostWorker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
