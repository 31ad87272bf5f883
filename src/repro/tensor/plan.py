"""Compiled inference plans: capture a forward once, replay it raw.

Eager inference walks the full dynamic machinery on every call —
per-op :class:`~repro.tensor.tensor.Tensor` wrapping, ``requires_grad``
bookkeeping, Python control flow in every module, and a fresh output
allocation per primitive.  None of that work depends on the *data*:
under ``no_grad`` the surrogate's forward is a fixed sequence of NumPy
kernel calls whose shapes are fully determined by the input shapes.

This module captures that sequence once and replays it with none of
the dynamic machinery:

* **trace** — :func:`trace` runs a function of Tensors with a
  thread-local :class:`PlanBuilder` active.  Each primitive op (ufunc,
  matmul, conv-GEMM, reshape/transpose, reduction, fused inference
  kernel) routes through :func:`trace_apply`, which executes the op's
  kernel eagerly (so shapes and values propagate) *and* records it as
  a step against numbered buffer slots.  Ops whose inputs are all
  constants (parameters, window masks, positional tables, folded
  BatchNorm scale/shift) are constant-folded: their trace-time value
  is captured and no step is recorded.
* **plan** — :class:`ExecutionPlan` is the flat step list plus a
  liveness analysis: every slot's last use is known, so storage-owning
  slots whose lifetimes do not overlap share one physical byte buffer
  (best-fit by size; alias groups — views and in-place updates — are
  tracked so reuse can never clobber a live input).
* **arena + replay** — a :class:`PlanExecutor` binds the plan's
  physical buffers from a size-keyed :class:`BufferArena` once, then
  :meth:`PlanExecutor.run` replays the steps on raw ``np.ndarray``\\ s:
  no Tensor objects, no graph bookkeeping, outputs written in place
  into the reused slots, one kernel call per step on the calling
  thread.

Replay is **bitwise identical** to the eager path by construction:
under trace the eager value is computed *by the same kernel function*
that replay calls, and every kernel reproduces the exact NumPy
expression of the eager inference fast path (no kernel is ever split
or reordered).

Kernels register here for the generic tensor ops and from the modules
that own them (:mod:`repro.tensor.ops_conv` registers the conv-GEMM
kernels, :mod:`repro.nn.layers` / :mod:`repro.nn.attention` the fused
inference kernels, :mod:`repro.tensor.plan_passes` the peephole-fused
kernels its optimisation passes substitute in) via
:func:`register_kernel`.

A finalized plan is also an optimisation substrate:
:mod:`repro.tensor.plan_passes` rewrites the step list (elementwise
fusion, constant folding, dead-step elimination) and calls
:func:`repack` to re-run the liveness analysis and arena assignment
over the rewritten program.  Fused steps may own
*scratch* slots (``Step.scratch``): arena buffers written and read
only inside that one step, placed by the packer with a lifetime of
exactly that step.

This module deliberately imports nothing from
:mod:`repro.tensor.tensor` (which imports it); the Tensor type and the
grad-mode switches are bound at import time through
:func:`bind_runtime`.
"""

from __future__ import annotations

import importlib
import pickle
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ExecutionPlan",
    "PlanBuilder",
    "PlanExecutor",
    "BufferArena",
    "TraceError",
    "trace",
    "tracing",
    "trace_apply",
    "register_kernel",
    "repack",
]


class TraceError(RuntimeError):
    """Raised when a forward cannot be captured as a static plan."""


# ----------------------------------------------------------------------
# runtime binding (set by repro.tensor.tensor to avoid a cycle)
# ----------------------------------------------------------------------
_tensor_type: Optional[type] = None
_no_grad = None
_is_grad_enabled = None


def bind_runtime(tensor_type: type, no_grad, is_grad_enabled) -> None:
    """Wire the Tensor type and grad-mode switches into this module."""
    global _tensor_type, _no_grad, _is_grad_enabled
    _tensor_type = tensor_type
    _no_grad = no_grad
    _is_grad_enabled = is_grad_enabled


# ----------------------------------------------------------------------
# kernel registry
# ----------------------------------------------------------------------
#: kernel kinds (how replay treats the output buffer):
#:   compute — writes into a preallocated arena buffer (``out=``)
#:   fresh   — allocates internally; the returned array becomes the slot
#:   view    — returns a view of its first input (no storage)
#:   movement— view *or* storage, decided per call site at trace time
#:             (``np.shares_memory`` — deterministic across replays
#:             because strides replay identically); the non-view kind
#:             is the kernel's ``nonview`` registration argument
#:   inplace — mutates its first input's buffer and returns it
KERNEL_KINDS = ("compute", "fresh", "view", "movement", "inplace")


@dataclass(frozen=True)
class Kernel:
    fn: Callable
    kind: str
    nonview: str = "fresh"    # movement kernels: kind when not a view


#: name -> Kernel; fn(out, ins, consts) -> np.ndarray
KERNELS: Dict[str, Kernel] = {}


def register_kernel(name: str, kind: str, nonview: str = "fresh"):
    """Register ``fn(out, ins, consts) -> np.ndarray`` as a kernel.

    ``out`` is the preallocated output buffer for ``compute`` kernels
    (``None`` at trace time, when the kernel must allocate); ``ins`` is
    the tuple of input arrays; ``consts`` the static argument dict
    captured at trace time.
    """
    if kind not in KERNEL_KINDS:
        raise ValueError(f"unknown kernel kind {kind!r}")

    def deco(fn):
        if name in KERNELS:
            raise ValueError(f"kernel {name!r} already registered")
        KERNELS[name] = Kernel(fn, kind, nonview)
        return fn
    return deco


# ----------------------------------------------------------------------
# trace state
# ----------------------------------------------------------------------
_state = threading.local()


def tracing() -> bool:
    """Whether a plan is being recorded on this thread."""
    return getattr(_state, "builder", None) is not None


# ----------------------------------------------------------------------
# plan data model
# ----------------------------------------------------------------------
@dataclass
class SlotSpec:
    """One numbered value produced during the forward."""

    shape: Tuple[int, ...]
    dtype: np.dtype
    kind: str                    # 'input' | 'compute' | 'fresh' | 'view' | 'inplace'
    root: int                    # alias-group representative slot id
    phys: Optional[int] = None   # arena byte offset (compute slots only)

    @property
    def nbytes(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n * np.dtype(self.dtype).itemsize


@dataclass
class Step:
    """One recorded kernel call: ``slots[out] = fn(ins, consts)``."""

    name: str
    fn: Callable
    kind: str
    out: int
    #: inputs, each ("s", slot_id) or ("c", const_id)
    ins: Tuple[Tuple[str, int], ...]
    consts: Dict[str, Any] = field(default_factory=dict)
    #: arena slots used only inside this step (fused kernels' internal
    #: temporaries); placed by :func:`repack` with a lifetime of
    #: exactly this step and passed to the kernel appended to ``ins``
    scratch: Tuple[int, ...] = ()


class ExecutionPlan:
    """A finalized flat kernel program with buffer-reuse assignment.

    Produced by :func:`trace`; executed by :class:`PlanExecutor`.
    Immutable after :meth:`PlanBuilder.finalize`.
    """

    def __init__(self, slots: List[SlotSpec], steps: List[Step],
                 inputs: List[int], outputs: List[int],
                 const_arrays: List[np.ndarray]):
        self.slots = slots
        self.steps = steps
        self.inputs = inputs          # slot ids bound from run() arguments
        self.outputs = outputs        # slot ids returned by run()
        self.const_arrays = const_arrays
        self.arena_total = 0          # bytes of the single arena blob
        # slot ids droppable after each step (mirrors eager refcount
        # freeing, so live fresh buffers never outstay their last use)
        self.step_releases: List[Tuple[int, ...]] = []

    # -- introspection --------------------------------------------------
    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def n_slots(self) -> int:
        return len(self.slots)

    @property
    def n_buffers(self) -> int:
        """Storage-owning (arena-backed) slots."""
        return sum(1 for s in self.slots if s.phys is not None)

    def kernel_counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for s in self.steps:
            out[s.name] = out.get(s.name, 0) + 1
        return dict(sorted(out.items()))

    def arena_bytes(self) -> int:
        """Bytes of the preallocated arena blob (all compute slots,
        liveness-packed by offset)."""
        return self.arena_total

    def const_bytes(self) -> int:
        return sum(a.nbytes for a in self.const_arrays)

    # -- analytic peak-memory model ------------------------------------
    def peak_buffer_bytes(self) -> int:
        """Modelled peak intermediate-buffer bytes of one replay:
        the (liveness-reused) arena plus the live fresh-slot
        high-water."""
        return self.arena_bytes() + self._live_peak(("fresh",))

    def eager_peak_bytes(self) -> int:
        """Modelled peak intermediate-buffer bytes of one eager call:
        every storage-owning slot is a separate allocation freed when
        its alias group dies (NumPy refcounting), with no reuse."""
        return self._live_peak(("compute", "fresh"))

    def _live_peak(self, kinds: Tuple[str, ...]) -> int:
        """High-water of live bytes over slots of the given kinds,
        each freed at its alias group's last use."""
        last_use = self._last_uses()
        peak = live = 0
        owned = {s for s in range(self.n_slots)
                 if self.slots[s].kind in kinds}
        for i, step in enumerate(self.steps):
            if step.out in owned:
                live += self.slots[step.out].nbytes
            # scratch slots are born and die inside this one step
            scratch = sum(self.slots[s].nbytes for s in step.scratch
                          if self.slots[s].kind in kinds)
            peak = max(peak, live + scratch)
            for s in list(owned):
                if last_use[s] == i:
                    live -= self.slots[s].nbytes
                    owned.discard(s)
        return max(peak, live)

    def _last_uses(self) -> List[int]:
        """Per-slot index of the last step whose alias group needs it."""
        end = len(self.steps)
        group_last: Dict[int, int] = {}
        for i, step in enumerate(self.steps):
            for tag, ref in step.ins:
                if tag == "s":
                    group_last[self.slots[ref].root] = i
            for sid in step.scratch:
                group_last[self.slots[sid].root] = i
            group_last[self.slots[step.out].root] = i
        for out in self.outputs:
            group_last[self.slots[out].root] = end
        return [group_last.get(self.slots[s].root, -1)
                for s in range(self.n_slots)]

    def _build_releases(self) -> None:
        last_use = self._last_uses()
        group_end: Dict[int, int] = {}
        for sid, spec in enumerate(self.slots):
            group_end[spec.root] = max(group_end.get(spec.root, -1),
                                       last_use[sid])
        by_step: Dict[int, List[int]] = {}
        for sid, spec in enumerate(self.slots):
            end = group_end[spec.root]
            if end < len(self.steps):
                by_step.setdefault(end, []).append(sid)
        self.step_releases = [tuple(by_step.get(i, ()))
                              for i in range(len(self.steps))]

    # -- serialisation --------------------------------------------------
    # A plan is a *description* — flat step list, slot specs, baked
    # constants, the arena offset assignment — plus per-step kernel
    # function references.  The functions are registry closures
    # (unpicklable, and process-local anyway), so pickling ships each
    # step by its registered kernel NAME and rebinds the function from
    # the receiving process's registry.  Live buffers never travel:
    # arena blobs belong to PlanExecutors, which hold plans but are not
    # part of them.  Constants (folded weights, masks, tables) DO
    # travel — they are the baked state a worker process needs — and
    # pickling preserves their float bits exactly, so a round-tripped
    # plan replays bitwise-identical to the original.

    def __getstate__(self) -> Dict[str, Any]:
        return {
            "slots": self.slots,
            "steps": [(s.name, s.kind, s.out, s.ins, s.consts, s.scratch)
                      for s in self.steps],
            "inputs": self.inputs,
            "outputs": self.outputs,
            "const_arrays": self.const_arrays,
            "arena_total": self.arena_total,
            "step_releases": self.step_releases,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        _ensure_kernels_registered()
        steps = []
        for rec in state["steps"]:
            name, kind, out, ins, consts, scratch = rec
            kernel = KERNELS.get(name)
            if kernel is None:
                raise TraceError(
                    f"cannot deserialize plan: kernel {name!r} is not "
                    "registered in this process (import the module that "
                    "registers it before loading the plan)")
            steps.append(Step(name, kernel.fn, kind, out, ins, consts,
                              tuple(scratch)))
        self.slots = state["slots"]
        self.steps = steps
        self.inputs = state["inputs"]
        self.outputs = state["outputs"]
        self.const_arrays = state["const_arrays"]
        self.arena_total = state["arena_total"]
        self.step_releases = state["step_releases"]

    def to_bytes(self) -> bytes:
        """Serialize the plan (steps by kernel name, constants by
        value, no live arena blobs) for a worker process or disk."""
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def from_bytes(blob: bytes) -> "ExecutionPlan":
        """Inverse of :meth:`to_bytes`; replays bitwise-identical."""
        plan = pickle.loads(blob)
        if not isinstance(plan, ExecutionPlan):
            raise TraceError(
                f"from_bytes: expected an ExecutionPlan, got "
                f"{type(plan).__name__}")
        return plan


def _ensure_kernels_registered() -> None:
    """Import every module that registers kernels (idempotent).

    Deserialising a plan needs the full registry; in a fresh worker
    process only this module's generic kernels exist until the conv and
    fused-NN modules have been imported.
    """
    for mod in ("repro.tensor", "repro.nn.layers", "repro.nn.attention",
                "repro.tensor.plan_passes"):
        try:
            importlib.import_module(mod)
        except ImportError:
            pass


# ----------------------------------------------------------------------
# builder
# ----------------------------------------------------------------------
class PlanBuilder:
    """Mutable recording state while a trace is active."""

    def __init__(self):
        self.slots: List[SlotSpec] = []
        self.steps: List[Step] = []
        self.inputs: List[int] = []
        self.const_arrays: List[np.ndarray] = []
        self._const_by_id: Dict[int, int] = {}

    # -- slots ----------------------------------------------------------
    def _new_slot(self, arr: np.ndarray, kind: str,
                  root: Optional[int] = None) -> int:
        sid = len(self.slots)
        self.slots.append(SlotSpec(tuple(arr.shape), arr.dtype, kind,
                                   sid if root is None else root))
        return sid

    def add_input(self, arr: np.ndarray) -> int:
        sid = self._new_slot(arr, "input")
        self.inputs.append(sid)
        return sid

    def add_const(self, arr: np.ndarray, stable: bool) -> int:
        """Capture a constant array.

        ``stable`` constants (model parameters) are captured **by
        reference** — in-place weight updates (``load_state_dict``)
        propagate into existing plans.  Everything else (masks, folded
        scale/shift, positional sums) is captured by value and frozen.
        """
        key = id(arr)
        if key in self._const_by_id:
            return self._const_by_id[key]
        if stable:
            stored = arr
        else:
            stored = np.ascontiguousarray(arr).copy()
            stored.flags.writeable = False
        cid = len(self.const_arrays)
        self.const_arrays.append(stored)
        if stable:
            self._const_by_id[key] = cid
        return cid

    def add_step(self, name: str, kernel: Kernel, kind: str,
                 ins: Sequence[Tuple[str, int]], consts: Dict[str, Any],
                 out_arr: np.ndarray) -> int:
        if kind in ("view", "inplace"):
            root = self.slots[ins[0][1]].root
            out = self._new_slot(out_arr, kind, root=root)
        else:
            out = self._new_slot(out_arr, kind)
        self.steps.append(Step(name, kernel.fn, kind, out, tuple(ins),
                               dict(consts)))
        return out

    # -- finalize: liveness → physical buffer assignment ----------------
    def finalize(self, outputs: List[int]) -> ExecutionPlan:
        for sid in self.inputs:
            # an in-place step writing through to a run() argument would
            # corrupt the caller's array on every replay
            for step in self.steps:
                if step.kind == "inplace" and \
                        self.slots[step.out].root == sid:
                    raise TraceError(
                        f"in-place kernel {step.name!r} targets input "
                        f"slot {sid}; refusing to capture a plan that "
                        "would mutate caller data")
        plan = ExecutionPlan(self.slots, self.steps, self.inputs, outputs,
                             self.const_arrays)
        repack(plan)
        return plan


def repack(plan: ExecutionPlan) -> ExecutionPlan:
    """(Re)run liveness analysis and physical buffer assignment.

    Called by :meth:`PlanBuilder.finalize` on a fresh trace, and again
    by the :mod:`repro.tensor.plan_passes` optimisation passes after
    they rewrite the step list — fused steps change slot lifetimes and
    introduce scratch slots, so the offsets must be re-derived.
    Idempotent: running it twice on an unchanged plan yields the same
    assignment.
    """
    for spec in plan.slots:
        spec.phys = None
    last_use = plan._last_uses()

    # group slots by alias root; a physical buffer frees only when
    # its whole group (the buffer plus every view / in-place handle
    # of it) is past its last use
    group_end: Dict[int, int] = {}
    for sid, spec in enumerate(plan.slots):
        group_end[spec.root] = max(group_end.get(spec.root, -1),
                                   last_use[sid])

    # offset assignment into one arena blob (address-ordered
    # first-fit over live byte ranges, the classic static memory
    # plan): slots with disjoint lifetimes share bytes whatever
    # their shapes, so the arena high-water tracks the live peak
    # instead of the allocation total — this is what makes peak
    # memory drop below the eager path
    align = 64
    active: List[Tuple[int, int, int]] = []   # (offset, size, end)
    total = 0
    for i, step in enumerate(plan.steps):
        # scratch slots place first: they are read and written during
        # this step, so their ranges (end == i) stay active while the
        # output buffer is placed and can never overlap it
        place = list(step.scratch)
        if step.kind == "compute":
            place.append(step.out)
        for sid in place:
            spec = plan.slots[sid]
            need = -(-spec.nbytes // align) * align
            # a range is reusable once its whole alias group is past
            # its last read (end < i); ranges read *during* this step
            # (end == i) must survive until the write completes
            active = [a for a in active if a[2] >= i]
            active.sort()
            offset = 0
            for o, s, _ in active:
                if offset + need <= o:
                    break
                offset = max(offset, o + s)
            active.append((offset, need, group_end[spec.root]))
            spec.phys = offset
            total = max(total, offset + need)
    plan.arena_total = total
    plan._build_releases()
    return plan


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------
def trace_apply(name: str, inputs: Sequence[Any],
                consts: Optional[Dict[str, Any]] = None) -> Any:
    """Execute kernel ``name`` eagerly under trace and record it.

    ``inputs`` may be Tensors or plain arrays/scalars.  Inputs carrying
    a trace slot keep the plan data-dependent; slotless inputs become
    plan constants.  If *no* input has a slot the op is constant-folded
    (executed, not recorded).  Returns the result wrapped as a Tensor.
    """
    b = _state.builder
    kernel = KERNELS[name]
    consts = consts or {}
    arrays: List[np.ndarray] = []
    refs: List[Optional[int]] = []
    stable: List[bool] = []
    for x in inputs:
        if isinstance(x, _tensor_type):
            arrays.append(x.data)
            refs.append(getattr(x, "_slot", None))
            stable.append(bool(getattr(x, "requires_grad", False)))
        else:
            arrays.append(np.asarray(x))
            refs.append(None)
            stable.append(False)

    out_arr = kernel.fn(None, tuple(arrays), consts)
    out = _tensor_type(out_arr)

    if any(r is not None for r in refs):
        kind = kernel.kind
        if kind == "movement":
            kind = "view" if np.shares_memory(out_arr, arrays[0]) \
                else kernel.nonview
        if kind == "view" and refs[0] is None:
            # view of a constant: the whole result is constant
            return out
        if kind == "inplace" and refs[0] is None:
            # in-place into a constant with a data-dependent operand
            # cannot be captured: each replay would need to re-mutate
            # the (shared, frozen) constant
            raise TraceError(
                f"in-place kernel {name!r} targets a constant while "
                "another input depends on the traced inputs")
        ins = []
        for arr, ref, stb in zip(arrays, refs, stable):
            if ref is not None:
                ins.append(("s", ref))
            else:
                ins.append(("c", b.add_const(arr, stable=stb)))
        out._slot = b.add_step(name, kernel, kind, ins, consts, out_arr)
    return out


def trace(fn: Callable, example_inputs: Sequence[np.ndarray]
          ) -> Tuple[ExecutionPlan, Any]:
    """Capture ``fn(*tensors)`` as an :class:`ExecutionPlan`.

    Parameters
    ----------
    fn: a function of Tensors returning a Tensor or a (nested) tuple /
        list of Tensors.  It must be shape-static: no data-dependent
        Python branching, every primitive routed through a registered
        kernel.
    example_inputs: arrays fixing the input shapes/dtypes (their values
        are irrelevant to the captured program, only to the trace-time
        outputs).

    Returns
    -------
    ``(plan, outputs)`` — the finalized plan and the trace-time eager
    outputs (same structure ``fn`` returned).
    """
    if _tensor_type is None:
        raise TraceError("plan runtime not bound; import repro.tensor first")
    if tracing():
        raise TraceError("trace() is not reentrant")
    builder = PlanBuilder()
    _state.builder = builder
    try:
        with _no_grad():
            tensors = []
            for arr in example_inputs:
                t = _tensor_type(np.ascontiguousarray(arr))
                t._slot = builder.add_input(t.data)
                tensors.append(t)
            result = fn(*tensors)
    finally:
        _state.builder = None

    out_slots: List[int] = []
    for t in _flatten(result):
        slot = getattr(t, "_slot", None)
        if slot is None:
            raise TraceError(
                "a traced output does not depend on the inputs "
                "(constant output) — nothing to replay")
        out_slots.append(slot)
    return builder.finalize(out_slots), result


def _flatten(x) -> List[Any]:
    if isinstance(x, (tuple, list)):
        out = []
        for item in x:
            out.extend(_flatten(item))
        return out
    return [x]


# ----------------------------------------------------------------------
# arena + executor
# ----------------------------------------------------------------------
class BufferArena:
    """Size-keyed pool of preallocated scratch byte buffers.

    Executors draw their physical buffers here; releasing an executor
    returns them for the next one, so steady-state serving allocates
    nothing.  Buffers are raw byte blobs — a freed blob hosts any
    later request that fits (best-fit), whatever shape the slots view
    it as.  Blobs live on the heap of the process that replays the
    plan — a remote worker's arena included: its results are copied
    into the transport's reply, so no other process ever reads the
    arena.  Thread safety: :meth:`take`/:meth:`give` are locked; the
    arrays themselves are handed out exclusively.
    """

    def __init__(self):
        self._free: List[np.ndarray] = []   # sorted by nbytes
        self._lock = threading.Lock()
        self.allocated_bytes = 0
        self.allocations = 0     # arena growth events (unseen sizes/demand)
        self.reuses = 0

    def take(self, nbytes: int) -> np.ndarray:
        with self._lock:
            fit = next((i for i, b in enumerate(self._free)
                        if b.nbytes >= nbytes), None)
            if fit is not None:
                self.reuses += 1
                return self._free.pop(fit)
            self.allocations += 1
            self.allocated_bytes += nbytes
        return np.empty(nbytes, np.uint8)

    def give(self, blob: np.ndarray) -> None:
        with self._lock:
            at = next((i for i, b in enumerate(self._free)
                       if b.nbytes >= blob.nbytes), len(self._free))
            self._free.insert(at, blob)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"allocated_bytes": self.allocated_bytes,
                    "allocations": self.allocations,
                    "reuses": self.reuses}


class PlanExecutor:
    """Replays one :class:`ExecutionPlan` on raw arrays.

    Owns one set of the plan's physical buffers (drawn from ``arena``
    if given), so an executor is **not** thread-safe — concurrent
    callers each use their own executor (see
    ``workflow.engine.CompiledForward``).  :meth:`run` outputs are
    views into those buffers, valid until the next :meth:`run`.
    """

    def __init__(self, plan: ExecutionPlan,
                 arena: Optional[BufferArena] = None):
        self.plan = plan
        self._arena = arena
        if arena is None:
            self._blob = np.empty(plan.arena_total, np.uint8)
        else:
            self._blob = arena.take(plan.arena_total)
        self._env: List[Optional[np.ndarray]] = [None] * plan.n_slots

        # precompile the program: resolve constants, bind output views
        # into the arena blob
        consts = plan.const_arrays
        prog = []
        for i, step in enumerate(plan.steps):
            spec = plan.slots[step.out]
            out_view = None
            if spec.phys is not None:
                out_view = self._blob[spec.phys:spec.phys + spec.nbytes] \
                    .view(spec.dtype).reshape(spec.shape)
            ins_spec = tuple(ref if tag == "s" else consts[ref]
                             for tag, ref in step.ins)
            if step.scratch:
                # scratch buffers are fixed arena views, appended to the
                # kernel's inputs (fused kernels know their arity)
                ins_spec += tuple(
                    self._blob[plan.slots[s].phys:
                               plan.slots[s].phys + plan.slots[s].nbytes]
                    .view(plan.slots[s].dtype).reshape(plan.slots[s].shape)
                    for s in step.scratch)
            prog.append((step.fn, step.out, ins_spec, step.consts,
                         out_view, plan.step_releases[i]))
        self._prog = prog

    def release(self) -> None:
        """Return the arena blob for the next executor."""
        if self._arena is not None and self._blob is not None:
            self._arena.give(self._blob)
        self._blob = None
        self._prog = []
        self._env = []

    def run(self, inputs: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Replay the plan; returns the output arrays (arena views)."""
        plan = self.plan
        env = self._env
        if len(inputs) != len(plan.inputs):
            raise ValueError(
                f"plan expects {len(plan.inputs)} inputs, got {len(inputs)}")
        for sid, arr in zip(plan.inputs, inputs):
            spec = plan.slots[sid]
            if arr.shape != spec.shape or arr.dtype != spec.dtype \
                    or not arr.flags.c_contiguous:
                raise ValueError(
                    f"input slot {sid} expects C-contiguous "
                    f"{spec.shape} {spec.dtype}, got {arr.shape} "
                    f"{arr.dtype} (contiguous={arr.flags.c_contiguous})")
            env[sid] = arr
        for fn, out_slot, ins_spec, consts, out, rel in self._prog:
            ins = tuple(env[r] if type(r) is int else r for r in ins_spec)
            env[out_slot] = fn(out, ins, consts)
            for sid in rel:
                env[sid] = None      # fresh/view buffers free like eager
        return [env[s] for s in plan.outputs]


# ----------------------------------------------------------------------
# generic tensor kernels (conv / fused-NN kernels register from their
# owning modules; every kernel reproduces the eager inference NumPy
# expression bit for bit)
# ----------------------------------------------------------------------
def _binary(name, ufunc):
    @register_kernel(name, "compute")
    def _k(out, ins, consts):
        return ufunc(ins[0], ins[1], out=out)
    return _k


_binary("add", np.add)
_binary("sub", np.subtract)
_binary("mul", np.multiply)
_binary("div", np.true_divide)
_binary("maximum", np.maximum)


def _unary(name, ufunc):
    @register_kernel(name, "compute")
    def _k(out, ins, consts):
        return ufunc(ins[0], out=out)
    return _k


_unary("neg", np.negative)
_unary("sin", np.sin)
_unary("cos", np.cos)
_unary("exp", np.exp)
_unary("log", np.log)
_unary("sqrt", np.sqrt)
_unary("tanh", np.tanh)
_unary("abs", np.abs)


@register_kernel("pow", "compute")
def _k_pow(out, ins, consts):
    return np.power(ins[0], consts["exponent"], out=out)


@register_kernel("matmul", "compute")
def _k_matmul(out, ins, consts):
    return np.matmul(ins[0], ins[1], out=out)


@register_kernel("relu", "compute")
def _k_relu(out, ins, consts):
    # eager computes x * (x > 0); keep the exact same expression
    return np.multiply(ins[0], ins[0] > 0, out=out)


@register_kernel("clip", "compute")
def _k_clip(out, ins, consts):
    return np.clip(ins[0], consts["lo"], consts["hi"], out=out)


@register_kernel("sum", "compute")
def _k_sum(out, ins, consts):
    return np.sum(ins[0], axis=consts["axis"],
                  keepdims=consts["keepdims"], out=out)


@register_kernel("max", "fresh")
def _k_max(out, ins, consts):
    axis, keepdims = consts["axis"], consts["keepdims"]
    r = ins[0].max(axis=axis, keepdims=True)
    if keepdims:
        return r
    if axis is None:
        return r.reshape(())
    ax = axis if isinstance(axis, tuple) else (axis,)
    return r.squeeze(axis=ax)


@register_kernel("softmax", "compute")
def _k_softmax(out, ins, consts):
    a = ins[0]
    p = np.subtract(a, a.max(axis=consts["axis"], keepdims=True), out=out)
    np.exp(p, out=p)
    p /= p.sum(axis=consts["axis"], keepdims=True)
    return p


@register_kernel("reshape", "movement", nonview="compute")
def _k_reshape(out, ins, consts):
    if out is None:
        return ins[0].reshape(consts["shape"])
    # non-view reshape is exactly a C-order copy of the source
    np.copyto(out.reshape(ins[0].shape), ins[0])
    return out


@register_kernel("transpose", "view")
def _k_transpose(out, ins, consts):
    return ins[0].transpose(consts["axes"])


@register_kernel("getitem", "movement")
def _k_getitem(out, ins, consts):
    return ins[0][consts["idx"]]


@register_kernel("pad", "fresh")
def _k_pad(out, ins, consts):
    return np.pad(ins[0], consts["pad_width"], mode="constant",
                  constant_values=consts["value"])


@register_kernel("roll", "compute")
def _k_roll(out, ins, consts):
    x, shift, axis = ins[0], consts["shift"], consts["axis"]
    if out is None:
        return np.roll(x, shift, axis=axis)
    # roll is pure data movement: write the shifted blocks straight
    # into the arena buffer (same elements, same values as np.roll)
    shifts = shift if isinstance(shift, (tuple, list)) else (shift,)
    axes = axis if isinstance(axis, (tuple, list)) else (axis,)
    total: Dict[int, int] = {}
    for s, ax in zip(shifts, axes):
        # np.roll accumulates shifts on a repeated axis
        total[ax % x.ndim] = total.get(ax % x.ndim, 0) + s
    pairs: List[List[Tuple[slice, slice]]] = \
        [[(slice(None), slice(None))] for _ in range(x.ndim)]
    for ax, s in total.items():
        n = x.shape[ax]
        s %= n
        if s != 0:
            # out[s:] = x[:n-s]; out[:s] = x[n-s:]
            pairs[ax] = [(slice(s, None), slice(None, n - s)),
                         (slice(None, s), slice(n - s, None))]
    import itertools
    for combo in itertools.product(*pairs):
        dst = tuple(c[0] for c in combo)
        src = tuple(c[1] for c in combo)
        out[dst] = x[src]
    return out


@register_kernel("concatenate", "compute")
def _k_concatenate(out, ins, consts):
    return np.concatenate(ins, axis=consts["axis"], out=out)


@register_kernel("stack", "compute")
def _k_stack(out, ins, consts):
    return np.stack(ins, axis=consts["axis"], out=out)


@register_kernel("where", "fresh")
def _k_where(out, ins, consts):
    return np.where(ins[0], ins[1], ins[2])


@register_kernel("astype", "fresh")
def _k_astype(out, ins, consts):
    return ins[0].astype(consts["dtype"])


@register_kernel("iadd", "inplace")
def _k_iadd(out, ins, consts):
    t = ins[0]
    t += ins[1]
    return t


@register_kernel("imul_scalar", "inplace")
def _k_imul_scalar(out, ins, consts):
    t = ins[0]
    t *= consts["scale"]
    return t
