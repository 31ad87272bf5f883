"""Plan-IR optimisation passes: treat the flat step list as a program.

A finalized :class:`~repro.tensor.plan.ExecutionPlan` is a flat IR —
numbered value slots, a step list of registered kernels, a liveness
analysis.  This module optimises that IR the way an inference compiler
would, in two independent layers:

* **peephole fusion** (:func:`fuse_elementwise`) — adjacent
  producer/consumer step pairs from a fixed pattern table collapse
  into single registered kernels: the GEMM→bias ``iadd`` that follows
  every ``Linear``, the bias/BN-affine→GELU chains of the MLP blocks,
  and attention's scale→mask→softmax score pipeline.  Each fused
  kernel replays the *exact* NumPy ufunc sequence of the pair it
  replaces (same calls, same buffers disjointness, fewer Python
  dispatches), so fusion preserves the plan's bitwise-vs-eager
  guarantee.  Fused kernels that need the intermediate value keep it
  in a *scratch* slot (``Step.scratch``) — an arena buffer scoped to
  that one step, placed by :func:`~repro.tensor.plan.repack`.
* **constant folding + dead-step elimination**
  (:func:`fold_constants`, :func:`eliminate_dead_steps`) — steps whose
  inputs are all constants evaluate at pass time and become constants
  themselves; steps whose alias group is never read again (and is not
  a plan output) are dropped.  Both are no-ops on a fresh model trace
  (the tracer already folds constants and records no unused ops) but
  keep rewritten plans clean.

Batch-shape **bucketing** (:func:`plan_buckets`) is the policy side of
the same layer: compile plans at a few canonical batch sizes, pad
undersized micro-batches up to the nearest bucket and slice outputs
back (row-independence of the forward makes the sliced result
bitwise-identical to the unpadded run), so the plan cache hits at any
arrival pattern instead of falling back to eager.

Every structural pass mutates the plan in place and finishes with
:func:`~repro.tensor.plan.repack`, so liveness, arena offsets and
release lists always describe the rewritten program.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np
from scipy import special as _sp_special

from .plan import ExecutionPlan, KERNELS, Step, register_kernel, repack

__all__ = [
    "plan_buckets",
    "plan_buckets_from_histogram",
    "optimize",
    "fuse_elementwise",
    "fold_constants",
    "eliminate_dead_steps",
    "FUSION_PATTERNS",
]


# ----------------------------------------------------------------------
# batch-shape bucketing policy
# ----------------------------------------------------------------------
def plan_buckets(max_batch: int) -> Tuple[int, ...]:
    """Canonical batch sizes to compile for a ``max_batch`` scheduler.

    Powers of two up to ``max_batch``, plus ``max_batch`` itself
    (e.g. ``8 → (1, 2, 4, 8)``, ``6 → (1, 2, 4, 6)``).  An undersized
    micro-batch pads to the nearest bucket above it, so the worst-case
    padding overhead is bounded at just under 2× rows while the plan
    cache stays small.
    """
    max_batch = int(max_batch)
    if max_batch < 1:
        raise ValueError("plan_buckets() needs max_batch >= 1")
    sizes = {max_batch}
    b = 1
    while b < max_batch:
        sizes.add(b)
        b *= 2
    return tuple(sorted(sizes))


def plan_buckets_from_histogram(observed, max_batch: Optional[int] = None,
                                max_plans: Optional[int] = None
                                ) -> Tuple[int, ...]:
    """Pick compile buckets from an observed batch-size histogram.

    ``observed`` is either a ``{batch_size: count}`` mapping (e.g. the
    scheduler's ``ServeMetrics.occupancy_histogram()``) or an iterable
    of batch sizes, one entry per flushed batch.  The returned bucket
    set minimises the total pad rows ``Σ count(s) · (bucket(s) − s)``
    over the histogram — each observed size maps to the smallest
    chosen bucket ≥ it — under a plan-cache budget of ``max_plans``
    buckets (default: the size of the canonical power-of-two set, so
    the cache cost matches :func:`plan_buckets`).  The largest
    observed size is always a bucket (nothing may fall back to eager),
    and ``max_batch``, when given, joins the candidate set so a
    scheduler's full flushes stay exact hits even before one has been
    observed.

    Solved exactly by dynamic programming over the (few dozen at most)
    distinct observed sizes — this is the classic 1-D k-median-style
    partition, ``O(k² · budget)``.
    """
    if isinstance(observed, dict):
        counts: Dict[int, int] = {}
        for s, c in observed.items():
            counts[int(s)] = counts.get(int(s), 0) + int(c)
    else:
        counts = {}
        for s in observed:
            s = int(s)
            counts[s] = counts.get(s, 0) + 1
    if max_batch is not None:
        # candidate (count 0): full flushes must stay exact hits
        counts.setdefault(int(max_batch), 0)
    if not counts:
        raise ValueError(
            "plan_buckets_from_histogram() needs at least one "
            "observed batch size")
    if min(counts) < 1:
        raise ValueError(
            f"batch sizes must be >= 1, got {min(counts)}")

    sizes = sorted(counts)                       # c_1 < ... < c_k
    k = len(sizes)
    budget = max_plans if max_plans is not None \
        else len(plan_buckets(sizes[-1]))
    budget = max(1, min(int(budget), k))
    if budget >= k:
        return tuple(sizes)

    # cost(i, j): map sizes c_{i+1}..c_j onto bucket c_j
    cost = [[0] * k for _ in range(k + 1)]
    for i in range(k + 1):
        for j in range(i, k):
            cost[i][j] = sum(counts[sizes[m]] * (sizes[j] - sizes[m])
                             for m in range(i, j + 1))
    INF = float("inf")
    # dp[m][j]: min pad rows covering c_1..c_j with m buckets, largest
    # bucket = c_j; prev[m][j] reconstructs the chosen set
    dp = [[INF] * k for _ in range(budget + 1)]
    prev: List[List[Optional[int]]] = \
        [[None] * k for _ in range(budget + 1)]
    for j in range(k):
        dp[1][j] = cost[0][j]
    for m in range(2, budget + 1):
        for j in range(m - 1, k):
            for i in range(m - 2, j):
                cand = dp[m - 1][i] + cost[i + 1][j]
                if cand < dp[m][j]:
                    dp[m][j] = cand
                    prev[m][j] = i
    best_m = min(range(1, budget + 1), key=lambda m: dp[m][k - 1])
    chosen = []
    m, j = best_m, k - 1
    while j is not None and m >= 1:
        chosen.append(sizes[j])
        j = prev[m][j]
        m -= 1
    return tuple(sorted(chosen))


# ----------------------------------------------------------------------
# fused kernels
#
# Every kernel reproduces the exact ufunc sequence of the step pair it
# replaces (see repro.tensor.plan / repro.nn.layers /
# repro.nn.attention for the originals), so replay stays bitwise
# identical to the unfused plan — and therefore to the eager path.
# Kernels taking a scratch buffer receive it appended to ``ins``.
# ----------------------------------------------------------------------
def _gelu_from(a, out):
    # the exact eager GELU sequence (repro.nn.layers._k_gelu)
    y = np.multiply(a, np.float32(1.0 / np.sqrt(2.0)), out=out)
    _sp_special.erf(y, out=y)
    y += 1.0
    y *= a
    y *= 0.5
    return y


def _softmax_from(a, out, axis):
    # the exact eager softmax sequence (repro.tensor.plan._k_softmax)
    p = np.subtract(a, a.max(axis=axis, keepdims=True), out=out)
    np.exp(p, out=p)
    p /= p.sum(axis=axis, keepdims=True)
    return p


def _masked_add(t, consts):
    # the exact SW-MSA mask add (repro.nn.attention._k_add_window_mask)
    m, nW, heads = consts["mask"], consts["nW"], consts["heads"]
    B, N = t.shape[0], t.shape[-1]
    t.reshape(B // nW, nW, heads, N, N)[...] += m[None]
    return t


@register_kernel("matmul_bias", "compute")
def _k_matmul_bias(out, ins, consts):
    # matmul ; iadd — the Linear layer's GEMM with its bias add
    y = np.matmul(ins[0], ins[1], out=out)
    y += ins[2]
    return y


@register_kernel("matmul_scale", "compute")
def _k_matmul_scale(out, ins, consts):
    # matmul ; imul_scalar — attention's scaled q·kᵀ scores
    y = np.matmul(ins[0], ins[1], out=out)
    y *= consts["scale"]
    return y


@register_kernel("matmul_scale_mask", "compute")
def _k_matmul_scale_mask(out, ins, consts):
    # matmul ; imul_scalar ; add_window_mask — shifted-window scores
    y = np.matmul(ins[0], ins[1], out=out)
    y *= consts["scale"]
    return _masked_add(y, consts)


@register_kernel("matmul_bias_gelu", "compute")
def _k_matmul_bias_gelu(out, ins, consts):
    # matmul ; iadd ; gelu — a whole MLP fc1 in one dispatch; the
    # biased GEMM result lives in the scratch buffer (gelu re-reads it)
    a, b, bias, tmp = ins
    t = np.matmul(a, b, out=tmp)
    t += bias
    return _gelu_from(t, out)


@register_kernel("bn_affine_gelu", "compute")
def _k_bn_affine_gelu(out, ins, consts):
    # bn_affine ; gelu — folded BatchNorm into its activation
    x, tmp = ins
    t = np.multiply(x, consts["scale"], out=tmp)
    t += consts["shift"]
    return _gelu_from(t, out)


@register_kernel("matmul_scale_softmax", "compute")
def _k_matmul_scale_softmax(out, ins, consts):
    # matmul ; imul_scalar ; softmax — unmasked attention scores
    a, b, tmp = ins
    t = np.matmul(a, b, out=tmp)
    t *= consts["scale"]
    return _softmax_from(t, out, consts["axis"])


@register_kernel("matmul_scale_mask_softmax", "compute")
def _k_matmul_scale_mask_softmax(out, ins, consts):
    # matmul ; imul_scalar ; add_window_mask ; softmax — the whole
    # shifted-window attention score pipeline in one dispatch
    a, b, tmp = ins
    t = np.matmul(a, b, out=tmp)
    t *= consts["scale"]
    _masked_add(t, consts)
    return _softmax_from(t, out, consts["axis"])


#: (first kernel, second kernel) -> (fused kernel, needs scratch slot).
#: Pairs fuse iteratively, so chains collapse through intermediate
#: fused names: matmul → imul_scalar → add_window_mask → softmax
#: becomes matmul_scale, then matmul_scale_mask, then
#: matmul_scale_mask_softmax.
FUSION_PATTERNS: Dict[Tuple[str, str], Tuple[str, bool]] = {
    ("matmul", "iadd"): ("matmul_bias", False),
    ("matmul", "imul_scalar"): ("matmul_scale", False),
    ("matmul_scale", "add_window_mask"): ("matmul_scale_mask", False),
    ("matmul_bias", "gelu"): ("matmul_bias_gelu", True),
    ("bn_affine", "gelu"): ("bn_affine_gelu", True),
    ("matmul_scale", "softmax"): ("matmul_scale_softmax", True),
    ("matmul_scale_mask", "softmax"): ("matmul_scale_mask_softmax", True),
}


# ----------------------------------------------------------------------
# pass helpers
# ----------------------------------------------------------------------
def _slot_reads(plan: ExecutionPlan) -> Dict[int, int]:
    """How many times each slot id is referenced (step inputs, scratch,
    plan outputs)."""
    reads: Dict[int, int] = {}
    for st in plan.steps:
        for tag, ref in st.ins:
            if tag == "s":
                reads[ref] = reads.get(ref, 0) + 1
        for sid in st.scratch:
            reads[sid] = reads.get(sid, 0) + 1
    for sid in plan.outputs:
        reads[sid] = reads.get(sid, 0) + 1
    return reads


def _merge_consts(a: Dict[str, Any], b: Dict[str, Any]
                  ) -> Optional[Dict[str, Any]]:
    """Union of two const dicts; ``None`` if a key collides (the pair
    is then left unfused rather than guessed at)."""
    merged = dict(a)
    for k, v in b.items():
        if k in merged and merged[k] is not v:
            return None
        merged[k] = v
    return merged


# ----------------------------------------------------------------------
# peephole fusion
# ----------------------------------------------------------------------
def fuse_elementwise(plan: ExecutionPlan) -> Dict[str, int]:
    """Fuse adjacent step pairs from :data:`FUSION_PATTERNS` in place.

    A pair ``(i, i+1)`` fuses only when the second step is the *sole*
    reader of the first step's output slot (which is not a plan
    output), so the intermediate value is provably dead outside the
    pair.  Two shapes exist:

    * second step **in-place** on the first's output — the fused
      kernel writes the second step's (alias) slot directly, which
      becomes a storage-owning compute slot of the same alias group;
    * second step a **compute** consumer — the first's output slot
      becomes the fused step's scratch buffer, scoped to the step.

    Runs to a fixpoint so chains collapse through intermediate fused
    names.  Returns ``{fused kernel name: count}``.  The caller must
    :func:`~repro.tensor.plan.repack` afterwards.
    """
    counts: Dict[str, int] = {}
    changed = True
    while changed:
        changed = False
        reads = _slot_reads(plan)
        i = 0
        while i + 1 < len(plan.steps):
            first, second = plan.steps[i], plan.steps[i + 1]
            pattern = FUSION_PATTERNS.get((first.name, second.name))
            if pattern is None or first.kind != "compute":
                i += 1
                continue
            fused_name, needs_scratch = pattern
            x = first.out
            # the second step must consume X as its primary input, and
            # nothing else may ever read X (or alias into its group)
            if not second.ins or second.ins[0] != ("s", x) \
                    or reads.get(x, 0) != 1:
                i += 1
                continue
            xroot = plan.slots[x].root
            if any(tag == "s" and plan.slots[ref].root == xroot
                   for tag, ref in second.ins[1:]):
                i += 1
                continue
            consts = _merge_consts(first.consts, second.consts)
            if consts is None:
                i += 1
                continue
            kernel = KERNELS[fused_name]
            ins = first.ins + second.ins[1:]
            if second.kind == "inplace":
                # fused kernel writes the alias slot directly; it
                # becomes the group's storage-owning buffer
                out = second.out
                scratch = first.scratch + second.scratch
                plan.slots[out].kind = "compute"
            elif second.kind == "compute" and needs_scratch:
                out = second.out
                scratch = first.scratch + second.scratch + (x,)
            else:
                i += 1
                continue
            plan.steps[i] = Step(fused_name, kernel.fn, "compute", out,
                                 ins, consts, scratch)
            del plan.steps[i + 1]
            counts[fused_name] = counts.get(fused_name, 0) + 1
            changed = True
            reads = _slot_reads(plan)
            # stay at i: the fused step may itself start a new pattern
        # sweep again from the top until a full pass fuses nothing
    return counts


# ----------------------------------------------------------------------
# constant folding
# ----------------------------------------------------------------------
def fold_constants(plan: ExecutionPlan) -> int:
    """Evaluate steps whose inputs are all constants, in place.

    The tracer already folds anything constant at trace time, so this
    is a no-op on fresh model plans — it exists for rewritten or
    hand-built plans, where an earlier pass can leave a step with only
    constant inputs.  The folded value becomes a frozen plan constant
    and later references to the step's slot are redirected to it.
    Returns the number of steps folded.
    """
    folded = 0
    while True:
        victim = None
        for idx, st in enumerate(plan.steps):
            if st.kind == "inplace" or st.scratch or not st.ins:
                continue
            if any(tag != "c" for tag, _ in st.ins):
                continue
            if st.out in plan.outputs:
                continue
            # an in-place step targeting this slot's group would need
            # the constant to stay mutable; leave such steps alone
            root = plan.slots[st.out].root
            if any(other.kind == "inplace"
                   and plan.slots[other.out].root == root
                   for other in plan.steps):
                continue
            victim = (idx, st)
            break
        if victim is None:
            return folded
        idx, st = victim
        args = tuple(plan.const_arrays[ref] for _, ref in st.ins)
        value = np.ascontiguousarray(st.fn(None, args, st.consts)).copy()
        value.flags.writeable = False
        cid = len(plan.const_arrays)
        plan.const_arrays.append(value)
        del plan.steps[idx]
        for other in plan.steps:
            other.ins = tuple(("c", cid) if ref == ("s", st.out) else ref
                              for ref in other.ins)
        folded += 1


# ----------------------------------------------------------------------
# dead-step elimination
# ----------------------------------------------------------------------
def eliminate_dead_steps(plan: ExecutionPlan) -> int:
    """Drop steps whose alias group is never read afterwards, in place.

    Alias-group aware: an in-place step mutates a buffer other slots
    of its group may read later, so a step survives while *any* slot
    of its output's group feeds a later surviving step or a plan
    output.  Returns the number of steps removed.
    """
    live = {plan.slots[s].root for s in plan.outputs}
    kept: List[Step] = []
    removed = 0
    for st in reversed(plan.steps):
        if plan.slots[st.out].root in live:
            kept.append(st)
            for tag, ref in st.ins:
                if tag == "s":
                    live.add(plan.slots[ref].root)
            for sid in st.scratch:
                live.add(plan.slots[sid].root)
        else:
            removed += 1
    plan.steps[:] = reversed(kept)
    return removed


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def optimize(plan: ExecutionPlan, *, fuse: bool = True, fold: bool = True,
             dce: bool = True) -> Tuple[ExecutionPlan, Dict[str, Any]]:
    """Run the structural passes and re-pack the arena.

    Mutates ``plan`` in place (it must not be executing) and returns it
    with a stats dict recording what each pass did — surfaced through
    ``engine.plan_stats()['pass_stats']`` and the inference bench's
    ``plan_pass_stats`` record.
    """
    stats: Dict[str, Any] = {
        "steps_before": plan.n_steps,
        "arena_bytes_before": plan.arena_total,
    }
    stats["folded_steps"] = fold_constants(plan) if fold else 0
    stats["fused"] = fuse_elementwise(plan) if fuse else {}
    stats["dead_steps"] = eliminate_dead_steps(plan) if dce else 0
    repack(plan)
    stats["steps_after"] = plan.n_steps
    stats["arena_bytes_after"] = plan.arena_total
    return plan, stats
