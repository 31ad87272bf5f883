"""NumPy-backed reverse-mode autodiff engine.

Public surface:

* :class:`Tensor` — array + gradient tape node.
* :func:`concatenate`, :func:`stack`, :func:`where` — multi-input ops.
* :func:`conv_nd`, :func:`conv_transpose_nd` — N-d convolution kernels.
* :func:`no_grad` / :func:`enable_grad` — thread-local gradient switch
  (inference mode, and its inverse for backward passes on serving
  threads).
* :func:`gradcheck` / :func:`numerical_grad` — finite-difference
  verification (see ``docs/differentiation.md``).
* :mod:`~repro.tensor.plan` — compiled inference plans: :func:`trace`
  captures a forward as an :class:`ExecutionPlan`; a
  :class:`PlanExecutor` replays it allocation-free on raw arrays.
* :mod:`~repro.tensor.plan_passes` — plan-IR optimisation:
  :func:`optimize` (peephole fusion + folding + dead-step
  elimination), :func:`plan_buckets` (batch-shape bucketing policy).
"""

from .plan import (
    BufferArena,
    ExecutionPlan,
    PlanExecutor,
    TraceError,
    trace,
    tracing,
)
from .plan_passes import (
    optimize,
    plan_buckets,
    plan_buckets_from_histogram,
)
from .tensor import (
    Tensor,
    astensor,
    concatenate,
    enable_grad,
    is_grad_enabled,
    no_grad,
    set_grad_enabled,
    stack,
    unbroadcast,
    where,
)
from .ops_conv import (
    conv_nd,
    conv_output_shape,
    conv_transpose_nd,
    conv_transpose_output_shape,
)
from .gradcheck import gradcheck, numerical_grad

__all__ = [
    "Tensor",
    "astensor",
    "concatenate",
    "stack",
    "where",
    "no_grad",
    "enable_grad",
    "is_grad_enabled",
    "set_grad_enabled",
    "unbroadcast",
    "conv_nd",
    "conv_transpose_nd",
    "conv_output_shape",
    "conv_transpose_output_shape",
    "gradcheck",
    "numerical_grad",
    "BufferArena",
    "ExecutionPlan",
    "PlanExecutor",
    "TraceError",
    "trace",
    "tracing",
    "plan_buckets",
    "plan_buckets_from_histogram",
    "optimize",
]
