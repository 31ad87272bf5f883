"""Core layers: Linear, LayerNorm, BatchNorm, activations, dropout, MLP.

These are the building blocks of the Swin encoder (LayerNorm + MLP with
GELU, Eq. 3 of the paper) and the decoder (BatchNorm + GELU after each
transposed convolution, §III-C).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import special as _sp_special

from ..tensor import Tensor, astensor, is_grad_enabled
from ..tensor import plan as _plan
from . import init
from .module import Module, Parameter

__all__ = [
    "Linear",
    "LayerNorm",
    "BatchNorm",
    "GELU",
    "ReLU",
    "Dropout",
    "Identity",
    "MLP",
    "gelu",
]


def gelu(x: Tensor) -> Tensor:
    """Exact GELU: ``x * Phi(x)`` using the error function.

    Outside of autograd the five-op chain is fused into in-place
    updates of a single buffer — GELU runs over full-resolution decoder
    activations, where every extra temporary is a pass over main
    memory.
    """
    x = astensor(x)
    if _plan.tracing():
        return _plan.trace_apply("gelu", (x,))
    if not (is_grad_enabled() and x.requires_grad):
        y = x.data * np.float32(1.0 / np.sqrt(2.0))
        _sp_special.erf(y, out=y)
        y += 1.0
        y *= x.data
        y *= 0.5
        return Tensor(y)
    return x * ((x * (1.0 / np.sqrt(2.0))).erf() + 1.0) * 0.5


class GELU(Module):
    """Gaussian Error Linear Unit activation (Hendrycks & Gimpel)."""

    def forward(self, x: Tensor) -> Tensor:
        return gelu(x)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class Linear(Module):
    """Affine map over the trailing feature axis."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else init.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.trunc_normal((in_features, out_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        x = astensor(x)
        out = x.matmul(self.weight)
        if self.bias is not None:
            if _plan.tracing():
                # record the in-place bias add against out's buffer slot
                out = _plan.trace_apply("iadd", (out, self.bias))
            elif not (is_grad_enabled() and
                      (x.requires_grad or self.weight.requires_grad)):
                out.data += self.bias.data     # fresh buffer: add in place
            else:
                out = out + self.bias
        return out


class LayerNorm(Module):
    """Normalise over the trailing feature axis with learned affine."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.weight = Parameter(init.ones((dim,)))
        self.bias = Parameter(init.zeros((dim,)))

    def forward(self, x: Tensor) -> Tensor:
        x = astensor(x)
        if _plan.tracing():
            return _plan.trace_apply("layernorm",
                                     (x, self.weight, self.bias),
                                     {"eps": self.eps})
        if not (is_grad_enabled() and
                (x.requires_grad or self.weight.requires_grad)):
            # fused inference path: one working buffer, in-place updates
            y = x.data - x.data.mean(axis=-1, keepdims=True)
            var = np.mean(np.square(y), axis=-1, keepdims=True)
            var += self.eps
            np.sqrt(var, out=var)
            y /= var
            y *= self.weight.data
            y += self.bias.data
            return Tensor(y)
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) * (x - mu)).mean(axis=-1, keepdims=True)
        norm = (x - mu) / (var + self.eps).sqrt()
        return norm * self.weight + self.bias


class BatchNorm(Module):
    """Batch normalisation over channel axis 1 of ``(N, C, *spatial)``.

    Covers BatchNorm2d and BatchNorm3d by normalising over every axis
    except the channel axis; running statistics follow the standard
    exponential-moving-average update in training mode.
    """

    def __init__(self, num_features: int, eps: float = 1e-5,
                 momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(init.ones((num_features,)))
        self.bias = Parameter(init.zeros((num_features,)))
        self.register_buffer("running_mean", np.zeros(num_features, np.float32))
        self.register_buffer("running_var", np.ones(num_features, np.float32))

    def forward(self, x: Tensor) -> Tensor:
        x = astensor(x)
        axes = (0,) + tuple(range(2, x.ndim))
        bshape = (1, self.num_features) + (1,) * (x.ndim - 2)
        if self.training:
            if _plan.tracing():
                raise _plan.TraceError(
                    "BatchNorm in training mode mutates running stats; "
                    "call model.eval() before tracing")
            mu = x.mean(axis=axes, keepdims=True)
            var = ((x - mu) * (x - mu)).mean(axis=axes, keepdims=True)
            n = x.size // self.num_features
            unbiased = var.data.reshape(-1) * n / max(n - 1, 1)
            self.running_mean *= 1.0 - self.momentum
            self.running_mean += self.momentum * mu.data.reshape(-1)
            self.running_var *= 1.0 - self.momentum
            self.running_var += self.momentum * unbiased
        else:
            # fold running stats into one scale + shift (two passes over
            # x instead of four; x is full-resolution in the decoder)
            inv = (1.0 / np.sqrt(self.running_var + self.eps)).reshape(bshape)
            if not (is_grad_enabled() and
                    (x.requires_grad or self.weight.requires_grad)):
                scale = self.weight.data.reshape(bshape) * inv
                shift = self.bias.data.reshape(bshape) \
                    - self.running_mean.reshape(bshape) * scale
                if _plan.tracing():
                    # running stats fold into per-channel scale/shift plan
                    # constants (recompile after loading new weights)
                    return _plan.trace_apply(
                        "bn_affine", (x,), {"scale": scale, "shift": shift})
                y = x.data * scale
                y += shift
                return Tensor(y)
            scale = self.weight.reshape(bshape) * Tensor(inv)
            shift = self.bias.reshape(bshape) \
                - Tensor(self.running_mean.reshape(bshape)) * scale
            return x * scale + shift
        norm = (x - mu) / (var + self.eps).sqrt()
        return norm * self.weight.reshape(bshape) + self.bias.reshape(bshape)


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.0, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng if rng is not None else init.default_rng(1234)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return astensor(x)
        if _plan.tracing():
            raise _plan.TraceError(
                "Dropout in training mode is stochastic; call "
                "model.eval() before tracing")
        x = astensor(x)
        keep = 1.0 - self.p
        mask = (self.rng.random(x.shape) < keep).astype(x.dtype) / keep
        return x * Tensor(mask)


class MLP(Module):
    """Two-layer feed-forward block used inside every Swin block (Eq. 3)."""

    def __init__(self, dim: int, hidden_ratio: float = 4.0,
                 drop: float = 0.0, rng: Optional[np.random.Generator] = None):
        super().__init__()
        hidden = int(dim * hidden_ratio)
        rng = rng if rng is not None else init.default_rng()
        self.fc1 = Linear(dim, hidden, rng=rng)
        self.act = GELU()
        self.fc2 = Linear(hidden, dim, rng=rng)
        self.drop = Dropout(drop, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.drop(self.fc2(self.act(self.fc1(x))))


# ----------------------------------------------------------------------
# plan kernels — the fused inference fast paths above, replayed
# verbatim (same in-place NumPy chains, arena buffer as the working
# buffer), so compiled forwards are bitwise identical to eager ones
# ----------------------------------------------------------------------
@_plan.register_kernel("gelu", "compute")
def _k_gelu(out, ins, consts):
    a = ins[0]
    y = np.multiply(a, np.float32(1.0 / np.sqrt(2.0)), out=out)
    _sp_special.erf(y, out=y)
    y += 1.0
    y *= a
    y *= 0.5
    return y


@_plan.register_kernel("layernorm", "compute")
def _k_layernorm(out, ins, consts):
    a, w, b = ins
    y = np.subtract(a, a.mean(axis=-1, keepdims=True), out=out)
    var = np.mean(np.square(y), axis=-1, keepdims=True)
    var += consts["eps"]
    np.sqrt(var, out=var)
    y /= var
    y *= w
    y += b
    return y


@_plan.register_kernel("bn_affine", "compute")
def _k_bn_affine(out, ins, consts):
    y = np.multiply(ins[0], consts["scale"], out=out)
    y += consts["shift"]
    return y
