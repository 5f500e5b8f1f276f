"""Parameter registry and Adam optimizer with bias correction."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, TrainingDiverged


class ParamStore(dict):
    """Named learnable tensors.  Keys are dotted parameter paths."""

    def param(self, name: str, init: np.ndarray) -> Tensor:
        if name in self:
            raise ConfigError(f"duplicate parameter name {name!r}")
        t = Tensor(init, requires_grad=True, name=name)
        self[name] = t
        return t

    def zero_grad(self) -> None:
        for t in self.values():
            t.grad = None


@dataclass
class AdamState:
    """Per-parameter first/second moments plus the shared step counter."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: ParamStore, lr: float = 1e-3, **kw) -> "AdamState":
        state = cls(lr=lr, **kw)
        for name, p in params.items():
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        return state


def adam_step(params: ParamStore, state: AdamState) -> None:
    """One Adam update in place.  Parameters without a gradient are skipped.

    With zero gradient the moments stay zero and the update is exactly zero,
    so parameters never touched by a loss remain bitwise unchanged.  All or
    nothing: a non-finite gradient raises before any parameter, moment or the
    step counter changes.
    """
    if state.lr < 0:
        raise ConfigError(f"learning rate must be >= 0, got {state.lr}")
    grads = [(name, p, p.grad) for name, p in params.items() if p.grad is not None]
    for name, _, g in grads:
        if not np.all(np.isfinite(g)):
            raise TrainingDiverged(f"non-finite gradient in parameter {name!r}")
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for name, p, g in grads:
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        if state.lr != 0.0:
            p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


def global_grad_norm(params: ParamStore) -> float:
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    return float(np.sqrt(total))


def clip_global_norm(params: ParamStore, max_norm: float) -> float:
    """Scale all grads so their joint L2 norm is at most max_norm."""
    norm = global_grad_norm(params)
    if norm > max_norm > 0:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm
