"""Parameter registry and Adam optimizer with bias correction."""

from __future__ import annotations

import math
import mmap
from contextlib import contextmanager
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

    @contextmanager
    def frozen(self):
        """Parameters act as constants inside the block: a forward pass
        builds no graph, so each array it makes is freed once nothing reads
        it, not when the whole graph is dropped.  Values are unchanged."""
        for t in self.values():
            t.requires_grad = False
        try:
            yield
        finally:
            for t in self.values():
                t.requires_grad = True

    def share(self) -> None:
        """Move every parameter into one anonymous shared mapping, bytes
        unchanged.  In-place updates (Adam, codebook seeding and reseeding)
        then reach a process forked afterwards, which maps the same memory."""
        views = shared_arrays({name: t.data.shape for name, t in self.items()})
        for name, t in self.items():
            views[name][...] = t.data
            t.data = views[name]


def shared_arrays(shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Zeroed float64 arrays of the given shapes, all views of one anonymous
    shared mapping, each starting on a 64-byte boundary.  A forked process
    keeps the mapping, so a write on either side is seen by the other."""
    offsets: dict[str, int] = {}
    end = 0
    for name, shape in shapes.items():
        offsets[name] = end
        end += -(-math.prod(shape) // 8) * 8
    block = np.frombuffer(mmap.mmap(-1, max(end, 1) * 8), dtype=np.float64)
    return {name: block[offsets[name]:offsets[name] + math.prod(shape)].reshape(shape)
            for name, shape in shapes.items()}


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

    Moments and parameters are updated with `out=` into two scratch arrays
    the size of the largest gradient; the arithmetic is that of
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2,
    p -= lr (m / bc1) / (sqrt(v / bc2) + eps), in that order.
    """
    if state.lr < 0:
        raise ConfigError(f"learning rate must be >= 0, got {state.lr}")
    grads = [(name, p, p.grad) for name, p in params.items() if p.grad is not None]
    for name, _, g in grads:
        if not np.isfinite(g).all():
            raise TrainingDiverged(f"non-finite gradient in parameter {name!r}")
    state.t += 1
    if not grads:
        return
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    size = max(np.size(g) for _, _, g in grads)
    scratch = np.empty(size), np.empty(size)
    for name, p, g in grads:
        m = state.m[name]
        v = state.v[name]
        # views, so 0-d parameters get 0-d arrays (never numpy scalars) for out=
        a, b = (buf[:m.size].reshape(m.shape) for buf in scratch)
        m *= state.beta1
        m += np.multiply(g, 1.0 - state.beta1, out=a)
        v *= state.beta2
        np.multiply(g, g, out=a)
        a *= 1.0 - state.beta2
        v += a
        if state.lr != 0.0:
            np.divide(m, bc1, out=a)
            a *= state.lr
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += state.eps
            a /= b
            p.data -= a


def global_grad_norm(params: ParamStore) -> float:
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float(np.add.reduce(p.grad * p.grad, axis=None))
    return float(np.sqrt(total))


def clip_global_norm(params: ParamStore, max_norm: float) -> float:
    """Scale all grads so their joint L2 norm is at most max_norm.

    Scales in place; an array that several parameters share as their
    gradient is scaled once.
    """
    norm = global_grad_norm(params)
    if norm > max_norm > 0:
        scale = max_norm / norm
        scaled: set[int] = set()
        for p in params.values():
            if p.grad is not None and id(p.grad) not in scaled:
                p.grad *= scale
                scaled.add(id(p.grad))
    return norm
