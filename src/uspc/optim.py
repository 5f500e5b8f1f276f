"""Parameter registry and Adam optimizer with bias correction.

The optimizer state packs the parameters: they, both moments and a gradient
block are four shared mappings of one layout.  Adam is elementwise, so it
runs over runs of consecutive parameters as flat arrays, and any range of
them can be updated by another process with the same bytes.
"""

from __future__ import annotations

import itertools
import math
import mmap
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, TrainingDiverged, UspcError


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


# values per slice of the flat Adam pass: its scratch and the block slices
# it meets stay in cache (4,096 and 65,536 were slower)
CHUNK = 16_384
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def shared_arrays(shapes: dict[str, tuple[int, ...]]
                  ) -> tuple[np.ndarray, dict[str, np.ndarray], dict[str, int]]:
    """One zeroed anonymous shared mapping as a flat float64 array, views of
    it of the given shapes, and each view's offset in it.  Each view starts
    on a 64-byte boundary, in the order of `shapes`, so the same shapes give
    the same layout.  A forked process keeps the mapping, so a write on
    either side is seen by the other."""
    offsets: dict[str, int] = {}
    end = 0
    for name, shape in shapes.items():
        offsets[name] = end
        end += -(-math.prod(shape) // 8) * 8
    block = np.frombuffer(mmap.mmap(-1, max(end, 1) * 8), dtype=np.float64)
    return block, {name: block[offsets[name]:offsets[name] + math.prod(shape)].reshape(shape)
                   for name, shape in shapes.items()}, offsets


@dataclass
class AdamState:
    """Per-parameter first/second moments plus the shared step counter.

    `p`, `m`, `v` and `g` (parameters, moments, gradients) view four flat
    `blocks` of one layout: a parameter's values sit at the same offsets
    `spans[name]` in each.  `cut` is the offset of the parameter boundary
    nearest half the values; a VC worker updates the parameters from there.
    """

    lr: float = 1e-3
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    g: dict[str, np.ndarray] = field(default_factory=dict)
    p: dict[str, np.ndarray] = field(default_factory=dict)
    blocks: tuple[np.ndarray, ...] = ()
    spans: dict[str, tuple[int, int]] = field(default_factory=dict)
    cut: int = 0

    @classmethod
    def for_params(cls, params: ParamStore, lr: float = 1e-3) -> "AdamState":
        """Zero moments for `params`, which move into the parameter block,
        bytes unchanged.  In-place writes (Adam, codebook seeding and
        reseeding) then reach a process forked afterwards; a parameter whose
        `data` is replaced instead is off the block, and `check_packed`
        raises."""
        shapes = {name: t.data.shape for name, t in params.items()}
        (flat_p, p, offsets), (flat_m, m, _), (flat_v, v, _), (flat_g, g, _) = (
            shared_arrays(shapes) for _ in range(4))
        for name, t in params.items():
            p[name][...] = t.data
            t.data = p[name]
        sizes = [math.prod(shape) for shape in shapes.values()]
        # the boundary before parameter k, k chosen so that the values
        # before it are nearest one half
        before = list(itertools.accumulate(sizes, initial=0))
        k = min(range(len(before)), key=lambda k: abs(2 * before[k] - before[-1]))
        return cls(lr=lr, m=m, v=v, g=g, p=p, blocks=(flat_p, flat_m, flat_v, flat_g),
                   cut=(list(offsets.values()) + [flat_p.size])[k],
                   spans={name: (offsets[name], offsets[name] + size)
                          for name, size in zip(shapes, sizes)})

    def check_packed(self, params: ParamStore) -> None:
        """Raise unless every parameter's data is still its view of the
        block, and its gradient, if set, its view of the gradient block."""
        for name, t in params.items():
            if t.data is not self.p.get(name):
                raise UspcError(f"parameter {name!r} is not in the optimizer's block: "
                                "write into its data in place instead of replacing it")
            if t.grad is not None and t.grad is not self.g[name]:
                raise UspcError(f"gradient of parameter {name!r} is not in the optimizer's block")

    def split(self, names: list[str]) -> tuple[list[str], list[str]]:
        """`names` before `cut` and from it on, each in the order given."""
        return ([name for name in names if self.spans[name][0] < self.cut],
                [name for name in names if self.spans[name][0] >= self.cut])


def sums_of_squares(grads: list[tuple[str, np.ndarray]]) -> tuple[list[float], str | None]:
    """Each named gradient's sum of squares, and the name of the first one
    holding an inf or NaN (None if none does).  Such a value makes the sum
    non-finite, so only those gradients are checked value by value; a sum
    that overflowed on finite values is no error."""
    sums, bad = [], None
    for name, g in grads:
        sums.append(float(np.add.reduce(g * g, axis=None)))
        if bad is None and not math.isfinite(sums[-1]) and not np.isfinite(g).all():
            bad = name
    return sums, bad


def clip_scale(norm: float, max_norm: float) -> float:
    """The factor `adam_step` scales the gradients by to clip their joint
    L2 norm `norm` to at most max_norm."""
    return max_norm / norm if norm > max_norm > 0 else 1.0


def clip_global_norm(params: ParamStore, rest) -> float:
    """The joint L2 norm of the gradients of a packed store: those of
    `params`, its first parameters with a gradient, and the others, whose
    `sums_of_squares` `rest()` returns, taken by the process that updates
    them.

    The norm adds each gradient's sum of squares in store order.  A
    gradient holding an inf or NaN raises TrainingDiverged naming the first
    such parameter.  Nothing is scaled here: `adam_step` multiplies each
    gradient by `clip_scale` of the norm on its pass.
    """
    sums, bad = sums_of_squares([(name, p.grad) for name, p in params.items()
                                 if p.grad is not None])
    more, more_bad = rest()
    bad = bad or more_bad
    if bad is not None:
        raise TrainingDiverged(f"non-finite gradient in parameter {bad!r}")
    total = 0.0
    for s in sums + more:
        total += s
    return float(np.sqrt(total))


def adam_step(params: ParamStore, state: AdamState, scale: float) -> None:
    """One Adam update in place: the step counter advances, then
    `adam_update` runs over the parameters with a gradient, each gradient
    times `scale`.  Each gradient must be its view of the state's gradient
    block, which `clip_global_norm` has checked for an inf or NaN.

    With zero gradient the moments stay zero and the update is exactly zero,
    so parameters never touched by a loss remain bitwise unchanged.  All or
    nothing: a gradient outside the block raises before any parameter,
    moment or the step counter changes.
    """
    if state.lr < 0:
        raise ConfigError(f"learning rate must be >= 0, got {state.lr}")
    state.check_packed(params)
    state.t += 1
    adam_update(state, [name for name, p in params.items() if p.grad is not None], scale)


def adam_update(state: AdamState, names: list[str], scale: float) -> None:
    """Adam, step `state.t`, over the parameters `names` (in store order)
    from their gradients in the block times `scale`.

    Consecutive parameters form one run of the flat blocks (only zero
    padding lies between them, and it stays zero), cut into CHUNK-value
    slices.  Each slice does the arithmetic of
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2,
    p -= lr (m / bc1) / (sqrt(v / bc2) + eps), in that order, with `out=`
    into two scratch slices.
    """
    runs: list[list[int]] = []
    for name in names:
        lo, hi = state.spans[name]
        if runs and 0 <= lo - runs[-1][1] < 8:
            runs[-1][1] = hi
        else:
            runs.append([lo, hi])
    b1, b2, lr = BETA1, BETA2, state.lr
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    scratch = np.empty(CHUNK), np.empty(CHUNK)
    flat_p, flat_m, flat_v, flat_g = state.blocks
    for lo, hi in runs:
        for i in range(lo, hi, CHUNK):
            j = min(i + CHUNK, hi)
            g, m, v = flat_g[i:j], flat_m[i:j], flat_v[i:j]
            a, b = scratch[0][:j - i], scratch[1][:j - i]
            if scale != 1.0:
                g *= scale
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=a)
            v *= b2
            np.multiply(g, g, out=a)
            a *= 1.0 - b2
            v += a
            if lr != 0.0:
                np.divide(m, bc1, out=a)
                a *= lr
                np.divide(v, bc2, out=b)
                np.sqrt(b, out=b)
                b += EPS
                a /= b
                flat_p[i:j] -= a
