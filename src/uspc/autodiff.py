"""Minimal reverse-mode autodiff over float64 numpy arrays.

Design notes:
  * A Tensor wraps one ndarray.  Ops build an implicit DAG through parent
    references plus a closure that maps the output gradient to parent
    gradient contributions.  Nodes whose inputs do not require grad carry
    no closure, so eval-mode forwards allocate no graph at all.
  * Everything is float64.  The model is desk-scale; precision is cheaper
    than debugging 32-bit gradient noise.
  * Hot-path layers (conv1d, layer_norm, attention, cross-entropy) are
    fused single nodes with hand-written backward rules to keep the node
    count per training step low.
  * A batch is packed: its sequences are concatenated along the row axis
    and `offsets` (B+1 row bounds) marks the segments.  Row-wise ops need
    no layout; the ops that mix rows (conv1d, attention_core, dropout,
    segment_mean) and the losses take `offsets` and keep every segment to
    itself.  `offsets=None` is one segment spanning all rows.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, GraphError, ShapeError

Array = np.ndarray


class Tensor:
    """Dense float64 array with optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[Array], None] | None = None
        self.name = name

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Same values, cut off from the graph (stop-gradient)."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: Array) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            self.grad = self.grad + g

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag}, requires_grad={self.requires_grad})"

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return add(self, neg(_as_tensor(other)))

    def __rsub__(self, other):
        return add(_as_tensor(other), neg(self))

    def __neg__(self):
        return neg(self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self):
        return sum_all(self)

    def mean(self):
        return mean_all(self)

    def backward(self) -> None:
        backward(self)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make_node(data: Array, parents: Sequence[Tensor],
               backward_fn: Callable[[Array], None]) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def segment_bounds(offsets: np.ndarray | None, n_rows: int) -> np.ndarray:
    """Row bounds of the segments: `offsets` itself, or [0, n_rows]."""
    if offsets is None:
        return np.array([0, n_rows], dtype=np.intp)
    offsets = np.asarray(offsets, dtype=np.intp)
    if offsets.ndim != 1 or offsets.size < 2 or offsets[0] != 0 or offsets[-1] != n_rows \
            or np.any(np.diff(offsets) < 0):
        raise ShapeError(f"segment offsets {offsets.tolist()} do not split {n_rows} rows")
    return offsets


def _spans(offsets: np.ndarray | None, n_rows: int) -> list[tuple[int, int]]:
    """(first, end) rows of each segment."""
    if offsets is None:
        return [(0, n_rows)]
    bounds = segment_bounds(offsets, n_rows)
    return list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))


def _join(pieces: list[Array]) -> Array:
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def _scalars_per_row(values, spans: list[tuple[int, int]], ndim: int) -> Array:
    """One scalar per segment, repeated onto its rows, shaped to broadcast
    against an array with `ndim` dims."""
    return np.repeat(np.asarray(values, dtype=np.float64),
                     [hi - lo for lo, hi in spans]).reshape((-1,) + (1,) * (ndim - 1))


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Reduce a gradient back to the shape it was broadcast from."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- elementwise / structural ops ---------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward_fn(g: Array) -> None:
        a.accumulate_grad(_unbroadcast(g, a.data.shape))
        b.accumulate_grad(_unbroadcast(g, b.data.shape))

    return _make_node(data, (a, b), backward_fn)


def neg(a: Tensor) -> Tensor:
    def backward_fn(g: Array) -> None:
        a.accumulate_grad(-g)

    return _make_node(-a.data, (a,), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward_fn(g: Array) -> None:
        a.accumulate_grad(_unbroadcast(g * b.data, a.data.shape))
        b.accumulate_grad(_unbroadcast(g * a.data, b.data.shape))

    return _make_node(data, (a, b), backward_fn)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0

    def backward_fn(g: Array) -> None:
        a.accumulate_grad(g * mask)

    return _make_node(a.data * mask, (a,), backward_fn)


def sum_all(a: Tensor) -> Tensor:
    def backward_fn(g: Array) -> None:
        a.accumulate_grad(np.broadcast_to(g, a.data.shape))

    return _make_node(np.asarray(a.data.sum()), (a,), backward_fn)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size

    def backward_fn(g: Array) -> None:
        a.accumulate_grad(np.broadcast_to(g / n, a.data.shape))

    return _make_node(np.asarray(a.data.mean()), (a,), backward_fn)


def segment_mean(a: Tensor, offsets: np.ndarray | None = None) -> Tensor:
    """Mean over each segment's rows: (T, d) -> (B, d).  Temporal pooling."""
    spans = _spans(offsets, a.data.shape[0])
    data = _join([a.data[lo:hi].mean(axis=0, keepdims=True) for lo, hi in spans])
    lengths = np.array([hi - lo for lo, hi in spans])

    def backward_fn(g: Array) -> None:
        a.accumulate_grad(np.repeat(g / lengths[:, None], lengths, axis=0))

    return _make_node(data, (a,), backward_fn)


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def backward_fn(g: Array) -> None:
        a.accumulate_grad(g.reshape(a.data.shape))

    return _make_node(data, (a,), backward_fn)


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """out[i] = a[idx[i]].  Backward scatter-adds into the source rows."""
    idx = np.asarray(idx, dtype=np.intp)
    data = a.data[idx]

    def backward_fn(g: Array) -> None:
        da = np.zeros_like(a.data)
        np.add.at(da, idx, g)
        a.accumulate_grad(da)

    return _make_node(data, (a,), backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.data.shape} x {b.data.shape}")
    data = a.data @ b.data

    def backward_fn(g: Array) -> None:
        a.accumulate_grad(g @ b.data.T)
        b.accumulate_grad(a.data.T @ g)

    return _make_node(data, (a, b), backward_fn)


# -- fused layers --------------------------------------------------------------


def conv1d(x: Tensor, kernel: Tensor, bias: Tensor | None = None,
           offsets: np.ndarray | None = None) -> Tensor:
    """Temporal convolution with zero same-padding.

    x: (T, Cin), kernel: (K, Cin, Cout) with K odd.  Output (T, Cout).  Each
    segment of `offsets` is zero-padded on its own, so no output row sees a
    neighbouring segment's rows.
    """
    k = kernel.data.shape[0]
    if k % 2 == 0:
        raise ConfigError(f"conv1d kernel size must be odd for same padding, got {k}")
    if x.data.ndim != 2 or kernel.data.ndim != 3 or x.data.shape[1] != kernel.data.shape[1]:
        raise ShapeError(f"conv1d shapes incompatible: x={x.data.shape} kernel={kernel.data.shape}")
    t, cin = x.data.shape
    cout = kernel.data.shape[2]
    pad = k // 2
    spans = _spans(offsets, t)
    # in xp, segment b starts after 2*pad*b + pad zero rows, so each segment
    # has its own padding; the 2*pad windows straddling a boundary are
    # computed and dropped.  Window i of `full` is centred on xp row i + pad.
    span = t + 2 * pad * (len(spans) - 1)
    windows = [(lo, hi, lo + 2 * pad * b) for b, (lo, hi) in enumerate(spans)]
    xp = np.zeros((span + 2 * pad, cin))
    for lo, hi, w in windows:
        xp[w + pad:w + pad + hi - lo] = x.data[lo:hi]
    full = np.zeros((span, cout))
    for j in range(k):
        full += xp[j:j + span] @ kernel.data[j]
    data = _join([full[w:w + hi - lo] for lo, hi, w in windows])
    if bias is not None:
        data += bias.data

    parents = (x, kernel) if bias is None else (x, kernel, bias)

    def backward_fn(g: Array) -> None:
        g_full = np.zeros((span, cout))
        for lo, hi, w in windows:
            g_full[w:w + hi - lo] = g[lo:hi]
        dk = np.empty_like(kernel.data)
        dxp = np.zeros_like(xp)
        for j in range(k):
            dk[j] = xp[j:j + span].T @ g_full
            dxp[j:j + span] += g_full @ kernel.data[j].T
        x.accumulate_grad(_join([dxp[w + pad:w + pad + hi - lo] for lo, hi, w in windows]))
        kernel.accumulate_grad(dk)
        if bias is not None:
            bias.accumulate_grad(g.sum(axis=0))

    return _make_node(data, parents, backward_fn)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Per-row normalization over the last axis, then affine gain/bias."""
    if eps <= 0:
        raise ConfigError(f"layer_norm eps must be > 0, got {eps}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    data = xhat * gain.data + bias.data

    def backward_fn(g: Array) -> None:
        gain.accumulate_grad(_unbroadcast(g * xhat, gain.data.shape))
        bias.accumulate_grad(_unbroadcast(g, bias.data.shape))
        gx = g * gain.data
        m1 = gx.mean(axis=-1, keepdims=True)
        m2 = (gx * xhat).mean(axis=-1, keepdims=True)
        x.accumulate_grad(inv * (gx - m1 - xhat * m2))

    return _make_node(data, (x, gain, bias), backward_fn)


def normalize_rows(x: Tensor, eps: float = 1e-6) -> Tensor:
    """layer_norm without learned affine (used under style-conditioned norms)."""
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv

    def backward_fn(g: Array) -> None:
        m1 = g.mean(axis=-1, keepdims=True)
        m2 = (g * xhat).mean(axis=-1, keepdims=True)
        x.accumulate_grad(inv * (g - m1 - xhat * m2))

    return _make_node(xhat, (x,), backward_fn)


def softmax_rows(x: Tensor) -> Tensor:
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)

    def backward_fn(g: Array) -> None:
        inner = (g * p).sum(axis=-1, keepdims=True)
        x.accumulate_grad(p * (g - inner))

    return _make_node(p, (x,), backward_fn)


def attention_core(q: Tensor, k: Tensor, v: Tensor, n_heads: int,
                   offsets: np.ndarray | None = None) -> Tensor:
    """Scaled dot-product attention over already-projected q/k/v (T, d).

    Rows attend only within their own segment of `offsets`.
    """
    t, d = q.data.shape
    if d % n_heads != 0:
        raise ConfigError(f"model dim {d} not divisible by {n_heads} heads")
    dh = d // n_heads
    scale = 1.0 / np.sqrt(dh)
    blocks = [(slice(lo, hi), slice(h * dh, (h + 1) * dh))
              for lo, hi in _spans(offsets, t) for h in range(n_heads)]
    probs = []
    out = np.empty((t, d))
    for seg, sl in blocks:
        s = (q.data[seg, sl] @ k.data[seg, sl].T) * scale
        s -= s.max(axis=-1, keepdims=True)
        e = np.exp(s)
        p = e / e.sum(axis=-1, keepdims=True)
        probs.append(p)
        out[seg, sl] = p @ v.data[seg, sl]

    def backward_fn(g: Array) -> None:
        dq = np.empty_like(q.data)
        dk = np.empty_like(k.data)
        dv = np.empty_like(v.data)
        for (seg, sl), p in zip(blocks, probs):
            gh = g[seg, sl]
            dv[seg, sl] = p.T @ gh
            dp = gh @ v.data[seg, sl].T
            ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
            dq[seg, sl] = (ds @ k.data[seg, sl]) * scale
            dk[seg, sl] = (ds.T @ q.data[seg, sl]) * scale
        q.accumulate_grad(dq)
        k.accumulate_grad(dk)
        v.accumulate_grad(dv)

    return _make_node(out, (q, k, v), backward_fn)


def _mean_of_segments(means: list) -> Array:
    """Mean of per-segment means, summed in segment order."""
    return np.asarray(sum(means) * (1.0 / len(means)))


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray,
                          offsets: np.ndarray | None = None) -> Tensor:
    """-log softmax(logits)[target], max-stabilized: the mean over rows of
    each segment, then the mean over segments (every segment weighs the
    same whatever its length)."""
    targets = np.asarray(targets, dtype=np.intp)
    t, n_classes = logits.data.shape
    if targets.shape != (t,):
        raise ShapeError(f"targets shape {targets.shape} does not match {t} rows")
    if targets.size and (targets.min() < 0 or targets.max() >= n_classes):
        bad = targets[(targets < 0) | (targets >= n_classes)][0]
        raise IndexError(f"target class {bad} outside [0, {n_classes})")
    spans = _spans(offsets, t)
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    nll = lse - z[np.arange(t), targets]
    data = _mean_of_segments([nll[lo:hi].mean() for lo, hi in spans])

    def backward_fn(g: Array) -> None:
        p = np.exp(z - lse[:, None])
        p[np.arange(t), targets] -= 1.0
        g_seg = g * (1.0 / len(spans))
        scales = [g_seg / (hi - lo) for lo, hi in spans]
        logits.accumulate_grad(p * _scalars_per_row(scales, spans, 2))

    return _make_node(data, (logits,), backward_fn)


def mse(a: Tensor, b: Tensor, offsets: np.ndarray | None = None) -> Tensor:
    """Mean squared difference; with `offsets`, the mean over segments of
    each segment's own mean, so every segment weighs the same."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mse shape mismatch: {a.data.shape} vs {b.data.shape}")
    diff = a.data - b.data
    spans = None if offsets is None else _spans(offsets, diff.shape[0])
    parts = [diff] if spans is None else [diff[lo:hi] for lo, hi in spans]
    sizes = [max(part.size, 1) for part in parts]
    data = _mean_of_segments([(part * part).sum() / n for part, n in zip(parts, sizes)])

    def backward_fn(g: Array) -> None:
        g_seg = g * (1.0 / len(parts))
        scales = [2.0 * g_seg / n for n in sizes]
        d = diff * (scales[0] if spans is None else _scalars_per_row(scales, spans, diff.ndim))
        a.accumulate_grad(d)
        b.accumulate_grad(-d)

    return _make_node(data, (a, b), backward_fn)


def dropout(x: Tensor, rate: float, rngs, training: bool,
            offsets: np.ndarray | None = None) -> Tensor:
    """Zero elements with probability `rate`, scaling survivors by 1/(1-rate).

    `rngs` holds one generator per segment of `offsets`, and each segment's
    mask is that segment's draw alone.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    spans = _spans(offsets, x.data.shape[0])
    if len(rngs) != len(spans):
        raise ConfigError(f"dropout needs one rng stream per segment: "
                          f"{len(rngs)} streams for {len(spans)} segments")
    draws = _join([gen.random((hi - lo,) + x.data.shape[1:])
                   for gen, (lo, hi) in zip(rngs, spans)])
    keep = draws >= rate
    scale = 1.0 / (1.0 - rate)
    data = x.data * keep * scale

    def backward_fn(g: Array) -> None:
        x.accumulate_grad(g * keep * scale)

    return _make_node(data, (x,), backward_fn)


def straight_through(c: Tensor, quantized_values: np.ndarray) -> Tensor:
    """Forward: the quantized values exactly.  Backward: identity into `c`.

    Equivalent to c + (values - c) with the bracket treated as constant, so
    the upstream gradient reaches the continuous input unchanged and nothing
    flows into the codebook through this path.
    """
    if c.data.shape != quantized_values.shape:
        raise ShapeError(
            f"straight_through shapes differ: {c.data.shape} vs {quantized_values.shape}")
    data = np.array(quantized_values, dtype=np.float64, copy=True)

    def backward_fn(g: Array) -> None:
        c.accumulate_grad(g)

    return _make_node(data, (c,), backward_fn)


# -- graph traversal -----------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Reverse-topological gradient accumulation from a scalar loss.

    Grads accumulate; call zero_grad on leaves between backward passes if
    accumulation is not wanted.
    """
    if loss.data.shape not in ((), (1,)):
        raise GraphError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited and p._backward is not None:
                stack.append((p, False))
    loss.accumulate_grad(np.ones_like(loss.data))
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad if node.grad.shape == node.data.shape
                           else node.grad.reshape(node.data.shape))


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Denominator is max(|analytic|, |numeric|, 1e-8) per coordinate.  Only
    meaningful for deterministic f with dropout disabled; graphs that contain
    a straight-through quantization step are exempt by contract (the
    estimator is not the true derivative there).
    """
    probe = Tensor(x.data.copy(), requires_grad=True)
    out = f(probe)
    backward(out)
    analytic = probe.grad if probe.grad is not None else np.zeros_like(probe.data)

    flat = x.data.reshape(-1).copy()
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += h
        f_plus = float(f(Tensor(bumped.reshape(x.data.shape))).data)
        bumped[i] -= 2 * h
        f_minus = float(f(Tensor(bumped.reshape(x.data.shape))).data)
        numeric[i] = (f_plus - f_minus) / (2 * h)
    numeric = numeric.reshape(x.data.shape)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))
