"""Minimal reverse-mode autodiff over float64 numpy arrays.

Design notes:
  * A Tensor wraps one ndarray.  Ops build an implicit DAG through parent
    references plus a closure that maps the output gradient to parent
    gradient contributions.  A node gets a closure only when one of its
    inputs requires grad.  Parameters always do, so an eval-mode forward
    still builds a closure wherever a parameter enters (the decoder alone
    builds 28 in one `synth_tts` call); it just never runs them.
  * Constants (tensors that do not require grad) never take a gradient:
    backward rules skip the work for such inputs, GEMMs included, and
    their `.grad` stays None.
  * A gradient a backward rule computes afresh is owned by the tensor that
    receives it: the first one is stored without a copy.  A gradient that
    is (a view of) the upstream gradient is copied first.  Stored
    gradients are never changed in place during backward.
  * Everything is float64.  The model is desk-scale; precision is cheaper
    than debugging 32-bit gradient noise.
  * Hot-path layers (linear, conv1d, layer_norm, attention, cross-entropy)
    are fused single nodes with hand-written backward rules to keep the
    node count per training step low.  Their kernels do the floating-point
    operations of the plain per-segment, per-head, per-tap formulation in
    the same order, so results do not depend on how a batch is packed.
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
        """Add `g` to the gradient; a constant takes none.  The first
        gradient is stored as a copy: `g` may be a view its caller keeps."""
        if not self.requires_grad:
            return
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
            or (offsets[1:] < offsets[:-1]).any():
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


def _own(t: Tensor, g: Array) -> None:
    """accumulate_grad for a gradient computed afresh that nothing else
    holds: the first one is stored as is."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g
    else:
        t.grad = t.grad + g


def _accumulate_unbroadcast(t: Tensor, g: Array) -> None:
    """`g` reduced to `t`'s shape; owned when the reduction made it anew."""
    r = _unbroadcast(g, t.data.shape)
    if r is g:
        t.accumulate_grad(g)
    else:
        _own(t, r)


# -- elementwise / structural ops ---------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward_fn(g: Array) -> None:
        _accumulate_unbroadcast(a, g)
        _accumulate_unbroadcast(b, g)

    return _make_node(data, (a, b), backward_fn)


def neg(a: Tensor) -> Tensor:
    def backward_fn(g: Array) -> None:
        _own(a, -g)

    return _make_node(-a.data, (a,), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward_fn(g: Array) -> None:
        if a.requires_grad:
            _own(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _own(b, _unbroadcast(g * a.data, b.data.shape))

    return _make_node(data, (a, b), backward_fn)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0

    def backward_fn(g: Array) -> None:
        _own(a, g * mask)

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
        _own(a, np.repeat(g / lengths[:, None], lengths, axis=0))

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
        _own(a, da)

    return _make_node(data, (a,), backward_fn)


def run_sums(g: Array, counts: np.ndarray) -> Array:
    """Sum of each run of consecutive rows of `g`, run i holding counts[i]
    rows: bitwise what np.add.at gives for the index repeat(arange, counts),
    a sum in row order from +0.0.

    The runs are laid out side by side in a zero-padded (longest run,
    runs + 1, ...) block that numpy sums along its first axis, from +0.0
    and row by row; the padding adds +0.0 to finished sums.  The one spare
    all-zero run keeps the block's rows at least two wide: numpy sums a
    one-wide block pairwise.
    """
    counts = np.asarray(counts, dtype=np.intp)
    n = counts.size
    run = np.repeat(np.arange(n), counts)
    pos = np.arange(run.size) - np.repeat(np.cumsum(counts) - counts, counts)
    block = np.zeros((int(counts.max(initial=0)), n + 1) + g.shape[1:])
    block[pos, run] = g
    return np.add.reduce(block, axis=0)[:n]


def repeat_rows(a: Tensor, counts: np.ndarray) -> Tensor:
    """Row i of `a` repeated counts[i] times, in order: gather_rows with
    the index repeat(arange, counts), whose np.add.at backward `run_sums`
    reproduces bitwise."""
    counts = np.asarray(counts, dtype=np.intp)
    if counts.shape != a.data.shape[:1]:
        raise ShapeError(f"repeat_rows needs one count per row: {counts.size} counts "
                         f"for {a.data.shape[:1]} rows")
    data = np.repeat(a.data, counts, axis=0)

    def backward_fn(g: Array) -> None:
        _own(a, run_sums(g, counts))

    return _make_node(data, (a,), backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.data.shape} x {b.data.shape}")
    data = a.data @ b.data

    def backward_fn(g: Array) -> None:
        if a.requires_grad:
            _own(a, g @ b.data.T)
        if b.requires_grad:
            _own(b, a.data.T @ g)

    return _make_node(data, (a, b), backward_fn)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w + b as one node: (T, d_in) @ (d_in, d_out) + (d_out,)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"linear shapes incompatible: x={x.data.shape} w={w.data.shape}")
    data = x.data @ w.data
    if b is not None:
        data += b.data

    def backward_fn(g: Array) -> None:
        if b is not None and b.requires_grad:
            _own(b, g.sum(axis=0))
        if x.requires_grad:
            _own(x, g @ w.data.T)
        if w.requires_grad:
            _own(w, x.data.T @ g)

    return _make_node(data, (x, w) if b is None else (x, w, b), backward_fn)


# -- fused layers --------------------------------------------------------------


def _crossing_rows(bounds: np.ndarray, shift: int) -> Array | None:
    """Rows q of a (T, .) tap product that output row q - shift must not
    read, q - shift lying in another segment: the first `shift` rows of
    each segment for shift > 0, the last -shift rows for shift < 0.  The
    first (shift > 0) or last (shift < 0) segment is left out, as no output
    row reads its edge rows at this shift; so one segment has none (None)."""
    if bounds.size <= 2 or shift == 0:
        return None
    lo, hi = (bounds[1:-1], bounds[2:]) if shift > 0 else (bounds[:-2], bounds[1:-1])
    n = hi - lo
    return np.concatenate([lo[n > i] + i if shift > 0 else hi[n > i] - 1 - i
                           for i in range(abs(shift))])


def _add_shifted(acc: Array, product: Array, shift: int, crossing: Array | None) -> None:
    """acc[r] += product[r + shift] for every row r whose row r + shift lies
    in r's own segment.  The `crossing` rows of `product` are zeroed first,
    so every row in the shifted range gains a term, +0.0 where it would
    read another segment."""
    n = acc.shape[0] - abs(shift)
    if n <= 0:
        return
    if crossing is not None:
        product[crossing] = 0.0
    src, dst = max(shift, 0), max(-shift, 0)
    acc[dst:dst + n] += product[src:src + n]


def conv1d(x: Tensor, kernel: Tensor, bias: Tensor | None = None,
           offsets: np.ndarray | None = None) -> Tensor:
    """Temporal convolution with zero same-padding.

    x: (T, Cin), kernel: (K, Cin, Cout) with K odd.  Output (T, Cout).  Each
    segment of `offsets` is zero-padded on its own, so no output row sees a
    neighbouring segment's rows.

    The output is K per-tap GEMMs on the unpadded rows, shifted and summed
    from zero in tap order; a tap row that would cross a segment boundary
    is zeroed, standing in for the padding row of the per-segment
    formulation.  The backward pass runs on the padded layout, where each
    segment sits behind its own 2 * pad zero rows: the kernel gradient sums
    over rows, which fixes its summation order, and a GEMM with a
    transposed operand rounds some rows differently at different row
    counts (OpenBLAS), so its row count is kept.
    """
    k = kernel.data.shape[0]
    if k % 2 == 0:
        raise ConfigError(f"conv1d kernel size must be odd for same padding, got {k}")
    if x.data.ndim != 2 or kernel.data.ndim != 3 or x.data.shape[1] != kernel.data.shape[1]:
        raise ShapeError(f"conv1d shapes incompatible: x={x.data.shape} kernel={kernel.data.shape}")
    t, cin = x.data.shape
    cout = kernel.data.shape[2]
    pad = k // 2
    bounds = segment_bounds(offsets, t)
    data = np.zeros((t, cout))
    product = np.empty((t, cout))
    for j in range(k):
        _add_shifted(data, np.matmul(x.data, kernel.data[j], out=product), j - pad,
                     _crossing_rows(bounds, j - pad))
    if bias is not None:
        data += bias.data

    parents = (x, kernel) if bias is None else (x, kernel, bias)

    def backward_fn(g: Array) -> None:
        if bias is not None and bias.requires_grad:
            _own(bias, g.sum(axis=0))
        if not (kernel.requires_grad or x.requires_grad):
            return
        n_seg = bounds.size - 1
        span = t + 2 * pad * (n_seg - 1)
        # segment b's rows start at row lo + 2 * pad * b of gp, pad rows on in xp
        windows = [(lo, hi, lo + 2 * pad * b)
                   for b, (lo, hi) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist()))]
        gp = np.zeros((span, cout))
        for lo, hi, w in windows:
            gp[w:w + hi - lo] = g[lo:hi]
        if kernel.requires_grad:
            xp = np.zeros((span + 2 * pad, cin))
            for lo, hi, w in windows:
                xp[w + pad:w + pad + hi - lo] = x.data[lo:hi]
            dk = np.empty_like(kernel.data)
            for j in range(k):
                np.matmul(xp[j:j + span].T, gp, out=dk[j])
            _own(kernel, dk)
        if x.requires_grad:
            dxp = np.zeros((span + 2 * pad, cin))
            product = np.empty((span, cin))
            for j in range(k):
                dxp[j:j + span] += np.matmul(gp, kernel.data[j].T, out=product)
            _own(x, _join([dxp[w + pad:w + pad + hi - lo] for lo, hi, w in windows]))

    return _make_node(data, parents, backward_fn)


def _row_stats(x: Array, eps: float) -> tuple[Array, Array]:
    """(x - mean) and 1 / sqrt(var + eps) per row over the last axis, by
    the operations of x.mean and (xc * xc).mean: add.reduce, then / n."""
    d = x.shape[-1]
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    sq = xc * xc
    var = np.add.reduce(sq, axis=-1, keepdims=True) / d
    var += eps
    np.sqrt(var, out=var)
    return xc, np.divide(1.0, var, out=var)


def _row_norm_grad(gx: Array, xhat: Array, inv: Array) -> Array:
    """inv * (gx - mean(gx) - xhat * mean(gx * xhat)) per row."""
    d = gx.shape[-1]
    tmp = gx * xhat
    m2 = np.add.reduce(tmp, axis=-1, keepdims=True) / d
    out = gx - np.add.reduce(gx, axis=-1, keepdims=True) / d
    out -= np.multiply(xhat, m2, out=tmp)
    out *= inv
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Per-row normalization over the last axis, then affine gain/bias."""
    if eps <= 0:
        raise ConfigError(f"layer_norm eps must be > 0, got {eps}")
    xhat, inv = _row_stats(x.data, eps)
    xhat *= inv
    data = xhat * gain.data
    data += bias.data

    def backward_fn(g: Array) -> None:
        if gain.requires_grad:
            _own(gain, _unbroadcast(g * xhat, gain.data.shape))
        _accumulate_unbroadcast(bias, g)
        if x.requires_grad:
            _own(x, _row_norm_grad(g * gain.data, xhat, inv))

    return _make_node(data, (x, gain, bias), backward_fn)


def attention_core(q: Tensor, k: Tensor, v: Tensor, n_heads: int,
                   offsets: np.ndarray | None = None) -> Tensor:
    """Scaled dot-product attention over already-projected q/k/v (T, d).

    Rows attend only within their own segment of `offsets`.  Each segment's
    heads go through one batched matmul over (H, rows, d/H) views, which
    makes for every head the GEMM call a per-head loop makes.
    """
    t, d = q.data.shape
    if d % n_heads != 0:
        raise ConfigError(f"model dim {d} not divisible by {n_heads} heads")
    dh = d // n_heads
    scale = 1.0 / np.sqrt(dh)
    spans = _spans(offsets, t)

    def heads(a: Array) -> Array:
        """(T, d) -> (H, T, d/H); a view of `a` when it is C-contiguous."""
        return a.reshape(t, n_heads, dh).transpose(1, 0, 2)

    qh, kh, vh = heads(q.data), heads(k.data), heads(v.data)
    out = np.empty((t, d))
    outh = heads(out)
    probs = []
    for lo, hi in spans:
        p = np.matmul(qh[:, lo:hi], kh[:, lo:hi].transpose(0, 2, 1))
        p *= scale
        p -= np.maximum.reduce(p, axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= np.add.reduce(p, axis=-1, keepdims=True)
        probs.append(p)
        np.matmul(p, vh[:, lo:hi], out=outh[:, lo:hi])

    def backward_fn(g: Array) -> None:
        gh = heads(g)
        dq, dk, dv = (np.empty((t, d)) if x.requires_grad else None for x in (q, k, v))
        for (lo, hi), p in zip(spans, probs):
            g_s = gh[:, lo:hi]
            if dv is not None:
                np.matmul(p.transpose(0, 2, 1), g_s, out=heads(dv)[:, lo:hi])
            if dq is None and dk is None:
                continue
            ds = np.matmul(g_s, vh[:, lo:hi].transpose(0, 2, 1))
            ds -= np.add.reduce(ds * p, axis=-1, keepdims=True)
            ds *= p
            if dq is not None:
                np.matmul(ds, kh[:, lo:hi], out=heads(dq)[:, lo:hi])
            if dk is not None:
                np.matmul(ds.transpose(0, 2, 1), qh[:, lo:hi], out=heads(dk)[:, lo:hi])
        # each head's (ds @ k) * scale and (ds.T @ q) * scale, scaled in one pass
        for grad in (dq, dk):
            if grad is not None:
                grad *= scale
        for x, grad in ((q, dq), (k, dk), (v, dv)):
            if grad is not None:
                _own(x, grad)

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
        _own(logits, p * _scalars_per_row(scales, spans, 2))

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
        if b.requires_grad:
            _own(b, -d)
        _own(a, d)

    return _make_node(data, (a, b), backward_fn)


def dropout(x: Tensor, rate: float, rngs, training: bool,
            offsets: np.ndarray | None = None) -> Tensor:
    """Zero elements with probability `rate`, scaling survivors by 1/(1-rate).

    `rngs` yields one generator per segment of `offsets`, in segment order,
    and each segment's mask is that segment's draw alone.  A segment draws
    as soon as its generator is yielded, so `rngs` may hand out a stream's
    generator again for a later segment (the same utterance twice in one
    batch) after resetting it.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    spans = _spans(offsets, x.data.shape[0])
    mask = np.empty(x.data.shape)
    streams = iter(rngs)
    for b, (lo, hi) in enumerate(spans):
        gen = next(streams, None)
        if gen is None:
            raise ConfigError(f"dropout needs one rng stream per segment: "
                              f"{b} streams for {len(spans)} segments")
        gen.random(out=mask[lo:hi])
    if next(streams, None) is not None:
        raise ConfigError(f"dropout needs one rng stream per segment: "
                          f"more streams than its {len(spans)} segments")
    # keep * scale: x * (keep * scale) is bitwise (x * keep) * scale
    np.greater_equal(mask, rate, out=mask)
    mask *= 1.0 / (1.0 - rate)
    data = x.data * mask

    def backward_fn(g: Array) -> None:
        _own(x, g * mask)

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
