"""Minimal reverse-mode autodiff over float64 numpy arrays.

Design notes:
  * A Tensor wraps one ndarray.  Ops build an implicit DAG through parent
    references plus a closure that maps the output gradient to parent
    gradient contributions.  A node gets a closure only when one of its
    inputs requires grad.  Parameters always do, so an eval-mode forward
    still builds a closure wherever a parameter enters (the decoder alone
    builds 25 in one desk-size `synth_tts` call); it just never runs them.
  * Constants (tensors that do not require grad) never take a gradient:
    backward rules skip the work for such inputs, GEMMs included, and
    their `.grad` stays None.
  * A rule hands each parent its gradient through `accumulate_grad`,
    which reduces it to the parent's shape and stores it as given: the
    upstream gradient itself (or a view of it) is shared, never copied.
    Backward makes each upstream gradient read-only before its rule runs,
    so a rule that wrote into one would raise ValueError; gradients are
    only ever replaced by a sum, except in a parameter's `home`: an array
    its caller owns (the optimizer's gradient block) that takes the first
    gradient of a pass as a copy and adds later ones in place.
  * A graph is single-use, and a freed value is `.data = None`.  Once a
    node's rule has run, backward frees its values and gradient and swaps
    its closure, with every array it saved (normalized rows, attention
    probabilities, masks), for one that raises GraphError, also where the
    caller holds the node: read or `detach()` values before backward.  The
    spent node keeps its shape and its parents that take gradients, so the
    graph stays walkable.  Leaves have no closure: they keep their values
    and their gradients, which accumulate over backward calls.
  * A forward pass may free a node's values before backward: once every
    consumer of the node is built, `release` sets its `.data` to None.
    Where the op that made the node left a recipe on its closure (a layer
    norm's output from its normalized rows, an attention mix from its
    probabilities and values), backward remakes the values with the
    forward's arithmetic just before the first consumer's rule runs, so a
    linear or conv1d rule that reads its input gets the same bytes; they
    go again when the walk reaches the node's own rule, like every node's.
    The recipe holds nothing the closure does not, and goes with it.
    Without a recipe no rule may read the values: one that did would raise.
  * Everything is float64.  The model is desk-scale; precision is cheaper
    than debugging 32-bit gradient noise.
  * Hot-path layers (linear, conv1d, layer_norm, the dropout-residual-norm
    tail, attention, cross-entropy) are fused single nodes with
    hand-written backward rules to keep the node count per training step
    low.  Their kernels do the floating-point operations of the plain
    per-segment, per-head, per-tap formulation in the same order, so
    results do not depend on how a batch is packed.
  * A batch is packed: its sequences are concatenated along the row axis
    and `offsets` (B+1 row bounds) marks the segments.  Row-wise ops need
    no layout; the ops that mix rows (conv1d, attention_core, dropout,
    segment_mean) and the losses take `offsets` and keep every segment to
    itself.  `offsets=None` is one segment spanning all rows; only
    `segment_bounds` reads it, and `mse`, whose inputs may be 0-d.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, GraphError, ShapeError

Array = np.ndarray


class Tensor:
    """Dense float64 array with optional gradient tracking; `.data` is None once freed."""

    __slots__ = ("data", "shape", "grad", "home", "requires_grad", "_parents", "_backward",
                 "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.shape: tuple[int, ...] = self.data.shape
        self.grad: Array | None = None
        self.home: Array | None = None  # where a parameter's gradient lands
        self.requires_grad = requires_grad
        self._parents: Sequence[Tensor] = ()
        self._backward: Callable[[Array], None] | None = None
        self.name = name

    # -- basic introspection -------------------------------------------------

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Same values, cut off from the graph (stop-gradient)."""
        if self.data is None:
            raise GraphError(f"{self!r} was freed: detach() it before release or backward")
        return Tensor(self.data)

    def accumulate_grad(self, g: Array) -> None:
        """Add `g`, reduced to this tensor's shape, to the gradient; a
        constant takes none.  The first gradient is stored as given, or
        copied into `home` if set, which adds later ones in place."""
        if not self.requires_grad:
            return
        g = _unbroadcast(g, self.shape)
        if self.grad is None:  # np.positive copies
            self.grad = g if self.home is None else np.positive(g, out=self.home)
        else:  # in place into a home: the bytes of grad + g
            self.grad = np.add(self.grad, g, out=self.home)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag}, requires_grad={self.requires_grad})"

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))


def release(t: Tensor) -> None:
    """Free the values of `t`, whose consumers are all built: `.data`
    becomes None and `.shape` stays.  If the op that made `t` left a recipe
    (`remake`) on its closure, backward remakes the values before the first
    consumer's rule runs; otherwise no rule may read them.  A leaf that
    takes gradients (a parameter) is refused with GraphError."""
    if t.requires_grad and t._backward is None:
        raise GraphError(f"release frees the values of a node an op made, not of {t!r}")
    t.data = None


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
        a.accumulate_grad(g)
        b.accumulate_grad(g)

    return _make_node(data, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward_fn(g: Array) -> None:
        if a.requires_grad:
            a.accumulate_grad(g * b.data)
        if b.requires_grad:
            b.accumulate_grad(g * a.data)

    return _make_node(data, (a, b), backward_fn)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0

    def backward_fn(g: Array) -> None:
        a.accumulate_grad(g * mask)

    return _make_node(a.data * mask, (a,), backward_fn)


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
        a.accumulate_grad(g.reshape(a.shape))

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
        a.accumulate_grad(run_sums(g, counts))

    return _make_node(data, (a,), backward_fn)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w + b as one node: (T, d_in) @ (d_in, d_out) + (d_out,)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"linear shapes incompatible: x={x.data.shape} w={w.data.shape}")
    data = x.data @ w.data
    if b is not None:
        data += b.data

    def backward_fn(g: Array) -> None:
        if b is not None and b.requires_grad:
            b.accumulate_grad(g.sum(axis=0))
        if x.requires_grad:
            x.accumulate_grad(g @ w.data.T)
        if w.requires_grad:
            w.accumulate_grad(x.data.T @ g)

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
            bias.accumulate_grad(g.sum(axis=0))
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
            del xp  # the padded rows go before the input gradient's buffers come
            kernel.accumulate_grad(dk)
        if x.requires_grad:
            dxp = np.zeros((span + 2 * pad, cin))
            product = np.empty((span, cin))
            for j in range(k):
                dxp[j:j + span] += np.matmul(gp, kernel.data[j].T, out=product)
            del product, gp  # only dxp is read from here on
            x.accumulate_grad(_join([dxp[w + pad:w + pad + hi - lo] for lo, hi, w in windows]))

    return _make_node(data, parents, backward_fn)


_LAYER_NORM_EPS = 1e-6


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


def _affine(xhat: Array, gain: Tensor, bias: Tensor) -> Array:
    """xhat * gain + bias: a norm's output from its normalized rows, in
    forward and when backward remakes a released output."""
    data = xhat * gain.data
    data += bias.data
    return data


def _normalize(x: Array, gain: Tensor, bias: Tensor, eps: float) -> tuple[Array, Array, Array]:
    """layer_norm's forward over rows `x`: the output, the normalized rows
    and the inverse deviations."""
    if eps <= 0:
        raise ConfigError(f"layer_norm eps must be > 0, got {eps}")
    xhat, inv = _row_stats(x, eps)
    xhat *= inv
    return _affine(xhat, gain, bias), xhat, inv


def _normalize_grads(g: Array, gain: Tensor, bias: Tensor, xhat: Array, inv: Array,
                     rows: bool) -> Array | None:
    """layer_norm's backward: gives gain and bias their gradients, then
    returns the input rows' gradient when `rows` asks for it."""
    if gain.requires_grad:
        gain.accumulate_grad(g * xhat)
    bias.accumulate_grad(g)
    return _row_norm_grad(g * gain.data, xhat, inv) if rows else None


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = _LAYER_NORM_EPS) -> Tensor:
    """Per-row normalization over the last axis, then affine gain/bias."""
    data, xhat, inv = _normalize(x.data, gain, bias, eps)

    def backward_fn(g: Array) -> None:
        gx = _normalize_grads(g, gain, bias, xhat, inv, x.requires_grad)
        if gx is not None:
            x.accumulate_grad(gx)

    backward_fn.remake = lambda: _affine(xhat, gain, bias)
    return _make_node(data, (x, gain, bias), backward_fn)


def dropout_add_norm(x: Tensor, a: Tensor, gain: Tensor, bias: Tensor, rate: float, rngs,
                     offsets: np.ndarray | None = None) -> Tensor:
    """layer_norm(add(x, dropout(a, rate, rngs, offsets)), gain, bias) as one
    node: a residual tail.  It does the three nodes' arithmetic in their
    order, draws `dropout`'s masks, and gives `x` its gradient before `a`,
    as `add` does.  It keeps the normalized rows, their inverse deviations
    and the 1-byte keep mask, never the dropped or summed rows."""
    if x.data.shape != a.data.shape:
        raise ShapeError(f"residual shapes differ: {x.data.shape} vs {a.data.shape}")
    keep, scale = _keep_mask(a.data.shape, rate, rngs, offsets)
    if keep is None:
        s = x.data + a.data
    else:
        s = a.data * keep
        s *= scale
        np.add(x.data, s, out=s)
    data, xhat, inv = _normalize(s, gain, bias, _LAYER_NORM_EPS)

    def backward_fn(g: Array) -> None:
        gs = _normalize_grads(g, gain, bias, xhat, inv, x.requires_grad or a.requires_grad)
        if gs is None:
            return
        x.accumulate_grad(gs)
        if keep is None:
            a.accumulate_grad(gs)
        else:
            d = gs * keep
            d *= scale
            a.accumulate_grad(d)

    backward_fn.remake = lambda: _affine(xhat, gain, bias)
    return _make_node(data, (x, a, gain, bias), backward_fn)


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
    probs = []
    for lo, hi in spans:
        p = np.matmul(qh[:, lo:hi], kh[:, lo:hi].transpose(0, 2, 1))
        p *= scale
        p -= np.maximum.reduce(p, axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= np.add.reduce(p, axis=-1, keepdims=True)
        probs.append(p)

    def mix() -> Array:
        """Each segment's probabilities times its values, head by head: the
        output in forward and when backward remakes a released one."""
        out = np.empty((t, d))
        outh = heads(out)
        for (lo, hi), p in zip(spans, probs):
            np.matmul(p, vh[:, lo:hi], out=outh[:, lo:hi])
        return out

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
            # head by head through one (rows, rows) buffer, which holds the
            # product and then its row sums spread along the rows: no
            # (H, rows, rows) product, nor numpy's buffer for a broadcast
            # subtraction, is made.  The same values.
            prod = np.empty(ds.shape[1:])
            for h in range(n_heads):
                prod[...] = np.add.reduce(np.multiply(ds[h], p[h], out=prod), axis=-1,
                                          keepdims=True)
                np.subtract(ds[h], prod, out=ds[h])
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
                x.accumulate_grad(grad)

    backward_fn.remake = mix
    return _make_node(mix(), (q, k, v), backward_fn)


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
        if b.requires_grad:
            b.accumulate_grad(-d)
        a.accumulate_grad(d)

    return _make_node(data, (a, b), backward_fn)


def dropout(x: Tensor, rate: float, rngs, offsets: np.ndarray | None = None) -> Tensor:
    """Zero elements with probability `rate`, scaling survivors by 1/(1-rate).

    `rngs` yields one generator per segment of `offsets`, in segment order,
    and each segment's mask is that segment's draw alone.  A segment draws
    as soon as its generator is yielded, so `rngs` may hand out a stream's
    generator again for a later segment (the same utterance twice in one
    batch) after resetting it.  Outside training the `Dropout` layer passes
    rate 0.0, which draws nothing and returns `x` unchanged.
    """
    keep, scale = _keep_mask(x.data.shape, rate, rngs, offsets)
    if keep is None:
        return x
    data = x.data * keep
    data *= scale

    def backward_fn(g: Array) -> None:
        d = g * keep
        d *= scale
        x.accumulate_grad(d)

    return _make_node(data, (x,), backward_fn)


def _keep_mask(shape: tuple[int, ...], rate: float, rngs,
               offsets: np.ndarray | None) -> tuple[Array | None, float]:
    """`dropout`'s 1-byte keep mask and the survivors' scale: (x * keep) *
    scale is bitwise x * (keep * scale).  No mask (None) at rate 0."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return None, 1.0
    spans = _spans(offsets, shape[0])
    mask = np.empty(shape)
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
    return mask >= rate, 1.0 / (1.0 - rate)


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


def _consumed(g: Array) -> None:
    raise GraphError("backward already ran through this node; detach() its output before backward")


def backward(loss: Tensor) -> None:
    """Reverse-topological gradient accumulation from a scalar loss.

    The graph is single-use: once a node's rule has run, its `.data` and
    `.grad` are None, also where the caller holds it, its closure (with
    every array it saved) raises GraphError, and it keeps only its parents
    that take gradients.  Just before a node's rule runs, each freed input
    whose op left a recipe is remade (see `release`), to be freed with its
    own node.  A second backward that reaches a spent node raises before
    any rule runs, so no gradient changes.  Each node's gradient is made
    read-only before its rule runs, which may pass it on as it is but never
    write into it.  Leaves keep their values and gradients, which
    accumulate over backward passes until their `.grad` is set to None.
    """
    if loss.shape not in ((), (1,)):
        raise GraphError(f"backward needs a scalar loss, got shape {loss.shape}")
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
        if node._backward is _consumed:  # raise before any rule adds to a gradient
            _consumed(None)
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited and p._backward is not None:
                stack.append((p, False))
    del visited  # the walk's bookkeeping goes before any rule runs
    loss.accumulate_grad(np.ones(loss.shape))
    while topo:
        node = topo.pop()
        if node._backward is None:
            continue
        if node.grad is not None:
            for p in node._parents:  # remake freed inputs that have a recipe
                if p.data is None and hasattr(p._backward, "remake"):
                    p.data = p._backward.remake()
            g = np.asarray(node.grad)  # a 0-d rule may have made a numpy scalar
            g.flags.writeable = False
            node._backward(g)
        node.data = node.grad = None
        node._backward = _consumed
        # constant parents leave the graph, as no walk needs them
        node._parents = [p for p in node._parents if p.requires_grad]
