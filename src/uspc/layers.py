"""Network building blocks on top of the autodiff core.

Layers register their parameters in a shared ParamStore under dotted names
and are pure functions of (input, parameters) apart from dropout, which
draws its mask from a named counter-based stream so training is replayable.
Inputs are packed batches: the segment layout travels in `Ctx`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig
from .errors import DataError
from .optim import ParamStore
from .rng import NamedRng

KERNEL_SIZE = 3  # taps of every temporal convolution in the model


@dataclass
class Ctx:
    """Per-forward context: training mode, the dropout stream identity, and
    the segment layout of the packed rows.

    `offsets` holds B+1 row bounds, segment b being utterance `uids[b]`;
    None is one unbatched sequence.  Dropout draws segment b's mask from the
    stream `dropout/{layer}/{uids[b]}` at `step`, as if it ran alone.
    """

    training: bool = False
    step: int = 0
    uids: tuple[str, ...] = ("",)
    offsets: np.ndarray | None = None
    rng: NamedRng | None = None

    @classmethod
    def eval(cls) -> "Ctx":
        return cls(training=False)


def segment_offsets(lengths) -> np.ndarray:
    """The B+1 row bounds of consecutive segments of the given lengths."""
    return np.concatenate([[0], np.cumsum(lengths)]).astype(np.intp)


def frames_ctx(records) -> Ctx:
    """Eval context for the records' frames packed in order."""
    return Ctx(offsets=segment_offsets([rec.n_frames for rec in records]))


def _init_linear(rng: NamedRng, name: str, d_in: int, d_out: int) -> np.ndarray:
    std = np.sqrt(2.0 / (d_in + d_out))
    return rng.normal(f"init/{name}", (d_in, d_out), std)


class Linear:
    def __init__(self, store: ParamStore, rng: NamedRng, name: str,
                 d_in: int, d_out: int, zero_init: bool = False):
        w0 = np.zeros((d_in, d_out)) if zero_init else _init_linear(rng, name, d_in, d_out)
        self.w = store.param(f"{name}.w", w0)
        self.b = store.param(f"{name}.b", np.zeros(d_out))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.w, self.b)


class Conv1d:
    """Temporal conv, kernel (KERNEL_SIZE, Cin, Cout), zero same-padding."""

    def __init__(self, store: ParamStore, rng: NamedRng, name: str, c_in: int, c_out: int):
        std = np.sqrt(2.0 / (KERNEL_SIZE * c_in + c_out))
        self.w = store.param(f"{name}.w",
                             rng.normal(f"init/{name}", (KERNEL_SIZE, c_in, c_out), std))
        self.b = store.param(f"{name}.b", np.zeros(c_out))

    def __call__(self, x: Tensor, ctx: Ctx) -> Tensor:
        return ad.conv1d(x, self.w, self.b, ctx.offsets)


class LayerNorm:
    def __init__(self, store: ParamStore, name: str, dim: int):
        self.gain = store.param(f"{name}.gain", np.ones(dim))
        self.bias = store.param(f"{name}.bias", np.zeros(dim))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gain, self.bias)


def add_per_row(x: Tensor, v: Tensor, offsets: np.ndarray | None) -> Tensor:
    """x plus each segment's row of `v` (B, d) on that segment's rows.  The
    repeated rows are released once added, as add's rule reads no values."""
    rows = ad.repeat_rows(v, np.diff(ad.segment_bounds(offsets, x.data.shape[0])))
    out = ad.add(x, rows)
    ad.release(rows)
    return out


def conv_relu_norm(conv: Conv1d, norm: LayerNorm, x: Tensor, ctx: Ctx) -> Tensor:
    """norm(relu(conv(x))).  The conv and relu outputs are released: relu
    keeps its own mask, and a norm's rule reads only its normalized rows."""
    c = conv(x, ctx)
    r = ad.relu(c)
    ad.release(c)
    out = norm(r)
    ad.release(r)
    return out


class Dropout:
    def __init__(self, name: str, rate: float):
        self.name = name
        self.rate = rate

    def __call__(self, x: Tensor, ctx: Ctx) -> Tensor:
        return ad.dropout(x, *self.streams(ctx), offsets=ctx.offsets)

    def streams(self, ctx: Ctx):
        """The rate `ctx` drops at (0.0 outside training, which draws
        nothing) and its segments' generators.  Lazy: each segment draws
        before the next stream is asked for, so a uid that repeats in the
        batch gets its stream afresh."""
        gens = (ctx.rng.generator(f"dropout/{self.name}/{uid}", step=ctx.step)
                for uid in ctx.uids)
        return (self.rate if ctx.training else 0.0), gens


class Embedding:
    def __init__(self, store: ParamStore, rng: NamedRng, name: str,
                 n_entries: int, dim: int):
        self.table = store.param(f"{name}.table",
                                 rng.normal(f"init/{name}", (n_entries, dim), 0.3))
        self.n_entries = n_entries

    def __call__(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids, dtype=np.intp)
        if ids.size and (ids.min() < 0 or ids.max() >= self.n_entries):
            bad = ids[(ids < 0) | (ids >= self.n_entries)][0]
            raise DataError(f"id {bad} outside vocabulary of {self.n_entries}")
        return ad.gather_rows(self.table, ids)


# one table per width, grown to the longest segment seen: each entry depends
# only on its row and column, so its first n rows are bitwise the n-row table
_PE_CACHE: dict[int, np.ndarray] = {}


def _position_table(n_rows: int, dim: int) -> np.ndarray:
    table = _PE_CACHE.get(dim)
    if table is None or table.shape[0] < n_rows:
        pos = np.arange(n_rows)[:, None]
        i = np.arange(dim)[None, :]
        angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
        table = _PE_CACHE[dim] = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return table[:n_rows]


def positional_encoding(n_rows: int, dim: int, offsets: np.ndarray | None = None) -> Tensor:
    """Sinusoidal position table (constant).  Positions restart at 0 in
    every segment of `offsets`."""
    lengths = np.diff(ad.segment_bounds(offsets, n_rows)).tolist()
    return Tensor(np.concatenate([_position_table(n, dim) for n in lengths]))


class MultiHeadAttention:
    def __init__(self, store: ParamStore, rng: NamedRng, name: str,
                 dim: int, n_heads: int):
        self.wq = Linear(store, rng, f"{name}.q", dim, dim)
        self.wk = Linear(store, rng, f"{name}.k", dim, dim)
        self.wv = Linear(store, rng, f"{name}.v", dim, dim)
        self.wo = Linear(store, rng, f"{name}.out", dim, dim)
        self.n_heads = n_heads

    def __call__(self, x: Tensor, ctx: Ctx) -> Tensor:
        mixed = ad.attention_core(self.wq(x), self.wk(x), self.wv(x), self.n_heads,
                                  ctx.offsets)
        out = self.wo(mixed)
        ad.release(mixed)  # remade from probabilities and values for wo's rule
        return out


class FFTBlock:
    """Self-attention + two temporal convolutions, each with a dropout,
    residual and layer norm tail (one `ad.dropout_add_norm` node).  A block
    takes no speaker input; the decoder adds the speaker rows before its
    first block."""

    def __init__(self, store: ParamStore, rng: NamedRng, name: str, dim: int,
                 n_heads: int, dropout_rate: float):
        self.attn = MultiHeadAttention(store, rng, f"{name}.attn", dim, n_heads)
        self.conv1 = Conv1d(store, rng, f"{name}.conv1", dim, dim)
        self.conv2 = Conv1d(store, rng, f"{name}.conv2", dim, dim)
        self.norm1 = LayerNorm(store, f"{name}.norm1", dim)
        self.norm2 = LayerNorm(store, f"{name}.norm2", dim)
        self.drop1 = Dropout(f"{name}.drop1", dropout_rate)
        self.drop2 = Dropout(f"{name}.drop2", dropout_rate)

    def __call__(self, x: Tensor, ctx: Ctx) -> Tensor:
        # each value is released once its consumers are built: the tails'
        # rules read only their normalized rows and masks, relu keeps its
        # own mask, and the first tail's output, which conv1's rule reads,
        # is remade from its normalized rows in backward (so is the
        # attention mix, inside `attn`).  The block output is the caller's.
        a = self.attn(x, ctx)
        h = ad.dropout_add_norm(x, a, self.norm1.gain, self.norm1.bias,
                                *self.drop1.streams(ctx), ctx.offsets)
        ad.release(a)
        c1 = self.conv1(h, ctx)
        r = ad.relu(c1)
        ad.release(c1)
        c2 = self.conv2(r, ctx)
        out = ad.dropout_add_norm(h, c2, self.norm2.gain, self.norm2.bias,
                                  *self.drop2.streams(ctx), ctx.offsets)
        ad.release(c2)
        ad.release(h)
        return out


class FFTStack:
    """Positions added to the input rows, then `n_blocks` FFT blocks named
    `{name}.block{i}`: the body of the text encoder, the content encoder
    and the decoder.  The input rows, which nothing else may read, are
    released once added, and so is each block output but the last once the
    next block is built (it is remade for that block's rules)."""

    def __init__(self, store: ParamStore, rng: NamedRng, name: str, cfg: ModelConfig,
                 n_blocks: int):
        self.blocks = [FFTBlock(store, rng, f"{name}.block{i}", cfg.d_model, cfg.n_heads,
                                cfg.dropout) for i in range(n_blocks)]
        self.d_model = cfg.d_model

    def __call__(self, x: Tensor, ctx: Ctx) -> Tensor:
        h = ad.add(x, positional_encoding(x.data.shape[0], self.d_model, ctx.offsets))
        ad.release(x)
        for i, block in enumerate(self.blocks):
            out = block(h, ctx)
            if i:
                ad.release(h)
            h = out
        return h


class ConvPredictorStack:
    """Two conv layers with relu/norm/dropout, then a linear head.

    The structure used by both the duration predictor and the pitch
    predictor; only the head width differs.
    """

    def __init__(self, store: ParamStore, rng: NamedRng, name: str, dim: int,
                 out_dim: int, dropout_rate: float):
        self.conv1 = Conv1d(store, rng, f"{name}.conv1", dim, dim)
        self.norm1 = LayerNorm(store, f"{name}.norm1", dim)
        self.conv2 = Conv1d(store, rng, f"{name}.conv2", dim, dim)
        self.norm2 = LayerNorm(store, f"{name}.norm2", dim)
        self.head = Linear(store, rng, f"{name}.head", dim, out_dim)
        self.drop1 = Dropout(f"{name}.drop1", dropout_rate)
        self.drop2 = Dropout(f"{name}.drop2", dropout_rate)

    def __call__(self, x: Tensor, ctx: Ctx) -> Tensor:
        # a norm output is released once the next layer is built: dropout
        # keeps only its mask, and at rate 0, where dropout returns it, it
        # is remade from its normalized rows for the next layer's rule
        h1 = conv_relu_norm(self.conv1, self.norm1, x, ctx)
        h2 = conv_relu_norm(self.conv2, self.norm2, self.drop1(h1, ctx), ctx)
        ad.release(h1)
        out = self.head(self.drop2(h2, ctx))
        ad.release(h2)
        return out
