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
from .errors import DataError
from .optim import ParamStore
from .rng import NamedRng


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


def _init_linear(rng: NamedRng, name: str, d_in: int, d_out: int) -> np.ndarray:
    std = np.sqrt(2.0 / (d_in + d_out))
    return rng.normal(f"init/{name}", (d_in, d_out), std)


class Linear:
    def __init__(self, store: ParamStore, rng: NamedRng, name: str,
                 d_in: int, d_out: int, bias: bool = True, zero_init: bool = False):
        w0 = np.zeros((d_in, d_out)) if zero_init else _init_linear(rng, name, d_in, d_out)
        self.w = store.param(f"{name}.w", w0)
        self.b = store.param(f"{name}.b", np.zeros(d_out)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.w, self.b)


class Conv1d:
    """Temporal conv, kernel (K, Cin, Cout), zero same-padding."""

    def __init__(self, store: ParamStore, rng: NamedRng, name: str,
                 c_in: int, c_out: int, kernel_size: int = 3):
        std = np.sqrt(2.0 / (kernel_size * c_in + c_out))
        self.w = store.param(f"{name}.w",
                             rng.normal(f"init/{name}", (kernel_size, c_in, c_out), std))
        self.b = store.param(f"{name}.b", np.zeros(c_out))

    def __call__(self, x: Tensor, ctx: Ctx) -> Tensor:
        return ad.conv1d(x, self.w, self.b, ctx.offsets)


class LayerNorm:
    def __init__(self, store: ParamStore, name: str, dim: int, eps: float = 1e-6):
        self.gain = store.param(f"{name}.gain", np.ones(dim))
        self.bias = store.param(f"{name}.bias", np.zeros(dim))
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gain, self.bias, self.eps)


def per_row(v: Tensor, offsets: np.ndarray | None) -> Tensor:
    """Per-segment rows (B, d) repeated onto their segments' rows.  The one
    row of an unbatched sequence (offsets None) is returned as is and
    broadcasts."""
    if offsets is None:
        return v
    return ad.repeat_rows(v, np.diff(offsets))


class Dropout:
    def __init__(self, name: str, rate: float):
        self.name = name
        self.rate = rate

    def __call__(self, x: Tensor, ctx: Ctx) -> Tensor:
        if not ctx.training or self.rate == 0.0:
            return x
        # lazy: each segment draws before the next stream is asked for, so a
        # uid that repeats in the batch gets its stream afresh
        gens = (ctx.rng.generator(f"dropout/{self.name}/{uid}", step=ctx.step)
                for uid in ctx.uids)
        return ad.dropout(x, self.rate, gens, training=True, offsets=ctx.offsets)


class Embedding:
    def __init__(self, store: ParamStore, rng: NamedRng, name: str,
                 n_entries: int, dim: int, std: float = 0.3):
        self.table = store.param(f"{name}.table",
                                 rng.normal(f"init/{name}", (n_entries, dim), std))
        self.n_entries = n_entries

    def __call__(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids, dtype=np.intp)
        if ids.size and (ids.min() < 0 or ids.max() >= self.n_entries):
            bad = ids[(ids < 0) | (ids >= self.n_entries)][0]
            raise DataError(f"id {bad} outside vocabulary of {self.n_entries}")
        return ad.gather_rows(self.table, ids)


_PE_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _position_table(n_rows: int, dim: int) -> np.ndarray:
    key = (n_rows, dim)
    table = _PE_CACHE.get(key)
    if table is None:
        pos = np.arange(n_rows)[:, None]
        i = np.arange(dim)[None, :]
        angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
        table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
        _PE_CACHE[key] = table
    return table


def positional_encoding(n_rows: int, dim: int, offsets: np.ndarray | None = None) -> Tensor:
    """Sinusoidal position table (constant, shared across call sites).
    Positions restart at 0 in every segment of `offsets`."""
    if offsets is None:
        return Tensor(_position_table(n_rows, dim))
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
        return self.wo(mixed)


class FFTBlock:
    """Self-attention + two temporal convolutions, each with residual + layer
    norm.  A block takes no speaker input; the decoder adds the speaker rows
    before its first block."""

    def __init__(self, store: ParamStore, rng: NamedRng, name: str, dim: int,
                 n_heads: int, kernel_size: int, dropout_rate: float):
        self.attn = MultiHeadAttention(store, rng, f"{name}.attn", dim, n_heads)
        self.conv1 = Conv1d(store, rng, f"{name}.conv1", dim, dim, kernel_size)
        self.conv2 = Conv1d(store, rng, f"{name}.conv2", dim, dim, kernel_size)
        self.norm1 = LayerNorm(store, f"{name}.norm1", dim)
        self.norm2 = LayerNorm(store, f"{name}.norm2", dim)
        self.drop1 = Dropout(f"{name}.drop1", dropout_rate)
        self.drop2 = Dropout(f"{name}.drop2", dropout_rate)

    def __call__(self, x: Tensor, ctx: Ctx) -> Tensor:
        a = self.drop1(self.attn(x, ctx), ctx)
        h = self.norm1(ad.add(x, a))
        c = self.conv2(ad.relu(self.conv1(h, ctx)), ctx)
        h2 = ad.add(h, self.drop2(c, ctx))
        return self.norm2(h2)


class ConvPredictorStack:
    """Two conv layers with relu/norm/dropout, then a linear head.

    The structure used by both the duration predictor and the pitch
    predictor; only the head width differs.
    """

    def __init__(self, store: ParamStore, rng: NamedRng, name: str, dim: int,
                 out_dim: int, kernel_size: int, dropout_rate: float):
        self.conv1 = Conv1d(store, rng, f"{name}.conv1", dim, dim, kernel_size)
        self.norm1 = LayerNorm(store, f"{name}.norm1", dim)
        self.conv2 = Conv1d(store, rng, f"{name}.conv2", dim, dim, kernel_size)
        self.norm2 = LayerNorm(store, f"{name}.norm2", dim)
        self.head = Linear(store, rng, f"{name}.head", dim, out_dim)
        self.drop1 = Dropout(f"{name}.drop1", dropout_rate)
        self.drop2 = Dropout(f"{name}.drop2", dropout_rate)

    def __call__(self, x: Tensor, ctx: Ctx) -> Tensor:
        h = self.drop1(self.norm1(ad.relu(self.conv1(x, ctx))), ctx)
        h = self.drop2(self.norm2(ad.relu(self.conv2(h, ctx))), ctx)
        return self.head(h)
