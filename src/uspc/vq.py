"""Shared content codebook: nearest-neighbor quantization with a
straight-through gradient, the cross-domain pair loss, and the auxiliary
losses that train the codebook itself.

One Codebook instance serves both the text-derived and the speech-derived
content paths; sharing the storage is what lets the two domains land on the
same discrete vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, PairingError
from .optim import ParamStore
from .rng import NamedRng


class Codebook:
    """V embedding vectors plus idle bookkeeping.

    entries is a learnable tensor (trained only through the auxiliary
    codebook loss, never through the straight-through path).
    steps_since_use drives dead-entry re-seeding.
    """

    def __init__(self, store: ParamStore, rng: NamedRng, n_entries: int, dim: int,
                 init_std: float = 0.1):
        if n_entries < 1:
            raise ConfigError("codebook must have at least one entry")
        self.entries = store.param(
            "codebook.entries", rng.normal("init/codebook", (n_entries, dim), init_std))
        self.steps_since_use = np.zeros(n_entries, dtype=np.int64)

    @property
    def n_entries(self) -> int:
        return self.entries.data.shape[0]

    @property
    def dim(self) -> int:
        return self.entries.data.shape[1]

    def nearest(self, rows: np.ndarray) -> np.ndarray:
        """Index of the closest entry per row (squared L2, lowest index wins ties)."""
        e = self.entries.data
        # ||r - e||^2 = ||r||^2 - 2 r.e + ||e||^2 ; ||r||^2 is constant per row
        d = -2.0 * rows @ e.T + (e * e).sum(axis=1)[None, :]
        return np.argmin(d, axis=1)

    def mark_step_usage(self, codes: np.ndarray) -> None:
        """Advance the idle counters by one training step."""
        self.steps_since_use += 1
        self.steps_since_use[np.unique(codes)] = 0

    def seed_from_rows(self, rows: np.ndarray, rng: NamedRng) -> None:
        """Data-dependent initialization from encoder output rows."""
        v = self.n_entries
        if rows.shape[0] >= v:
            pick = rng.generator("codebook/data_init", 0).choice(
                rows.shape[0], size=v, replace=False)
            self.entries.data[:] = rows[pick]
        # otherwise keep the gaussian init; too few rows to cover the book

    def reseed_dead_entries(self, rows: np.ndarray, rng: NamedRng, step: int,
                            max_idle_steps: int) -> int:
        dead = np.flatnonzero(self.steps_since_use >= max_idle_steps)
        if dead.size == 0 or rows.shape[0] == 0:
            return 0
        pick = rng.generator("codebook/reseed", step).integers(0, rows.shape[0],
                                                               size=dead.size)
        self.entries.data[dead] = rows[pick]
        self.steps_since_use[dead] = 0
        return int(dead.size)


@dataclass
class QuantizedContent:
    """Codes plus their straight-through vectors for one sequence or one
    packed batch of sequences."""

    codes: np.ndarray       # (T,) indices into the codebook
    vectors: Tensor         # (T, d) forward values are exact codebook rows
    continuous: Tensor      # (T, d) the pre-quantization encoder output
    book: Codebook

    @property
    def n_frames(self) -> int:
        return self.codes.shape[0]

    def take(self, rows: np.ndarray) -> "QuantizedContent":
        """The given rows in the given order, e.g. some segments of a packed
        batch packed anew."""
        rows = np.asarray(rows, dtype=np.intp)
        return QuantizedContent(codes=self.codes[rows],
                                vectors=ad.gather_rows(self.vectors, rows),
                                continuous=ad.gather_rows(self.continuous, rows),
                                book=self.book)


def vq_lookup(content: Tensor, book: Codebook) -> QuantizedContent:
    """Snap each row to its nearest codebook entry.

    Forward values are bitwise copies of the chosen entries; the backward
    pass routes gradients straight through to `content` and contributes
    nothing to the codebook (which learns via vq_aux_loss instead).
    """
    if book.n_entries == 0:
        raise ConfigError("empty codebook")
    if content.data.shape[1] != book.dim:
        raise ConfigError(
            f"content dim {content.data.shape[1]} != codebook dim {book.dim}")
    codes = book.nearest(content.data)
    vectors = ad.straight_through(content, book.entries.data[codes])
    return QuantizedContent(codes=codes, vectors=vectors, continuous=content, book=book)


def identity_quantize(content: Tensor, book: Codebook) -> QuantizedContent:
    """No-VQ ablation: the 'quantized' sequence is the continuous one."""
    codes = book.nearest(content.data)  # reported for diagnostics only
    return QuantizedContent(codes=codes, vectors=content, continuous=content, book=book)


def pair_loss(qp: QuantizedContent, qs: QuantizedContent,
              offsets: np.ndarray | None = None) -> Tensor:
    """Mean squared distance between the two domains' quantized sequences;
    for packed batches (both framed by `offsets`) the mean over segments.

    Gradients reach both encoders through their straight-through paths.
    """
    if qp.n_frames != qs.n_frames:
        raise PairingError(
            f"paired sequences disagree in length: {qp.n_frames} vs {qs.n_frames}")
    return ad.mse(qp.vectors, qs.vectors, offsets)


def vq_aux_loss(q: QuantizedContent, beta: float = 0.25,
                offsets: np.ndarray | None = None) -> Tensor:
    """Codebook + commitment terms; for a packed batch the mean over the
    segments of `offsets`.

    ||sg(c) - e||^2 moves the selected entries toward the encoder output;
    beta * ||c - sg(e)||^2 commits the encoder to its entries.  Stop
    gradients are realized by detached copies.
    """
    chosen = ad.gather_rows(q.book.entries, q.codes)   # differentiable into the book
    codebook_term = ad.mse(q.continuous.detach(), chosen, offsets)
    commit_term = ad.mse(q.continuous, chosen.detach(), offsets)
    return ad.add(codebook_term, ad.mul(commit_term, ad.Tensor(beta)))
