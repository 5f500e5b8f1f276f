"""Shared back half of both pipelines: feature fusion, the mel decoder, and
the 32-way pitch classifier."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig
from .encoders import bin_center_hz
from .errors import ConfigError, ShapeError
from .features import N_PITCH_BINS
from .layers import ConvPredictorStack, Ctx, FFTBlock, Linear, per_row, positional_encoding
from .optim import ParamStore
from .rng import NamedRng
from .vq import QuantizedContent


@dataclass
class FusedSequence:
    """Content + speaker + prosody, combined per the configured mode."""

    rows: Tensor            # (T, d)
    mode: str               # "additive" or "saln"
    style: Tensor | None    # speaker vector(s), consumed by styled norms in saln mode


def fuse(q: QuantizedContent, speaker: Tensor, prosody: Tensor,
         mode: str = "additive", offsets: np.ndarray | None = None) -> FusedSequence:
    """`speaker` is (d,) for an unbatched sequence, or (B, d) with one row
    per segment of `offsets`."""
    if q.vectors.data.shape[0] != prosody.data.shape[0]:
        raise ShapeError(
            f"content and prosody lengths differ: "
            f"{q.vectors.data.shape[0]} vs {prosody.data.shape[0]}")
    if mode == "additive":
        rows = ad.add(ad.add(q.vectors, per_row(speaker, offsets)), prosody)
        return FusedSequence(rows=rows, mode=mode, style=None)
    if mode == "saln":
        rows = ad.add(q.vectors, prosody)
        return FusedSequence(rows=rows, mode=mode, style=speaker)
    raise ConfigError(f"unknown fusion mode {mode!r}")


class Decoder:
    """Position encoding + FFT blocks + linear projection to mel frames."""

    def __init__(self, store: ParamStore, rng: NamedRng, cfg: ModelConfig):
        d = cfg.d_model
        style_dim = d if cfg.fusion == "saln" else None
        self.blocks = [
            FFTBlock(store, rng, f"decoder.block{i}", d, cfg.n_heads,
                     cfg.kernel_size, cfg.dropout, style_dim=style_dim)
            for i in range(cfg.decoder_blocks)
        ]
        self.out = Linear(store, rng, "decoder.out", d, cfg.n_mels)
        self.d_model = d

    def __call__(self, fused: FusedSequence, ctx: Ctx) -> Tensor:
        h = ad.add(fused.rows, positional_encoding(fused.rows.data.shape[0], self.d_model,
                                                   ctx.offsets))
        for block in self.blocks:
            h = block(h, ctx, style=fused.style) if fused.mode == "saln" else block(h, ctx)
        return self.out(h)


class PitchPredictor:
    """Class scores over 32 pitch bins from content + speaker."""

    def __init__(self, store: ParamStore, rng: NamedRng, cfg: ModelConfig):
        self.stack = ConvPredictorStack(store, rng, "pitch_predictor", cfg.d_model,
                                        N_PITCH_BINS, cfg.kernel_size, cfg.dropout)

    def __call__(self, q: QuantizedContent, speaker: Tensor, ctx: Ctx) -> Tensor:
        return self.stack(ad.add(q.vectors, per_row(speaker, ctx.offsets)), ctx)


BIN_CENTERS_HZ = np.array([bin_center_hz(k) for k in range(N_PITCH_BINS)])


def decode_f0(logits: np.ndarray) -> np.ndarray:
    """Per-frame argmax bin -> Hz.  Bin 0 decodes to 0 (unvoiced); voiced
    bins decode to the geometric center of their log-Hz interval.  Argmax
    ties resolve to the lowest index."""
    arr = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    if arr.ndim != 2 or arr.shape[1] > N_PITCH_BINS:
        raise ShapeError(f"pitch logits must be (T, <= {N_PITCH_BINS}), got {arr.shape}")
    return BIN_CENTERS_HZ[np.argmax(arr, axis=1)]
