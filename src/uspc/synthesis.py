"""Shared back half of both pipelines: the mel decoder, which fuses content,
speaker and prosody, and the 32-way pitch classifier."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig
from .encoders import bin_center_hz
from .errors import ShapeError
from .features import N_PITCH_BINS
from .layers import ConvPredictorStack, Ctx, FFTBlock, Linear, per_row, positional_encoding
from .optim import ParamStore
from .rng import NamedRng
from .vq import QuantizedContent


class Decoder:
    """Fusion + position encoding + FFT blocks + linear projection to mel
    frames.  Fusion is additive: each segment's speaker row is added to its
    content and prosody rows."""

    def __init__(self, store: ParamStore, rng: NamedRng, cfg: ModelConfig):
        d = cfg.d_model
        self.blocks = [
            FFTBlock(store, rng, f"decoder.block{i}", d, cfg.n_heads,
                     cfg.kernel_size, cfg.dropout)
            for i in range(cfg.decoder_blocks)
        ]
        self.out = Linear(store, rng, "decoder.out", d, cfg.n_mels)
        self.d_model = d

    def __call__(self, q: QuantizedContent, speaker: Tensor, prosody: Tensor,
                 ctx: Ctx) -> Tensor:
        """`speaker` holds one row per segment of `ctx`, (B, d) or (1, d)."""
        n_rows = q.vectors.data.shape[0]
        if n_rows != prosody.data.shape[0]:
            raise ShapeError(f"content and prosody lengths differ: "
                             f"{n_rows} vs {prosody.data.shape[0]}")
        h = ad.add(ad.add(q.vectors, per_row(speaker, ctx.offsets)), prosody)
        h = ad.add(h, positional_encoding(n_rows, self.d_model, ctx.offsets))
        for block in self.blocks:
            h = block(h, ctx)
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
