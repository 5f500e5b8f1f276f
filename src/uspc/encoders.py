"""The four input encoders: text (with duration predictor and length
regulator), speech content, speaker, and pitch-based prosody."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig
from .errors import DataError, PairingError
from .features import F0_MAX, F0_MIN, N_PITCH_BINS
from .layers import (Conv1d, ConvPredictorStack, Ctx, Dropout, Embedding,
                     FFTBlock, LayerNorm, Linear, positional_encoding)
from .optim import ParamStore
from .rng import NamedRng


class TextEncoder:
    """Phoneme embedding + positions + a stack of FFT blocks."""

    def __init__(self, store: ParamStore, rng: NamedRng, cfg: ModelConfig):
        d = cfg.d_model
        self.embed = Embedding(store, rng, "text_encoder.embed", cfg.p_vocab, d)
        self.blocks = [
            FFTBlock(store, rng, f"text_encoder.block{i}", d, cfg.n_heads,
                     cfg.kernel_size, cfg.dropout)
            for i in range(cfg.text_blocks)
        ]
        self.d_model = d

    def __call__(self, phoneme_ids: np.ndarray, ctx: Ctx) -> Tensor:
        ids = np.asarray(phoneme_ids, dtype=np.intp)
        if ids.size == 0:
            raise DataError("empty phoneme sequence")
        h = ad.add(self.embed(ids), positional_encoding(ids.size, self.d_model, ctx.offsets))
        for block in self.blocks:
            h = block(h, ctx)
        return h


class DurationPredictor:
    """Predicts log(duration + 1) per phoneme from text-encoder states."""

    def __init__(self, store: ParamStore, rng: NamedRng, cfg: ModelConfig):
        self.stack = ConvPredictorStack(store, rng, "duration_predictor",
                                        cfg.d_model, 1, cfg.kernel_size, cfg.dropout)

    def __call__(self, h: Tensor, ctx: Ctx) -> Tensor:
        out = self.stack(h, ctx)  # (T_x, 1)
        return ad.reshape(out, (out.data.shape[0],))

    @staticmethod
    def to_frame_counts(log_durations: np.ndarray) -> np.ndarray:
        """Inference rounding: exp(p) - 1 to the nearest non-negative int."""
        raw = np.exp(np.asarray(log_durations, dtype=np.float64)) - 1.0
        return np.maximum(np.rint(raw), 0.0).astype(np.int64)


def expansion_map(durations: np.ndarray) -> np.ndarray:
    """Frame index -> phoneme position, the inverse view of length_regulate."""
    durations = np.asarray(durations, dtype=np.int64)
    return np.repeat(np.arange(durations.size), durations)


def length_regulate(h: Tensor, durations: np.ndarray) -> Tensor:
    """Repeat row i of `h` durations[i] times, preserving order."""
    durations = np.asarray(durations, dtype=np.int64)
    if durations.shape != (h.data.shape[0],):
        raise PairingError(
            f"durations length {durations.shape} does not match {h.data.shape[0]} rows")
    if np.any(durations < 0):
        raise DataError("durations must be non-negative")
    if durations.sum() == 0:
        raise DataError("all durations are zero; nothing to expand")
    return ad.repeat_rows(h, durations)


class ContentEncoder:
    """Frame-aligned speech-content representation from log-mel input."""

    def __init__(self, store: ParamStore, rng: NamedRng, cfg: ModelConfig):
        d = cfg.d_model
        self.pre = Linear(store, rng, "content_encoder.pre", cfg.n_mels, d)
        self.blocks = [
            FFTBlock(store, rng, f"content_encoder.block{i}", d, cfg.n_heads,
                     cfg.kernel_size, cfg.dropout)
            for i in range(cfg.content_blocks)
        ]
        self.d_model = d

    def __call__(self, mel_frames: np.ndarray, ctx: Ctx) -> Tensor:
        x = mel_frames if isinstance(mel_frames, Tensor) else Tensor(mel_frames)
        h = ad.add(self.pre(x),
                   positional_encoding(x.data.shape[0], self.d_model, ctx.offsets))
        for block in self.blocks:
            h = block(h, ctx)
        return h


class SpeakerEncoder:
    """Two convolutions, temporal mean pooling, and a projection.

    The pooled mean makes the embedding invariant to frame order and, up to
    boundary effects, to utterance length.  It gives one embedding row per
    segment, (B, d); an unbatched sequence gives (1, d).
    """

    def __init__(self, store: ParamStore, rng: NamedRng, cfg: ModelConfig):
        d = cfg.d_model
        self.conv1 = Conv1d(store, rng, "speaker_encoder.conv1", cfg.n_mels, d,
                            cfg.kernel_size)
        self.norm1 = LayerNorm(store, "speaker_encoder.norm1", d)
        self.conv2 = Conv1d(store, rng, "speaker_encoder.conv2", d, d, cfg.kernel_size)
        self.norm2 = LayerNorm(store, "speaker_encoder.norm2", d)
        # zero-init projection: the embedding starts utterance-independent and
        # grows only where reconstruction actually needs speaker identity
        self.proj = Linear(store, rng, "speaker_encoder.proj", d, d, zero_init=True)

    def frame_features(self, mel_frames: np.ndarray, ctx: Ctx) -> Tensor:
        x = mel_frames if isinstance(mel_frames, Tensor) else Tensor(mel_frames)
        h = self.norm1(ad.relu(self.conv1(x, ctx)))
        return self.norm2(ad.relu(self.conv2(h, ctx)))

    def pool(self, frame_feats: Tensor, offsets: np.ndarray | None = None) -> Tensor:
        return self.proj(ad.segment_mean(frame_feats, offsets))

    def __call__(self, mel_frames: np.ndarray, ctx: Ctx) -> Tensor:
        return self.pool(self.frame_features(mel_frames, ctx), ctx.offsets)


def quantize_f0_array(f0_hz: np.ndarray) -> np.ndarray:
    """Map each frequency to one of 32 bins; bin 0 is reserved for unvoiced.

    Bins 1..30 split [50, 600) Hz uniformly in log-Hz; bin 31 holds 600 Hz
    and above, and values below 50 Hz clamp to bin 1.
    """
    f0_hz = np.asarray(f0_hz, dtype=np.float64)
    if np.any(f0_hz < 0):
        raise DataError("negative f0 in contour")
    span = np.log(F0_MAX) - np.log(F0_MIN)
    with np.errstate(divide="ignore"):
        r = (np.log(np.maximum(f0_hz, 1e-300)) - np.log(F0_MIN)) / span
    bins = np.clip(1 + np.floor(30.0 * r), 1, 31).astype(np.int64)
    bins[f0_hz == 0.0] = 0
    return bins


def bin_center_hz(bin_index: int) -> float:
    """Geometric center of a voiced bin's log-Hz interval; bin 0 -> 0 Hz."""
    if bin_index == 0:
        return 0.0
    width = (np.log(F0_MAX) - np.log(F0_MIN)) / 30.0
    return float(np.exp(np.log(F0_MIN) + (bin_index - 0.5) * width))


class ProsodyEncoder:
    """Per-frame pitch-bin lookup in a learnable 32-entry table."""

    def __init__(self, store: ParamStore, rng: NamedRng, cfg: ModelConfig):
        self.embed = Embedding(store, rng, "prosody_encoder.embed",
                               N_PITCH_BINS, cfg.d_model)

    def __call__(self, f0_hz: np.ndarray) -> Tensor:
        return self.from_bins(quantize_f0_array(f0_hz))

    def from_bins(self, bins: np.ndarray) -> Tensor:
        return self.embed(np.asarray(bins, dtype=np.intp))
