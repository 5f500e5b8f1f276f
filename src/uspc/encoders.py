"""The four input encoders: text (with duration predictor and length
regulator), speech content, speaker, and pitch-based prosody."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig
from .errors import DataError, PairingError
from .features import F0_MAX, F0_MIN, N_MELS, N_PHONEMES, N_PITCH_BINS
from .layers import (Conv1d, ConvPredictorStack, Ctx, Embedding, FFTStack, LayerNorm, Linear,
                     conv_relu_norm)
from .optim import ParamStore
from .rng import NamedRng


class TextEncoder:
    """Phoneme embedding + positions + a stack of FFT blocks."""

    def __init__(self, store: ParamStore, rng: NamedRng, cfg: ModelConfig):
        self.embed = Embedding(store, rng, "text_encoder.embed", N_PHONEMES, cfg.d_model)
        self.stack = FFTStack(store, rng, "text_encoder", cfg, cfg.text_blocks)

    def __call__(self, phoneme_ids: np.ndarray, ctx: Ctx) -> Tensor:
        ids = np.asarray(phoneme_ids, dtype=np.intp)
        if ids.size == 0:
            raise DataError("phoneme_ids: empty phoneme sequence")
        return self.stack(self.embed(ids), ctx)


class DurationPredictor:
    """Predicts log(duration + 1) per phoneme from text-encoder states."""

    def __init__(self, store: ParamStore, rng: NamedRng, cfg: ModelConfig):
        self.stack = ConvPredictorStack(store, rng, "duration_predictor",
                                        cfg.d_model, 1, cfg.dropout)

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
        self.pre = Linear(store, rng, "content_encoder.pre", N_MELS, cfg.d_model)
        self.stack = FFTStack(store, rng, "content_encoder", cfg, cfg.content_blocks)

    def __call__(self, mel_frames: np.ndarray, ctx: Ctx) -> Tensor:
        x = mel_frames if isinstance(mel_frames, Tensor) else Tensor(mel_frames)
        return self.stack(self.pre(x), ctx)


class SpeakerEncoder:
    """Two convolutions, temporal mean pooling, and a projection.

    The pooled mean makes the embedding invariant to frame order and, up to
    boundary effects, to utterance length.  It gives one embedding row per
    segment, (B, d); an unbatched sequence gives (1, d).
    """

    def __init__(self, store: ParamStore, rng: NamedRng, cfg: ModelConfig):
        d = cfg.d_model
        self.conv1 = Conv1d(store, rng, "speaker_encoder.conv1", N_MELS, d)
        self.norm1 = LayerNorm(store, "speaker_encoder.norm1", d)
        self.conv2 = Conv1d(store, rng, "speaker_encoder.conv2", d, d)
        self.norm2 = LayerNorm(store, "speaker_encoder.norm2", d)
        # zero-init projection: the embedding starts utterance-independent and
        # grows only where reconstruction actually needs speaker identity
        self.proj = Linear(store, rng, "speaker_encoder.proj", d, d, zero_init=True)

    def frame_features(self, mel_frames: np.ndarray, ctx: Ctx) -> Tensor:
        x = mel_frames if isinstance(mel_frames, Tensor) else Tensor(mel_frames)
        h = conv_relu_norm(self.conv1, self.norm1, x, ctx)
        out = conv_relu_norm(self.conv2, self.norm2, h, ctx)
        ad.release(h)  # remade from its normalized rows for conv2's rule
        return out

    def pool(self, frame_feats: Tensor, offsets: np.ndarray | None = None) -> Tensor:
        return self.proj(ad.segment_mean(frame_feats, offsets))

    def __call__(self, mel_frames: np.ndarray, ctx: Ctx) -> Tensor:
        feats = self.frame_features(mel_frames, ctx)
        out = self.pool(feats, ctx.offsets)
        ad.release(feats)  # segment_mean's rule reads no values
        return out


N_LOG_BINS = N_PITCH_BINS - 2  # voiced bins split uniformly in log-Hz
TOP_BIN = N_PITCH_BINS - 1     # the clamp bin at and above F0_MAX


def quantize_f0_array(f0_hz: np.ndarray) -> np.ndarray:
    """Map each frequency to one of 32 bins; bin 0 is reserved for unvoiced.

    Bins 1..30 split [50, 600) Hz uniformly in log-Hz; bin 31 holds 600 Hz
    and above, and values below 50 Hz clamp to bin 1.
    """
    f0_hz = np.asarray(f0_hz, dtype=np.float64)
    if not np.isfinite(f0_hz).all():
        raise DataError("f0_hz: NaN or infinite f0 in contour")
    if np.any(f0_hz < 0):
        raise DataError("f0_hz: negative f0 in contour")
    span = np.log(F0_MAX) - np.log(F0_MIN)
    with np.errstate(divide="ignore"):
        r = (np.log(np.maximum(f0_hz, 1e-300)) - np.log(F0_MIN)) / span
    bins = np.clip(1 + np.floor(N_LOG_BINS * r), 1, TOP_BIN).astype(np.int64)
    bins[f0_hz == 0.0] = 0
    return bins


def bin_center_hz(bin_index: int) -> float:
    """Geometric center of a voiced bin's log-Hz interval; bin 0 -> 0 Hz."""
    if bin_index == 0:
        return 0.0
    width = (np.log(F0_MAX) - np.log(F0_MIN)) / N_LOG_BINS
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
