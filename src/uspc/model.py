"""Joint model: both pipelines over one set of shared modules.

The text encoder (plus duration predictor) is the only text-side-specific
piece; the content encoder is the only speech-side-specific piece.  Speaker
encoder, prosody encoder, codebook, decoder and pitch predictor are single
objects used by both paths, so "sharing" is object identity here, not
weight copying.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .config import ModelConfig, TrainConfig
from .encoders import (ContentEncoder, DurationPredictor, ProsodyEncoder,
                       SpeakerEncoder, TextEncoder, length_regulate,
                       quantize_f0_array)
from .errors import DataError
from .features import N_MELS
from .layers import Ctx
from .optim import AdamState, ParamStore
from .rng import NamedRng
from .synthesis import Decoder, PitchPredictor, decode_f0
from .vq import Codebook, QuantizedContent, identity_quantize, vq_lookup


def _mel_frames(name: str, mel) -> np.ndarray:
    """`mel` as (frames, N_MELS) finite float64 values with at least one
    frame; anything else is a DataError naming the argument `name`."""
    try:
        arr = np.asarray(mel, dtype=np.float64)
    except (TypeError, ValueError):
        raise DataError(f"{name}: not an array of numbers") from None
    if arr.ndim != 2 or arr.shape[1] != N_MELS:
        raise DataError(f"{name}: expected (frames, {N_MELS}) mel frames, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise DataError(f"{name}: no frames")
    if not np.isfinite(arr).all():
        raise DataError(f"{name}: non-finite mel values")
    return arr


def _whole_numbers(name: str, values) -> np.ndarray:
    """`values` as a 1-D array of finite whole numbers; anything else is a
    DataError naming the argument `name`, never a silent truncation."""
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.dtype.kind not in "iuf" or not np.isfinite(arr).all() \
            or (arr != np.rint(arr)).any():
        raise DataError(f"{name}: expected a 1-D sequence of whole numbers, got {arr.tolist()}")
    return arr


class JointModel:
    def __init__(self, cfg: ModelConfig, seed: int, use_vq: bool = True):
        cfg.validate()
        self.cfg = cfg
        self.use_vq = use_vq
        self.rng = NamedRng(seed)
        self.store = ParamStore()
        self.text_encoder = TextEncoder(self.store, self.rng, cfg)
        self.duration_predictor = DurationPredictor(self.store, self.rng, cfg)
        self.content_encoder = ContentEncoder(self.store, self.rng, cfg)
        self.speaker_encoder = SpeakerEncoder(self.store, self.rng, cfg)
        self.prosody_encoder = ProsodyEncoder(self.store, self.rng, cfg)
        self.codebook = Codebook(self.store, self.rng, cfg.codebook_size, cfg.d_model)
        self.decoder = Decoder(self.store, self.rng, cfg)
        self.pitch_predictor = PitchPredictor(self.store, self.rng, cfg)

    @classmethod
    def for_run(cls, cfg: TrainConfig) -> tuple["JointModel", AdamState]:
        """The model and optimizer state a training run of `cfg` starts
        from: novq quantizes by identity, and Adam packs every parameter."""
        model = cls(cfg.model, seed=cfg.seed, use_vq=cfg.uses_vq)
        return model, AdamState.for_params(model.store)

    # -- shared pieces ---------------------------------------------------------

    def quantize(self, content: Tensor) -> QuantizedContent:
        if self.use_vq:
            return vq_lookup(content, self.codebook)
        return identity_quantize(content, self.codebook)

    def synthesize(self, q: QuantizedContent, speaker: Tensor, prosody: Tensor,
                   ctx: Ctx) -> Tensor:
        return self.decoder(q, speaker, prosody, ctx)

    # -- per-pipeline forward ----------------------------------------------------
    #
    # Training, evaluation and single-utterance inference all run these.
    # Each pipeline is split at the speaker embedding, so a single-utterance
    # call (offsets None) and a packed batch (speaker rows (B, d),
    # `ctx.offsets` framing the rows) run the same code.

    def tts_content(self, phoneme_ids: np.ndarray, durations: np.ndarray | None,
                    ctx: Ctx) -> tuple[QuantizedContent, np.ndarray, Tensor]:
        """Quantized frame content from text; `ctx` frames the phonemes, and
        the content keeps their segment order, segment b taking the sum of
        its durations in frames.  With durations=None the duration predictor
        supplies frame counts.  Returns (content, durations_used,
        per-phoneme states)."""
        h = self.text_encoder(np.asarray(phoneme_ids, dtype=np.intp), ctx)
        if durations is None:
            log_dur = self.duration_predictor(h, ctx)
            durations = DurationPredictor.to_frame_counts(log_dur.data)
        q = self.quantize(length_regulate(h, durations))
        return q, np.asarray(durations, dtype=np.int64), h

    def decode_tts(self, q: QuantizedContent, speaker: Tensor,
                   ctx: Ctx) -> tuple[np.ndarray, np.ndarray]:
        """Predicted pitch and the mel decoded with it; `ctx` frames `q`.
        Returns (mel, f0_hz)."""
        f0 = decode_f0(self.pitch_predictor(q, speaker, ctx))
        p = self.prosody_encoder.from_bins(quantize_f0_array(f0))
        return self.synthesize(q, speaker, p, ctx).data, f0

    def decode_vc(self, q: QuantizedContent, speaker: Tensor, f0_hz: np.ndarray,
                  ctx: Ctx) -> np.ndarray:
        """The mel decoded with the given pitch; `ctx` frames `q`."""
        return self.synthesize(q, speaker, self.prosody_encoder(f0_hz), ctx).data

    def synth_tts(self, phoneme_ids: np.ndarray, ref_mel: np.ndarray,
                  durations: np.ndarray | None = None):
        """Zero-shot TTS: content from text, speaker from a reference mel.

        With durations=None the duration predictor supplies frame counts;
        pitch always comes from the pitch predictor at inference.
        Returns (mel, f0_hz, durations_used).
        """
        phoneme_ids = _whole_numbers("phoneme_ids", phoneme_ids)
        if durations is not None:
            durations = _whole_numbers("durations", durations)
            if durations.shape != phoneme_ids.shape or not durations.any() or durations.min() < 0:
                raise DataError(f"durations: expected {phoneme_ids.size} frame counts, none "
                                f"negative and not all zero, got {durations.tolist()}")
        ref_mel = _mel_frames("ref_mel", ref_mel)
        ctx = Ctx.eval()
        q, durations, _ = self.tts_content(phoneme_ids, durations, ctx)
        mel, f0 = self.decode_tts(q, self.speaker_encoder(ref_mel, ctx), ctx)
        return mel, f0, durations

    def convert_vc(self, source_mel: np.ndarray, source_f0: np.ndarray,
                   ref_mel: np.ndarray):
        """Zero-shot VC: content and prosody from the source utterance,
        speaker identity from the reference.  Returns (mel, f0_used)."""
        source_mel = _mel_frames("source_mel", source_mel)
        ref_mel = _mel_frames("ref_mel", ref_mel)
        source_f0 = np.asarray(source_f0, dtype=np.float64)
        if source_f0.shape != source_mel.shape[:1]:
            raise DataError(f"source_f0: shape {source_f0.shape} does not give one value "
                            f"per frame of the {source_mel.shape[0]}-frame source_mel")
        if not np.isfinite(source_f0).all() or (source_f0 < 0).any():
            raise DataError("source_f0: NaN, infinite or negative f0 in contour")
        ctx = Ctx.eval()
        q = self.quantize(self.content_encoder(source_mel, ctx))
        mel = self.decode_vc(q, self.speaker_encoder(ref_mel, ctx), source_f0, ctx)
        return mel, source_f0

