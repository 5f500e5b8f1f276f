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
from .config import ModelConfig
from .encoders import (ContentEncoder, DurationPredictor, ProsodyEncoder,
                       SpeakerEncoder, TextEncoder, length_regulate,
                       quantize_f0_array)
from .layers import Ctx
from .optim import ParamStore
from .rng import NamedRng
from .synthesis import Decoder, PitchPredictor, decode_f0, fuse
from .vq import Codebook, QuantizedContent, identity_quantize, vq_lookup


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

    # -- shared pieces ---------------------------------------------------------

    def quantize(self, content: Tensor, track_usage: bool = False) -> QuantizedContent:
        if self.use_vq:
            return vq_lookup(content, self.codebook, track_usage=track_usage)
        return identity_quantize(content, self.codebook)

    def speaker(self, mel_frames: np.ndarray, ctx: Ctx) -> Tensor:
        return self.speaker_encoder(mel_frames, ctx)

    def prosody_from_f0(self, f0_hz: np.ndarray, ctx: Ctx) -> Tensor:
        return self.prosody_encoder(f0_hz, ctx)

    # -- per-pipeline content --------------------------------------------------

    def text_content(self, phoneme_ids: np.ndarray, durations: np.ndarray,
                     ctx: Ctx) -> tuple[Tensor, Tensor, Tensor]:
        """Returns (per-phoneme states, predicted log-durations, expanded content)."""
        h = self.text_encoder(phoneme_ids, ctx)
        log_dur = self.duration_predictor(h, ctx)
        expanded = length_regulate(h, durations)
        return h, log_dur, expanded

    def speech_content(self, mel_frames: np.ndarray, ctx: Ctx) -> Tensor:
        return self.content_encoder(mel_frames, ctx)

    def synthesize(self, q: QuantizedContent, speaker: Tensor, prosody: Tensor,
                   ctx: Ctx) -> Tensor:
        fused = fuse(q, speaker, prosody, self.cfg.fusion)
        return self.decoder(fused, ctx)

    # -- inference -------------------------------------------------------------

    def synth_tts(self, phoneme_ids: np.ndarray, ref_mel: np.ndarray,
                  durations: np.ndarray | None = None):
        """Zero-shot TTS: content from text, speaker from a reference mel.

        With durations=None the duration predictor supplies frame counts;
        pitch always comes from the pitch predictor at inference.
        Returns (mel, f0_hz, durations_used).
        """
        ctx = Ctx.eval()
        h = self.text_encoder(np.asarray(phoneme_ids, dtype=np.intp), ctx)
        if durations is None:
            log_dur = self.duration_predictor(h, ctx)
            durations = DurationPredictor.to_frame_counts(log_dur.data)
        expanded = length_regulate(h, durations)
        q = self.quantize(expanded)
        s = self.speaker(ref_mel, ctx)
        logits = self.pitch_predictor(q, s, ctx)
        f0 = decode_f0(logits)
        p = self.prosody_encoder.from_bins(quantize_f0_array(f0))
        mel = self.synthesize(q, s, p, ctx)
        return mel.data, f0, np.asarray(durations, dtype=np.int64)

    def convert_vc(self, source_mel: np.ndarray, source_f0: np.ndarray,
                   ref_mel: np.ndarray):
        """Zero-shot VC: content and prosody from the source utterance,
        speaker identity from the reference.  Returns (mel, f0_used)."""
        ctx = Ctx.eval()
        c = self.speech_content(source_mel, ctx)
        q = self.quantize(c)
        s = self.speaker(ref_mel, ctx)
        p = self.prosody_from_f0(source_f0, ctx)
        mel = self.synthesize(q, s, p, ctx)
        return mel.data, np.asarray(source_f0, dtype=np.float64)

    # -- bookkeeping -------------------------------------------------------------

    def text_side_parameter_names(self) -> list[str]:
        return [n for n in self.store
                if n.startswith(("text_encoder.", "duration_predictor."))]
