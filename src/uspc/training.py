"""Loss assembly and the joint optimization loop.

One training step runs the text-to-speech pipeline on a paired batch, the
domain (pair) loss on the same paired examples, and the voice-conversion
pipeline on a speech-only batch, then combines everything into a single
scalar, backpropagates once, clips, and applies one Adam update.  Ablation
modes switch parts of this off without touching the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import checkpoint
from .autodiff import Tensor
from .config import TrainConfig
from .corpus import UtteranceRecord
from .encoders import quantize_f0_array
from .errors import DataError, PairingError, TrainingDiverged
from .layers import Ctx, segment_offsets
from .model import JointModel
from .optim import AdamState, adam_step, clip_global_norm
from .synthesis import decode_f0
from .vq import QuantizedContent, pair_loss, vq_aux_loss


@dataclass
class LossReport:
    """Per-step scalars.  total is the weighted sum actually optimized;
    the reported pipeline losses keep auxiliary terms separate."""

    step: int = 0
    l_tts_rec: float = 0.0   # w_mel * mel MSE + w_pitch * pitch CE (paired batch)
    l_pair: float = 0.0      # raw quantized-content distance
    l_duration: float = 0.0  # raw log-duration MSE
    l_vc_rec: float = 0.0    # w_mel * mel MSE + w_pitch * pitch CE (speech batch)
    l_vq_aux: float = 0.0    # raw codebook + commitment loss
    total: float = 0.0
    mel_tts: float = 0.0
    pitch_ce_tts: float = 0.0
    mel_vc: float = 0.0
    pitch_ce_vc: float = 0.0
    pitch_f0_mse: float = 0.0   # diagnostic: Hz-domain MSE after bin decoding
    code_agreement: float = 0.0
    grad_norm: float = 0.0
    lr: float = 0.0

    @classmethod
    def csv_header(cls) -> str:
        return ",".join(f.name for f in fields(cls))

    def csv_row(self) -> str:
        out = []
        for f in fields(self):
            v = getattr(self, f.name)
            out.append(str(v) if isinstance(v, int) else repr(float(v)))
        return ",".join(out)


def _ctx(batch: list[UtteranceRecord], lengths, model: JointModel, step: int,
         training: bool) -> Ctx:
    """Context for the batch packed along time, segment b holding
    lengths[b] rows of utterance batch[b]."""
    return Ctx(training=training, step=step, uids=tuple(rec.id for rec in batch),
               offsets=segment_offsets(lengths), rng=model.rng)


def _frames_ctx(batch: list[UtteranceRecord], model: JointModel, step: int,
                training: bool) -> Ctx:
    return _ctx(batch, [rec.n_frames for rec in batch], model, step, training)


def _mels(batch: list[UtteranceRecord]) -> np.ndarray:
    return np.concatenate([rec.mel for rec in batch])


@dataclass
class Fragment:
    """One pipeline's batch losses and its packed quantized content.  Each
    loss is the mean over utterances of the per-utterance loss; terms the
    pipeline does not produce stay None."""

    quantized: QuantizedContent
    n_utts: int
    aux: Tensor | None = None
    mel: Tensor | None = None
    pitch_ce: Tensor | None = None
    duration: Tensor | None = None
    pair: Tensor | None = None
    pitch_f0_mse: float = 0.0   # tts only
    code_agreement: float = 0.0  # pair only


def _reconstruct(batch: list[UtteranceRecord], model: JointModel, cfg: TrainConfig,
                 ctx: Ctx, q: QuantizedContent) -> tuple[Fragment, Tensor]:
    """The back half both pipelines share, once over the packed batch:
    speaker, teacher-forced prosody bins, decode, mel MSE, pitch CE and the
    VQ aux term.  `q` is the pipeline's own packed content, framed like
    `ctx`.  Also returns the pitch logits."""
    mel = _mels(batch)
    bins = quantize_f0_array(np.concatenate([rec.f0 for rec in batch]))
    s = model.speaker_encoder(mel, ctx)
    p = model.prosody_encoder.from_bins(bins)
    mel_pred = model.synthesize(q, s, p, ctx)
    logits = model.pitch_predictor(q, s, ctx)
    frag = Fragment(quantized=q, n_utts=len(batch),
                    aux=vq_aux_loss(q, cfg.vq_beta, ctx.offsets) if model.use_vq else None,
                    mel=ad.mse(mel_pred, Tensor(mel), ctx.offsets),
                    pitch_ce=ad.softmax_cross_entropy(logits, bins, ctx.offsets))
    return frag, logits


def tts_step(batch: list[UtteranceRecord], model: JointModel, cfg: TrainConfig,
             step: int, training: bool = True) -> Fragment:
    """Text pipeline on paired data, teacher-forced durations and pitch bins."""
    if not batch:
        raise DataError("tts_step needs a non-empty paired batch")
    for rec in batch:
        if not rec.labeled or rec.durations is None:
            raise DataError(f"{rec.id}: tts_step needs durations (labeled data)")
        if rec.phonemes.size == 0:
            raise DataError(f"{rec.id}: empty phoneme sequence")
        if int(rec.durations.sum()) != rec.n_frames:
            raise PairingError(f"{rec.id}: durations sum to {int(rec.durations.sum())} "
                               f"but mel has {rec.n_frames} frames")
    text_ctx = _ctx(batch, [rec.durations.size for rec in batch], model, step, training)
    durations = np.concatenate([rec.durations for rec in batch])
    q, _, h = model.tts_content(np.concatenate([rec.phonemes for rec in batch]),
                                durations, text_ctx)
    log_dur = model.duration_predictor(h, text_ctx)
    frag, logits = _reconstruct(batch, model, cfg, _frames_ctx(batch, model, step, training), q)
    frag.duration = ad.mse(log_dur, Tensor(np.log(durations + 1.0)), text_ctx.offsets)
    f0 = np.concatenate([rec.f0 for rec in batch])
    frag.pitch_f0_mse = float(((decode_f0(logits) - f0) ** 2).sum()) / max(f0.size, 1)
    return frag


def vc_step(batch: list[UtteranceRecord], model: JointModel, cfg: TrainConfig,
            step: int, training: bool = True) -> Fragment:
    """Speech-only self-reconstruction; text is never consulted."""
    if not batch:
        raise DataError("vc_step needs a non-empty speech batch")
    ctx = _frames_ctx(batch, model, step, training)
    q = model.quantize(model.content_encoder(_mels(batch), ctx))
    return _reconstruct(batch, model, cfg, ctx, q)[0]


def pair_step(batch: list[UtteranceRecord], model: JointModel, cfg: TrainConfig,
              step: int, text_quantized: QuantizedContent,
              training: bool = True) -> Fragment:
    """Domain loss between text-derived and speech-derived content of the
    same utterances.  `text_quantized` is the TTS pipeline's packed content
    of `batch` (`tts_step(batch, ...).quantized`)."""
    if not batch:
        raise DataError("pair_step needs a non-empty paired batch")
    ctx = _frames_ctx(batch, model, step, training)
    qs = model.quantize(model.content_encoder(_mels(batch), ctx))
    agree = int((text_quantized.codes == qs.codes).sum())
    return Fragment(quantized=qs, n_utts=len(batch),
                    aux=vq_aux_loss(qs, cfg.vq_beta, ctx.offsets) if model.use_vq else None,
                    pair=pair_loss(text_quantized, qs, ctx.offsets),
                    code_agreement=agree / max(qs.n_frames, 1))


def seed_codebook_from_batch(model: JointModel, batch: list[UtteranceRecord],
                             step: int = 0) -> None:
    """Data-dependent codebook init: copy encoder output rows from a batch.

    Falls back to the gaussian init when the batch provides fewer rows than
    the codebook has entries.
    """
    if not model.use_vq or not batch:
        return
    c = model.content_encoder(_mels(batch), _frames_ctx(batch, model, 0, training=False))
    model.codebook.seed_from_rows(c.data, model.rng, step)


def _pipelines(paired: list[UtteranceRecord], unpaired: list[UtteranceRecord],
               model: JointModel, cfg: TrainConfig, step: int
               ) -> tuple[Fragment | None, Fragment | None, Fragment | None]:
    """The (tts, pair, vc) fragments `cfg.mode` trains; None for a skipped one.

    tts-only skips pair and VC; vc-only runs only the speech pipeline; novq
    runs everything with identity quantization and no codebook loss.
    """
    tts = pair = vc = None
    if cfg.mode in ("full", "tts-only", "novq"):
        if not paired:
            raise DataError("this mode needs a paired batch")
        tts = tts_step(paired, model, cfg, step)
        if cfg.mode in ("full", "novq"):
            pair = pair_step(paired, model, cfg, step, tts.quantized)
    if cfg.mode in ("full", "vc-only", "novq"):
        if unpaired:
            vc = vc_step(unpaired, model, cfg, step)
        elif cfg.mode == "vc-only":
            raise DataError("vc-only mode needs a speech batch")
    return tts, pair, vc


def joint_step(paired: list[UtteranceRecord], unpaired: list[UtteranceRecord],
               model: JointModel, opt: AdamState, cfg: TrainConfig,
               step: int) -> LossReport:
    """One optimization step over the pipelines `cfg.mode` trains."""
    report = LossReport(step=step, lr=opt.lr)
    tts, pair, vc = _pipelines(paired, unpaired, model, cfg, step)
    frags = [f for f in (tts, pair, vc) if f is not None]
    tts_rec = vc_rec = pair_t = dur_t = Tensor(0.0)
    if tts is not None:
        tts_rec = tts.mel * cfg.w_mel + tts.pitch_ce * cfg.w_pitch
        dur_t = tts.duration
        report.mel_tts = tts.mel.item()
        report.pitch_ce_tts = tts.pitch_ce.item()
        report.pitch_f0_mse = tts.pitch_f0_mse
    if pair is not None:
        pair_t = pair.pair
        report.code_agreement = pair.code_agreement
    if vc is not None:
        vc_rec = vc.mel * cfg.w_mel + vc.pitch_ce * cfg.w_pitch
        report.mel_vc = vc.mel.item()
        report.pitch_ce_vc = vc.pitch_ce.item()

    # the aux term is the mean over every utterance that ran through the VQ
    aux_frags = [f for f in frags if f.aux is not None]
    n_aux = sum(f.n_utts for f in aux_frags)
    aux_t = Tensor(0.0)
    for f in aux_frags:
        aux_t = aux_t + f.aux * (f.n_utts / n_aux)
    total = (tts_rec + vc_rec + pair_t * cfg.w_pair + dur_t * cfg.w_duration
             + aux_t * cfg.w_vq)

    report.l_tts_rec = tts_rec.item()
    report.l_vc_rec = vc_rec.item()
    report.l_pair = pair_t.item()
    report.l_duration = dur_t.item()
    report.l_vq_aux = aux_t.item()
    report.total = total.item()
    if not math.isfinite(report.total):
        raise TrainingDiverged(f"non-finite loss at step {step}")

    model.store.zero_grad()
    ad.backward(total)
    report.grad_norm = clip_global_norm(model.store, cfg.grad_clip_norm)
    adam_step(model.store, opt)

    quantized = [f.quantized for f in frags]
    if model.use_vq and quantized:
        model.codebook.mark_step_usage(np.concatenate([q.codes for q in quantized]))
        model.codebook.reseed_dead_entries(
            np.concatenate([q.continuous.data for q in quantized], axis=0),
            model.rng, step, cfg.dead_code_steps)
    return report


def _pools(records: list[UtteranceRecord], mode: str
           ) -> tuple[list[UtteranceRecord], list[UtteranceRecord]]:
    labeled = [r for r in records if r.labeled]
    if mode == "tts-only":
        return labeled, []
    if mode == "vc-only":
        return [], list(records)
    return labeled, list(records)  # speech pool includes labeled speech too


def train(cfg: TrainConfig, records: list[UtteranceRecord],
          checkpoint_path=None, trace_path=None,
          stop_when=None) -> tuple[JointModel, AdamState, list[LossReport]]:
    """Run joint training until max_steps or a training-loss plateau.

    Convergence rule: stop early when the epoch's mean `LossReport.total`
    has not improved on the best epoch's by more than plateau_delta for
    plateau_epochs consecutive epochs.  `stop_when(report)` may end
    training once a target is met.

    Every epoch boundary decays the learning rate and writes the checkpoint
    with the steps run so far.  The run's last boundary follows when
    max_steps or stop_when ends it, also mid-epoch, and the same rule holds
    there: one decay, one checkpoint.  The closing checkpoint is the last
    boundary's; only a run of no steps writes one after the loop.
    """
    cfg.validate()
    if not records:
        raise DataError("corpus is empty")
    paired, unpaired = _pools(records, cfg.mode)
    if cfg.mode != "vc-only" and not paired:
        raise DataError("no labeled examples for a mode that trains the text pipeline")

    model = JointModel(cfg.model, seed=cfg.seed, use_vq=cfg.mode != "novq")
    opt = AdamState.for_params(model.store, lr=cfg.lr_init)

    primary = paired if cfg.mode != "vc-only" else unpaired
    batch_primary = cfg.batch_paired if cfg.mode != "vc-only" else max(cfg.batch_unpaired, 1)

    seed_batch = (unpaired or paired)[:max(cfg.batch_paired + cfg.batch_unpaired, 8)]
    seed_codebook_from_batch(model, seed_batch)

    trace: list[LossReport] = []
    trace_fh = None
    if trace_path is not None:
        Path(trace_path).parent.mkdir(parents=True, exist_ok=True)
        trace_fh = open(trace_path, "w", encoding="utf-8")
        trace_fh.write(LossReport.csv_header() + "\n")

    last_checkpoint = None
    best_loss = math.inf
    stale_epochs = 0
    step = 0
    stopped = False
    try:
        epoch = 0
        unpaired_order: list[int] = []
        unpaired_cursor = 0
        while step < cfg.max_steps and not stopped:
            order = model.rng.generator("data/shuffle_primary", epoch).permutation(
                len(primary)) if primary else np.array([], dtype=int)
            epoch_first_step = step
            epoch_total = 0.0
            for chunk_start in range(0, max(len(order), 1), batch_primary):
                if step >= cfg.max_steps:
                    break
                batch_p: list[UtteranceRecord] = []
                batch_u: list[UtteranceRecord] = []
                if cfg.mode != "vc-only":
                    batch_p = [primary[i] for i in order[chunk_start:chunk_start + batch_primary]]
                    if unpaired and cfg.batch_unpaired > 0:
                        for _ in range(cfg.batch_unpaired):
                            if unpaired_cursor >= len(unpaired_order):
                                unpaired_order = list(model.rng.generator(
                                    "data/shuffle_speech", step).permutation(len(unpaired)))
                                unpaired_cursor = 0
                            batch_u.append(unpaired[unpaired_order[unpaired_cursor]])
                            unpaired_cursor += 1
                else:
                    batch_u = [primary[i] for i in order[chunk_start:chunk_start + batch_primary]]

                try:
                    report = joint_step(batch_p, batch_u, model, opt, cfg, step)
                except TrainingDiverged as exc:
                    hint = f"; last good checkpoint: {last_checkpoint}" if last_checkpoint \
                        else "; no checkpoint written yet"
                    raise TrainingDiverged(str(exc) + hint) from exc
                trace.append(report)
                epoch_total += report.total
                if trace_fh is not None:
                    trace_fh.write(report.csv_row() + "\n")
                step += 1
                if stop_when is not None and stop_when(report):
                    stopped = True
                    break

            epoch += 1
            opt.lr *= cfg.lr_decay_per_epoch
            if checkpoint_path is not None:
                checkpoint.save_checkpoint(checkpoint_path, model, opt, cfg, step)
                last_checkpoint = checkpoint_path

            epoch_loss = epoch_total / (step - epoch_first_step)
            if epoch_loss < best_loss - cfg.plateau_delta:
                best_loss = epoch_loss
                stale_epochs = 0
            else:
                stale_epochs += 1
                if stale_epochs >= cfg.plateau_epochs:
                    break
    finally:
        if trace_fh is not None:
            trace_fh.close()

    if checkpoint_path is not None and last_checkpoint is None:
        checkpoint.save_checkpoint(checkpoint_path, model, opt, cfg, step)
    return model, opt, trace
