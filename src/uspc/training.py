"""Loss assembly and the joint optimization loop.

One training step runs the text-to-speech pipeline on a paired batch, the
domain (pair) loss on the same paired examples, and the voice-conversion
pipeline on a speech-only batch, then sums the weighted losses, clips the
summed gradients and applies one Adam update.  Ablation modes switch parts
of this off without touching the rest.

A step has two halves that share parameters but no graph node: the text
half (TTS and pair) and the speech half (VC).  `half_step` builds either
one with a backward pass of its own, and each parameter's gradient is the
sum of the halves'.  That is bitwise the gradient one backward pass over
the joint loss gives, and it lets `train()` run the speech half in a forked
worker while the main process runs the text half.  The two processes then
split the clip and Adam update over the parameters at `AdamState.cut`.
Without a worker the same requests are answered in process.  A step's
batches are a function of the seed and the step alone, so the loop
carries no batch order.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import multiprocessing
import os
import signal
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import checkpoint
from .autodiff import Tensor
from .config import TrainConfig
from .corpus import UtteranceRecord
from .encoders import quantize_f0_array
from .errors import DataError, PairingError, TrainingDiverged, UspcError
from .layers import Ctx, segment_offsets
from .model import JointModel
from .optim import (AdamState, ParamStore, adam_step, adam_update, clip_global_norm,
                    clip_scale, sums_of_squares)
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


def seed_codebook_from_batch(model: JointModel, batch: list[UtteranceRecord]) -> None:
    """Data-dependent codebook init: copy encoder output rows from a batch.

    Falls back to the gaussian init when the batch provides fewer rows than
    the codebook has entries.
    """
    if not model.use_vq or not batch:
        return
    with model.store.frozen():  # no graph: only the rows are read
        c = model.content_encoder(_mels(batch), _frames_ctx(batch, model, 0, training=False))
    model.codebook.seed_from_rows(c.data, model.rng)


@dataclass
class Half:
    """One half of a joint step after its backward pass: its `LossReport`
    values by field name, its fragments' codes and pre-quantization rows
    for the codebook bookkeeping, and its parameter gradients by name."""

    values: dict[str, float]
    codes: list[np.ndarray]
    rows: list[np.ndarray]
    grads: dict[str, np.ndarray]


def half_step(batch: list[UtteranceRecord], model: JointModel, cfg: TrainConfig,
              step: int, n_aux: int, speech: bool = False) -> Half:
    """The text half of a step (`tts_step`, plus `pair_step` when both
    pipelines train) or with `speech` its speech half (`vc_step`), and a
    backward pass from rec + pair * w_pair + duration * w_duration +
    aux * w_vq, each fragment's aux weighted by its share n_utts / n_aux of
    the utterances that ran through the VQ this step.  Inline and in the
    worker the same function runs, so both give the same bytes."""
    side = "vc" if speech else "tts"
    first = (vc_step if speech else tts_step)(batch, model, cfg, step)
    frags = [first]
    if not speech and cfg.mode in ("full", "novq"):
        frags.append(pair_step(batch, model, cfg, step, first.quantized))
    rec = first.mel * cfg.w_mel + first.pitch_ce * cfg.w_pitch
    pair = frags[-1].pair if frags[-1].pair is not None else Tensor(0.0)
    duration = first.duration if first.duration is not None else Tensor(0.0)
    aux = Tensor(0.0)
    for f in frags:
        if f.aux is not None:
            aux = aux + f.aux * (f.n_utts / n_aux)

    model.store.zero_grad()
    ad.backward(rec + pair * cfg.w_pair + duration * cfg.w_duration + aux * cfg.w_vq)
    grads = {name: p.grad for name, p in model.store.items() if p.grad is not None}
    model.store.zero_grad()
    values = {f"l_{side}_rec": rec.item(), f"mel_{side}": first.mel.item(),
              f"pitch_ce_{side}": first.pitch_ce.item(), "l_pair": pair.item(),
              "l_duration": duration.item(), "l_vq_aux": aux.item(),
              "pitch_f0_mse": first.pitch_f0_mse, "code_agreement": frags[-1].code_agreement}
    return Half(values=values, codes=[f.quantized.codes for f in frags],
                rows=[f.quantized.continuous.data for f in frags], grads=grads)


def _answer(request: tuple, model: JointModel, opt: AdamState, cfg: TrainConfig):
    """The reply to one of the three requests a step makes of the side that
    runs the speech half and the optimizer's work from `opt.cut` on:
      ("step", batch, step, n_aux): the speech `half_step`, its gradients
        copied into the optimizer's gradient block; replies the `Half`,
        which then names them only;
      ("sums", names): `sums_of_squares` of those gradients in the block,
        once the text half's have joined them;
      ("adam", names, t, lr, scale): `adam_update` of those parameters at
        step t; replies None once done."""
    kind, *args = request
    if kind == "step":
        batch, step, n_aux = args
        half = half_step(batch, model, cfg, step, n_aux, speech=True)
        for name, g in half.grads.items():
            opt.g[name][...] = g
        half.grads = dict.fromkeys(half.grads)
        return half
    if kind == "sums":
        return sums_of_squares([(name, opt.g[name]) for name in args[0]])
    names, opt.t, opt.lr, scale = args
    return adam_update(opt, names, scale)


def _serve(conn, parent_end, model: JointModel, opt: AdamState, cfg: TrainConfig,
           pool: list[UtteranceRecord]) -> None:
    """The worker's loop until the main process closes its end of the pipe:
    each request, a "step" request's pool indices turned into records, is
    `_answer`ed, and the reply, or the exception the request raised, is
    sent back."""
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the main process handles interrupts
    while True:
        try:
            request = conn.recv()
        except EOFError:
            return
        try:
            if request[0] == "step":
                request = ("step", [pool[i] for i in request[1]], *request[2:])
            reply = _answer(request, model, opt, cfg)
        except Exception as exc:  # noqa: BLE001 - the main process raises it
            reply = exc
        try:
            conn.send(reply)
        except BrokenPipeError:
            return


@dataclass
class InProcess:
    """The side of a step that runs in the calling process when no
    `VcWorker` does: the same requests, each `_answer`ed when its reply is
    read.  Answering at `send` would differ: the "adam" request carries
    `opt.t + 1`, and `adam_step` then advances `opt.t` itself."""

    model: JointModel
    opt: AdamState
    cfg: TrainConfig
    request: tuple = ()

    def send(self, *request) -> None:
        self.request = request

    def reply(self):
        return _answer(self.request, self.model, self.opt, self.cfg)


class VcWorker:
    """Runs the speech half of each joint step, and the optimizer's work on
    the parameters from `opt.cut` on, in a forked process.

    The process shares the parameters, both moments and the gradient block
    (`AdamState.for_params` packed them) and touches them only between a
    request and its reply, so the pipe orders every write either process
    makes.  The start method is fork, named explicitly since Python 3.14 no
    longer defaults to it: the worker inherits the model, the optimizer
    state and the speech pool instead of receiving pickled copies.
    """

    def __init__(self, model: JointModel, opt: AdamState, cfg: TrainConfig,
                 pool: list[UtteranceRecord]):
        self._index = {id(rec): i for i, rec in enumerate(pool)}
        ctx = multiprocessing.get_context("fork")
        self._conn, child_end = ctx.Pipe()
        self._proc = ctx.Process(target=_serve, daemon=True, args=(
            child_end, self._conn, model, opt, cfg, pool))
        self._proc.start()
        child_end.close()
        self._pending = False

    def send(self, *request) -> None:
        """Send `request`; a "step" request's batch, which must come from
        the worker's pool, travels as indices into it."""
        if request[0] == "step":
            request = ("step", [self._index[id(rec)] for rec in request[1]], *request[2:])
        try:
            self._conn.send(request)
        except OSError:
            self._died()
        self._pending = True

    def reply(self):
        """The reply to the last request; an exception it raised is raised here."""
        try:
            reply = self._conn.recv()
        except EOFError:
            self._died()
        self._pending = False
        if isinstance(reply, BaseException):
            raise reply
        return reply

    def _died(self) -> None:
        self._pending = False
        self._proc.join()
        raise UspcError(f"VC worker exited with code {self._proc.exitcode}") from None

    def close(self) -> None:
        self._conn.close()
        if self._pending:  # mid-request: nothing will read its reply
            self._proc.terminate()
        self._proc.join()


def joint_step(paired: list[UtteranceRecord], unpaired: list[UtteranceRecord],
               model: JointModel, opt: AdamState, cfg: TrainConfig,
               step: int, vc_worker: VcWorker | None = None) -> LossReport:
    """One optimization step over the pipelines `cfg.mode` trains.

    tts-only skips pair and VC; vc-only runs only the speech pipeline; novq
    runs everything with identity quantization and no codebook loss.  Each
    parameter's gradient is the sum of the text and speech `half_step`s'.
    The clip and Adam update are split at `opt.cut`: the main process does
    the parameters before it.  The speech half and the parameters from the
    cut on are requests to a side: `vc_worker`, which runs them meanwhile,
    or else an `InProcess` one, which runs them when their replies are read.
    Adam is elementwise and the norm adds the per-parameter sums in store
    order, so the split changes no byte.  `opt` must pack `model.store`.
    """
    opt.check_packed(model.store)
    text = cfg.mode != "vc-only"
    # an empty batch a half needs is a DataError from its tts_step or vc_step
    speech = not text or (cfg.mode != "tts-only" and bool(unpaired))
    # the aux term is the mean over every utterance that ran through the VQ:
    # the paired batch once per text-side fragment, the speech batch once
    n_aux = len(paired) * (int(text) + int(cfg.mode in ("full", "novq"))) \
        + (len(unpaired) if speech else 0)
    side = vc_worker if vc_worker is not None else InProcess(model, opt, cfg)
    if speech:
        side.send("step", unpaired, step, n_aux)
    halves = [half_step(paired, model, cfg, step, n_aux)] if text else []
    if speech:
        halves.append(side.reply())

    report = LossReport(step=step, lr=opt.lr)
    for half in halves:
        for name, value in half.values.items():
            setattr(report, name, getattr(report, name) + value)
    # summed in the order of the objective's terms, as one graph over the
    # joint loss would sum them
    report.total = (report.l_tts_rec + report.l_vc_rec + report.l_pair * cfg.w_pair
                    + report.l_duration * cfg.w_duration + report.l_vq_aux * cfg.w_vq)
    if not math.isfinite(report.total):
        raise TrainingDiverged(f"non-finite loss at step {step}")

    # the speech half's gradients are in the block; the text half's join
    # them in place (speech + text is the bytes of text + speech), the
    # side's range first so that a worker's sums start while the rest is added
    spoken = halves[-1].grads if speech else {}
    written = halves[0].grads if text else {}
    head, rest = opt.split([name for name in model.store if name in spoken or name in written])

    def merge(names: list[str]) -> None:
        for name in names:
            if name in written and name in spoken:
                opt.g[name] += written[name]
            elif name in written:
                opt.g[name][...] = written[name]
            model.store[name].grad = opt.g[name]

    merge(rest)
    side.send("sums", rest)
    merge(head)
    share = ParamStore((name, model.store[name]) for name in head)
    report.grad_norm = clip_global_norm(share, side.reply)
    scale = clip_scale(report.grad_norm, cfg.grad_clip_norm)
    side.send("adam", rest, opt.t + 1, opt.lr, scale)  # adam_step advances t
    adam_step(share, opt, scale)
    side.reply()  # done: the bookkeeping below may write what it updated

    if model.use_vq:
        model.codebook.mark_step_usage(np.concatenate([c for half in halves for c in half.codes]))
        model.codebook.reseed_dead_entries(
            np.concatenate([r for half in halves for r in half.rows], axis=0),
            model.rng, step, cfg.dead_code_steps)
    return report


@functools.cache
def _openblas_thread_calls():
    """The get and set thread-count functions of numpy's OpenBLAS, found by
    their 64-bit-interface symbols (scipy maps a 32-bit OpenBLAS beside
    it), or None where no loaded library has them."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib, prefix in itertools.product(libs, ("scipy_openblas", "openblas")):
        get, put = (getattr(ctypes.CDLL(lib), f"{prefix}_{op}_num_threads64_", None)
                    for op in ("get", "set"))
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


def blas_threads(n: int | None = None) -> int | None:
    """The thread count of numpy's OpenBLAS, after setting it to `n` if
    given; None when that OpenBLAS is not found."""
    calls = _openblas_thread_calls()
    if calls is not None and n is not None:
        calls[1](n)
    return calls[0]() if calls is not None else None


def _pools(records: list[UtteranceRecord], mode: str
           ) -> tuple[list[UtteranceRecord], list[UtteranceRecord]]:
    labeled = [r for r in records if r.labeled]
    if mode == "tts-only":
        return labeled, []
    if mode == "vc-only":
        return [], list(records)
    return labeled, list(records)  # speech pool includes labeled speech too


def _speech_batch(pool: list[UtteranceRecord], rng, step: int,
                  size: int) -> list[UtteranceRecord]:
    """Draws step * size .. (step + 1) * size - 1 of one endless walk over
    the speech pool in a fresh order each pass, none from an empty pool:
    pass k is the `data/shuffle_speech` permutation at the step of its
    first draw, k * len(pool) // size."""
    n, draws = len(pool), range(step * size, (step + 1) * size) if pool else ()
    orders = {k: rng.generator("data/shuffle_speech", k * n // size).permutation(n)
              for k in {i // n for i in draws}}
    return [pool[orders[i // n][i % n]] for i in draws]


def train(cfg: TrainConfig, records: list[UtteranceRecord],
          checkpoint_path=None, trace_path=None,
          stop_when=None) -> tuple[JointModel, AdamState, list[LossReport]]:
    """Run joint training until max_steps or a training-loss plateau.

    Step s trains on chunk s % E of epoch s // E's `data/shuffle_primary`
    permutation of the paired pool (the speech pool in vc-only mode), E
    steps to an epoch, and in a text mode on `_speech_batch` of step s.

    Convergence rule: stop early when the epoch's mean `LossReport.total`
    has not improved on the best epoch's by more than plateau_delta for
    plateau_epochs consecutive epochs.  `stop_when(report)` may end
    training once a target is met.

    Every epoch boundary decays the learning rate and writes the checkpoint
    with the steps run so far.  The run's last boundary follows when
    max_steps or stop_when ends it, also mid-epoch, and the same rule holds
    there: one decay, one checkpoint.  The closing checkpoint is the last
    boundary's; only a run of no steps writes one after the loop.

    When both pipelines train on a speech pool, the speech half of every
    step and half the optimizer's work run in a `VcWorker` if the usable
    CPUs hold two processes of per = min(OpenBLAS's count, CPUs // 2) >= 1
    BLAS threads (more threads than CPUs spin: a desk step took 2.3x as
    long).  Each process runs per threads, set before the fork, once the
    optimizer state has packed the parameters.  When training ends, also on
    an error, the worker stops and the main process gets its count back.
    """
    cfg.validate()
    if not records:
        raise DataError("corpus is empty")
    paired, unpaired = _pools(records, cfg.mode)
    if cfg.mode != "vc-only" and not paired:
        raise DataError("no labeled examples for a mode that trains the text pipeline")

    model = JointModel(cfg.model, seed=cfg.seed, use_vq=cfg.mode != "novq")
    opt = AdamState.for_params(model.store, lr=cfg.lr_init)
    threads = blas_threads() if cfg.mode in ("full", "novq") and unpaired \
        and cfg.batch_unpaired > 0 else None
    per_process = min(threads or 0, len(os.sched_getaffinity(0)) // 2)
    vc_worker = trace_fh = None
    try:
        if per_process:
            blas_threads(per_process)
            vc_worker = VcWorker(model, opt, cfg, unpaired)
        primary = paired if cfg.mode != "vc-only" else unpaired
        batch_primary = cfg.batch_paired if cfg.mode != "vc-only" else max(cfg.batch_unpaired, 1)
        steps_per_epoch = math.ceil(len(primary) / batch_primary)

        seed_codebook_from_batch(
            model, (unpaired or paired)[:max(cfg.batch_paired + cfg.batch_unpaired, 8)])

        trace: list[LossReport] = []
        if trace_path is not None:
            Path(trace_path).parent.mkdir(parents=True, exist_ok=True)
            trace_fh = open(trace_path, "w", encoding="utf-8")
            trace_fh.write(LossReport.csv_header() + "\n")

        last_checkpoint = None
        best_loss, stale_epochs, epoch_total = math.inf, 0, 0.0
        for step in range(cfg.max_steps):
            epoch, chunk = divmod(step, steps_per_epoch)
            order = model.rng.generator("data/shuffle_primary", epoch).permutation(len(primary))
            batch = [primary[i] for i in order[chunk * batch_primary:(chunk + 1) * batch_primary]]
            if cfg.mode == "vc-only":
                batch_p, batch_u = [], batch
            else:
                batch_p, batch_u = batch, _speech_batch(unpaired, model.rng, step, cfg.batch_unpaired)

            try:
                report = joint_step(batch_p, batch_u, model, opt, cfg, step, vc_worker=vc_worker)
            except TrainingDiverged as exc:
                hint = f"; last good checkpoint: {last_checkpoint}" if last_checkpoint \
                    else "; no checkpoint written yet"
                raise TrainingDiverged(str(exc) + hint) from exc
            trace.append(report)
            epoch_total += report.total
            if trace_fh is not None:
                trace_fh.write(report.csv_row() + "\n")
            stop = stop_when is not None and stop_when(report)
            if chunk + 1 < steps_per_epoch and step + 1 < cfg.max_steps and not stop:
                continue

            opt.lr *= cfg.lr_decay_per_epoch
            if checkpoint_path is not None:
                checkpoint.save_checkpoint(checkpoint_path, model, opt, cfg, len(trace))
                last_checkpoint = checkpoint_path
            epoch_loss = epoch_total / (chunk + 1)
            epoch_total = 0.0
            if epoch_loss < best_loss - cfg.plateau_delta:
                best_loss, stale_epochs = epoch_loss, 0
            else:
                stale_epochs += 1
                if stale_epochs >= cfg.plateau_epochs:
                    break
            if stop:
                break
    finally:
        if trace_fh is not None:
            trace_fh.close()
        if vc_worker is not None:
            vc_worker.close()
        if per_process:
            blas_threads(threads)

    if checkpoint_path is not None and last_checkpoint is None:
        checkpoint.save_checkpoint(checkpoint_path, model, opt, cfg, 0)
    return model, opt, trace
