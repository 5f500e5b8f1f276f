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
worker while the main process runs the text half, whose backward pass
writes into the packed gradient block that the speech half's gradients then
join.  The two processes split the clip and Adam update over the parameters
at `AdamState.cut`, each by parameter name over the block.  Without a worker
the same requests are answered in process.  A step's batches are a function
of the seed and the step alone, so the loop carries no batch order.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import multiprocessing
import os
import signal
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import checkpoint
from .autodiff import Tensor
from .config import TrainConfig
from .corpus import UtteranceRecord
from .encoders import quantize_f0_array
from .errors import DataError, PairingError, TrainingDiverged, UspcError
from .layers import Ctx, frames_ctx, segment_offsets
from .model import JointModel
from .optim import AdamState, adam_step, clip_global_norm, clip_scale, sums_of_squares
from .synthesis import decode_f0
from .vq import QuantizedContent, pair_loss, vq_aux_loss

W_DURATION = 0.1       # weight of the log-duration MSE; mel and VQ terms weigh 1
GRAD_CLIP_NORM = 1.0   # the joint gradient norm is clipped to this
PLATEAU_DELTA = 1e-4   # an epoch mean must beat the best by more to count


@dataclass
class LossReport:
    """Per-step scalars.  total is the weighted sum actually optimized;
    the reported pipeline losses keep auxiliary terms separate."""

    step: int = 0
    l_tts_rec: float = 0.0   # mel MSE + w_pitch * pitch CE (paired batch)
    l_pair: float = 0.0      # raw quantized-content distance
    l_duration: float = 0.0  # raw log-duration MSE
    l_vc_rec: float = 0.0    # mel MSE + w_pitch * pitch CE (speech batch)
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


def _reconstruct(batch: list[UtteranceRecord], model: JointModel, ctx: Ctx,
                 q: QuantizedContent) -> tuple[Fragment, Tensor]:
    """The back half both pipelines share, once over the packed batch:
    speaker, teacher-forced prosody bins, decode, mel MSE, pitch CE and the
    VQ aux term.  `q` is the pipeline's own packed content, framed like
    `ctx`.  Also returns the pitch logits."""
    mel = _mels(batch)
    bins = quantize_f0_array(np.concatenate([rec.f0 for rec in batch]))
    s = model.speaker_encoder(mel, ctx)
    p = model.prosody_encoder.from_bins(bins)
    mel_pred = model.synthesize(q, s, p, ctx)
    ad.release(p)  # the decoder's fusion add reads no values
    logits = model.pitch_predictor(q, s, ctx)
    frag = Fragment(quantized=q, n_utts=len(batch),
                    aux=vq_aux_loss(q, ctx.offsets) if model.use_vq else None,
                    mel=ad.mse(mel_pred, Tensor(mel), ctx.offsets),
                    pitch_ce=ad.softmax_cross_entropy(logits, bins, ctx.offsets))
    ad.release(mel_pred)  # mse keeps only the differences
    return frag, logits


def tts_step(batch: list[UtteranceRecord], model: JointModel, step: int,
             training: bool = True) -> Fragment:
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
    frag, logits = _reconstruct(batch, model, _frames_ctx(batch, model, step, training), q)
    frag.duration = ad.mse(log_dur, Tensor(np.log(durations + 1.0)), text_ctx.offsets)
    f0 = np.concatenate([rec.f0 for rec in batch])
    frag.pitch_f0_mse = float(((decode_f0(logits) - f0) ** 2).sum()) / max(f0.size, 1)
    return frag


def vc_step(batch: list[UtteranceRecord], model: JointModel, step: int,
            training: bool = True) -> Fragment:
    """Speech-only self-reconstruction; text is never consulted."""
    if not batch:
        raise DataError("vc_step needs a non-empty speech batch")
    ctx = _frames_ctx(batch, model, step, training)
    q = model.quantize(model.content_encoder(_mels(batch), ctx))
    return _reconstruct(batch, model, ctx, q)[0]


def pair_step(batch: list[UtteranceRecord], model: JointModel, step: int,
              text_quantized: QuantizedContent, training: bool = True) -> Fragment:
    """Domain loss between text-derived and speech-derived content of the
    same utterances.  `text_quantized` is the TTS pipeline's packed content
    of `batch` (`tts_step(batch, ...).quantized`)."""
    if not batch:
        raise DataError("pair_step needs a non-empty paired batch")
    ctx = _frames_ctx(batch, model, step, training)
    qs = model.quantize(model.content_encoder(_mels(batch), ctx))
    agree = int((text_quantized.codes == qs.codes).sum())
    return Fragment(quantized=qs, n_utts=len(batch),
                    aux=vq_aux_loss(qs, ctx.offsets) if model.use_vq else None,
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
        c = model.content_encoder(_mels(batch), frames_ctx(batch))
    model.codebook.seed_from_rows(c.data, model.rng)


@dataclass
class Half:
    """One half of a joint step: its `LossReport` values by field name and
    its fragments' codes and pre-quantization rows for the codebook
    bookkeeping, read before its backward pass, and its parameter gradients
    by name (only the names once a side holds them)."""

    values: dict[str, float]
    codes: list[np.ndarray]
    rows: list[np.ndarray]
    grads: dict[str, np.ndarray]


def half_step(batch: list[UtteranceRecord], model: JointModel, cfg: TrainConfig,
              step: int, n_aux: int, speech: bool = False, homes: dict | None = None) -> Half:
    """The text half of a step (`tts_step`, plus `pair_step` when both
    pipelines train) or with `speech` its speech half (`vc_step`), and a
    backward pass from rec + pair * w_pair + duration * W_DURATION + aux,
    each fragment's aux weighted by its share n_utts / n_aux of the
    utterances that ran through the VQ this step.  With `homes`, the pass
    writes each parameter's gradient into homes[name] (`AdamState.g`), with
    the bytes it gives without.  Inline and in the worker the same function
    runs, so both give the same bytes."""
    side = "vc" if speech else "tts"
    first = (vc_step if speech else tts_step)(batch, model, step)
    frags = [first]
    if not speech and cfg.trains_pair:
        frags.append(pair_step(batch, model, step, first.quantized))
    rec = first.mel + first.pitch_ce * cfg.w_pitch
    pair = frags[-1].pair if frags[-1].pair is not None else Tensor(0.0)
    duration = first.duration if first.duration is not None else Tensor(0.0)
    aux = Tensor(0.0)
    for f in frags:
        if f.aux is not None:
            aux = aux + f.aux * (f.n_utts / n_aux)

    # read before backward, which frees every value of the graph
    values = {f"l_{side}_rec": rec.item(), f"mel_{side}": first.mel.item(),
              f"pitch_ce_{side}": first.pitch_ce.item(), "l_pair": pair.item(),
              "l_duration": duration.item(), "l_vq_aux": aux.item(),
              "pitch_f0_mse": first.pitch_f0_mse, "code_agreement": frags[-1].code_agreement}
    codes = [f.quantized.codes for f in frags]
    rows = [f.quantized.continuous.data for f in frags]
    model.store.zero_grad(homes)
    try:
        ad.backward(rec + pair * cfg.w_pair + duration * W_DURATION + aux)
        grads = {name: p.grad for name, p in model.store.items() if p.grad is not None}
    finally:
        model.store.zero_grad()
    return Half(values=values, codes=codes, rows=rows, grads=grads)


def _answer(request: tuple, model: JointModel, opt: AdamState, cfg: TrainConfig, held: dict):
    """The reply to one of the three requests a step makes of the side that
    runs the speech half and the optimizer's work from `opt.cut` on:
      ("step", batch, step, n_aux): the speech `half_step` of the records
        `batch`, its gradients kept in `held`; replies the `Half`, which
        then names them only;
      ("sums", names, written): `sums_of_squares` of those gradients in the
        optimizer's gradient block, once the held ones have joined it, added
        where the text half wrote (`written`) and copied elsewhere;
      ("adam", names, t, lr, scale): `adam_step` t of those parameters at
        learning rate lr; replies None once done."""
    kind, *args = request
    if kind == "step":
        batch, step, n_aux = args
        held.clear()  # a step that diverged before its sums left them here
        half = half_step(batch, model, cfg, step, n_aux, speech=True)
        held.update(half.grads)
        half.grads = dict.fromkeys(held)
        return half
    if kind == "sums":
        names, written = args
        for name, g in held.items():  # text + speech is the bytes of speech + text
            if name in written:
                opt.g[name] += g
            else:
                opt.g[name][...] = g
        held.clear()
        return sums_of_squares(opt, names)
    names, t, opt.lr, scale = args
    return adam_step(opt, names, t, scale)


def _serve(conn, parent_end, model: JointModel, opt: AdamState, cfg: TrainConfig) -> None:
    """The worker's loop until the main process closes its end of the pipe:
    each request is `_answer`ed, and the reply, or the exception the
    request raised, is sent back."""
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the main process handles interrupts
    held: dict = {}
    while True:
        try:
            request = conn.recv()
        except EOFError:
            return
        try:
            reply = _answer(request, model, opt, cfg, held)
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
    read."""

    model: JointModel
    opt: AdamState
    cfg: TrainConfig
    request: tuple = ()
    held: dict = field(default_factory=dict)

    def send(self, *request) -> None:
        self.request = request

    def reply(self):
        return _answer(self.request, self.model, self.opt, self.cfg, self.held)


class VcWorker:
    """Runs the speech half of each joint step, and the optimizer's work on
    the parameters from `opt.cut` on, in a forked process.

    The process shares the parameters, both moments and the gradient block
    (`AdamState.for_params` packed them) and touches them only between a
    request and its reply, so the pipe orders every write either process
    makes.  The start method is fork, named explicitly since Python 3.14 no
    longer defaults to it: the worker inherits the model and the optimizer
    state instead of receiving pickled copies.  Requests and replies are
    pickled, a "step" request with its speech records.
    """

    def __init__(self, model: JointModel, opt: AdamState, cfg: TrainConfig):
        ctx = multiprocessing.get_context("fork")
        self._conn, child_end = ctx.Pipe()
        self._proc = ctx.Process(target=_serve, daemon=True, args=(
            child_end, self._conn, model, opt, cfg))
        self._proc.start()
        child_end.close()
        self._pending = False

    def send(self, *request) -> None:
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
    The text half's backward writes into the gradient block; the side joins
    the speech half's gradients to it before either range is summed.  Both
    ranges make the same calls, `sums_of_squares` and `adam_step` over their
    parameter names in the block, and no parameter's `.grad` or home is left
    set.  Adam is elementwise and the norm adds the per-parameter sums in
    store order, so the split changes no byte.  `opt` must pack `model.store`.
    """
    opt.check_packed(model.store)
    text = cfg.trains_text
    # an empty batch a half needs is a DataError from its tts_step or vc_step
    speech = not text or (cfg.trains_pair and bool(unpaired))
    # the aux term is the mean over every utterance that ran through the VQ:
    # the paired batch once per text-side fragment, the speech batch once
    n_aux = len(paired) * (int(text) + int(cfg.trains_pair)) + (len(unpaired) if speech else 0)
    side = vc_worker if vc_worker is not None else InProcess(model, opt, cfg)
    if speech:
        side.send("step", unpaired, step, n_aux)
    halves = [half_step(paired, model, cfg, step, n_aux, homes=opt.g)] if text else []
    if speech:
        halves.append(side.reply())

    report = LossReport(step=step, lr=opt.lr)
    for half in halves:
        for name, value in half.values.items():
            setattr(report, name, getattr(report, name) + value)
    # summed in the order of the objective's terms, as one graph over the
    # joint loss would sum them
    report.total = (report.l_tts_rec + report.l_vc_rec + report.l_pair * cfg.w_pair
                    + report.l_duration * W_DURATION + report.l_vq_aux)
    if not math.isfinite(report.total):
        raise TrainingDiverged(f"non-finite loss at step {step}")

    head, rest = opt.split([name for name in model.store if any(name in h.grads for h in halves)])
    side.send("sums", rest, set(halves[0].grads) if text else set())
    # the side may write any gradient until it replies
    report.grad_norm = clip_global_norm(opt, head, side.reply())
    scale = clip_scale(report.grad_norm, GRAD_CLIP_NORM)
    side.send("adam", rest, opt.t + 1, opt.lr, scale)
    adam_step(opt, head, opt.t + 1, scale)
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
    their 64-bit-interface symbols, or None where no loaded library has
    them.  The package loads no other BLAS, but a caller's process may map
    a 32-bit-interface OpenBLAS beside numpy's (scipy's, in the tests), and
    those symbols would name that one."""
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


def blas_room() -> tuple[int | None, int]:
    """numpy's OpenBLAS thread count, and the threads each of two callers
    side by side may run: per = min(count, usable CPUs // 2), 0 where that
    OpenBLAS is not found.  More threads than CPUs spin (a desk step took
    2.3x as long with a worker of two threads on two CPUs)."""
    threads = blas_threads()
    return threads, min(threads or 0, len(os.sched_getaffinity(0)) // 2)


def _pools(records: list[UtteranceRecord], cfg: TrainConfig
           ) -> tuple[list[UtteranceRecord], list[UtteranceRecord]]:
    """The paired pool and the speech pool, which holds labeled speech too."""
    labeled = [r for r in records if r.labeled] if cfg.trains_text else []
    return labeled, (list(records) if cfg.trains_pair or not cfg.trains_text else [])


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
    has not improved on the best epoch's by more than PLATEAU_DELTA for
    plateau_epochs consecutive epochs.  `stop_when(report)` may end
    training once a target is met.

    Every epoch boundary decays the learning rate and writes the checkpoint
    with the steps run so far.  The run's last boundary follows when
    max_steps or stop_when ends it, also mid-epoch, and the same rule holds
    there: one decay, one checkpoint.  The closing checkpoint is the last
    boundary's; only a run of no steps writes one after the loop.

    When both pipelines train on a speech pool, the speech half of every
    step and half the optimizer's work run in a `VcWorker` if the usable
    CPUs hold two processes of per >= 1 BLAS threads (`blas_room`).  Each
    process runs per threads, set before the fork, once the optimizer state
    has packed the parameters.  When training ends, also on an error, the
    worker stops and the main process gets its count back.
    """
    cfg.validate()
    if not records:
        raise DataError("corpus is empty")
    paired, unpaired = _pools(records, cfg)
    if cfg.trains_text and not paired:
        raise DataError("no labeled examples for a mode that trains the text pipeline")

    model, opt = JointModel.for_run(cfg)
    threads, per_process = blas_room() if cfg.trains_pair and cfg.batch_unpaired > 0 \
        else (None, 0)
    vc_worker = trace_fh = None
    try:
        if per_process:
            blas_threads(per_process)
            vc_worker = VcWorker(model, opt, cfg)
        primary, batch_primary = (paired, cfg.batch_paired) if cfg.trains_text \
            else (unpaired, max(cfg.batch_unpaired, 1))
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
            if cfg.trains_text:
                batch_p, batch_u = batch, _speech_batch(unpaired, model.rng, step, cfg.batch_unpaired)
            else:
                batch_p, batch_u = [], batch

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
            if epoch_loss < best_loss - PLATEAU_DELTA:
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
