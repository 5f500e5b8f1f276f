"""Objective evaluation battery: pitch error statistics, mel-cepstral
distortion, speaker-embedding cosine analysis, and the cross-domain
phoneme-representation distance."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from itertools import combinations

import numpy as np

from . import autodiff as ad
from . import training
from .autodiff import Tensor
from .corpus import UtteranceRecord
from .encoders import expansion_map
from .errors import ShapeError, UndefinedMetricError
from .features import MelSpectrogram, mel_cepstra
from .layers import Ctx, frames_ctx, segment_offsets
from .model import JointModel
from .vq import QuantizedContent

MCD_CONST = 10.0 / np.log(10.0)
CONVERSIONS_PER_SPEAKER = 4  # zero-shot conversions `vc_acs_ratio` makes per target


@dataclass
class TtsMetrics:
    f0_rmse_hz: float
    mcd_db: float
    vuv_error_rate: float
    f0_corr: float


@dataclass
class AcsReport:
    s_acs: float
    d_acs: float
    ratio: float


def _as_f0(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).reshape(-1)


def _covoiced(ref: np.ndarray, hyp: np.ndarray) -> np.ndarray:
    if ref.shape != hyp.shape:
        raise ShapeError(f"contour lengths differ: {ref.shape[0]} vs {hyp.shape[0]}")
    return (ref > 0) & (hyp > 0)


def f0_rmse(ref, hyp) -> float:
    """RMSE in Hz over frames voiced in both contours."""
    ref, hyp = _as_f0(ref), _as_f0(hyp)
    both = _covoiced(ref, hyp)
    if not both.any():
        raise UndefinedMetricError("no frames voiced in both contours")
    diff = ref[both] - hyp[both]
    return float(np.sqrt(np.mean(diff * diff)))


def f0_corr(ref, hyp) -> float:
    """Pearson correlation over co-voiced frames."""
    ref, hyp = _as_f0(ref), _as_f0(hyp)
    both = _covoiced(ref, hyp)
    if both.sum() < 2:
        raise UndefinedMetricError("need at least 2 co-voiced frames")
    a, b = ref[both], hyp[both]
    sa, sb = a.std(), b.std()
    if sa == 0.0 or sb == 0.0:
        raise UndefinedMetricError("zero variance in a contour")
    return float(np.mean((a - a.mean()) * (b - b.mean())) / (sa * sb))


def vuv_error(ref, hyp) -> float:
    """Fraction of frames whose voiced/unvoiced flags disagree."""
    ref, hyp = _as_f0(ref), _as_f0(hyp)
    if ref.shape != hyp.shape:
        raise ShapeError(f"contour lengths differ: {ref.shape[0]} vs {hyp.shape[0]}")
    return float(np.mean((ref > 0) != (hyp > 0)))


def _as_mel(x) -> MelSpectrogram:
    return x if isinstance(x, MelSpectrogram) else MelSpectrogram(np.asarray(x))


def mcd(ref_mel, hyp_mel) -> float:
    """Mel-cepstral distortion in dB, frame-synchronous (no time warping)."""
    ref, hyp = _as_mel(ref_mel), _as_mel(hyp_mel)
    if ref.n_frames != hyp.n_frames:
        raise ShapeError(
            f"frame counts differ: {ref.n_frames} vs {hyp.n_frames} (inputs must be "
            "frame-synchronous; durations are teacher-forced in this pipeline)")
    diff = mel_cepstra(ref) - mel_cepstra(hyp)
    per_frame = MCD_CONST * np.sqrt(2.0 * (diff * diff).sum(axis=1))
    return float(per_frame.mean())


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] per row: a (n, 1, d) @ (n, d, 1) matmul makes the BLAS dot
    call `a[i] @ b[i]` and np.linalg.norm make, so the values are theirs."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def acs_ratio(embeddings: list[tuple[str, np.ndarray]]) -> AcsReport:
    """Mean cosine similarity among same-speaker pairs over cross-speaker pairs."""
    if len(embeddings) < 2:
        raise UndefinedMetricError("need at least two embeddings")
    labels = np.array([spk for spk, _ in embeddings])
    speakers = sorted(set(labels.tolist()))
    per_spk = [np.flatnonzero(labels == spk) for spk in speakers]
    if len(speakers) < 2 or any(len(v) < 2 for v in per_spk):
        raise UndefinedMetricError("need >= 2 speakers with >= 2 embeddings each")
    emb = np.array([e for _, e in embeddings], dtype=np.float64)
    norms = np.sqrt(_row_dots(emb, emb))
    if np.any(norms == 0.0):
        raise UndefinedMetricError("zero-norm speaker embedding")

    def cos(pairs: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        i = np.concatenate([p[0] for p in pairs])
        j = np.concatenate([p[1] for p in pairs])
        return _row_dots(emb[i], emb[j]) / (norms[i] * norms[j])

    # pairs in the order of itertools.combinations: within each speaker,
    # then across each pair of speakers
    same = []
    for ix in per_spk:
        i, j = np.triu_indices(len(ix), 1)
        same.append((ix[i], ix[j]))
    diff = [(np.repeat(a, len(b)), np.tile(b, len(a))) for a, b in combinations(per_spk, 2)]
    s_acs = float(np.mean(cos(same)))
    d_acs = float(np.mean(cos(diff)))
    if d_acs == 0.0:
        raise UndefinedMetricError("different-speaker similarity is exactly zero")
    return AcsReport(s_acs=s_acs, d_acs=d_acs, ratio=s_acs / d_acs)


def phoneme_center_distance(vectors_p: np.ndarray, vectors_s: np.ndarray,
                            durations: np.ndarray) -> float:
    """Mean L2 distance between per-phoneme cluster centers of two
    frame-aligned representation sequences.

    Frames are grouped per phoneme occurrence via the duration expansion
    map; zero-duration phonemes contribute no frames and are skipped.
    """
    durations = np.asarray(durations, dtype=np.int64)
    if vectors_p.shape != vectors_s.shape or vectors_p.shape[0] != durations.sum():
        raise ShapeError("representation sequences must be frame-aligned")
    present = durations > 0
    if not present.any():
        raise UndefinedMetricError("all phonemes had zero duration")
    counts = durations[present][:, None]
    diff = (ad.run_sums(vectors_p, durations)[present] / counts
            - ad.run_sums(vectors_s, durations)[present] / counts)
    return float(np.mean(np.sqrt(_row_dots(diff, diff))))


def _frame_slices(records: list[UtteranceRecord]) -> list[slice]:
    """Each record's rows when the records' frames are packed in order."""
    offsets = segment_offsets([rec.n_frames for rec in records]).tolist()
    return [slice(lo, hi) for lo, hi in zip(offsets[:-1], offsets[1:])]


def _packed_rows(records: list[UtteranceRecord], picks: list[int]) -> np.ndarray:
    """Rows of records[i] for each i in `picks`, in that order, within the
    packing of all `records`."""
    slices = _frame_slices(records)
    return np.concatenate([np.arange(slices[i].start, slices[i].stop) for i in picks])


def phoneme_rep_distance(records: list[UtteranceRecord], text_vectors: np.ndarray,
                         speech_vectors: np.ndarray) -> float:
    """Mean over labeled utterances of phoneme_center_distance between the
    quantized content from the text path and from the speech path.  Both
    arrays hold the records' frames packed in order."""
    if not records:
        raise UndefinedMetricError("no utterances")
    dists = []
    for rec, rows in zip(records, _frame_slices(records)):
        if not rec.labeled:
            raise UndefinedMetricError(f"{rec.id}: needs text and durations")
        dists.append(phoneme_center_distance(text_vectors[rows], speech_vectors[rows],
                                             rec.durations))
    return float(np.mean(dists))


def _by_speaker(records: list[UtteranceRecord]) -> dict[str, list[int]]:
    """Each speaker's record indices, in record order."""
    by_speaker: dict[str, list[int]] = {}
    for i, rec in enumerate(records):
        by_speaker.setdefault(rec.speaker_id, []).append(i)
    return by_speaker


def vc_acs_ratio(records: list[UtteranceRecord], model: JointModel, speakers: np.ndarray,
                 speech: QuantizedContent) -> AcsReport:
    """Zero-shot conversion quality as an ACS ratio over generated speech.

    Each target speaker receives several conversions from other speakers'
    utterances; the outputs are embedded with the model's own speaker
    encoder and labeled with the TARGET speaker.  A model whose decoder
    ignores the reference voice produces conversions that do not cluster by
    target, driving the ratio toward 1.

    `speakers` holds each record's speaker embedding (B, d) and `speech` the
    records' quantized speech content, frames packed in order.  All
    conversions decode as one packed batch and are embedded as another.
    """
    by_speaker = _by_speaker(records)
    targets = sorted(by_speaker)
    if len(targets) < 2:
        raise UndefinedMetricError("need at least two speakers for conversions")
    labels, sources, refs = [], [], []
    for si, target in enumerate(targets):
        pool = [i for i, rec in enumerate(records) if rec.speaker_id != target]
        for k in range(CONVERSIONS_PER_SPEAKER):
            # a different reference utterance per conversion: same-target
            # outputs share only the voice, never the exact reference input
            labels.append(target)
            refs.append(by_speaker[target][k % len(by_speaker[target])])
            sources.append(pool[(si + k * 7) % len(pool)])
    ctx = frames_ctx([records[i] for i in sources])
    q = speech.take(_packed_rows(records, sources))
    f0 = np.concatenate([records[i].f0 for i in sources])
    converted = model.decode_vc(q, Tensor(speakers[refs]), f0, ctx)
    return acs_ratio(list(zip(labels, model.speaker_encoder(converted, ctx).data)))


def code_agreement_rates(records: list[UtteranceRecord], codes: np.ndarray
                         ) -> tuple[float, float]:
    """Disentanglement probe on the speech-side codes.

    `codes` holds the records' frame codes packed in order; the frames of
    labeled records take part.  Returns (cross-speaker same-phoneme
    agreement, within-speaker different-phoneme agreement): a content code
    that tracks phonemes and ignores speakers makes the first high and the
    second low.
    """
    labeled = [(rec, rows) for rec, rows in zip(records, _frame_slices(records))
               if rec.labeled]
    if not labeled:
        return 0.0, 0.0
    speaker_index = {spk: i for i, spk in enumerate(sorted({r.speaker_id for r, _ in labeled}))}
    speaker = np.concatenate([np.full(rec.n_frames, speaker_index[rec.speaker_id])
                              for rec, _ in labeled])
    phoneme = np.concatenate([rec.phonemes[expansion_map(rec.durations)]
                              for rec, _ in labeled])
    code = np.concatenate([codes[rows] for _, rows in labeled])
    rng = np.random.default_rng(0)
    if code.size > 400:
        pick = rng.choice(code.size, 400, replace=False)
        speaker, phoneme, code = speaker[pick], phoneme[pick], code[pick]
    i, j = np.triu_indices(code.size, k=1)
    same_ph = phoneme[i] == phoneme[j]
    same_spk = speaker[i] == speaker[j]
    agree = code[i] == code[j]
    same_ph_cross_spk = agree[same_ph & ~same_spk]
    diff_ph_within_spk = agree[~same_ph & same_spk]
    a = float(np.mean(same_ph_cross_spk)) if same_ph_cross_spk.size else 0.0
    b = float(np.mean(diff_ph_within_spk)) if diff_ph_within_spk.size else 0.0
    return a, b


# -- evaluation driver -----------------------------------------------------------


@dataclass
class EvalResult:
    per_utterance: dict[str, TtsMetrics]
    mel_mse: dict[str, float]
    mean_metrics: TtsMetrics
    mean_mel_mse: float
    acs: AcsReport | None          # over ground-truth utterance embeddings
    vc_acs: AcsReport | None       # over zero-shot conversion outputs
    phoneme_distance: float | None
    same_ph_cross_spk_agreement: float
    diff_ph_within_spk_agreement: float


def _reference_map(records: list[UtteranceRecord]) -> list[int]:
    """Deterministic reference utterance per record, as an index into
    `records`: the speaker's next one."""
    ref = [0] * len(records)
    for rows in _by_speaker(records).values():
        for k, i in enumerate(rows):
            ref[i] = rows[(k + 1) % len(rows)]
    return ref


def _nanmean(values: list[float]) -> float:
    """Mean of the defined values; NaN, without a warning, when none is."""
    arr = np.asarray(values, dtype=np.float64)
    return float(np.nanmean(arr)) if (~np.isnan(arr)).any() else float("nan")


def _defined(metric, *args):
    """metric(*args), or None where it is undefined."""
    try:
        return metric(*args)
    except UndefinedMetricError:
        return None


def _speech_side(records: list[UtteranceRecord], model: JointModel, mels: np.ndarray,
                 ctx: Ctx, speakers: np.ndarray):
    """The split's quantized speech content, its ACS and VC ACS reports, and
    its code agreement rates."""
    speech = model.quantize(model.content_encoder(mels, ctx))
    return (speech, _defined(acs_ratio, list(zip([rec.speaker_id for rec in records], speakers))),
            _defined(vc_acs_ratio, records, model, speakers, speech),
            code_agreement_rates(records, speech.codes))


def _text_side(records: list[UtteranceRecord], labeled: list[int], model: JointModel,
               speakers: np.ndarray):
    """The quantized text content of records[labeled], and each one's TTS
    metrics and mel MSE, synthesized with its reference's embedding."""
    lab_recs = [records[i] for i in labeled]
    refs = _reference_map(records)
    text_ctx = Ctx(offsets=segment_offsets([rec.phonemes.size for rec in lab_recs]))
    text, _, _ = model.tts_content(np.concatenate([rec.phonemes for rec in lab_recs]),
                                   np.concatenate([rec.durations for rec in lab_recs]),
                                   text_ctx)
    mel_pred, f0_pred = model.decode_tts(
        text, Tensor(speakers[[refs[i] for i in labeled]]), frames_ctx(lab_recs))
    per_utt, mel_mse = {}, {}
    for rec, span in zip(lab_recs, _frame_slices(lab_recs)):
        mel_mse[rec.id] = float(np.mean((mel_pred[span] - rec.mel) ** 2))
        per_utt[rec.id] = _tts_metrics(rec, mel_pred[span], f0_pred[span])
    return text, per_utt, mel_mse


def _side_by_side(first, second) -> tuple:
    """(first(), second()).  Where the usable CPUs hold two callers of
    numpy's current OpenBLAS thread count (`training.blas_room`; the count
    is never set here), second runs on a helper thread meanwhile: nearly
    all of both is BLAS work, which runs without the GIL.  Elsewhere, and
    where the count is unknown, they run one after the other.  The helper
    is joined before this returns, also when either raises, and second's
    exception reaches the caller unchanged."""
    threads, per = training.blas_room()
    if not 0 < per == threads:
        return first(), second()
    with ThreadPoolExecutor(max_workers=1) as helper:
        pending = helper.submit(second)
        return first(), pending.result()


def evaluate(records: list[UtteranceRecord], model: JointModel) -> EvalResult:
    """Zero-shot TTS metrics over a (held-out) split.

    Durations are teacher-forced so reference and synthesis stay
    frame-synchronous; pitch is predicted, and the speaker embedding comes
    from the speaker's next utterance (`_reference_map`), which for a
    speaker with one utterance is that utterance itself.

    The split is one packed batch: the speaker encoder, the content encoder
    and the TTS pipeline each run once over it, and their outputs serve
    every metric that reads them.  Once the speaker embeddings exist, the
    speech side (content, ACS, the VC conversions, code agreement) and the
    text side (TTS content, decoding, per-utterance metrics) share no data,
    and `_side_by_side` runs the text side on a helper thread where the
    CPUs have room; the phoneme distance reads both and runs after it.
    Neither side reads the other's values or sets the BLAS thread count, so
    the result is the same bytes either way.

    Nothing backpropagates, so it runs with the parameters frozen: no graph
    is built.  Peak memory at desk size is about 7 MB with the sides in
    turn and 10 MB with both alive at once, against 44 MB for a
    graph-building pass.
    """
    with model.store.frozen():
        labeled = [i for i, rec in enumerate(records) if rec.labeled]
        per_utt: dict[str, TtsMetrics] = {}
        mel_mse: dict[str, float] = {}
        acs = vc_acs = phoneme_distance = None
        agreement = 0.0, 0.0

        if records:
            ctx = frames_ctx(records)
            mels = np.concatenate([rec.mel for rec in records])
            speakers = model.speaker_encoder(mels, ctx).data
            if labeled:
                (speech, acs, vc_acs, agreement), (text, per_utt, mel_mse) = _side_by_side(
                    lambda: _speech_side(records, model, mels, ctx, speakers),
                    lambda: _text_side(records, labeled, model, speakers))
                phoneme_distance = phoneme_rep_distance(
                    [records[i] for i in labeled], text.vectors.data,
                    speech.vectors.data[_packed_rows(records, labeled)])
            else:
                _, acs, vc_acs, agreement = _speech_side(records, model, mels, ctx, speakers)

        return EvalResult(
            per_utterance=per_utt,
            mel_mse=mel_mse,
            mean_metrics=TtsMetrics(**{f.name: _nanmean([getattr(m, f.name)
                                                          for m in per_utt.values()])
                                       for f in fields(TtsMetrics)}),
            mean_mel_mse=float(np.mean(list(mel_mse.values()))) if mel_mse else float("nan"),
            acs=acs,
            vc_acs=vc_acs,
            phoneme_distance=phoneme_distance,
            same_ph_cross_spk_agreement=agreement[0],
            diff_ph_within_spk_agreement=agreement[1])


def _tts_metrics(rec: UtteranceRecord, mel_pred: np.ndarray, f0_pred: np.ndarray
                 ) -> TtsMetrics:
    """One synthesized utterance against its ground truth; the f0 error and
    correlation are NaN where undefined."""
    try:
        rmse, corr = f0_rmse(rec.f0, f0_pred), f0_corr(rec.f0, f0_pred)
    except UndefinedMetricError:
        rmse = corr = float("nan")
    return TtsMetrics(f0_rmse_hz=rmse, mcd_db=mcd(rec.mel, mel_pred),
                      vuv_error_rate=vuv_error(rec.f0, f0_pred), f0_corr=corr)


def _tts_rows(who: str, m: TtsMetrics, mel_mse: float) -> list[str]:
    return [f"{f.name},{who},{getattr(m, f.name)!r}" for f in fields(TtsMetrics)] \
        + [f"mel_mse,{who},{mel_mse!r}"]


def eval_summary_rows(result: EvalResult) -> list[str]:
    """The eval CSV's rows over the whole split: `mean` and `all`."""
    lines = _tts_rows("mean", result.mean_metrics, result.mean_mel_mse)
    for prefix, report in (("", result.acs), ("vc_", result.vc_acs)):
        if report is not None:
            lines += [f"{prefix}s_acs,all,{report.s_acs!r}",
                      f"{prefix}d_acs,all,{report.d_acs!r}",
                      f"{prefix}acs_ratio,all,{report.ratio!r}"]
    if result.phoneme_distance is not None:
        lines.append(f"phoneme_rep_distance,mean,{result.phoneme_distance!r}")
    return lines + [
        f"same_phoneme_cross_speaker_agreement,all,{result.same_ph_cross_spk_agreement!r}",
        f"diff_phoneme_within_speaker_agreement,all,{result.diff_ph_within_spk_agreement!r}"]


def eval_result_csv(result: EvalResult) -> str:
    """Flat CSV: per-utterance metric rows then the summary rows."""
    lines = ["metric,utterance,value"]
    for uid, m in sorted(result.per_utterance.items()):
        lines += _tts_rows(uid, m, result.mel_mse[uid])
    return "\n".join(lines + eval_summary_rows(result)) + "\n"
