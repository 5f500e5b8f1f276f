"""Objective evaluation battery: pitch error statistics, mel-cepstral
distortion, speaker-embedding cosine analysis, and the cross-domain
phoneme-representation distance."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .autodiff import Tensor
from .corpus import UtteranceRecord
from .encoders import expansion_map
from .errors import ShapeError, UndefinedMetricError
from .features import MelSpectrogram, mel_cepstra
from .layers import Ctx
from .model import JointModel

MCD_CONST = 10.0 / np.log(10.0)


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


def acs_ratio(embeddings: list[tuple[str, np.ndarray]]) -> AcsReport:
    """Mean cosine similarity among same-speaker pairs over cross-speaker pairs."""
    if len(embeddings) < 2:
        raise UndefinedMetricError("need at least two embeddings")
    speakers = sorted({spk for spk, _ in embeddings})
    per_spk = {spk: [e for s, e in embeddings if s == spk] for spk in speakers}
    if len(speakers) < 2 or any(len(v) < 2 for v in per_spk.values()):
        raise UndefinedMetricError("need >= 2 speakers with >= 2 embeddings each")

    def cos(a, b):
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na == 0.0 or nb == 0.0:
            raise UndefinedMetricError("zero-norm speaker embedding")
        return float(a @ b / (na * nb))

    same = [cos(a, b) for spk in speakers for a, b in combinations(per_spk[spk], 2)]
    diff = [cos(a, b)
            for s1, s2 in combinations(speakers, 2)
            for a in per_spk[s1] for b in per_spk[s2]]
    s_acs = float(np.mean(same))
    d_acs = float(np.mean(diff))
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
    frame_ph = expansion_map(durations)
    if vectors_p.shape != vectors_s.shape or vectors_p.shape[0] != frame_ph.size:
        raise ShapeError("representation sequences must be frame-aligned")
    dists = []
    for pos in range(np.asarray(durations).size):
        mask = frame_ph == pos
        if not mask.any():
            continue
        center_p = vectors_p[mask].mean(axis=0)
        center_s = vectors_s[mask].mean(axis=0)
        dists.append(float(np.linalg.norm(center_p - center_s)))
    if not dists:
        raise UndefinedMetricError("all phonemes had zero duration")
    return float(np.mean(dists))


def phoneme_rep_distance(rec: UtteranceRecord, model: JointModel) -> float:
    """phoneme_center_distance over one utterance's quantized content from
    the text path versus the speech path."""
    if not rec.labeled:
        raise UndefinedMetricError(f"{rec.id}: needs text and durations")
    ctx = Ctx.eval()
    _, _, expanded = model.text_content(rec.phonemes, rec.durations, ctx)
    qp = model.quantize(expanded)
    qs = model.quantize(model.speech_content(rec.mel, ctx))
    return phoneme_center_distance(qp.vectors.data, qs.vectors.data, rec.durations)


def vc_acs_ratio(records: list[UtteranceRecord], model: JointModel,
                 conversions_per_speaker: int = 4) -> AcsReport:
    """Zero-shot conversion quality as an ACS ratio over generated speech.

    Each target speaker receives several conversions from other speakers'
    utterances; the outputs are embedded with the model's own speaker
    encoder and labeled with the TARGET speaker.  A model whose decoder
    ignores the reference voice produces conversions that do not cluster by
    target, driving the ratio toward 1.
    """
    by_speaker: dict[str, list[UtteranceRecord]] = {}
    for rec in records:
        by_speaker.setdefault(rec.speaker_id, []).append(rec)
    speakers = sorted(by_speaker)
    if len(speakers) < 2:
        raise UndefinedMetricError("need at least two speakers for conversions")
    others = {s: [r for r in records if r.speaker_id != s] for s in speakers}
    ctx = Ctx.eval()
    embeddings: list[tuple[str, np.ndarray]] = []
    for si, target in enumerate(speakers):
        refs = by_speaker[target]
        pool = others[target]
        for k in range(conversions_per_speaker):
            # a different reference utterance per conversion: same-target
            # outputs share only the voice, never the exact reference input
            ref = refs[k % len(refs)]
            source = pool[(si + k * 7) % len(pool)]
            converted, _ = model.convert_vc(source.mel, source.f0, ref.mel)
            embeddings.append((target, model.speaker(converted, ctx).data.copy()))
    return acs_ratio(embeddings)


def code_agreement_rates(records: list[UtteranceRecord], model: JointModel
                         ) -> tuple[float, float]:
    """Disentanglement probe on the speech-side codes.

    Returns (cross-speaker same-phoneme agreement, within-speaker
    different-phoneme agreement): a content code that tracks phonemes and
    ignores speakers makes the first high and the second low.
    """
    ctx = Ctx.eval()
    frames = []  # (speaker, phoneme, code)
    for rec in records:
        if not rec.labeled:
            continue
        qs = model.quantize(model.speech_content(rec.mel, ctx))
        ph = rec.phonemes[expansion_map(rec.durations)]
        for p, c in zip(ph, qs.codes):
            frames.append((rec.speaker_id, int(p), int(c)))
    rng = np.random.default_rng(0)
    if len(frames) > 400:
        pick = rng.choice(len(frames), 400, replace=False)
        frames = [frames[i] for i in pick]
    same_ph_cross_spk, diff_ph_within_spk = [], []
    for (s1, p1, c1), (s2, p2, c2) in combinations(frames, 2):
        if p1 == p2 and s1 != s2:
            same_ph_cross_spk.append(c1 == c2)
        elif p1 != p2 and s1 == s2:
            diff_ph_within_spk.append(c1 == c2)
    a = float(np.mean(same_ph_cross_spk)) if same_ph_cross_spk else 0.0
    b = float(np.mean(diff_ph_within_spk)) if diff_ph_within_spk else 0.0
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


def _reference_map(records: list[UtteranceRecord]) -> dict[str, UtteranceRecord]:
    """Deterministic reference utterance per record: the speaker's next one."""
    by_speaker: dict[str, list[UtteranceRecord]] = {}
    for rec in records:
        by_speaker.setdefault(rec.speaker_id, []).append(rec)
    ref = {}
    for utts in by_speaker.values():
        for i, rec in enumerate(utts):
            ref[rec.id] = utts[(i + 1) % len(utts)]
    return ref


def evaluate(records: list[UtteranceRecord], model: JointModel) -> EvalResult:
    """Zero-shot TTS metrics over a (held-out) split.

    Durations are teacher-forced so reference and synthesis stay
    frame-synchronous; pitch is predicted, and the speaker embedding comes
    from a different utterance of the same speaker.
    """
    refs = _reference_map(records)
    per_utt: dict[str, TtsMetrics] = {}
    mel_mse: dict[str, float] = {}
    rows = {"f0_rmse_hz": [], "mcd_db": [], "vuv_error_rate": [], "f0_corr": []}
    embeddings: list[tuple[str, np.ndarray]] = []
    ph_dists = []
    ctx = Ctx.eval()

    for rec in records:
        embeddings.append((rec.speaker_id, model.speaker(rec.mel, ctx).data.copy()))
        if not rec.labeled:
            continue
        mel_pred, f0_pred, _ = model.synth_tts(
            rec.phonemes, refs[rec.id].mel, durations=rec.durations)
        mel_mse[rec.id] = float(np.mean((mel_pred - rec.mel) ** 2))
        try:
            m = TtsMetrics(
                f0_rmse_hz=f0_rmse(rec.f0, f0_pred),
                mcd_db=mcd(rec.mel, mel_pred),
                vuv_error_rate=vuv_error(rec.f0, f0_pred),
                f0_corr=f0_corr(rec.f0, f0_pred))
        except UndefinedMetricError:
            m = TtsMetrics(f0_rmse_hz=float("nan"), mcd_db=mcd(rec.mel, mel_pred),
                           vuv_error_rate=vuv_error(rec.f0, f0_pred),
                           f0_corr=float("nan"))
        per_utt[rec.id] = m
        for key in rows:
            rows[key].append(getattr(m, key))
        ph_dists.append(phoneme_rep_distance(rec, model))

    mean = TtsMetrics(**{k: float(np.nanmean(v)) if v else float("nan")
                         for k, v in rows.items()})
    try:
        acs = acs_ratio(embeddings)
    except UndefinedMetricError:
        acs = None
    try:
        vc_acs = vc_acs_ratio(records, model)
    except UndefinedMetricError:
        vc_acs = None
    same_a, diff_a = code_agreement_rates(records, model)
    return EvalResult(
        per_utterance=per_utt,
        mel_mse=mel_mse,
        mean_metrics=mean,
        mean_mel_mse=float(np.mean(list(mel_mse.values()))) if mel_mse else float("nan"),
        acs=acs,
        vc_acs=vc_acs,
        phoneme_distance=float(np.mean(ph_dists)) if ph_dists else None,
        same_ph_cross_spk_agreement=same_a,
        diff_ph_within_spk_agreement=diff_a)


def eval_result_csv(result: EvalResult) -> str:
    """Flat CSV: per-utterance metric rows then summary rows."""
    lines = ["metric,utterance,value"]
    for uid, m in sorted(result.per_utterance.items()):
        lines.append(f"f0_rmse_hz,{uid},{m.f0_rmse_hz!r}")
        lines.append(f"mcd_db,{uid},{m.mcd_db!r}")
        lines.append(f"vuv_error_rate,{uid},{m.vuv_error_rate!r}")
        lines.append(f"f0_corr,{uid},{m.f0_corr!r}")
        lines.append(f"mel_mse,{uid},{result.mel_mse[uid]!r}")
    lines.append(f"f0_rmse_hz,mean,{result.mean_metrics.f0_rmse_hz!r}")
    lines.append(f"mcd_db,mean,{result.mean_metrics.mcd_db!r}")
    lines.append(f"vuv_error_rate,mean,{result.mean_metrics.vuv_error_rate!r}")
    lines.append(f"f0_corr,mean,{result.mean_metrics.f0_corr!r}")
    lines.append(f"mel_mse,mean,{result.mean_mel_mse!r}")
    if result.acs is not None:
        lines.append(f"s_acs,all,{result.acs.s_acs!r}")
        lines.append(f"d_acs,all,{result.acs.d_acs!r}")
        lines.append(f"acs_ratio,all,{result.acs.ratio!r}")
    if result.vc_acs is not None:
        lines.append(f"vc_s_acs,all,{result.vc_acs.s_acs!r}")
        lines.append(f"vc_d_acs,all,{result.vc_acs.d_acs!r}")
        lines.append(f"vc_acs_ratio,all,{result.vc_acs.ratio!r}")
    if result.phoneme_distance is not None:
        lines.append(f"phoneme_rep_distance,mean,{result.phoneme_distance!r}")
    lines.append(f"same_phoneme_cross_speaker_agreement,all,"
                 f"{result.same_ph_cross_spk_agreement!r}")
    lines.append(f"diff_phoneme_within_speaker_agreement,all,"
                 f"{result.diff_ph_within_spk_agreement!r}")
    return "\n".join(lines) + "\n"
