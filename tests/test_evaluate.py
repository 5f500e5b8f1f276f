"""The packed evaluation pass against a one-utterance-at-a-time oracle, and
how often it runs each encoder."""

import dataclasses
import math
import warnings
from itertools import combinations

import numpy as np
import pytest

from uspc import encoders, metrics
from uspc.corpus import CorpusSpec, gen_corpus
from uspc.encoders import expansion_map
from uspc.errors import UndefinedMetricError
from uspc.layers import Ctx
from uspc.metrics import (acs_ratio, evaluate, f0_corr, f0_rmse, mcd,
                          phoneme_center_distance, vuv_error)
from uspc.model import JointModel

from conftest import small_model_config

RTOL = 1e-9


@pytest.fixture(scope="module")
def split(tmp_path_factory):
    """3 speakers x 12 utterances, one speaker unlabeled: more than the 400
    labeled frames the code-agreement probe samples."""
    spec = CorpusSpec(n_speakers=3, utts_per_speaker=12, labeled_fraction=2 / 3,
                      n_test_speakers=0, p_vocab=16, min_phonemes=5, max_phonemes=10,
                      min_duration=1, max_duration=5)
    records, _, _ = gen_corpus(tmp_path_factory.mktemp("eval") / "c", seed=5, spec=spec)
    assert any(not r.labeled for r in records)
    assert sum(r.n_frames for r in records if r.labeled) > 400
    return records


def perturbed_model(use_vq=True, **cfg) -> JointModel:
    """A model with every parameter moved off its initialization, so that
    speaker embeddings are not all zero and every metric is defined."""
    model = JointModel(small_model_config(**cfg), seed=3, use_vq=use_vq)
    rng = np.random.default_rng(7)
    for _, param in model.store.items():
        param.data += rng.normal(0.0, 0.3, param.data.shape)
    return model


# ---------------------------------------------------------------- oracle


def _oracle(records, model):
    """evaluate() recomputed one utterance per call, the way it was computed
    before the split was packed."""
    ctx = Ctx.eval()
    by_speaker = {}
    for rec in records:
        by_speaker.setdefault(rec.speaker_id, []).append(rec)
    refs = {rec.id: utts[(i + 1) % len(utts)]
            for utts in by_speaker.values() for i, rec in enumerate(utts)}

    per_utt, mel_mse, ph_dists, text_codes, speech_codes = {}, {}, [], [], []
    embeddings = [(rec.speaker_id, model.speaker_encoder(rec.mel, ctx).data[0])
                  for rec in records]
    for rec in records:
        speech_codes.append(model.quantize(model.content_encoder(rec.mel, ctx)).codes)
        if not rec.labeled:
            continue
        mel, f0, _ = model.synth_tts(rec.phonemes, refs[rec.id].mel, durations=rec.durations)
        mel_mse[rec.id] = float(np.mean((mel - rec.mel) ** 2))
        try:
            rmse, corr = f0_rmse(rec.f0, f0), f0_corr(rec.f0, f0)
        except UndefinedMetricError:
            rmse, corr = math.nan, math.nan
        per_utt[rec.id] = metrics.TtsMetrics(rmse, mcd(rec.mel, mel), vuv_error(rec.f0, f0),
                                             corr)
        qp, _, _ = model.tts_content(rec.phonemes, rec.durations, ctx)
        qs = model.quantize(model.content_encoder(rec.mel, ctx))
        text_codes.append(qp.codes)
        ph_dists.append(phoneme_center_distance(qp.vectors.data, qs.vectors.data,
                                                rec.durations))

    def defined(fn, *args):
        try:
            return fn(*args)
        except UndefinedMetricError:
            return None

    def vc_acs():
        speakers = sorted(by_speaker)
        if len(speakers) < 2:
            raise UndefinedMetricError("one speaker")
        out = []
        for si, target in enumerate(speakers):
            pool = [r for r in records if r.speaker_id != target]
            for k in range(4):
                ref = by_speaker[target][k % len(by_speaker[target])]
                source = pool[(si + k * 7) % len(pool)]
                converted, _ = model.convert_vc(source.mel, source.f0, ref.mel)
                out.append((target, model.speaker_encoder(converted, ctx).data[0]))
        return acs_ratio(out)

    frames = [(rec.speaker_id, int(p), int(c))
              for rec, codes in zip(records, speech_codes) if rec.labeled
              for p, c in zip(rec.phonemes[expansion_map(rec.durations)], codes)]
    if len(frames) > 400:
        pick = np.random.default_rng(0).choice(len(frames), 400, replace=False)
        frames = [frames[i] for i in pick]
    cross, within = [], []
    for (s1, p1, c1), (s2, p2, c2) in combinations(frames, 2):
        if p1 == p2 and s1 != s2:
            cross.append(c1 == c2)
        elif p1 != p2 and s1 == s2:
            within.append(c1 == c2)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # all-NaN columns
        mean = metrics.TtsMetrics(**{
            f.name: float(np.nanmean([getattr(m, f.name) for m in per_utt.values()]))
            if per_utt else math.nan for f in dataclasses.fields(metrics.TtsMetrics)})
    result = metrics.EvalResult(
        per_utterance=per_utt, mel_mse=mel_mse, mean_metrics=mean,
        mean_mel_mse=float(np.mean(list(mel_mse.values()))) if mel_mse else math.nan,
        acs=defined(acs_ratio, embeddings), vc_acs=defined(vc_acs),
        phoneme_distance=float(np.mean(ph_dists)) if ph_dists else None,
        same_ph_cross_spk_agreement=float(np.mean(cross)) if cross else 0.0,
        diff_ph_within_spk_agreement=float(np.mean(within)) if within else 0.0)
    return result, text_codes, speech_codes


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if dataclasses.is_dataclass(a):
        return all(_close(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    return (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=RTOL, abs_tol=0)


def _packed_codes(model, monkeypatch):
    """Record the text-side codes and the speech-side codes evaluate() uses."""
    seen = {}
    tts_content, agreement = model.tts_content, metrics.code_agreement_rates

    def spy_tts(*args):
        out = tts_content(*args)
        seen["text"] = out[0].codes.copy()
        return out

    def spy_agreement(records, codes):
        seen["speech"] = codes.copy()
        return agreement(records, codes)

    monkeypatch.setattr(model, "tts_content", spy_tts)
    monkeypatch.setattr(metrics, "code_agreement_rates", spy_agreement)
    return seen


def _subsets(records):
    one_speaker = [r for r in records if r.speaker_id == records[0].speaker_id]
    unlabeled = [r for r in records if not r.labeled]
    # utterances of the three speakers interleaved, the unlabeled one among them
    mixed = sorted(records, key=lambda r: (r.id.split("_")[1], r.speaker_id))
    return {"mixed": mixed, "one-speaker": one_speaker,
            "no-labeled": unlabeled, "empty": []}


@pytest.mark.parametrize("variant", ["additive-vq", "additive-novq"])
@pytest.mark.parametrize("subset", ["mixed", "one-speaker", "no-labeled", "empty"])
def test_packed_evaluate_matches_per_utterance_oracle(split, subset, variant, monkeypatch):
    model = perturbed_model(use_vq=variant == "additive-vq")
    records = _subsets(split)[subset]
    expected, text_codes, speech_codes = _oracle(records, model)
    seen = _packed_codes(model, monkeypatch)
    got = evaluate(records, model)

    for field in dataclasses.fields(expected):
        assert _close(getattr(got, field.name), getattr(expected, field.name)), field.name
    # the agreement rates are ratios of counts: exact, not merely close
    assert got.same_ph_cross_spk_agreement == expected.same_ph_cross_spk_agreement
    assert got.diff_ph_within_spk_agreement == expected.diff_ph_within_spk_agreement
    if records:
        np.testing.assert_array_equal(seen["speech"], np.concatenate(speech_codes))
    if text_codes:
        np.testing.assert_array_equal(seen["text"], np.concatenate(text_codes))
    if subset == "mixed":
        assert got.acs is not None and got.vc_acs is not None
        assert got.phoneme_distance is not None and got.same_ph_cross_spk_agreement > 0
    if subset == "one-speaker":
        assert got.acs is None and got.vc_acs is None
    if subset in ("no-labeled", "empty"):
        assert got.per_utterance == {} and got.phoneme_distance is None


def test_evaluate_runs_each_encoder_once(split, monkeypatch):
    counts = {}
    for cls in (encoders.TextEncoder, encoders.ContentEncoder, encoders.SpeakerEncoder):
        def counted(self, *args, _call=cls.__call__, _name=cls.__name__, **kw):
            counts[_name] = counts.get(_name, 0) + 1
            return _call(self, *args, **kw)
        monkeypatch.setattr(cls, "__call__", counted)
    evaluate(split, perturbed_model())
    # speaker: once over the split, once over the VC-ACS conversions
    assert counts == {"TextEncoder": 1, "ContentEncoder": 1, "SpeakerEncoder": 2}


def test_evaluate_builds_no_graph_and_leaves_parameters_trainable(split, monkeypatch):
    from uspc import autodiff
    closures = []
    real_make_node = autodiff._make_node

    def counted(data, parents, backward_fn):
        out = real_make_node(data, parents, backward_fn)
        closures.append(out._backward is not None)
        return out

    monkeypatch.setattr(autodiff, "_make_node", counted)
    model = perturbed_model()
    evaluate(split, model)
    assert closures and not any(closures)
    assert all(p.requires_grad for p in model.store.values())

    # also when the pass raises
    def failing(*args, **kw):
        raise RuntimeError("decoder failed")

    monkeypatch.setattr(model, "decode_tts", failing)
    with pytest.raises(RuntimeError, match="decoder failed"):
        evaluate(split, model)
    assert all(p.requires_grad for p in model.store.values())


def test_evaluate_all_f0_undefined_is_nan_without_warning(split):
    model = perturbed_model()
    model.pitch_predictor.stack.head.b.data[0] = 1e6   # every frame unvoiced
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = evaluate(split, model)
    assert result.per_utterance
    assert all(math.isnan(m.f0_rmse_hz) for m in result.per_utterance.values())
    assert math.isnan(result.mean_metrics.f0_rmse_hz)
    assert math.isnan(result.mean_metrics.f0_corr)
    assert result.mean_metrics.vuv_error_rate > 0
