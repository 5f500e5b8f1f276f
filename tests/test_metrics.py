"""Metric arithmetic against hand values and brute-force oracles, plus the
symmetry/self-identity properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uspc.errors import ShapeError, UndefinedMetricError
from uspc.features import MelSpectrogram
from uspc.metrics import (MCD_CONST, AcsReport, EvalResult, TtsMetrics, acs_ratio,
                          eval_result_csv, f0_corr, f0_rmse, mcd,
                          phoneme_center_distance, vuv_error)

from conftest import rand


# ---------------------------------------------------------------- f0 rmse


def test_f0_rmse_identical_is_zero():
    c = np.array([100.0, 0.0, 200.0])
    assert f0_rmse(c, c.copy()) == 0.0


def test_f0_rmse_hand_value():
    # co-voiced frames differ by 10 and 10 -> sqrt(200/2) = 10
    assert abs(f0_rmse([100.0, 0.0, 200.0], [110.0, 0.0, 190.0]) - 10.0) < 1e-12


def test_f0_rmse_no_covoiced_frames():
    with pytest.raises(UndefinedMetricError):
        f0_rmse([100.0, 200.0], [0.0, 0.0])


def test_f0_rmse_length_mismatch():
    with pytest.raises(ShapeError):
        f0_rmse([100.0], [100.0, 200.0])


def test_f0_rmse_symmetric():
    a = np.array([100.0, 0.0, 150.0, 210.0])
    b = np.array([120.0, 90.0, 0.0, 200.0])
    assert f0_rmse(a, b) == f0_rmse(b, a)


# ---------------------------------------------------------------- f0 corr


def test_f0_corr_perfect():
    c = np.array([100.0, 150.0, 200.0, 0.0, 120.0])
    assert abs(f0_corr(c, c.copy()) - 1.0) < 1e-12


def test_f0_corr_affine_invariance():
    ref = np.array([100.0, 150.0, 200.0, 130.0])
    assert abs(f0_corr(ref, 2 * ref + 10) - 1.0) < 1e-12


def test_f0_corr_matches_two_pass_oracle():
    ref = np.array([100.0, 150.0, 200.0, 130.0, 170.0])
    hyp = ref[::-1].copy()
    a, b = ref, hyp
    cov = np.mean((a - a.mean()) * (b - b.mean()))
    expected = cov / (a.std() * b.std())
    assert abs(f0_corr(ref, hyp) - expected) < 1e-12


def test_f0_corr_zero_variance():
    with pytest.raises(UndefinedMetricError):
        f0_corr([100.0, 100.0, 100.0], [90.0, 100.0, 110.0])


def test_f0_corr_needs_two_covoiced():
    with pytest.raises(UndefinedMetricError):
        f0_corr([100.0, 0.0], [90.0, 100.0])


# ---------------------------------------------------------------- vuv


def test_vuv_identical():
    assert vuv_error([100.0, 0.0, 50.0], [90.0, 0.0, 60.0]) == 0.0


def test_vuv_complementary():
    assert vuv_error([100.0, 0.0], [0.0, 100.0]) == 1.0


def test_vuv_one_of_eight():
    ref = np.array([100.0] * 8)
    hyp = ref.copy()
    hyp[3] = 0.0
    assert vuv_error(ref, hyp) == 0.125


def test_vuv_symmetric():
    a = np.array([0.0, 100.0, 0.0, 150.0])
    b = np.array([100.0, 100.0, 0.0, 0.0])
    assert vuv_error(a, b) == vuv_error(b, a)


# ---------------------------------------------------------------- mcd


def test_mcd_identical_is_zero():
    mel = MelSpectrogram(rand((5, 80), 0))
    assert mcd(mel, MelSpectrogram(mel.frames.copy())) == 0.0


def test_mcd_single_coefficient_closed_form():
    t = 4
    ref = MelSpectrogram(np.zeros((t, 80)))
    hyp_frames = np.zeros((t, 80))
    delta = 0.37
    # bump cepstral coefficient 3 of frame 1 by delta via the inverse DCT row
    import scipy.fft
    basis = scipy.fft.idct(np.eye(80), type=2, norm="ortho", axis=0)
    hyp_frames[1] = delta * basis[:, 3]
    hyp = MelSpectrogram(hyp_frames)
    expected = MCD_CONST * np.sqrt(2.0) * delta / t
    assert abs(mcd(ref, hyp) - expected) < 1e-9


def test_mcd_invariant_to_constant_log_offset():
    frames = rand((6, 80), 1)
    a = MelSpectrogram(frames)
    b = MelSpectrogram(frames + 3.21)
    base = MelSpectrogram(rand((6, 80), 2))
    assert abs(mcd(base, a) - mcd(base, b)) < 1e-9


def test_mcd_length_mismatch():
    with pytest.raises(ShapeError):
        mcd(MelSpectrogram(rand((5, 80), 3)), MelSpectrogram(rand((6, 80), 4)))


def test_mcd_symmetric():
    a = MelSpectrogram(rand((5, 80), 5))
    b = MelSpectrogram(rand((5, 80), 6))
    assert abs(mcd(a, b) - mcd(b, a)) < 1e-12


# ---------------------------------------------------------------- acs


def test_acs_all_identical_collapse_signature():
    e = rand(8, 7)
    embs = [("a", e.copy()), ("a", e.copy()), ("b", e.copy()), ("b", e.copy())]
    report = acs_ratio(embs)
    assert report.s_acs == pytest.approx(1.0)
    assert report.d_acs == pytest.approx(1.0)
    assert report.ratio == pytest.approx(1.0)


def test_acs_orthogonal_clusters():
    # near-orthogonal: an exactly-zero D-ACS would leave the ratio undefined
    a = np.array([1.0, 1e-6, 0.0])
    b = np.array([1e-6, 1.0, 0.0])
    embs = [("a", a), ("a", 2 * a), ("b", b), ("b", 3 * b)]
    report = acs_ratio(embs)
    assert report.s_acs == pytest.approx(1.0)
    assert abs(report.d_acs) < 1e-5
    assert report.ratio > 100


def test_acs_exactly_zero_dacs_is_undefined():
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    embs = [("a", a), ("a", a.copy()), ("b", b), ("b", b.copy())]
    with pytest.raises(UndefinedMetricError):
        acs_ratio(embs)


def test_acs_matches_bruteforce_oracle():
    rng = np.random.default_rng(8)
    embs = []
    for spk in ("a", "b", "c"):
        for _ in range(3):
            embs.append((spk, rng.standard_normal(6)))

    def cos(x, y):
        return x @ y / (np.linalg.norm(x) * np.linalg.norm(y))

    same, diff = [], []
    for i in range(len(embs)):
        for j in range(i + 1, len(embs)):
            (s1, e1), (s2, e2) = embs[i], embs[j]
            (same if s1 == s2 else diff).append(cos(e1, e2))
    report = acs_ratio(embs)
    assert report.s_acs == pytest.approx(np.mean(same), abs=1e-12)
    assert report.d_acs == pytest.approx(np.mean(diff), abs=1e-12)


def test_acs_equals_per_pair_loop_bitwise():
    # labels interleaved, so the pairs must be regrouped by speaker in the
    # order of itertools.combinations for the means to sum alike
    from itertools import combinations
    rng = np.random.default_rng(18)
    labels = ["b", "a", "c", "a", "b", "c", "a", "c", "b", "a"]
    embs = [(spk, rng.standard_normal(16)) for spk in labels]
    speakers = sorted(set(labels))
    per_spk = {spk: [e for s, e in embs if s == spk] for spk in speakers}

    def cos(x, y):
        return float(x @ y / (np.linalg.norm(x) * np.linalg.norm(y)))

    same = [cos(x, y) for spk in speakers for x, y in combinations(per_spk[spk], 2)]
    diff = [cos(x, y) for s1, s2 in combinations(speakers, 2)
            for x in per_spk[s1] for y in per_spk[s2]]
    report = acs_ratio(embs)
    assert report.s_acs == float(np.mean(same))
    assert report.d_acs == float(np.mean(diff))


def test_acs_scale_invariance():
    rng = np.random.default_rng(9)
    embs = [(s, rng.standard_normal(5)) for s in ("a", "a", "b", "b")]
    scaled = [(s, 7.3 * e) for s, e in embs]
    assert acs_ratio(embs).ratio == pytest.approx(acs_ratio(scaled).ratio, abs=1e-12)


def test_acs_zero_norm_rejected():
    embs = [("a", np.zeros(4)), ("a", np.ones(4)),
            ("b", np.ones(4)), ("b", np.ones(4))]
    with pytest.raises(UndefinedMetricError):
        acs_ratio(embs)


def test_acs_needs_two_speakers_two_each():
    embs = [("a", np.ones(3)), ("a", np.ones(3)), ("b", np.ones(3))]
    with pytest.raises(UndefinedMetricError):
        acs_ratio(embs)


# ---------------------------------------------------------------- phoneme reps


def test_phoneme_center_distance_identical_is_zero():
    v = rand((10, 6), 10)
    d = np.array([3, 2, 5])
    assert phoneme_center_distance(v, v.copy(), d) == 0.0


def test_phoneme_center_distance_unit_vector():
    d = np.array([4])
    vp = np.zeros((4, 6))
    vs = np.zeros((4, 6))
    vs[:, 2] = 1.0  # centers differ by a unit vector
    assert phoneme_center_distance(vp, vs, d) == pytest.approx(1.0)


def test_phoneme_center_distance_skips_zero_durations():
    d = np.array([2, 0, 2])
    vp = rand((4, 6), 11)
    vs = vp + 1.0
    val = phoneme_center_distance(vp, vs, d)
    assert val == pytest.approx(np.sqrt(6.0))


def test_phoneme_center_distance_frame_order_invariant_within_phoneme():
    d = np.array([3, 2])
    vp = rand((5, 6), 12)
    vs = rand((5, 6), 13)
    base = phoneme_center_distance(vp, vs, d)
    perm = np.array([2, 0, 1, 4, 3])  # permutes within each phoneme span
    assert phoneme_center_distance(vp[perm], vs[perm], d) == pytest.approx(base)


def masked_mean_distance(vp, vs, d):
    """The per-phoneme loop: masked means, then np.linalg.norm per phoneme."""
    frame_ph = np.repeat(np.arange(d.size), d)
    dists = [float(np.linalg.norm(vp[frame_ph == i].mean(axis=0) - vs[frame_ph == i].mean(axis=0)))
             for i in range(d.size) if (frame_ph == i).any()]
    return float(np.mean(dists))


def test_phoneme_center_distance_equals_masked_mean_loop_bitwise():
    # runs longer than 8 frames, zero durations and 1-frame phonemes; one
    # phoneme at a time too, where the mean is the distance itself
    rng = np.random.default_rng(16)
    cases = [rng.integers(0, 20, size=40)] + [rng.integers(1, 20, size=1) for _ in range(30)]
    for i, d in enumerate(cases):
        vp = rand((int(d.sum()), 256), 2 * i) * 5.0
        vs = rand((int(d.sum()), 256), 2 * i + 1) - 2.0
        assert phoneme_center_distance(vp, vs, d) == masked_mean_distance(vp, vs, d)


@given(st.integers(0, 300))
@settings(max_examples=20, deadline=None)
def test_metric_self_identities(seed):
    rng = np.random.default_rng(seed)
    f0 = np.abs(rng.uniform(60, 400, 12))
    f0[rng.integers(0, 12, 3)] = 0.0
    if (f0 > 0).sum() >= 2 and np.std(f0[f0 > 0]) > 0:
        assert f0_rmse(f0, f0.copy()) == 0.0
        assert vuv_error(f0, f0.copy()) == 0.0
        assert abs(f0_corr(f0, f0.copy()) - 1.0) < 1e-12
    mel = MelSpectrogram(rng.standard_normal((6, 80)))
    assert mcd(mel, MelSpectrogram(mel.frames.copy())) == 0.0


# ---------------------------------------------------------------- eval csv


def test_eval_result_csv_golden():
    """Row order and `repr` formatting of the eval CSV on a hand-built
    result: a NaN f0 metric, no ground-truth ACS and a set VC ACS."""
    result = EvalResult(
        per_utterance={"u2": TtsMetrics(1.5, 2.0, 0.25, float("nan")),
                       "u1": TtsMetrics(3.0, 4.5, 0.0, 0.75)},
        mel_mse={"u1": 0.125, "u2": 1e-17},
        mean_metrics=TtsMetrics(2.25, 3.25, 0.125, 0.75),
        mean_mel_mse=float("nan"),
        acs=None,
        vc_acs=AcsReport(s_acs=0.5, d_acs=0.25, ratio=2.0),
        phoneme_distance=0.1,
        same_ph_cross_spk_agreement=1.0,
        diff_ph_within_spk_agreement=0.0)
    assert eval_result_csv(result) == (
        "metric,utterance,value\n"
        "f0_rmse_hz,u1,3.0\nmcd_db,u1,4.5\nvuv_error_rate,u1,0.0\nf0_corr,u1,0.75\n"
        "mel_mse,u1,0.125\n"
        "f0_rmse_hz,u2,1.5\nmcd_db,u2,2.0\nvuv_error_rate,u2,0.25\nf0_corr,u2,nan\n"
        "mel_mse,u2,1e-17\n"
        "f0_rmse_hz,mean,2.25\nmcd_db,mean,3.25\nvuv_error_rate,mean,0.125\n"
        "f0_corr,mean,0.75\nmel_mse,mean,nan\n"
        "vc_s_acs,all,0.5\nvc_d_acs,all,0.25\nvc_acs_ratio,all,2.0\n"
        "phoneme_rep_distance,mean,0.1\n"
        "same_phoneme_cross_speaker_agreement,all,1.0\n"
        "diff_phoneme_within_speaker_agreement,all,0.0\n")
