"""Fusion in the decoder, decoder contracts, pitch classification head,
the bin-to-Hz decoding round trip, and the inference entry points' checks
of their arrays."""

import numpy as np
import pytest

from uspc.autodiff import Tensor
from uspc.config import ModelConfig
from uspc.encoders import bin_center_hz, quantize_f0_array
from uspc.errors import DataError, ShapeError
from uspc.layers import Ctx, segment_offsets
from uspc.model import JointModel
from uspc.synthesis import BIN_CENTERS_HZ, decode_f0
from uspc.vq import QuantizedContent

from conftest import rand

EVAL = Ctx.eval()


def quantized(model, t, seed):
    return model.quantize(Tensor(rand((t, model.cfg.d_model), seed)))


def decode_rows(model, rows, ctx=EVAL):
    """An additive decoder's stages after fusion, run on given fused rows."""
    dec = model.decoder
    return dec.out(dec.stack(Tensor(rows), ctx)).data


def test_fuse_zero_speaker_and_prosody_is_content(small_model):
    q = quantized(small_model, 6, 0)
    out = small_model.synthesize(q, Tensor(np.zeros((1, 32))), Tensor(np.zeros((6, 32))), EVAL)
    np.testing.assert_array_equal(out.data, decode_rows(small_model, q.vectors.data))


def test_fused_rows_are_content_plus_segment_speaker_plus_prosody(small_model):
    ctx = Ctx(offsets=segment_offsets([4, 3]))
    q = quantized(small_model, 7, 33)
    s = rand((2, 32), 34)
    p = rand((7, 32), 35)
    out = small_model.synthesize(q, Tensor(s), Tensor(p), ctx)
    rows = (q.vectors.data + np.repeat(s, [4, 3], axis=0)) + p
    np.testing.assert_array_equal(out.data, decode_rows(small_model, rows, ctx))


def test_fuse_additive_linearity(small_model):
    # doubling the speaker row adds it once more to every content row
    q = quantized(small_model, 6, 1)
    s = Tensor(rand((1, 32), 2))
    p = Tensor(rand((6, 32), 3))
    shifted = QuantizedContent(codes=q.codes, vectors=Tensor(q.vectors.data + s.data),
                               continuous=q.continuous, book=q.book)
    a = small_model.synthesize(q, Tensor(2 * s.data), p, EVAL).data
    b = small_model.synthesize(shifted, s, p, EVAL).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_fuse_length_mismatch(small_model):
    q = quantized(small_model, 6, 4)
    with pytest.raises(ShapeError, match="content and prosody lengths differ"):
        small_model.synthesize(q, Tensor(np.zeros((1, 32))), Tensor(np.zeros((5, 32))), EVAL)


def test_fuse_commutes_with_joint_frame_permutation(small_model):
    q = quantized(small_model, 6, 5)
    s = rand((1, 32), 6)
    p = rand((6, 32), 7)
    perm = np.random.default_rng(8).permutation(6)
    rows = (q.vectors.data + s) + p
    q_perm = small_model.quantize(Tensor(q.continuous.data[perm]))
    out_perm = small_model.synthesize(q_perm, Tensor(s), Tensor(p[perm]), EVAL).data
    np.testing.assert_array_equal(out_perm, decode_rows(small_model, rows[perm]))


# ---------------------------------------------------------------- decoder


def test_decoder_shape_at_published_size():
    model = JointModel(ModelConfig(), seed=0)
    q = model.quantize(Tensor(rand((40, 256), 19)))
    s = Tensor(rand((1, 256), 20))
    p = Tensor(rand((40, 256), 21))
    out = model.synthesize(q, s, p, EVAL)
    assert out.shape == (40, 80)


def test_decoder_eval_deterministic(small_model):
    q = quantized(small_model, 9, 22)
    s = Tensor(rand((1, 32), 23))
    p = Tensor(rand((9, 32), 24))
    a = small_model.synthesize(q, s, p, EVAL)
    b = small_model.synthesize(q, s, p, EVAL)
    assert np.array_equal(a.data, b.data)


def test_decoder_frame_aligned(small_model):
    q = quantized(small_model, 13, 25)
    out = small_model.synthesize(q, Tensor(np.zeros((1, 32))), Tensor(rand((13, 32), 26)), EVAL)
    assert out.shape == (13, 80)


# ---------------------------------------------------------------- pitch head


def test_pitch_logits_shape(small_model):
    q = quantized(small_model, 40, 27)
    logits = small_model.pitch_predictor(q, Tensor(rand((1, 32), 28)), EVAL)
    assert logits.shape == (40, 32)


def test_pitch_logits_depend_on_speaker(small_model):
    q = quantized(small_model, 10, 29)
    a = small_model.pitch_predictor(q, Tensor(rand((1, 32), 30)), EVAL)
    b = small_model.pitch_predictor(q, Tensor(rand((1, 32), 31)), EVAL)
    assert not np.allclose(a.data, b.data)


# ---------------------------------------------------------------- decode_f0


def test_decode_f0_unvoiced_bin():
    logits = np.zeros((4, 32))
    logits[:, 0] = 5.0
    np.testing.assert_array_equal(decode_f0(logits), np.zeros(4))


def test_decode_f0_uniform_ties_to_bin_zero():
    f0 = decode_f0(np.zeros((3, 32)))
    np.testing.assert_array_equal(f0, np.zeros(3))


def test_decode_f0_round_trip_all_voiced_bins():
    for k in range(1, 32):
        logits = np.zeros((1, 32))
        logits[0, k] = 10.0
        hz = decode_f0(logits)[0]
        assert hz > 0
        np.testing.assert_array_equal(quantize_f0_array([hz]), [k])


def test_bin_center_table_is_bin_center_hz():
    assert BIN_CENTERS_HZ.shape == (32,)
    width = (np.log(600.0) - np.log(50.0)) / 30.0  # 30 log-Hz bins over [50, 600)
    assert BIN_CENTERS_HZ[0] == 0.0
    for k in range(32):
        assert BIN_CENTERS_HZ[k] == bin_center_hz(k), k
        if k:
            assert BIN_CENTERS_HZ[k] == np.exp(np.log(50.0) + (k - 0.5) * width), k


def test_decode_f0_rejects_more_classes_than_bins():
    with pytest.raises(ShapeError):
        decode_f0(np.zeros((2, 33)))


def test_decode_f0_voiced_values_in_range():
    logits = np.zeros((31, 32))
    for k in range(1, 32):
        logits[k - 1, k] = 1.0
    hz = decode_f0(logits)
    # top bin is the >= 600 Hz clamp zone, so its center may exceed 600
    width = (np.log(600.0) - np.log(50.0)) / 30.0
    assert np.all(hz >= 50.0) and np.all(hz <= 600.0 * np.exp(0.5 * width))


# ---------------------------------------------------------------- sharing


def test_decoder_and_pitch_predictor_are_shared_objects(small_model):
    # both pipelines go through the same bound objects; identity, not copies
    assert small_model.decoder is small_model.decoder
    d1 = small_model.store["decoder.out.w"]
    d2 = small_model.store["decoder.out.w"]
    assert d1 is d2
    p1 = small_model.store["pitch_predictor.head.w"]
    assert p1 is small_model.store["pitch_predictor.head.w"]


def test_quantize_f0_array_of_decoded_matches(small_model):
    logits = rand((12, 32), 32)
    hz = decode_f0(logits)
    bins = np.argmax(logits, axis=1)
    redone = quantize_f0_array(hz)
    np.testing.assert_array_equal(redone, bins)


def _mel(t, seed=0):
    return rand((t, 80), seed)


def _with_nan(a):
    a = np.array(a, dtype=np.float64)
    a.flat[a.size // 2] = np.nan
    return a


PHONEMES = np.array([3, 1, 4, 1, 5])

MALFORMED = {
    "f0 NaN": ("f0_hz", lambda m: quantize_f0_array([120.0, np.nan, 0.0])),
    "f0 inf": ("f0_hz", lambda m: quantize_f0_array([120.0, np.inf, 0.0])),
    "tts empty phonemes": ("phoneme_ids", lambda m: m.synth_tts(np.array([], dtype=int),
                                                               _mel(6))),
    "tts phonemes fractional": ("phoneme_ids", lambda m: m.synth_tts([1.7, 2.2], _mel(6))),
    "tts phonemes NaN": ("phoneme_ids", lambda m: m.synth_tts([1.0, np.nan], _mel(6))),
    "tts phonemes 2-D": ("phoneme_ids", lambda m: m.synth_tts(PHONEMES[None], _mel(6))),
    "tts phonemes text": ("phoneme_ids", lambda m: m.synth_tts(["3", "1"], _mel(6))),
    "tts durations fractional": ("durations", lambda m: m.synth_tts([3, 1], _mel(6),
                                                                    durations=[1.7, 2.9])),
    "tts durations inf": ("durations", lambda m: m.synth_tts([3, 1], _mel(6),
                                                             durations=[1.0, np.inf])),
    "tts durations 2-D": ("durations", lambda m: m.synth_tts([3, 1], _mel(6),
                                                             durations=[[1, 2]])),
    "tts durations negative": ("durations", lambda m: m.synth_tts([3, 1], _mel(6),
                                                                  durations=[-1, 3])),
    "tts durations too many": ("durations", lambda m: m.synth_tts([3, 1], _mel(6),
                                                                  durations=[1, 2, 3])),
    "tts durations too few": ("durations", lambda m: m.synth_tts([3, 1], _mel(6),
                                                                 durations=[2])),
    "tts durations all zero": ("durations", lambda m: m.synth_tts([3, 1], _mel(6),
                                                                  durations=[0, 0])),
    "tts ref no frames": ("ref_mel", lambda m: m.synth_tts(PHONEMES, _mel(0))),
    "tts ref NaN": ("ref_mel", lambda m: m.synth_tts(PHONEMES, _with_nan(_mel(6)))),
    "tts ref inf": ("ref_mel", lambda m: m.synth_tts(PHONEMES, np.full((6, 80), np.inf))),
    "tts ref wrong width": ("ref_mel", lambda m: m.synth_tts(PHONEMES, rand((6, 79), 0))),
    "tts ref one row": ("ref_mel", lambda m: m.synth_tts(PHONEMES, rand(80, 0))),
    "tts ref text": ("ref_mel", lambda m: m.synth_tts(PHONEMES, "frames")),
    "vc source no frames": ("source_mel", lambda m: m.convert_vc(_mel(0), np.zeros(0), _mel(6))),
    "vc source NaN": ("source_mel", lambda m: m.convert_vc(_with_nan(_mel(5)), np.zeros(5),
                                                           _mel(6))),
    "vc source wrong width": ("source_mel", lambda m: m.convert_vc(rand((5, 81), 0),
                                                                   np.zeros(5), _mel(6))),
    "vc f0 NaN": ("source_f0", lambda m: m.convert_vc(_mel(5), _with_nan(np.full(5, 150.0)),
                                                      _mel(6))),
    "vc f0 negative": ("source_f0", lambda m: m.convert_vc(_mel(5), np.full(5, -1.0), _mel(6))),
    "vc f0 inf": ("source_f0", lambda m: m.convert_vc(_mel(5), np.full(5, np.inf), _mel(6))),
    "vc f0 short": ("source_f0", lambda m: m.convert_vc(_mel(5), np.zeros(4), _mel(6))),
    "vc f0 2-D": ("source_f0", lambda m: m.convert_vc(_mel(5), np.zeros((5, 1)), _mel(6))),
    "vc ref no frames": ("ref_mel", lambda m: m.convert_vc(_mel(5), np.zeros(5), _mel(0))),
    "vc ref NaN": ("ref_mel", lambda m: m.convert_vc(_mel(5), np.zeros(5),
                                                     _with_nan(_mel(6)))),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_inference_entry_points_refuse_malformed_arrays_naming_them(small_model, case):
    # warnings are errors in this suite: each case must raise before numpy
    # warns (an empty mean, a NaN cast to a bin) or returns a NaN mel
    argument, call = MALFORMED[case]
    with pytest.raises(DataError, match=f"^{argument}: "):
        call(small_model)


def test_inference_entry_points_accept_well_formed_arrays(small_model):
    mel, f0, _ = small_model.synth_tts(PHONEMES, _mel(6), durations=np.array([1, 2, 1, 1, 2]))
    assert mel.shape == (7, 80) and np.isfinite(mel).all() and f0.shape == (7,)
    # whole numbers held as floats are the same ids and frame counts
    same, _, used = small_model.synth_tts(PHONEMES.astype(float), _mel(6),
                                          durations=[1.0, 2.0, 1.0, 1.0, 2.0])
    np.testing.assert_array_equal(same, mel)
    np.testing.assert_array_equal(used, [1, 2, 1, 1, 2])
    converted, f0_used = small_model.convert_vc(_mel(5), np.full(5, 150.0), _mel(6))
    assert converted.shape == (5, 80) and np.isfinite(converted).all()
    np.testing.assert_array_equal(f0_used, np.full(5, 150.0))
