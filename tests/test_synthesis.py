"""Fusion modes, decoder contracts, pitch classification head, and the
bin-to-Hz decoding round trip."""

import numpy as np
import pytest

from uspc.autodiff import Tensor
from uspc.config import ModelConfig
from uspc.encoders import quantize_f0_array
from uspc.errors import ShapeError
from uspc.layers import Ctx
from uspc.model import JointModel
from uspc.synthesis import decode_f0, fuse
from uspc.vq import vq_lookup

from conftest import rand, small_model_config

EVAL = Ctx.eval()


def quantized(model, t, seed):
    return model.quantize(Tensor(rand((t, model.cfg.d_model), seed)))


def q_from_content(model, mel, ctx=EVAL):
    return model.quantize(model.speech_content(mel, ctx))


def test_fuse_zero_speaker_and_prosody_is_content(small_model):
    q = quantized(small_model, 6, 0)
    s = Tensor(np.zeros(32))
    p = Tensor(np.zeros((6, 32)))
    fused = fuse(q, s, p, "additive")
    np.testing.assert_array_equal(fused.rows.data, q.vectors.data)


def test_fuse_additive_linearity(small_model):
    q = quantized(small_model, 6, 1)
    s = Tensor(rand(32, 2))
    p = Tensor(rand((6, 32), 3))
    a = fuse(q, Tensor(2 * s.data), p, "additive").rows.data
    b = fuse(q, s, p, "additive").rows.data
    np.testing.assert_allclose(a - b, np.broadcast_to(s.data, (6, 32)), atol=1e-12)


def test_fuse_length_mismatch(small_model):
    q = quantized(small_model, 6, 4)
    with pytest.raises(ShapeError):
        fuse(q, Tensor(np.zeros(32)), Tensor(np.zeros((5, 32))), "additive")


def test_fuse_commutes_with_joint_frame_permutation(small_model):
    q = quantized(small_model, 6, 5)
    s = Tensor(rand(32, 6))
    p = Tensor(rand((6, 32), 7))
    perm = np.random.default_rng(8).permutation(6)
    fused = fuse(q, s, p, "additive").rows.data
    q_perm = small_model.quantize(Tensor(q.continuous.data[perm]))
    fused_perm = fuse(q_perm, s, Tensor(p.data[perm]), "additive").rows.data
    np.testing.assert_allclose(fused[perm], fused_perm, atol=1e-12)


def test_saln_zero_style_equals_unstyled_norm():
    cfg = small_model_config(fusion="saln")
    model = JointModel(cfg, seed=3)
    # give the style projections real weight, then feed a zero style vector:
    # gain collapses to 1 and bias to 0, i.e. the unconditioned decoder
    for block in model.decoder.blocks:
        for norm in (block.norm1, block.norm2):
            norm.w_gain.data = rand(norm.w_gain.data.shape, 9) * 0.3
            norm.w_bias.data = rand(norm.w_bias.data.shape, 10) * 0.3
    q = q_from_content(model, rand((7, 80), 11))
    p = Tensor(rand((7, 32), 12))
    out_zero_style = model.decoder(fuse(q, Tensor(np.zeros(32)), p, "saln"), EVAL)

    for block in model.decoder.blocks:
        for norm in (block.norm1, block.norm2):
            norm.w_gain.data = np.zeros_like(norm.w_gain.data)
            norm.w_bias.data = np.zeros_like(norm.w_bias.data)
    out_unconditioned = model.decoder(fuse(q, Tensor(rand(32, 13)), p, "saln"), EVAL)
    np.testing.assert_allclose(out_zero_style.data, out_unconditioned.data, atol=1e-12)


def test_saln_style_changes_output():
    cfg = small_model_config(fusion="saln")
    model = JointModel(cfg, seed=4)
    for block in model.decoder.blocks:
        for norm in (block.norm1, block.norm2):
            norm.w_gain.data = rand(norm.w_gain.data.shape, 14) * 0.3
    q = q_from_content(model, rand((7, 80), 15))
    p = Tensor(rand((7, 32), 16))
    a = model.decoder(fuse(q, Tensor(rand(32, 17)), p, "saln"), EVAL)
    b = model.decoder(fuse(q, Tensor(rand(32, 18)), p, "saln"), EVAL)
    assert not np.allclose(a.data, b.data)


# ---------------------------------------------------------------- decoder


def test_decoder_shape_at_published_size():
    model = JointModel(ModelConfig(), seed=0)
    q = model.quantize(Tensor(rand((40, 256), 19)))
    s = Tensor(rand(256, 20))
    p = Tensor(rand((40, 256), 21))
    out = model.synthesize(q, s, p, EVAL)
    assert out.shape == (40, 80)


def test_decoder_eval_deterministic(small_model):
    q = quantized(small_model, 9, 22)
    s = Tensor(rand(32, 23))
    p = Tensor(rand((9, 32), 24))
    a = small_model.synthesize(q, s, p, EVAL)
    b = small_model.synthesize(q, s, p, EVAL)
    assert np.array_equal(a.data, b.data)


def test_decoder_frame_aligned(small_model):
    q = quantized(small_model, 13, 25)
    out = small_model.synthesize(q, Tensor(np.zeros(32)), Tensor(rand((13, 32), 26)), EVAL)
    assert out.shape == (13, 80)


# ---------------------------------------------------------------- pitch head


def test_pitch_logits_shape(small_model):
    q = quantized(small_model, 40, 27)
    logits = small_model.pitch_predictor(q, Tensor(rand(32, 28)), EVAL)
    assert logits.shape == (40, 32)


def test_pitch_logits_depend_on_speaker(small_model):
    q = quantized(small_model, 10, 29)
    a = small_model.pitch_predictor(q, Tensor(rand(32, 30)), EVAL)
    b = small_model.pitch_predictor(q, Tensor(rand(32, 31)), EVAL)
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
