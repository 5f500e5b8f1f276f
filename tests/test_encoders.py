"""Encoder contracts: shapes, determinism, the length regulator's expansion
semantics, f0 binning arithmetic, and pooling invariances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uspc import autodiff as ad
from uspc import layers
from uspc.autodiff import Tensor
from uspc.config import ModelConfig
from uspc.encoders import (DurationPredictor, SpeakerEncoder, bin_center_hz, expansion_map,
                           length_regulate, quantize_f0_array)
from uspc.errors import DataError, PairingError
from uspc.layers import (ConvPredictorStack, Ctx, FFTBlock, FFTStack, Linear,
                         segment_offsets)
from uspc.model import JointModel
from uspc.optim import ParamStore
from uspc.rng import NamedRng

from conftest import rand, sum_all


EVAL = Ctx()


def test_text_encoder_shape_at_published_size():
    model = JointModel(ModelConfig(), seed=0)
    out = model.text_encoder(np.arange(7), EVAL)
    assert out.shape == (7, 256)


def test_text_encoder_eval_deterministic(small_model):
    ids = np.array([1, 5, 2, 2])
    a = small_model.text_encoder(ids, EVAL)
    b = small_model.text_encoder(ids, EVAL)
    assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("dim", [16, 64])
def test_one_position_table_per_width_slices_bitwise_to_each_length(dim, monkeypatch):
    monkeypatch.setattr(layers, "_PE_CACHE", {})
    alone = {}
    for n in range(1, 131):  # each length's table made on its own
        layers._PE_CACHE.clear()
        alone[n] = layers._position_table(n, dim)
    layers._PE_CACHE.clear()
    for n in [*range(1, 131), *range(130, 0, -1)]:  # grown row by row, then sliced
        assert layers._position_table(n, dim).tobytes() == alone[n].tobytes()
    assert list(layers._PE_CACHE) == [dim] and layers._PE_CACHE[dim].shape == (130, dim)
    packed = layers.positional_encoding(12, dim, np.array([0, 5, 5, 12]))
    assert packed.data.tobytes() == np.concatenate([alone[5], alone[7]]).tobytes()
    assert layers.positional_encoding(9, dim).data.tobytes() == alone[9].tobytes()


def test_text_encoder_position_sensitivity(small_model):
    a = small_model.text_encoder(np.array([1, 2]), EVAL)
    b = small_model.text_encoder(np.array([2, 1]), EVAL)
    assert not np.allclose(a.data, b.data)


def test_text_encoder_rejects_out_of_vocab(small_model):
    with pytest.raises(DataError):
        small_model.text_encoder(np.array([0, 999]), EVAL)


# ---------------------------------------------------------------- durations


def test_duration_rounding_zero():
    assert DurationPredictor.to_frame_counts(np.array([0.0])).tolist() == [0]


def test_duration_rounding_ln4_gives_3():
    assert DurationPredictor.to_frame_counts(np.array([np.log(4.0)])).tolist() == [3]


def test_duration_rounding_never_negative():
    out = DurationPredictor.to_frame_counts(np.array([-5.0, -0.2, 0.3]))
    assert np.all(out >= 0)


# ---------------------------------------------------------------- regulator


def test_length_regulate_identity():
    h = Tensor(rand((4, 8), 0))
    out = length_regulate(h, np.ones(4, dtype=int))
    np.testing.assert_array_equal(out.data, h.data)


def test_length_regulate_expansion():
    h = Tensor(np.array([[1.0], [2.0], [3.0]]))
    out = length_regulate(h, np.array([2, 0, 3]))
    np.testing.assert_array_equal(out.data.reshape(-1), [1, 1, 3, 3, 3])


def test_length_regulate_empty_output_rejected():
    with pytest.raises(DataError):
        length_regulate(Tensor(rand((3, 4), 1)), np.zeros(3, dtype=int))


def test_length_regulate_length_mismatch():
    with pytest.raises(PairingError):
        length_regulate(Tensor(rand((3, 4), 2)), np.array([1, 2]))


def test_length_regulate_gradient_accumulates_per_repeat():
    h = Tensor(rand((3, 4), 3), requires_grad=True)
    out = length_regulate(h, np.array([2, 1, 3]))
    ad.backward(sum_all(out))
    np.testing.assert_allclose(h.grad, np.array([2.0, 1.0, 3.0])[:, None] * np.ones((3, 4)))


@given(st.lists(st.integers(0, 5), min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_length_regulate_total_and_map(durations):
    durations = np.array(durations)
    if durations.sum() == 0:
        durations[0] = 1
    h = Tensor(rand((durations.size, 3), int(durations.sum())))
    out = length_regulate(h, durations)
    assert out.shape[0] == durations.sum()
    emap = expansion_map(durations)
    np.testing.assert_array_equal(out.data, h.data[emap])


def test_corpus_durations_sum_to_frames(tiny_corpus):
    for rec in tiny_corpus["train"]:
        assert int(rec.durations.sum()) == rec.n_frames


# ---------------------------------------------------------------- content


def test_content_encoder_shape_and_determinism(small_model):
    mel = rand((40, 80), 4)
    a = small_model.content_encoder(mel, EVAL)
    b = small_model.content_encoder(mel, EVAL)
    assert a.shape == (40, 32)
    assert np.array_equal(a.data, b.data)


def test_content_encoder_attention_is_global(small_model):
    mel = rand((20, 80), 5)
    full = small_model.content_encoder(mel, EVAL)
    cropped = small_model.content_encoder(mel[:10], EVAL)
    assert not np.allclose(full.data[:10], cropped.data)


# ---------------------------------------------------------------- speaker


def test_speaker_embedding_shape_any_length(small_model):
    for t in (10, 100):
        emb = small_model.speaker_encoder(rand((t, 80), t), EVAL)
        assert emb.shape == (1, 32)


def test_single_utterance_speaker_embedding_is_one_row_of_a_batch(small_model):
    small_model.speaker_encoder.proj.w.data = rand((32, 32), 98)
    mels = [rand((t, 80), 50 + t) for t in (9, 4, 12)]
    single = [small_model.speaker_encoder(mel, EVAL).data for mel in mels]
    assert all(emb.shape == (1, 32) for emb in single)
    packed = small_model.speaker_encoder(np.concatenate(mels),
                                         Ctx(offsets=segment_offsets([9, 4, 12])))
    assert packed.shape == (3, 32)
    np.testing.assert_allclose(packed.data, np.concatenate(single), rtol=0, atol=1e-12)


def test_mean_pool_is_permutation_invariant(small_model):
    feats = small_model.speaker_encoder.frame_features(rand((15, 80), 6), EVAL)
    perm = np.random.default_rng(7).permutation(15)
    pooled = small_model.speaker_encoder.pool(feats)
    pooled_perm = small_model.speaker_encoder.pool(Tensor(feats.data[perm]))
    np.testing.assert_allclose(pooled.data, pooled_perm.data, atol=1e-12)


def test_mean_pool_is_duplication_invariant(small_model):
    # the output projection starts at zero; give it weight so the embedding
    # is nonzero and the relative comparison is meaningful
    small_model.speaker_encoder.proj.w.data = rand((32, 32), 99)
    feats = small_model.speaker_encoder.frame_features(rand((15, 80), 8), EVAL)
    pooled = small_model.speaker_encoder.pool(feats)
    doubled = small_model.speaker_encoder.pool(Tensor(np.tile(feats.data, (2, 1))))
    rel = np.linalg.norm(pooled.data - doubled.data) / np.linalg.norm(pooled.data)
    assert rel < 1e-6


# ---------------------------------------------------------------- f0 bins


def test_quantize_f0_unvoiced_reserved():
    np.testing.assert_array_equal(quantize_f0_array([0.0]), [0])


def test_quantize_f0_endpoints():
    np.testing.assert_array_equal(quantize_f0_array([50.0, 600.0]), [1, 31])


def test_quantize_f0_173hz_by_formula():
    # 1 + floor(30 * (ln 173 - ln 50) / (ln 600 - ln 50)) = 15
    np.testing.assert_array_equal(quantize_f0_array([173.0]), [15])


def test_quantize_f0_clamps_out_of_range():
    np.testing.assert_array_equal(quantize_f0_array([10.0, 5000.0]), [1, 31])


def test_quantize_f0_negative_rejected():
    with pytest.raises(DataError):
        quantize_f0_array([120.0, -1.0])


@given(st.floats(50.0, 600.0))
@settings(max_examples=60, deadline=None)
def test_bin_round_trip_containment(freq):
    (k,) = quantize_f0_array([freq])
    np.testing.assert_array_equal(quantize_f0_array([bin_center_hz(k)]), [k])


def test_quantize_f0_array_mixed_contour():
    vals = np.array([0.0, 50.0, 173.0, 600.0, 999.0, 42.0])
    np.testing.assert_array_equal(quantize_f0_array(vals), [0, 1, 15, 31, 31, 1])


# ---------------------------------------------------------------- prosody


def test_prosody_all_unvoiced_is_row_zero(small_model):
    out = small_model.prosody_encoder(np.zeros(5))
    table = small_model.prosody_encoder.embed.table.data
    for row in out.data:
        np.testing.assert_array_equal(row, table[0])


def test_prosody_equal_f0_equal_rows(small_model):
    out = small_model.prosody_encoder(np.array([120.0, 120.0]))
    np.testing.assert_array_equal(out.data[0], out.data[1])


def test_prosody_three_distinct_bins(small_model):
    f0 = np.array([0.0, 173.0, 600.0])  # bins 0, 15, 31
    out = small_model.prosody_encoder(f0)
    assert len({row.tobytes() for row in out.data}) == 3


def test_prosody_rows_are_exact_table_rows(small_model):
    f0 = np.array([0.0, 90.0, 200.0, 600.0, 90.0])
    out = small_model.prosody_encoder(f0)
    table = small_model.prosody_encoder.embed.table.data
    bins = quantize_f0_array(f0)
    for row, b in zip(out.data, bins):
        np.testing.assert_array_equal(row, table[b])


# ---------------------------------------------------------------- FFT block


def _released(loss):
    """(values released, of which a recipe remakes) in the graph of `loss`."""
    seen, stack, counts = set(), [loss], [0, 0]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.data is None:
            counts[0] += 1
            counts[1] += hasattr(node._backward, "remake")
        stack.extend(node._parents)
    return tuple(counts)


def _with_and_without_release(monkeypatch, build):
    """`build()` makes a module and its inputs afresh, runs it in training
    and returns (loss, tensors by name).  Returns, for a run with `release`
    and for one where it does nothing, the gradients' bytes by name and
    the `_released` counts before backward."""
    runs = []
    for releasing in (True, False):
        with monkeypatch.context() as patch:
            if not releasing:
                patch.setattr(ad, "release", lambda t: None)
            loss, named = build()
            counts = _released(loss)
            ad.backward(loss)
        runs.append(({name: t.grad.tobytes() for name, t in named.items()}, counts))
    return runs


def _training_ctx(lengths):
    return Ctx(training=True, step=3, uids=tuple("abcdefgh"[:len(lengths)]),
               offsets=segment_offsets(lengths), rng=NamedRng(0))


# dropout 0.0 is the overfit config: dropout then passes a norm output on as
# it is, so the next layer's rule reads a released value, which its recipe
# remakes (without one that rule would raise)
def test_fft_block_releasing_its_sublayer_outputs_changes_no_gradient(monkeypatch):
    # a stack of 2 blocks, so that a block output the next block reads is
    # released and remade, as are each block's first tail output and
    # attention mix; its input rows come from a projection, as in the
    # encoders
    def build(rate):
        store = ParamStore()
        cfg = ModelConfig(d_model=16, n_heads=2, dropout=rate)
        pre = Linear(store, NamedRng(0), "pre", 6, 16)
        stack = FFTStack(store, NamedRng(0), "s", cfg, 2)
        x = Tensor(rand((14, 6), 0), requires_grad=True)
        out = stack(pre(x), _training_ctx([5, 2, 7]))
        return sum_all(ad.mul(out, Tensor(rand((14, 16), 1)))), {"x": x, **store}

    for rate in (0.5, 0.0):
        (released, counts), (kept, no_counts) = _with_and_without_release(
            monkeypatch, lambda: build(rate))
        # per block: mix, out projection, first tail, conv1, conv2; block
        # 0's output; the stack input.  A recipe remakes the mixes, the
        # first tails and block 0's output.
        assert counts == (2 * 5 + 2, 2 * 2 + 1) and no_counts == (0, 0)
        assert len(released) == 1 + 2 + 2 * 16
        assert released == kept


@pytest.mark.parametrize("rate", [0.5, 0.0])
def test_conv_predictor_releasing_its_values_changes_no_gradient(monkeypatch, rate):
    def build():
        store = ParamStore()
        stack = ConvPredictorStack(store, NamedRng(0), "p", 16, 3, rate)
        x = Tensor(rand((14, 16), 2), requires_grad=True)
        out = stack(x, _training_ctx([5, 2, 7]))
        return sum_all(ad.mul(out, Tensor(rand((14, 3), 3)))), {"x": x, **store}

    (released, counts), (kept, no_counts) = _with_and_without_release(monkeypatch, build)
    # per layer: conv, relu and norm outputs; the norms' have a recipe
    assert counts == (6, 2) and no_counts == (0, 0)
    assert len(released) == 1 + 10
    assert released == kept


def test_speaker_encoder_releasing_its_values_changes_no_gradient(monkeypatch):
    def build():
        store = ParamStore()
        enc = SpeakerEncoder(store, NamedRng(0), ModelConfig(d_model=16, n_heads=2))
        enc.proj.w.data[...] = rand((16, 16), 4)  # zero-initialized: no gradient upstream
        emb = enc(rand((14, 80), 5), _training_ctx([5, 2, 7]))
        return sum_all(ad.mul(emb, Tensor(rand((3, 16), 6)))), dict(store)

    (released, counts), (kept, no_counts) = _with_and_without_release(monkeypatch, build)
    # per layer: conv, relu and norm outputs; the norms' have a recipe
    assert counts == (6, 2) and no_counts == (0, 0)
    assert len(released) == 10
    assert released == kept


@pytest.mark.parametrize("training", [True, False])
def test_fft_block_builds_ten_nodes(training):
    # q, k, v, attention, out projection, conv1, relu, conv2 and one node
    # for each dropout-residual-norm tail, with or without dropout: the
    # tails unfused made 14 nodes in training and 12 in eval
    store = ParamStore()
    block = FFTBlock(store, NamedRng(0), "b", dim=8, n_heads=2, dropout_rate=0.5)
    offsets = segment_offsets([3, 1, 4])
    ctx = Ctx(training=training, step=0, uids=("a", "b", "c"), offsets=offsets,
              rng=NamedRng(0))
    x = Tensor(rand((8, 8), 0), requires_grad=True)
    seen, stack = set(), [block(x, ctx)]
    while stack:
        node = stack.pop()
        if id(node) not in seen and node._backward is not None:
            seen.add(id(node))
            stack.extend(node._parents)
    assert len(seen) == 10
