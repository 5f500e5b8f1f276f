"""The activation memory a graph holds when backward starts, pinned per
module at a tiny size: holding one more value than the rules read fails
here, rather than only in a benchmark's peak memory.

`held_bytes` (conftest) walks the graph from the loss and sums, once per
buffer, the unreleased values of its nodes and constant inputs and every
array a backward closure keeps; parameters do not count.  Each pin is
written as the arrays it is made of, for T = 14 packed rows in 3 segments
of d = 16 columns.
"""

import numpy as np
import pytest

from uspc import autodiff as ad
from uspc.autodiff import Tensor
from uspc.config import ModelConfig
from uspc.encoders import SpeakerEncoder
from uspc.features import N_MELS
from uspc.layers import ConvPredictorStack, Ctx, FFTStack, segment_offsets
from uspc.optim import ParamStore
from uspc.rng import NamedRng
from uspc.synthesis import Decoder
from uspc.vq import Codebook, vq_aux_loss, vq_lookup

from conftest import held_arrays, held_bytes, rand, sum_all

LENGTHS = (5, 2, 7)
T, D, HEADS = sum(LENGTHS), 16, 2
ROW = T * D * 8             # a float64 (T, d) array
MASK = T * D                # a 1-byte (T, d) mask
COL = T * 8                 # a (T, 1) column: inverse deviations, a 1-wide head
PROBS = HEADS * sum(n * n for n in LENGTHS) * 8  # one block's attention probabilities
OFFSETS = (len(LENGTHS) + 1) * 8                 # the segment bounds every op shares
LOSS = 8                                         # the scalar loss


def ctx():
    return Ctx(training=True, step=3, uids=("a", "b", "c"),
               offsets=segment_offsets(LENGTHS), rng=NamedRng(0))


def cfg(rate):
    return ModelConfig(d_model=D, n_heads=HEADS, dropout=rate)


def test_held_arrays_counts_a_buffer_once_and_no_parameter():
    store = ParamStore()
    w = store.param("w", rand((4, 4), 0))
    x = Tensor(rand((6, 4), 1))
    h = ad.linear(x, w, Tensor(np.zeros(4)))
    loss = sum_all(ad.add(h, Tensor(x.data[::-1])))
    # x (and the add's constant, a view of it), the zero bias, h, the add's
    # output and the loss; not w
    assert held_bytes(loss) == 6 * 4 * 8 * 3 + 4 * 8 + LOSS
    ad.release(x)  # the view still holds the buffer
    assert held_bytes(loss) == 6 * 4 * 8 * 3 + 4 * 8 + LOSS
    ad.release(h)
    assert held_bytes(loss) == 6 * 4 * 8 * 2 + 4 * 8 + LOSS
    assert all(a is not w.data for a in held_arrays(loss))


@pytest.mark.parametrize("rate", [0.5, 0.0])
def test_fft_stack_holds_six_row_arrays_per_block(rate):
    # per block: q, k, v, both tails' normalized rows, the relu output;
    # their inverse deviations, the relu mask and at rate > 0 two keep
    # masks; the probabilities.  Besides: the positions and their sum with
    # the input, which block 0 reads, and the last block's output.
    stack = FFTStack(ParamStore(), NamedRng(0), "s", cfg(rate), 2)
    leaf = Tensor(rand((T, D), 0), requires_grad=True)
    rows = ad.straight_through(leaf, leaf.data)  # made by an op that keeps no array
    out = stack(rows, ctx())
    masks = 3 if rate else 1
    per_block = 6 * ROW + 2 * COL + masks * MASK + PROBS
    assert held_bytes(sum_all(out)) == 2 * per_block + 3 * ROW + OFFSETS + LOSS


@pytest.mark.parametrize("rate", [0.5, 0.0])
def test_conv_predictor_holds_its_input_and_normalized_rows(rate):
    # per layer: the normalized rows, their inverse deviations and the relu
    # mask, and at rate > 0 the keep mask and the dropped rows the next
    # layer reads (at rate 0 that is the norm output, remade); the input,
    # which conv1 reads, and the 1-wide head output
    stack = ConvPredictorStack(ParamStore(), NamedRng(0), "p", D, 1, rate)
    out = stack(Tensor(rand((T, D), 0)), ctx())
    per_layer = ROW + COL + MASK + (ROW + MASK if rate else 0)
    assert held_bytes(sum_all(out)) == ROW + 2 * per_layer + COL + OFFSETS + LOSS


def test_speaker_encoder_holds_its_mel_and_normalized_rows():
    # the mel, which conv1 reads; per layer the normalized rows, their
    # inverse deviations and the relu mask; the segment lengths the mean
    # keeps, the pooled rows the projection reads and the embedding
    enc = SpeakerEncoder(ParamStore(), NamedRng(0), cfg(0.5))
    emb = enc(rand((T, N_MELS), 0), ctx())
    pooled = len(LENGTHS) * D * 8
    assert held_bytes(sum_all(emb)) == T * N_MELS * 8 + 2 * (ROW + COL + MASK) \
        + len(LENGTHS) * 8 + 2 * pooled + OFFSETS + LOSS


def test_decoder_holds_no_fused_row():
    # the speakers' repeated rows and both fusion sums are released: the
    # content's straight-through rows and the prosody rows are held as the
    # sums' inputs, the stack holds what
    # test_fft_stack_holds_six_row_arrays_per_block counts, and the output
    # projection adds the mel frames
    store, rng = ParamStore(), NamedRng(0)
    model_cfg = cfg(0.5)
    model_cfg.decoder_blocks = 2
    decoder = Decoder(store, rng, model_cfg)
    book = Codebook(store, rng, 8, D)
    q = vq_lookup(Tensor(rand((T, D), 0), requires_grad=True), book)
    prosody = Tensor(rand((T, D), 1))
    mel = decoder(q, Tensor(rand((3, D), 2)), prosody, ctx())
    stack = 2 * (6 * ROW + 2 * COL + 3 * MASK + PROBS) + 3 * ROW
    assert held_bytes(sum_all(mel)) == 2 * ROW + stack + T * N_MELS * 8 + OFFSETS + LOSS


def test_vq_aux_loss_holds_only_differences():
    book = Codebook(ParamStore(), NamedRng(0), 8, D)
    q = vq_lookup(Tensor(rand((T, D), 0), requires_grad=True), book)
    loss = vq_aux_loss(q, segment_offsets(LENGTHS))
    # the codes and the continuous rows, the two terms' differences; the
    # chosen entries are released (the straight-through rows are not in
    # this graph).  The terms and the weighted sum are scalars.
    assert held_bytes(loss) == T * 8 + ROW + 2 * ROW + 4 * LOSS + LOSS
