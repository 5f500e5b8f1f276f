"""Codebook quantization: nearest-neighbor agreement with brute force,
straight-through gradient routing, pair loss arithmetic, auxiliary losses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uspc import autodiff as ad
from uspc import vq as vq_mod
from uspc.autodiff import Tensor
from uspc.errors import ConfigError, PairingError
from uspc.optim import ParamStore
from uspc.rng import NamedRng
from uspc.vq import VQ_BETA, Codebook, pair_loss, vq_aux_loss, vq_lookup

from conftest import rand, sum_all


def make_book(entries: np.ndarray) -> Codebook:
    store = ParamStore()
    book = Codebook(store, NamedRng(0), entries.shape[0], entries.shape[1])
    book.entries.data = np.array(entries, dtype=np.float64)
    return book


def test_exact_match_row():
    entries = rand((8, 4), 0)
    book = make_book(entries)
    q = vq_lookup(Tensor(entries[3:4].copy()), book)
    assert q.codes.tolist() == [3]
    np.testing.assert_array_equal(q.vectors.data[0], entries[3])


def test_tie_breaks_to_lowest_index():
    entries = np.array([[10.0, 10.0], [1.0, 0.0], [-1.0, 0.0], [5.0, 5.0]])
    book = make_book(entries)
    # probe on the symmetry axis of entries 1 and 2; both at distance^2 = 10
    q = vq_lookup(Tensor(np.array([[0.0, 3.0]])), book)
    d = ((entries - np.array([0.0, 3.0])) ** 2).sum(1)
    assert d[1] == d[2] == d.min()
    assert q.codes[0] == 1


def test_thousand_rows_match_bruteforce():
    entries = rand((16, 8), 1)
    rows = rand((1000, 8), 2)
    book = make_book(entries)
    q = vq_lookup(Tensor(rows), book)
    for i in range(1000):
        dists = ((entries - rows[i]) ** 2).sum(axis=1)
        best = np.flatnonzero(dists == dists.min()).min()
        assert q.codes[i] == best


def test_empty_codebook_rejected():
    store = ParamStore()
    with pytest.raises(ConfigError):
        Codebook(store, NamedRng(0), 0, 4)


def test_quantization_is_idempotent_on_values():
    entries = rand((8, 4), 3)
    book = make_book(entries)
    q1 = vq_lookup(Tensor(rand((20, 4), 4)), book)
    q2 = vq_lookup(Tensor(q1.vectors.data.copy()), book)
    np.testing.assert_array_equal(q1.codes, q2.codes)
    np.testing.assert_array_equal(q1.vectors.data, q2.vectors.data)


# ---------------------------------------------------------------- STE


def test_ste_forward_is_bitwise_codebook_rows():
    entries = rand((8, 4), 7)
    book = make_book(entries)
    q = vq_lookup(Tensor(rand((6, 4), 8)), book)
    for i, code in enumerate(q.codes):
        assert q.vectors.data[i].tobytes() == entries[code].tobytes()


def test_ste_passes_upstream_gradient_unchanged():
    book = make_book(rand((8, 4), 9))
    c = Tensor(rand((5, 4), 10), requires_grad=True)
    q = vq_lookup(c, book)
    g = rand((5, 4), 11)
    ad.backward(sum_all(ad.mul(q.vectors, Tensor(g))))
    np.testing.assert_array_equal(c.grad, g)


def test_ste_contributes_nothing_to_codebook():
    book = make_book(rand((8, 4), 12))
    c = Tensor(rand((5, 4), 13), requires_grad=True)
    q = vq_lookup(c, book)
    ad.backward(sum_all(q.vectors))
    assert book.entries.grad is None


def test_ste_never_alters_entries():
    entries = rand((8, 4), 14)
    book = make_book(entries)
    before = book.entries.data.copy()
    vq_lookup(Tensor(rand((30, 4), 15)), book)
    np.testing.assert_array_equal(book.entries.data, before)


# ---------------------------------------------------------------- pair loss


def _quantized_with_rows(book, rows):
    return vq_lookup(Tensor(np.array(rows, dtype=np.float64)), book)


def test_pair_loss_identical_codes_is_zero():
    book = make_book(rand((8, 4), 16))
    rows = rand((6, 4), 17)
    qa = _quantized_with_rows(book, rows)
    qb = _quantized_with_rows(book, rows.copy())
    assert pair_loss(qa, qb).item() == 0.0


def test_pair_loss_one_hot_hand_value():
    # e0 and e1 are 256-dim one-hot; per-frame squared distance 2 over 256
    entries = np.zeros((2, 256))
    entries[0, 0] = 1.0
    entries[1, 1] = 1.0
    book = make_book(entries)
    qp = _quantized_with_rows(book, np.tile(entries[0], (2, 1)))
    qs = _quantized_with_rows(book, np.tile(entries[1], (2, 1)))
    assert abs(pair_loss(qp, qs).item() - 0.0078125) < 1e-15


def test_pair_loss_single_differing_frame_scaling():
    entries = rand((4, 8), 18)
    book = make_book(entries)
    t = 5
    rows_a = np.tile(entries[0], (t, 1))
    rows_b = rows_a.copy()
    rows_b[2] = entries[3]
    qa = _quantized_with_rows(book, rows_a)
    qb = _quantized_with_rows(book, rows_b)
    expected = ((entries[0] - entries[3]) ** 2).sum() / (t * 8)
    assert abs(pair_loss(qa, qb).item() - expected) < 1e-12


def test_pair_loss_symmetric():
    book = make_book(rand((8, 4), 19))
    qa = _quantized_with_rows(book, rand((6, 4), 20))
    qb = _quantized_with_rows(book, rand((6, 4), 21))
    assert pair_loss(qa, qb).item() == pair_loss(qb, qa).item()


def test_pair_loss_length_mismatch_names_lengths():
    book = make_book(rand((8, 4), 22))
    qa = _quantized_with_rows(book, rand((6, 4), 23))
    qb = _quantized_with_rows(book, rand((5, 4), 24))
    with pytest.raises(PairingError, match="6 vs 5"):
        pair_loss(qa, qb)


def test_pair_loss_reaches_both_encoders():
    book = make_book(rand((8, 4), 25))
    ca = Tensor(rand((6, 4), 26), requires_grad=True)
    cb = Tensor(rand((6, 4), 27), requires_grad=True)
    loss = pair_loss(vq_lookup(ca, book), vq_lookup(cb, book))
    ad.backward(loss)
    assert ca.grad is not None and cb.grad is not None
    np.testing.assert_allclose(ca.grad, -cb.grad, atol=1e-15)


# ---------------------------------------------------------------- aux loss


def test_aux_loss_zero_when_rows_equal_entries():
    entries = rand((8, 4), 28)
    book = make_book(entries)
    q = _quantized_with_rows(book, entries[[1, 3, 5]].copy())
    assert vq_aux_loss(q).item() == 0.0


def test_aux_loss_beta_zero_gives_no_encoder_gradient(monkeypatch):
    monkeypatch.setattr(vq_mod, "VQ_BETA", 0.0)
    book = make_book(rand((8, 4), 29))
    c = Tensor(rand((6, 4), 30), requires_grad=True)
    q = vq_lookup(c, book)
    ad.backward(vq_aux_loss(q))
    assert c.grad is None or np.allclose(c.grad, 0.0)
    assert book.entries.grad is not None


def test_aux_loss_matches_detached_recomputation():
    entries = rand((8, 4), 31)
    book = make_book(entries)
    rows = rand((6, 4), 32)
    q = _quantized_with_rows(book, rows)
    frozen_e = entries[q.codes]
    expected = ((rows - frozen_e) ** 2).mean() * (1.0 + VQ_BETA)
    assert abs(vq_aux_loss(q).item() - expected) < 1e-12


def test_aux_loss_moves_codebook_toward_encoder():
    book = make_book(rand((8, 4), 33))
    c = Tensor(rand((6, 4), 34), requires_grad=True)
    q = vq_lookup(c, book)
    ad.backward(vq_aux_loss(q))
    g = book.entries.grad
    assert g is not None
    used = np.unique(q.codes)
    unused = np.setdiff1d(np.arange(8), used)
    assert np.any(g[used] != 0.0)
    np.testing.assert_array_equal(g[unused], 0.0)


# ---------------------------------------------------------------- properties


@given(st.integers(0, 500))
@settings(max_examples=25, deadline=None)
def test_lookup_matches_bruteforce_property(seed):
    entries = rand((5, 3), seed)
    rows = rand((7, 3), seed + 1000)
    book = make_book(entries)
    q = vq_lookup(Tensor(rows), book)
    for i in range(7):
        dists = ((entries - rows[i]) ** 2).sum(axis=1)
        assert q.codes[i] == np.flatnonzero(dists == dists.min()).min()


def test_dead_entry_reseeding():
    book = make_book(rand((4, 3), 40))
    book.mark_step_usage(np.array([0, 1]))
    assert book.steps_since_use.tolist() == [0, 0, 1, 1]
    rows = rand((5, 3), 41)
    n = book.reseed_dead_entries(rows, NamedRng(1), step=7, max_idle_steps=1)
    assert n == 2
    assert book.steps_since_use.tolist() == [0, 0, 0, 0]
    for idx in (2, 3):
        assert any(np.array_equal(book.entries.data[idx], r) for r in rows)
