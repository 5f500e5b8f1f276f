"""Acceptance gate.

Each test prints one PASS/FAIL line.  The trend criteria train real models
and take minutes; run `pytest tests/test_acceptance.py -v -s` to watch.
Budget-heavy fixtures are session-scoped and shared between criteria.
"""

import time

import numpy as np
import pytest

from uspc import autodiff as ad
from uspc.autodiff import Tensor
from uspc.config import ModelConfig, TrainConfig
from uspc.corpus import CorpusSpec, gen_corpus
from uspc.encoders import quantize_f0_array
from uspc.features import MelSpectrogram
from uspc.layers import Ctx
from uspc.metrics import (MCD_CONST, f0_corr, f0_rmse, mcd, phoneme_rep_distance,
                          vc_acs_ratio, vuv_error)
from uspc.model import JointModel
from uspc.optim import AdamState
from uspc.rng import NamedRng
from uspc.training import joint_step, train, tts_step
from uspc.vq import Codebook, vq_lookup
from uspc.optim import ParamStore


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}" + (f" :: {detail}" if detail else ""))


# =====================================================================
# criterion: gradient suite
# =====================================================================


def random_case(rng, case_index):
    """One random differentiable graph over a random input, up to 8x8."""
    rows = int(rng.integers(1, 9))
    cols = int(rng.integers(1, 9))
    x = Tensor(rng.standard_normal((rows, cols)))
    kind = case_index % 8
    if kind == 0:
        w = Tensor(rng.standard_normal((cols, int(rng.integers(1, 9)))))
        return x, lambda t: ad.mean_all(ad.mul(ad.matmul(t, w), ad.matmul(t, w)))
    if kind == 1:
        k = Tensor(rng.standard_normal((3, cols, int(rng.integers(1, 9)))))
        b = Tensor(rng.standard_normal(k.data.shape[2]))
        return x, lambda t: ad.mean_all(ad.relu(ad.conv1d(t, k, b)))
    if kind == 2:
        gain = Tensor(rng.standard_normal(cols))
        bias = Tensor(rng.standard_normal(cols))
        return x, lambda t: ad.sum_all(ad.layer_norm(t, gain, bias))
    if kind == 3:
        targets = rng.integers(0, cols, rows)
        return x, lambda t: ad.softmax_cross_entropy(t, targets)
    if kind == 4:
        other = Tensor(rng.standard_normal((rows, cols)))
        return x, lambda t: ad.mse(t, other)
    if kind == 5:
        n_heads = 2 if cols % 2 == 0 else 1
        return x, lambda t: ad.mean_all(ad.attention_core(t, t, t, n_heads))
    if kind == 6:
        idx = rng.integers(0, rows, rows + 2)
        return x, lambda t: ad.mean_all(ad.mul(ad.gather_rows(t, idx),
                                               ad.gather_rows(t, idx)))
    v = Tensor(rng.standard_normal(cols))
    w = Tensor(np.outer(v.data, v.data))
    return x, lambda t: ad.mean_all(ad.mul(ad.linear(t, w, v), ad.linear(t, w, v)))


def random_segmented_case(rng, case_index):
    """One random graph over a packed input of 1-3 non-empty segments."""
    n_seg = int(rng.integers(1, 4))
    lengths = rng.integers(1, 4, n_seg)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    rows, cols = int(offsets[-1]), 2 * int(rng.integers(1, 4))
    x = Tensor(rng.standard_normal((rows, cols)))
    kind = case_index % 5
    if kind == 0:
        k = Tensor(rng.standard_normal((3, cols, int(rng.integers(1, 5)))))
        return x, lambda t: ad.mean_all(ad.relu(ad.conv1d(t, k, None, offsets)))
    if kind == 1:
        return x, lambda t: ad.mean_all(ad.attention_core(t, t, t, 2, offsets))
    if kind == 2:
        v = Tensor(rng.standard_normal(cols))
        return x, lambda t: ad.sum_all(ad.mul(ad.mul(ad.segment_mean(t, offsets), v),
                                              ad.segment_mean(t, offsets)))
    if kind == 3:
        other = Tensor(rng.standard_normal((rows, cols)))
        return x, lambda t: ad.mse(t, other, offsets)
    targets = rng.integers(0, cols, rows)
    return x, lambda t: ad.softmax_cross_entropy(t, targets, offsets)


def test_acceptance_gradient_suite():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        x, f = random_case(rng, i)
        worst = max(worst, ad.grad_check(f, x, h=1e-5))
    # packed inputs draw from their own stream, so the 100 cases above keep theirs
    seg_rng = np.random.default_rng(2025)
    for i in range(25):
        x, f = random_segmented_case(seg_rng, i)
        worst = max(worst, ad.grad_check(f, x, h=1e-5))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 60
    report("gradient suite: 100 random graphs + 25 packed ones, max rel err < 1e-4, "
           "< 1 min", ok,
           f"max_err={worst:.2e} runtime={elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 60


def test_acceptance_straight_through_exemption():
    # graphs with quantization are excluded from finite differences; the STE
    # contract is exact pass-through instead
    store = ParamStore()
    book = Codebook(store, NamedRng(0), 16, 8)
    c = Tensor(np.random.default_rng(1).standard_normal((12, 8)), requires_grad=True)
    q = vq_lookup(c, book)
    upstream = np.random.default_rng(2).standard_normal((12, 8))
    ad.backward(ad.sum_all(ad.mul(q.vectors, Tensor(upstream))))
    pass_through = np.array_equal(c.grad, upstream)
    no_book_grad = book.entries.grad is None
    forward_exact = all(q.vectors.data[i].tobytes() == book.entries.data[k].tobytes()
                        for i, k in enumerate(q.codes))
    ok = pass_through and no_book_grad and forward_exact
    report("straight-through contract: exact pass-through, no codebook grads", ok)
    assert ok


# =====================================================================
# criterion: VQ oracle
# =====================================================================


def test_acceptance_vq_oracle():
    rng = np.random.default_rng(7)
    entries = rng.standard_normal((16, 8))
    # plant exact ties: duplicate entry 3 at index 11
    entries[11] = entries[3]
    rows = rng.standard_normal((1000, 8))
    rows[::50] = entries[3]  # rows that hit the duplicated pair exactly
    store = ParamStore()
    book = Codebook(store, NamedRng(0), 16, 8)
    book.entries.data = entries.copy()
    t0 = time.perf_counter()
    q = vq_lookup(Tensor(rows), book)
    agree = 0
    for i in range(1000):
        d = ((entries - rows[i]) ** 2).sum(axis=1)
        agree += int(q.codes[i] == np.flatnonzero(d == d.min()).min())
    elapsed = time.perf_counter() - t0
    ok = agree == 1000 and elapsed < 5
    report("vq oracle: 1000 rows x V=16 match brute force incl. ties, < 5 s", ok,
           f"agreement={agree}/1000 runtime={elapsed:.2f}s")
    assert agree == 1000
    assert elapsed < 5


# =====================================================================
# criterion: metric identities
# =====================================================================


def test_acceptance_metric_identities():
    contour = np.array([120.0, 0.0, 180.0, 240.0, 0.0, 99.0])
    mel = MelSpectrogram(np.random.default_rng(3).standard_normal((5, 80)))
    ident_ok = (f0_rmse(contour, contour.copy()) == 0.0
                and mcd(mel, MelSpectrogram(mel.frames.copy())) == 0.0
                and vuv_error(contour, contour.copy()) == 0.0
                and abs(f0_corr(contour, contour.copy()) - 1.0) < 1e-15)

    import scipy.fft
    t, delta = 4, 0.37
    basis = scipy.fft.idct(np.eye(80), type=2, norm="ortho", axis=0)
    hyp = np.zeros((t, 80))
    hyp[1] = delta * basis[:, 3]
    closed_form = MCD_CONST * np.sqrt(2.0) * delta / t
    mcd_ok = abs(mcd(MelSpectrogram(np.zeros((t, 80))), MelSpectrogram(hyp))
                 - closed_form) < 1e-9
    ok = ident_ok and mcd_ok
    report("metric identities: self-metrics exact, MCD closed form to 1e-9", ok)
    assert ident_ok
    assert mcd_ok
