"""Feature tests: the mel frame shape check, and cepstra against a naive DCT
oracle and against scipy's DCT-II."""

import numpy as np
import pytest
import scipy.fft

from uspc.errors import DataError
from uspc.features import MelSpectrogram, mel_cepstra


def naive_dct_row(row):
    """Direct O(n^2) orthonormal DCT-II."""
    n = row.size
    out = np.zeros(n)
    for k in range(n):
        s = sum(row[j] * np.cos(np.pi * k * (2 * j + 1) / (2 * n)) for j in range(n))
        scale = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
        out[k] = scale * s
    return out


def test_cepstra_constant_frame_is_zero():
    mel = MelSpectrogram(np.full((3, 80), 2.5))
    np.testing.assert_allclose(mel_cepstra(mel), 0.0, atol=1e-12)


def test_cepstra_identical_frames_identical_rows():
    row = np.random.default_rng(2).standard_normal(80)
    mel = MelSpectrogram(np.stack([row, row]))
    ceps = mel_cepstra(mel)
    np.testing.assert_array_equal(ceps[0], ceps[1])


def test_cepstra_matches_naive_dct_oracle():
    row = np.random.default_rng(3).standard_normal(80)
    ceps = mel_cepstra(MelSpectrogram(row[None, :]))
    np.testing.assert_allclose(ceps[0], naive_dct_row(row)[1:14], atol=1e-10)


@pytest.mark.parametrize("n_frames", [1, 7, 200])
def test_cepstra_match_scipy_orthonormal_dct(n_frames):
    frames = np.random.default_rng(n_frames).standard_normal((n_frames, 80))
    want = scipy.fft.dct(frames, type=2, norm="ortho", axis=1)[:, 1:14]
    np.testing.assert_allclose(mel_cepstra(MelSpectrogram(frames)), want, rtol=0, atol=1e-12)


def test_cepstra_shape():
    mel = MelSpectrogram(np.random.default_rng(4).standard_normal((7, 80)))
    assert mel_cepstra(mel).shape == (7, 13)


@pytest.mark.parametrize("shape", [(7,), (7, 79), (2, 7, 80)])
def test_mel_spectrogram_rejects_frames_not_t_by_80(shape):
    with pytest.raises(DataError):
        MelSpectrogram(np.zeros(shape))
