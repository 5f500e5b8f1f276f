"""Feature tests: filterbank placement, cepstra against a naive DCT oracle,
WAV output, and the Griffin-Lim waveform estimate."""

import numpy as np

from uspc import features
from uspc.features import MelSpectrogram, mel_cepstra, write_wav

from conftest import read_pcm16


def sine(freq, seconds=1.0, amp=1.0, sr=22050):
    t = np.arange(int(seconds * sr)) / sr
    return amp * np.sin(2 * np.pi * freq * t)


# ---------------------------------------------------------------- filterbank


def test_filterbank_1khz_bin_peaks_in_nearest_channel():
    bank = features.mel_filterbank()
    assert bank.shape == (80, 513)
    edges_mel = np.linspace(features.hz_to_mel(0.0), features.hz_to_mel(8000.0), 82)
    centers = features.mel_to_hz(edges_mel)[1:-1]
    k = round(1000.0 * 1024 / 22050)  # FFT bin of a 1 kHz tone
    assert np.argmax(bank[:, k]) == np.argmin(np.abs(centers - k * 22050 / 1024))


# ---------------------------------------------------------------- cepstra


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


def test_cepstra_shape():
    mel = MelSpectrogram(np.random.default_rng(4).standard_normal((7, 80)))
    assert mel_cepstra(mel).shape == (7, 13)


# ---------------------------------------------------------------- wav io


def test_wav_round_trip(tmp_path):
    audio = sine(440.0, seconds=0.2, amp=0.5)
    path = tmp_path / "tone.wav"
    write_wav(path, audio)
    back = read_pcm16(path)
    assert back.size == audio.size
    assert np.max(np.abs(back - audio)) < 1.0 / 32768.0


def test_griffin_lim_produces_audio():
    frames = np.random.default_rng(5).standard_normal((24, 80)) - 4.0
    audio = features.griffin_lim(MelSpectrogram(frames), n_iter=5)
    assert audio.size > 0
    assert np.all(np.isfinite(audio))
