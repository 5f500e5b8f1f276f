"""Log-mel feature conventions, mel cepstra, and waveform output.

Every utterance carries 80-channel natural-log mel frames for 22050 Hz
audio at a 276-sample (12.5 ms) hop, with a 1024-point FFT window and
triangular mel filters spanning 0..8000 Hz, plus a per-frame F0 contour in
Hz where 0 marks an unvoiced frame.  The corpora are synthetic and are
written directly in these units; the filterbank and frame layout here serve
the Griffin-Lim waveform estimate and the WAV writer.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import DataError

SAMPLE_RATE = 22050
HOP = 276
N_FFT = 1024
N_MELS = 80
FMAX = 8000.0

F0_MIN = 50.0
F0_MAX = 600.0
N_PITCH_BINS = 32  # pitch classes: 0 unvoiced, then log-Hz bins from F0_MIN

N_CEPSTRA = 13


@dataclass
class MelSpectrogram:
    frames: np.ndarray  # (T, 80) log-mel energies
    sample_rate: int = SAMPLE_RATE
    hop: int = HOP

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[1] != N_MELS:
            raise DataError(f"mel spectrogram must be (T, {N_MELS}), got {self.frames.shape}")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mels: int = N_MELS, n_fft: int = N_FFT,
                   sr: int = SAMPLE_RATE, fmax: float = FMAX) -> np.ndarray:
    """Triangular HTK-mel filters, each normalized to unit area in Hz."""
    edges_hz = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(fmax), n_mels + 2))
    bin_hz = np.arange(n_fft // 2 + 1) * (sr / n_fft)
    bank = np.zeros((n_mels, n_fft // 2 + 1))
    for i in range(n_mels):
        lo, center, hi = edges_hz[i], edges_hz[i + 1], edges_hz[i + 2]
        up = (bin_hz - lo) / (center - lo)
        down = (hi - bin_hz) / (hi - center)
        tri = np.maximum(0.0, np.minimum(up, down))
        bank[i] = tri * (2.0 / (hi - lo))
    return bank


def mel_cepstra(mel: MelSpectrogram) -> np.ndarray:
    """Orthonormal DCT-II over the 80 mel channels, coefficients 1..13.

    c_0 (the frame energy) is excluded, which makes the downstream cepstral
    distortion invariant to constant log-domain offsets.
    """
    coeffs = scipy.fft.dct(mel.frames, type=2, norm="ortho", axis=1)
    return coeffs[:, 1:N_CEPSTRA + 1]


# -- WAV output ------------------------------------------------------------------


def write_wav(path, audio: np.ndarray) -> None:
    clipped = np.clip(np.asarray(audio, dtype=np.float64), -1.0, 32767.0 / 32768.0)
    pcm = (clipped * 32768.0).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(SAMPLE_RATE)
        w.writeframes(pcm.tobytes())


# -- rough waveform fallback -----------------------------------------------------


def griffin_lim(mel: MelSpectrogram, n_iter: int = 60, seed: int = 0) -> np.ndarray:
    """Phase-free waveform estimate from a log-mel spectrogram.

    Convenience output only; inverts the filterbank by pseudo-inverse and
    runs classic iterative phase estimation.
    """
    energy = np.exp(mel.frames)
    pinv = np.linalg.pinv(mel_filterbank())
    power = np.maximum(energy @ pinv.T, 0.0)
    magnitude = np.sqrt(power)

    window = np.hanning(N_FFT)
    rng = np.random.default_rng(seed)
    angles = np.exp(2j * np.pi * rng.random(magnitude.shape))
    spec = magnitude * angles
    for _ in range(n_iter):
        audio = _overlap_add(np.fft.irfft(spec, N_FFT, axis=1) * window)
        frames = _frame_from_padded(audio, magnitude.shape[0])
        rebuilt = np.fft.rfft(frames * window, axis=1)
        phase = rebuilt / np.maximum(np.abs(rebuilt), 1e-12)
        spec = magnitude * phase
    audio = _overlap_add(np.fft.irfft(spec, N_FFT, axis=1) * window)
    pad = N_FFT // 2
    audio = audio[pad:-pad] if audio.size > 2 * pad else audio
    peak = np.max(np.abs(audio))
    return audio / peak * 0.95 if peak > 0 else audio


def _overlap_add(frames: np.ndarray) -> np.ndarray:
    n_frames = frames.shape[0]
    length = N_FFT + HOP * (n_frames - 1)
    out = np.zeros(length)
    norm = np.zeros(length)
    wsq = np.hanning(N_FFT) ** 2
    for i in range(n_frames):
        out[i * HOP:i * HOP + N_FFT] += frames[i]
        norm[i * HOP:i * HOP + N_FFT] += wsq
    return out / np.maximum(norm, 1e-8)


def _frame_from_padded(audio: np.ndarray, n_frames: int) -> np.ndarray:
    need = N_FFT + HOP * (n_frames - 1)
    if audio.size < need:
        audio = np.pad(audio, (0, need - audio.size))
    idx = np.arange(N_FFT)[None, :] + HOP * np.arange(n_frames)[:, None]
    return audio[idx]
