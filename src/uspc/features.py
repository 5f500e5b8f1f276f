"""Audio feature extraction: log-mel spectrograms, autocorrelation pitch
tracking, and mel cepstra.

Fixed parameters (all utterances share them):
  sample rate 22050 Hz, hop 276 samples (12.5 ms), window = FFT = 1024
  samples, 80 triangular mel filters spanning 0..8000 Hz, natural-log
  compression clamped at 1e-5.  Note the window length wins over a nominal
  50 ms frame: 1102 samples cannot feed a 1024-point FFT, so the window is
  pinned to the FFT size.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import ConfigError, DataError, FormatError

SAMPLE_RATE = 22050
HOP = 276
N_FFT = 1024
N_MELS = 80
FMAX = 8000.0
LOG_FLOOR = 1e-5

F0_MIN = 50.0
F0_MAX = 600.0
N_PITCH_BINS = 32  # pitch classes: 0 unvoiced, then log-Hz bins from F0_MIN
VOICING_THRESHOLD = 0.5
ENERGY_GATE_RMS = 1e-4

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


@dataclass
class PitchContour:
    f0_hz: np.ndarray  # (T,), 0.0 encodes unvoiced

    def __post_init__(self):
        self.f0_hz = np.asarray(self.f0_hz, dtype=np.float64).reshape(-1)

    @property
    def n_frames(self) -> int:
        return self.f0_hz.shape[0]


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


def filterbank_centers_hz(n_mels: int = N_MELS, fmax: float = FMAX) -> np.ndarray:
    edges_hz = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(fmax), n_mels + 2))
    return edges_hz[1:-1]


def _frame_signal(audio: np.ndarray) -> np.ndarray:
    """Reflection-pad by half a window and slice into hop-spaced frames."""
    audio = np.asarray(audio, dtype=np.float64).reshape(-1)
    pad = N_FFT // 2
    if audio.size <= pad:
        raise DataError(
            f"audio too short: {audio.size} samples, need more than {pad} "
            "for reflection padding of half a window")
    padded = np.pad(audio, pad, mode="reflect")
    n_frames = (padded.size - N_FFT) // HOP + 1
    idx = np.arange(N_FFT)[None, :] + HOP * np.arange(n_frames)[:, None]
    return padded[idx]


def mel_spectrogram(audio: np.ndarray, sr: int = SAMPLE_RATE) -> MelSpectrogram:
    if sr != SAMPLE_RATE:
        raise ConfigError(f"only {SAMPLE_RATE} Hz audio is supported, got {sr}")
    frames = _frame_signal(audio)
    window = np.hanning(N_FFT)
    spectrum = np.fft.rfft(frames * window, axis=1)
    power = spectrum.real ** 2 + spectrum.imag ** 2
    mel = power @ mel_filterbank().T
    return MelSpectrogram(np.log(np.maximum(mel, LOG_FLOOR)))


def extract_f0(audio: np.ndarray, sr: int = SAMPLE_RATE) -> PitchContour:
    """Per-frame normalized-autocorrelation pitch with parabolic refinement.

    A frame is voiced iff its best normalized correlation exceeds 0.5 and its
    RMS exceeds 1e-4; the reported lag is the smallest strong local maximum,
    which keeps harmonics from halving the estimated frequency.
    """
    if sr != SAMPLE_RATE:
        raise ConfigError(f"only {SAMPLE_RATE} Hz audio is supported, got {sr}")
    frames = _frame_signal(audio)
    lag_min = int(np.ceil(sr / F0_MAX))
    lag_max = int(np.floor(sr / F0_MIN))
    f0 = np.zeros(frames.shape[0])
    n = N_FFT
    fft_len = 2 * n
    for i, frame in enumerate(frames):
        rms = np.sqrt(np.mean(frame * frame))
        if rms <= ENERGY_GATE_RMS:
            continue
        spec = np.fft.rfft(frame, fft_len)
        acf = np.fft.irfft(spec * spec.conj(), fft_len)[:n]
        sq = np.cumsum(frame * frame)
        total = sq[-1]
        lags = np.arange(lag_min, min(lag_max, n - 2) + 1)
        e_head = sq[n - lags - 1]             # energy of x[0 .. n-L-1]
        e_tail = total - sq[lags - 1]         # energy of x[L .. n-1]
        denom = np.sqrt(np.maximum(e_head * e_tail, 1e-300))
        ncc = acf[lags] / denom
        best = float(ncc.max())
        if best <= VOICING_THRESHOLD:
            continue
        # smallest local max close to the global max avoids period doubling
        strong = max(VOICING_THRESHOLD, 0.9 * best)
        interior = np.flatnonzero(
            (ncc[1:-1] >= ncc[:-2]) & (ncc[1:-1] >= ncc[2:]) & (ncc[1:-1] >= strong)) + 1
        pick = interior[0] if interior.size else int(np.argmax(ncc))
        lag = float(lags[pick])
        if 0 < pick < ncc.size - 1:
            y0, y1, y2 = ncc[pick - 1], ncc[pick], ncc[pick + 1]
            denom2 = y0 - 2 * y1 + y2
            if abs(denom2) > 1e-12:
                lag += 0.5 * (y0 - y2) / denom2
        f0[i] = float(np.clip(sr / lag, F0_MIN, F0_MAX))
    return PitchContour(f0)


def mel_cepstra(mel: MelSpectrogram) -> np.ndarray:
    """Orthonormal DCT-II over the 80 mel channels, coefficients 1..13.

    c_0 (the frame energy) is excluded, which makes the downstream cepstral
    distortion invariant to constant log-domain offsets.
    """
    coeffs = scipy.fft.dct(mel.frames, type=2, norm="ortho", axis=1)
    return coeffs[:, 1:N_CEPSTRA + 1]


# -- WAV ingestion --------------------------------------------------------------


def read_wav(path) -> np.ndarray:
    """Mono 16-bit PCM at 22050 Hz -> float64 samples in [-1, 1)."""
    with wave.open(str(path), "rb") as w:
        if w.getnchannels() != 1:
            raise FormatError(f"{path}: expected mono audio, got {w.getnchannels()} channels")
        if w.getsampwidth() != 2:
            raise FormatError(f"{path}: expected 16-bit samples, got {8 * w.getsampwidth()}-bit")
        if w.getframerate() != SAMPLE_RATE:
            raise FormatError(f"{path}: expected {SAMPLE_RATE} Hz, got {w.getframerate()}")
        raw = w.readframes(w.getnframes())
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0


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
