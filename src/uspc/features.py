"""Log-mel frame conventions and mel cepstra.

Every utterance carries 80-channel natural-log mel frames plus a per-frame
F0 contour in Hz, where 0 marks an unvoiced frame.  The corpora are
synthetic factor-model frames written directly in these units; no waveform
is read or written.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

N_MELS = 80
N_PHONEMES = 64  # phoneme vocabulary of the text encoder

F0_MIN = 50.0
F0_MAX = 600.0
N_PITCH_BINS = 32  # pitch classes: 0 unvoiced, then log-Hz bins from F0_MIN

N_CEPSTRA = 13

# columns 1..N_CEPSTRA of the orthonormal DCT-II matrix over the mel
# channels: c_k = sqrt(2 / N) * sum_j x_j cos(pi k (2j + 1) / 2N)
_CEPSTRA_BASIS = np.sqrt(2.0 / N_MELS) * np.cos(
    np.pi * np.arange(1, N_CEPSTRA + 1)[None, :]
    * (2 * np.arange(N_MELS)[:, None] + 1) / (2 * N_MELS))


@dataclass
class MelSpectrogram:
    frames: np.ndarray  # (T, 80) log-mel energies

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[1] != N_MELS:
            raise DataError(f"mel spectrogram must be (T, {N_MELS}), got {self.frames.shape}")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


def mel_cepstra(mel: MelSpectrogram) -> np.ndarray:
    """Orthonormal DCT-II over the 80 mel channels, coefficients 1..13.

    c_0 (the frame energy) is excluded, which makes the downstream cepstral
    distortion invariant to constant log-domain offsets.
    """
    return mel.frames @ _CEPSTRA_BASIS
