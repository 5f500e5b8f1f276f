"""Log-mel frame conventions and mel cepstra.

Every utterance carries 80-channel natural-log mel frames plus a per-frame
F0 contour in Hz, where 0 marks an unvoiced frame.  The corpora are
synthetic factor-model frames written directly in these units; no waveform
is read or written.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import DataError

N_MELS = 80
N_PHONEMES = 64  # phoneme vocabulary of the text encoder

F0_MIN = 50.0
F0_MAX = 600.0
N_PITCH_BINS = 32  # pitch classes: 0 unvoiced, then log-Hz bins from F0_MIN

N_CEPSTRA = 13


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
    coeffs = scipy.fft.dct(mel.frames, type=2, norm="ortho", axis=1)
    return coeffs[:, 1:N_CEPSTRA + 1]
