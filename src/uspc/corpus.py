"""Synthetic corpora with known latent factors, plus the manifest and
feature-file formats they are stored in.

The factor model writes every mel frame as

    base + template[phoneme] + offset[speaker] + pitch_map[f0 bin] + noise

so tests can reason about disentanglement exactly: with zero noise, frames
that agree in (phoneme, f0 bin) differ across speakers by precisely the
offset difference.  Speaker offsets are drawn from a shared low-rank basis,
which keeps held-out speakers inside the subspace the encoder can learn
from the training speakers.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .encoders import expansion_map, quantize_f0_array
from .errors import ConfigError, DataError, IntegrityError, decode_utf8
from .features import N_MELS, N_PHONEMES, N_PITCH_BINS


@dataclass
class UtteranceRecord:
    """One example: features always, text/durations only when labeled."""

    id: str
    speaker_id: str
    labeled: bool
    mel: np.ndarray                      # (T, 80)
    f0: np.ndarray                       # (T,)
    phonemes: np.ndarray | None = None   # (T_x,) when labeled
    durations: np.ndarray | None = None  # (T_x,) when labeled

    @property
    def n_frames(self) -> int:
        return self.mel.shape[0]

    def validate(self) -> None:
        if self.mel.ndim != 2 or self.mel.shape[1] != N_MELS:
            raise IntegrityError(f"{self.id}: mel must be (T, {N_MELS}), got {self.mel.shape}")
        if self.mel.shape[0] == 0:
            raise IntegrityError(f"{self.id}: utterance has 0 frames")
        if self.f0.shape != (self.mel.shape[0],):
            raise IntegrityError(
                f"{self.id}: f0 length {self.f0.shape[0]} != mel frames {self.mel.shape[0]}")
        if not (np.all(np.isfinite(self.mel)) and np.all(np.isfinite(self.f0))):
            raise IntegrityError(f"{self.id}: non-finite feature values")
        if np.any(self.f0 < 0):
            raise IntegrityError(f"{self.id}: negative f0 values")
        if self.labeled:
            if self.phonemes is None or self.durations is None:
                raise IntegrityError(f"{self.id}: labeled record missing text or durations")
            if self.phonemes.shape != self.durations.shape or self.phonemes.size == 0:
                raise IntegrityError(f"{self.id}: phoneme/duration shapes disagree")
            # bounded by the frame count, the int64 sum below cannot wrap
            if np.any((self.durations < 0) | (self.durations > self.n_frames)):
                raise IntegrityError(f"{self.id}: a duration outside [0, {self.n_frames}]")
            if int(self.durations.sum()) != self.n_frames:
                raise IntegrityError(
                    f"{self.id}: durations sum to {int(self.durations.sum())} "
                    f"but mel has {self.n_frames} frames")


@dataclass
class SyntheticFactors:
    """Ground-truth generative factors for a synthetic corpus."""

    templates: np.ndarray        # (p_vocab, 80) phoneme spectra
    offset_basis: np.ndarray     # (rank, 80) shared speaker subspace
    speaker_offsets: np.ndarray  # (n_speakers, 80)
    pitch_map: np.ndarray        # (32, 80) additive component per f0 bin
    base_pitch_hz: np.ndarray    # (n_speakers,)
    base_level: float
    noise: float

    def validate(self) -> None:
        t = self.templates
        dists = np.sqrt(((t[:, None, :] - t[None, :, :]) ** 2).sum(-1))
        np.fill_diagonal(dists, np.inf)
        if dists.min() <= 1.0:
            raise IntegrityError("phoneme templates are not pairwise distinct enough")
        o = self.speaker_offsets
        odists = np.sqrt(((o[:, None, :] - o[None, :, :]) ** 2).sum(-1))
        np.fill_diagonal(odists, np.inf)
        if odists.min() <= 0.0:
            raise IntegrityError("speaker offsets must be pairwise distinct")


OFFSET_RANK = 8      # rank of the basis speaker offsets are drawn from
PITCH_SCALE = 0.3    # scale of the per-bin pitch map
PITCH_JITTER = 0.25  # log-scale per-utterance drift of the base pitch


@dataclass
class CorpusSpec:
    """Knobs for gen_corpus; defaults give a well-separated desk-scale corpus."""

    n_speakers: int = 6
    utts_per_speaker: int = 10
    labeled_fraction: float = 1.0
    n_test_speakers: int = 4
    test_utts_per_speaker: int | None = None
    p_vocab: int = N_PHONEMES
    noise: float = 0.05
    offset_scale: float = 4.0
    base_level: float = 0.0
    min_phonemes: int = 5
    max_phonemes: int = 15
    min_duration: int = 1
    max_duration: int = 8


def _draw_factors(rng: np.random.Generator, spec: CorpusSpec,
                  n_total_speakers: int) -> SyntheticFactors:
    templates = rng.standard_normal((spec.p_vocab, N_MELS))
    basis = rng.standard_normal((OFFSET_RANK, N_MELS))
    basis /= np.linalg.norm(basis, axis=1, keepdims=True)
    weights = rng.standard_normal((n_total_speakers, OFFSET_RANK))
    offsets = weights @ basis * (spec.offset_scale / np.sqrt(OFFSET_RANK))
    pitch_map = rng.standard_normal((N_PITCH_BINS, N_MELS)) * PITCH_SCALE
    base_pitch = rng.uniform(90.0, 250.0, n_total_speakers)
    return SyntheticFactors(templates=templates, offset_basis=basis,
                            speaker_offsets=offsets, pitch_map=pitch_map,
                            base_pitch_hz=base_pitch, base_level=spec.base_level,
                            noise=spec.noise)


def render_frames(factors: SyntheticFactors, speaker_index: int,
                  frame_phonemes: np.ndarray, f0: np.ndarray,
                  rng: np.random.Generator | None = None) -> np.ndarray:
    """Noiseless-unless-asked mel frames straight from the factor model."""
    bins = quantize_f0_array(f0)
    mel = (factors.base_level
           + factors.templates[np.asarray(frame_phonemes, dtype=np.intp)]
           + factors.speaker_offsets[speaker_index]
           + factors.pitch_map[bins])
    if factors.noise > 0 and rng is not None:
        mel = mel + rng.standard_normal(mel.shape) * factors.noise
    return mel


def _synth_utterance(rng: np.random.Generator, factors: SyntheticFactors,
                     spec: CorpusSpec, speaker_index: int, utt_id: str,
                     speaker_id: str, labeled: bool) -> UtteranceRecord:
    n_ph = int(rng.integers(spec.min_phonemes, spec.max_phonemes + 1))
    phonemes = rng.integers(0, spec.p_vocab, n_ph)
    durations = rng.integers(spec.min_duration, spec.max_duration + 1, n_ph)
    t_total = int(durations.sum())

    # per-utterance drift keeps pitch "speaker-flavored" without letting it
    # identify the speaker outright (prosody must not replace the voice)
    base = factors.base_pitch_hz[speaker_index] * np.exp(
        rng.uniform(-PITCH_JITTER, PITCH_JITTER))
    period = rng.uniform(30.0, 70.0)
    phase = rng.uniform(0.0, 2 * np.pi)
    f0 = base * (1.0 + 0.12 * np.sin(2 * np.pi * np.arange(t_total) / period + phase))
    # unvoiced spans are whole phonemes (voiceless-consonant style): random
    # positions per utterance, never cutting through the middle of a phoneme
    n_unvoiced = int(rng.integers(1, 4))
    frame_pos = expansion_map(durations)
    for pos in rng.choice(n_ph, size=min(n_unvoiced, n_ph), replace=False):
        f0[frame_pos == pos] = 0.0

    mel = render_frames(factors, speaker_index, phonemes[frame_pos], f0, rng)

    return UtteranceRecord(
        id=utt_id, speaker_id=speaker_id, labeled=labeled, mel=mel, f0=f0,
        phonemes=phonemes.astype(np.int64) if labeled else None,
        durations=durations.astype(np.int64) if labeled else None)


def gen_corpus(out_dir, seed: int, spec: CorpusSpec | None = None
               ) -> tuple[list[UtteranceRecord], list[UtteranceRecord], SyntheticFactors]:
    """Generate, write to disk, and return (train, test, factors).

    The first round(labeled_fraction * n_speakers) training speakers keep
    their text and durations; the rest are marked unlabeled.  Test speakers
    are always labeled (they exist for zero-shot evaluation).
    """
    spec = spec or CorpusSpec()
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if spec.n_speakers < 2 or spec.utts_per_speaker < 2:
        raise ConfigError("need at least 2 speakers with 2 utterances each")
    if not 0.0 <= spec.labeled_fraction <= 1.0:
        raise ConfigError(f"labeled_fraction must be in [0, 1], got {spec.labeled_fraction}")
    if spec.n_test_speakers < 0:
        raise ConfigError(f"n_test_speakers must be >= 0, got {spec.n_test_speakers}")
    if spec.test_utts_per_speaker is not None and spec.test_utts_per_speaker < 1:
        raise ConfigError(f"test_utts_per_speaker must be >= 1, got {spec.test_utts_per_speaker}")
    if not 0.0 <= spec.noise < np.inf:
        raise ConfigError(f"noise must be finite and >= 0, got {spec.noise}")

    rng = np.random.default_rng(seed)
    n_total = spec.n_speakers + spec.n_test_speakers
    factors = _draw_factors(rng, spec, n_total)
    factors.validate()

    n_labeled = int(round(spec.labeled_fraction * spec.n_speakers))
    train: list[UtteranceRecord] = []
    test: list[UtteranceRecord] = []
    test_utts = spec.test_utts_per_speaker or spec.utts_per_speaker
    for s in range(n_total):
        is_test = s >= spec.n_speakers
        speaker_id = f"spk{s:03d}"
        labeled = True if is_test else s < n_labeled
        count = test_utts if is_test else spec.utts_per_speaker
        for u in range(count):
            rec = _synth_utterance(rng, factors, spec, s,
                                   f"{speaker_id}_utt{u:03d}", speaker_id, labeled)
            (test if is_test else train).append(rec)

    out_dir = Path(out_dir)
    write_corpus(out_dir, train, split="train")
    write_corpus(out_dir, test, split="test")
    return train, test, factors


# -- on-disk formats -------------------------------------------------------------


def write_matrix(path, array: np.ndarray) -> None:
    """Raw little-endian float64 with an 8-byte (rows, cols) header."""
    arr = np.ascontiguousarray(np.atleast_2d(np.asarray(array, dtype=np.float64)))
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
        fh.write(arr.astype("<f8").tobytes())


def read_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) != 8:
            raise IntegrityError(f"{path}: truncated header")
        rows, cols = struct.unpack("<II", header)
        expected = rows * cols * 8
        got = os.fstat(fh.fileno()).st_size - 8
        if got == expected:  # read straight into the array
            array = np.empty((rows, cols), dtype="<f8")
            got = fh.readinto(array) + len(fh.read(1))
    if got != expected:
        raise IntegrityError(f"{path}: expected {expected} payload bytes, got {got}")
    return array


def manifest_name(split: str) -> str:
    if split == "train":
        return "manifest.txt"
    if split == "test":
        return "manifest_test.txt"
    raise ConfigError(f"unknown split {split!r}")


def _ints_to_field(values) -> str:
    return ",".join(str(int(v)) for v in values)


def parse_ids(text: str, source: str) -> np.ndarray:
    """Comma-separated integers as int64; anything else raises an
    IntegrityError naming `source`."""
    try:
        return np.array([int(v) for v in text.split(",")], dtype=np.int64)
    except (ValueError, OverflowError):
        raise IntegrityError(f"{source}: value that is not an int64 in {text!r}") from None


def write_corpus(out_dir, records: list[UtteranceRecord], split: str = "train") -> None:
    out_dir = Path(out_dir)
    (out_dir / "mel").mkdir(parents=True, exist_ok=True)
    (out_dir / "f0").mkdir(parents=True, exist_ok=True)
    lines = []
    for rec in records:
        rec.validate()
        mel_rel = f"mel/{rec.id}.f64"
        f0_rel = f"f0/{rec.id}.f64"
        write_matrix(out_dir / mel_rel, rec.mel)
        write_matrix(out_dir / f0_rel, rec.f0.reshape(-1, 1))
        ph = _ints_to_field(rec.phonemes) if rec.labeled else ""
        du = _ints_to_field(rec.durations) if rec.labeled else ""
        flag = "1" if rec.labeled else "0"
        lines.append(f"{rec.id}|{rec.speaker_id}|{flag}|{ph}|{du}|{mel_rel}|{f0_rel}")
    with open(out_dir / manifest_name(split), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))


def _is_file(path: Path) -> bool:
    """Whether `path` names a regular file; a name too long for the file
    system names none."""
    try:
        return path.is_file()
    except OSError:
        return False


def load_corpus(corpus_dir, split: str = "train") -> list[UtteranceRecord]:
    corpus_dir = Path(corpus_dir)
    manifest = corpus_dir / manifest_name(split)
    if not manifest.exists():
        raise DataError(f"manifest not found: {manifest}")
    records, first_line = [], {}
    text = decode_utf8(manifest.read_bytes(), str(manifest), IntegrityError)
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        parts = line.split("|")
        if len(parts) != 7:
            raise IntegrityError(f"{manifest}:{lineno}: expected 7 fields, got {len(parts)}")
        uid, speaker, flag, ph, du, mel_rel, f0_rel = parts
        if uid in first_line:  # records are keyed by id downstream
            raise IntegrityError(f"{manifest}:{lineno}: utterance id {uid!r} repeats "
                                 f"line {first_line[uid]}")
        first_line[uid] = lineno
        if flag not in ("0", "1"):
            raise IntegrityError(f"{manifest}:{lineno}: labeled flag must be 0 or 1, got {flag!r}")
        labeled = flag == "1"
        if not labeled and (ph or du):  # write_corpus leaves both empty
            raise IntegrityError(f"{manifest}:{lineno}: unlabeled line with phonemes or durations")
        mel_path = corpus_dir / mel_rel
        f0_path = corpus_dir / f0_rel
        for path in (mel_path, f0_path):
            if not _is_file(path):
                raise DataError(f"{uid}: missing feature file {path}")
        rec = UtteranceRecord(
            id=uid, speaker_id=speaker, labeled=labeled,
            mel=read_matrix(mel_path),
            f0=read_matrix(f0_path).reshape(-1),
            phonemes=parse_ids(ph, f"{manifest}:{lineno}") if labeled else None,
            durations=parse_ids(du, f"{manifest}:{lineno}") if labeled else None)
        rec.validate()
        records.append(rec)
    if not records:
        raise DataError(f"{manifest}: corpus is empty")
    return records
