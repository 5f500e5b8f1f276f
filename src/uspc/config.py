"""Dataclass configuration for the model and the training loop, plus the
flat `key = value` text format used by the CLI and checkpoints."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import ClassVar

from .errors import ConfigError, decode_utf8
from .features import N_MELS

# training modes: both pipelines, one of them, or both without quantization
MODES = ("full", "tts-only", "vc-only", "novq")


@dataclass
class ModelConfig:
    """Architecture hyperparameters.  Defaults are the published sizes."""

    d_model: int = 256
    n_heads: int = 2
    text_blocks: int = 4
    content_blocks: int = 6
    decoder_blocks: int = 6
    dropout: float = 0.5
    codebook_size: int = 256
    n_mels: ClassVar[int] = N_MELS  # the corpus's mel bins; not a key

    def validate(self) -> None:
        for key in ("d_model", "n_heads"):
            if getattr(self, key) < 1:
                raise ConfigError(f"model.{key} must be >= 1, got {getattr(self, key)}")
        for key in ("text_blocks", "content_blocks", "decoder_blocks"):
            if getattr(self, key) < 0:
                raise ConfigError(f"model.{key} must be >= 0, got {getattr(self, key)}")
        if self.d_model % self.n_heads:
            raise ConfigError(f"d_model {self.d_model} not divisible by heads {self.n_heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.codebook_size < 1:
            raise ConfigError("codebook must have at least one entry")


@dataclass
class TrainConfig:
    """Optimization schedule, batch layout and loss weights.  What `mode`
    trains is read through the properties below, not by the mode's name."""

    seed: int = 0
    mode: str = "full"  # one of MODES
    lr_decay_per_epoch: float = 0.95
    batch_paired: int = 8
    batch_unpaired: int = 8
    max_steps: int = 2000
    w_pitch: float = 0.1
    w_pair: float = 1.0
    dead_code_steps: int = 500
    plateau_epochs: int = 5
    model: ModelConfig = field(default_factory=ModelConfig)

    @property
    def trains_text(self) -> bool:
        """The text pipeline trains: every mode but vc-only."""
        return self.mode != "vc-only"

    @property
    def trains_pair(self) -> bool:
        """Both pipelines train, and the pair loss between them: full, novq."""
        return self.mode in ("full", "novq")

    @property
    def uses_vq(self) -> bool:
        """Content is quantized by the codebook: every mode but novq."""
        return self.mode != "novq"

    def validate(self) -> None:
        if not 0 <= self.seed < 2 ** 64:  # the Philox key's width
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")
        for key in ("w_pitch", "w_pair"):
            if not 0.0 <= getattr(self, key) < math.inf:
                raise ConfigError(f"{key} must be finite and >= 0, got {getattr(self, key)}")
        if not 0.0 < self.lr_decay_per_epoch <= 1.0:
            raise ConfigError(f"lr decay must be in (0, 1], got {self.lr_decay_per_epoch}")
        if self.batch_paired < 1 or self.batch_unpaired < 0:
            raise ConfigError("batch sizes must be positive (unpaired may be 0)")
        if self.max_steps < 0:
            raise ConfigError(f"max_steps must be >= 0, got {self.max_steps}")
        for key in ("dead_code_steps", "plateau_epochs"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown training mode {self.mode!r}")
        self.model.validate()


def to_text(cfg: TrainConfig) -> str:
    lines = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if f.name == "model":
            for mf in fields(v):
                lines.append(f"model.{mf.name} = {getattr(v, mf.name)}")
        else:
            lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def _coerce(raw: str, target_type, lineno: int, key: str):
    raw = raw.strip()
    try:
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
    except ValueError:
        raise ConfigError(
            f"line {lineno}: {key} needs {target_type.__name__}, got {raw!r}") from None
    return raw


def from_text(text: str) -> TrainConfig:
    cfg = TrainConfig()
    # `model` is set field by field, as model.<key> lines
    train_fields = {f.name: f for f in fields(TrainConfig) if f.name != "model"}
    model_fields = {f.name: f for f in fields(ModelConfig)}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if first_line.setdefault(key, lineno) != lineno:
            raise ConfigError(f"line {lineno}: {key} is set again, first at line "
                              f"{first_line[key]}")
        if key.startswith("model."):
            mkey = key[len("model."):]
            if mkey not in model_fields:
                raise ConfigError(f"line {lineno}: unknown model key {mkey!r}")
            setattr(cfg.model, mkey,
                    _coerce(raw, type(getattr(cfg.model, mkey)), lineno, key))
        elif key in train_fields:
            setattr(cfg, key, _coerce(raw, type(getattr(cfg, key)), lineno, key))
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    cfg.validate()
    return cfg


def load_config(path) -> TrainConfig:
    with open(path, "rb") as fh:
        return from_text(decode_utf8(fh.read(), str(path), ConfigError))

