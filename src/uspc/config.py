"""Dataclass configuration for the model and the training loop, plus the
flat `key = value` text format used by the CLI and checkpoints."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .features import N_MELS


@dataclass
class ModelConfig:
    """Architecture hyperparameters.  Defaults are the published sizes."""

    p_vocab: int = 64
    d_model: int = 256
    n_heads: int = 2
    text_blocks: int = 4
    content_blocks: int = 6
    decoder_blocks: int = 6
    kernel_size: int = 3
    dropout: float = 0.5
    n_mels: int = N_MELS
    codebook_size: int = 256

    def validate(self) -> None:
        for key in ("p_vocab", "d_model", "n_heads"):
            if getattr(self, key) < 1:
                raise ConfigError(f"model.{key} must be >= 1, got {getattr(self, key)}")
        for key in ("text_blocks", "content_blocks", "decoder_blocks"):
            if getattr(self, key) < 0:
                raise ConfigError(f"model.{key} must be >= 0, got {getattr(self, key)}")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ConfigError(f"model.kernel_size must be odd and >= 1, got {self.kernel_size}")
        if self.d_model % self.n_heads:
            raise ConfigError(f"d_model {self.d_model} not divisible by heads {self.n_heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.codebook_size < 1:
            raise ConfigError("codebook must have at least one entry")


@dataclass
class TrainConfig:
    """Optimization schedule, batch layout and loss weights."""

    seed: int = 0
    mode: str = "full"  # full | tts-only | vc-only | novq
    lr_init: float = 1e-3
    lr_decay_per_epoch: float = 0.95
    batch_paired: int = 8
    batch_unpaired: int = 8
    max_steps: int = 2000
    grad_clip_norm: float = 1.0
    w_mel: float = 1.0
    w_pitch: float = 0.1
    w_duration: float = 0.1
    w_pair: float = 1.0
    w_vq: float = 1.0
    vq_beta: float = 0.25
    dead_code_steps: int = 500
    plateau_epochs: int = 5
    plateau_delta: float = 1e-4
    model: ModelConfig = field(default_factory=ModelConfig)

    def validate(self) -> None:
        if self.lr_init <= 0:
            raise ConfigError(f"lr_init must be > 0, got {self.lr_init}")
        if not 0.0 < self.lr_decay_per_epoch <= 1.0:
            raise ConfigError(f"lr decay must be in (0, 1], got {self.lr_decay_per_epoch}")
        if self.batch_paired < 1 or self.batch_unpaired < 0:
            raise ConfigError("batch sizes must be positive (unpaired may be 0)")
        if self.mode not in ("full", "tts-only", "vc-only", "novq"):
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
    train_fields = {f.name: f for f in fields(TrainConfig)}
    model_fields = {f.name: f for f in fields(ModelConfig)}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
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
    with open(path, "r", encoding="utf-8") as fh:
        return from_text(fh.read())

