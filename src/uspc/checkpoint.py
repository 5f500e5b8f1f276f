"""Binary checkpoint format.

Layout (all little-endian):
    magic "USPC" | u32 version=1 | u32 config length | config text (utf-8)
    | u64 step counter | u64 tensor count
    | per tensor: u32 name length | name bytes | u32 rank | u64 dims... | f64 data

Parameters, the optimizer state and the codebook's idle counters all travel
as named tensors; a round trip is bitwise lossless, and a checkpoint missing
any of them does not restore.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import config as config_mod
from .errors import FormatError, decode_utf8
from .model import JointModel
from .optim import AdamState

MAGIC = b"USPC"
VERSION = 1


@dataclass
class Checkpoint:
    version: int
    config_text: str
    step: int
    tensors: dict[str, np.ndarray]


def _write_tensor(fh, name: str, array: np.ndarray) -> None:
    # written from the tensor's own buffer: no copy of a little-endian
    # float64 array that is already contiguous
    data = np.asarray(array, dtype="<f8")
    if not data.flags["C_CONTIGUOUS"]:
        data = np.ascontiguousarray(data)  # keeps 0-d tensors rank 0
    encoded = name.encode("utf-8")
    fh.write(struct.pack("<I", len(encoded)))
    fh.write(encoded)
    fh.write(struct.pack("<I", data.ndim))
    for dim in data.shape:
        fh.write(struct.pack("<Q", dim))
    fh.write(memoryview(data))


def _read_exact(fh, n: int, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise FormatError(f"truncated checkpoint while reading {what}")
    return buf


def save_checkpoint(path, model: JointModel, opt: AdamState,
                    train_config, step: int) -> None:
    tensors: dict[str, np.ndarray] = {name: p.data for name, p in model.store.items()}
    tensors["codebook.steps_since_use"] = model.codebook.steps_since_use.astype(np.float64)
    tensors["optim.t"] = np.asarray(float(opt.t))
    tensors["optim.lr"] = np.asarray(float(opt.lr))
    for name in model.store:
        tensors[f"optim.m.{name}"] = opt.m[name]
        tensors[f"optim.v.{name}"] = opt.v[name]

    config_text = config_mod.to_text(train_config)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # write beside the target, then rename over it: a failed write leaves the
    # previous checkpoint intact
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            encoded = config_text.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<Q", step))
            fh.write(struct.pack("<Q", len(tensors)))
            for name in sorted(tensors):
                _write_tensor(fh, name, tensors[name])
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        if _read_exact(fh, 4, "magic") != MAGIC:
            raise FormatError(f"{path}: bad magic bytes (not a checkpoint)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != VERSION:
            raise FormatError(f"{path}: unsupported version {version}, expected {VERSION}")
        (cfg_len,) = struct.unpack("<I", _read_exact(fh, 4, "config length"))
        config_text = decode_utf8(_read_exact(fh, cfg_len, "config"), f"{path}: config",
                                  FormatError)
        (step,) = struct.unpack("<Q", _read_exact(fh, 8, "step"))
        (count,) = struct.unpack("<Q", _read_exact(fh, 8, "tensor count"))
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", _read_exact(fh, 4, "name length"))
            name = decode_utf8(_read_exact(fh, name_len, "name"), f"{path}: tensor name",
                               FormatError)
            (rank,) = struct.unpack("<I", _read_exact(fh, 4, "rank"))
            dims = [struct.unpack("<Q", _read_exact(fh, 8, "dim"))[0] for _ in range(rank)]
            # sized with Python ints against the bytes left, so no declared
            # shape overflows or allocates before it is known to fit the file
            n_bytes = math.prod(dims) * 8
            left = file_size - fh.tell()
            if n_bytes > left:  # a size past 4,300 digits cannot be printed
                raise FormatError(f"{path}: truncated checkpoint: tensor {name} of rank "
                                  f"{rank} needs more than the {left} bytes left")
            try:
                array = np.empty(dims, dtype="<f8")
            except ValueError as exc:  # an empty tensor with an oversized dimension
                raise FormatError(f"{path}: tensor {name} has unusable shape "
                                  f"{tuple(dims)}") from exc
            if fh.readinto(array) != n_bytes:  # straight into the tensor's own array
                raise FormatError(f"truncated checkpoint while reading tensor {name}")
            tensors[name] = array
        trailing = fh.read(1)
    if trailing:
        raise FormatError(f"{path}: trailing bytes after {count} tensors")
    if len(tensors) != count:
        raise FormatError(f"{path}: duplicate tensor names")
    return Checkpoint(version=version, config_text=config_text, step=step, tensors=tensors)


def restore_model(ckpt: Checkpoint) -> tuple[JointModel, AdamState, "config_mod.TrainConfig"]:
    """Rebuild model and optimizer from a loaded checkpoint.

    Raises FormatError listing every expected-but-missing tensor name, or
    naming a tensor whose shape does not fit the model, a step counter or
    idle counter that is not a whole number >= 0, or a learning rate that
    is not finite and >= 0.  Values are written into the views of the
    optimizer's packed block.
    Tensors the model does not read, such as the per-entry lookup counts
    that older checkpoints carry, are ignored.
    """
    cfg = config_mod.from_text(ckpt.config_text)
    model, opt = JointModel.for_run(cfg)
    shapes = {"codebook.steps_since_use": (model.codebook.n_entries,),
              "optim.t": (), "optim.lr": ()}
    for name, param in model.store.items():
        shapes[name] = shapes[f"optim.m.{name}"] = shapes[f"optim.v.{name}"] = param.data.shape
    missing = [name for name in shapes if name not in ckpt.tensors]
    if missing:
        raise FormatError("checkpoint missing tensors: " + ", ".join(sorted(missing)))
    for name, shape in shapes.items():
        if ckpt.tensors[name].shape != shape:
            raise FormatError(f"checkpoint tensor {name} has shape "
                              f"{ckpt.tensors[name].shape}, model expects {shape}")
    for name in ("codebook.steps_since_use", "optim.t"):
        counts = ckpt.tensors[name]
        if not np.all((counts >= 0) & (counts < 2.0 ** 53) & (counts == np.floor(counts))):
            raise FormatError(f"checkpoint tensor {name} holds a value that is not a count")
    if not 0.0 <= float(ckpt.tensors["optim.lr"]) < math.inf:
        raise FormatError(f"checkpoint learning rate {float(ckpt.tensors['optim.lr'])} "
                          "is not finite and >= 0")
    for name, param in model.store.items():  # into the packed block's views
        param.data[...] = ckpt.tensors[name]
        opt.m[name][...] = ckpt.tensors[f"optim.m.{name}"]
        opt.v[name][...] = ckpt.tensors[f"optim.v.{name}"]
    model.codebook.steps_since_use = ckpt.tensors["codebook.steps_since_use"].astype(np.int64)
    opt.t = int(ckpt.tensors["optim.t"])
    opt.lr = float(ckpt.tensors["optim.lr"])
    return model, opt, cfg
