"""Checkpoint loading under corrupted input: every truncation, flipped byte
or edited tensor dimension of a tiny model's checkpoint either restores
into the optimizer's packed block or raises a UspcError."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uspc.checkpoint import load_checkpoint, restore_model, save_checkpoint
from uspc.config import ModelConfig, TrainConfig
from uspc.errors import UspcError
from uspc.model import JointModel
from uspc.optim import AdamState

TINY = ModelConfig(p_vocab=8, d_model=4, n_heads=2, text_blocks=1, content_blocks=1,
                   decoder_blocks=1, codebook_size=4)


def _dim_offsets(raw: bytes) -> list[int]:
    """Byte offsets of every tensor dimension in a well-formed checkpoint."""
    (cfg_len,) = struct.unpack_from("<I", raw, 8)
    pos = 12 + cfg_len + 8
    (count,) = struct.unpack_from("<Q", raw, pos)
    pos += 8
    out = []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", raw, pos)
        pos += 4 + name_len
        (rank,) = struct.unpack_from("<I", raw, pos)
        pos += 4
        dims = struct.unpack_from(f"<{rank}Q", raw, pos)
        out += [pos + 8 * i for i in range(rank)]
        pos += 8 * rank + 8 * int(np.prod(dims))
    assert pos == len(raw)
    return out


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A tiny model's checkpoint with non-zero moments, its bytes and the
    offsets of its dimensions."""
    cfg = TrainConfig(seed=3, model=TINY)
    model = JointModel(TINY, seed=3)
    opt = AdamState.for_params(model.store, lr=cfg.lr_init)
    rng = np.random.default_rng(0)
    for name in model.store:
        opt.m[name][...] = rng.standard_normal(opt.m[name].shape)
        opt.v[name][...] = rng.random(opt.v[name].shape)
    opt.t = 5
    path = tmp_path_factory.mktemp("fuzz") / "tiny.uspc"
    save_checkpoint(path, model, opt, cfg, step=5)
    raw = path.read_bytes()
    return path.with_name("mutated.uspc"), raw, _dim_offsets(raw)


def _loads_or_raises(path, raw: bytes) -> None:
    path.write_bytes(raw)
    try:
        ckpt = load_checkpoint(path)
        model, opt, _ = restore_model(ckpt)
    except UspcError:
        return
    opt.check_packed(model.store)
    for name, param in model.store.items():
        for array, key in ((param.data, name), (opt.m[name], f"optim.m.{name}"),
                           (opt.v[name], f"optim.v.{name}")):
            assert array.tobytes() == ckpt.tensors[key].tobytes(), key
    assert opt.t == int(ckpt.tensors["optim.t"])


def test_unmutated_checkpoint_restores(saved):
    path, raw, dims = saved
    assert len(dims) > 100
    path.write_bytes(raw)
    model, opt, _ = restore_model(load_checkpoint(path))
    assert opt.t == 5 and any(opt.m[name].any() for name in model.store)
    _loads_or_raises(path, raw)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_truncated_checkpoint_raises(saved, data):
    path, raw, _ = saved
    n = data.draw(st.integers(0, len(raw) - 1))
    path.write_bytes(raw[:n])
    with pytest.raises(UspcError):
        restore_model(load_checkpoint(path))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_flipped_byte_restores_or_raises(saved, data):
    path, raw, _ = saved
    # half the flips land in the header, config and first tensor records
    i = data.draw(st.one_of(st.integers(0, min(len(raw), 2048) - 1),
                            st.integers(0, len(raw) - 1)))
    flip = data.draw(st.integers(1, 255))
    _loads_or_raises(path, raw[:i] + bytes([raw[i] ^ flip]) + raw[i + 1:])


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_edited_dimension_restores_or_raises(saved, data):
    path, raw, dims = saved
    at = data.draw(st.sampled_from(dims))
    value = data.draw(st.one_of(st.integers(0, 64), st.integers(0, 2 ** 64 - 1)))
    _loads_or_raises(path, raw[:at] + struct.pack("<Q", value) + raw[at + 8:])


@pytest.mark.parametrize("name,value", [
    ("optim.t", np.nan), ("optim.t", -1.0), ("optim.t", 2.5), ("optim.t", np.inf),
    ("optim.lr", np.nan), ("optim.lr", -1e-3), ("optim.lr", np.inf),
    ("codebook.steps_since_use", np.nan), ("codebook.steps_since_use", 1e300),
])
def test_counters_and_rate_out_of_range_raise(saved, name, value):
    path, raw, _ = saved
    path.write_bytes(raw)
    ckpt = load_checkpoint(path)
    ckpt.tensors[name] = np.full_like(ckpt.tensors[name], value)
    with pytest.raises(UspcError, match="checkpoint"):
        restore_model(ckpt)
