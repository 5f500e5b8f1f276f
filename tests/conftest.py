import multiprocessing
import threading

import numpy as np
import pytest

from uspc.config import ModelConfig, TrainConfig
from uspc.corpus import CorpusSpec, gen_corpus
from uspc.model import JointModel
from uspc.autodiff import Tensor, backward
from uspc import autodiff as ad
from uspc.errors import ShapeError
from uspc.optim import adam_step, clip_global_norm, clip_scale, sums_of_squares


def small_model_config(**kw) -> ModelConfig:
    base = dict(d_model=32, n_heads=2, text_blocks=1, content_blocks=1,
                decoder_blocks=1, codebook_size=16, dropout=0.1)
    base.update(kw)
    return ModelConfig(**base)


def small_train_config(**kw) -> TrainConfig:
    base = dict(seed=0, max_steps=20, batch_paired=2, batch_unpaired=2,
                model=small_model_config())
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(autouse=True)
def no_process_left():
    """Every test ends with no child process left: `train()` forks a VC
    worker for each full or novq run on two or more usable CPUs."""
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture
def small_model():
    return JointModel(small_model_config(), seed=0)


@pytest.fixture
def tiny_corpus(tmp_path):
    """2 train speakers x 3 utterances, noiseless, plus 2 test speakers."""
    spec = CorpusSpec(n_speakers=2, utts_per_speaker=3, labeled_fraction=1.0,
                      n_test_speakers=2, test_utts_per_speaker=2, noise=0.0,
                      p_vocab=16, min_phonemes=4, max_phonemes=6,
                      min_duration=1, max_duration=4)
    train, test, factors = gen_corpus(tmp_path / "corpus", seed=11, spec=spec)
    return {"dir": tmp_path / "corpus", "train": train, "test": test,
            "factors": factors, "spec": spec}


def text_side_threads(model, monkeypatch):
    """The thread of each text-side pass `evaluate()` starts on `model`."""
    threads = []
    real_tts_content = model.tts_content

    def recording(*args):
        threads.append(threading.current_thread())
        return real_tts_content(*args)

    monkeypatch.setattr(model, "tts_content", recording)
    return threads


def sum_all(a: Tensor) -> Tensor:
    def backward_fn(g):
        a.accumulate_grad(np.broadcast_to(g, a.data.shape))

    return ad._make_node(np.asarray(a.data.sum()), (a,), backward_fn)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size

    def backward_fn(g):
        a.accumulate_grad(np.broadcast_to(g / n, a.data.shape))

    return ad._make_node(np.asarray(a.data.mean()), (a,), backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b as a plain node: the reference `ad.linear` is checked against."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.data.shape} x {b.data.shape}")
    data = a.data @ b.data

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate_grad(g @ b.data.T)
        if b.requires_grad:
            b.accumulate_grad(a.data.T @ g)

    return ad._make_node(data, (a, b), backward_fn)


def rand(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def clip_and_adam(state, grads, max_norm=0.0):
    """The clip and Adam update of a training step over the parameters
    `grads` names: each written into its view of the optimizer's gradient
    block, their joint norm from `clip_global_norm`, then `adam_step`
    t + 1 by `clip_scale` of it (max_norm 0: no clipping).  Returns the
    norm."""
    names = [name for name in state.spans if name in grads]  # store order
    for name in names:
        state.g[name][...] = grads[name]
    norm = clip_global_norm(state, names, sums_of_squares(state, []))
    adam_step(state, names, state.t + 1, clip_scale(norm, max_norm))
    return norm


def grad_check(f, x, h=1e-5):
    """Max relative error between analytic and central-difference gradients.

    Denominator is max(|analytic|, |numeric|, 1e-8) per coordinate.  Only
    meaningful for deterministic f with dropout disabled; graphs that contain
    a straight-through quantization step are exempt by contract (the
    estimator is not the true derivative there).
    """
    probe = Tensor(x.data.copy(), requires_grad=True)
    out = f(probe)
    backward(out)
    analytic = probe.grad if probe.grad is not None else np.zeros_like(probe.data)

    flat = x.data.reshape(-1).copy()
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += h
        f_plus = float(f(Tensor(bumped.reshape(x.data.shape))).data)
        bumped[i] -= 2 * h
        f_minus = float(f(Tensor(bumped.reshape(x.data.shape))).data)
        numeric[i] = (f_plus - f_minus) / (2 * h)
    numeric = numeric.reshape(x.data.shape)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def _owner(a: np.ndarray) -> np.ndarray:
    """The array that owns `a`'s buffer."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def held_arrays(loss: Tensor) -> list[np.ndarray]:
    """The distinct arrays a graph holds before backward, walked from
    `loss`: the values of every node and constant input that are not
    released, and every array a backward closure keeps, alone or in a list
    or tuple.  Each buffer counts once, by the array that owns it; the
    parameters' values do not count."""
    held: dict[int, np.ndarray] = {}

    def add(a) -> None:
        if isinstance(a, np.ndarray):
            held.setdefault(id(_owner(a)), _owner(a))

    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.requires_grad and node._backward is None:
            continue  # a parameter
        add(node.data)
        for cell in getattr(node._backward, "__closure__", None) or ():
            value = cell.cell_contents
            for a in value if isinstance(value, (list, tuple)) else (value,):
                add(a)
        stack.extend(node._parents)
    return list(held.values())


def held_bytes(loss: Tensor) -> int:
    """Bytes of `held_arrays(loss)`: the activation memory a backward pass
    from `loss` starts with."""
    return sum(a.nbytes for a in held_arrays(loss))
