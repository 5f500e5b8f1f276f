import multiprocessing

import numpy as np
import pytest

from uspc.config import ModelConfig, TrainConfig
from uspc.corpus import CorpusSpec, gen_corpus
from uspc.model import JointModel
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


def rand(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def clip_and_adam(store, state, grads, max_norm=0.0):
    """The clip and Adam update of a training step over `store`: each of
    `grads` written into its view of the optimizer's gradient block and set
    as that parameter's gradient, the joint norm from `clip_global_norm`,
    then `adam_step` by `clip_scale` of it (max_norm 0: no clipping).
    Returns the norm."""
    for name, g in grads.items():
        state.g[name][...] = g
        store[name].grad = state.g[name]
    norm = clip_global_norm(store, lambda: sums_of_squares([]))
    adam_step(store, state, clip_scale(norm, max_norm))
    return norm
