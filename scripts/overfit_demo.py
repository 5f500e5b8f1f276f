#!/usr/bin/env python3
"""Memorization demo: train full mode on a noiseless one-speaker corpus of
8 utterances and report mel MSE, duration MSE, and pitch-bin accuracy
against the training set until the targets are met.

Usage: python3 scripts/overfit_demo.py [--max-steps N]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from uspc.config import ModelConfig, TrainConfig
from uspc.corpus import CorpusSpec, gen_corpus
from uspc.encoders import quantize_f0_array
from uspc.layers import Ctx
from uspc.training import train, tts_step


def overfit_config(max_steps: int = 2000, seed: int = 0) -> TrainConfig:
    return TrainConfig(
        seed=seed, mode="full", max_steps=max_steps, batch_paired=8,
        batch_unpaired=4, lr_decay_per_epoch=1.0, plateau_epochs=10 ** 6,
        dead_code_steps=10 ** 9, w_pitch=0.2,
        model=ModelConfig(d_model=64, n_heads=2, text_blocks=2,
                          content_blocks=2, decoder_blocks=2,
                          codebook_size=512, dropout=0.0))


def overfit_corpus(out_dir, seed: int = 7):
    """One speaker, 8 utterances, zero noise (slice of a 2-speaker corpus,
    which is the generator's minimum)."""
    spec = CorpusSpec(n_speakers=2, utts_per_speaker=8, labeled_fraction=1.0,
                      n_test_speakers=0, noise=0.0)
    train_all, _, _ = gen_corpus(out_dir, seed=seed, spec=spec)
    return [r for r in train_all if r.speaker_id == "spk000"]


def measure(model, records):
    """Training-set fit: (mel MSE, duration MSE, pitch accuracy).  The
    config's dropout is 0.0, so `tts_step` draws no mask; the parameters
    are frozen, so no forward pass builds a graph."""
    with model.store.frozen():
        frag = tts_step(records, model, step=0)
        ctx = Ctx()
        correct = total = 0
        for rec in records:
            q, _, _ = model.tts_content(rec.phonemes, rec.durations, ctx)
            logits = model.pitch_predictor(q, model.speaker_encoder(rec.mel, ctx), ctx)
            bins = quantize_f0_array(rec.f0)
            correct += int((np.argmax(logits.data, axis=1) == bins).sum())
            total += bins.size
    return frag.mel.item(), frag.duration.item(), correct / total


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-steps", type=int, default=2000)
    ap.add_argument("--out", default="/tmp/uspc_overfit")
    args = ap.parse_args()

    records = overfit_corpus(args.out)
    cfg = overfit_config(args.max_steps)
    print(f"{len(records)} utterances, {sum(r.n_frames for r in records)} frames")

    t0 = time.perf_counter()
    model, _, trace = train(cfg, records)
    mel, dur, acc = measure(model, records)
    print(f"after {len(trace)} steps ({time.perf_counter() - t0:.0f}s): "
          f"mel MSE {mel:.5f} (target < 0.01), duration MSE {dur:.5f} "
          f"(target < 0.01), pitch accuracy {acc:.4f} (target > 0.95)")


if __name__ == "__main__":
    main()
