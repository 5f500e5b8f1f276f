#!/usr/bin/env python3
"""Print the sha256 of every output a short run of each training mode
writes, one `name sha256` line each, so two trees can be compared byte for
byte.

For each mode (full, novq, tts-only, vc-only) it trains on one corpus, as
`uspc gen-data --seed 3 --speakers 4 --utts 6 --labeled-frac 0.5
--test-speakers 3 --test-utts 4` writes it, with batch 4 + 4 and
`dead_code_steps = 3`, and digests the checkpoint, the loss trace and the
`uspc eval` CSVs of both splits.  `<mode>.ckpt-tensors` digests the
checkpoint's bytes after its config text (step counter and tensors), so a
change that edits config keys can still show that every tensor is equal.
The full checkpoint also digests its `synth_tts` outputs, teacher-forced
and free-running, and its `convert_vc` outputs over the test split, each
utterance voiced by the next one.

`--size desk` is d64 with 2/2/2 blocks and a 32-entry book; `published` is
`ModelConfig()`.  The BLAS thread count is the caller's: set it with
OPENBLAS_NUM_THREADS or pin the run with taskset.

Usage: python3 scripts/output_digests.py [--size desk|published] [--steps N] [--out DIR]
"""

import argparse
import hashlib
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from uspc.checkpoint import load_checkpoint, restore_model
from uspc.config import ModelConfig, TrainConfig
from uspc.corpus import CorpusSpec, gen_corpus, load_corpus
from uspc.metrics import eval_result_csv, evaluate
from uspc.training import train

MODES = ("full", "novq", "tts-only", "vc-only")
SIZES = {"desk": dict(d_model=64, text_blocks=2, content_blocks=2, decoder_blocks=2,
                      codebook_size=32),
         "published": {}}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def after_config_text(raw: bytes) -> bytes:
    """A checkpoint's bytes after its config text (see `uspc.checkpoint`)."""
    (n,) = struct.unpack_from("<I", raw, 8)
    return raw[12 + n:]


def inference_digests(model, records) -> dict[str, str]:
    """Digests of synth_tts (teacher-forced and free-running) and
    convert_vc over `records`, record i voiced by record i + 1."""
    outputs = {"synth-tts-forced": [], "synth-tts-free": [], "convert-vc": []}
    for rec, ref in zip(records, records[1:] + records[:1]):
        outputs["synth-tts-forced"] += model.synth_tts(rec.phonemes, ref.mel, rec.durations)
        outputs["synth-tts-free"] += model.synth_tts(rec.phonemes, ref.mel)
        outputs["convert-vc"] += model.convert_vc(rec.mel, rec.f0, ref.mel)
    return {name: sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays))
            for name, arrays in outputs.items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--size", choices=sorted(SIZES), default="desk")
    ap.add_argument("--steps", type=int, default=9)
    ap.add_argument("--out", default=None, help="keep the outputs here (default: a temp dir)")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(args.out or tmp)
        gen_corpus(out / "corpus", 3, CorpusSpec(
            n_speakers=4, utts_per_speaker=6, labeled_fraction=0.5, n_test_speakers=3,
            test_utts_per_speaker=4, noise=0.05))
        splits = {split: load_corpus(out / "corpus", split) for split in ("train", "test")}
        for mode in MODES:
            cfg = TrainConfig(mode=mode, max_steps=args.steps, batch_paired=4, batch_unpaired=4,
                              dead_code_steps=3, model=ModelConfig(**SIZES[args.size]))
            paths = {name: out / f"{mode}.{name}" for name in ("ckpt", "trace.csv")}
            train(cfg, splits["train"], checkpoint_path=paths["ckpt"],
                  trace_path=paths["trace.csv"])
            model, _, _ = restore_model(load_checkpoint(paths["ckpt"]))
            for split, records in splits.items():
                paths[f"eval-{split}.csv"] = out / f"{mode}.eval-{split}.csv"
                paths[f"eval-{split}.csv"].write_text(
                    eval_result_csv(evaluate(records, model)), encoding="utf-8")
            digests = {name: sha256(path.read_bytes()) for name, path in paths.items()}
            digests["ckpt-tensors"] = sha256(after_config_text(paths["ckpt"].read_bytes()))
            if mode == "full":
                digests.update(inference_digests(model, splits["test"]))
            for name, digest in digests.items():
                print(f"{mode}.{name} {digest}", flush=True)


if __name__ == "__main__":
    main()
