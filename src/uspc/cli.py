"""Command-line surface.

Subcommands: gen-data, train, synth-tts, convert-vc, eval.
Every command is deterministic given its inputs and seed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import config as config_mod
from .checkpoint import load_checkpoint, restore_model
from .corpus import CorpusSpec, gen_corpus, load_corpus, manifest_name, parse_ids, write_matrix
from .errors import DataError, UspcError
from .metrics import eval_result_csv, eval_summary_rows, evaluate
from .training import train


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uspc",
        description="Joint TTS/VC pipelines over a shared content codebook")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic corpus")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--speakers", type=int, default=6)
    g.add_argument("--utts", type=int, default=10)
    g.add_argument("--labeled-frac", type=float, default=1.0)
    g.add_argument("--test-speakers", type=int, default=4)
    g.add_argument("--test-utts", type=int, default=None)
    g.add_argument("--noise", type=float, default=0.05)
    g.add_argument("--out", required=True)

    t = sub.add_parser("train", help="train a model on a corpus directory")
    t.add_argument("--corpus", required=True)
    t.add_argument("--config", default=None, help="key = value config file")
    t.add_argument("--mode", choices=config_mod.MODES,
                   default=None, help="override the config's training mode")
    t.add_argument("--max-steps", type=int, default=None)
    t.add_argument("--out", required=True, help="checkpoint output path")
    t.add_argument("--trace", default=None, help="loss trace CSV path")

    s = sub.add_parser("synth-tts", help="zero-shot TTS from phoneme ids")
    s.add_argument("--ckpt", required=True)
    s.add_argument("--corpus", required=True,
                   help="corpus directory holding the reference utterance")
    s.add_argument("--text", required=True, help="comma-separated phoneme ids")
    s.add_argument("--ref-speaker", required=True, metavar="UTT_ID",
                   help="reference utterance id supplying the voice")
    s.add_argument("--out", required=True, help="output mel file")

    c = sub.add_parser("convert-vc", help="zero-shot voice conversion")
    c.add_argument("--ckpt", required=True)
    c.add_argument("--corpus", required=True)
    c.add_argument("--source", required=True, metavar="UTT_ID")
    c.add_argument("--ref-speaker", required=True, metavar="UTT_ID")
    c.add_argument("--out", required=True, help="output mel file")

    e = sub.add_parser("eval", help="objective metrics over a corpus split")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--corpus", required=True)
    e.add_argument("--split", choices=["train", "test"], default="test")
    e.add_argument("--out", required=True, help="output CSV")

    return parser


def _find_record(records, utt_id: str):
    for rec in records:
        if rec.id == utt_id:
            return rec
    raise DataError(f"utterance {utt_id!r} not found in corpus split")


def _load_all_splits(corpus_dir):
    """Union of train and test splits.  A corpus without test utterances has
    no test manifest, or an empty one (`gen-data --test-speakers 0`); any
    other failure to load the test split is an error."""
    records = load_corpus(corpus_dir, "train")
    test_manifest = Path(corpus_dir) / manifest_name("test")
    if test_manifest.exists() and test_manifest.read_bytes().strip():
        records += load_corpus(corpus_dir, "test")
    return records


def _cmd_gen_data(args) -> int:
    spec = CorpusSpec(n_speakers=args.speakers, utts_per_speaker=args.utts,
                      labeled_fraction=args.labeled_frac,
                      n_test_speakers=args.test_speakers,
                      test_utts_per_speaker=args.test_utts, noise=args.noise)
    train_recs, test_recs, _ = gen_corpus(args.out, args.seed, spec)
    print(f"wrote {len(train_recs)} train + {len(test_recs)} test utterances to {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = config_mod.load_config(args.config) if args.config else config_mod.TrainConfig()
    if args.mode is not None:
        cfg.mode = args.mode
    if args.max_steps is not None:
        cfg.max_steps = args.max_steps
    records = load_corpus(args.corpus, "train")
    _, _, trace = train(cfg, records, checkpoint_path=args.out, trace_path=args.trace)
    final = trace[-1].total if trace else float("nan")
    print(f"trained {len(trace)} steps (mode={cfg.mode}); final total loss {final:.6f}; "
          f"checkpoint at {args.out}")
    return 0


def _cmd_synth_tts(args) -> int:
    model, _, _ = restore_model(load_checkpoint(args.ckpt))
    records = _load_all_splits(args.corpus)
    ref = _find_record(records, args.ref_speaker)
    phonemes = parse_ids(args.text, "--text")
    mel, f0, durations = model.synth_tts(phonemes, ref.mel)
    write_matrix(args.out, mel)
    print(f"synthesized {mel.shape[0]} frames from {phonemes.size} phonemes "
          f"(voice: {ref.speaker_id}) -> {args.out}")
    return 0


def _cmd_convert_vc(args) -> int:
    model, _, _ = restore_model(load_checkpoint(args.ckpt))
    records = _load_all_splits(args.corpus)
    source = _find_record(records, args.source)
    ref = _find_record(records, args.ref_speaker)
    mel, _ = model.convert_vc(source.mel, source.f0, ref.mel)
    write_matrix(args.out, mel)
    print(f"converted {source.id} to the voice of {ref.speaker_id} -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    model, _, _ = restore_model(load_checkpoint(args.ckpt))
    records = load_corpus(args.corpus, args.split)
    result = evaluate(records, model)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(eval_result_csv(result))
    print(f"evaluated {len(records)} utterances; summary rows of {args.out}:")
    print("\n".join(eval_summary_rows(result)))
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "synth-tts": _cmd_synth_tts,
    "convert-vc": _cmd_convert_vc,
    "eval": _cmd_eval,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (UspcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
