#!/usr/bin/env python3
"""Train the four ablation arms on one synthetic corpus and print the trend
table: phoneme-representation distance (full vs novq), speaker-embedding
ACS ratio on unseen speakers (full vs vc-only), and held-out mel MSE
(full vs tts-only).

Usage: python3 scripts/run_trends.py [--steps N] [--seed N] [--quick]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from uspc.config import ModelConfig, TrainConfig
from uspc.corpus import CorpusSpec, gen_corpus
from uspc.metrics import evaluate
from uspc.training import train


def trend_model_config(**kw) -> ModelConfig:
    base = dict(d_model=64, n_heads=2, text_blocks=2, content_blocks=2,
                decoder_blocks=2, codebook_size=256, dropout=0.1)
    base.update(kw)
    return ModelConfig(**base)


def trend_train_config(mode: str, steps: int, seed: int = 0, **kw) -> TrainConfig:
    base = dict(seed=seed, mode=mode, max_steps=steps, batch_paired=8,
                batch_unpaired=8, lr_decay_per_epoch=0.999,
                dead_code_steps=10 ** 9, plateau_epochs=10 ** 6,
                model=trend_model_config())
    base.update(kw)
    return TrainConfig(**base)


def trend_corpus(tmp_dir, seed: int = 0, **kw):
    base = dict(n_speakers=6, utts_per_speaker=12, labeled_fraction=2 / 3,
                n_test_speakers=4, test_utts_per_speaker=6, noise=0.05,
                base_level=0.0, offset_scale=4.0)
    base.update(kw)
    return gen_corpus(tmp_dir, seed=seed, spec=CorpusSpec(**base))


def run_arm(mode, steps, train_recs, test_recs, seed=0, **cfg_kw):
    t0 = time.perf_counter()
    cfg = trend_train_config(mode, steps, seed=seed, **cfg_kw)
    model, _, trace = train(cfg, train_recs)
    result = evaluate(test_recs, model)
    dt = time.perf_counter() - t0
    return model, trace, result, dt


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--steps", type=int, default=900)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--corpus-seed", type=int, default=0)
    ap.add_argument("--quick", action="store_true", help="shrink everything")
    ap.add_argument("--out", default="/tmp/uspc_trends")
    args = ap.parse_args()

    steps = 120 if args.quick else args.steps
    corpus_kw = dict(utts_per_speaker=4) if args.quick else {}
    out = Path(args.out)
    train_recs, test_recs, _ = trend_corpus(out / "corpus", seed=args.corpus_seed,
                                            **corpus_kw)
    print(f"corpus: {len(train_recs)} train ({sum(r.labeled for r in train_recs)} "
          f"labeled), {len(test_recs)} test utterances")

    results = {}
    for mode in ("full", "novq", "tts-only", "vc-only"):
        model, trace, result, dt = run_arm(mode, steps, train_recs, test_recs,
                                           seed=args.seed)
        results[mode] = result
        last = trace[-1]
        print(f"\n== {mode}: {len(trace)} steps in {dt:.0f}s "
              f"(total={last.total:.4f}, code_agree={last.code_agreement:.3f})")
        print(f"   mel_mse(test)={result.mean_mel_mse:.5f} "
              f"phoneme_dist={result.phoneme_distance}")
        if result.acs:
            print(f"   ACS: same={result.acs.s_acs:.4f} diff={result.acs.d_acs:.4f} "
                  f"ratio={result.acs.ratio:.3f}")
        print(f"   agreement: same-ph-cross-spk={result.same_ph_cross_spk_agreement:.3f} "
              f"diff-ph-within-spk={result.diff_ph_within_spk_agreement:.3f}")

    print("\n================ trend summary ================")
    pd_full = results["full"].phoneme_distance
    pd_novq = results["novq"].phoneme_distance
    print(f"phoneme distance: full={pd_full:.4f} novq={pd_novq:.4f} "
          f"ratio={pd_full / pd_novq:.3f}  (need <= 0.6)")
    acs_full = results["full"].acs.ratio
    acs_vco = results["vc-only"].acs.ratio
    print(f"ACS ratio unseen: full={acs_full:.3f} (need >= 1.5)  "
          f"vc-only={acs_vco:.3f} (need in [0.8, 1.3])")
    mse_full = results["full"].mean_mel_mse
    mse_tts = results["tts-only"].mean_mel_mse
    print(f"held-out mel MSE: full={mse_full:.5f} tts-only={mse_tts:.5f} "
          f"ratio={mse_full / mse_tts:.3f}  (need <= 1.05)")


if __name__ == "__main__":
    main()
