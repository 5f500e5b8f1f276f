"""The benchmark's probes (perfbench/probes.py) wrap uspc entry points where
their callers look them up.  These checks pin that contract: every probed
layer still runs through its wrapped name, and uninstalling the probes
restores the original attributes."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import probes  # noqa: E402
from tracer import NAME, Tracer  # noqa: E402

from uspc import training  # noqa: E402
from uspc.model import JointModel  # noqa: E402
from uspc.optim import AdamState  # noqa: E402

from conftest import small_train_config  # noqa: E402

ENCODERS = {"encoders.text", "encoders.duration", "encoders.content",
            "encoders.speaker", "encoders.prosody"}


def _names_under(tracer: Tracer, root_name: str) -> set[str]:
    roots = tracer.roots()
    return {s[NAME] for s, r in zip(tracer.spans, roots)
            if tracer.spans[r][NAME] == root_name}


def test_probes_cover_training_and_inference_layers(tiny_corpus):
    records = tiny_corpus["train"]
    cfg = small_train_config(mode="full")
    model = JointModel(cfg.model, seed=cfg.seed)
    opt = AdamState.for_params(model.store, lr=cfg.lr_init)

    tracer = Tracer()
    probes.instrument(tracer)
    patched = list(tracer._patches)
    try:
        training.joint_step(records[:2], records[2:4], model, opt, cfg, step=0)
        rec = records[0]
        model.synth_tts(rec.phonemes, rec.mel)
        model.convert_vc(rec.mel, rec.f0, records[1].mel)
    finally:
        tracer.uninstall()

    step = _names_under(tracer, "training.joint_step")
    assert {"vq.aux_loss", "vq.pair_loss", "optim.clip", "optim.adam",
            "synthesis.decode", "synthesis.pitch", "vq.quantize"} | ENCODERS <= step
    assert {"encoders.text", "encoders.duration", "encoders.speaker", "encoders.prosody",
            "synthesis.decode", "synthesis.pitch"} <= _names_under(tracer, "infer.synth_tts")
    assert {"encoders.content", "encoders.speaker", "encoders.prosody",
            "synthesis.decode"} <= _names_under(tracer, "infer.convert_vc")

    assert tracer._patches == []
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, attr
