"""The benchmark's probes (perfbench/probes.py) wrap uspc entry points where
their callers look them up.  These checks pin that contract: every probed
layer still runs through its wrapped name, and uninstalling the probes
restores the original attributes."""

import multiprocessing
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import probes  # noqa: E402
from tracer import NAME, Tracer  # noqa: E402

from uspc import autodiff, training  # noqa: E402
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
    opt = AdamState.for_params(model.store)

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


def test_backward_node_count_is_the_graph_before_the_pass(tiny_corpus, monkeypatch):
    # the probe walks the graph after backward returns; backward keeps each
    # node's `_parents` and leaves a (raising) closure in place of the one it
    # ran, so the walk still counts every node the pass went through
    records = tiny_corpus["train"]
    cfg = small_train_config(mode="full")
    model = JointModel(cfg.model, seed=cfg.seed)
    opt = AdamState.for_params(model.store)
    before = []
    original = autodiff.backward

    def counting(loss):
        before.append(len(probes._closures([loss])))
        original(loss)

    monkeypatch.setattr(autodiff, "backward", counting)
    tracer = Tracer()
    probes.instrument(tracer)
    try:
        training.joint_step(records[:2], records[2:4], model, opt, cfg, step=0)
    finally:
        tracer.uninstall()
    assert before and before[0] > 0
    assert [e.value for e in tracer.events if e.name == "autodiff.nodes"] == before


def test_probes_leave_the_trace_of_a_worker_run_unchanged(tiny_corpus, monkeypatch):
    # perfbench's `--trace 1` check compares a traced run's loss trace with
    # an untraced one; the probes are installed when train() forks the VC
    # worker, so the worker runs wrapped entry points too
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cfg = small_train_config(max_steps=5)
    children = []

    def rows():
        trace = training.train(cfg, tiny_corpus["train"], stop_when=lambda report: children.append(
            len(multiprocessing.active_children())))[2]
        return [report.csv_row() for report in trace]

    plain = rows()
    tracer = Tracer()
    probes.instrument(tracer)
    try:
        traced = rows()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert children == [1] * 10
    assert multiprocessing.active_children() == []
    assert "training.joint_step" in {s[NAME] for s in tracer.spans}
