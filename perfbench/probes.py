"""Which uspc entry points the traced run wraps, and how its spans become
the per-layer metrics.

Per-layer times are self times summed over the measured windows and divided
by the number of windows: one window is one training step on the train
workloads (the interval between two `stop_when` callbacks) and one round
on `infer` (synthesis over the labeled utterances, then `evaluate()`).  A
layer that never runs inside a window reads 0 on that workload.  The
remainder of each window that no span covers is reported as
`trace.uncovered_ms`, so the self times plus the remainder add up to the
window time.
"""

from __future__ import annotations

import bisect
import os

import numpy as np

from tracer import END, NAME, PARENT, START, Tracer

CODEBOOK_SIZE = 256


def _closures(roots) -> set[int]:
    """ids of graph nodes with a backward closure reachable from `roots`."""
    seen: set[int] = set()
    found: set[int] = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            found.add(id(node))
        stack.extend(node._parents)
    return found


def _count_backward_nodes(tracer, args, kwargs, result) -> None:
    tracer.count("autodiff.nodes", len(_closures([args[0]])))


def _count_eval_nodes(tracer, args, kwargs, result) -> None:
    _, q, speaker, prosody, ctx = args
    if not ctx.training:
        built = _closures([result]) - _closures([q.vectors, speaker, prosody])
        tracer.count("autodiff.eval_nodes", len(built))


def _record_codes(tracer, args, kwargs, result) -> None:
    tracer.count("vq.codes", np.asarray(result))


def _record_reseeded(tracer, args, kwargs, result) -> None:
    tracer.count("vq.reseeded", int(result))


def _record_checkpoint_bytes(tracer, args, kwargs, result) -> None:
    tracer.count("checkpoint.bytes", os.path.getsize(args[0]))


def instrument(tracer: Tracer) -> None:
    """Wrap each public entry point where its caller looks the name up."""
    from uspc import autodiff, checkpoint, corpus, encoders, metrics, model, rng
    from uspc import synthesis, training, vq

    w = tracer.wrap
    w(corpus, "gen_corpus", "corpus.gen")
    w(training, "joint_step", "training.joint_step")
    w(autodiff, "backward", "autodiff.backward", _count_backward_nodes)
    w(rng.NamedRng, "generator", "rng.stream")
    w(encoders.TextEncoder, "__call__", "encoders.text")
    w(encoders.DurationPredictor, "__call__", "encoders.duration")
    w(encoders.ContentEncoder, "__call__", "encoders.content")
    w(encoders.SpeakerEncoder, "__call__", "encoders.speaker")
    w(encoders.ProsodyEncoder, "__call__", "encoders.prosody")
    w(encoders.ProsodyEncoder, "from_bins", "encoders.prosody")
    w(model.JointModel, "synthesize", "synthesis.decode", _count_eval_nodes)
    w(synthesis.PitchPredictor, "__call__", "synthesis.pitch")
    w(model.JointModel, "quantize", "vq.quantize")
    w(vq.Codebook, "nearest", "vq.nearest", _record_codes)
    w(vq.Codebook, "reseed_dead_entries", "vq.reseed", _record_reseeded)
    w(training, "vq_aux_loss", "vq.aux_loss")
    w(training, "pair_loss", "vq.pair_loss")
    w(training, "clip_global_norm", "optim.clip")
    w(training, "adam_step", "optim.adam")
    w(checkpoint, "save_checkpoint", "checkpoint.save", _record_checkpoint_bytes)
    w(checkpoint, "load_checkpoint", "checkpoint.load")
    w(model.JointModel, "synth_tts", "infer.synth_tts")
    w(model.JointModel, "convert_vc", "infer.convert_vc")
    w(metrics, "evaluate", "metrics.evaluate")
    w(metrics, "phoneme_rep_distance", "metrics.phoneme_distance")
    w(metrics, "vc_acs_ratio", "metrics.vc_acs")
    w(metrics, "code_agreement_rates", "metrics.code_agreement")
    w(metrics, "mcd", "metrics.mcd")


# Span names whose self time per window is a per-layer metric `<name>_ms`.
WINDOW_LAYERS = (
    "autodiff.backward", "rng.stream",
    "encoders.text", "encoders.duration", "encoders.content", "encoders.speaker",
    "encoders.prosody", "synthesis.decode", "synthesis.pitch",
    "vq.quantize", "vq.nearest", "vq.aux_loss", "vq.pair_loss",
    "optim.clip", "optim.adam", "training.joint_step",
    "infer.synth_tts", "infer.convert_vc", "metrics.evaluate",
    "metrics.phoneme_distance", "metrics.vc_acs", "metrics.code_agreement", "metrics.mcd",
    "trace.count",
)

# Span names reported as mean self time per call, wherever they ran.
PER_CALL_LAYERS = ("checkpoint.save", "checkpoint.load", "corpus.gen")


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def per_layer(tracer: Tracer, windows: list[tuple[float, float]],
              untraced_windows: list[float]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics plus the per-window self time of every span name.

    `windows` are the traced (start, end) intervals; `untraced_windows` are
    window durations from the untraced reference pass of the same run.
    """
    spans = tracer.spans
    own = tracer.self_times()
    roots = tracer.roots()
    starts = [w[0] for w in windows]
    n = max(len(windows), 1)

    def window_of(t: float) -> int:
        i = bisect.bisect_right(starts, t) - 1
        return i if i >= 0 and t <= windows[i][1] else -1

    span_window = [window_of(spans[r][START]) for r in roots]
    per_name: dict[str, float] = {}
    covered = 0.0
    for i, s in enumerate(spans):
        if span_window[i] < 0:
            continue
        per_name[s[NAME]] = per_name.get(s[NAME], 0.0) + own[i]
        if s[PARENT] < 0:
            covered += s[END] - s[START]
    window_total = sum(b - a for a, b in windows)

    out: dict[str, float] = {}
    for name in WINDOW_LAYERS:
        out[f"{name}_ms"] = per_name.get(name, 0.0) * 1e3 / n
    for name in PER_CALL_LAYERS:
        out[f"{name}_ms"] = _mean([o for s, o in zip(spans, own) if s[NAME] == name]) * 1e3

    # counts taken at span boundaries
    events_in = [e for e in tracer.events if window_of(e.time) >= 0]
    out["autodiff.nodes_per_step"] = _mean(
        [e.value for e in tracer.events if e.name == "autodiff.nodes"])
    out["autodiff.eval_nodes_per_utt"] = _mean(
        [e.value for e in tracer.events if e.name == "autodiff.eval_nodes"])
    steps = [i for i, s in enumerate(spans) if s[NAME] == "training.joint_step"]
    streams = sum(1 for i, s in enumerate(spans)
                  if s[NAME] == "rng.stream" and spans[roots[i]][NAME] == "training.joint_step")
    out["rng.streams_per_step"] = streams / len(steps) if steps else 0.0
    codes_per_window: dict[int, set] = {}
    for e in events_in:
        if e.name == "vq.codes":
            codes_per_window.setdefault(window_of(e.time), set()).update(e.value.tolist())
    active = _mean([len(c) for c in codes_per_window.values()])
    out["vq.active_entries"] = active
    out["vq.code_utilization"] = active / CODEBOOK_SIZE
    out["vq.reseeded_entries"] = sum(e.value for e in events_in if e.name == "vq.reseeded") / n
    out["checkpoint.bytes"] = _mean(
        [e.value for e in tracer.events if e.name == "checkpoint.bytes"])

    # epoch work: what a window holds besides its joint_step
    step_in_window = {span_window[i]: spans[i][END] - spans[i][START] for i in steps
                      if span_window[i] >= 0}
    epoch_windows = {span_window[i] for i, s in enumerate(spans)
                     if s[NAME] == "checkpoint.save" and span_window[i] >= 0}
    out["training.epoch_overhead_ms"] = _mean(
        [(windows[w][1] - windows[w][0] - step_in_window.get(w, 0.0)) * 1e3
         for w in sorted(epoch_windows)])

    traced_p50 = float(np.median([b - a for a, b in windows])) if windows else 0.0
    untraced_p50 = float(np.median(untraced_windows)) if untraced_windows else 0.0
    out["trace.window_ms"] = window_total * 1e3 / n
    out["trace.uncovered_ms"] = (window_total - covered) * 1e3 / n
    out["trace.overhead_ms"] = (traced_p50 - untraced_p50) * 1e3
    breakdown = {name: t * 1e3 / n for name, t in sorted(per_name.items())}
    breakdown["(uncovered)"] = out["trace.uncovered_ms"]
    return out, breakdown
