"""The three uspc benchmark workloads, driven through uspc's public API.

The configurations are defined here, not imported from `scripts/`, so an
edit to the experiment scripts cannot change what the benchmark measures.
They match the trend experiment: desk-size model, 6 training speakers x 12
utterances (2/3 labeled), 4 held-out speakers x 6 utterances.

Every workload measures the same end-to-end metrics, each on the part of
the workload that exercises it:

* train-desk / train-published: repeated trials of `train()` from scratch,
  each `Workload.steps` long, until the run's time is up.  Step time is the
  interval between two `stop_when` callbacks.  Step 0 of a trial, which
  also builds the model and Adam state, is the warm-up: it counts as
  set-up, with the corpus generation.  After each trial the trained model
  synthesizes and converts every labeled utterance `Workload.tail_passes`
  times and runs `evaluate()` on the held-out split TAIL_EVALS times.
* infer: set-up trains a desk-size model for `Workload.steps` steps (the
  step metrics come from this training), saves it, and reloads it through
  `load_checkpoint`/`restore_model`.  The measured part is a closed loop of
  rounds: synth_tts and convert_vc on every labeled utterance, then
  `evaluate()` on the held-out split.

Set-up is repeated SETUP_REPEATS times, spread over the run, so that its
samples and the ones it takes (infer's step times) do not all come from the
same few seconds of a machine whose speed drifts.
"""

from __future__ import annotations

import hashlib
import math
import resource
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from uspc import checkpoint, corpus, metrics, training
from uspc.config import ModelConfig, TrainConfig

import probes
from tracer import Tracer

DESK_MODEL = dict(d_model=64, n_heads=2, text_blocks=2, content_blocks=2,
                  decoder_blocks=2, codebook_size=256, dropout=0.1)
TREND_CORPUS = dict(n_speakers=6, utts_per_speaker=12, labeled_fraction=2 / 3,
                    n_test_speakers=4, test_utts_per_speaker=6, noise=0.05,
                    base_level=0.0, offset_scale=4.0)
TREND_TRAIN = dict(mode="full", batch_paired=8, batch_unpaired=8,
                   lr_decay_per_epoch=0.999, dead_code_steps=10 ** 9,
                   plateau_epochs=10 ** 6)

SETUP_REPEATS = 9
INFER_REFERENCE_ROUNDS = 3
TAIL_EVALS = 2            # evaluate() calls after each training trial


@dataclass(frozen=True)
class Workload:
    name: str
    model: dict | None    # ModelConfig overrides; None keeps the published defaults
    kind: str             # "train" or "infer"
    steps: int            # train() length: per trial, or of the infer set-up
    check_reload: bool    # reload each trial's checkpoint and compare bitwise
    tail_passes: int = 1  # synthesis passes over the labeled utterances after each trial


# An epoch is 6 steps (48 labeled utterances / 8), so 13 steps cross two
# epoch boundaries (validation + checkpoint) and 7 steps cross one.  A desk
# run has about 7 trials; a published trial takes about 50 s, so a published
# run is a single trial.  The machine's speed drifts by about 20% over a
# second or two, so the synthesis samples of a desk trial must cover more
# than an instant: two passes take about 0.8 s.  (Passes over the 24
# held-out utterances take 0.13 s, and within one run their median
# convert_vc time ranged from 2.2 to 3.2 ms.)
WORKLOADS = {
    "train-desk": Workload("train-desk", DESK_MODEL, "train", steps=13, check_reload=True,
                           tail_passes=2),
    "train-published": Workload("train-published", None, "train", steps=13,
                                check_reload=False),
    "infer": Workload("infer", DESK_MODEL, "infer", steps=7, check_reload=False),
}


def model_config(workload: Workload) -> ModelConfig:
    return ModelConfig(**workload.model) if workload.model is not None else ModelConfig()


def train_config(workload: Workload, seed: int, steps: int) -> TrainConfig:
    return TrainConfig(seed=seed, max_steps=steps, model=model_config(workload),
                       **TREND_TRAIN)


def synthesis_inputs(train_recs, test_recs) -> list:
    """Utterances the synth_tts/convert_vc loops run on: every labeled one
    (48 training, 24 held-out).  Synthesis time follows utterance length,
    and the median length of the 24 held-out utterances alone moves by up
    to 20% from seed to seed."""
    return [rec for rec in train_recs if rec.labeled] + list(test_recs)


def reference_map(records) -> dict:
    """Reference utterance per record: the same speaker's next utterance."""
    by_speaker: dict[str, list] = {}
    for rec in records:
        by_speaker.setdefault(rec.speaker_id, []).append(rec)
    return {rec.id: utts[(i + 1) % len(utts)]
            for utts in by_speaker.values() for i, rec in enumerate(utts)}


def frames_per_step(cfg: TrainConfig, train_recs) -> float:
    """Mel frames in one step's batches: paired utterances are drawn from the
    labeled pool, speech-only utterances from the whole training split."""
    labeled = [r.n_frames for r in train_recs if r.labeled]
    return float(cfg.batch_paired * np.mean(labeled)
                 + cfg.batch_unpaired * np.mean([r.n_frames for r in train_recs]))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@dataclass
class Run:
    """One benchmark run: samples, operation counts and output problems."""

    workload: Workload
    seed: int
    seconds: float
    scratch: Path
    tracer: Tracer | None = None
    setup_s: list = field(default_factory=list)
    warmup_s: list = field(default_factory=list)     # train(): call to first step report
    step_s: list = field(default_factory=list)
    frames: float = 0.0              # mel frames in the measured steps
    loss_end: float = math.nan
    tts_s: list = field(default_factory=list)
    vc_s: list = field(default_factory=list)
    eval_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    windows: list = field(default_factory=list)       # traced (start, end)
    untraced_windows: list = field(default_factory=list)
    peak_rss_mb: float = math.nan

    # -- bookkeeping -----------------------------------------------------------

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    def tmpdir(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.scratch))

    def trace_on(self) -> None:
        if self.tracer is not None:
            probes.instrument(self.tracer)

    def trace_off(self) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()

    # -- shared pieces ---------------------------------------------------------

    def make_corpus(self):
        train_recs, test_recs, _ = corpus.gen_corpus(
            self.tmpdir(), seed=self.seed, spec=corpus.CorpusSpec(**TREND_CORPUS))
        return train_recs, test_recs

    def train_trial(self, records, steps: int, stamps: list):
        """One `train()` call; returns (model, trace, out dir).  `stamps`
        receives the start time and the time of each `stop_when` callback."""
        out = self.tmpdir()
        stamps.append(time.perf_counter())

        def stop_when(report):
            stamps.append(time.perf_counter())
            return False

        model, _, trace = training.train(
            train_config(self.workload, self.seed, steps), records,
            checkpoint_path=out / "model.ckpt", trace_path=out / "trace.csv",
            stop_when=stop_when)
        return model, trace, out

    def check_trial(self, model, trace, out: Path, steps: int, reference) -> list[str]:
        bad = []
        if len(trace) != steps:
            bad.append(f"trace has {len(trace)} steps, {steps} requested")
        for report in trace:
            values = [getattr(report, f.name) for f in fields(report)]
            if not all(math.isfinite(v) for v in values):
                bad.append(f"non-finite loss report at step {report.step}")
                break
        rows = [report.csv_row() for report in trace]
        if reference is not None and rows != reference:
            bad.append("loss trace differs bitwise from the run's reference trial")
        lines = (out / "trace.csv").read_text(encoding="utf-8").splitlines()
        if lines[1:] != rows:
            bad.append("trace CSV does not match the returned trace")
        if self.workload.check_reload:
            saved = checkpoint.load_checkpoint(out / "model.ckpt").tensors
            for name, param in model.store.items():
                if saved[name].tobytes() != param.data.tobytes():
                    bad.append(f"reloaded parameter {name} differs bitwise")
                    break
        return bad

    def infer_pass(self, model, utts, test_recs, record: bool, passes: int = 1,
                   evals: int = 1) -> str | None:
        """`passes` times synth_tts and convert_vc on every utterance of
        `utts`, then `evals` evaluate() calls on the held-out `test_recs`.
        Returns a digest of all outputs, or None on failure."""
        refs = reference_map(utts)
        n_mels = model.cfg.n_mels
        parts = []
        ok = True
        for rec in [r for _ in range(passes) for r in utts]:
            ref = refs[rec.id]
            self.attempted += 1
            try:
                t0 = time.perf_counter()
                mel, f0, durs = model.synth_tts(rec.phonemes, ref.mel, durations=rec.durations)
                dt = time.perf_counter() - t0
                if (mel.shape != (int(rec.durations.sum()), n_mels)
                        or not np.all(np.isfinite(mel)) or f0.shape != (mel.shape[0],)
                        or not np.array_equal(durs, rec.durations)):
                    raise AssertionError(f"{rec.id}: bad synth_tts output {mel.shape}")
                if record:
                    self.tts_s.append(dt)
                parts += [mel, f0]
            except Exception as exc:  # noqa: BLE001 - counted, run continues
                self.fail(f"synth_tts {rec.id}", exc)
                ok = False
            self.attempted += 1
            try:
                t0 = time.perf_counter()
                mel, f0 = model.convert_vc(rec.mel, rec.f0, ref.mel)
                dt = time.perf_counter() - t0
                if mel.shape != (rec.n_frames, n_mels) or not np.all(np.isfinite(mel)):
                    raise AssertionError(f"{rec.id}: bad convert_vc output {mel.shape}")
                if record:
                    self.vc_s.append(dt)
                parts += [mel, f0]
            except Exception as exc:  # noqa: BLE001
                self.fail(f"convert_vc {rec.id}", exc)
                ok = False
        for _ in range(evals):
            self.attempted += 1
            try:
                t0 = time.perf_counter()
                result = metrics.evaluate(test_recs, model)
                dt = time.perf_counter() - t0
                if not math.isfinite(result.mean_mel_mse) or result.acs is None \
                        or result.vc_acs is None:
                    raise AssertionError("evaluate: non-finite mel MSE or missing ACS")
                if record:
                    self.eval_s.append(dt)
                parts.append(np.frombuffer(metrics.eval_result_csv(result).encode(), np.uint8))
            except Exception as exc:  # noqa: BLE001
                self.fail("evaluate", exc)
                ok = False
        return _digest(*parts) if ok else None

    def fail(self, what: str, exc: BaseException, count: int = 1) -> None:
        self.failed += count
        self.problem(f"{what}: {type(exc).__name__}: {exc}")
        if self.failed <= 3:
            traceback.print_exc()

    # -- workloads -------------------------------------------------------------

    def run(self) -> None:
        if self.workload.kind == "train":
            self.run_train()
        else:
            self.run_infer()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def measure(self, unit, setup=None) -> None:
        """Run `unit()` until the run's time is used (at least once).
        `setup()` is repeated in between, at
        even intervals, so that the SETUP_REPEATS set-ups (and the samples
        they take) spread over the run instead of sitting at its start."""
        setups = 1 if setup is not None else SETUP_REPEATS  # the first ran before

        def setup_again() -> None:
            nonlocal setups
            setups += 1
            try:
                setup()
            except Exception as exc:  # noqa: BLE001
                self.attempted += 1
                self.fail("set-up", exc)

        start = time.perf_counter()
        units = 0
        while True:
            unit()
            units += 1
            elapsed = time.perf_counter() - start
            while setups < SETUP_REPEATS and elapsed >= setups * self.seconds / SETUP_REPEATS:
                setup_again()
            if elapsed >= self.seconds:
                break
        while setups < SETUP_REPEATS:
            setup_again()

    def setup_train(self):
        """Corpus generation: the set-up outside `train()`.  The rest of it,
        building the model and Adam state and the warm-up step 0, happens
        inside each trial's `train()` call and is timed there."""
        t0 = time.perf_counter()
        train_recs, test_recs = self.make_corpus()
        self.setup_s.append(time.perf_counter() - t0)
        return train_recs, test_recs

    def run_train(self) -> None:
        steps = self.workload.steps
        traced = self.tracer is not None
        self.trace_on()
        train_recs, test_recs = self.setup_train()
        utts = synthesis_inputs(train_recs, test_recs)
        self.trace_off()
        frames = frames_per_step(train_config(self.workload, self.seed, steps), train_recs)
        reference = {"rows": None, "digest": None}
        if traced:  # untraced reference for the observer check and the overhead
            stamps = []
            model, trace, out = self.train_trial(train_recs, steps, stamps)
            reference["rows"] = [report.csv_row() for report in trace]
            self.untraced_windows = list(np.diff(stamps)[1:])
            reference["digest"] = self.infer_pass(model, utts, test_recs, False,
                                                  self.workload.tail_passes, TAIL_EVALS)
            shutil.rmtree(out)

        def trial() -> None:
            self.attempted += steps
            stamps = []
            try:
                model, trace, out = self.train_trial(train_recs, steps, stamps)
                bad = self.check_trial(model, trace, out, steps, reference["rows"])
            except Exception as exc:  # noqa: BLE001
                # steps that never reported count as failed operations
                self.fail("train trial", exc, count=steps - max(len(stamps) - 1, 0))
                return
            shutil.rmtree(out)
            if bad:
                self.failed += steps
                for text in bad:
                    self.problem(text)
            if reference["rows"] is None:
                reference["rows"] = [report.csv_row() for report in trace]
            self.loss_end = trace[-1].total
            self.warmup_s.append(stamps[1] - stamps[0])
            intervals = np.diff(stamps)[1:]
            self.step_s.extend(intervals)
            self.frames += frames * len(intervals)
            self.windows.extend(zip(stamps[1:-1], stamps[2:]))
            digest = self.infer_pass(model, utts, test_recs, True,
                                     self.workload.tail_passes, TAIL_EVALS)
            if reference["digest"] is None:
                reference["digest"] = digest
            elif digest != reference["digest"]:
                self.problem("inference outputs differ bitwise from the reference")

        self.trace_on()
        self.measure(trial, None if traced else self.setup_train)
        self.trace_off()

    def setup_infer(self, reference_rows=None):
        """Corpus, a short training run that writes a checkpoint, and the
        reload through load_checkpoint/restore_model."""
        steps = self.workload.steps
        t0 = time.perf_counter()
        train_recs, test_recs = self.make_corpus()
        stamps = []
        trained, trace, out = self.train_trial(train_recs, steps, stamps)
        model, _, _ = checkpoint.restore_model(checkpoint.load_checkpoint(out / "model.ckpt"))
        self.setup_s.append(time.perf_counter() - t0)
        self.attempted += steps
        bad = self.check_trial(trained, trace, out, steps, reference_rows)
        for name, param in trained.store.items():
            if model.store[name].data.tobytes() != param.data.tobytes():
                bad.append(f"restored parameter {name} differs bitwise")
                break
        if bad:
            self.failed += steps
            for text in bad:
                self.problem(text)
        shutil.rmtree(out)
        self.loss_end = trace[-1].total
        intervals = np.diff(stamps)[1:]
        self.step_s.extend(intervals)
        self.frames += len(intervals) * frames_per_step(
            train_config(self.workload, self.seed, steps), train_recs)
        return (synthesis_inputs(train_recs, test_recs), test_recs, model,
                [report.csv_row() for report in trace])

    def run_infer(self) -> None:
        traced = self.tracer is not None
        self.trace_on()
        utts, test_recs, model, reference_rows = self.setup_infer()
        self.trace_off()
        reference_digest = None
        for _ in range(INFER_REFERENCE_ROUNDS if traced else 1):  # warm-up, untraced
            t0 = time.perf_counter()
            reference_digest = self.infer_pass(model, utts, test_recs, record=False)
            self.untraced_windows.append(time.perf_counter() - t0)

        def round_() -> None:
            t0 = time.perf_counter()
            digest = self.infer_pass(model, utts, test_recs, record=True)
            self.windows.append((t0, time.perf_counter()))
            if digest is not None and digest != reference_digest:
                self.problem("inference outputs differ bitwise from the reference round")

        self.trace_on()
        self.measure(round_, None if traced else lambda: self.setup_infer(reference_rows))
        self.trace_off()

    # -- results ---------------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        def pct(values, q, scale=1.0):
            return float(np.percentile(values, q)) * scale if values else math.nan

        return {
            "setup_s": float(np.median(self.setup_s))
                       + (float(np.median(self.warmup_s)) if self.warmup_s else 0.0),
            "step_s_p50": pct(self.step_s, 50),
            "step_s_p90": pct(self.step_s, 90),
            "train_frames_per_s": self.frames / float(np.sum(self.step_s)),
            "loss_end": float(self.loss_end),
            "tts_ms_p50": pct(self.tts_s, 50, 1e3),
            "tts_ms_p90": pct(self.tts_s, 90, 1e3),
            "vc_ms_p50": pct(self.vc_s, 50, 1e3),
            "vc_ms_p90": pct(self.vc_s, 90, 1e3),
            "eval_s": pct(self.eval_s, 50),
            "peak_rss_mb": self.peak_rss_mb,
            "success_rate": 1.0 - self.failed / max(self.attempted, 1),
        }

    def samples(self) -> dict[str, int]:
        return {"setup": len(self.setup_s), "warmup": len(self.warmup_s),
                "steps": len(self.step_s),
                "tts": len(self.tts_s), "vc": len(self.vc_s), "eval": len(self.eval_s)}
