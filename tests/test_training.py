"""Loss assembly identities, mode switches, gradient-flow contracts, seed
determinism, and checkpoint round trips on tiny corpora."""

import copy
import hashlib
import math
import multiprocessing
import os
import re
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from uspc import autodiff as ad
from uspc import checkpoint as checkpoint_mod
from uspc import config as config_mod
from uspc import metrics as metrics_mod
from uspc import training as training_mod
from uspc.checkpoint import load_checkpoint, restore_model, save_checkpoint
from uspc.corpus import CorpusSpec, gen_corpus
from uspc.errors import ConfigError, DataError, TrainingDiverged, UspcError
from uspc.features import N_PHONEMES
from uspc.layers import Ctx
from uspc.model import JointModel
from uspc.optim import LR, AdamState
from uspc.rng import NamedRng
from uspc.vq import Codebook
from uspc.training import (LossReport, joint_step, pair_step,
                           seed_codebook_from_batch, train, tts_step, vc_step)

from conftest import small_model_config, small_train_config, text_side_threads

SEEDED_TRACES = Path(__file__).with_name("seeded_traces.csv")


def text_side_names(model):
    """Parameters only the text pipeline uses."""
    return [n for n in model.store if n.startswith(("text_encoder.", "duration_predictor."))]


@pytest.fixture
def setup(tiny_corpus):
    cfg = small_train_config()
    model = JointModel(cfg.model, seed=cfg.seed)
    opt = AdamState.for_params(model.store)
    return cfg, model, opt, tiny_corpus["train"]


def test_joint_total_is_sum_of_fragments(setup):
    cfg, model, opt, records = setup
    paired = records[:2]
    unpaired = records[2:4]
    seed_codebook_from_batch(model, records[:4])

    tts = tts_step(paired, model, step=0)
    pair = pair_step(paired, model, step=0, text_quantized=tts.quantized)
    vc = vc_step(unpaired, model, step=0)
    # each fragment's aux is its mean over utterances; the step's is the
    # mean over all of them
    frags = (tts, pair, vc)
    aux = (sum(f.aux.item() * f.n_utts for f in frags)
           / sum(f.n_utts for f in frags))
    expected = (tts.mel.item() + cfg.w_pitch * tts.pitch_ce.item()
                + vc.mel.item() + cfg.w_pitch * vc.pitch_ce.item()
                + cfg.w_pair * pair.pair.item()
                + training_mod.W_DURATION * tts.duration.item()
                + aux)

    model2 = JointModel(cfg.model, seed=cfg.seed)
    seed_codebook_from_batch(model2, records[:4])
    opt2 = AdamState.for_params(model2.store)
    report = joint_step(paired, unpaired, model2, opt2, cfg, step=0)
    assert abs(report.total - expected) < 1e-12


def test_report_identities_and_weighted_sum(setup):
    cfg, model, opt, records = setup
    report = joint_step(records[:2], records[2:4], model, opt, cfg, step=0)
    recon = (report.l_tts_rec + report.l_vc_rec + cfg.w_pair * report.l_pair
             + training_mod.W_DURATION * report.l_duration + report.l_vq_aux)
    assert abs(report.total - recon) < 1e-12
    for value in (report.l_tts_rec, report.l_pair, report.l_duration,
                  report.l_vc_rec, report.l_vq_aux):
        assert value >= 0.0


def test_zero_pitch_weight_excludes_pitch_exactly(setup):
    cfg, model, opt, records = setup
    cfg.w_pitch = 0.0
    report = joint_step(records[:2], records[2:4], model, opt, cfg, step=0)
    assert report.l_tts_rec == report.mel_tts
    assert report.l_vc_rec == report.mel_vc
    assert report.pitch_ce_tts > 0.0  # still measured, just not optimized


def test_batch_loss_is_mean_of_singles(setup):
    cfg, model, opt, records = setup
    both = tts_step(records[:2], model, step=0, training=False)
    one = tts_step(records[:1], model, step=0, training=False)
    two = tts_step(records[1:2], model, step=0, training=False)
    assert both.mel.item() == pytest.approx(
        (one.mel.item() + two.mel.item()) / 2, abs=1e-12)
    assert both.pitch_ce.item() == pytest.approx(
        (one.pitch_ce.item() + two.pitch_ce.item()) / 2, abs=1e-12)


def _packed_ctx(batch, lengths, model, step=5):
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    return Ctx(training=True, step=step, uids=tuple(r.id for r in batch),
               offsets=offsets, rng=model.rng)


def _segment_rows(a, offsets, b):
    return a[offsets[b]:offsets[b + 1]]


def test_packed_segments_do_not_see_each_other(tiny_corpus):
    # training mode, dropout on: changing one utterance leaves every other
    # segment's rows bitwise unchanged through both pipelines' modules
    model = JointModel(small_model_config(), seed=0)
    # the speaker projection starts at zero; give it weight so the
    # per-segment speaker vectors reach the decoder
    rng = np.random.default_rng(4)
    for name in model.store:
        if name.startswith("speaker_encoder.proj"):
            model.store[name].data = 0.3 * rng.standard_normal(model.store[name].data.shape)
    batch = tiny_corpus["train"][:3]
    ctx = _packed_ctx(batch, [r.n_frames for r in batch], model)
    text_ctx = _packed_ctx(batch, [r.phonemes.size for r in batch], model)
    bins = np.zeros(ctx.offsets[-1], dtype=np.intp)

    def forward(mel, phonemes):
        _, _, h = model.tts_content(phonemes, np.ones(phonemes.size, np.int64), text_ctx)
        log_dur = model.duration_predictor(h, text_ctx)
        q = model.quantize(model.content_encoder(mel, ctx))
        s = model.speaker_encoder(mel, ctx)
        p = model.prosody_encoder.from_bins(bins)
        frames = [q.continuous.data, model.synthesize(q, s, p, ctx).data,
                  model.pitch_predictor(q, s, ctx).data]
        return frames, [h.data, log_dur.data], s.data

    mel = np.concatenate([r.mel for r in batch])
    phonemes = np.concatenate([r.phonemes for r in batch])
    base = forward(mel, phonemes)
    for j in range(3):
        mel_j, ph_j = mel.copy(), phonemes.copy()
        _segment_rows(mel_j, ctx.offsets, j)[:] += 1.0
        _segment_rows(ph_j, text_ctx.offsets, j)[:] = (
            _segment_rows(ph_j, text_ctx.offsets, j) + 1) % N_PHONEMES
        frames, text, speaker = forward(mel_j, ph_j)
        for b in set(range(3)) - {j}:
            for new, old in zip(frames, base[0]):
                assert np.array_equal(_segment_rows(new, ctx.offsets, b),
                                      _segment_rows(old, ctx.offsets, b)), (j, b)
            for new, old in zip(text, base[1]):
                assert np.array_equal(_segment_rows(new, text_ctx.offsets, b),
                                      _segment_rows(old, text_ctx.offsets, b)), (j, b)
            assert np.array_equal(speaker[b], base[2][b]), (j, b)
        assert not np.array_equal(_segment_rows(frames[1], ctx.offsets, j),
                                  _segment_rows(base[0][1], ctx.offsets, j))


def _fragment_total(frag):
    terms = [t for t in (frag.mel, frag.pitch_ce, frag.duration, frag.pair, frag.aux)
             if t is not None]
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total


def _loss_and_grads(step_fn, batch, model):
    model.store.zero_grad()
    total = _fragment_total(step_fn(batch, model, step=3, training=True))
    loss = total.item()  # read before backward frees it
    ad.backward(total)
    grads = {n: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
             for n, p in model.store.items()}
    return loss, grads


def _pair_on_tts_content(batch, model, step, training):
    """pair_step against the TTS pipeline's content of the same batch, so
    the pair loss reaches the text encoder too."""
    text = tts_step(batch, model, step, training).quantized
    return pair_step(batch, model, step, text, training)


@pytest.mark.parametrize("step_fn", [tts_step, vc_step, _pair_on_tts_content],
                         ids=["tts_step", "vc_step", "pair_step"])
def test_training_batch_is_mean_of_singles(setup, step_fn):
    cfg, model, opt, records = setup
    seed_codebook_from_batch(model, records[:4])
    loss_ab, grads_ab = _loss_and_grads(step_fn, records[:2], model)
    loss_a, grads_a = _loss_and_grads(step_fn, records[:1], model)
    loss_b, grads_b = _loss_and_grads(step_fn, records[1:2], model)
    assert loss_ab == pytest.approx((loss_a + loss_b) / 2, abs=1e-12)
    # same dropout masks per utterance, so the gradients agree to rounding;
    # a parameter whose true gradient is 0 (attention key biases) is
    # compared against the largest gradient instead of its own
    scale = max(np.abs(g).max() for g in grads_ab.values())
    for name, g in grads_ab.items():
        mean = (grads_a[name] + grads_b[name]) / 2
        ref = max(np.linalg.norm(mean), 1e-6 * scale)
        assert np.linalg.norm(g - mean) <= 1e-10 * ref, name


def test_step_graph_size_does_not_grow_with_batch(tiny_corpus, monkeypatch):
    from uspc import autodiff as ad
    records = tiny_corpus["train"]
    counts = []
    backward = ad.backward

    def counting_backward(loss):
        seen, stack = set(), [loss]
        while stack:
            node = stack.pop()
            if id(node) not in seen and node._backward is not None:
                seen.add(id(node))
                stack.extend(node._parents)
        counts.append(len(seen))
        backward(loss)

    monkeypatch.setattr(ad, "backward", counting_backward)
    for n in (2, 4):
        cfg = small_train_config(batch_paired=n, batch_unpaired=n)
        model = JointModel(cfg.model, seed=cfg.seed)
        opt = AdamState.for_params(model.store)
        joint_step(records[:n], records[-n:], model, opt, cfg, step=0)
    # one backward pass per half, TTS + pair then VC, each the same size
    assert len(counts) == 4 and counts[:2] == counts[2:]


def test_tts_step_requires_durations(setup):
    cfg, model, opt, records = setup
    rec = records[0]
    import dataclasses
    unlabeled = dataclasses.replace(rec, labeled=False, phonemes=None, durations=None)
    with pytest.raises(DataError, match=rec.id):
        tts_step([unlabeled], model, step=0)


def test_a_held_tts_fragment_does_not_pin_its_forward_pass(setup, monkeypatch):
    # backward frees every node's values, also those of the tensors the
    # fragment itself holds, so no array a node was made with outlives it
    cfg, model, opt, records = setup
    made = []
    make_node = ad._make_node

    def recording(data, parents, backward_fn):
        out = make_node(data, parents, backward_fn)
        made.append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(ad, "_make_node", recording)
    frag = tts_step(records[:2], model, step=0)
    ad.backward(frag.mel + frag.pitch_ce + frag.duration + frag.aux)
    held = [frag.mel, frag.pitch_ce, frag.duration, frag.aux,
            frag.quantized.vectors, frag.quantized.continuous]
    assert all(t.data is None for t in held)
    alive = [r() for r in made if r() is not None]
    assert len(made) > 50
    assert not alive, [a.shape for a in alive]


def _text_half_backward_rise(tmp_path, monkeypatch, homed):
    """The rise of tracemalloc's peak over the start of a desk text half's
    backward pass, and the bytes of the gradients it gathers, with the
    optimizer's block as their home or without."""
    spec = CorpusSpec(n_speakers=2, utts_per_speaker=2, labeled_fraction=1.0,
                      n_test_speakers=0)
    records, _, _ = gen_corpus(tmp_path / "corpus", seed=5, spec=spec)
    cfg = small_train_config(model=small_model_config(
        d_model=64, text_blocks=2, content_blocks=2, decoder_blocks=2, codebook_size=64))
    model, opt = JointModel.for_run(cfg)
    rises = []
    backward = ad.backward

    def measured(loss):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        backward(loss)
        rises.append(tracemalloc.get_traced_memory()[1] - start)

    monkeypatch.setattr(ad, "backward", measured)
    tracemalloc.start()
    try:
        half = training_mod.half_step(records[:2], model, cfg, step=0, n_aux=4,
                                      homes=opt.g if homed else None)
    finally:
        tracemalloc.stop()
    assert len(rises) == 1
    return rises[0], sum(g.nbytes for g in half.grads.values())


def test_half_step_backward_peak_stays_well_below_its_gradient_bytes(tmp_path, monkeypatch):
    # each node's arrays are freed as backward consumes it, so the gradients
    # the pass gathers mostly fill the room the forward pass gives up; with
    # every node's `.data` kept to the end the peak was 0.6x the gradients.
    # Desk model, utterances of the default length: a forward pass about
    # twice the gradients' size
    rise, grad_bytes = _text_half_backward_rise(tmp_path, monkeypatch, homed=False)
    assert rise < 0.25 * grad_bytes, rise / grad_bytes


def test_half_step_backward_peak_with_the_block_as_home_stays_below_a_tenth_of_its_gradients(
        tmp_path, monkeypatch):
    # with the optimizer's block as their home the gradients take no fresh
    # room: what is left is each rule's transient arrays (0.248 of the
    # gradient bytes without a home, 0.078 with it)
    rise, grad_bytes = _text_half_backward_rise(tmp_path, monkeypatch, homed=True)
    assert rise < 0.1 * grad_bytes, rise / grad_bytes


def test_half_step_with_the_block_as_home_writes_the_same_gradient_bytes_there(
        setup, monkeypatch):
    # the codebook takes a gradient from both fragments of a full text half:
    # its second one is added in place into its view of the block
    cfg, model, opt, records = setup
    reached = []
    accumulate = ad.Tensor.accumulate_grad

    def counted(self, g):
        reached.append(self.name)
        accumulate(self, g)

    monkeypatch.setattr(ad.Tensor, "accumulate_grad", counted)
    fresh = training_mod.half_step(records[:2], model, cfg, step=0, n_aux=4)
    assert reached.count("codebook.entries") >= 2
    opt.blocks[3][...] = np.nan  # a first gradient is copied over, not added
    homed = training_mod.half_step(records[:2], model, cfg, step=0, n_aux=4, homes=opt.g)
    assert list(homed.grads) == list(fresh.grads) and "codebook.entries" in fresh.grads
    for name, g in homed.grads.items():
        assert g is opt.g[name] and np.shares_memory(g, opt.blocks[3]), name
        assert g.tobytes() == fresh.grads[name].tobytes(), name
    assert [name for name, p in model.store.items()
            if p.grad is not None or p.home is not None] == []


def test_vc_step_touches_no_text_parameters(setup):
    cfg, model, opt, records = setup
    from uspc import autodiff as ad
    frag = vc_step(records[:2], model, step=0)
    total = frag.mel + frag.pitch_ce
    model.store.zero_grad()
    ad.backward(total)
    for name in text_side_names(model):
        assert model.store[name].grad is None, name


def test_both_paths_share_one_codebook(setup):
    cfg, model, opt, records = setup
    tts = tts_step(records[:2], model, step=0)
    vc = vc_step(records[2:4], model, step=0)
    for q in (tts.quantized, vc.quantized):
        assert q.book is model.codebook


def test_pair_step_same_utterance_nonnegative(setup):
    cfg, model, opt, records = setup
    tts = tts_step(records[:2], model, step=0)
    frag = pair_step(records[:2], model, step=0, text_quantized=tts.quantized)
    assert frag.pair.item() >= 0.0
    assert 0.0 <= frag.code_agreement <= 1.0


def test_vc_only_step_leaves_text_parameters_bitwise(setup):
    cfg, model, opt, records = setup
    cfg.mode = "vc-only"
    before = {n: model.store[n].data.copy() for n in text_side_names(model)}
    joint_step([], records[:3], model, opt, cfg, step=0)
    for name, data in before.items():
        assert np.array_equal(model.store[name].data, data), name


def test_codebook_seeding_builds_no_graph_and_leaves_parameters_trainable(tiny_corpus,
                                                                        monkeypatch):
    from uspc import autodiff as ad
    records = tiny_corpus["train"][:4]
    cfg = small_model_config(codebook_size=8)
    # the rows seeding reads, from a forward pass with a graph
    graphed = JointModel(cfg, seed=0)
    ctx = Ctx(training=False, step=0, uids=tuple(r.id for r in records),
              offsets=np.concatenate([[0], np.cumsum([r.n_frames for r in records])]),
              rng=graphed.rng)
    rows = graphed.content_encoder(np.concatenate([r.mel for r in records]), ctx)
    assert rows._backward is not None
    graphed.codebook.seed_from_rows(rows.data, graphed.rng)

    closures = []
    real_make_node = ad._make_node

    def counted(data, parents, backward_fn):
        out = real_make_node(data, parents, backward_fn)
        closures.append(out._backward is not None)
        return out

    monkeypatch.setattr(ad, "_make_node", counted)
    model = JointModel(cfg, seed=0)
    before = model.codebook.entries.data.copy()
    seed_codebook_from_batch(model, records)
    assert closures and not any(closures)
    assert all(p.requires_grad for p in model.store.values())
    assert not np.array_equal(model.codebook.entries.data, before)
    assert model.codebook.entries.data.tobytes() == graphed.codebook.entries.data.tobytes()


def test_never_used_codebook_entries_bitwise_stable(tiny_corpus):
    # a book larger than the batches' frames, so some entries stay idle
    cfg = small_train_config(model=small_model_config(codebook_size=64))
    model = JointModel(cfg.model, seed=cfg.seed)
    opt = AdamState.for_params(model.store)
    records = tiny_corpus["train"]
    seed_codebook_from_batch(model, records[:4])
    before = model.codebook.entries.data.copy()
    idle_before = model.codebook.steps_since_use.copy()
    for step in range(3):
        joint_step(records[:2], records[2:4], model, opt, cfg, step=step)
    # idle through all three steps: no pipeline picked these entries
    never_used = np.flatnonzero(model.codebook.steps_since_use == 3)
    assert np.array_equal(idle_before, np.zeros_like(idle_before))
    assert never_used.size > 0
    for idx in never_used:
        assert np.array_equal(model.codebook.entries.data[idx], before[idx]), idx


def test_novq_matches_full_when_codebook_holds_batch_rows(tiny_corpus):
    cfg = small_train_config(model=small_model_config(codebook_size=256))
    rec = tiny_corpus["train"][0]
    full = JointModel(cfg.model, seed=cfg.seed, use_vq=True)
    # plant every content row (text and speech side) into the codebook so
    # quantization becomes the identity on this example
    ctx = Ctx.eval()
    q_text, _, _ = full.tts_content(rec.phonemes, rec.durations, ctx)
    c_s = full.content_encoder(rec.mel, ctx)
    rows = np.concatenate([q_text.continuous.data, c_s.data], axis=0)
    assert rows.shape[0] <= full.codebook.n_entries
    full.codebook.entries.data[:rows.shape[0]] = rows
    full.codebook.entries.data[rows.shape[0]:] = 1e6  # push the rest far away

    novq = JointModel(cfg.model, seed=cfg.seed, use_vq=False)
    frag_full = tts_step([rec], full, step=0, training=False)
    frag_novq = tts_step([rec], novq, step=0, training=False)
    assert frag_full.mel.item() == pytest.approx(frag_novq.mel.item(), abs=1e-12)


def test_training_diverged_on_nonfinite(setup):
    cfg, model, opt, records = setup
    model.store["decoder.out.w"].data[:] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(TrainingDiverged):
        joint_step(records[:1], [], model, opt, cfg, step=0)


# ---------------------------------------------------------------- train loop


def test_seed_determinism_bitwise_traces(tiny_corpus):
    def run(mode):
        cfg = small_train_config(max_steps=8, mode=mode)
        _, _, trace = train(cfg, tiny_corpus["train"])
        return [r.csv_row() for r in trace]

    def values(rows):
        return np.array([[float(v) for v in row.split(",")] for row in rows])

    # Reference traces recorded from a known-good build.  A change that moves
    # any value changes what training computes, and has to say so.
    lines = SEEDED_TRACES.read_text().splitlines()
    assert lines[0] == "mode," + LossReport.csv_header()
    reference = [line.split(",", 1) for line in lines[1:]]
    for mode in ("full", "tts-only", "vc-only", "novq"):
        rows = run(mode)
        assert rows == run(mode), mode
        expected = [row for m, row in reference if m == mode]
        np.testing.assert_allclose(values(rows), values(expected), rtol=1e-9, atol=0,
                                   err_msg=mode)


def test_different_seed_changes_trace(tiny_corpus):
    cfg_a = small_train_config(max_steps=4)
    cfg_b = small_train_config(max_steps=4, seed=123)
    _, _, ta = train(cfg_a, tiny_corpus["train"])
    _, _, tb = train(cfg_b, tiny_corpus["train"])
    assert [r.total for r in ta] != [r.total for r in tb]


def test_loss_decreases_over_training(tiny_corpus):
    cfg = small_train_config(max_steps=120, batch_paired=4, batch_unpaired=2)
    _, _, trace = train(cfg, tiny_corpus["train"])
    early = np.mean([r.total for r in trace[:5]])
    late = np.mean([r.total for r in trace[-5:]])
    assert late < early


def test_empty_corpus_rejected():
    with pytest.raises(DataError):
        train(small_train_config(), [])


def test_lr_decays_per_epoch(tiny_corpus):
    cfg = small_train_config(max_steps=9, batch_paired=2)
    # 6 paired records, batch 2 -> 3 steps per epoch
    _, _, trace = train(cfg, tiny_corpus["train"])
    lrs = [r.lr for r in trace]
    assert lrs[0] == pytest.approx(LR)
    assert lrs[3] == pytest.approx(LR * cfg.lr_decay_per_epoch)
    assert lrs[6] == pytest.approx(LR * cfg.lr_decay_per_epoch ** 2)


def _count_calls(monkeypatch, module, name):
    """Wrap module.name so each call is recorded (by its arguments) and
    still runs."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kw):
        calls.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_plateau_stop_ends_the_run_with_the_trace_of_a_shorter_run(tiny_corpus, monkeypatch):
    # 6 paired records, batch 2 -> 3 steps per epoch and 7 boundaries in 20
    # steps.  With PLATEAU_DELTA far above any loss the first epoch's mean
    # is the best one, so the 2nd and 3rd boundaries are stale and the run
    # stops at the 3rd, after 9 steps.
    monkeypatch.setattr(training_mod, "PLATEAU_DELTA", 1e3)
    cfg = small_train_config(max_steps=20, plateau_epochs=2)
    model, opt, trace = train(cfg, tiny_corpus["train"])
    assert len(trace) == 9

    # the rule only reads the trace: a 9-step run without it computes the same bits
    ref_model, ref_opt, ref_trace = train(
        small_train_config(max_steps=9, plateau_epochs=10 ** 6), tiny_corpus["train"])
    assert [r.csv_row() for r in trace] == [r.csv_row() for r in ref_trace]
    for name, param in model.store.items():
        assert param.data.tobytes() == ref_model.store[name].data.tobytes(), name
        assert opt.m[name].tobytes() == ref_opt.m[name].tobytes(), name
        assert opt.v[name].tobytes() == ref_opt.v[name].tobytes(), name
    assert (opt.t, opt.lr) == (ref_opt.t, ref_opt.lr)


def test_plateau_rule_reads_the_epoch_mean_of_the_logged_totals(tiny_corpus, monkeypatch):
    # replay the rule on the epoch means (3 steps each) of a run with it off
    ref_trace = train(small_train_config(max_steps=30, plateau_epochs=10 ** 6),
                      tiny_corpus["train"])[2]
    best, stale, expected = math.inf, 0, len(ref_trace)
    for end in range(3, len(ref_trace) + 1, 3):
        mean = sum(r.total for r in ref_trace[end - 3:end]) / 3
        if mean < best - 0.4:
            best, stale = mean, 0
        else:
            stale += 1
            if stale >= 2:
                expected = end
                break
    assert 9 < expected < 30  # the rule fires, later than an unbroken plateau would

    monkeypatch.setattr(training_mod, "PLATEAU_DELTA", 0.4)
    cfg = small_train_config(max_steps=30, plateau_epochs=2)
    _, _, trace = train(cfg, tiny_corpus["train"])
    assert [r.csv_row() for r in trace] == [r.csv_row() for r in ref_trace[:expected]]


@pytest.mark.parametrize("max_steps,written_steps", [(7, [3, 6, 7]), (0, [0])])
def test_checkpoint_written_once_per_epoch_boundary(tiny_corpus, tmp_path, monkeypatch,
                                                    max_steps, written_steps):
    calls = _count_calls(monkeypatch, checkpoint_mod, "save_checkpoint")
    cfg = small_train_config(max_steps=max_steps)
    path = tmp_path / "run.uspc"
    model, opt, trace = train(cfg, tiny_corpus["train"], checkpoint_path=path)
    assert [args[4] for args in calls] == written_steps
    # the file the run leaves is the checkpoint of what it returns
    again = tmp_path / "again.uspc"
    save_checkpoint(again, model, opt, cfg, step=len(trace))
    assert path.read_bytes() == again.read_bytes()


def test_stop_when_ends_the_run_like_max_steps(tiny_corpus, tmp_path):
    # 3 steps per epoch: stopping at step 3 ends the run one step into the
    # second epoch, after the first boundary's checkpoint
    path = tmp_path / "stopped.uspc"
    _, opt, trace = train(small_train_config(max_steps=20, plateau_epochs=2),
                          tiny_corpus["train"], checkpoint_path=path,
                          stop_when=lambda report: report.step == 3)
    stopped = load_checkpoint(path)
    assert stopped.step == len(trace) == opt.t == 4

    # the stop's boundary is a 4-step run's last one: one more lr decay
    ref_path = tmp_path / "ref.uspc"
    train(small_train_config(max_steps=4), tiny_corpus["train"], checkpoint_path=ref_path)
    ref = load_checkpoint(ref_path)
    assert stopped.step == ref.step
    assert stopped.tensors.keys() == ref.tensors.keys()
    for name, array in ref.tensors.items():
        assert stopped.tensors[name].tobytes() == array.tobytes(), name


def test_trace_csv_written(tiny_corpus, tmp_path):
    cfg = small_train_config(max_steps=3)
    trace_path = tmp_path / "trace.csv"
    _, _, trace = train(cfg, tiny_corpus["train"], trace_path=trace_path)
    lines = trace_path.read_text().strip().splitlines()
    assert lines[0] == LossReport.csv_header()
    assert len(lines) == len(trace) + 1


def test_checkpoint_round_trip_preserves_eval(tiny_corpus, tmp_path):
    cfg = small_train_config(max_steps=6)
    model, opt, _ = train(cfg, tiny_corpus["train"])
    path = tmp_path / "model.uspc"
    save_checkpoint(path, model, opt, cfg, step=6)
    restored, r_opt, r_cfg = restore_model(load_checkpoint(path))

    rec = tiny_corpus["test"][0]
    mel_a, f0_a, _ = model.synth_tts(rec.phonemes, rec.mel, durations=rec.durations)
    mel_b, f0_b, _ = restored.synth_tts(rec.phonemes, rec.mel, durations=rec.durations)
    assert np.array_equal(mel_a, mel_b)
    assert np.array_equal(f0_a, f0_b)
    assert r_opt.t == opt.t
    assert r_cfg.mode == cfg.mode


def test_tts_only_mode_runs_without_vc(tiny_corpus):
    cfg = small_train_config(max_steps=4, mode="tts-only")
    _, _, trace = train(cfg, tiny_corpus["train"])
    assert all(r.l_vc_rec == 0.0 and r.l_pair == 0.0 for r in trace)
    assert all(r.l_tts_rec > 0.0 for r in trace)


def test_vc_only_mode_runs_without_text(tiny_corpus):
    cfg = small_train_config(max_steps=4, mode="vc-only")
    _, _, trace = train(cfg, tiny_corpus["train"])
    assert all(r.l_tts_rec == 0.0 and r.l_pair == 0.0 for r in trace)
    assert all(r.l_vc_rec > 0.0 for r in trace)


def test_novq_mode_reports_no_aux(tiny_corpus):
    cfg = small_train_config(max_steps=4, mode="novq")
    _, _, trace = train(cfg, tiny_corpus["train"])
    assert all(r.l_vq_aux == 0.0 for r in trace)
    assert all(r.l_pair > 0.0 for r in trace)  # pair loss on continuous content


def _cursor_walk(rng, n, size, n_steps):
    """Reference: the speech-pool indices of each step's batch, drawn with
    a cursor that reshuffles the pool (`data/shuffle_speech` at the current
    step) each time it runs out."""
    batches, order, cursor = [], [], 0
    for step in range(n_steps):
        batch = []
        for _ in range(size):
            if cursor >= len(order):
                order, cursor = rng.generator("data/shuffle_speech", step).permutation(n), 0
            batch.append(int(order[cursor]))
            cursor += 1
        batches.append(batch)
    return batches


def _epoch_loop_batches(cfg, records, n_steps):
    """Reference: the (paired, speech) batches of an epoch loop over the
    chunks of each epoch's primary permutation, its speech batches from
    `_cursor_walk`."""
    rng = NamedRng(cfg.seed)
    paired, unpaired = training_mod._pools(records, cfg)
    primary = paired if cfg.mode != "vc-only" else unpaired
    size = cfg.batch_paired if cfg.mode != "vc-only" else max(cfg.batch_unpaired, 1)
    speech = _cursor_walk(rng, len(unpaired), cfg.batch_unpaired if unpaired else 0, n_steps)
    out, epoch = [], 0
    while len(out) < n_steps:
        order = rng.generator("data/shuffle_primary", epoch).permutation(len(primary))
        for start in range(0, len(order), size):
            if len(out) < n_steps:
                chunk = [primary[i].id for i in order[start:start + size]]
                out.append(([], chunk) if cfg.mode == "vc-only"
                           else (chunk, [unpaired[i].id for i in speech[len(out)]]))
        epoch += 1
    return out


def test_speech_batch_is_the_cursor_walk_for_every_pool_and_batch_size():
    rng = NamedRng(5)
    for n in (1, 2, 3, 5, 6, 12):
        for size in (1, 2, 4, 5, 7, 13):  # some larger than the pool, most not dividing it
            expected = _cursor_walk(rng, n, size, 25)
            got = [training_mod._speech_batch(list(range(n)), rng, step, size)
                   for step in range(25)]
            assert got == expected, (n, size)


@pytest.mark.parametrize("mode,batch_paired,batch_unpaired", [
    ("full", 4, 7),     # a speech batch larger than its pool of 6; epochs of 4 + 2
    ("novq", 2, 4),     # a speech batch that does not divide the pool
    ("vc-only", 2, 4),  # epochs of 4 + 2 speech utterances
    ("tts-only", 4, 2),
])
def test_train_batches_are_the_epoch_loop_batches(tiny_corpus, monkeypatch, mode,
                                                  batch_paired, batch_unpaired):
    seen = []

    def record(paired, unpaired, model, opt, cfg, step, **kw):
        seen.append(([r.id for r in paired], [r.id for r in unpaired]))
        return LossReport(step=step, total=1.0, lr=opt.lr)

    monkeypatch.setattr(training_mod, "joint_step", record)
    _cpus(monkeypatch, 1)
    cfg = small_train_config(max_steps=13, mode=mode, batch_paired=batch_paired,
                             batch_unpaired=batch_unpaired, plateau_epochs=10 ** 6)
    train(cfg, tiny_corpus["train"])
    assert seen == _epoch_loop_batches(cfg, tiny_corpus["train"], 13)


# ------------------------------------------------------------- the VC worker


def _cpus(monkeypatch, n):
    """Make `train()` see n usable CPUs: with numpy's OpenBLAS found, 2
    starts the VC worker at one BLAS thread per process, 1 keeps the VC
    half inline."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def openblas_threads():
    """numpy's OpenBLAS thread count, restored after the test."""
    before = training_mod.blas_threads()
    if before is None:
        pytest.skip("numpy's OpenBLAS is not found")
    yield before
    training_mod.blas_threads(before)


# (cpus, count) rows where evaluate() runs its text side on a helper thread:
# the CPUs hold two callers of the count it finds, which it never sets
EVAL_SPLITS = {(2, 1), (8, 1), (4, 2)}


@pytest.mark.parametrize("cpus,count,per", [
    (2, 2, 1),      # OpenBLAS's default on 2 CPUs
    (2, 1, 1),
    (1, 1, 0),
    (4, 4, 2),
    (8, 1, 1),
    (2, None, 0),   # no OpenBLAS found
    (4, 2, 2),
])
def test_vc_worker_runs_where_the_cpus_hold_two_processes_of_blas_threads(
        tiny_corpus, monkeypatch, cpus, count, per):
    # per = min(count, cpus // 2) threads in each process, set before the
    # fork and taken back after; no worker and no setting when per is 0
    state, sets = [count], []

    def fake_blas_threads(n=None):
        if n is not None and state[0] is not None:
            state[0] = n
            sets.append(n)
        return state[0]

    monkeypatch.setattr(training_mod, "blas_threads", fake_blas_threads)
    _cpus(monkeypatch, cpus)
    children = []
    model, _, _ = train(
        small_train_config(max_steps=2), tiny_corpus["train"],
        stop_when=lambda report: children.append(len(multiprocessing.active_children())))
    assert children == [int(per > 0)] * 2
    assert sets == ([per, count] if per else [])

    threads = text_side_threads(model, monkeypatch)
    metrics_mod.evaluate(tiny_corpus["test"], model)
    assert (threads[0] is not threading.main_thread()) == ((cpus, count) in EVAL_SPLITS)
    assert sets == ([per, count] if per else [])  # evaluate() set nothing


@pytest.mark.parametrize("env", [{}, {"OPENBLAS_NUM_THREADS": "1"}],
                         ids=["no-variable", "variable-set-after-import"])
def test_full_run_on_two_cpus_runs_each_process_at_one_blas_thread(
        tiny_corpus, tmp_path, monkeypatch, openblas_threads, env):
    # OpenBLAS reads its variables once, when numpy loads it: one set later
    # leaves it at 2 threads, and the worker must still run at 1
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    training_mod.blas_threads(2)
    _cpus(monkeypatch, 2)
    log = tmp_path / "threads.txt"
    real_half_step, real_tts_step = training_mod.half_step, training_mod.tts_step

    def recording(batch, model, cfg, step, n_aux, speech=False, homes=None):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {int(speech)} {training_mod.blas_threads()}\n")
        return real_half_step(batch, model, cfg, step, n_aux, speech, homes)

    monkeypatch.setattr(training_mod, "half_step", recording)
    train(small_train_config(max_steps=3), tiny_corpus["train"])
    assert training_mod.blas_threads() == 2
    rows = {tuple(line.split()) for line in log.read_text().splitlines()}
    worker = {pid for pid, speech, _ in rows if speech == "1"}
    assert rows == {(str(os.getpid()), "0", "1")} | {(pid, "1", "1") for pid in worker}
    assert len(worker) == 1 and str(os.getpid()) not in worker

    def failing(batch, model, step, training=True):
        if step == 1:
            raise DataError("text batch rejected")
        return real_tts_step(batch, model, step, training)

    monkeypatch.setattr(training_mod, "tts_step", failing)
    with pytest.raises(DataError, match="text batch rejected"):
        train(small_train_config(max_steps=3), tiny_corpus["train"])
    assert training_mod.blas_threads() == 2


def _state_digest(model, opt) -> str:
    h = hashlib.sha256()
    for name, param in model.store.items():
        for array in (param.data, opt.m[name], opt.v[name]):
            h.update(array.tobytes())
    h.update(model.codebook.steps_since_use.tobytes())
    h.update(repr((opt.t, opt.lr)).encode())
    return h.hexdigest()


def _run_digests(cfg, records, out):
    """sha256 of a seeded run's trace CSV, checkpoint bytes and final state,
    plus the number of live child processes at each step and the trace."""
    children = []

    def stop_when(report):
        children.append(len(multiprocessing.active_children()))
        return False

    out.mkdir()
    model, opt, trace = train(cfg, records, checkpoint_path=out / "run.uspc",
                              trace_path=out / "trace.csv", stop_when=stop_when)
    return ({part: hashlib.sha256((out / part).read_bytes()).hexdigest()
             for part in ("run.uspc", "trace.csv")} | {"state": _state_digest(model, opt)},
            children, trace)


@pytest.mark.parametrize("mode", ["full", "novq"])
def test_vc_worker_steps_are_bitwise_the_inline_steps(tiny_corpus, tmp_path, monkeypatch,
                                                      openblas_threads, mode):
    # dead entries are reseeded by the main process every 2 idle steps: the
    # worker must see those writes, and Adam's, before its next step
    reseeded = []
    real_reseed = Codebook.reseed_dead_entries

    def counted(self, *args):
        reseeded.append(real_reseed(self, *args))
        return reseeded[-1]

    monkeypatch.setattr(Codebook, "reseed_dead_entries", counted)
    cfg = small_train_config(max_steps=7, mode=mode, dead_code_steps=2)
    training_mod.blas_threads(1)  # both runs at the worker's count
    _cpus(monkeypatch, 2)
    worker, children, trace = _run_digests(cfg, tiny_corpus["train"], tmp_path / "worker")
    assert children == [1] * 7
    _cpus(monkeypatch, 1)
    inline, children, _ = _run_digests(cfg, tiny_corpus["train"], tmp_path / "inline")
    assert children == [0] * 7
    assert worker == inline
    assert multiprocessing.active_children() == []
    # both processes scaled their range of the gradients
    assert any(report.grad_norm > training_mod.GRAD_CLIP_NORM for report in trace)
    if mode == "full":
        assert sum(reseeded) > 0


@pytest.mark.parametrize("worker", [False, True], ids=["inline", "worker"])
def test_joint_step_leaves_no_parameter_gradient_set(tiny_corpus, monkeypatch, worker):
    # both ranges are clipped and updated by name over the gradient block;
    # the text half's homes go with its pass, also when a step diverges in it
    records = tiny_corpus["train"]
    cfg = small_train_config()
    model, opt = JointModel.for_run(cfg)
    vc_worker = training_mod.VcWorker(model, opt, cfg) if worker else None
    backward = ad.backward

    def diverging(loss):
        backward(loss)
        raise TrainingDiverged("non-finite gradient")

    def gradients_or_homes_set():
        return [name for name, p in model.store.items()
                if p.grad is not None or p.home is not None]

    try:
        joint_step(records[:2], records[2:4], model, opt, cfg, step=0, vc_worker=vc_worker)
        assert opt.t == 1 and opt.v[next(iter(model.store))].any()
        assert gradients_or_homes_set() == []
        monkeypatch.setattr(ad, "backward", diverging)
        with pytest.raises(TrainingDiverged):
            joint_step(records[:2], records[2:4], model, opt, cfg, step=1, vc_worker=vc_worker)
    finally:
        if vc_worker is not None:
            vc_worker.close()
    assert gradients_or_homes_set() == []


def test_vc_worker_sent_copies_of_the_speech_records_is_bitwise_the_inline_side(
        tiny_corpus, openblas_threads):
    # a "step" request carries its records: the worker needs no pool, and
    # records that are not the main process's objects give the same bytes
    records = tiny_corpus["train"]
    cfg = small_train_config(dead_code_steps=2)
    training_mod.blas_threads(1)  # both sides at the worker's count
    speech = [records[2:4], records[4:6], records[1:3]]
    runs = []
    for worker in (True, False):
        model, opt = JointModel.for_run(cfg)
        seed_codebook_from_batch(model, records[:4])
        vc_worker = training_mod.VcWorker(model, opt, cfg) if worker else None
        try:
            reports = [joint_step(records[:2], copy.deepcopy(batch) if worker else batch,
                                  model, opt, cfg, step, vc_worker=vc_worker).csv_row()
                       for step, batch in enumerate(speech)]
        finally:
            if vc_worker is not None:
                vc_worker.close()
        runs.append((reports, _state_digest(model, opt)))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("mode", ["tts-only", "vc-only"])
def test_single_pipeline_modes_start_no_process(tiny_corpus, monkeypatch, mode):
    _cpus(monkeypatch, 2)
    children = []
    train(small_train_config(max_steps=3, mode=mode), tiny_corpus["train"],
          stop_when=lambda report: children.append(len(multiprocessing.active_children())))
    assert children == [0, 0, 0]


def test_vc_worker_is_gone_after_train_returns_stops_or_raises(tiny_corpus, monkeypatch):
    _cpus(monkeypatch, 2)
    records = tiny_corpus["train"]
    train(small_train_config(max_steps=3), records)
    assert multiprocessing.active_children() == []
    train(small_train_config(max_steps=9), records, stop_when=lambda report: report.step == 1)
    assert multiprocessing.active_children() == []

    # the main half fails while the worker runs its half of the same step
    real_tts_step = training_mod.tts_step

    def failing(batch, model, step, training=True):
        if step == 2:
            raise DataError("text batch rejected")
        return real_tts_step(batch, model, step, training)

    monkeypatch.setattr(training_mod, "tts_step", failing)
    with pytest.raises(DataError, match="text batch rejected"):
        train(small_train_config(max_steps=5), records)
    assert multiprocessing.active_children() == []


def test_vc_worker_error_reaches_the_caller_as_inline(tiny_corpus, monkeypatch):
    real_vc_step = training_mod.vc_step

    def failing(batch, model, step, training=True):
        if step == 2:
            raise DataError(f"speech batch rejected at step {step}: {batch[0].id}")
        return real_vc_step(batch, model, step, training)

    monkeypatch.setattr(training_mod, "vc_step", failing)
    raised = []
    for cpus in (2, 1):
        _cpus(monkeypatch, cpus)
        with pytest.raises(DataError) as info:
            train(small_train_config(max_steps=5), tiny_corpus["train"])
        raised.append((type(info.value), str(info.value)))
        assert multiprocessing.active_children() == []
    assert raised[0] == raised[1]
    assert raised[0][1].startswith("speech batch rejected at step 2: ")


def test_nonfinite_vc_loss_in_the_worker_changes_nothing(tiny_corpus, tmp_path, monkeypatch):
    real_vc_step = training_mod.vc_step

    def poisoned(batch, model, step, training=True):
        frag = real_vc_step(batch, model, step, training)
        if step == 4:
            frag.mel = frag.mel * np.inf
        return frag

    # the state after each completed step, from the model train() builds
    seen = {}
    real_joint_step = training_mod.joint_step

    def spy(paired, unpaired, model, opt, cfg, step, **kw):
        seen["model"], seen["opt"] = model, opt
        report = real_joint_step(paired, unpaired, model, opt, cfg, step, **kw)
        seen["after"] = _state_digest(model, opt)
        return report

    monkeypatch.setattr(training_mod, "vc_step", poisoned)
    monkeypatch.setattr(training_mod, "joint_step", spy)
    _cpus(monkeypatch, 2)
    path = tmp_path / "run.uspc"
    hint = re.escape(f"non-finite loss at step 4; last good checkpoint: {path}")
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged, match=hint):
        train(small_train_config(max_steps=9), tiny_corpus["train"], checkpoint_path=path)
    assert _state_digest(seen["model"], seen["opt"]) == seen["after"]
    assert multiprocessing.active_children() == []


def test_vc_worker_death_raises_uspc_error_naming_its_exit_code(tiny_corpus, monkeypatch):
    main_pid = os.getpid()
    real_vc_step = training_mod.vc_step

    def dying(batch, model, step, training=True):
        if step == 2 and os.getpid() != main_pid:
            os._exit(7)
        return real_vc_step(batch, model, step, training)

    monkeypatch.setattr(training_mod, "vc_step", dying)
    _cpus(monkeypatch, 2)
    with pytest.raises(UspcError, match="exited with code 7"):
        train(small_train_config(max_steps=5), tiny_corpus["train"])
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [2, 1])
def test_nonfinite_gradient_in_the_worker_range_changes_nothing(tiny_corpus, monkeypatch, cpus):
    # the last parameter in store order is updated by the worker (inline:
    # by the second range); its NaN must stop the step before either range
    # writes a parameter, a moment, t or lr
    cfg = small_train_config(max_steps=9)
    model = JointModel(cfg.model, seed=cfg.seed)
    name = AdamState.for_params(model.store).split(list(model.store))[1][-1]
    real_half_step = training_mod.half_step

    def poisoned(batch, model, cfg, step, n_aux, speech=False, homes=None):
        half = real_half_step(batch, model, cfg, step, n_aux, speech, homes)
        if speech and step == 4:
            half.grads[name] = half.grads[name] * np.nan
        return half

    seen = {}
    real_joint_step = training_mod.joint_step

    def spy(paired, unpaired, model, opt, cfg, step, **kw):
        seen["model"], seen["opt"] = model, opt
        report = real_joint_step(paired, unpaired, model, opt, cfg, step, **kw)
        seen["after"] = _state_digest(model, opt)
        return report

    monkeypatch.setattr(training_mod, "half_step", poisoned)
    monkeypatch.setattr(training_mod, "joint_step", spy)
    _cpus(monkeypatch, cpus)
    steps = []
    with np.errstate(all="ignore"), pytest.raises(
            TrainingDiverged, match=re.escape(f"non-finite gradient in parameter {name!r}")):
        train(cfg, tiny_corpus["train"], stop_when=lambda report: steps.append(report.step))
    assert steps == [0, 1, 2, 3]
    assert _state_digest(seen["model"], seen["opt"]) == seen["after"]
    assert multiprocessing.active_children() == []


def test_vc_worker_death_in_the_update_raises_uspc_error_naming_its_exit_code(
        tiny_corpus, monkeypatch):
    main_pid = os.getpid()
    real_adam_step = training_mod.adam_step

    def dying(opt, names, t, scale):
        if os.getpid() != main_pid:
            os._exit(9)
        return real_adam_step(opt, names, t, scale)

    monkeypatch.setattr(training_mod, "adam_step", dying)
    _cpus(monkeypatch, 2)
    with pytest.raises(UspcError, match="exited with code 9"):
        train(small_train_config(max_steps=3), tiny_corpus["train"])
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("mode,untrained", [
    ("tts-only", ("content_encoder.",)),
    ("vc-only", ("text_encoder.", "duration_predictor.")),
    ("novq", ("codebook.entries",)),
])
def test_parameters_without_a_gradient_keep_their_values_and_moments(tiny_corpus, monkeypatch,
                                                                     mode, untrained):
    # runs of the flat Adam pass stop at a parameter no loss reaches
    _cpus(monkeypatch, 2)   # novq runs the worker
    cfg = small_train_config(max_steps=4, mode=mode)
    model, opt, _ = train(cfg, tiny_corpus["train"])
    fresh = JointModel(cfg.model, seed=cfg.seed, use_vq=mode != "novq")
    names = [name for name in model.store if name.startswith(untrained)]
    assert names and opt.t == 4
    for name in names:
        assert model.store[name].data.tobytes() == fresh.store[name].data.tobytes(), name
        assert not opt.m[name].any() and not opt.v[name].any(), name
    trained = [name for name in model.store if not name.startswith(untrained)]
    assert all(opt.v[name].any() for name in trained)


def test_restored_model_reads_and_writes_the_packed_block(tiny_corpus, tmp_path):
    cfg = small_train_config(max_steps=2)
    model, opt, _ = train(cfg, tiny_corpus["train"], checkpoint_path=tmp_path / "a.uspc")
    restored, opt2, _ = restore_model(load_checkpoint(tmp_path / "a.uspc"))
    opt2.check_packed(restored.store)
    records = tiny_corpus["train"]
    for m, o in ((model, opt), (restored, opt2)):
        joint_step(records[:2], records[2:4], m, o, cfg, step=2)
    assert _state_digest(model, opt) == _state_digest(restored, opt2)

    # a parameter replaced instead of written is off the block
    name = next(iter(restored.store))
    restored.store[name].data = restored.store[name].data.copy()
    with pytest.raises(UspcError, match=re.escape(f"parameter {name!r} is not in the")):
        joint_step(records[:2], records[2:4], restored, opt2, cfg, step=3)


def test_config_text_round_trip():
    cfg = small_train_config(max_steps=77, w_pitch=0.25)
    text = config_mod.to_text(cfg)
    back = config_mod.from_text(text)
    assert back == cfg


@pytest.mark.parametrize("seed, ok", [(0, True), (2 ** 64 - 1, True), (-1, False),
                                      (2 ** 64, False)])
def test_config_seed_is_a_64_bit_unsigned_integer(seed, ok):
    # the Philox key takes the seed's low 64 bits: -1 would train as
    # 2**64 - 1, and 2**64 as 0
    text = f"seed = {seed}\n"
    if ok:
        assert config_mod.from_text(text).seed == seed
    else:
        with pytest.raises(ConfigError, match=r"seed must be in \[0, 2\*\*64\)"):
            config_mod.from_text(text)


@pytest.mark.parametrize("line, key", [("max_steps = ten", "max_steps"),
                                       ("model.dropout = half", "model.dropout")])
def test_config_bad_value_names_line_and_key(line, key):
    with pytest.raises(ConfigError, match=f"line 2: {key} needs"):
        config_mod.from_text("seed = 1\n" + line + "\n")
