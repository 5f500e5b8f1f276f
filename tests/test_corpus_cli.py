"""Synthetic factor-model identities, corpus round trips, checkpoint format
gates, and the end-to-end command-line surface."""

import dataclasses
import struct

import numpy as np
import pytest

from uspc import checkpoint as checkpoint_mod
from uspc.checkpoint import MAGIC, load_checkpoint, restore_model, save_checkpoint
from uspc import cli as cli_mod
from uspc import config as config_mod
from uspc.cli import main
from uspc.corpus import (CorpusSpec, UtteranceRecord, gen_corpus, load_corpus,
                         read_matrix, render_frames, write_corpus, write_matrix)
from uspc.errors import ConfigError, DataError, FormatError, IntegrityError
from uspc.features import N_PHONEMES
from uspc.model import JointModel
from uspc.optim import AdamState
from uspc.training import train, vc_step

from conftest import small_train_config


# ---------------------------------------------------------------- factor model


def test_factor_model_speaker_difference_is_offset_difference(tiny_corpus):
    factors = tiny_corpus["factors"]
    ph = np.array([3, 3, 7, 1])
    f0 = np.array([150.0, 150.0, 0.0, 210.0])
    mel_a = render_frames(factors, 0, ph, f0)
    mel_b = render_frames(factors, 1, ph, f0)
    diff = factors.speaker_offsets[0] - factors.speaker_offsets[1]
    np.testing.assert_allclose(mel_a - mel_b, np.tile(diff, (4, 1)), atol=1e-12)


def test_factor_model_same_phoneme_same_bin_identical_rows(tiny_corpus):
    factors = tiny_corpus["factors"]
    ph = np.array([5, 5, 5])
    f0 = np.array([120.0, 120.5, 121.0])  # all in one log-spaced bin
    from uspc.encoders import quantize_f0_array
    assert len(set(quantize_f0_array(f0).tolist())) == 1
    mel = render_frames(factors, 0, ph, f0)
    np.testing.assert_array_equal(mel[0], mel[1])
    np.testing.assert_array_equal(mel[0], mel[2])


def test_gen_corpus_seed_determinism(tmp_path):
    spec = CorpusSpec(n_speakers=2, utts_per_speaker=2, n_test_speakers=2,
                      p_vocab=8, min_phonemes=3, max_phonemes=4)
    a_train, a_test, _ = gen_corpus(tmp_path / "a", seed=5, spec=spec)
    b_train, b_test, _ = gen_corpus(tmp_path / "b", seed=5, spec=spec)
    for ra, rb in zip(a_train + a_test, b_train + b_test):
        assert ra.id == rb.id and ra.speaker_id == rb.speaker_id
        assert np.array_equal(ra.mel, rb.mel)
        assert np.array_equal(ra.f0, rb.f0)
    manifest_a = (tmp_path / "a" / "manifest.txt").read_bytes()
    manifest_b = (tmp_path / "b" / "manifest.txt").read_bytes()
    assert manifest_a == manifest_b


def test_gen_corpus_labeled_fraction(tmp_path):
    spec = CorpusSpec(n_speakers=6, utts_per_speaker=2, labeled_fraction=2 / 3,
                      n_test_speakers=0, p_vocab=8)
    train_recs, _, _ = gen_corpus(tmp_path / "c", seed=0, spec=spec)
    speakers_labeled = {r.speaker_id for r in train_recs if r.labeled}
    speakers_unlabeled = {r.speaker_id for r in train_recs if not r.labeled}
    assert len(speakers_labeled) == 4 and len(speakers_unlabeled) == 2


def test_gen_corpus_validates_args(tmp_path):
    from uspc.errors import ConfigError
    with pytest.raises(ConfigError):
        gen_corpus(tmp_path / "x", seed=0, spec=CorpusSpec(n_speakers=1))
    with pytest.raises(ConfigError):
        gen_corpus(tmp_path / "y", seed=0, spec=CorpusSpec(labeled_fraction=1.5))
    with pytest.raises(ConfigError, match="seed"):
        gen_corpus(tmp_path / "z", seed=-1)
    # values the generator cannot honour: fewer training speakers, the
    # training count of test utterances, or noise that is never applied
    for field, value in [("n_test_speakers", -1), ("test_utts_per_speaker", 0),
                         ("test_utts_per_speaker", -1), ("noise", -0.5),
                         ("noise", float("nan"))]:
        with pytest.raises(ConfigError, match=field):
            gen_corpus(tmp_path / "w", seed=0, spec=CorpusSpec(n_speakers=2, **{field: value}))
    assert not (tmp_path / "w").exists()


# ---------------------------------------------------------------- corpus io


def test_corpus_round_trip(tiny_corpus):
    loaded = load_corpus(tiny_corpus["dir"], "train")
    original = {r.id: r for r in tiny_corpus["train"]}
    assert len(loaded) == len(original)
    for rec in loaded:
        ref = original[rec.id]
        assert np.array_equal(rec.mel, ref.mel)
        assert np.array_equal(rec.f0, ref.f0)
        assert np.array_equal(rec.phonemes, ref.phonemes)
        assert np.array_equal(rec.durations, ref.durations)


def test_corrupt_durations_rejected_with_id(tmp_path, tiny_corpus):
    rec = tiny_corpus["train"][0]
    d = rec.durations
    off_by_one = d + np.eye(1, d.size, dtype=np.int64)[0]  # sum no longer matches frames
    # both sum to the frame count: a negative duration, and two past it
    # whose int64 sum wraps
    negative = np.concatenate([[d[0] + d[1] + 1, -1], d[2:]])
    wrapped = np.concatenate([[2 ** 63 - 1, 2 ** 63 - 1, d[0] + d[1] + d[2] + 2], d[3:]])
    for durations in (off_by_one, negative, wrapped):
        bad = dataclasses.replace(rec, durations=durations)
        with pytest.raises(IntegrityError, match=rec.id):
            write_corpus(tmp_path / "bad", [bad])


def test_manifest_integrity_error_on_tampered_line(tmp_path, tiny_corpus):
    write_corpus(tmp_path / "t", tiny_corpus["train"][:2])
    manifest = tmp_path / "t" / "manifest.txt"
    lines = manifest.read_text().splitlines()
    first = lines[0].split("|")
    durs = first[4].split(",")
    durs[0] = str(int(durs[0]) + 1)
    first[4] = ",".join(durs)
    manifest.write_text("\n".join(["|".join(first)] + lines[1:]) + "\n")
    with pytest.raises(IntegrityError, match=first[0]):
        load_corpus(tmp_path / "t", "train")


@pytest.mark.parametrize("field,value", [  # phonemes, durations
    pytest.param(3, "x", id="3"), pytest.param(4, "x", id="4"),
    pytest.param(3, "99999999999999999999", id="3-past-int64"),
    pytest.param(4, "99999999999999999999", id="4-past-int64")])
def test_manifest_non_integer_id_is_integrity_error(tmp_path, tiny_corpus, field, value):
    write_corpus(tmp_path / "t", tiny_corpus["train"][:2])
    manifest = tmp_path / "t" / "manifest.txt"
    lines = manifest.read_text().splitlines()
    second = lines[1].split("|")
    second[field] = value + second[field]
    manifest.write_text("\n".join([lines[0], "|".join(second)]) + "\n")
    with pytest.raises(IntegrityError, match="manifest.txt:2"):
        load_corpus(tmp_path / "t", "train")
    assert main(["train", "--corpus", str(tmp_path / "t"),
                 "--out", str(tmp_path / "m.uspc")]) == 1


@pytest.mark.parametrize("edits,want", [  # field index -> text on line 2
    pytest.param({2: "yes"}, "labeled flag must be 0 or 1, got 'yes'", id="flag-yes"),
    pytest.param({2: ""}, "labeled flag must be 0 or 1, got ''", id="flag-empty"),
    pytest.param({2: " 1"}, "labeled flag must be 0 or 1, got ' 1'", id="flag-space"),
    pytest.param({2: "0"}, "unlabeled line with phonemes", id="unlabeled-with-both"),
    pytest.param({2: "0", 3: ""}, "unlabeled line with phonemes", id="unlabeled-with-durations"),
    pytest.param({2: "0", 4: ""}, "unlabeled line with phonemes", id="unlabeled-with-phonemes")])
def test_manifest_labeled_flag_is_0_or_1_and_unlabeled_fields_empty(tmp_path, tiny_corpus,
                                                                    edits, want):
    write_corpus(tmp_path / "t", tiny_corpus["train"][:2])
    manifest = tmp_path / "t" / "manifest.txt"
    lines = manifest.read_text().splitlines()
    second = lines[1].split("|")
    for field, value in edits.items():
        second[field] = value
    manifest.write_text("\n".join([lines[0], "|".join(second)]) + "\n")
    with pytest.raises(IntegrityError, match=f"manifest.txt:2: {want}"):
        load_corpus(tmp_path / "t", "train")
    assert main(["train", "--corpus", str(tmp_path / "t"),
                 "--out", str(tmp_path / "m.uspc")]) == 1


def test_manifest_repeating_an_utterance_id_is_integrity_error(trained, tiny_corpus, tmp_path,
                                                               capsys):
    """eval keys its per-utterance rows by id, so a manifest that repeats
    one is refused with the line and the id, before any feature is read."""
    path, _, _ = trained
    manifest = tiny_corpus["dir"] / "manifest_test.txt"
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join(lines + [lines[0]]) + "\n")
    uid = lines[0].split("|")[0]
    with pytest.raises(IntegrityError,
                       match=f"manifest_test.txt:{len(lines) + 1}: utterance id '{uid}' "
                             f"repeats line 1"):
        load_corpus(tiny_corpus["dir"], "test")
    assert main(["eval", "--ckpt", str(path), "--corpus", str(tiny_corpus["dir"]),
                 "--out", str(tmp_path / "e.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and uid in err and "Traceback" not in err, err
    assert not (tmp_path / "e.csv").exists()


def test_unlabeled_record_round_trip_and_vc_usable(tmp_path, tiny_corpus):
    rec = tiny_corpus["train"][0]
    unlabeled = dataclasses.replace(rec, labeled=False, phonemes=None, durations=None)
    write_corpus(tmp_path / "u", [unlabeled, tiny_corpus["train"][1]])
    loaded = load_corpus(tmp_path / "u", "train")
    got = next(r for r in loaded if r.id == rec.id)
    assert not got.labeled and got.phonemes is None and got.durations is None
    cfg = small_train_config()
    model = JointModel(cfg.model, seed=0)
    frag = vc_step([got], model, step=0)
    assert frag.mel.item() > 0.0


def test_zero_frame_utterance_rejected_with_id(tmp_path, tiny_corpus):
    empty = UtteranceRecord(id="silent", speaker_id="spk000", labeled=False,
                            mel=np.zeros((0, 80)), f0=np.zeros(0))
    with pytest.raises(IntegrityError, match="silent: utterance has 0 frames"):
        empty.validate()
    rec = tiny_corpus["train"][1]
    write_corpus(tmp_path / "z", tiny_corpus["train"][:2])
    write_matrix(tmp_path / "z" / "mel" / f"{rec.id}.f64", np.zeros((0, 80)))
    with pytest.raises(IntegrityError, match=f"{rec.id}: utterance has 0 frames"):
        load_corpus(tmp_path / "z", "train")


def test_missing_feature_file(tmp_path, tiny_corpus):
    write_corpus(tmp_path / "m", tiny_corpus["train"][:1])
    rec_id = tiny_corpus["train"][0].id
    (tmp_path / "m" / "f0" / f"{rec_id}.f64").unlink()
    with pytest.raises(DataError, match="missing feature file"):
        load_corpus(tmp_path / "m", "train")


def test_matrix_file_round_trip_and_truncation(tmp_path):
    arr = np.random.default_rng(0).standard_normal((7, 5))
    path = tmp_path / "m.f64"
    write_matrix(path, arr)
    np.testing.assert_array_equal(read_matrix(path), arr)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(IntegrityError):
        read_matrix(path)


# ---------------------------------------------------------------- checkpoint


@pytest.fixture
def trained(tiny_corpus, tmp_path):
    cfg = small_train_config(max_steps=4)
    model, opt, _ = train(cfg, tiny_corpus["train"])
    path = tmp_path / "m.uspc"
    save_checkpoint(path, model, opt, cfg, step=4)
    return path, model, cfg


def test_checkpoint_bad_magic(trained, tmp_path):
    path, _, _ = trained
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    bad = tmp_path / "bad.uspc"
    bad.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(bad)


def test_checkpoint_bad_version(trained, tmp_path):
    path, _, _ = trained
    raw = bytearray(path.read_bytes())
    raw[4:8] = (99).to_bytes(4, "little")
    bad = tmp_path / "badv.uspc"
    bad.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version 99"):
        load_checkpoint(bad)


def test_checkpoint_truncated(trained, tmp_path):
    path, _, _ = trained
    bad = tmp_path / "trunc.uspc"
    bad.write_bytes(path.read_bytes()[:-100])
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(bad)


def test_checkpoint_missing_codebook_listed(trained, tmp_path):
    path, model, cfg = trained
    ckpt = load_checkpoint(path)
    del ckpt.tensors["codebook.entries"]
    with pytest.raises(FormatError, match="codebook.entries"):
        restore_model(ckpt)


def test_checkpoint_missing_moment_listed(trained):
    path, _, _ = trained
    ckpt = load_checkpoint(path)
    del ckpt.tensors["optim.m.decoder.out.w"]
    with pytest.raises(FormatError, match="optim.m.decoder.out.w"):
        restore_model(ckpt)


def test_checkpoint_lists_every_missing_tensor(trained):
    path, _, _ = trained
    ckpt = load_checkpoint(path)
    gone = ["codebook.steps_since_use", "optim.t", "optim.v.text_encoder.embed.table"]
    for name in gone:
        del ckpt.tensors[name]
    with pytest.raises(FormatError) as err:
        restore_model(ckpt)
    assert all(name in str(err.value) for name in gone)


def test_checkpoint_wrong_shape_named(trained):
    path, _, _ = trained
    for name in ("codebook.steps_since_use", "optim.v.decoder.out.w"):
        ckpt = load_checkpoint(path)
        ckpt.tensors[name] = np.zeros(3)
        with pytest.raises(FormatError, match=f"{name} has shape"):
            restore_model(ckpt)


def test_checkpoint_tensor_the_model_does_not_read_is_format_error(trained, tiny_corpus,
                                                                   tmp_path, capsys):
    path, model, _ = trained
    old = load_checkpoint(path)  # an extra tensor: the lookup counts older checkpoints carried
    old.tensors["codebook.usage"] = np.arange(model.codebook.n_entries, dtype=np.float64)
    with pytest.raises(FormatError, match="does not read: codebook.usage$"):
        restore_model(old)
    # a config text edited after the save: one text block fewer would leave
    # every tensor of block0 unread and restore another model
    raw = path.read_bytes()
    (n,) = struct.unpack("<I", raw[8:12])
    text = raw[12:12 + n].replace(b"model.text_blocks = 1\n", b"model.text_blocks = 0\n")
    assert len(text) == n and text != raw[12:12 + n]
    edited = tmp_path / "edited.uspc"
    edited.write_bytes(raw[:12] + text + raw[12 + n:])
    with pytest.raises(FormatError) as err:
        restore_model(load_checkpoint(edited))
    unread = [name for name in model.store if name.startswith("text_encoder.block0.")]
    assert unread and all(f"{name}," in f"{err.value}," for name in unread)
    assert main(["eval", "--ckpt", str(edited), "--corpus", str(tiny_corpus["dir"]),
                 "--out", str(tmp_path / "e.csv")]) == 1
    assert "text_encoder.block0." in capsys.readouterr().err


def test_checkpoint_with_removed_pitch_bins_key_is_config_error(trained, tiny_corpus,
                                                                tmp_path, capsys):
    path, _, _ = trained
    raw = path.read_bytes()
    (n,) = struct.unpack("<I", raw[8:12])
    anchor = b"model.codebook_size = 16\n"
    assert raw[12:12 + n].count(anchor) == 1
    # keys older checkpoints carry; each is refused, none silently ignored
    for line in [b"model.n_pitch_bins = 32", b"model.fusion = additive",
                 b"checkpoint_every_epochs = 1", b"lr_init = 0.001", b"grad_clip_norm = 1.0",
                 b"w_mel = 1.0", b"w_duration = 0.1", b"w_vq = 1.0", b"vq_beta = 0.25",
                 b"plateau_delta = 0.0001", b"model.p_vocab = 64", b"model.kernel_size = 3",
                 b"model.n_mels = 80", b"w_pair = 1.0"]:
        key = line.split(b" = ")[0].removeprefix(b"model.").decode()
        text = raw[12:12 + n].replace(anchor, anchor + line + b"\n")
        old = tmp_path / "old.uspc"
        old.write_bytes(raw[:8] + struct.pack("<I", len(text)) + text + raw[12 + n:])
        with pytest.raises(ConfigError, match=key):
            restore_model(load_checkpoint(old))
        assert main(["eval", "--ckpt", str(old), "--corpus", str(tiny_corpus["dir"]),
                     "--out", str(tmp_path / "e.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err, (line, err)
        cfg_path = tmp_path / "old.cfg"
        cfg_path.write_bytes(line + b"\n")
        with pytest.raises(ConfigError, match=key):
            config_mod.load_config(cfg_path)
        assert main(["train", "--corpus", str(tiny_corpus["dir"]), "--config", str(cfg_path),
                     "--out", str(tmp_path / "m.uspc")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err, (line, err)


@pytest.mark.parametrize("dims", [(1 << 40,), (1 << 33, 1 << 33), (1 << 62, 4),
                                  (0, 1 << 62),
                                  (2 ** 64 - 1,) * 600])  # a size of 11,560 digits
def test_checkpoint_oversized_dims_are_format_error(trained, tiny_corpus, tmp_path,
                                                    dims, capsys):
    path, _, _ = trained
    raw = path.read_bytes()
    (n,) = struct.unpack("<I", raw[8:12])
    # header of the real checkpoint, then one tensor declaring `dims` and
    # holding 16 bytes
    head = raw[:12 + n] + struct.pack("<QQ", 4, 1)
    tensor = (struct.pack("<I", 1) + b"x" + struct.pack("<I", len(dims))
              + b"".join(struct.pack("<Q", d) for d in dims) + bytes(16))
    bad = tmp_path / "huge.uspc"
    bad.write_bytes(head + tensor)
    with pytest.raises(FormatError, match="tensor x"):
        load_checkpoint(bad)
    assert main(["eval", "--ckpt", str(bad), "--corpus", str(tiny_corpus["dir"]),
                 "--out", str(tmp_path / "e.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_checkpoint_starts_with_magic(trained):
    path, _, _ = trained
    assert path.read_bytes()[:4] == MAGIC


def test_checkpoint_failed_write_keeps_previous_bytes(trained, monkeypatch):
    path, model, cfg = trained
    before = path.read_bytes()
    written = []

    def fail_after_three(fh, name, array):
        if len(written) == 3:
            raise OSError("disk full")
        written.append(name)
        real_write(fh, name, array)

    real_write = checkpoint_mod._write_tensor
    monkeypatch.setattr(checkpoint_mod, "_write_tensor", fail_after_three)
    model.store["decoder.out.w"].data += 1.0
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, model, AdamState.for_params(model.store), cfg, step=5)
    assert path.read_bytes() == before
    assert sorted(p.name for p in path.parent.iterdir()
                  if p.name.startswith(path.name)) == [path.name]


# ---------------------------------------------------------------- CLI


def write_small_config(path, **kw):
    cfg = small_train_config(**kw)
    path.write_text(config_mod.to_text(cfg))
    return cfg


def test_cli_pipeline_end_to_end(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert main(["gen-data", "--seed", "3", "--speakers", "2", "--utts", "3",
                 "--labeled-frac", "1.0", "--test-speakers", "2", "--test-utts", "2",
                 "--noise", "0.0", "--out", str(corpus)]) == 0

    cfg_path = tmp_path / "train.cfg"
    write_small_config(cfg_path, max_steps=6)
    ckpt = tmp_path / "model.uspc"
    trace = tmp_path / "trace.csv"
    assert main(["train", "--corpus", str(corpus), "--config", str(cfg_path),
                 "--out", str(ckpt), "--trace", str(trace)]) == 0
    assert ckpt.exists() and trace.exists()

    out_csv = tmp_path / "eval.csv"
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(ckpt), "--corpus", str(corpus),
                 "--split", "test", "--out", str(out_csv)]) == 0
    text = out_csv.read_text()
    assert "acs_ratio" in text and "phoneme_rep_distance" in text
    # the printout is the CSV's rows over the whole split, as written
    summary = [line for line in text.splitlines() if line.split(",")[1] in ("mean", "all")]
    assert len(summary) == 14  # 5 TTS means, 2 x 3 ACS, phoneme distance, 2 agreements
    assert capsys.readouterr().out.splitlines() == [
        f"evaluated 4 utterances; summary rows of {out_csv}:"] + summary


def test_cli_synth_tts_with_unseen_reference(tmp_path):
    corpus = tmp_path / "corpus"
    main(["gen-data", "--seed", "4", "--speakers", "2", "--utts", "3",
          "--test-speakers", "2", "--test-utts", "2", "--out", str(corpus)])
    cfg_path = tmp_path / "t.cfg"
    write_small_config(cfg_path, max_steps=3)
    ckpt = tmp_path / "m.uspc"
    main(["train", "--corpus", str(corpus), "--config", str(cfg_path),
          "--out", str(ckpt)])

    test_recs = load_corpus(corpus, "test")
    unseen_ref = test_recs[0].id  # speaker never in the training split
    out_mel = tmp_path / "out.f64"
    assert main(["synth-tts", "--ckpt", str(ckpt), "--corpus", str(corpus),
                 "--text", "1,2,3,4", "--ref-speaker", unseen_ref,
                 "--out", str(out_mel)]) == 0
    mel = read_matrix(out_mel)
    assert mel.shape[1] == 80

    out_vc = tmp_path / "vc.f64"
    train_recs = load_corpus(corpus, "train")
    assert main(["convert-vc", "--ckpt", str(ckpt), "--corpus", str(corpus),
                 "--source", train_recs[0].id, "--ref-speaker", unseen_ref,
                 "--out", str(out_vc)]) == 0
    assert read_matrix(out_vc).shape == (train_recs[0].n_frames, 80)


def test_cli_missing_test_feature_file_is_named(trained, tiny_corpus, tmp_path, capsys):
    path, _, _ = trained
    intact, damaged = tiny_corpus["test"][0], tiny_corpus["test"][1]
    missing = tiny_corpus["dir"] / "f0" / f"{damaged.id}.f64"
    missing.unlink()
    assert main(["synth-tts", "--ckpt", str(path), "--corpus", str(tiny_corpus["dir"]),
                 "--text", "1,2,3", "--ref-speaker", intact.id,
                 "--out", str(tmp_path / "o.f64")]) == 1
    err = capsys.readouterr().err
    assert str(missing) in err and "not found in corpus split" not in err


@pytest.mark.parametrize("manifest", ["absent", "empty"])
def test_cli_corpus_without_test_split_resolves_train_references(trained, tiny_corpus,
                                                                 tmp_path, manifest):
    path, _, _ = trained
    test_manifest = tiny_corpus["dir"] / "manifest_test.txt"
    if manifest == "absent":
        test_manifest.unlink()
    else:
        test_manifest.write_text("")
    train_recs = tiny_corpus["train"]
    assert main(["synth-tts", "--ckpt", str(path), "--corpus", str(tiny_corpus["dir"]),
                 "--text", "1,2,3", "--ref-speaker", train_recs[0].id,
                 "--out", str(tmp_path / "o.f64")]) == 0
    assert main(["convert-vc", "--ckpt", str(path), "--corpus", str(tiny_corpus["dir"]),
                 "--source", train_recs[1].id, "--ref-speaker", train_recs[0].id,
                 "--out", str(tmp_path / "v.f64")]) == 0


@pytest.mark.parametrize("text", ["1,999", "a,b", "1,99999999999999999999"])
def test_cli_synth_tts_bad_phoneme_ids_exit_1(trained, tiny_corpus, tmp_path, capsys, text):
    path, _, _ = trained
    assert main(["synth-tts", "--ckpt", str(path), "--corpus", str(tiny_corpus["dir"]),
                 "--text", text, "--ref-speaker", tiny_corpus["train"][0].id,
                 "--out", str(tmp_path / "o.f64")]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_train_phoneme_outside_vocabulary_exits_1(tmp_path, capsys):
    # a corpus drawn from 16 phonemes more than the model's vocabulary
    gen_corpus(tmp_path / "corpus", seed=0,
               spec=CorpusSpec(n_speakers=2, utts_per_speaker=2, n_test_speakers=0,
                               p_vocab=N_PHONEMES + 16, min_phonemes=8, max_phonemes=10))
    cfg_path = tmp_path / "t.cfg"
    write_small_config(cfg_path, max_steps=1)
    assert main(["train", "--corpus", str(tmp_path / "corpus"), "--config", str(cfg_path),
                 "--out", str(tmp_path / "m.uspc")]) == 1
    assert f"outside vocabulary of {N_PHONEMES}" in capsys.readouterr().err


def test_cli_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_cli_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--wat", "1", "--out", "x"])
    assert exc.value.code == 2


def test_cli_bad_config_value_exits_1(tmp_path, capsys):
    cfg_path = tmp_path / "t.cfg"
    # each text fails as a ConfigError naming its key, before any division
    for line, want in [("max_steps = ten", "line 1: max_steps"),
                       ("model.n_heads = 0", "model.n_heads"),
                       ("model.d_model = 0", "model.d_model"),
                       ("model.text_blocks = -1", "model.text_blocks"),
                       ("batch_unpaired = 0", "batch_unpaired"),
                       ("batch_paired = 0", "batch_paired"),
                       ("w_pitch = -0.5", "w_pitch"),
                       ("w_pitch = nan", "w_pitch"),
                       ("w_pitch = inf", "w_pitch"),
                       ("max_steps = -3", "max_steps"),
                       ("dead_code_steps = 0", "dead_code_steps"),
                       ("dead_code_steps = -1", "dead_code_steps"),
                       ("plateau_epochs = 0", "plateau_epochs"),
                       ("model = x", "model"),
                       ("seed = -1", "seed"),
                       ("seed = 18446744073709551616", "seed"),
                       ("mode = full\nmode = vc-only",
                        "line 2: mode is set again, first at line 1"),
                       ("model.dropout = 0.1\n# d\n model.dropout=0.2",
                        "line 3: model.dropout is set again, first at line 1")]:
        cfg_path.write_text(line + "\n")
        assert main(["train", "--corpus", str(tmp_path), "--config", str(cfg_path),
                     "--out", str(tmp_path / "m.uspc")]) == 1, line
        err = capsys.readouterr().err
        assert err.startswith("error:") and want in err, (line, err)
    for flags, want in [(["--seed", "-1"], "seed"),
                        (["--speakers", "3", "--test-speakers", "-1"], "n_test_speakers"),
                        (["--test-utts", "0"], "test_utts_per_speaker"),
                        (["--test-utts", "-2"], "test_utts_per_speaker"),
                        (["--noise", "-0.5"], "noise"),
                        (["--noise", "nan"], "noise")]:
        assert main(["gen-data", *flags, "--out", str(tmp_path / "c")]) == 1, flags
        err = capsys.readouterr().err
        assert err.startswith(f"error: {want}"), (flags, err)
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("target, error", [("config file", ConfigError),
                                           ("checkpoint config", FormatError),
                                           ("checkpoint tensor name", FormatError),
                                           ("manifest", IntegrityError),
                                           ("test manifest", IntegrityError)])
def test_cli_non_utf8_input_exits_1(trained, tiny_corpus, tmp_path, capsys, target, error):
    path, _, _ = trained
    corpus = str(tiny_corpus["dir"])
    cfg_path = tmp_path / "t.cfg"
    write_small_config(cfg_path, max_steps=1)
    (cfg_len,) = struct.unpack("<I", path.read_bytes()[8:12])
    eval_argv = ["eval", "--ckpt", str(path), "--corpus", corpus, "--split", "train",
                 "--out", str(tmp_path / "o.csv")]
    # the file, the offset of the byte made 0xFF (never valid UTF-8), the
    # command that reads it and the loader that raises `error`
    file, offset, argv, load = {
        "config file": (cfg_path, 0, ["train", "--corpus", corpus, "--config", str(cfg_path),
                                      "--out", str(tmp_path / "m.uspc")],
                        lambda: config_mod.load_config(cfg_path)),
        "checkpoint config": (path, 12, eval_argv, lambda: load_checkpoint(path)),
        "checkpoint tensor name": (path, 12 + cfg_len + 8 + 8 + 4, eval_argv,
                                   lambda: load_checkpoint(path)),
        "manifest": (tiny_corpus["dir"] / "manifest.txt", 0, eval_argv,
                     lambda: load_corpus(corpus, "train")),
        "test manifest": (tiny_corpus["dir"] / "manifest_test.txt", 0,
                          ["synth-tts", "--ckpt", str(path), "--corpus", corpus,
                           "--text", "1,2,3", "--ref-speaker", tiny_corpus["train"][0].id,
                           "--out", str(tmp_path / "o.f64")],
                          lambda: cli_mod._load_all_splits(corpus)),
    }[target]
    raw = bytearray(file.read_bytes())
    raw[offset] = 0xFF
    file.write_bytes(bytes(raw))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not UTF-8" in err and "Traceback" not in err, err
    with pytest.raises(error, match="not UTF-8"):
        load()


def test_cli_runtime_failure_exits_1(tmp_path, capsys):
    missing = tmp_path / "nope.uspc"
    assert main(["eval", "--ckpt", str(missing),
                 "--corpus", str(tmp_path), "--out", str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(missing) in err


def test_cli_seed_flag_alone_picks_the_corpus(tmp_path, monkeypatch):
    def gen_data(seed, out):
        assert main(["gen-data", "--seed", str(seed), "--speakers", "2", "--utts", "2",
                     "--test-speakers", "0", "--out", str(out)]) == 0

    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    gen_data(1, a)
    gen_data(999, b)
    monkeypatch.setenv("USPC_SEED", "1")
    gen_data(999, c)
    assert (b / "manifest.txt").read_bytes() == (c / "manifest.txt").read_bytes()
    ra, rb, rc = (load_corpus(d, "train") for d in (a, b, c))
    assert np.array_equal(rb[0].mel, rc[0].mel)
    assert not np.array_equal(ra[0].mel, rb[0].mel)


def test_cli_repeat_invocation_bitwise_outputs(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    argv = ["gen-data", "--seed", "7", "--speakers", "2", "--utts", "2",
            "--test-speakers", "0", "--noise", "0.02"]
    main(argv + ["--out", str(out1)])
    main(argv + ["--out", str(out2)])
    for sub in ("manifest.txt",):
        assert (out1 / sub).read_bytes() == (out2 / sub).read_bytes()
    ra = load_corpus(out1, "train")
    rb = load_corpus(out2, "train")
    for x, y in zip(ra, rb):
        assert np.array_equal(x.mel, y.mel) and np.array_equal(x.f0, y.f0)
