"""The text and matrix parsers under mutated input: every manifest with an
edited field or feature path, every config text and every matrix file
either loads or raises a UspcError."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uspc import config as config_mod
from uspc.corpus import CorpusSpec, gen_corpus, load_corpus, read_matrix
from uspc.encoders import expansion_map
from uspc.errors import DataError, UspcError

PAST_INT64 = [2 ** 63, 2 ** 64, -(2 ** 63) - 1, 10 ** 30]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A two-speaker corpus, its manifest lines and its directory."""
    spec = CorpusSpec(n_speakers=2, utts_per_speaker=2, n_test_speakers=0, noise=0.0,
                      p_vocab=8, min_phonemes=3, max_phonemes=4, max_duration=3)
    out = tmp_path_factory.mktemp("fuzz") / "c"
    gen_corpus(out, seed=2, spec=spec)
    return out, (out / "manifest.txt").read_text().splitlines()


def _id_lists():
    """Comma-separated integer lists, some past int64, some with edits."""
    ints = st.one_of(st.integers(-3, 40), st.sampled_from(PAST_INT64),
                     st.integers(-(2 ** 63), 2 ** 63 - 1))
    lists = st.lists(ints, min_size=0, max_size=6).map(lambda v: ",".join(map(str, v)))
    return st.one_of(lists, lists.map(lambda s: s + ","), lists.map(lambda s: " " + s),
                     st.text(max_size=8))


def _feature_paths(lines):
    """Relative paths: another record's feature file, a directory, the
    manifest itself, a missing file, a name too long, or any text."""
    others = sorted({p for line in lines for p in line.split("|")[5:]})
    return st.one_of(st.sampled_from(others + ["mel", "f0/", ".", "", "manifest.txt",
                                               "mel/none.f64", "a" * 300, "../c/mel",
                                               "mel/\x00.f64"]),
                     st.text(max_size=12))


def _loads_or_raises(corpus_dir, manifest_text: str) -> None:
    (corpus_dir / "manifest.txt").write_bytes(manifest_text.encode("utf-8", "surrogatepass"))
    try:
        records = load_corpus(corpus_dir, "train")
    except UspcError:
        return
    for rec in records:
        rec.validate()
        if rec.labeled:  # what `evaluate()` first does with durations
            assert expansion_map(rec.durations).size == rec.n_frames


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_manifest_with_an_edited_field_loads_or_raises(corpus, data):
    corpus_dir, lines = corpus
    row = data.draw(st.integers(0, len(lines) - 1))
    fields = lines[row].split("|")
    at = data.draw(st.integers(0, len(fields) - 1))
    fields[at] = data.draw({3: _id_lists(), 4: _id_lists(),
                            5: _feature_paths(lines), 6: _feature_paths(lines)}
                           .get(at, st.text(max_size=8)))
    edited = lines[:row] + ["|".join(fields)] + lines[row + 1:]
    _loads_or_raises(corpus_dir, "\n".join(edited) + "\n")


@pytest.mark.parametrize("path", ["mel", "a" * 300])
def test_manifest_feature_path_that_is_no_file_is_data_error(corpus, path):
    corpus_dir, lines = corpus
    fields = lines[0].split("|")
    fields[5] = path
    (corpus_dir / "manifest.txt").write_text("\n".join(["|".join(fields)] + lines[1:]))
    with pytest.raises(DataError, match="missing feature file"):
        load_corpus(corpus_dir, "train")


def _config_values():
    return st.one_of(st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e999", "0x10",
                                      "1_0", "9" * 5000, "", "full", "novq", "2.5"]),
                     st.integers().map(str), st.floats().map(repr), st.text(max_size=10))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_config_text_loads_or_raises(data):
    lines = config_mod.to_text(config_mod.TrainConfig()).splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(lines) - 1))
        key = lines[i].partition("=")[0]
        lines[i] = data.draw(st.one_of(_config_values().map(lambda v: key + "= " + v),
                                       st.text(max_size=20)))
    try:
        cfg = config_mod.from_text("\n".join(lines))
    except UspcError:
        return
    assert config_mod.from_text(config_mod.to_text(cfg)) == cfg


@given(st.binary(max_size=64))
@settings(max_examples=100, deadline=None)
def test_arbitrary_matrix_bytes_load_or_raise(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "arbitrary.f64"
    path.write_bytes(raw)
    try:
        arr = read_matrix(path)
    except UspcError:
        return
    assert arr.nbytes == len(raw) - 8


@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1), st.integers(0, 40))
@settings(max_examples=100, deadline=None)
def test_matrix_with_an_edited_header_loads_or_raises(tmp_path_factory, rows, cols, n):
    path = tmp_path_factory.getbasetemp() / "header.f64"
    path.write_bytes(struct.pack("<II", rows, cols) + np.arange(n, dtype="<f8").tobytes())
    try:
        arr = read_matrix(path)
    except UspcError:
        assert rows * cols != n
        return
    assert arr.shape == (rows, cols) and arr.tobytes() == np.arange(n, dtype="<f8").tobytes()
