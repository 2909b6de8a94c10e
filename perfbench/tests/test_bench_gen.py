"""The input generator: same seed, same bytes; the inputs have the promised shape."""

import filecmp
import wave

import pytest

import gen


def _same_tree(a, b) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_bytes(tmp_path, workload):
    gen.generate(workload, 7, tmp_path / "a")
    gen.generate(workload, 7, tmp_path / "b")
    gen.generate(workload, 8, tmp_path / "c")
    assert _same_tree(tmp_path / "a", tmp_path / "b")
    assert not _same_tree(tmp_path / "a", tmp_path / "c")


@pytest.mark.parametrize("workload", ["dense_pair", "sparse_pair"])
def test_stems_are_stereo_int16_at_44k1(tmp_path, workload):
    manifest = gen.generate(workload, 1, tmp_path)
    for side in ("original", "transformed"):
        with wave.open(str(tmp_path / manifest["files"][f"{side}_stem"])) as fh:
            assert (fh.getnchannels(), fh.getsampwidth(), fh.getframerate()) == (2, 2, 44100)
            assert fh.getnframes() == gen.SECONDS[workload] * 44100
    assert ("sections" in manifest["files"]) == (workload == "sparse_pair")


def test_sparse_layout_is_thirty_percent_voiced():
    layout = gen._sparse_layout(gen._rng("sparse_pair", 3), 120.0)
    assert sum(b - a for a, b in layout) == pytest.approx(0.3 * 120.0)
    assert layout[0][0] >= gen.LEAD_IN_S
    assert all(b1 < a2 for (_, b1), (a2, _) in zip(layout, layout[1:]))
    assert layout[-1][1] < 120.0


def test_corpus_repeats_choruses_and_holds_lexicon_words(tmp_path):
    manifest = gen.generate("lyrics_cold_http", 2, tmp_path)
    songs = [(tmp_path / n).read_text(encoding="utf-8") for n in manifest["files"]["songs"]]
    assert len(songs) == gen.SONGS_IN_CORPUS
    for text in songs:
        blocks = text.split("\n\n")
        choruses = [b for b in blocks if b.startswith("[Chorus]")]
        assert len(choruses) == 3 and len(set(choruses)) == 1
    words = {w.strip(",!").lower() for text in songs for w in text.split()}
    assert words & gen.LEXICON_SWAPS.keys()
    assert any(gen.clean_version(t) != t for t in songs)
