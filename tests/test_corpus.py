import json
import random

import pytest

from qembed.corpus import (
    Corpus,
    CorpusError,
    Document,
    content_id,
    exact_dedup,
    ingest,
    load_corpus,
    save_corpus,
    split_heldout,
)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_ingest_plain_lines_drops_blank_lines(tmp_path):
    f = tmp_path / "docs.txt"
    f.write_text("alpha\n\n   \nbeta\ngamma\n", encoding="utf-8")
    corpus = ingest(f, format="plain-lines")
    assert corpus.texts() == ["alpha", "beta", "gamma"]
    assert len(set(corpus.ids())) == 3


def test_ingest_ids_are_content_hashes_with_dup_suffix(tmp_path):
    f = tmp_path / "docs.txt"
    write_lines(f, ["same", "same", "other", "same"])
    corpus = ingest(f, format="plain-lines")
    base = content_id("same")
    assert corpus.ids() == [base, f"{base}-1", content_id("other"), f"{base}-2"]


def test_ingest_json_lines_explicit_ids_and_sources(tmp_path):
    f = tmp_path / "docs.jsonl"
    write_lines(f, [
        json.dumps({"id": "a", "text": "first", "source": "s1"}),
        json.dumps({"text": "second"}),
    ])
    corpus = ingest(f, format="json-lines")
    assert corpus.documents[0] == Document(id="a", text="first", source="s1")
    assert corpus.documents[1].id == content_id("second")


def test_ingest_duplicate_explicit_id_is_an_error(tmp_path):
    f = tmp_path / "docs.jsonl"
    write_lines(f, [
        json.dumps({"id": "x", "text": "one"}),
        json.dumps({"id": "x", "text": "two"}),
    ])
    with pytest.raises(CorpusError, match="'x'"):
        ingest(f, format="json-lines")


def test_ingest_skips_malformed_json_with_count(tmp_path):
    f = tmp_path / "docs.jsonl"
    write_lines(f, ["{not json", json.dumps({"text": "fine"}), json.dumps({"no_text": 1})])
    corpus = ingest(f, format="json-lines")
    assert corpus.texts() == ["fine"]
    assert corpus.skipped_records == 2


def test_ingest_plain_lines_invalid_utf8_names_the_file(tmp_path):
    f = tmp_path / "docs.txt"
    f.write_bytes(b"alpha\n\xff\xfe beta\n")
    with pytest.raises(CorpusError, match="docs.txt.*not valid UTF-8"):
        ingest(f, format="plain-lines")


def test_exact_dedup_matches_brute_force_set_oracle(tmp_path):
    # 100 documents over a 95-text vocabulary: 5 planted duplicates.
    rng = random.Random(13)
    uniques = [f"document number {i} about topic {i % 7}" for i in range(95)]
    docs = uniques + [uniques[i] for i in (3, 17, 17, 50, 94)]
    rng.shuffle(docs)
    f = tmp_path / "docs.txt"
    write_lines(f, docs)
    corpus = exact_dedup(ingest(f, format="plain-lines"))
    assert len(corpus) == 95
    assert sorted(corpus.texts()) == sorted(set(docs))
    # First occurrence is the survivor.
    first_index = {}
    for i, t in enumerate(docs):
        first_index.setdefault(t, i)
    expected_order = [t for _, t in sorted((first_index[t], t) for t in set(docs))]
    assert corpus.texts() == expected_order


def test_split_heldout_is_deterministic_and_sized(tmp_path):
    docs = [Document(id=f"d{i}", text=f"text {i}") for i in range(200)]
    corpus = Corpus(documents=docs)
    split_a = split_heldout(corpus, 0.1, seed=5)
    split_b = split_heldout(corpus, 0.1, seed=5)
    assert split_a == split_b
    assert len(split_a.heldout_ids) == 20
    assert split_a.train_ids | split_a.heldout_ids == frozenset(corpus.ids())
    assert not split_a.train_ids & split_a.heldout_ids
    # A different seed moves documents.
    split_c = split_heldout(corpus, 0.1, seed=6)
    assert split_c.heldout_ids != split_a.heldout_ids


def test_split_heldout_rounds_to_nearest():
    docs = [Document(id=f"d{i}", text=str(i)) for i in range(15)]
    split = split_heldout(Corpus(documents=docs), 0.1, seed=0)
    assert len(split.heldout_ids) == round(15 * 0.1) == 2


def test_split_heldout_rejects_bad_fraction():
    corpus = Corpus(documents=[Document(id="a", text="a")])
    with pytest.raises(CorpusError):
        split_heldout(corpus, 0.0, seed=1)
    with pytest.raises(CorpusError):
        split_heldout(corpus, 1.0, seed=1)


def test_save_load_roundtrip(tmp_path):
    docs = [Document(id="a", text="first doc", source="x"), Document(id="b", text="second")]
    path = tmp_path / "corpus.jsonl"
    save_corpus(Corpus(documents=docs), path)
    loaded = load_corpus(path)
    assert loaded.documents == docs
