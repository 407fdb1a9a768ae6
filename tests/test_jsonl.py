"""The json-lines reader, writer and append-only store shared by every artifact."""

import logging

import numpy as np
import pytest

from qembed import jsonl
from qembed.cluster import ClusterModel, load_cluster_model, save_cluster_model
from qembed.corpus import Corpus, Document, load_corpus, save_corpus
from qembed.jsonl import CorruptFileError
from qembed.providers import AnswerCache, PromptCacheStore


def test_reader_names_file_and_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"a": 1}\n\n{"a": 2}\n{"a": \n{"a": 4}\n')
    rows = jsonl.read(path)
    assert [next(rows), next(rows)] == [{"a": 1}, {"a": 2}]
    with pytest.raises(CorruptFileError, match=r"rows\.jsonl:4: JSONDecodeError"):
        next(rows)


@pytest.mark.parametrize("line", [b"[1, 2]", b'"text"', b'{"a": 1', b"\xff\xfe{}"])
def test_reader_rejects_non_objects_and_bad_bytes(tmp_path, line):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"a": 1}\n' + line + b"\n")
    with pytest.raises(CorruptFileError, match=r"rows\.jsonl:2"):
        list(jsonl.read(path))


def test_convert_errors_name_the_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"id": 1}\n{"name": 2}\n')
    with pytest.raises(CorruptFileError, match=r"rows\.jsonl:2: KeyError: 'id'"):
        list(jsonl.read(path, lambda rec: rec["id"]))


def test_lines_split_only_on_newline(tmp_path):
    # U+2028 and U+0085 end a line for str.splitlines, and ensure_ascii=False
    # writes them raw; a json-lines line ends at "\n" only
    docs = [Document(id="a", text="one\u2028two\x85three"), Document(id="b", text="four")]
    save_corpus(Corpus(documents=docs), tmp_path / "corpus.jsonl")
    assert load_corpus(tmp_path / "corpus.jsonl").documents == docs


def test_failed_write_leaves_previous_file_and_no_temporary(tmp_path):
    path = tmp_path / "rows.jsonl"
    jsonl.write(path, [{"a": 1}])
    before = path.read_bytes()

    def rows():
        yield {"a": 2}
        yield {"a": 3}
        raise RuntimeError("killed mid-write")

    with pytest.raises(RuntimeError, match="killed"):
        jsonl.write(path, rows())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["rows.jsonl"]
    with pytest.raises(RuntimeError), jsonl.replacing(tmp_path / "model.bin", "wb") as fh:
        fh.write(b"\x00" * 64)
        raise RuntimeError("killed mid-write")
    assert [p.name for p in tmp_path.iterdir()] == ["rows.jsonl"]


def _answer(i):
    """One LLM call's put: two answers about one document."""
    return f"doc-é{i}", [(f"Is it café {i}?", i % 2), (f"Naïve {i}?", 1 - i % 2)]


def _answer_entries(i):
    doc, answers = _answer(i)
    return {(question, doc): answer for question, answer in answers}


@pytest.mark.parametrize("kind", ["answers", "prompts"])
def test_torn_final_record_is_dropped_at_every_offset(tmp_path, kind, caplog, opened):
    """A kill mid-append leaves a final record cut at any byte: the store keeps
    every complete record, and the next put lands on a line of its own."""
    path = tmp_path / f"{kind}.jsonl"
    if kind == "answers":
        new, reload = _answer(99), AnswerCache
        with reload(path) as store:
            for i in range(3):
                store.put(*_answer(i))
        expected = [_answer_entries(i) for i in (0, 1, 2, 99)]
    else:
        new, reload = ("fp99", "réponse"), PromptCacheStore
        with reload(path) as store:
            for i in range(3):
                store.put(f"fp{i}", f"1. oui, café {i}")
        expected = [{f"fp{i}": f"1. oui, café {i}"} for i in (0, 1, 2)] + [{"fp99": "réponse"}]
    blob = path.read_bytes()
    last = blob.rindex(b"\n", 0, len(blob) - 1) + 1
    for cut in range(last, len(blob)):
        path.write_bytes(blob[:cut])
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            store = opened(reload(path))
        complete = cut == len(blob) - 1  # only the final newline is lost
        torn = last < cut < len(blob) - 1
        assert ("dropped 1 torn final record" in caplog.text) == torn
        assert (f"{kind}.jsonl" in caplog.text) == torn
        store.put(*new)
        want = {key: value for i, entries in enumerate(expected) if complete or i != 2
                for key, value in entries.items()}
        assert opened(reload(path)).entries == want, cut


def test_bad_record_before_the_end_is_fatal(tmp_path):
    path = tmp_path / "answers.jsonl"
    with AnswerCache(path) as cache:
        for i in range(3):
            cache.put(*_answer(i))
    lines = path.read_bytes().split(b"\n")
    path.write_bytes(b"\n".join([lines[0][:-5]] + lines[1:]))
    with pytest.raises(CorruptFileError, match=r"answers\.jsonl:1"):
        AnswerCache(path)
    path.write_bytes(b'{"document_id": "d"}\n' + b"\n".join(lines[1:]))
    with pytest.raises(CorruptFileError, match=r"answers\.jsonl:1: KeyError"):
        AnswerCache(path)


def test_corrupt_cluster_model_names_the_file_at_every_offset(tmp_path):
    path = tmp_path / "cluster.model"
    model = ClusterModel(centroids=np.arange(6, dtype=np.float64).reshape(2, 3),
                         doc_ids=["a", "b", "c"], labels=np.array([0, 1, 1]),
                         seed=1, inertia=0.5, iterations=3)
    save_cluster_model(model, path)
    blob = path.read_bytes()
    loaded = load_cluster_model(path)
    assert loaded.doc_ids == model.doc_ids
    np.testing.assert_array_equal(loaded.labels, model.labels)
    for cut in range(len(blob) - 1):  # the last byte is the final newline
        path.write_bytes(blob[:cut])
        with pytest.raises(CorruptFileError, match="cluster.model"):
            load_cluster_model(path)
