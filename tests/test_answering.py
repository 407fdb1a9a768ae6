import numpy as np
import pytest

from qembed.answering import CollectionResult, collect_answers, split_examples
from qembed.cluster import ClusterModel
from qembed.config import CollectionSection
from qembed.heads import TrainingExample
from qembed.providers import AnswerCache
from qembed.question_gen import BankQuestion, QuestionBank


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def pools(in_cluster, neighbor, neighbor_clusters, random):
    return CollectionSection(in_cluster=in_cluster, neighbor=neighbor,
                             neighbor_clusters=neighbor_clusters, random=random)


def make_model(sizes, positions):
    centroids = np.array([[p, 0.0] for p in positions])
    doc_ids, labels = [], []
    for c, size in enumerate(sizes):
        for i in range(size):
            doc_ids.append(f"c{c}d{i}")
            labels.append(c)
    return ClusterModel(centroids=centroids, doc_ids=doc_ids,
                        labels=np.asarray(labels, dtype=np.int64), seed=0, inertia=0.0)


def make_bank(question_clusters):
    questions = [BankQuestion(id=i, text=f"Is it about thing {i}?", origin_cluster=c,
                              quality=0.5, embedding=np.zeros(4))
                 for i, c in enumerate(question_clusters)]
    return QuestionBank(questions=questions, theta=0.8, t=4, encoder_fingerprint="x")


class YesLLM:
    """Answers yes to everything; surplus numbers are ignored by the parser."""

    def __init__(self):
        self.prompts = []

    def complete(self, prompt):
        self.prompts.append(prompt)
        return "\n".join(f"{i}. yes" for i in range(1, 21))


class TestCollectAnswers:
    def test_single_question_desk_pools_give_ten_records(self, tmp_path, opened):
        model = make_model(sizes=[6, 4, 4, 10], positions=[0.0, 1.0, 1.1, 9.0])
        bank = make_bank([0])
        texts = {d: f"text {d}" for d in model.doc_ids}
        cache = opened(AnswerCache(tmp_path / "a.jsonl"))
        result = collect_answers(bank, model, texts, YesLLM(), cache, rng(1),
                                 pools(5, 3, 2, 2))
        assert result.requested_pairs == 10
        assert sum(len(ex.answers) for ex in result.examples) == 10
        assert len(cache) == 10

    def test_twenty_five_questions_one_text_makes_two_prompts(self, tmp_path, opened):
        # one document, 25 questions -> chunks of 20 and 5
        model = make_model(sizes=[1], positions=[0.0])
        bank = make_bank([0] * 25)
        texts = {"c0d0": "the only text"}
        cache = opened(AnswerCache(tmp_path / "a.jsonl"))
        llm = YesLLM()
        result = collect_answers(bank, model, texts, llm, cache, rng(0),
                                 pools(1, 0, 0, 0))
        assert result.llm_calls == 2
        assert "20. Is it about thing" in llm.prompts[0]
        assert "5. Is it about thing" in llm.prompts[1]
        assert "6. Is it about thing" not in llm.prompts[1]
        assert result.requested_pairs == 25

    def test_scripted_yes_no_parse(self, tmp_path, opened):
        model = make_model(sizes=[1], positions=[0.0])
        bank = make_bank([0, 0])
        texts = {"c0d0": "text"}

        class FixedLLM:
            def complete(self, prompt):
                return "1. yes\n2. no"

        cache = opened(AnswerCache(tmp_path / "a.jsonl"))
        result = collect_answers(bank, model, texts, FixedLLM(), cache, rng(0),
                                 pools(1, 0, 0, 0))
        ex = result.examples[0]
        assert ex.answers == {0: 1, 1: 0}

    def test_rerun_hits_cache_without_llm_calls(self, tmp_path, opened):
        model = make_model(sizes=[3, 3, 4], positions=[0.0, 1.0, 5.0])
        bank = make_bank([0, 1])
        texts = {d: f"text {d}" for d in model.doc_ids}
        cache_path = tmp_path / "a.jsonl"
        first = collect_answers(bank, model, texts, YesLLM(), opened(AnswerCache(cache_path)),
                                rng(3), pools(2, 2, 1, 1))
        assert first.llm_calls > 0
        second = collect_answers(bank, model, texts, YesLLM(), opened(AnswerCache(cache_path)),
                                 rng(3), pools(2, 2, 1, 1))
        assert second.llm_calls == 0
        assert second.cache_hits == second.requested_pairs
        assert [ex.answers for ex in second.examples] == [ex.answers for ex in first.examples]

    def test_unparsed_lines_counted_and_default_no(self, tmp_path, opened):
        model = make_model(sizes=[1], positions=[0.0])
        bank = make_bank([0, 0, 0])
        texts = {"c0d0": "text"}

        class PartialLLM:
            def complete(self, prompt):
                return "1. yes"  # answers 2 and 3 missing

        result = collect_answers(bank, model, texts, PartialLLM(),
                                 opened(AnswerCache(tmp_path / "a.jsonl")), rng(0),
                                 pools(1, 0, 0, 0))
        assert result.unparsed == 2
        assert result.examples[0].answers == {0: 1, 1: 0, 2: 0}

    def test_same_seed_same_requests(self, tmp_path, opened):
        model = make_model(sizes=[5, 5, 5], positions=[0.0, 1.0, 2.0])
        bank = make_bank([0, 1, 2])
        texts = {d: f"text {d}" for d in model.doc_ids}
        a, b = (collect_answers(bank, model, texts, YesLLM(), opened(AnswerCache(tmp_path / name)),
                                rng(9), pools(2, 2, 1, 1)) for name in ("a.jsonl", "b.jsonl"))
        assert [(ex.document_id, ex.answers) for ex in a.examples] == \
               [(ex.document_id, ex.answers) for ex in b.examples]

    def test_empty_bank_rejected(self, tmp_path, opened):
        bank = QuestionBank(questions=[], theta=0.8, t=4, encoder_fingerprint="x")
        with pytest.raises(ValueError):
            collect_answers(bank, None, {"d": "t"}, YesLLM(),
                            opened(AnswerCache(tmp_path / "a.jsonl")), rng(0),
                            CollectionSection())


def test_split_examples_partitions_by_document():
    examples = [TrainingExample(f"d{i}", {0: 1}) for i in range(6)]
    train, heldout = split_examples(examples, heldout_ids=frozenset({"d1", "d4"}))
    assert [ex.document_id for ex in train] == ["d0", "d2", "d3", "d5"]
    assert [ex.document_id for ex in heldout] == ["d1", "d4"]
