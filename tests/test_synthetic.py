import numpy as np

from qembed.prompts import (
    parse_answers,
    parse_questions,
    render_answer_prompt,
    render_contrastive_prompt,
    render_example_based_prompt,
)
from qembed.synthetic import (
    TOPIC_QUESTIONS,
    TOPIC_VOCAB,
    TOPICS,
    TopicOracleLLM,
    synthetic_clustering_task,
    synthetic_corpus,
    synthetic_retrieval_task,
    synthetic_sts_task,
    text_topic,
)


class TestCorpusGeneration:
    def test_topic_balance_and_size(self):
        corpus = synthetic_corpus(n_per_topic=50, seed=0)
        assert len(corpus) == 200
        by_topic = {}
        for d in corpus:
            by_topic[d.source] = by_topic.get(d.source, 0) + 1
        assert by_topic == {t: 50 for t in TOPICS}

    def test_deterministic(self):
        a = synthetic_corpus(n_per_topic=10, seed=3)
        b = synthetic_corpus(n_per_topic=10, seed=3)
        assert a.texts() == b.texts()
        assert a.ids() == b.ids()

    def test_vocabularies_disjoint(self):
        seen = {}
        for topic, words in TOPIC_VOCAB.items():
            for w in words:
                assert w not in seen, f"{w} in both {topic} and {seen.get(w)}"
                seen[w] = topic

    def test_every_doc_detects_its_own_topic(self):
        corpus = synthetic_corpus(n_per_topic=25, seed=1)
        for d in corpus:
            assert text_topic(d.text) == d.source

    def test_topic_of_off_vocabulary_text(self):
        assert text_topic("completely unrelated words here") is None


class TestTasks:
    def test_sts_gold_is_topic_overlap(self):
        corpus = synthetic_corpus(n_per_topic=10, seed=0)
        task = synthetic_sts_task(corpus, n_pairs=40, seed=1)
        assert len(task.pairs) == 40
        for p in task.pairs:
            same = text_topic(p.text_a) == text_topic(p.text_b)
            assert p.score == (1.0 if same else 0.0)

    def test_sts_pairs_distinct_and_deterministic(self):
        corpus = synthetic_corpus(n_per_topic=10, seed=0)
        a = synthetic_sts_task(corpus, n_pairs=30, seed=5)
        b = synthetic_sts_task(corpus, n_pairs=30, seed=5)
        assert a == b
        keys = {(p.text_a, p.text_b) for p in a.pairs}
        assert len(keys) == 30

    def test_retrieval_relevance_by_topic(self):
        corpus = synthetic_corpus(n_per_topic=5, seed=0)
        task = synthetic_retrieval_task(corpus, queries_per_topic=2, seed=2)
        assert len(task.queries) == 8
        by_id = {d.id: d for d in corpus}
        for qid, rels in task.qrels.items():
            topic = qid.split("-")[1]
            assert len(rels) == 5
            for did in rels:
                assert by_id[did].source == topic

    def test_clustering_task_aligned(self):
        corpus = synthetic_corpus(n_per_topic=5, seed=0)
        task = synthetic_clustering_task(corpus)
        assert len(task.texts) == len(task.labels) == 20
        assert task.labels[0] == corpus.documents[0].source


class TestOracle:
    def test_answers_follow_topic_rule(self):
        corpus = synthetic_corpus(n_per_topic=2, seed=0)
        doc = corpus.documents[0]
        questions = [TOPIC_QUESTIONS[doc.source][0], TOPIC_QUESTIONS[doc.source][3],
                     TOPIC_QUESTIONS[TOPICS[(TOPICS.index(doc.source) + 1) % 4]][0]]
        prompt = render_answer_prompt(doc.text, questions)
        raw = TopicOracleLLM().complete(prompt)
        answers, unparsed = parse_answers(raw, expected=3)
        assert answers == [1, 1, 0]
        assert unparsed == 0

    def test_contrastive_generation_uses_positive_topic(self):
        corpus = synthetic_corpus(n_per_topic=6, seed=0)
        cooking = [d.text for d in corpus if d.source == "cooking"][:3]
        others = [d.text for d in corpus if d.source != "cooking"][:5]
        prompt = render_contrastive_prompt(cooking, others)
        raw = TopicOracleLLM().complete(prompt)
        parsed = parse_questions(raw)
        assert [c.text for c in parsed] == TOPIC_QUESTIONS["cooking"]

    def test_unknown_prompt_rejected(self):
        example_based = render_example_based_prompt(["A text."], ["Is it a text?"])
        for prompt in ("What is the weather?", example_based):
            try:
                TopicOracleLLM().complete(prompt)
            except ValueError as exc:
                assert "unrecognized" in str(exc)
            else:
                raise AssertionError("expected ValueError")

    def test_call_counter(self):
        oracle = TopicOracleLLM()
        doc = synthetic_corpus(n_per_topic=1, seed=0).documents[0]
        prompt = render_answer_prompt(doc.text, [TOPIC_QUESTIONS[doc.source][0]])
        oracle.complete(prompt)
        oracle.complete(prompt)
        assert oracle.calls == 2

    def test_single_question_probe_prompt(self):
        # probing renders one-question prompts; the oracle must handle those
        corpus = synthetic_corpus(n_per_topic=2, seed=4)
        doc = corpus.documents[0]
        other = TOPICS[(TOPICS.index(doc.source) + 2) % 4]
        prompt = render_answer_prompt(doc.text, [TOPIC_QUESTIONS[other][5]])
        raw = TopicOracleLLM().complete(prompt)
        answers, _ = parse_answers(raw, expected=1)
        assert answers == [0]
