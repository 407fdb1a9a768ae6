import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from oracle import cognitive_load, cosine_similarity, full_sort_top_k, per_call_explanation
from qembed.binary import BinaryMatrix, popcounts
from qembed.corpus import content_id
from qembed.evaluation import (
    BankMismatchError,
    ClusteringTask,
    RetrievalTask,
    StsPair,
    StsTask,
    TaskError,
    clustering_evaluate,
    explain_pair,
    load_clustering_task,
    load_retrieval_task,
    load_sts_task,
    mean_cognitive_load,
    retrieval_evaluate,
    sts_evaluate,
)
from qembed.evaluation import _cosines, _top_k
from qembed.metrics import spearman
from qembed.question_gen import BankQuestion, QuestionBank


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def text_matrix(rows_by_text: dict[str, list[int]]) -> BinaryMatrix:
    texts = list(rows_by_text)
    dense = np.array([rows_by_text[t] for t in texts], dtype=np.uint8)
    return BinaryMatrix.from_dense(dense, row_ids=[content_id(t) for t in texts])


def make_bank(texts):
    questions = [BankQuestion(id=i, text=t, origin_cluster=0, quality=0.5,
                              embedding=np.zeros(3))
                 for i, t in enumerate(texts)]
    return QuestionBank(questions=questions, theta=0.8, t=4,
                        encoder_fingerprint="enc")


class TestLoaders:
    def test_sts_roundtrip(self, tmp_path):
        path = tmp_path / "sts.jsonl"
        path.write_text(
            json.dumps({"text_a": "a", "text_b": "b", "score": 3.5}) + "\n"
            + json.dumps({"text_a": "c", "text_b": "d", "score": 1.0}) + "\n")
        task = load_sts_task(path)
        assert task.pairs == (StsPair("a", "b", 3.5), StsPair("c", "d", 1.0))
        assert task.texts() == ["a", "b", "c", "d"]

    def test_sts_single_pair_rejected(self, tmp_path):
        path = tmp_path / "sts.jsonl"
        path.write_text(json.dumps({"text_a": "a", "text_b": "b", "score": 1}) + "\n")
        with pytest.raises(TaskError, match="at least 2"):
            load_sts_task(path)

    def test_sts_missing_field(self, tmp_path):
        path = tmp_path / "sts.jsonl"
        path.write_text('{"text_a": "a", "score": 1}\n')
        with pytest.raises(TaskError, match="text_b"):
            load_sts_task(path)

    def test_sts_bad_json_names_line(self, tmp_path):
        path = tmp_path / "sts.jsonl"
        path.write_text('{"text_a": "a", "text_b": "b", "score": 1}\nnot json\n')
        with pytest.raises(TaskError, match=":2"):
            load_sts_task(path)

    def test_missing_task_file_names_it(self, tmp_path):
        with pytest.raises(TaskError, match="nope.jsonl"):
            load_sts_task(tmp_path / "nope.jsonl")

    def test_retrieval_roundtrip(self, tmp_path):
        (tmp_path / "q.jsonl").write_text('{"id": "q1", "text": "query one"}\n')
        (tmp_path / "c.jsonl").write_text(
            '{"id": "d1", "text": "doc one"}\n{"id": "d2", "text": "doc two"}\n')
        (tmp_path / "r.jsonl").write_text(
            '{"query_id": "q1", "doc_id": "d2", "rel": 1}\n')
        task = load_retrieval_task(tmp_path / "q.jsonl", tmp_path / "c.jsonl",
                                   tmp_path / "r.jsonl")
        assert task.queries == {"q1": "query one"}
        assert task.corpus == {"d1": "doc one", "d2": "doc two"}
        assert task.qrels == {"q1": {"d2": 1.0}}

    def test_retrieval_qrel_unknown_doc(self, tmp_path):
        (tmp_path / "q.jsonl").write_text('{"id": "q1", "text": "t"}\n')
        (tmp_path / "c.jsonl").write_text('{"id": "d1", "text": "t"}\n')
        (tmp_path / "r.jsonl").write_text(
            '{"query_id": "q1", "doc_id": "ghost", "rel": 1}\n')
        with pytest.raises(TaskError, match="ghost"):
            load_retrieval_task(tmp_path / "q.jsonl", tmp_path / "c.jsonl",
                                tmp_path / "r.jsonl")

    @pytest.mark.parametrize("qrel, other", [({"query_id": "ghost", "doc_id": "d1"}, "q.jsonl"),
                                             ({"query_id": "q1", "doc_id": "ghost"}, "c.jsonl")])
    def test_retrieval_qrel_mismatch_names_both_files(self, tmp_path, qrel, other):
        """A judgment of a query or doc that the other file lacks names both
        files, as either may be the damaged one."""
        (tmp_path / "q.jsonl").write_text('{"id": "q1", "text": "t"}\n')
        (tmp_path / "c.jsonl").write_text('{"id": "d1", "text": "t"}\n')
        (tmp_path / "r.jsonl").write_text(json.dumps({**qrel, "rel": 1}) + "\n")
        with pytest.raises(TaskError) as caught:
            load_retrieval_task(tmp_path / "q.jsonl", tmp_path / "c.jsonl",
                                tmp_path / "r.jsonl")
        assert "r.jsonl: record 1" in str(caught.value) and other in str(caught.value)

    @pytest.mark.parametrize("empty, message", [("q.jsonl", "has no queries"),
                                                ("c.jsonl", "corpus is empty"),
                                                ("r.jsonl", "no judgment with rel > 0")])
    def test_retrieval_file_without_entries_rejected(self, tmp_path, empty, message):
        """No query, no doc or no relevant judgment leaves nothing to score;
        the loader names the file that holds none."""
        (tmp_path / "q.jsonl").write_text('{"id": "q1", "text": "t"}\n')
        (tmp_path / "c.jsonl").write_text('{"id": "d1", "text": "t"}\n')
        (tmp_path / "r.jsonl").write_text('{"query_id": "q1", "doc_id": "d1", "rel": 0}\n'
                                          if empty == "r.jsonl" else "")
        if empty != "r.jsonl":
            (tmp_path / empty).write_text("")
        with pytest.raises(TaskError, match=f"{empty}: .*{message}"):
            load_retrieval_task(tmp_path / "q.jsonl", tmp_path / "c.jsonl",
                                tmp_path / "r.jsonl")

    def test_clustering_roundtrip(self, tmp_path):
        path = tmp_path / "cl.jsonl"
        path.write_text('{"text": "a", "label": "x"}\n{"text": "b", "label": "y"}\n')
        task = load_clustering_task(path)
        assert task.texts == ("a", "b")
        assert task.labels == ("x", "y")


class TestStsEvaluate:
    def test_gold_equals_cosine_gives_one(self):
        rows = {
            "t0": [1, 1, 0, 0],
            "t1": [1, 1, 1, 0],
            "t2": [0, 0, 0, 1],
            "t3": [1, 0, 0, 1],
        }
        matrix = text_matrix(rows)
        pairs = [("t0", "t1"), ("t0", "t2"), ("t1", "t3"), ("t2", "t3")]
        gold = [cosine_similarity(np.array(rows[a], float), np.array(rows[b], float))
                for a, b in pairs]
        task = StsTask(pairs=tuple(StsPair(a, b, g) for (a, b), g in zip(pairs, gold)))
        result = sts_evaluate(task, matrix)
        assert result.spearman == pytest.approx(1.0)
        assert result.spearman_x100 == pytest.approx(100.0)
        assert result.pairs == 4

    def test_random_gold_near_zero(self):
        # independent gold scores: correlation should sit in the null band
        g = rng(7)
        texts = [f"text {i}" for i in range(2000)]
        dense = g.integers(0, 2, size=(2000, 64))
        matrix = BinaryMatrix.from_dense(dense,
                                         row_ids=[content_id(t) for t in texts])
        pairs = tuple(StsPair(texts[2 * i], texts[2 * i + 1], float(g.normal()))
                      for i in range(1000))
        result = sts_evaluate(StsTask(pairs=pairs), matrix)
        assert abs(result.spearman) < 0.1

    def test_missing_text_named(self):
        matrix = text_matrix({"known": [1, 0]})
        task = StsTask(pairs=(StsPair("known", "missing text", 1.0),
                              StsPair("known", "known", 0.5)))
        with pytest.raises(TaskError, match="missing text"):
            sts_evaluate(task, matrix)


class TestRetrievalEvaluate:
    def id_matrix(self, rows_by_id):
        ids = list(rows_by_id)
        dense = np.array([rows_by_id[i] for i in ids], dtype=np.uint8)
        return BinaryMatrix.from_dense(dense, row_ids=ids)

    def test_query_matching_unique_relevant_doc(self):
        # orthogonal doc patterns; each query row copies its relevant doc
        docs = {f"d{i}": [1 if j // 4 == i else 0 for j in range(16)]
                for i in range(4)}
        queries = {f"q{i}": docs[f"d{i}"] for i in range(4)}
        task = RetrievalTask(
            queries={q: f"query {q}" for q in queries},
            corpus={d: f"doc {d}" for d in docs},
            qrels={f"q{i}": {f"d{i}": 1.0} for i in range(4)})
        result = retrieval_evaluate(task, self.id_matrix(queries),
                                    self.id_matrix(docs))
        assert result.mean_ndcg == pytest.approx(1.0)
        assert all(v == pytest.approx(1.0) for v in result.per_query.values())

    def test_single_query_single_doc(self):
        task = RetrievalTask(queries={"q": "x"}, corpus={"d": "x"},
                             qrels={"q": {"d": 1.0}})
        m = self.id_matrix({"q": [1, 1], "d": [1, 0]})
        q = self.id_matrix({"q": [1, 1]})
        d = self.id_matrix({"d": [1, 0]})
        result = retrieval_evaluate(task, q, d)
        assert result.mean_ndcg == pytest.approx(1.0)

    def test_tie_broken_by_ascending_doc_id(self):
        # identical rows; relevant doc has the larger id, so it lands at rank 2
        q = self.id_matrix({"q": [1, 1, 0]})
        d = self.id_matrix({"d1": [1, 1, 0], "d2": [1, 1, 0]})
        task = RetrievalTask(queries={"q": "x"},
                             corpus={"d1": "a", "d2": "a"},
                             qrels={"q": {"d2": 1.0}})
        result = retrieval_evaluate(task, q, d)
        assert result.mean_ndcg == pytest.approx(1.0 / math.log2(3))

    def test_query_without_qrels_scores_zero_with_warning(self, caplog):
        q = self.id_matrix({"q": [1]})
        d = self.id_matrix({"d": [1]})
        task = RetrievalTask(queries={"q": "x"}, corpus={"d": "y"}, qrels={})
        with caplog.at_level("WARNING"):
            result = retrieval_evaluate(task, q, d)
        assert result.mean_ndcg == 0.0
        assert "no relevant" in caplog.text

    def test_zero_rows_score_zero_not_nan(self):
        q = self.id_matrix({"q": [0, 0]})
        d = self.id_matrix({"d1": [1, 1], "d2": [0, 0]})
        task = RetrievalTask(queries={"q": "x"}, corpus={"d1": "a", "d2": "b"},
                             qrels={"q": {"d1": 1.0}})
        result = retrieval_evaluate(task, q, d)
        # all scores 0 -> ranking falls back to doc-id order, d1 first
        assert result.mean_ndcg == pytest.approx(1.0)

    def test_width_mismatch_names_both_widths(self):
        # 13 and 16 questions pack into the same 2 bytes per row
        q = BinaryMatrix.from_dense(np.ones((1, 13), dtype=np.uint8), row_ids=["q"])
        d = BinaryMatrix.from_dense(np.ones((1, 16), dtype=np.uint8), row_ids=["d"])
        task = RetrievalTask(queries={"q": "x"}, corpus={"d": "y"}, qrels={})
        with pytest.raises(TaskError, match=r"m=13.*m=16"):
            retrieval_evaluate(task, q, d)

    def test_missing_doc_named(self):
        q = self.id_matrix({"q": [1, 0]})
        d = self.id_matrix({"d1": [1, 0]})
        task = RetrievalTask(queries={"q": "x"}, corpus={"d1": "a", "ghost-doc": "b"},
                             qrels={})
        with pytest.raises(TaskError, match="ghost-doc"):
            retrieval_evaluate(task, q, d)

    def test_missing_query_named(self):
        q = self.id_matrix({"q1": [1, 0]})
        d = self.id_matrix({"d1": [1, 0]})
        task = RetrievalTask(queries={"q1": "x", "ghost-query": "y"}, corpus={"d1": "a"},
                             qrels={})
        with pytest.raises(TaskError, match="ghost-query"):
            retrieval_evaluate(task, q, d)


WIDTHS = [1, 7, 8, 13, 64, 512]


def oracle_rows(m: int, n: int = 40) -> np.ndarray:
    """Random 0/1 rows with all-zero rows and duplicated rows (score ties)."""
    dense = (rng(m).random((n, m)) < 0.3).astype(np.uint8)
    dense[:3] = 0
    dense[10:14] = dense[20]
    return dense


class TestPackedKernel:
    """The packed popcount kernel equals the float64 per-vector oracle exactly."""

    @pytest.mark.parametrize("m", WIDTHS)
    def test_scores_match_oracle(self, m):
        dense = oracle_rows(m)
        packed = BinaryMatrix.from_dense(dense).packed
        pops = popcounts(packed)
        for j in (0, 5, 20):  # an all-zero query, a random one, a duplicated one
            scores = _cosines(popcounts(packed & packed[j]), pops, pops[j])
            assert scores.tolist() == [cosine_similarity(row, dense[j]) for row in dense]

    @pytest.mark.parametrize("m", WIDTHS)
    def test_ranking_by_score_then_doc_id(self, m):
        dense = oracle_rows(m)
        n = len(dense)
        doc_ids = [f"d{(7 * i) % n:03d}" for i in range(n)]  # row order is not id order
        perm = rng(m + 1).permutation(n)
        corpus = BinaryMatrix.from_dense(dense[perm], row_ids=[doc_ids[i] for i in perm])
        for j in (0, 5, 20):
            scores = [cosine_similarity(row, dense[j]) for row in dense]
            order = sorted(range(n), key=lambda i: (-scores[i], doc_ids[i]))
            # distinct grades on every doc: nDCG@k is 1 only when the top k is
            # exactly order[:k], in that order
            task = RetrievalTask(queries={"q": "x"}, corpus=dict.fromkeys(doc_ids, "t"),
                                 qrels={"q": {doc_ids[i]: float(n - r)
                                              for r, i in enumerate(order)}})
            query = BinaryMatrix.from_dense(dense[[j]], row_ids=["q"])
            for k in (1, 10, n, n + 5):
                assert retrieval_evaluate(task, query, corpus, k=k).mean_ndcg == 1.0

    @pytest.mark.parametrize("m", WIDTHS)
    def test_rows_in_sorted_id_order_rank_alike_without_a_lookup(self, m, monkeypatch):
        """A corpus matrix whose rows are the task's docs in sorted-id order
        skips the id sort, lookup and gather, and gives the same result as the
        same rows in another order, or with a row the task does not hold."""
        dense = oracle_rows(m)
        n = len(dense)
        doc_ids = [f"d{i:03d}" for i in range(n)]
        corpus_dict = dict.fromkeys(reversed(doc_ids), "t")  # keys not in sorted order
        qrels = {f"q{j}": {doc_ids[i]: float(1 + (i * j) % 5) for i in range(0, n, 3)}
                 for j in range(6)}
        task = RetrievalTask(queries={q: "x" for q in qrels}, corpus=corpus_dict, qrels=qrels)
        query = BinaryMatrix.from_dense(dense[[0, 5, 10, 20, 21, 22]], row_ids=list(qrels))
        perm = rng(m + 3).permutation(n)
        shuffled = BinaryMatrix.from_dense(dense[perm], row_ids=[doc_ids[i] for i in perm])
        extra = BinaryMatrix.from_dense(np.vstack([dense, dense[:1]]),
                                        row_ids=doc_ids + ["e-not-in-task"])
        want = [retrieval_evaluate(task, query, corpus) for corpus in (shuffled, extra)]
        in_order = BinaryMatrix.from_dense(dense, row_ids=doc_ids)
        assert in_order.rows_are_sorted(corpus_dict.keys())
        assert not shuffled.rows_are_sorted(corpus_dict.keys())
        assert not extra.rows_are_sorted(corpus_dict.keys())
        looked_up = []
        real = BinaryMatrix.row_indices

        def row_indices(matrix, ids):
            looked_up.append(matrix)
            return real(matrix, ids)

        monkeypatch.setattr(BinaryMatrix, "row_indices", row_indices)
        assert want == [retrieval_evaluate(task, query, in_order)] * 2
        assert looked_up == [query]

    @pytest.mark.parametrize("m", WIDTHS)
    def test_sts_and_load_match_oracle(self, m):
        dense = oracle_rows(m)
        g = rng(m + 2)
        texts = [f"text {i}" for i in range(len(dense))]
        matrix = BinaryMatrix.from_dense(dense, row_ids=[content_id(t) for t in texts])
        index = [(0, 1), (0, 5), (10, 11), (12, 20), (5, 5)]
        index += [tuple(int(x) for x in g.integers(0, len(dense), 2)) for _ in range(60)]
        gold = g.normal(size=len(index)).tolist()
        task = StsTask(pairs=tuple(StsPair(texts[a], texts[b], s)
                                   for (a, b), s in zip(index, gold)))
        sims = [cosine_similarity(dense[a], dense[b]) for a, b in index]
        loads = [cognitive_load(dense[a], dense[b]) for a, b in index]
        assert sts_evaluate(task, matrix).spearman == spearman(gold, sims)
        assert mean_cognitive_load(task, matrix).exact == float(np.mean(loads))


class TestTopK:
    """The partial top-k equals the first k of a stable full sort, ties included."""

    @pytest.mark.parametrize("m", WIDTHS)
    def test_heavy_ties_from_rows(self, m):
        dense = oracle_rows(m)
        dense = np.concatenate([dense, dense[20:24], np.zeros((5, m), dtype=np.uint8)])
        packed = BinaryMatrix.from_dense(dense).packed
        pops = popcounts(packed)
        n = len(dense)
        for j in (0, 5, 20):  # an all-zero query, a random one, a duplicated one
            scores = _cosines(popcounts(packed & packed[j]), pops, pops[j])
            for k in (1, 2, 10, n - 1, n, n + 5):
                assert _top_k(scores, k).tolist() == full_sort_top_k(scores, k).tolist()

    @pytest.mark.parametrize("scores", [np.zeros(40), np.ones(7),
                                        rng(3).integers(0, 3, size=200) / 2.0,
                                        np.array([0.5, -0.0, 0.0, 0.5, 1.0, 0.0])])
    def test_few_distinct_scores(self, scores):
        n = len(scores)
        for k in (0, 1, 3, n - 1, n, n + 5):
            assert _top_k(scores, k).tolist() == full_sort_top_k(scores, k).tolist()


class TestClusteringEvaluate:
    def test_identical_rows_per_class(self):
        dense = np.array([[1, 0, 0, 1]] * 5 + [[0, 1, 1, 0]] * 5, dtype=np.uint8)
        matrix = BinaryMatrix.from_dense(dense)
        labels = ["a"] * 5 + ["b"] * 5
        assert clustering_evaluate(matrix, labels, seed=0) == pytest.approx(1.0)

    def test_shuffled_labels_near_zero(self):
        g = rng(3)
        dense = np.zeros((200, 32), dtype=np.uint8)
        dense[:100, :16] = 1
        dense[100:, 16:] = 1
        labels = list(g.permutation(["a", "b"] * 100))
        matrix = BinaryMatrix.from_dense(dense)
        assert clustering_evaluate(matrix, labels, seed=1) < 0.1

    def test_deterministic_for_seed(self):
        g = rng(5)
        dense = (g.random((40, 16)) > 0.5).astype(np.uint8)
        labels = [str(i % 3) for i in range(40)]
        matrix = BinaryMatrix.from_dense(dense)
        a = clustering_evaluate(matrix, labels, seed=11)
        b = clustering_evaluate(matrix, labels, seed=11)
        assert a == b

    def test_label_count_mismatch(self):
        matrix = BinaryMatrix.from_dense(np.zeros((4, 2), dtype=np.uint8))
        with pytest.raises(TaskError):
            clustering_evaluate(matrix, ["a"] * 3, seed=0)


class TestMeanCognitiveLoad:
    def test_two_pairs_loads_two_and_four(self):
        rows = {
            "a": [1, 1, 0, 0, 0, 0],
            "b": [1, 1, 1, 1, 0, 0],
            "c": [1, 1, 1, 1, 1, 1],
        }
        matrix = text_matrix(rows)
        task = StsTask(pairs=(StsPair("a", "b", 1.0), StsPair("b", "c", 2.0)))
        result = mean_cognitive_load(task, matrix)
        assert result.exact == pytest.approx(3.0)
        assert result.rounded == 3

    def test_all_zero_embeddings(self):
        matrix = text_matrix({"a": [0, 0], "b": [0, 0]})
        task = StsTask(pairs=(StsPair("a", "b", 1.0),))
        result = mean_cognitive_load(task, matrix)
        assert result.exact == 0.0
        assert result.rounded == 0

    def test_empty_task_rejected(self):
        matrix = text_matrix({"a": [0]})
        with pytest.raises(TaskError, match="empty"):
            mean_cognitive_load(StsTask(pairs=()), matrix)

    def test_missing_text_named(self):
        matrix = text_matrix({"a": [1, 0]})
        task = StsTask(pairs=(StsPair("a", "unseen text", 1.0),))
        with pytest.raises(TaskError, match="unseen text"):
            mean_cognitive_load(task, matrix)


class TestExplainPair:
    def test_identical_rows(self):
        bank = make_bank([f"Is it {i}?" for i in range(5)])
        row = np.array([1, 0, 1, 1, 0])
        report = explain_pair(row, row, bank, text_a="A", text_b="B")
        assert len(report.shared_yes) == 3
        assert report.only_a == () and report.only_b == ()
        assert report.cognitive_load == 3

    def test_disjoint_rows(self):
        bank = make_bank([f"Is it {i}?" for i in range(4)])
        report = explain_pair([1, 1, 0, 0], [0, 0, 1, 1], bank)
        assert report.shared_yes == ()
        assert report.cognitive_load == 0
        assert [h.id for h in report.only_a] == [0, 1]
        assert [h.id for h in report.only_b] == [2, 3]

    def test_partition_matches_or_popcount(self):
        g = rng(9)
        bank = make_bank([f"Is it {i}?" for i in range(64)])
        a = g.integers(0, 2, size=64)
        b = g.integers(0, 2, size=64)
        report = explain_pair(a, b, bank)
        total = len(report.shared_yes) + len(report.only_a) + len(report.only_b)
        assert total == int(np.bitwise_or(a, b).sum())

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64, np.float64])
    def test_report_matches_a_loop_over_questions(self, dtype):
        g = rng(4)
        bank = make_bank([f"Is it {i}?" for i in range(37)])
        a = g.integers(0, 2, size=37).astype(dtype)
        b = g.integers(0, 2, size=37).astype(dtype)
        report = explain_pair(a, b, bank)
        for name, want in (("shared_yes", a.astype(bool) & b.astype(bool)),
                           ("only_a", a.astype(bool) & ~b.astype(bool)),
                           ("only_b", ~a.astype(bool) & b.astype(bool))):
            assert [(h.id, h.text) for h in getattr(report, name)] == \
                [(q.id, q.text) for q, hit in zip(bank.questions, want) if hit]
        assert report.cognitive_load == int((a.astype(bool) & b.astype(bool)).sum())

    @pytest.mark.parametrize("bad, dtype", [(2, np.int64), (-1, np.int64), (2, np.float64),
                                            (-1, np.float64), (0.5, np.float64),
                                            (np.nan, np.float64)])
    def test_non_binary_rows_are_rejected(self, bad, dtype):
        bank = make_bank(["Is it x?", "Is it y?", "Is it z?"])
        row = np.array([1, 0, bad], dtype=np.float64).astype(dtype)
        with pytest.raises(BankMismatchError, match="row a is not binary"):
            explain_pair(row, [0, 1, 0], bank)
        with pytest.raises(BankMismatchError, match="row b is not binary"):
            explain_pair([0, 1, 0], row, bank)

    @pytest.mark.parametrize("m", [1, 9, 64])
    def test_report_equals_a_per_call_build(self, m):
        g = rng(m)
        bank = make_bank([f"Is it {i}?" for i in range(m)])
        rows = [g.integers(0, 2, size=m) for _ in range(6)] + [np.zeros(m, dtype=int),
                                                               np.ones(m, dtype=int)]
        for a in rows:
            for b in rows[::3]:
                report = explain_pair(a, b, bank, text_a="alpha", text_b="beta")
                want = per_call_explanation(a, b, bank, text_a="alpha", text_b="beta")
                assert report == want
                assert report.render_text() == want.render_text()
                assert report.render_markdown() == want.render_markdown()
                assert asdict(report) == asdict(want)

    def test_hits_are_built_once_per_bank(self):
        bank = make_bank(["Is it x?", "Is it y?"])
        first = explain_pair([1, 1], [1, 0], bank)
        second = explain_pair([1, 0], [1, 1], bank)
        assert first.shared_yes[0] is second.shared_yes[0] is bank.hits[0]
        assert first.only_a == second.only_b == (bank.hits[1],)

    def test_fingerprint_mismatch(self):
        bank = make_bank(["Is it x?", "Is it y?"])
        with pytest.raises(BankMismatchError):
            explain_pair([1, 0], [0, 1], bank, bank_fingerprint="deadbeef")
        # matching fingerprint passes
        explain_pair([1, 0], [0, 1], bank, bank_fingerprint=bank.fingerprint())

    def test_row_length_mismatch(self):
        bank = make_bank(["Is it x?", "Is it y?"])
        with pytest.raises(BankMismatchError):
            explain_pair([1, 0, 1], [0, 1, 0], bank)

    def test_render_text_contains_questions(self):
        bank = make_bank(["Is it about space?", "Is it about food?"])
        report = explain_pair([1, 0], [1, 1], bank, text_a="alpha", text_b="beta")
        text = report.render_text()
        assert "cognitive load 1" in text
        assert "[0] Is it about space?" in text
        assert "Only B (1):" in text
        assert "A: alpha" in text

    def test_render_markdown_structure(self):
        bank = make_bank(["Is it about space?"])
        report = explain_pair([1], [0], bank, text_a="a", text_b="b")
        md = report.render_markdown()
        assert "### Both yes (0)" in md
        assert "_none_" in md
        assert "- **Q0.** Is it about space?" in md

    def test_as_dict_roundtrips_through_json(self):
        bank = make_bank(["Is it x?", "Is it y?"])
        report = explain_pair([1, 1], [1, 0], bank, text_a="a", text_b="b")
        data = json.loads(json.dumps(asdict(report)))
        assert data["cognitive_load"] == 1
        assert data["shared_yes"] == [{"id": 0, "text": "Is it x?"}]
