"""Task harnesses over binary embeddings: STS, retrieval, clustering, explanations.

Row lookup conventions: STS tasks carry raw texts, so their matrices are keyed
by ``corpus.content_id(text)``.  Retrieval tasks carry explicit ids, which key
query/corpus matrices directly.  Clustering reads rows in task order, any ids.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binary import BinaryMatrix, is_binary, popcounts
from .cluster import kmeans_fit
from .corpus import content_id
from .jsonl import CorruptFileError, read
from .metrics import ndcg_at_k, spearman, v_measure
from .question_gen import QuestionBank, QuestionHit


class TaskError(ValueError):
    """Malformed task file, or a task text/id missing from the matrix."""


class BankMismatchError(ValueError):
    """Rows compared against a question bank they were not produced from."""


@dataclass(frozen=True)
class StsPair:
    text_a: str
    text_b: str
    score: float


@dataclass(frozen=True)
class StsTask:
    pairs: tuple[StsPair, ...]

    def texts(self) -> list[str]:
        """Distinct texts, first-occurrence order."""
        seen: dict[str, None] = {}
        for p in self.pairs:
            seen.setdefault(p.text_a)
            seen.setdefault(p.text_b)
        return list(seen)


@dataclass(frozen=True)
class RetrievalTask:
    queries: dict[str, str]
    corpus: dict[str, str]
    qrels: dict[str, dict[str, float]]


@dataclass(frozen=True)
class ClusteringTask:
    texts: tuple[str, ...]
    labels: tuple[str, ...]


@dataclass(frozen=True)
class StsResult:
    spearman: float
    spearman_x100: float
    pairs: int


@dataclass(frozen=True)
class RetrievalResult:
    mean_ndcg: float
    per_query: dict[str, float]
    k: int


@dataclass(frozen=True)
class LoadResult:
    exact: float
    rounded: int


def _records(path: str | Path, convert) -> list:
    try:
        return list(read(path, convert))
    except (CorruptFileError, OSError) as exc:
        raise TaskError(str(exc)) from exc


def _sts_pair(rec: dict) -> StsPair:
    score = float(rec["score"])
    if not math.isfinite(score):
        raise ValueError("non-finite score")
    return StsPair(text_a=str(rec["text_a"]), text_b=str(rec["text_b"]), score=score)


def load_sts_task(path: str | Path) -> StsTask:
    pairs = _records(path, _sts_pair)
    if len(pairs) < 2:
        raise TaskError(f"{path}: need at least 2 pairs, found {len(pairs)}")
    return StsTask(pairs=tuple(pairs))


def _texts_by_id(path: str | Path, kind: str) -> dict[str, str]:
    texts = {}
    for rid, text in _records(path, lambda rec: (str(rec["id"]), str(rec["text"]))):
        if rid in texts:
            raise TaskError(f"{path}: duplicate {kind} id {rid!r}")
        texts[rid] = text
    return texts


def load_retrieval_task(queries_path: str | Path, corpus_path: str | Path,
                        qrels_path: str | Path) -> RetrievalTask:
    queries = _texts_by_id(queries_path, "query")
    corpus = _texts_by_id(corpus_path, "doc")
    qrels: dict[str, dict[str, float]] = {}
    for i, (qid, did, rel) in enumerate(_records(qrels_path, lambda rec: (
            str(rec["query_id"]), str(rec["doc_id"]), float(rec["rel"]))), start=1):
        if did not in corpus:
            raise TaskError(f"{qrels_path}: record {i} references unknown doc {did!r}")
        if qid not in queries:
            raise TaskError(f"{qrels_path}: record {i} references unknown query {qid!r}")
        if rel < 0:
            raise TaskError(f"{qrels_path}: record {i} has negative relevance")
        qrels.setdefault(qid, {})[did] = rel
    return RetrievalTask(queries=queries, corpus=corpus, qrels=qrels)


def load_clustering_task(path: str | Path) -> ClusteringTask:
    rows = _records(path, lambda rec: (str(rec["text"]), str(rec["label"])))
    if not rows:
        raise TaskError(f"{path}: empty clustering task")
    return ClusteringTask(texts=tuple(t for t, _ in rows), labels=tuple(lab for _, lab in rows))


def _row_indices(matrix: BinaryMatrix, row_ids: list[str], names: list[str],
                 kind: str) -> np.ndarray:
    """Row index of each id in one lookup; TaskError names the first one missing."""
    try:
        return matrix.row_indices(row_ids)
    except KeyError as exc:
        name = names[row_ids.index(exc.args[0])]
        raise TaskError(f"{kind} {name[:60]!r} not embedded") from None


def _pair_rows(task: StsTask, matrix: BinaryMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Packed rows of each pair's text_a and text_b, in pair order."""
    texts = [text for pair in task.pairs for text in (pair.text_a, pair.text_b)]
    rows = matrix.packed[_row_indices(matrix, [content_id(t) for t in texts], texts,
                                      "text")]
    return rows[0::2], rows[1::2]


def _cosines(overlap: np.ndarray, pop_a: np.ndarray, pop_b) -> np.ndarray:
    """float64 overlap / (sqrt(pop_a) * sqrt(pop_b)), 0 where either row is all zero.

    For 0/1 rows the dot product and the squared norms are exact integers, so this
    equals the cosine of the rows taken as float64 vectors, bit for bit.
    """
    denom = np.sqrt(pop_a) * np.sqrt(pop_b)
    return np.divide(overlap, denom, out=np.zeros(denom.shape), where=denom > 0)


def sts_evaluate(task: StsTask, matrix: BinaryMatrix) -> StsResult:
    """Spearman between gold scores and cosine over binary rows (bits as reals)."""
    a, b = _pair_rows(task, matrix)
    sims = _cosines(popcounts(a & b), popcounts(a), popcounts(b))
    rho = spearman([pair.score for pair in task.pairs], sims)
    return StsResult(spearman=rho, spearman_x100=100.0 * rho, pairs=len(task.pairs))


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """The first k of a stable argsort of -scores: best first, equal scores by
    ascending index. A partition finds the k-th best score (the lowest when
    k >= len(scores)); only the scores at or above it, ties included, are sorted."""
    cut = len(scores) - min(max(k, 1), len(scores))
    kth = np.partition(scores, cut)[cut]
    candidates = np.flatnonzero(scores >= kth)
    return candidates[np.argsort(-scores[candidates], kind="stable")[:k]]


def retrieval_evaluate(task: RetrievalTask, query_matrix: BinaryMatrix,
                       corpus_matrix: BinaryMatrix, k: int = 10) -> RetrievalResult:
    """Macro-averaged nDCG@k; corpus ranked by cosine, ties broken by doc id."""
    if not task.corpus:
        raise TaskError("retrieval corpus is empty")
    if query_matrix.m != corpus_matrix.m:
        raise TaskError(f"query rows have m={query_matrix.m} questions but corpus "
                        f"rows have m={corpus_matrix.m}")
    if corpus_matrix.rows_are_sorted(task.corpus.keys()):
        doc_ids = corpus_matrix.row_ids
        docs, doc_pops = corpus_matrix.packed, corpus_matrix.row_popcounts
    else:
        doc_ids = sorted(task.corpus)
        doc_rows = _row_indices(corpus_matrix, doc_ids, doc_ids, "doc")
        docs = corpus_matrix.packed[doc_rows]
        doc_pops = corpus_matrix.row_popcounts[doc_rows]
    qids = sorted(task.queries)
    query_rows = _row_indices(query_matrix, qids, qids, "query")
    per_query: dict[str, float] = {}
    for qid, q, q_pop in zip(qids, query_matrix.packed[query_rows],
                             query_matrix.row_popcounts[query_rows]):
        top = _top_k(_cosines(popcounts(docs & q), doc_pops, q_pop), k)
        per_query[qid] = ndcg_at_k([doc_ids[i] for i in top], task.qrels.get(qid, {}), k=k)
    if not per_query:
        raise TaskError("retrieval task has no queries")
    mean = float(np.mean(list(per_query.values())))
    return RetrievalResult(mean_ndcg=mean, per_query=per_query, k=k)


def clustering_evaluate(matrix: BinaryMatrix, labels, seed: int) -> float:
    """K-means on the binary rows (as reals) with k = #distinct gold labels."""
    labels = list(labels)
    if len(labels) != matrix.n:
        raise TaskError(f"{len(labels)} labels for {matrix.n} rows")
    k = len(set(labels))
    rows = matrix.to_dense().astype(np.float64)
    model = kmeans_fit(rows, k=k, seed=seed)
    return v_measure(labels, model.labels)


def mean_cognitive_load(task: StsTask, matrix: BinaryMatrix) -> LoadResult:
    """Mean yes-overlap count over the task's pairs; half rounds up for display."""
    if not task.pairs:
        raise TaskError("empty task")
    a, b = _pair_rows(task, matrix)
    exact = float(np.mean(popcounts(a & b)))
    return LoadResult(exact=exact, rounded=int(math.floor(exact + 0.5)))


@dataclass(frozen=True)
class ExplanationReport:
    text_a: str
    text_b: str
    shared_yes: tuple[QuestionHit, ...]
    only_a: tuple[QuestionHit, ...]
    only_b: tuple[QuestionHit, ...]
    cognitive_load: int

    def _sections(self):
        return (("Both yes", self.shared_yes), ("Only A", self.only_a),
                ("Only B", self.only_b))

    def render_text(self) -> str:
        lines = [f"Pair explanation (cognitive load {self.cognitive_load})",
                 f"A: {self.text_a}", f"B: {self.text_b}"]
        for title, hits in self._sections():
            lines.append("")
            lines.append(f"{title} ({len(hits)}):")
            if not hits:
                lines.append("  (none)")
            for hit in hits:
                lines.append(f"  [{hit.id}] {hit.text}")
        return "\n".join(lines)

    def render_markdown(self) -> str:
        lines = [f"## Pair explanation", "",
                 f"- **A:** {self.text_a}", f"- **B:** {self.text_b}",
                 f"- **Cognitive load:** {self.cognitive_load}"]
        for title, hits in self._sections():
            lines.append("")
            lines.append(f"### {title} ({len(hits)})")
            lines.append("")
            if not hits:
                lines.append("_none_")
            for hit in hits:
                lines.append(f"- **Q{hit.id}.** {hit.text}")
        return "\n".join(lines)


def explain_pair(a_row, b_row, bank: QuestionBank, text_a: str = "",
                 text_b: str = "", bank_fingerprint: str | None = None
                 ) -> ExplanationReport:
    """Split the bank's questions by the yes-pattern of two binary rows.

    bank_fingerprint, when given, must match the bank the rows were embedded
    with; pass the fingerprint stored alongside the matrix.
    """
    if bank_fingerprint is not None and bank_fingerprint != bank.fingerprint():
        raise BankMismatchError(
            f"rows were embedded with bank {bank_fingerprint}, "
            f"got bank {bank.fingerprint()}")
    a = np.asarray(a_row)
    b = np.asarray(b_row)
    if a.shape != (bank.m,) or b.shape != (bank.m,):
        raise BankMismatchError(
            f"row shapes {a.shape}/{b.shape} do not match bank size {bank.m}")
    for name, row in (("a", a), ("b", b)):
        if not is_binary(row):
            raise BankMismatchError(f"row {name} is not binary")
    a, b = a != 0, b != 0
    bank_hits = bank.hits

    def hits(mask: np.ndarray) -> tuple[QuestionHit, ...]:
        return tuple(bank_hits[i] for i in np.flatnonzero(mask).tolist())

    shared = hits(a & b)
    return ExplanationReport(text_a=text_a, text_b=text_b, shared_yes=shared,
                             only_a=hits(a & ~b), only_b=hits(b & ~a),
                             cognitive_load=len(shared))
