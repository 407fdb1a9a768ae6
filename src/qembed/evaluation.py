"""Task harnesses over binary embeddings: STS, retrieval, clustering, explanations.

Row lookup conventions: STS and clustering tasks carry raw texts, so their
matrices are keyed by ``corpus.content_id(text)``.  Retrieval tasks carry
explicit ids, so query/corpus matrices are keyed by those ids directly.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binary import BinaryMatrix
from .cluster import kmeans_fit
from .corpus import content_id
from .jsonl import CorruptFileError, read
from .metrics import cosine_similarity, ndcg_at_k, spearman, v_measure
from .question_gen import QuestionBank


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


def _text_row(matrix: BinaryMatrix, text: str) -> np.ndarray:
    try:
        return matrix.row(matrix.row_index(content_id(text)))
    except KeyError:
        raise TaskError(f"text not embedded: {text[:60]!r}") from None


def _id_row(matrix: BinaryMatrix, row_id: str, kind: str) -> np.ndarray:
    try:
        return matrix.row(matrix.row_index(row_id))
    except KeyError:
        raise TaskError(f"{kind} {row_id!r} not embedded") from None


def sts_evaluate(task: StsTask, matrix: BinaryMatrix) -> StsResult:
    """Spearman between gold scores and cosine over binary rows (bits as reals)."""
    golds, sims = [], []
    for pair in task.pairs:
        a = _text_row(matrix, pair.text_a).astype(np.float64)
        b = _text_row(matrix, pair.text_b).astype(np.float64)
        golds.append(pair.score)
        sims.append(cosine_similarity(a, b))
    rho = spearman(golds, sims)
    return StsResult(spearman=rho, spearman_x100=100.0 * rho, pairs=len(task.pairs))


def retrieval_evaluate(task: RetrievalTask, query_matrix: BinaryMatrix,
                       corpus_matrix: BinaryMatrix, k: int = 10,
                       exponential: bool = False) -> RetrievalResult:
    """Macro-averaged nDCG@k; corpus ranked by cosine, ties broken by doc id."""
    if not task.corpus:
        raise TaskError("retrieval corpus is empty")
    doc_ids = sorted(task.corpus)
    docs = np.stack([_id_row(corpus_matrix, d, "doc").astype(np.float64)
                     for d in doc_ids])
    doc_norms = np.linalg.norm(docs, axis=1)
    per_query: dict[str, float] = {}
    for qid in sorted(task.queries):
        q = _id_row(query_matrix, qid, "query").astype(np.float64)
        q_norm = np.linalg.norm(q)
        denom = doc_norms * q_norm
        scores = np.divide(docs @ q, denom, out=np.zeros(len(doc_ids)),
                           where=denom > 0)
        order = sorted(range(len(doc_ids)), key=lambda i: (-scores[i], doc_ids[i]))
        ranking = [doc_ids[i] for i in order]
        per_query[qid] = ndcg_at_k(ranking, task.qrels.get(qid, {}), k=k,
                                   exponential=exponential)
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
    model = kmeans_fit(rows, k=k, seed=seed, check_unit=False)
    return v_measure(labels, model.labels)


def mean_cognitive_load(task: StsTask, matrix: BinaryMatrix) -> LoadResult:
    """Mean yes-overlap count over the task's pairs; half rounds up for display."""
    if not task.pairs:
        raise TaskError("empty task")
    loads = []
    for pair in task.pairs:
        i = matrix.row_index(content_id(pair.text_a))
        j = matrix.row_index(content_id(pair.text_b))
        loads.append(matrix.pair_load(i, j))
    exact = float(np.mean(loads))
    return LoadResult(exact=exact, rounded=int(math.floor(exact + 0.5)))


@dataclass(frozen=True)
class QuestionHit:
    id: int
    text: str


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

    def as_dict(self) -> dict:
        return {
            "text_a": self.text_a,
            "text_b": self.text_b,
            "cognitive_load": self.cognitive_load,
            "shared_yes": [{"id": h.id, "text": h.text} for h in self.shared_yes],
            "only_a": [{"id": h.id, "text": h.text} for h in self.only_a],
            "only_b": [{"id": h.id, "text": h.text} for h in self.only_b],
        }


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
        if not np.isin(row, (0, 1)).all():
            raise BankMismatchError(f"row {name} is not binary")
    shared, only_a, only_b = [], [], []
    for q, ai, bi in zip(bank.questions, a, b):
        hit = QuestionHit(id=q.id, text=q.text)
        if ai and bi:
            shared.append(hit)
        elif ai:
            only_a.append(hit)
        elif bi:
            only_b.append(hit)
    return ExplanationReport(text_a=text_a, text_b=text_b,
                             shared_yes=tuple(shared), only_a=tuple(only_a),
                             only_b=tuple(only_b), cognitive_load=len(shared))
