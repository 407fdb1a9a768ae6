"""Contrastive question generation: sampling, probing, quality scoring, dedup, selection.

Per cluster: sample positives plus hard/easy negatives, prompt the LLM for
discriminative yes/no questions, probe each candidate against fresh texts, and
keep the highest-quality non-duplicate questions as embedding dimensions.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .cluster import ClusterModel, nearest_clusters
from .config import GenerationSection, ProbeSection
from .jsonl import CorruptFileError, dumps, parse, records, replacing
from .prompts import (
    QUESTIONS_PER_GENERATION,
    CandidateQuestion,
    QuestionParseError,
    parse_answers,
    parse_questions,
    render_answer_prompt,
    render_contrastive_prompt,
)
from .providers import Encoder, LLMProvider, ProviderError

logger = logging.getLogger(__name__)

# unit roundoffs of float32 and float64
_U32 = 2.0 ** -24
_U64 = 2.0 ** -53
# vector norms whose unit vectors the dedup screen's bound covers: their squares
# neither overflow nor lose bits to underflow
_SCREEN_NORMS = (2.0 ** -200, 2.0 ** 200)


class SamplingError(ValueError):
    """A sampling pool cannot fill the requested count; message names the pool."""


@dataclass(frozen=True)
class ContrastiveSample:
    cluster_id: int
    positives: list[str]
    hard_negatives: list[str]
    easy_negatives: list[str]


@dataclass(frozen=True)
class ProbeOutcome:
    pos_yes: int
    neg_yes: int
    p_p: int
    p_neg: int  # p_h + p_e
    quality: float


@dataclass(frozen=True)
class ScoredQuestion:
    question: CandidateQuestion
    probe: ProbeOutcome

    @property
    def quality(self) -> float:
        return self.probe.quality


@dataclass(frozen=True, eq=False)
class BankQuestion:
    id: int
    text: str
    origin_cluster: int
    quality: float | None  # probe score; load_question_bank also accepts a null
    embedding: np.ndarray | None = None  # select's unit vector; bank.jsonl stores none


@dataclass(frozen=True)
class QuestionHit:
    """A bank question as an explanation lists it."""
    id: int
    text: str


@dataclass(frozen=True)
class QuestionBank:
    """An immutable bank: questions is stored as a tuple, so the fingerprint,
    hashed on first use, cannot go stale."""
    questions: tuple[BankQuestion, ...]
    theta: float
    t: int
    encoder_fingerprint: str

    def __post_init__(self):
        object.__setattr__(self, "questions", tuple(self.questions))

    @property
    def m(self) -> int:
        return len(self.questions)

    def texts(self) -> list[str]:
        return [q.text for q in self.questions]

    def fingerprint(self) -> str:
        return self._fingerprint

    @cached_property
    def hits(self) -> tuple[QuestionHit, ...]:
        """Each question as a QuestionHit, in bank order, built once per bank."""
        return tuple(QuestionHit(id=q.id, text=q.text) for q in self.questions)

    @cached_property
    def _fingerprint(self) -> str:
        payload = json.dumps({
            "theta": self.theta, "t": self.t,
            "encoder": self.encoder_fingerprint,
            "questions": [(q.id, q.text, q.origin_cluster, q.quality)
                          for q in self.questions],
        }, ensure_ascii=False)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def quality_score(pos_yes: int, p_p: int, neg_yes: int, p_neg: int) -> float:
    """Positive yes-rate minus negative yes-rate; in [-1, 1], 1 only for a perfect split."""
    if not 0 <= pos_yes <= p_p:
        raise ValueError(f"pos_yes={pos_yes} outside [0, {p_p}]")
    if not 0 <= neg_yes <= p_neg:
        raise ValueError(f"neg_yes={neg_yes} outside [0, {p_neg}]")
    return pos_yes / p_p - neg_yes / p_neg


def _draw(pool: list[str], count: int, rng: np.random.Generator, pool_name: str,
          allow_short: bool = False) -> list[str]:
    if len(pool) < count:
        if not allow_short:
            raise SamplingError(f"{pool_name} has {len(pool)} texts, need {count}")
        logger.warning("%s has only %d texts, need %d; taking all", pool_name, len(pool), count)
        count = len(pool)
    idx = rng.choice(len(pool), size=count, replace=False)
    return [pool[int(i)] for i in idx]


def _negative_pools(model: ClusterModel, c: int,
                    neighbor_count: int) -> tuple[list[str], list[str]]:
    neighbor_count = min(neighbor_count, model.k - 1)
    neighbors = nearest_clusters(model, c, neighbor_count) if neighbor_count else []
    hard_pool: list[str] = []
    for nc in neighbors:
        hard_pool.extend(model.members(nc))
    excluded = set(neighbors) | {c}
    easy_pool: list[str] = []
    for other in range(model.k):
        if other not in excluded:
            easy_pool.extend(model.members(other))
    return hard_pool, easy_pool


def sample_contrastive(model: ClusterModel, c: int, gen: GenerationSection,
                       rng: np.random.Generator) -> ContrastiveSample:
    """Draw generation texts: positives from c, hard negatives from its nearest
    clusters, easy negatives from everywhere else. Pools are disjoint by construction.

    A cluster smaller than gen.positives, or an easy pool smaller than
    gen.easy_negatives, yields all its texts with a warning (k-means may leave
    few texts outside c and its neighbours); a hard pool that cannot fill
    gen.hard_negatives is an error naming the pool.
    """
    members = model.members(c)
    if not members:
        raise SamplingError(f"cluster {c} has no members")
    positives = _draw(members, gen.positives, rng, f"cluster {c} positives", allow_short=True)
    hard_pool, easy_pool = _negative_pools(model, c, gen.hard_neighbor_clusters)
    hard = _draw(hard_pool, gen.hard_negatives, rng, "hard negative pool")
    easy = _draw(easy_pool, gen.easy_negatives, rng, "easy negative pool", allow_short=True)
    return ContrastiveSample(cluster_id=c, positives=positives,
                             hard_negatives=hard, easy_negatives=easy)


def generate_cluster_questions(sample: ContrastiveSample, texts: dict[str, str],
                               llm: LLMProvider) -> list[CandidateQuestion]:
    """Render the contrastive prompt for a sample and parse the LLM's questions.

    Fewer than the requested 10 questions is accepted with a warning; extras
    are truncated. Returns [] when nothing parses (logged, cluster skipped).
    """
    prompt = render_contrastive_prompt(
        [texts[d] for d in sample.positives],
        [texts[d] for d in sample.hard_negatives + sample.easy_negatives])
    try:
        raw = llm.complete(prompt)
    except ProviderError as exc:
        logger.warning("generation failed for cluster %d: %s", sample.cluster_id, exc)
        return []
    try:
        questions = parse_questions(raw, origin_cluster=sample.cluster_id)
    except QuestionParseError as exc:
        logger.warning("cluster %d produced no parseable questions: %s", sample.cluster_id, exc)
        return []
    if len(questions) > QUESTIONS_PER_GENERATION:
        logger.warning("cluster %d returned %d questions, truncating to %d",
                       sample.cluster_id, len(questions), QUESTIONS_PER_GENERATION)
        questions = questions[:QUESTIONS_PER_GENERATION]
    elif len(questions) < QUESTIONS_PER_GENERATION:
        logger.warning("cluster %d returned only %d questions", sample.cluster_id,
                       len(questions))
    return questions


def probe_question(q: CandidateQuestion, model: ClusterModel, texts: dict[str, str],
                   llm: LLMProvider, probe: ProbeSection,
                   rng: np.random.Generator) -> ProbeOutcome | None:
    """Ask the LLM the candidate question against fresh probe texts and score it.

    Returns None (question excluded downstream) if the provider fails.
    """
    members = model.members(q.origin_cluster)
    pos_probes = _draw(members, probe.positives, rng,
                       f"cluster {q.origin_cluster} probe positives", allow_short=True)
    hard_pool, easy_pool = _negative_pools(model, q.origin_cluster, probe.neighbor_clusters)
    hard_probes = _draw(hard_pool, probe.hard_negatives, rng, "hard probe pool")
    easy_probes = _draw(easy_pool, probe.easy_negatives, rng, "easy probe pool")

    def ask(doc_id: str) -> int:
        answers, _ = parse_answers(llm.complete(render_answer_prompt(texts[doc_id], [q.text])),
                                   expected=1)
        return answers[0]

    try:
        pos_yes = sum(ask(d) for d in pos_probes)
        neg_yes = sum(ask(d) for d in hard_probes) + sum(ask(d) for d in easy_probes)
    except ProviderError as exc:
        logger.warning("probing failed for %r: %s", q.text, exc)
        return None
    p_neg = len(hard_probes) + len(easy_probes)
    return ProbeOutcome(pos_yes=pos_yes, neg_yes=neg_yes,
                        p_p=len(pos_probes), p_neg=p_neg,
                        quality=quality_score(pos_yes, len(pos_probes), neg_yes, p_neg))


def _gamma(n: int, u: float) -> float:
    """n u / (1 - n u), inf from n u = 1: bounds the relative error of an
    n-term dot product in any summation order (Higham, Accuracy and Stability
    of Numerical Algorithms, ch. 3)."""
    return n * u / (1.0 - n * u) if n * u < 1.0 else math.inf


def _screen_margin(dim: int) -> float:
    """M of _AdmittedSet's float32 screen for vectors of dim entries."""
    if dim * _U32 > 0.25:
        return math.inf
    return (_gamma(dim, _U32) + 2.0 * _U32 + 4.0 * (dim + 4) * _U64
            + (dim + 1) * 2.0 ** -148) * (1.0 + 2.0 ** -20)


class _AdmittedSet:
    """Greedy dedup at theta: a candidate is a duplicate iff its pairwise cosine
    to some admitted vector, u . v / (||u|| ||v||) in float64 (0 for a zero
    denominator), strictly exceeds theta (equality admits).

    Admitted unit vectors are mirrored in float32, so one float32 matvec s'
    screens a candidate against all of them. For unit vectors x and v of d
    entries, |s' - pairwise cosine| <= M = _screen_margin(d):
    - rounding x and v to float32 moves x . v by at most 2 u32 ||x|| ||v||,
      plus 2**-150 per entry in float32's subnormal range;
    - the float32 dot product errs by gamma_d^32 ||fl32(x)|| ||fl32(v)|| in any
      summation order, plus 2**-150 per underflowed product;
    - x and v lie within (d/2 + 3) u64 of unit norm, and the float64 dot
      product, norms and quotient of the pairwise cosine move it by at most
      (3d + 13) u64 from x . v; M takes 4 (d + 4) u64;
    - the subnormal terms sum to at most (d + 1) 2**-148, and a factor
      1 + 2**-20 covers the second-order terms and the rounding of M and of
      theta +- M (for |theta| <= 256; further out, no cosine comes near it).
    So s' > theta + M proves a duplicate and s' < theta - M proves none; only
    rows in between are decided by the exact pairwise check, and every decision
    equals the pairwise rule. A finite vector whose squares overflow is first
    divided by its largest |entry|. Where the norm then lies in _SCREEN_NORMS,
    the unit-norm premise holds; any other vector (zero, NaN, or with squares
    that underflow) is screened as NaN, so compared exactly, as all are if M = inf.
    """

    def __init__(self, capacity: int, dim: int, theta: float):
        self._mirror = np.empty((capacity, dim), dtype=np.float32)
        self._nan = np.full(dim, np.nan, dtype=np.float32)
        self._units: list[np.ndarray] = []
        margin = _screen_margin(dim)
        self._theta, self._above, self._below = theta, theta + margin, theta - margin

    def admit(self, vec: np.ndarray) -> np.ndarray | None:
        """vec's unit vector, now admitted, or None if it duplicates an admitted one."""
        norm = math.sqrt(vec.dot(vec))  # np.linalg.norm's arithmetic
        if norm == math.inf and (top := float(np.abs(vec).max())) < math.inf:
            vec = vec / top  # the squares overflowed: scale first, as LAPACK dnrm2 does
            norm = math.sqrt(vec.dot(vec))
        unit = vec / norm if norm else vec
        low, high = _SCREEN_NORMS
        probe = unit.astype(np.float32) if low <= norm <= high else self._nan
        count = len(self._units)
        sims = self._mirror[:count] @ probe
        top = float(sims.max(initial=-math.inf))
        if top > self._above:
            return None
        if not top < self._below:  # a row in the band, or a NaN
            for j in np.flatnonzero(~(sims.astype(np.float64) < self._below)):
                other = self._units[j]
                denom = float(np.linalg.norm(unit) * np.linalg.norm(other))
                if (float(unit @ other) / denom if denom else 0.0) > self._theta:
                    return None
        self._mirror[count] = probe
        self._units.append(unit)
        return unit


def select_question_bank(candidates: list[ScoredQuestion], encoder: Encoder,
                         theta: float, t: int) -> QuestionBank:
    """Greedy bank selection: clusters in ascending order, best quality first within
    a cluster (ties by list ordinal), admitting a question only if it is no
    duplicate of anything already admitted and its cluster still has room.
    """
    by_cluster: dict[int, list[ScoredQuestion]] = {}
    for cand in candidates:
        by_cluster.setdefault(cand.question.origin_cluster, []).append(cand)

    ordered: list[ScoredQuestion] = []
    for cluster in sorted(by_cluster):
        group = sorted(by_cluster[cluster],
                       key=lambda s: (-s.quality, s.question.ordinal))
        ordered.extend(group)

    embeddings = encoder.encode([s.question.text for s in ordered]) if ordered else \
        np.zeros((0, encoder.dim))
    admitted: list[BankQuestion] = []
    dedup = _AdmittedSet(*embeddings.shape, theta)
    per_cluster: dict[int, int] = {}
    with np.errstate(over="ignore"):  # admit rescales a vector whose squares overflow
        for cand, vec in zip(ordered, embeddings):
            cluster = cand.question.origin_cluster
            if per_cluster.get(cluster, 0) >= t:
                continue
            unit = dedup.admit(vec)
            if unit is None:
                continue
            admitted.append(BankQuestion(id=len(admitted), text=cand.question.text,
                                         origin_cluster=cluster, quality=cand.quality,
                                         embedding=unit))
            per_cluster[cluster] = per_cluster.get(cluster, 0) + 1

    if not admitted:
        logger.warning("selection produced an empty question bank")
    return QuestionBank(questions=admitted, theta=theta, t=t,
                        encoder_fingerprint=encoder.fingerprint())


def save_question_bank(bank: QuestionBank, path: str | Path) -> None:
    """Header record {theta, t, m, encoder_fingerprint} then one record per question."""
    with replacing(path) as fh:
        fh.write(dumps({"theta": bank.theta, "t": bank.t, "m": bank.m,
                        "encoder_fingerprint": bank.encoder_fingerprint}))
        for q in bank.questions:
            fh.write(dumps({"id": q.id, "text": q.text,
                            "origin_cluster": q.origin_cluster,
                            "quality": q.quality}, ensure_ascii=False))


def load_question_bank(path: str | Path) -> QuestionBank:
    """Inverse of save_question_bank, with no embeddings; a torn or malformed
    file raises CorruptFileError."""
    with open(path, "rb") as fh:
        m, theta, t, fingerprint = parse(fh.readline(), path, 1, lambda h: (
            int(h["m"]), float(h["theta"]), int(h["t"]), h["encoder_fingerprint"]))
        questions = list(records(fh, path, _bank_question, first_line=2))
    if len(questions) != m:
        raise CorruptFileError(f"corrupt file {path}: claims m={m}, has {len(questions)}")
    return QuestionBank(questions=questions, theta=theta, t=t, encoder_fingerprint=fingerprint)


def _bank_question(rec: dict) -> BankQuestion:
    return BankQuestion(
        id=int(rec["id"]), text=rec["text"],
        origin_cluster=int(rec["origin_cluster"]),
        quality=None if rec["quality"] is None else float(rec["quality"]))
