"""LLM answer collection for head training: pooled sampling, batched prompts, cache write-through.

Each bank question draws in-cluster, neighboring-cluster, and corpus-random
documents; the resulting (question, document) pairs are pivoted per document
and asked in batches of up to 20 questions. Answers persist in the AnswerCache,
by question text, so an interrupted or re-run collection never re-asks the LLM.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .cluster import ClusterModel
from .config import CollectionSection
from .heads import TrainingExample
from .prompts import parse_answers, render_answer_prompt
from .providers import AnswerCache, AnswerRecord, LLMProvider, prompt_fingerprint
from .question_gen import QuestionBank, _negative_pools

logger = logging.getLogger(__name__)


@dataclass
class CollectionResult:
    examples: list[TrainingExample]
    requested_pairs: int
    cache_hits: int
    llm_calls: int
    unparsed: int


def _question_documents(bank_question_cluster: int, model: ClusterModel,
                        all_docs: list[str], rng: np.random.Generator,
                        pools: CollectionSection) -> list[str]:
    """Sample the three document pools for one question, disjoint, clamped to availability."""
    picked: list[str] = []
    picked_set: set[str] = set()

    def take(pool: list[str], count: int) -> None:
        pool = [d for d in pool if d not in picked_set]
        count = min(count, len(pool))
        if count == 0:
            return
        idx = rng.choice(len(pool), size=count, replace=False)
        for i in idx:
            picked.append(pool[int(i)])
            picked_set.add(pool[int(i)])

    take(model.members(bank_question_cluster), pools.in_cluster)
    take(_negative_pools(model, bank_question_cluster, pools.neighbor_clusters)[0], pools.neighbor)
    take(all_docs, pools.random)
    return picked


def collect_answers(bank: QuestionBank, model: ClusterModel,
                    texts: dict[str, str], llm: LLMProvider, cache: AnswerCache,
                    rng: np.random.Generator, pools: CollectionSection) -> CollectionResult:
    """Collect yes/no training answers for every bank question.

    Pool sizes clamp to what the corpus offers. Cached pairs are never re-asked;
    unparseable answer lines record "no" and are counted. Returns per-document
    training examples over every requested pair.
    """
    if bank.m == 0:
        raise ValueError("question bank is empty")
    all_docs = sorted(texts)

    wanted: dict[str, list[int]] = {}  # doc id -> question ids, bank order
    requested = 0
    for q in bank.questions:
        docs = _question_documents(q.origin_cluster, model, all_docs, rng, pools)
        requested += len(docs)
        for d in docs:
            wanted.setdefault(d, []).append(q.id)

    text_of = {q.id: q.text for q in bank.questions}
    cache_hits = 0
    llm_calls = 0
    unparsed_total = 0
    for doc in sorted(wanted):
        pending = [qid for qid in sorted(wanted[doc]) if cache.get(text_of[qid], doc) is None]
        cache_hits += len(wanted[doc]) - len(pending)
        for start in range(0, len(pending), pools.group):
            chunk = pending[start:start + pools.group]
            prompt = render_answer_prompt(texts[doc], [text_of[q] for q in chunk])
            raw = llm.complete(prompt)
            llm_calls += 1
            answers, unparsed = parse_answers(raw, expected=len(chunk))
            unparsed_total += unparsed
            fp = prompt_fingerprint(prompt)
            cache.put(*(AnswerRecord(question=text_of[qid], document_id=doc, answer=ans,
                                     prompt_fingerprint=fp)
                        for qid, ans in zip(chunk, answers)))

    examples = []
    for doc in sorted(wanted):
        answers = {qid: int(cache.get(text_of[qid], doc)) for qid in sorted(set(wanted[doc]))}
        examples.append(TrainingExample(document_id=doc, answers=answers))
    if unparsed_total:
        logger.warning("%d answer lines were unparseable and recorded as 'no'",
                       unparsed_total)
    return CollectionResult(examples=examples, requested_pairs=requested,
                            cache_hits=cache_hits, llm_calls=llm_calls,
                            unparsed=unparsed_total)


def split_examples(examples: list[TrainingExample], heldout_ids: frozenset[str] | set[str]
                   ) -> tuple[list[TrainingExample], list[TrainingExample]]:
    """Partition collected examples into (train, heldout) by document id."""
    train = [ex for ex in examples if ex.document_id not in heldout_ids]
    heldout = [ex for ex in examples if ex.document_id in heldout_ids]
    return train, heldout
