"""Replace per-text LLM answering with tiny trained heads.

Collects yes/no answers from the rule-based LLM for a question bank, trains
one small classifier head per question on frozen mock-encoder embeddings,
then checks the heads reproduce the LLM's answers on held-out documents.
"""

import tempfile
from pathlib import Path

import numpy as np

from qembed.answering import collect_answers, split_examples
from qembed.cluster import kmeans_fit
from qembed.config import CollectionSection, GenerationSection, ProbeSection, TrainingSection
from qembed.heads import embed_vectors, evaluate_heldout, load_heads, save_heads, train_heads
from qembed.providers import AnswerCache, MockEncoder
from qembed.question_gen import (ScoredQuestion, generate_cluster_questions,
                                 probe_question, sample_contrastive,
                                 select_question_bank)
from qembed.synthetic import TopicOracleLLM, synthetic_corpus, text_topic

# 6 positives vs 12 hard + 12 easy negatives per cluster, hard ones from the
# 2 nearest clusters; each candidate is probed on 5 positives, 3 hard and 2 easy
GENERATION = GenerationSection(positives=6, hard_negatives=12, easy_negatives=12,
                               hard_neighbor_clusters=2)
PROBE = ProbeSection(positives=5, hard_negatives=3, easy_negatives=2, neighbor_clusters=2)


def build_bank(model, texts, encoder, llm, rng):
    scored = []
    for cluster_id in range(model.k):
        sample = sample_contrastive(model, cluster_id, GENERATION, rng)
        for cand in generate_cluster_questions(sample, texts, llm):
            outcome = probe_question(cand, model, texts, llm, PROBE, rng)
            if outcome is not None:
                scored.append(ScoredQuestion(cand, outcome))
    return select_question_bank(scored, encoder, theta=0.8, t=4)


def main() -> None:
    corpus = synthetic_corpus(n_per_topic=16, seed=0)
    texts = {doc.id: doc.text for doc in corpus}
    encoder = MockEncoder(dim=64, seed=0)
    llm = TopicOracleLLM()
    rng = np.random.Generator(np.random.PCG64(0))

    embeddings = encoder.encode([doc.text for doc in corpus])
    model = kmeans_fit(embeddings, k=4, seed=0, doc_ids=[d.id for d in corpus])
    bank = build_bank(model, texts, encoder, llm, rng)
    print(f"bank: {bank.m} questions")

    with tempfile.TemporaryDirectory() as tmp:
        with AnswerCache(Path(tmp) / "answers.jsonl") as cache:
            result = collect_answers(bank, model, texts, llm, cache, rng,
                                     CollectionSection(in_cluster=16, neighbor=10,
                                                       neighbor_clusters=2, random=6))
        print(f"collected {result.requested_pairs} question/document answers "
              f"in {result.llm_calls} LLM calls")

        # the encoder ran once above; training, evaluation and embedding reuse its rows
        row = {doc.id: i for i, doc in enumerate(corpus)}
        heldout_ids = {doc.id for doc in corpus.documents[::10]}
        train, heldout = split_examples(result.examples, heldout_ids)
        heads = train_heads(train, embeddings[[row[ex.document_id] for ex in train]], bank,
                            cfg=TrainingSection(learning_rate=3e-3, steps=2500, hidden=8),
                            seed=0)
        # heads embed as saved: float32 in heads.bin, loaded back read-only
        save_heads(heads, Path(tmp) / "heads.bin")
        heads = load_heads(Path(tmp) / "heads.bin")
    report = evaluate_heldout(heads, embeddings[[row[ex.document_id] for ex in heldout]],
                              heldout)
    print(f"held-out agreement with the LLM: {report.accuracy:.3f} "
          f"over {len(heldout)} documents\n")

    matrix = embed_vectors(embeddings, heads, row_ids=[d.id for d in corpus])
    print("binary embeddings (one row per document, one column per question):")
    for doc in corpus.documents[:4]:
        row = matrix.row(matrix.row_index(doc.id))
        print(f"  {''.join(map(str, row))}  topic={text_topic(doc.text)}")


if __name__ == "__main__":
    main()
