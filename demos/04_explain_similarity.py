"""Why are two texts similar? Show the questions they both answer yes to.

Every embedding dimension is a yes/no question, so a similarity judgment
can be read directly: the shared yes answers explain what the texts have
in common, and each side's exclusive yes answers explain how they differ.
"""

import tempfile
from pathlib import Path

import numpy as np

from qembed.answering import collect_answers, split_examples
from qembed.cluster import kmeans_fit
from qembed.config import CollectionSection, GenerationSection, ProbeSection, TrainingSection
from qembed.evaluation import explain_pair
from qembed.heads import embed_documents, load_heads, save_heads, train_heads
from qembed.providers import AnswerCache, MockEncoder
from qembed.question_gen import (ScoredQuestion, generate_cluster_questions,
                                 probe_question, sample_contrastive,
                                 select_question_bank)
from qembed.synthetic import TopicOracleLLM, synthetic_corpus

# 6 positives vs 12 hard + 12 easy negatives per cluster, hard ones from the
# 2 nearest clusters; each candidate is probed on 5 positives, 3 hard and 2 easy
GENERATION = GenerationSection(positives=6, hard_negatives=12, easy_negatives=12,
                               hard_neighbor_clusters=2)
PROBE = ProbeSection(positives=5, hard_negatives=3, easy_negatives=2, neighbor_clusters=2)


def main() -> None:
    corpus = synthetic_corpus(n_per_topic=16, seed=0)
    texts = {doc.id: doc.text for doc in corpus}
    encoder = MockEncoder(dim=64, seed=0)
    llm = TopicOracleLLM()
    rng = np.random.Generator(np.random.PCG64(0))

    embeddings = encoder.encode([doc.text for doc in corpus])
    model = kmeans_fit(embeddings, k=4, seed=0, doc_ids=[d.id for d in corpus])
    scored = []
    for cluster_id in range(model.k):
        sample = sample_contrastive(model, cluster_id, GENERATION, rng)
        for cand in generate_cluster_questions(sample, texts, llm):
            outcome = probe_question(cand, model, texts, llm, PROBE, rng)
            if outcome is not None:
                scored.append(ScoredQuestion(cand, outcome))
    bank = select_question_bank(scored, encoder, theta=0.8, t=4)

    with tempfile.TemporaryDirectory() as tmp:
        with AnswerCache(Path(tmp) / "answers.jsonl") as cache:
            result = collect_answers(bank, model, texts, llm, cache, rng,
                                     CollectionSection(in_cluster=16, neighbor=10,
                                                       neighbor_clusters=2, random=16))
        train, _ = split_examples(result.examples, set())
        row = {doc.id: i for i, doc in enumerate(corpus)}
        heads = train_heads(train, embeddings[[row[ex.document_id] for ex in train]], bank,
                            cfg=TrainingSection(learning_rate=3e-3, steps=6000, hidden=8),
                            seed=0)
        # heads embed as saved: float32 in heads.bin, loaded back read-only
        save_heads(heads, Path(tmp) / "heads.bin")
        heads = load_heads(Path(tmp) / "heads.bin")

    docs = corpus.documents
    same_topic = (docs[0], docs[4])      # topics interleave: 0 and 4 match
    cross_topic = (docs[0], docs[1])
    for label, (a, b) in (("same topic", same_topic),
                          ("different topics", cross_topic)):
        matrix = embed_documents([a.text, b.text], encoder, heads,
                                 row_ids=["a", "b"])
        report = explain_pair(matrix.row(0), matrix.row(1), bank,
                              text_a=a.text, text_b=b.text)
        print(f"=== {label}: cognitive load {report.cognitive_load} ===")
        print(f"A: {a.text[:70]}...")
        print(f"B: {b.text[:70]}...")
        print("both answer yes to:")
        for hit in report.shared_yes or []:
            print(f"  - {hit.text}")
        if not report.shared_yes:
            print("  (nothing shared)")
        print(f"only A: {len(report.only_a)} questions; "
              f"only B: {len(report.only_b)} questions\n")


if __name__ == "__main__":
    main()
