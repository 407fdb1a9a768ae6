"""From raw texts to a deduplicated question bank.

Clusters a small synthetic corpus, asks a deterministic rule-based LLM for
contrastive yes/no questions per cluster, scores each question against
sampled probe texts, and keeps the best non-duplicate questions per cluster.
"""

import numpy as np

from qembed.cluster import kmeans_fit
from qembed.config import GenerationSection, ProbeSection
from qembed.providers import MockEncoder
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
    print(f"corpus: {len(corpus)} documents across 4 latent topics\n")

    encoder = MockEncoder(dim=64, seed=0)
    texts = {doc.id: doc.text for doc in corpus}
    embeddings = encoder.encode([doc.text for doc in corpus])
    model = kmeans_fit(embeddings, k=4, seed=0, doc_ids=[d.id for d in corpus])

    llm = TopicOracleLLM()
    rng = np.random.Generator(np.random.PCG64(0))
    scored: list[ScoredQuestion] = []
    for cluster_id in range(model.k):
        sample = sample_contrastive(model, cluster_id, GENERATION, rng)
        candidates = generate_cluster_questions(sample, texts, llm)
        print(f"cluster {cluster_id}: LLM proposed {len(candidates)} questions, e.g.")
        print(f"  {candidates[0].text}")
        for cand in candidates:
            outcome = probe_question(cand, model, texts, llm, PROBE, rng)
            if outcome is not None:
                scored.append(ScoredQuestion(cand, outcome))

    bank = select_question_bank(scored, encoder, theta=0.8, t=4)
    print(f"\nselected bank: {bank.m} questions "
          f"(max 4 per cluster, pairwise cosine <= 0.8)")
    for q in bank.questions:
        print(f"  [{q.id:2}] cluster {q.origin_cluster}  "
              f"quality {q.quality:+.2f}  {q.text}")


if __name__ == "__main__":
    main()
