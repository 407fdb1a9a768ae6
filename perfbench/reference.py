"""Reference implementations the output checks compare the program against.

They share no code with qembed's hot paths: head logits come from one GEMM
over all heads, rankings from a lexsort, and the bank from a greedy loop over a
preallocated matrix of admitted vectors.
"""

from __future__ import annotations

import numpy as np

TAU_EXEMPT = 1e-9    # bits whose probability is this close to tau are not checked
COSINE_SLACK = 1e-9  # similarities this close to theta are re-checked pair by pair


def head_probabilities(heads, embeddings: np.ndarray, batch: int = 32) -> np.ndarray:
    """sigmoid(w2 . relu(W1 e + b1) + b2) for every head and row, in row batches."""
    m, h, d = heads.W1.shape
    w1 = heads.W1.reshape(m * h, d)
    out = np.empty((len(embeddings), m))
    for lo in range(0, len(embeddings), batch):
        hidden = (embeddings[lo:lo + batch] @ w1.T).reshape(-1, m, h) + heads.b1
        np.maximum(hidden, 0.0, out=hidden)
        logits = np.einsum("nqh,qh->nq", hidden, heads.w2) + heads.b2
        out[lo:lo + batch] = 0.5 * (1.0 + np.tanh(0.5 * logits))
    return out


def bits_mismatch(dense_bits: np.ndarray, probabilities: np.ndarray, tau: float) -> int:
    """Count of bits differing from probability > tau, outside the exempt band."""
    expected = probabilities > tau
    checked = np.abs(probabilities - tau) >= TAU_EXEMPT
    return int(np.count_nonzero((dense_bits.astype(bool) != expected) & checked))


def top_k(query_bits: np.ndarray, corpus: np.ndarray, corpus_norms: np.ndarray,
          k: int = 10) -> np.ndarray:
    """Row indices of the k best cosine-over-bits scores, ties to the lower index.

    corpus is the 0/1 matrix as float64 with rows in doc-id order, so the lower
    index is the lower id; corpus_norms are its row norms.
    """
    q = query_bits.astype(np.float64)
    dots = corpus @ q
    denom = corpus_norms * np.sqrt(q.sum())
    scores = np.divide(dots, denom, out=np.zeros(len(dots)), where=denom > 0)
    return np.lexsort((np.arange(len(scores)), -scores))[:k]


def greedy_bank(texts: list[str], clusters: list[int], qualities: list[float],
                ordinals: list[int], embeddings_of, theta: float, t: int) -> list[str]:
    """Texts admitted by greedy selection: clusters ascending, best quality first
    (ties by ordinal), per-cluster cap t, duplicate iff cosine strictly > theta."""
    order = sorted(range(len(texts)),
                   key=lambda i: (clusters[i], -qualities[i], ordinals[i]))
    units = embeddings_of([texts[i] for i in order])
    for row in units:
        norm = float(np.linalg.norm(row))
        if norm:
            row /= norm
    admitted = np.empty_like(units)
    kept: list[int] = []
    per_cluster: dict[int, int] = {}
    for row, i in enumerate(order):
        c = clusters[i]
        if per_cluster.get(c, 0) >= t:
            continue
        u = units[row]
        sims = admitted[:len(kept)] @ u
        if np.any(sims > theta + COSINE_SLACK):
            continue
        close = np.flatnonzero(sims >= theta - COSINE_SLACK)
        if any(_exact_cosine(u, admitted[j]) > theta for j in close):
            continue
        admitted[len(kept)] = u
        kept.append(i)
        per_cluster[c] = per_cluster.get(c, 0) + 1
    return [texts[i] for i in kept]


def _exact_cosine(u: np.ndarray, v: np.ndarray) -> float:
    denom = float(np.linalg.norm(u) * np.linalg.norm(v))
    return float(u @ v) / denom if denom else 0.0


def bank_invariant_violations(bank, theta: float, t: int) -> int:
    """Admitted pairs with cosine > theta plus clusters over the cap."""
    if bank.m == 0:
        return 0
    units = np.stack([q.embedding for q in bank.questions])
    gram = units @ units.T
    np.fill_diagonal(gram, -1.0)
    close = 0
    for i, j in zip(*np.nonzero(np.triu(gram > theta - COSINE_SLACK, 1))):
        close += _exact_cosine(units[i], units[j]) > theta
    counts: dict[int, int] = {}
    for q in bank.questions:
        counts[q.origin_cluster] = counts.get(q.origin_cluster, 0) + 1
    return int(close) + sum(1 for n in counts.values() if n > t)
