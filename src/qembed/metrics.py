"""Evaluation metrics: Spearman rank correlation, nDCG@k, V-measure.

All pure functions over numpy arrays; conventions (constant-input errors,
log base) are pinned by tests.
"""

from __future__ import annotations

import logging
import math

import numpy as np

logger = logging.getLogger(__name__)


class MetricError(ValueError):
    """Raised on undefined metric inputs (length mismatch, constant series)."""


def average_ranks(xs) -> np.ndarray:
    """1-based ranks; tied values share the mean of their positions."""
    xs = np.asarray(xs, dtype=np.float64)
    order = np.argsort(xs, kind="stable")
    ranks = np.empty(len(xs), dtype=np.float64)
    i = 0
    while i < len(xs):
        j = i
        while j + 1 < len(xs) and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(xs, ys) -> float:
    """Pearson correlation of average ranks. Errors on constant input."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape:
        raise MetricError(f"length mismatch: {xs.shape} vs {ys.shape}")
    if xs.size < 2:
        raise MetricError("need at least 2 observations")
    if np.all(xs == xs[0]) or np.all(ys == ys[0]):
        raise MetricError("correlation undefined for constant input")
    rx = average_ranks(xs)
    ry = average_ranks(ys)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx @ ry) / math.sqrt((rx @ rx) * (ry @ ry)))


def ndcg_at_k(ranking: list[str], qrels: dict[str, float], k: int = 10) -> float:
    """Normalized discounted cumulative gain over the top k of a ranking.

    Linear gain rel/log2(rank+1). Returns 0.0 with a warning when the query
    has no relevant documents.
    """
    if k < 1:
        raise MetricError(f"k must be >= 1, got {k}")
    rels = sorted((r for r in qrels.values() if r > 0), reverse=True)
    if not rels:
        logger.warning("query has no relevant documents; nDCG reported as 0")
        return 0.0
    idcg = sum(float(rel) / math.log2(rank + 1)
               for rank, rel in enumerate(rels[:k], start=1))
    dcg = sum(float(qrels.get(doc, 0.0)) / math.log2(rank + 1)
              for rank, doc in enumerate(ranking[:k], start=1))
    return dcg / idcg


def _entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    probs = counts[counts > 0] / total
    return float(-(probs * np.log(probs)).sum())


def v_measure(labels_true, labels_pred) -> float:
    """Harmonic mean of homogeneity and completeness, natural-log entropies.

    Degenerate conventions: h (or c) is 1 when the corresponding entropy is 0;
    V is 0 when h + c = 0.
    """
    labels_true = np.asarray(labels_true)
    labels_pred = np.asarray(labels_pred)
    if labels_true.shape != labels_pred.shape:
        raise MetricError(f"length mismatch: {labels_true.shape} vs {labels_pred.shape}")
    if labels_true.size == 0:
        raise MetricError("need at least one sample")

    _, true_idx = np.unique(labels_true, return_inverse=True)
    _, pred_idx = np.unique(labels_pred, return_inverse=True)
    n_true = int(true_idx.max()) + 1
    n_pred = int(pred_idx.max()) + 1
    contingency = np.zeros((n_true, n_pred), dtype=np.float64)
    np.add.at(contingency, (true_idx, pred_idx), 1.0)
    n = contingency.sum()

    h_true = _entropy(contingency.sum(axis=1))
    h_pred = _entropy(contingency.sum(axis=0))

    # H(C|K) = -sum_{c,k} (n_ck / n) log(n_ck / n_k)
    def conditional(cont: np.ndarray, axis_totals: np.ndarray) -> float:
        total = 0.0
        for col in range(cont.shape[1]):
            col_n = axis_totals[col]
            if col_n == 0:
                continue
            cells = cont[:, col]
            cells = cells[cells > 0]
            total -= float((cells / n * np.log(cells / col_n)).sum())
        return total

    h_true_given_pred = conditional(contingency, contingency.sum(axis=0))
    h_pred_given_true = conditional(contingency.T, contingency.sum(axis=1))

    homogeneity = 1.0 if h_true == 0.0 else 1.0 - h_true_given_pred / h_true
    completeness = 1.0 if h_pred == 0.0 else 1.0 - h_pred_given_true / h_pred
    if homogeneity + completeness == 0.0:
        return 0.0
    return 2.0 * homogeneity * completeness / (homogeneity + completeness)

