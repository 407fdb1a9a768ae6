"""K-means over normalized embeddings: k-means++ seeding, Lloyd iterations, neighbor queries.

Hand-rolled so fits are bit-reproducible from a seed and inertia can be
asserted non-increasing every iteration.
"""

from __future__ import annotations

import io
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import ClusterSection
from .jsonl import CorruptFileError, dumps, records, replacing

logger = logging.getLogger(__name__)


class ClusterError(ValueError):
    """Raised on invalid clustering inputs (k > n, non-finite rows, bad indices)."""


@dataclass
class ClusterModel:
    centroids: np.ndarray  # (k, d) float64
    doc_ids: list[str]
    labels: np.ndarray  # (n,) int64, labels[i] clusters doc_ids[i]
    seed: int
    inertia: float
    iterations: int = 0
    _members: dict[int, list[str]] = field(default_factory=dict, repr=False)
    _neighbors: dict[int, list[int]] = field(default_factory=dict, repr=False)

    @property
    def k(self) -> int:
        return int(self.centroids.shape[0])

    @property
    def d(self) -> int:
        return int(self.centroids.shape[1])

    def members(self, c: int) -> list[str]:
        """Document ids assigned to cluster c, in corpus order. Empty clusters yield []."""
        if not 0 <= c < self.k:
            raise ClusterError(f"cluster index {c} out of range [0, {self.k})")
        if not self._members:
            buckets: dict[int, list[str]] = {i: [] for i in range(self.k)}
            for doc, lab in zip(self.doc_ids, self.labels):
                buckets[int(lab)].append(doc)
            self._members = buckets
        return self._members[c]


class _Rows:
    """The fit's rows with the per-fit terms of every distance computation:
    the squared row norms and 2x, taken once."""

    def __init__(self, x: np.ndarray):
        self.x = x
        self.xx = np.sum(x * x, axis=1)[:, None]
        self.twice = 2.0 * x

    def squared_distances(self, centroids: np.ndarray) -> np.ndarray:
        """(n, k) squared Euclidean; clip the expansion's negative float noise."""
        d2 = self.xx + np.sum(centroids * centroids, axis=1)[None, :] - self.twice @ centroids.T
        return np.maximum(d2, 0.0)

    def label_sums(self, labels: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """(k, d) sum of each label's rows, added one row at a time in index
        order from 0.0: np.add.at's order, so its bits.

        Rows are sorted stably by label, and labels by falling count. Step p
        adds the p-th row of every label with more than p rows: a prefix of
        that label order, so one gather and one slice add per step. Once one
        label is left, np.add.accumulate, which adds in index order, adds the
        rest of its rows in one call.
        """
        order = np.argsort(labels, kind="stable")
        by_size = np.argsort(-counts, kind="stable")
        sizes = counts[by_size]
        first = (np.cumsum(counts) - counts)[by_size]  # each label's first row in order
        sums = np.zeros((len(counts), self.x.shape[1]))
        live = len(counts)
        for p in range(int(sizes[0])):
            while sizes[live - 1] <= p:
                live -= 1
            if live == 1:
                rest = self.x[order[first[0] + p:first[0] + sizes[0]]]
                sums[0] = np.add.accumulate(np.vstack([sums[:1], rest]))[-1]
                break
            sums[:live] += self.x[order[first[:live] + p]]
        out = np.empty_like(sums)
        out[by_size] = sums
        return out


def _kmeans_pp_init(rows: _Rows, k: int, rng: np.random.Generator) -> np.ndarray:
    x = rows.x
    n = x.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = rows.squared_distances(x[chosen[-1]][None, :])[:, 0]
    for _ in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            # all remaining points coincide with a center; take lowest unchosen index
            mask = np.ones(n, dtype=bool)
            mask[chosen] = False
            nxt = int(np.flatnonzero(mask)[0])
        else:
            nxt = int(rng.choice(n, p=d2 / total))
        chosen.append(nxt)
        d2 = np.minimum(d2, rows.squared_distances(x[nxt][None, :])[:, 0])
    return x[chosen].copy()


def _reseed_empty(x: np.ndarray, centroids: np.ndarray, labels: np.ndarray,
                  d2: np.ndarray) -> bool:
    """Move each empty cluster onto the farthest point from its centroid whose
    cluster holds another, different row, updating centroids and labels in
    place; True if any cluster moved.

    So no cluster is ever emptied, and a point is never split from copies of
    itself. Where no such point is left, as with fewer distinct rows than
    clusters, the remaining empty clusters stay empty.
    """
    empties = np.flatnonzero(np.bincount(labels, minlength=len(centroids)) == 0)
    if not empties.size:
        return False

    def mixed(c: int) -> bool:  # cluster c holds two different rows
        rows = x[labels == c]
        return bool((rows != rows[:1]).any())

    is_mixed = [mixed(c) for c in range(len(centroids))]
    order = np.argsort(-d2[np.arange(len(x)), labels], kind="stable").tolist()
    moved = False
    for empty in empties:
        far = next((i for i in order if is_mixed[labels[i]]), None)
        if far is None:
            break
        donor = labels[far]
        centroids[empty] = x[far]
        labels[far] = empty
        is_mixed[donor] = mixed(donor)
        moved = True
    return moved


def kmeans_fit(embeddings: np.ndarray, k: int, seed: int,
               max_iters: int = ClusterSection.max_iters, tol: float = ClusterSection.tol,
               doc_ids: list[str] | None = None) -> ClusterModel:
    """Fit k-means with k-means++ init; deterministic for a fixed seed.

    Empty clusters are re-seeded from the point currently farthest from its
    centroid. Stops when the max centroid shift drops below tol (then runs a
    final assignment pass so labels are exact argmins) or after max_iters.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2:
        raise ClusterError(f"embeddings must be 2-d, got shape {x.shape}")
    n = x.shape[0]
    if not np.all(np.isfinite(x)):
        raise ClusterError("embeddings contain non-finite values")
    if k < 1:
        raise ClusterError(f"k must be positive, got {k}")
    if n < k:
        raise ClusterError(f"need at least k={k} rows, got {n}")
    if doc_ids is None:
        doc_ids = [str(i) for i in range(n)]
    elif len(doc_ids) != n:
        raise ClusterError("doc_ids length does not match embeddings")

    rng = np.random.Generator(np.random.PCG64(seed))
    rows = _Rows(x)
    centroids = _kmeans_pp_init(rows, k, rng)

    prev_inertia = np.inf
    labels = np.zeros(n, dtype=np.int64)
    inertia = 0.0
    iterations = 0
    for iterations in range(1, max_iters + 1):
        d2 = rows.squared_distances(centroids)
        labels = np.argmin(d2, axis=1)  # ties resolve to the lowest index
        reseeded = _reseed_empty(x, centroids, labels, d2)
        if reseeded:
            d2 = rows.squared_distances(centroids)
        counts = np.bincount(labels, minlength=k)

        inertia = float(d2[np.arange(n), labels].sum())
        assert inertia <= prev_inertia * (1 + 1e-9) + 1e-12, \
            f"inertia increased at iteration {iterations}: {prev_inertia} -> {inertia}"
        prev_inertia = inertia

        new_centroids = rows.label_sums(labels, counts)
        # an empty cluster keeps its centroid
        filled = counts[:, None] > 0
        np.divide(new_centroids, counts[:, None], out=new_centroids, where=filled)
        np.copyto(new_centroids, centroids, where=~filled)
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if shift < tol and not reseeded:
            break

    # settle assignments against the final centroids so labels are exact argmins
    d2 = rows.squared_distances(centroids)
    labels = np.argmin(d2, axis=1)
    if _reseed_empty(x, centroids, labels, d2):
        d2 = rows.squared_distances(centroids)
        labels = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(n), labels].sum())

    return ClusterModel(centroids=centroids, doc_ids=list(doc_ids), labels=labels,
                        seed=seed, inertia=inertia, iterations=iterations)


def effective_k(requested: int, n: int) -> int:
    """Clamp a corpus-scale k to at most n // 4 for small corpora, with a warning."""
    cap = max(1, n // 4)
    if requested > cap:
        logger.warning("k=%d too large for %d documents, clamping to %d", requested, n, cap)
        return cap
    return requested


def nearest_clusters(model: ClusterModel, c: int, j: int) -> list[int]:
    """The j clusters nearest to c's centroid (Euclidean, excluding c), ascending distance.

    Ties break toward the lower cluster index. Each cluster's neighbor order is
    sorted once per model, on first use.
    """
    if not 0 <= c < model.k:
        raise ClusterError(f"cluster index {c} out of range [0, {model.k})")
    if not 1 <= j < model.k:
        raise ClusterError(f"need 1 <= j < k={model.k}, got j={j}")
    order = model._neighbors.get(c)
    if order is None:
        dist = np.linalg.norm(model.centroids - model.centroids[c], axis=1)
        ranked = np.argsort(dist, kind="stable")
        order = model._neighbors[c] = ranked[ranked != c].tolist()
    return order[:j]


def save_cluster_model(model: ClusterModel, path: str | Path) -> None:
    """Header json line + row-major float32 centroid block + json-lines assignments."""
    header = {"k": model.k, "d": model.d, "seed": model.seed,
              "inertia": model.inertia, "n": len(model.doc_ids),
              "iterations": model.iterations}
    with replacing(path, "wb") as fh:
        fh.write(dumps(header).encode("utf-8"))
        fh.write(np.ascontiguousarray(model.centroids, dtype=np.float32).tobytes())
        lines = "".join(dumps({"id": doc, "cluster": int(lab)})
                        for doc, lab in zip(model.doc_ids, model.labels))
        fh.write(lines.encode("utf-8"))


def load_cluster_model(path: str | Path) -> ClusterModel:
    """Inverse of save_cluster_model; a torn or malformed file raises CorruptFileError."""
    blob = Path(path).read_bytes()
    try:
        nl = blob.index(b"\n")
        header = json.loads(blob[:nl].decode("utf-8"))
        k, d, n = (int(header[key]) for key in ("k", "d", "n"))
        centroids = np.frombuffer(blob, dtype=np.float32, count=k * d, offset=nl + 1)
        centroids = centroids.reshape(k, d).astype(np.float64)
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptFileError(f"corrupt file {path}: {type(exc).__name__}: {exc}") from exc
    assignments = list(records(io.BytesIO(blob[nl + 1 + k * d * 4:]), f"{path} assignment",
                               lambda r: (r["id"], int(r["cluster"]))))
    if len(assignments) != n:
        raise CorruptFileError(f"corrupt file {path}: expected {n} assignments, "
                               f"got {len(assignments)}")
    return ClusterModel(centroids=centroids, doc_ids=[doc for doc, _ in assignments],
                        labels=np.asarray([lab for _, lab in assignments], dtype=np.int64),
                        seed=header["seed"], inertia=header["inertia"],
                        iterations=header.get("iterations", 0))
