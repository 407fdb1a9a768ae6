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


def _squared_distances(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # (n, k) squared Euclidean; clip the expansion's negative float noise.
    d2 = (np.sum(x * x, axis=1)[:, None] + np.sum(centroids * centroids, axis=1)[None, :]
          - 2.0 * x @ centroids.T)
    return np.maximum(d2, 0.0)


def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = _squared_distances(x, x[chosen[-1]][None, :])[:, 0]
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
        d2 = np.minimum(d2, _squared_distances(x, x[nxt][None, :])[:, 0])
    return x[chosen].copy()


def _reseed_empty(x: np.ndarray, centroids: np.ndarray, labels: np.ndarray,
                  d2: np.ndarray) -> bool:
    """Move each empty cluster onto the farthest point from its centroid not yet
    taken, updating centroids and labels in place; True if any cluster was empty."""
    empties = np.flatnonzero(np.bincount(labels, minlength=len(centroids)) == 0)
    taken: set[int] = set()
    point_d2 = d2[np.arange(len(x)), labels]
    for empty in empties:
        order = np.argsort(-point_d2, kind="stable")
        far = next(int(i) for i in order if int(i) not in taken)
        taken.add(far)
        centroids[empty] = x[far]
        labels[far] = empty
        point_d2[far] = 0.0
    return bool(empties.size)


def kmeans_fit(embeddings: np.ndarray, k: int, seed: int,
               max_iters: int = ClusterSection.max_iters, tol: float = ClusterSection.tol,
               doc_ids: list[str] | None = None,
               check_unit: bool = True) -> ClusterModel:
    """Fit k-means with k-means++ init; deterministic for a fixed seed.

    Empty clusters are re-seeded from the point currently farthest from its
    centroid. Stops when the max centroid shift drops below tol (then runs a
    final assignment pass so labels are exact argmins) or after max_iters.
    check_unit enforces the unit-row precondition; binary/count rows may opt out.
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
    if check_unit:
        norms = np.linalg.norm(x, axis=1)
        bad = np.flatnonzero(np.abs(norms - 1.0) > 1e-6)
        if bad.size:
            raise ClusterError(f"row {bad[0]} is not unit-norm (|x|={norms[bad[0]]:.6f})")
    if doc_ids is None:
        doc_ids = [str(i) for i in range(n)]
    elif len(doc_ids) != n:
        raise ClusterError("doc_ids length does not match embeddings")

    rng = np.random.Generator(np.random.PCG64(seed))
    centroids = _kmeans_pp_init(x, k, rng)

    prev_inertia = np.inf
    labels = np.zeros(n, dtype=np.int64)
    inertia = 0.0
    iterations = 0
    for iterations in range(1, max_iters + 1):
        d2 = _squared_distances(x, centroids)
        labels = np.argmin(d2, axis=1)  # ties resolve to the lowest index
        reseeded = _reseed_empty(x, centroids, labels, d2)
        if reseeded:
            d2 = _squared_distances(x, centroids)
        counts = np.bincount(labels, minlength=k)

        inertia = float(d2[np.arange(n), labels].sum())
        assert inertia <= prev_inertia * (1 + 1e-9) + 1e-12, \
            f"inertia increased at iteration {iterations}: {prev_inertia} -> {inertia}"
        prev_inertia = inertia

        new_centroids = np.zeros_like(centroids)
        np.add.at(new_centroids, labels, x)
        new_centroids /= counts[:, None]
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if shift < tol and not reseeded:
            break

    # settle assignments against the final centroids so labels are exact argmins
    d2 = _squared_distances(x, centroids)
    labels = np.argmin(d2, axis=1)
    if _reseed_empty(x, centroids, labels, d2):
        d2 = _squared_distances(x, centroids)
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

    Ties break toward the lower cluster index.
    """
    if not 0 <= c < model.k:
        raise ClusterError(f"cluster index {c} out of range [0, {model.k})")
    if not 1 <= j < model.k:
        raise ClusterError(f"need 1 <= j < k={model.k}, got j={j}")
    deltas = model.centroids - model.centroids[c]
    dist = np.linalg.norm(deltas, axis=1)
    order = sorted(i for i in range(model.k) if i != c)
    order.sort(key=lambda i: (dist[i], i))
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
