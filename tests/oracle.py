"""Per-vector reference formulas that the packed scoring kernels are checked against."""

import numpy as np

from qembed.metrics import MetricError


def cosine_similarity(u, v) -> float:
    """dot(u,v)/(|u||v|); 0.0 by convention when either vector is all zeros."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise MetricError(f"length mismatch: {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u @ v) / (nu * nv)


def cognitive_load(u, v) -> int:
    """Shared-yes count of two binary vectors: the inner product sum u_i * v_i."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise MetricError(f"length mismatch: {u.shape} vs {v.shape}")
    if u.size and (not np.isin(u, (0, 1)).all() or not np.isin(v, (0, 1)).all()):
        raise MetricError("cognitive load is defined on 0/1 vectors")
    return int(np.bitwise_and(u.astype(np.uint8), v.astype(np.uint8)).sum())
