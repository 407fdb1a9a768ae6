"""Reference formulas that the batched and packed kernels are checked against.

The per-vector cosine and cognitive load check the packed scoring kernels. The
byte-table popcount, the full stable sort and the per-call explanation are the
scoring code as it was before the 16-bit popcount table, the partial top-k and
the per-bank question hits, so those can be compared exactly. The
per-head forward, the per-document loss and the allocating training loop below
check the heads module: reference_train_heads is the training loop as it was
before the in-place Adam step, kept verbatim so trained parameters can be
compared bit for bit, and reference_forward_logits is the float64 forward as
it was before heads were loaded as float32, so logits and bits can be.
reference_kmeans_fit (np.add.at, norms and 2x taken in every distance call),
sorted_neighbors (a Python sort per call) and per_token_encode (one vector add
per token) are the k-means, neighbor and encoder code as it was before the
sorted centroid update, the per-model neighbor order and the padded token sums.
"""

import numpy as np

from qembed.cluster import ClusterModel, _reseed_empty
from qembed.config import ClusterSection, TrainingSection
from qembed.evaluation import ExplanationReport
from qembed.heads import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, FORWARD_CHUNK, QuestionHeads,
                          TrainingError, TrainingExample, _example_rows, _logits_and_grad,
                          _loss_terms, _softplus, _split, compute_pos_weight, forward_logits,
                          init_heads)
from qembed.metrics import MetricError
from qembed.question_gen import QuestionBank, QuestionHit

BYTE_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint16)


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


def byte_table_popcounts(packed: np.ndarray) -> np.ndarray:
    """Yes-count of each packed row by one 256-entry lookup per byte."""
    return BYTE_POPCOUNT[packed].sum(axis=-1)


def full_sort_top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """The k best scores' indices by a stable argsort of all of -scores."""
    return np.argsort(-scores, kind="stable")[:k]


def per_call_explanation(a_row, b_row, bank: QuestionBank, text_a: str = "",
                         text_b: str = "") -> ExplanationReport:
    """explain_pair's report for binary rows, each QuestionHit built for this call."""
    a = np.asarray(a_row) != 0
    b = np.asarray(b_row) != 0

    def hits(mask):
        return tuple(QuestionHit(id=bank.questions[i].id, text=bank.questions[i].text)
                     for i in np.flatnonzero(mask).tolist())

    shared = hits(a & b)
    return ExplanationReport(text_a=text_a, text_b=text_b, shared_yes=shared,
                             only_a=hits(a & ~b), only_b=hits(b & ~a),
                             cognitive_load=len(shared))


def parameter_arrays(heads: QuestionHeads) -> dict[str, np.ndarray]:
    """The W1, b1, w2 and b2 views into heads.params, by name."""
    return {"W1": heads.W1, "b1": heads.b1, "w2": heads.w2, "b2": heads.b2}


def head_forward(heads: QuestionHeads, e: np.ndarray, i: int) -> float:
    """Logit of head i: w2 . relu(W1 e + b1) + b2."""
    e = np.asarray(e, dtype=np.float64)
    if e.shape != (heads.d,):
        raise TrainingError(f"embedding shape {e.shape} does not match d={heads.d}")
    hidden = np.maximum(heads.W1[i] @ e + heads.b1[i], 0.0)
    return float(heads.w2[i] @ hidden + heads.b2[i])


def reference_forward_logits(heads: QuestionHeads, embeddings: np.ndarray) -> np.ndarray:
    """Logits (n, m) of all heads in float64, every head in one GEMM per row chunk."""
    e = np.asarray(embeddings, dtype=np.float64)
    W1, b1, w2, b2 = _split(heads.params.astype(np.float64), heads.h, heads.d)
    rows = np.atleast_2d(e)
    out = np.empty((len(rows), len(b2)))
    for lo in range(0, len(rows), FORWARD_CHUNK):
        chunk = rows[lo:lo + FORWARD_CHUNK]
        hidden = np.matmul(W1, chunk.T)  # (q, h, rows)
        hidden += b1[:, :, None]
        np.maximum(hidden, 0.0, out=hidden)
        out[lo:lo + len(chunk)] = np.einsum("qh,qhn->nq", w2, hidden) + b2
    return out


def document_loss(heads: QuestionHeads, e: np.ndarray, question_ids: np.ndarray,
                  labels: np.ndarray, pos_weight: float) -> float:
    """Weighted BCE averaged over the document's answered questions, for e (d,)."""
    z = forward_logits(heads, e[None, :], question_ids)[0]
    y = np.asarray(labels, dtype=np.float64)
    terms = pos_weight * y * _softplus(-z) + (1.0 - y) * _softplus(z)
    return float(terms.mean())


def document_loss_and_grads(heads: QuestionHeads, e: np.ndarray, question_ids: np.ndarray,
                            labels: np.ndarray, pos_weight: float):
    """Loss plus the training kernel's gradients for the touched heads only.

    The kernel sees one row per question, each with the document's vector.

    Returns (loss, grads) with grads = {W1: (q,h,d), b1: (q,h), w2: (q,h), b2: (q,)}
    indexed parallel to question_ids: views into one (q, P) gradient block.
    """
    y = np.asarray(labels, dtype=np.float64)
    block = heads.params[question_ids]
    grad = np.empty_like(block)
    q = len(block)
    rows = np.repeat(np.asarray(e, dtype=np.float64)[None, :], q, axis=0)
    z = _logits_and_grad(block, heads.h, heads.d, rows, np.full(q, float(q)),
                         pos_weight * y, 1.0 - y, grad, np.empty(q))
    terms = _loss_terms(z, pos_weight * y, 1.0 - y)
    grads = dict(zip(("W1", "b1", "w2", "b2"), _split(grad, heads.h, heads.d)))
    return float(terms.mean()), grads


def masked_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function by a boolean mask: 1/(1+exp(-x)) at x >= 0, exp(x)/(1+exp(x)) below."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _reference_loss_and_grad(block: np.ndarray, h: int, d: int, e: np.ndarray,
                             labels: np.ndarray, pos_weight: float) -> tuple[float, np.ndarray]:
    """Loss plus its (q, P) gradient for the gathered parameter rows block (q, P)."""
    e = np.asarray(e, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    W1, b1, w2, b2 = _split(block, h, d)

    a1 = W1 @ e + b1           # (q, h), one gemv per head
    hidden = np.maximum(a1, 0.0)
    z = np.einsum("qh,qh->q", w2, hidden) + b2
    q = len(block)

    terms = pos_weight * y * _softplus(-z) + (1.0 - y) * _softplus(z)
    loss = float(terms.mean())

    sig = masked_sigmoid(z)
    dz = (pos_weight * y * (sig - 1.0) + (1.0 - y) * sig) / q  # (q,)
    grad = np.empty_like(block)
    d_W1, d_b1, d_w2, d_b2 = _split(grad, h, d)
    d_b1[:] = dz[:, None] * w2 * (a1 > 0.0)
    np.multiply(d_b1[:, :, None], e, out=d_W1)
    np.multiply(dz[:, None], hidden, out=d_w2)
    d_b2[:] = dz
    return loss, grad


def reference_train_heads(examples: list[TrainingExample], embeddings: np.ndarray,
                          bank: QuestionBank, cfg: TrainingSection, seed: int) -> QuestionHeads:
    """train_heads with a freshly allocated gradient and Adam update on every step."""
    if not examples:
        raise TrainingError("no training examples")
    embeddings = _example_rows(embeddings, examples)
    for ex in examples:
        bad = [qid for qid in ex.answers if not 0 <= qid < bank.m]
        if bad:
            raise TrainingError(f"example {ex.document_id} answers unknown question {bad[0]}")

    pos_weight = cfg.fixed_pos_weight()
    if pos_weight is None:
        pos_weight = compute_pos_weight(examples)

    heads = init_heads(bank.m, embeddings.shape[1], cfg.hidden, seed,
                       tau=cfg.tau, bank_fingerprint=bank.fingerprint())
    params = heads.params
    adam_m = np.zeros_like(params)
    adam_v = np.zeros_like(params)
    head_steps = np.zeros(heads.m, dtype=np.int64)  # per-head counts drive bias correction

    qids_per_doc = [np.asarray(sorted(ex.answers), dtype=np.int64) for ex in examples]
    labels_per_doc = [np.asarray([ex.answers[q] for q in sorted(ex.answers)],
                                 dtype=np.float64) for ex in examples]

    rng = np.random.Generator(np.random.PCG64(seed))
    n = len(examples)
    order = rng.permutation(n)
    lr = cfg.learning_rate
    for step in range(cfg.steps):
        pos = step % n
        if pos == 0 and step > 0:
            order = rng.permutation(n)
        doc = int(order[pos])
        qids = qids_per_doc[doc]
        block = params[qids]
        loss, grad = _reference_loss_and_grad(block, heads.h, heads.d, embeddings[doc],
                                              labels_per_doc[doc], pos_weight)
        if not np.isfinite(loss):
            raise TrainingError(f"non-finite loss at step {step}, "
                                f"question ids {qids.tolist()}")

        head_steps[qids] += 1
        t = head_steps[qids].astype(np.float64)[:, None]
        m = ADAM_BETA1 * adam_m[qids] + (1.0 - ADAM_BETA1) * grad
        v = ADAM_BETA2 * adam_v[qids] + (1.0 - ADAM_BETA2) * grad * grad
        adam_m[qids] = m
        adam_v[qids] = v
        m_hat = m / (1.0 - ADAM_BETA1 ** t)
        v_hat = v / (1.0 - ADAM_BETA2 ** t)
        params[qids] = block - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return heads


def _squared_distances(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
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
            mask = np.ones(n, dtype=bool)
            mask[chosen] = False
            nxt = int(np.flatnonzero(mask)[0])
        else:
            nxt = int(rng.choice(n, p=d2 / total))
        chosen.append(nxt)
        d2 = np.minimum(d2, _squared_distances(x, x[nxt][None, :])[:, 0])
    return x[chosen].copy()


def reference_kmeans_fit(embeddings: np.ndarray, k: int, seed: int,
                         max_iters: int = ClusterSection.max_iters,
                         tol: float = ClusterSection.tol) -> ClusterModel:
    """kmeans_fit on valid input: np.add.at centroid sums, per-call distance terms."""
    x = np.asarray(embeddings, dtype=np.float64)
    n = x.shape[0]
    rng = np.random.Generator(np.random.PCG64(seed))
    centroids = _kmeans_pp_init(x, k, rng)
    labels = np.zeros(n, dtype=np.int64)
    iterations = 0
    for iterations in range(1, max_iters + 1):
        d2 = _squared_distances(x, centroids)
        labels = np.argmin(d2, axis=1)
        reseeded = _reseed_empty(x, centroids, labels, d2)
        counts = np.bincount(labels, minlength=k)
        new_centroids = np.zeros_like(centroids)
        np.add.at(new_centroids, labels, x)
        filled = counts > 0
        new_centroids[filled] /= counts[filled, None]
        new_centroids[~filled] = centroids[~filled]  # an empty cluster keeps its centroid
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if shift < tol and not reseeded:
            break
    d2 = _squared_distances(x, centroids)
    labels = np.argmin(d2, axis=1)
    if _reseed_empty(x, centroids, labels, d2):
        d2 = _squared_distances(x, centroids)
        labels = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(n), labels].sum())
    return ClusterModel(centroids=centroids, doc_ids=[str(i) for i in range(n)],
                        labels=labels, seed=seed, inertia=inertia, iterations=iterations)


def sorted_neighbors(model: ClusterModel, c: int, j: int) -> list[int]:
    """The j clusters nearest to c by a Python sort on (distance, index)."""
    dist = np.linalg.norm(model.centroids - model.centroids[c], axis=1)
    order = sorted(i for i in range(model.k) if i != c)
    order.sort(key=lambda i: (dist[i], i))
    return order[:j]


def per_token_encode(texts: list[str], dim: int, draw) -> np.ndarray:
    """MockEncoder's rule, one vector add per token occurrence; draw(token) gives
    a token's vector."""
    rows = []
    for text in texts:
        tokens = text.lower().split()
        if tokens:
            vec = np.zeros(dim)
            for tok in tokens:
                vec += draw(tok)
        else:
            vec = draw(f"<empty:{text!r}>")
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            vec = draw("<zero>")
            norm = float(np.linalg.norm(vec))
        rows.append(vec / norm)
    return np.stack(rows) if rows else np.zeros((0, dim))
