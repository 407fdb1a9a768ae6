"""Per-question binary classifier heads over frozen text embeddings.

One tiny MLP (d -> h -> 1) per bank question, trained jointly on cached LLM
answers with class-weighted binary cross-entropy and per-parameter Adam.
Training is numpy float64 with explicit gradients, so it is bit-reproducible
and finite-difference checkable. It runs as lockstep rounds over chunks of
heads, split among the CPUs the process may run on: this process trains one
share and a forked child each other, each writing its trained rows and logits
in place into memory they all share (see train_heads). It stays in process on
one CPU, where the platform cannot tell the CPUs, while other threads run,
and for runs too small to pay for a fork. Each head's updates depend only on
its own touches, so the trained bits are the same for any number of workers.

All m heads live in one C-contiguous (m, P) matrix, P = h*d + 2*h + 1.
Row i is head i's block [W1 (h*d, row-major) | b1 (h) | w2 (h) | b2 (1)], the
block order heads.bin stores in float32. Init, Adam, the forward pass, save
and load all work on that matrix. Training holds it in float64; load_heads
keeps heads.bin's float32 values as they are, in one aligned read-only array.

Only loaded heads, the heads as saved, give bits, and only embedding_bits
computes them: embed_vectors and evaluate_heldout at one tau, the ablate
stage at all of its taus in one pass. It runs the whole forward in float32
but for the last +b2, with a rigorous forward-error bound per (row, head)
(see _bound_constants), once per screen of rows, thresholds it at every tau,
and recomputes the few heads the bound cannot settle at some tau once per
FORWARD_CHUNK block of rows, with the float64 forward_logits. So every bit
equals sigmoid(forward_logits(...)) > tau. A screen's float32 forward is
split into contiguous ranges of heads, one per usable CPU: the calling thread
runs one and a thread each other, so several cores read W1 at once, and all
are joined before it returns. It stays in the calling thread below
FORWARD_SPLIT_MIN_WORK and while BLAS runs threads of its own. Each head's logits are the same in any range, so the
bits are the same for any number of threads. There is no setting for this.
"""

from __future__ import annotations

import functools
import json
import math
import mmap
import os
import signal
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import NoReturn

import numpy as np

from .binary import BinaryMatrix
from .config import TrainingSection
from .jsonl import dumps, replacing
from .providers import Encoder
from .question_gen import _U32, _U64, QuestionBank, _gamma

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# rows per float64 forward GEMM, which bounds its (m, h, rows) hidden-layer
# temporary; a row's logits depend on its block of FORWARD_CHUNK rows, so the
# certified forward screens whole blocks and recomputes block by block
FORWARD_CHUNK = 32
# bytes of the certified forward's largest per-screen temporary (see _screen_rows):
# 64 rows at m=512, h=128, the whole matrix at the demo and build shapes
_SCREEN_BYTES = 16 * 1024 * 1024
# bytes of one block of heads in forward_logits: its gathered rows and their
# float64 upcast together, 12 bytes a parameter of float32 heads
FORWARD_HEAD_BYTES = 4 * 1024 * 1024
# bytes of one (rows, P) float64 array of a training chunk of heads; the six
# such arrays of a chunk then stay near a 2 MB L2 cache
TRAIN_CHUNK_BYTES = 512 * 1024
# parameter updates (touches times P) below which training stays in process:
# a fork, its copy-on-write faults and the wait for the child cost about 10 ms,
# more than a second worker saves on such a run (demo shape, 2 CPUs)
FORK_MIN_WORK = 1 << 23
# the certified forward's work is W1's size times (rows + FORWARD_STREAM_ROWS):
# reading a float32 parameter from memory costs about as much as 8 rows'
# multiply-adds on it. Below FORWARD_SPLIT_MIN_WORK it stays in the calling
# thread: starting and joining a thread costs about 0.3 ms, and at 14M-28M of
# work (about 1 ms) a second thread saved nothing (2 CPUs, 1 BLAS thread)
FORWARD_STREAM_ROWS = 8
FORWARD_SPLIT_MIN_WORK = 1 << 25
# lockstep rounds between a training worker's checks for a non-finite logit
# and, in a forked child, for a parent that has exited
CHECK_ROUNDS = 256
# touches whose loss terms are formed at once after training
TERM_BLOCK = 4096
# Adam's (2, 1, 1) coefficients of m and v, and of their gradient terms
_ADAM_BETAS = np.array([ADAM_BETA1, ADAM_BETA2])[:, None, None]
_ADAM_GRAD_WEIGHTS = 1.0 - _ADAM_BETAS

# assumed bound on the relative error of float64 exp and log (a few ulps in practice)
_EXP_LOG_ERROR = 2.0 ** -40
# the sigmoid's rounding is bounded for tau in [_TAU_MARGIN, 1 - _TAU_MARGIN];
# outside it every bit comes from forward_logits
_TAU_MARGIN = 2.0 ** -30
# largest row norm, and hidden-unit weight norm, the certified forward takes:
# their product stays far below the float32 overflow threshold 2**128
_NORM_LIMIT = 2.0 ** 60
# largest sum_j |w2_j| n_j, and sum_j |w2_j| |b1_j| and |b1_j|, of a head the
# certified forward takes: with the norms above, no float32 step overflows
_WEIGHT_LIMIT = 2.0 ** 65
_BIAS_LIMIT = 2.0 ** 125


class TrainingError(RuntimeError):
    """Raised on invalid training data, a diverging loss or a corrupt heads file."""


@dataclass(frozen=True)
class TrainingExample:
    document_id: str
    answers: dict[int, int]  # question id -> 1 yes / 0 no

    def __post_init__(self):
        if not self.answers:
            raise TrainingError(f"example {self.document_id} has no answers")


def _split(block: np.ndarray, h: int, d: int):
    """Views W1 (n,h,d), b1 (n,h), w2 (n,h), b2 (n,) into an (n, P) parameter block."""
    hd = h * d
    return (block[:, :hd].reshape(len(block), h, d), block[:, hd:hd + h],
            block[:, hd + h:hd + 2 * h], block[:, -1])


@dataclass
class QuestionHeads:
    """m heads stored in params (m, P), one [W1 | b1 | w2 | b2] block per row.

    The attributes W1 (m,h,d), b1 (m,h), w2 (m,h) and b2 (m,) are views into
    params, so writing through them writes the parameters. bounds holds the
    certified forward's per-head constants; load_heads sets it beside its
    read-only float32 params. Only heads with bounds give bits.
    """
    params: np.ndarray
    h: int
    d: int
    seed: int
    tau_default: float
    bank_fingerprint: str
    bounds: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.W1, self.b1, self.w2, self.b2 = _split(self.params, self.h, self.d)

    @property
    def m(self) -> int:
        return int(self.params.shape[0])


def init_heads(m: int, d: int, h: int, seed: int, tau: float = TrainingSection.tau,
               bank_fingerprint: str = "", params: np.ndarray | None = None) -> QuestionHeads:
    """Seeded uniform init in +-1/sqrt(fan_in) per layer, drawn into params,
    a float64 (m, P) array, if given."""
    rng = np.random.Generator(np.random.PCG64(seed))
    lim1 = 1.0 / np.sqrt(d)
    lim2 = 1.0 / np.sqrt(h)
    if params is None:
        params = np.empty((m, h * d + 2 * h + 1))
    heads = QuestionHeads(params=params, h=h, d=d, seed=seed, tau_default=tau,
                          bank_fingerprint=bank_fingerprint)
    for block in heads.W1:  # same stream as one (m, h, d) draw, without its temporary
        block[:] = rng.uniform(-lim1, lim1, size=(h, d))
    heads.b1[:] = rng.uniform(-lim1, lim1, size=(m, h))
    heads.w2[:] = rng.uniform(-lim2, lim2, size=(m, h))
    heads.b2[:] = rng.uniform(-lim2, lim2, size=(m,))
    return heads


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1/(1+exp(-x)), formed from e = exp(-|x|) so neither branch overflows."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    denom = 1.0 + e
    return np.where(x >= 0, 1.0 / denom, e / denom)


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def forward_logits(heads: QuestionHeads, embeddings: np.ndarray,
                   question_ids: np.ndarray) -> np.ndarray:
    """Logits (n, q) of the question_ids heads on an (n, d) batch.

    Runs in float64 on either params dtype: a block of heads is gathered and
    upcast, exactly, the two copies together within FORWARD_HEAD_BYTES. A
    head's logit on a row depends only on that head and the row's chunk of
    FORWARD_CHUNK rows, so any subset of heads gives, bit for bit, the
    columns of all heads.
    """
    rows = np.asarray(embeddings, dtype=np.float64)
    ids = np.asarray(question_ids, dtype=np.intp)
    params = heads.params
    out = np.empty((len(rows), len(ids)))
    step = max(1, FORWARD_HEAD_BYTES // (12 * params.shape[1]))
    for qlo in range(0, len(ids), step):
        _forward_block(params[ids[qlo:qlo + step]].astype(np.float64, copy=False), heads.h,
                       heads.d, rows, out[:, qlo:qlo + step])
    return out


def _forward_block(block: np.ndarray, h: int, d: int, rows: np.ndarray, out: np.ndarray):
    """Logits of the float64 parameter rows block (q, P) on rows (n, d), into out (n, q)."""
    W1, b1, w2, b2 = _split(block, h, d)
    for lo in range(0, len(rows), FORWARD_CHUNK):
        chunk = rows[lo:lo + FORWARD_CHUNK]
        hidden = np.matmul(W1, chunk.T)  # (q, h, rows)
        hidden += b1[:, :, None]
        np.maximum(hidden, 0.0, out=hidden)
        out[lo:lo + len(chunk)] = np.einsum("qh,qhn->nq", w2, hidden) + b2


def _logits_and_grad(block: np.ndarray, h: int, d: int, e: np.ndarray, counts: np.ndarray,
                     pos_y: np.ndarray, neg_y: np.ndarray, grad: np.ndarray,
                     z: np.ndarray) -> np.ndarray:
    """Logits of the parameter rows block (k, P) into z (k,), and their loss's
    gradient into grad, (k, P) like block; returns z.

    Row i is one head on one document: e[i] is the document's vector, counts[i]
    its number of answered questions, pos_y[i] = pos_weight * label and
    neg_y[i] = 1 - label. A document's loss is the mean of its rows'
    _loss_terms, so each row's gradient carries 1 / counts[i].
    """
    W1, b1, w2, b2 = _split(block, h, d)
    a1 = np.matmul(W1, e[:, :, None]).reshape(len(block), h)  # (k, h), one gemv per row
    a1 += b1
    hidden = np.maximum(a1, 0.0)
    np.add(np.einsum("qh,qh->q", w2, hidden), b2, out=z)

    sig = sigmoid(z)
    dz = (pos_y * (sig - 1.0) + neg_y * sig) / counts  # (k,)
    d_W1, d_b1, d_w2, d_b2 = _split(grad, h, d)
    # d_b1 is formed outside grad: an operand inside out='s buffer makes numpy copy it
    d_a1 = dz[:, None] * w2 * (a1 > 0.0)
    # einsum's products equal np.multiply's but for the sign of a zero, which
    # no trained bit depends on: Adam's m and v start at +0 and never become -0
    np.einsum("kh,kd->khd", d_a1, e, out=d_W1)
    d_b1[:] = d_a1
    np.multiply(dz[:, None], hidden, out=d_w2)
    d_b2[:] = dz
    return z


def _loss_terms(z: np.ndarray, pos_y: np.ndarray, neg_y: np.ndarray) -> np.ndarray:
    """Each row's loss term from its logit z, with pos_y and neg_y as in _logits_and_grad."""
    return pos_y * _softplus(-z) + neg_y * _softplus(z)


def _example_rows(embeddings: np.ndarray, examples: list[TrainingExample]) -> np.ndarray:
    """embeddings as float64, checked to hold one row per example."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if embeddings.ndim != 2 or len(embeddings) != len(examples):
        raise TrainingError(f"embeddings of shape {embeddings.shape} for "
                            f"{len(examples)} examples; need one row per example")
    return embeddings


def compute_pos_weight(examples: list[TrainingExample]) -> float:
    """Class-imbalance weight for yes terms: (# no answers) / (# yes answers)."""
    yes = sum(a for ex in examples for a in ex.answers.values())
    total = sum(len(ex.answers) for ex in examples)
    no = total - yes
    if yes == 0 or no == 0:
        raise TrainingError(f"need both classes present, got {yes} yes / {no} no")
    return no / yes


def _touch_counts(order: np.ndarray, answer_doc: np.ndarray, answer_qid: np.ndarray,
                  m: int) -> tuple[np.ndarray, np.ndarray]:
    """The touched head ids by descending touch count (ties by id), and their counts.

    Step s of training takes document order[s] and updates each head the
    document answered: one touch of that head, with the document's vector,
    label and answer count.
    """
    draws = np.bincount(order, minlength=int(answer_doc[-1]) + 1)  # times each doc is taken
    touches = np.bincount(answer_qid, weights=draws[answer_doc], minlength=m).astype(np.int64)
    heads = np.argsort(-touches, kind="stable")
    heads = heads[touches[heads] > 0]
    return heads, touches[heads]


def _round_starts(counts: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Where each lockstep round of the chunk heads[lo:hi] starts among all
    touches (see _lockstep_schedule), and where the chunk's touches end."""
    part = counts[lo:hi]
    starts = np.empty(int(part[0]) + 1, dtype=np.int64)
    # round r holds every head of the chunk with more than r touches
    np.cumsum(np.searchsorted(-part, -np.arange(int(part[0])), side="left"), out=starts[1:])
    starts[0] = counts[:lo].sum()
    starts[1:] += starts[0]
    return starts


def _lockstep_schedule(order: np.ndarray, answer_doc: np.ndarray, answer_qid: np.ndarray,
                       heads: np.ndarray, counts: np.ndarray, chunk: int,
                       with_steps: bool = False):
    """Every touch of heads (counts touches each, see _touch_counts), laid out
    chunk by chunk and round by round.

    A head's gradient and Adam state depend only on its own parameters, so
    training is independent sequences of touches, one per head. Invariant:
    each head sees the same (document, label, answer count) sequence as in a
    loop of one document per step, namely its answers on the steps whose
    document answers it, in step order.

    The chunk heads[lo:lo + chunk] owns touches counts[:lo].sum() up to
    counts[:lo + chunk].sum(). With s = _round_starts(counts, lo, lo + chunk),
    its round r is touches s[r]:s[r + 1]: the r-th touch of each of its first
    s[r + 1] - s[r] heads, a prefix since counts fall. Returns slots and, with
    with_steps, (slots, steps): slots[i] is the answer index (into answer_doc
    and answer_qid) of touch i, and steps[i] the step it comes from.
    """
    slots = np.empty(int(counts.sum()), dtype=np.int32)
    steps = np.empty(len(slots), dtype=np.int32) if with_steps else None
    by_head = np.argsort(answer_qid, kind="stable")  # answer ids grouped by head
    head_ptr = np.concatenate(([0], np.cumsum(np.bincount(answer_qid))))
    answer_of_doc = np.full(int(answer_doc[-1]) + 1, -1, dtype=np.int32)
    for rank, (q, count) in enumerate(zip(heads.tolist(), counts.tolist())):
        lo = rank - rank % chunk
        if rank == lo:
            starts = _round_starts(counts, lo, lo + chunk)
        answers = by_head[head_ptr[q]:head_ptr[q + 1]]
        answer_of_doc[answer_doc[answers]] = answers
        per_step = answer_of_doc[order]  # this head's answer on each step, -1 if none
        touched = np.flatnonzero(per_step >= 0)
        at = starts[:count] + (rank - lo)
        slots[at] = per_step[touched]
        if with_steps:
            steps[at] = touched
        answer_of_doc[answer_doc[answers]] = -1
    return (slots, steps) if with_steps else slots


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _worker_count(heads: int, work: int) -> int:
    """Training workers for heads touched heads and work parameter updates:
    one per usable CPU, at most one per head. One, so no fork, while other
    threads run, since a fork from a threaded process can deadlock, and for
    less work than FORK_MIN_WORK."""
    if threading.active_count() > 1 or work < FORK_MIN_WORK:
        return 1
    return min(_usable_cpus(), heads)


def _deal(counts: np.ndarray, chunk: int, workers: int) -> list[list[tuple[int, int]]]:
    """The chunks heads[lo:lo + chunk], as (lo, hi), dealt into at most
    workers shares of about equal work: heaviest chunk first, each to the
    share with the least work so far (the first on ties). A chunk's work is
    its touch count times P, the same P for every head. Shares list their
    chunks by rising lo; empty shares are dropped."""
    chunks = [(lo, min(lo + chunk, len(counts))) for lo in range(0, len(counts), chunk)]
    weights = [int(counts[lo:hi].sum()) for lo, hi in chunks]
    shares: list[list[tuple[int, int]]] = [[] for _ in range(workers)]
    loads = [0] * workers
    for i in sorted(range(len(chunks)), key=lambda i: -weights[i]):
        worker = loads.index(min(loads))
        shares[worker].append(chunks[i])
        loads[worker] += weights[i]
    return [sorted(share) for share in shares if share]


class _Lockstep:
    """One training run in lockstep rounds: the inputs every worker reads, and
    its results, params and one logit z per touch, which every worker writes
    in place.

    A share is a list of chunks (lo, hi) of heads. Each chunk trains on its own
    in six (rows, P) buffers: parameters, gradient, Adam m and v, and two
    temporaries; round r works on the prefix [:k] of its heads still
    training. A head's updates depend only on its own touches, so any split of
    the chunks among workers gives the same bits.
    """

    def __init__(self, params, z, h, d, lr, embeddings, answer_doc, answer_count, answer_pos_y,
                 answer_neg_y, heads, counts, slots, chunk, steps):
        self.params, self.z, self.h, self.d, self.lr = params, z, h, d, lr
        self.embeddings, self.answer_doc, self.answer_count = embeddings, answer_doc, answer_count
        self.answer_pos_y, self.answer_neg_y = answer_pos_y, answer_neg_y
        self.heads, self.counts, self.slots = heads, counts, slots
        self.steps = steps  # () -> the step of every touch; only after a non-finite logit
        self.ends = np.concatenate(([0], np.cumsum(counts)))  # heads[lo:hi] own ends[lo]:ends[hi]
        # 1 - beta**t for every count t a head reaches; a head is at count r + 1 in round r
        t = np.arange(int(counts[0]) + 1, dtype=np.float64)
        self.bias1 = 1.0 - ADAM_BETA1 ** t
        self.bias2 = 1.0 - ADAM_BETA2 ** t
        self.buffers = np.empty((6, chunk, params.shape[1]))
        self.e_buffer = np.empty((chunk, d))

    def train_share(self, share, parent=None) -> None:
        """Train a share's heads into their rows of params and their touches'
        logits into z. A forked child passes parent, its parent's pid, and
        stops once that process has exited."""
        end = len(self.bias1)  # past every round
        for lo, hi in share:
            block, end = self._train_chunk(lo, hi, self.z[self.ends[lo]:self.ends[hi]], end,
                                           parent)
            self.params[self.heads[lo:hi]] = block

    def _train_chunk(self, lo, hi, z, end, parent):
        """Run the rounds of heads[lo:hi] below end, each touch's logit into z.

        After every CHECK_ROUNDS rounds, a non-finite logit lowers end to one
        past the first step it comes from. Round r holds only touches of steps
        >= r, so the rounds up to that step complete every step up to it, and
        no later round runs. Returns the trained rows (a buffer view) and end.
        """
        h, d, lr, bias1, bias2 = self.h, self.d, self.lr, self.bias1, self.bias2
        ids = self.heads[lo:hi]
        starts = _round_starts(self.counts, lo, hi)
        base = int(starts[0])
        buffers = self.buffers
        # the gathers take mode="clip" because mode="raise" buffers out= (ids are in range)
        self.params.take(ids, axis=0, out=buffers[0, :len(ids)], mode="clip")
        buffers[2:4] = 0.0
        rounds = len(starts) - 1
        done = 0
        while done < min(rounds, end):
            until = min(rounds, end, done + CHECK_ROUNDS)
            for r in range(done, until):
                at = int(starts[r])
                k = int(starts[r + 1]) - at
                answers = self.slots[at:at + k]
                rows = buffers[:, :k]
                block, grad, m, v, tmp, _ = rows
                e = self.embeddings.take(self.answer_doc.take(answers), axis=0,
                                         out=self.e_buffer[:k], mode="clip")
                _logits_and_grad(block, h, d, e, self.answer_count.take(answers),
                                 self.answer_pos_y.take(answers),
                                 self.answer_neg_y.take(answers), grad,
                                 z[at - base:at - base + k])

                # m = b1*m + (1-b1)*g and v = b2*v + ((1-b2)*g)*g, in that
                # operand order, as one (2, k, P) update
                moments, grad_terms = rows[2:4], rows[4:6]
                moments *= _ADAM_BETAS
                np.multiply(_ADAM_GRAD_WEIGHTS, grad, out=grad_terms)
                grad_terms[1] *= grad
                moments += grad_terms
                # block -= lr * m_hat / (sqrt(v_hat) + eps), with m_hat in tmp and
                # v_hat in grad; m / 1.0 == m, so that division is skipped
                if bias1[r + 1] == 1.0:
                    np.multiply(m, lr, out=tmp)
                else:
                    np.divide(m, bias1[r + 1], out=tmp)
                    tmp *= lr
                np.divide(v, bias2[r + 1], out=grad)
                np.sqrt(grad, out=grad)
                grad += ADAM_EPS
                tmp /= grad
                block -= tmp
            first = int(starts[done])
            bad = np.flatnonzero(~np.isfinite(z[first - base:int(starts[until]) - base]))
            if bad.size:
                end = min(end, int(self.steps()[bad + first].min()) + 1)
            if parent is not None and os.getppid() != parent:
                raise TrainingError(f"training process {parent} has exited")
            done = until
        return buffers[0, :len(ids)], end


def _train_shares(run: _Lockstep, shares: list[list[tuple[int, int]]]) -> None:
    """Train shares[0] in this process and each other share in a forked child.

    With one share nothing is forked: the whole run trains in this process.

    run's params and z are anonymous shared memory, so a child's trained rows
    and logits land where this process reads them. A child leaves by
    os._exit, so it never returns into its caller's stack. It first closes
    every file descriptor it inherited, so it never holds the workspace lock,
    and it exits once it sees that this process has. If this process's own
    share or a wait raises, every child is killed and reaped before the
    exception goes on. A child's non-zero exit is a TrainingError. No child
    outlives the call.
    """
    parent = os.getpid()
    live: list[int] = []
    try:
        for share in shares[1:]:
            pid = os.fork()
            if pid == 0:
                _child(run, share, parent)
            live.append(pid)
        run.train_share(shares[0])
        codes = []
        while live:
            codes.append(os.waitstatus_to_exitcode(os.waitpid(live[0], 0)[1]))
            live.pop(0)
    except BaseException:
        for pid in live:
            os.kill(pid, signal.SIGKILL)
        for pid in live:
            os.waitpid(pid, 0)
        raise
    failed = [code for code in codes if code]
    if failed:
        raise TrainingError(f"a training worker exited with status {failed[0]}")


def _child(run: _Lockstep, share, parent: int) -> NoReturn:
    """A forked child's whole life: train one share in place, then exit."""
    code = 1
    try:
        os.closerange(0, os.sysconf("SC_OPEN_MAX"))
        run.train_share(share, parent)
        code = 0
    finally:
        os._exit(code)


def train_heads(examples: list[TrainingExample], embeddings: np.ndarray,
                bank: QuestionBank, cfg: TrainingSection, seed: int) -> QuestionHeads:
    """Train all heads: one document per step, loss over its answered questions only.

    embeddings is (n, d), row i the frozen encoder vector of examples[i]'s
    document. Documents cycle through a fresh seeded permutation each epoch.
    Each head has its own Adam state and bias-correction count, so untouched
    heads keep their init. The steps run as lockstep rounds over chunks of
    heads (see _lockstep_schedule): round r applies every head's r-th touch
    with one set of numpy calls, and each head gets the same updates, bit for
    bit, as in a loop of one document per step.

    Chunks are sized to cache, and to split the touched heads evenly among
    the CPUs this process may run on. One worker per CPU trains a share of
    about equal work: this process one, a forked child each other (see
    _train_shares). Every worker writes its heads' rows and its touches'
    logits in place, into one anonymous shared mapping made before any
    fork. Training stays in this process, with no fork, on one CPU, where
    the platform cannot tell the CPUs, while other threads run, and for
    less work than FORK_MIN_WORK (see _worker_count). The trained bits are
    the same for any number of workers. Deterministic for a fixed seed.
    """
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

    # every answer of every document, by document, then question id
    n = len(examples)
    sizes = np.asarray([len(ex.answers) for ex in examples])
    answer_doc = np.repeat(np.arange(n, dtype=np.int32), sizes)
    answer_qid = np.asarray([q for ex in examples for q in sorted(ex.answers)], dtype=np.int32)
    y = np.asarray([ex.answers[q] for ex in examples for q in sorted(ex.answers)],
                   dtype=np.float64)
    answer_pos_y, answer_neg_y = pos_weight * y, 1.0 - y
    answer_count = np.repeat(sizes.astype(np.float64), sizes)

    # the step -> document order: a fresh permutation per epoch
    rng = np.random.Generator(np.random.PCG64(seed))
    order = np.empty(cfg.steps, dtype=np.int32)
    for lo in range(0, cfg.steps, n):
        order[lo:lo + n] = rng.permutation(n)[:cfg.steps - lo]
    head_ids, counts = _touch_counts(order, answer_doc, answer_qid, bank.m)
    touches = int(counts.sum())

    # params, then one logit per touch, in one anonymous shared mapping: every
    # worker, this process or a forked child, writes its results in place
    m, d, h = bank.m, embeddings.shape[1], cfg.hidden
    P = h * d + 2 * h + 1
    shared = mmap.mmap(-1, 8 * (m * P + touches))
    heads = init_heads(m, d, h, seed, tau=cfg.tau, bank_fingerprint=bank.fingerprint(),
                       params=np.frombuffer(shared, count=m * P).reshape(m, P))
    z = np.frombuffer(shared, offset=8 * m * P)

    workers = _worker_count(len(head_ids), touches * P)
    chunk = min(max(1, TRAIN_CHUNK_BYTES // (8 * P)), -(-len(head_ids) // workers))
    slots = _lockstep_schedule(order, answer_doc, answer_qid, head_ids, counts, chunk)
    steps = functools.cache(lambda: _lockstep_schedule(order, answer_doc, answer_qid, head_ids,
                                                       counts, chunk, with_steps=True)[1])
    run = _Lockstep(heads.params, z, h, d, cfg.learning_rate, embeddings, answer_doc,
                    answer_count, answer_pos_y, answer_neg_y, head_ids, counts, slots, chunk,
                    steps)
    shares = _deal(counts, chunk, workers)
    with np.errstate(all="ignore"):  # divergence is _check_losses' error; children inherit this
        _train_shares(run, shares)
        terms = z  # each touch's logit, turned into its loss term in place
        for lo in range(0, len(terms), TERM_BLOCK):
            answers = slots[lo:lo + TERM_BLOCK]
            terms[lo:lo + len(answers)] = _loss_terms(terms[lo:lo + len(answers)],
                                                      answer_pos_y.take(answers),
                                                      answer_neg_y.take(answers))
        _check_losses(terms, slots, steps, order, sizes, answer_qid)
    return heads


def _check_losses(terms, slots, steps, order, sizes, answer_qid) -> None:
    """Raise for the first step whose loss, the mean of its terms, is not finite.

    If every |term| is at most max / (2 * max(sizes)), no step's sum of at most
    max(sizes) terms can overflow, so every step's mean is finite. Otherwise
    steps() gives each term's step. The search ends at the first step with a
    non-finite term: that step's mean is not finite, and every step up to it
    is complete even where a worker stopped there.
    """
    if max(-terms.min(), terms.max()) <= np.finfo(np.float64).max / (2 * sizes.max()):
        return
    steps = steps()
    bad = ~np.isfinite(terms)
    last = int(steps[bad].min()) if bad.any() else len(order) - 1
    kept = np.flatnonzero(steps <= last)
    # (step, question id) order: answer ids rise with question id within a document
    by_step = kept[np.lexsort((slots[kept], steps[kept]))]
    step_terms, step_slots = terms[by_step], slots[by_step]
    bounds = np.concatenate(([0], np.cumsum(sizes[order[:last + 1]])))
    for step in range(last + 1):
        lo, hi = bounds[step], bounds[step + 1]
        if not math.isfinite(float(step_terms[lo:hi].mean())):
            raise TrainingError(f"non-finite loss at step {step}, "
                                f"question ids {answer_qid[step_slots[lo:hi]].tolist()}")


def _bound_constants(heads: QuestionHeads) -> np.ndarray:
    """(2, m) per-head constants (a, b) of the certified forward's error bound.

    The certified forward takes z' = fl64(fl32(w2 . relu(fl32(W1 fl32(e)) + b1))
    + b2): every step in float32 but the last +b2, which is float64 on the
    upcast sum; forward_logits takes z in float64 from the same float32
    parameters. Per row e and head q,

        |z' - z| <= a_q ||e||_2 + b_q.

    With u = u32, g_n = gamma_n^32, N_j = n_j ||e||_2 for n_j >= ||W1_qj||_2
    and B_j = |b1_qj|, hidden unit j's float32 pre-activation errs by at most
    c N_j + u B_j, c = u + g_d (1 + u) + u (1 + g_d)(1 + u):
    - rounding e to float32 errs by u N_j and the dot product by
      g_d (1 + u) N_j (Cauchy-Schwarz on fl32(e));
    - the +b1 sum errs by u (|its dot product| + B_j), at most
      u ((1 + g_d)(1 + u) N_j + B_j).
    ReLU is 1-Lipschitz, so relu_j errs as much and |relu_j| <= N_j + B_j plus
    that error. The w2 dot errs by g_h sum_j |w2_qj| |relu_j|, and the +b2 sum by
    u64 (|that dot| + |b2_q|); both together by t sum_j |w2_qj| |relu_j| +
    u64 |b2_q|, t = g_h + u64 (1 + g_h). forward_logits' float64 steps,
    gamma_(d+1)^64 and gamma_(h+2)^64 for its dot products and u64 for each
    sum, relative to N_j + B_j and |b2_q|, are within float64_steps. Summed:

        a_q = alpha sum_j |w2_qj| n_j,     alpha = c + t (1 + c) + float64_steps,
        b_q = beta sum_j |w2_qj| B_j + float64_steps |b2_q|
              + sqrt(d) 2**-64 sum_j |w2_qj| + h 2**-148,
                                           beta = u + t (1 + u) + float64_steps.

    The last two terms of b_q cover float32 underflow, in the first layer and
    in the w2 products. The coefficients carry a factor 1 + 2**-20 for the
    second-order terms of the float64 steps and the rounding of the bound itself.

    n_j is a float32 einsum of squares inflated by its own rounding (gamma_d
    for the sum, u32 for the square root), plus sqrt(d) 2**-62 for underflowed
    squares. a = inf, so each bit is recomputed, for a head on which a float32
    step could overflow: n_j above _NORM_LIMIT, sum_j |w2_qj| n_j above
    _WEIGHT_LIMIT, |b1_qj| or sum_j |w2_qj| |b1_qj| above _BIAS_LIMIT, or a NaN.
    On a row of norm up to _NORM_LIMIT, every partial sum of the other heads
    stays below 2**127. And a = inf for all heads when d u32 or h u32 > 1/4.
    """
    W1, h, d = heads.W1, heads.h, heads.d
    root_d = math.sqrt(d)
    g_d, g_h = _gamma(d, _U32), _gamma(h, _U32)
    first = _U32 + g_d * (1.0 + _U32) + _U32 * (1.0 + g_d) * (1.0 + _U32)
    tail = g_h + _U64 * (1.0 + g_h)
    float64_steps = _gamma(d + 1, _U64) + 2.0 * _gamma(h + 2, _U64) + 2.0 * _U64
    scale = 1.0 + 2.0 ** -20
    alpha = (first + tail * (1.0 + first) + float64_steps) * scale
    beta = (_U32 + tail * (1.0 + _U32) + float64_steps) * scale
    beta_b2 = float64_steps * scale
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.einsum("qhd,qhd->qh", W1, W1), dtype=np.float64)
        norms *= 1.0 + 2.0 * (g_d + _U32)
        norms += root_d * 2.0 ** -62
        w2 = np.abs(np.asarray(heads.w2, dtype=np.float64))
        b1 = np.abs(np.asarray(heads.b1, dtype=np.float64))
        weighted_norms = np.einsum("qh,qh->q", w2, norms)
        weighted_b1 = np.einsum("qh,qh->q", w2, b1)
        fits = ((max(d, h) * _U32 <= 0.25) & (norms.max(axis=1, initial=0.0) <= _NORM_LIMIT)
                & (weighted_norms <= _WEIGHT_LIMIT) & (b1.max(axis=1, initial=0.0) <= _BIAS_LIMIT)
                & (weighted_b1 <= _BIAS_LIMIT))
        bounds = np.stack([np.where(fits, alpha * weighted_norms, np.inf),
                           beta * weighted_b1 + beta_b2 * np.abs(heads.b2.astype(np.float64))
                           + root_d * 2.0 ** -64 * w2.sum(axis=1) + h * 2.0 ** -148])
    return bounds


def _logit_threshold(tau: float) -> tuple[float, float]:
    """logit(tau) and a slack s: a bit whose z lies farther than s from it is
    z > logit(tau). s is inf for tau outside [_TAU_MARGIN, 1 - _TAU_MARGIN].

    s covers the rounding of logit(tau) (log and log1p each within
    _EXP_LOG_ERROR, then one subtraction) and of the sigmoid: its relative
    error eps <= 2 _EXP_LOG_ERROR + 4 u64 moves the bit's boundary by at most
    3 eps / (1 - tau) in logit space while tau eps / (1 - tau) <= 1/2. Both
    carry a factor 2.
    """
    log_tau, log_rest = math.log(tau), math.log1p(-tau)
    threshold = log_tau - log_rest
    if not _TAU_MARGIN <= tau <= 1.0 - _TAU_MARGIN:
        return threshold, math.inf
    sigmoid_error = 2.0 * _EXP_LOG_ERROR + 4.0 * _U64
    slack = (3.0 * sigmoid_error / (1.0 - tau)
             + _EXP_LOG_ERROR * (abs(log_tau) + abs(log_rest)) + _U64 * abs(threshold)
             + 2.0 ** -900)
    return threshold, 2.0 * slack


def _float32_logits(heads: QuestionHeads, chunk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The certified forward of loaded heads on (rows, d) float64 rows: logits
    z' (rows, m), every step in float32 (a batched matmul per layer, +b1 and
    ReLU in place on the first one's output) but the last +b2 in float64, and
    the bound (rows, m) of heads.bounds with |z' - forward_logits| <= bound.

    The float32 steps run per contiguous range of heads, one range per
    thread of _forward_workers, each writing its heads' logits into one
    float32 array (see _in_threads): no thread outlives the call, and a
    head's logits do not depend on its range.

    A row whose norm exceeds _NORM_LIMIT or is not finite gets an infinite or
    NaN bound, as does every row on a head whose float32 steps could overflow.
    Every thread runs under this np.errstate, so such rows and heads raise no
    warnings.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rows = chunk.astype(np.float32)
        # (m, rows, h), so that +b1 runs along its contiguous last axis; allocated
        # here, since memory a thread allocates stays in its own malloc arena
        hidden = np.empty((heads.m, len(rows), heads.h), dtype=np.float32)
        z = np.empty((heads.m, len(rows)), dtype=np.float32)
        _in_threads(functools.partial(_float32_range, heads, rows, hidden, z), heads.m,
                    _forward_workers(heads, len(rows)))
        z = z.T.astype(np.float64)
        z += heads.b2
        norms = np.sqrt(np.einsum("nd,nd->n", chunk, chunk))
        norms *= 1.0 + 2.0 * _gamma(heads.d + 2, _U64)  # its own rounding
        norms += 2.0 ** -500  # underflowed squares
        norms[~(norms <= _NORM_LIMIT)] = np.inf
        bound = np.multiply.outer(norms, heads.bounds[0])
        bound += heads.bounds[1]
    return z, bound


def _float32_range(heads: QuestionHeads, rows: np.ndarray, hidden: np.ndarray, z: np.ndarray,
                   lo: int, hi: int) -> None:
    """The float32 logits of heads lo:hi on float32 rows into z[lo:hi], their
    hidden layer into hidden[lo:hi]."""
    block = hidden[lo:hi]
    np.matmul(rows, heads.W1[lo:hi].transpose(0, 2, 1), out=block)
    block += heads.b1[lo:hi, None, :]
    np.maximum(block, 0.0, out=block)
    z[lo:hi] = np.matmul(block, heads.w2[lo:hi, :, None])[:, :, 0]


def _forward_workers(heads: QuestionHeads, rows: int) -> int:
    """Threads of the certified forward on rows rows: one per usable CPU, at
    most one per head. One, in the calling thread, below FORWARD_SPLIT_MIN_WORK
    and while the process runs threads Python did not start, such as BLAS
    workers: such a BLAS already splits the large GEMMs, and a second caller
    only contends with its workers (2 CPUs, 2 BLAS threads: a 64-row screen at
    m=512, h=128, d=256 took 49-52 ms split against 41-43 ms in one thread)."""
    if (heads.W1.size * (rows + FORWARD_STREAM_ROWS) < FORWARD_SPLIT_MIN_WORK
            or _foreign_threads()):
        return 1
    return min(_usable_cpus(), heads.m)


def _foreign_threads() -> bool:
    """Whether this process runs threads that Python did not start; False
    where the platform does not list a process's threads."""
    try:
        return len(os.listdir("/proc/self/task")) > threading.active_count()
    except OSError:
        return False


def _in_threads(work, m: int, workers: int) -> None:
    """work(lo, hi) over m heads cut into workers contiguous ranges of about
    equal size: the first range in this thread, each other in a thread of its
    own, under this thread's np.errstate. Every thread is joined before this
    returns or raises, so none outlives the call; an exception in a thread is
    raised here after the joins."""
    if workers == 1:
        work(0, m)
        return
    cuts = [m * i // workers for i in range(workers + 1)]
    errors: list[BaseException] = []
    errstate = np.geterr()

    def guarded(lo: int, hi: int) -> None:
        try:
            with np.errstate(**errstate):  # a new thread does not inherit it
                work(lo, hi)
        except BaseException as exc:
            errors.append(exc)

    threads: list[threading.Thread] = []
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            thread = threading.Thread(target=guarded, args=(lo, hi))
            thread.start()
            threads.append(thread)
        work(cuts[0], cuts[1])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _screen_rows(heads: QuestionHeads, n_taus: int) -> int:
    """Rows per certified-forward screen at n_taus taus: the most whole
    FORWARD_CHUNK blocks, at least one, whose larger temporary fits in
    _SCREEN_BYTES, the (m, rows, h) float32 hidden layer or an
    (n_taus, rows, m) float64 array of logits."""
    block_bytes = 4 * heads.m * max(heads.h, 2 * n_taus) * FORWARD_CHUNK
    return FORWARD_CHUNK * max(1, _SCREEN_BYTES // max(1, block_bytes))


def embedding_bits(heads: QuestionHeads, embeddings: np.ndarray,
                   taus: list[float]) -> np.ndarray:
    """(len(taus), n, m) uint8 bits: bits[k] is sigmoid(forward_logits(heads,
    embeddings, every head id)) > taus[k].

    Each screen of _screen_rows rows runs the certified forward
    (_float32_logits) once, on as many threads as _forward_workers gives,
    all joined before it returns. A bit is decided there when its logit lies
    farther from logit(tau) than the bound plus that tau's slack
    (_logit_threshold). In each FORWARD_CHUNK block of the screen's rows,
    every head with an undecided (row, head) pair at any tau, NaN and inf
    included, is recomputed once by forward_logits over the block, and each
    tau takes its undecided bits from that one recompute; an infinite bound
    or slack sends every pair there. Screens are whole blocks, so a block's
    rows are the rows forward_logits groups in one GEMM. Heads without
    load_heads' bounds raise TrainingError.
    """
    for tau in taus:
        if not 0.0 < tau < 1.0:
            raise TrainingError(f"tau must be in (0, 1), got {tau}")
    if heads.m == 0:
        raise TrainingError("heads are empty")
    e = np.asarray(embeddings, dtype=np.float64)
    if e.ndim != 2 or e.shape[1] != heads.d:
        raise TrainingError(f"embeddings of shape {e.shape} for heads of width {heads.d}")
    if heads.bounds is None:
        raise TrainingError("only heads loaded by load_heads give embedding bits")
    # tau, logit(tau) and slack, each (len(taus), 1, 1) against a screen's (rows, m)
    limits = np.reshape([(tau, *_logit_threshold(tau)) for tau in taus], (-1, 3))
    cut, threshold, slack = limits.T[..., None, None]
    bits = np.empty((len(taus), len(e), heads.m), dtype=np.uint8)
    screen = _screen_rows(heads, len(taus))
    for lo in range(0, len(e), screen):
        chunk = e[lo:lo + screen]
        out = bits[:, lo:lo + len(chunk)]
        z, bound = _float32_logits(heads, chunk)
        z = z - threshold  # rounding is monotone: fl(z - t) > bound implies z - t > bound
        np.greater(z, 0.0, out=out)
        undecided = ~(np.abs(z) > bound + slack)  # so NaN in z or a bound is undecided
        # the heads with an undecided pair at any tau, block by block
        starts = np.arange(0, len(chunk), FORWARD_CHUNK)
        redo_heads = np.logical_or.reduceat(undecided.any(axis=0), starts, axis=0)
        for block in np.flatnonzero(redo_heads.any(axis=1)):
            rows = slice(starts[block], starts[block] + FORWARD_CHUNK)
            qs = np.flatnonzero(redo_heads[block])
            redo = undecided[:, rows, qs]
            cols = out[:, rows, qs]
            cols[redo] = (sigmoid(forward_logits(heads, chunk[rows], qs)) > cut)[redo]
            out[:, rows, qs] = cols
    return bits


def embed_vectors(embeddings: np.ndarray, heads: QuestionHeads, tau: float | None = None,
                  row_ids: list[str] | None = None) -> BinaryMatrix:
    """Binary embeddings of (n, d) encoder vectors, columns in bank id order."""
    tau = heads.tau_default if tau is None else tau
    return BinaryMatrix.from_dense(embedding_bits(heads, embeddings, [tau])[0], row_ids)


def embed_documents(doc_texts: list[str], encoder: Encoder, heads: QuestionHeads,
                    tau: float | None = None,
                    row_ids: list[str] | None = None) -> BinaryMatrix:
    """Binary embeddings for documents: one encoder pass, then embed_vectors."""
    embeddings = encoder.encode(doc_texts) if doc_texts else np.zeros((0, heads.d))
    return embed_vectors(embeddings, heads, tau, row_ids)


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class ClassificationReport:
    no: ClassMetrics
    yes: ClassMetrics
    accuracy: float
    macro: tuple[float, float, float]
    weighted: tuple[float, float, float]
    total: int


def classification_report(y_true: np.ndarray, y_pred: np.ndarray) -> ClassificationReport:
    """Binary yes(1)/no(0) report; zero-denominator rates are 0 by convention."""
    y_true = np.asarray(y_true).astype(np.int64)
    y_pred = np.asarray(y_pred).astype(np.int64)
    if y_true.shape != y_pred.shape or y_true.size == 0:
        raise TrainingError("need equal-length non-empty label arrays")

    def rate(num: int, den: int) -> float:
        return num / den if den else 0.0

    per_class = {}
    for cls in (0, 1):
        tp = int(np.sum((y_pred == cls) & (y_true == cls)))
        precision = rate(tp, int(np.sum(y_pred == cls)))
        recall = rate(tp, int(np.sum(y_true == cls)))
        f1 = rate(2 * precision * recall, precision + recall) if precision + recall else 0.0
        per_class[cls] = ClassMetrics(precision=precision, recall=recall, f1=f1,
                                      support=int(np.sum(y_true == cls)))
    total = int(y_true.size)
    accuracy = float(np.mean(y_true == y_pred))
    macro = tuple(
        (getattr(per_class[0], f) + getattr(per_class[1], f)) / 2.0
        for f in ("precision", "recall", "f1"))
    weighted = tuple(
        (getattr(per_class[0], f) * per_class[0].support
         + getattr(per_class[1], f) * per_class[1].support) / total
        for f in ("precision", "recall", "f1"))
    return ClassificationReport(no=per_class[0], yes=per_class[1], accuracy=accuracy,
                                macro=macro, weighted=weighted, total=total)


def evaluate_heldout(heads: QuestionHeads, embeddings: np.ndarray,
                     examples: list[TrainingExample],
                     tau: float | None = None) -> ClassificationReport:
    """Held-out answer agreement: predicted bits vs LLM answers over all pairs,
    at tau, or heads.tau_default if None, as in embed_vectors.

    embeddings is (n, d), row i the encoder vector of examples[i]'s document.
    """
    if not examples:
        raise TrainingError("held-out set is empty")
    tau = heads.tau_default if tau is None else tau
    bits = embedding_bits(heads, _example_rows(embeddings, examples), [tau])[0]
    pairs = np.asarray([(row, qid, answer) for row, ex in enumerate(examples)
                        for qid, answer in sorted(ex.answers.items())], dtype=np.int64)
    rows, qids, trues = pairs.T
    return classification_report(trues, bits[rows, qids])


def save_heads(heads: QuestionHeads, path: str | Path) -> None:
    """Header json line + params as float32: one [W1, b1, w2, b2] block per head."""
    header = {"m": heads.m, "d": heads.d, "h": heads.h, "seed": heads.seed,
              "tau_default": heads.tau_default, "bank_fingerprint": heads.bank_fingerprint}
    with replacing(path, "wb") as fh:
        fh.write(dumps(header).encode("utf-8"))
        fh.write(heads.params.astype(np.float32, order="C"))  # row i = head i's block


def load_heads(path: str | Path) -> QuestionHeads:
    """Inverse of save_heads; a torn or malformed file raises TrainingError naming it.

    The float32 payload is read into one aligned (m, P) array, made read-only,
    with no float64 copy; the certified forward's constants are computed here once.
    """
    with open(path, "rb") as fh:
        try:
            line = fh.readline()
            if not line.endswith(b"\n"):
                raise ValueError("no header line")
            header = json.loads(line)
            m, d, h = (int(header[key]) for key in ("m", "d", "h"))
            if min(m, d, h) < 0:
                raise ValueError(f"negative shape m={m} d={d} h={h}")
            payload = os.fstat(fh.fileno()).st_size - len(line)
            if payload != 4 * m * (h * d + 2 * h + 1):
                raise ValueError(f"{payload} payload bytes for m={m} d={d} h={h}")
            params = np.empty((m, h * d + 2 * h + 1), dtype=np.float32)
            if fh.readinto(params.reshape(-1).view(np.uint8)) != payload:
                raise ValueError("payload shorter than its size")
            params.flags.writeable = False
            heads = QuestionHeads(params=params, h=h, d=d, seed=header["seed"],
                                  tau_default=header["tau_default"],
                                  bank_fingerprint=header["bank_fingerprint"])
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise TrainingError(f"corrupt heads file {path}: {type(exc).__name__}: {exc}") from exc
    heads.bounds = _bound_constants(heads)
    return heads
