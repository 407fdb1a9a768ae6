import fcntl
import hashlib
import mmap
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from oracle import (document_loss, document_loss_and_grads, head_forward, masked_sigmoid,
                    parameter_arrays, reference_forward_logits, reference_train_heads)
import qembed
from qembed import heads as heads_module
from qembed.config import TrainingSection
from qembed.heads import (
    ADAM_BETA1,
    FORWARD_CHUNK,
    FORWARD_HEAD_BYTES,
    TRAIN_CHUNK_BYTES,
    ClassificationReport,
    TrainingError,
    QuestionHeads,
    TrainingExample,
    _bound_constants,
    _float32_logits,
    _forward_workers,
    _logit_threshold,
    _screen_rows,
    classification_report,
    compute_pos_weight,
    embed_documents,
    embed_vectors,
    embedding_bits,
    evaluate_heldout,
    forward_logits,
    init_heads,
    load_heads,
    save_heads,
    sigmoid,
    train_heads,
)
from qembed.pipeline import write_demo_workspace
from qembed.providers import MockEncoder
from qembed.question_gen import BankQuestion, QuestionBank
from test_acceptance import DEMO_DIGESTS

# the worker counts training is checked at: in process, and forked two and three ways
WORKER_COUNTS = (1, 2, 3)


def toy_bank(m, dim=8):
    questions = [BankQuestion(id=i, text=f"Is it question {i}?", origin_cluster=0,
                              quality=0.5, embedding=np.zeros(dim)) for i in range(m)]
    return QuestionBank(questions=questions, theta=0.8, t=4, encoder_fingerprint="test")


class TestForward:
    def test_all_zero_parameters_give_zero_logit(self):
        heads = init_heads(m=2, d=4, h=3, seed=0)
        for arr in parameter_arrays(heads).values():
            arr[:] = 0.0
        assert head_forward(heads, np.ones(4), 0) == 0.0

    def test_bias_only_head_is_constant(self):
        heads = init_heads(m=1, d=4, h=3, seed=0)
        heads.W1[:] = 0.0
        heads.b1[:] = 0.0
        heads.b2[:] = 2.5
        for e in (np.zeros(4), np.ones(4), np.arange(4.0)):
            assert head_forward(heads, e, 0) == pytest.approx(2.5 + heads.w2[0].sum() * 0.0)

    def test_matches_manual_recomputation(self):
        rng = np.random.Generator(np.random.PCG64(1))
        heads = init_heads(m=3, d=3, h=4, seed=7)
        e = rng.standard_normal(3)
        for i in range(3):
            hidden = np.maximum(heads.W1[i] @ e + heads.b1[i], 0.0)
            expected = float(heads.w2[i] @ hidden + heads.b2[i])
            assert head_forward(heads, e, i) == pytest.approx(expected, abs=1e-6)

    def test_forward_logits_agrees_with_per_head(self):
        heads = init_heads(m=5, d=6, h=4, seed=3)
        e = np.random.default_rng(0).standard_normal((1, 6))
        all_logits = forward_logits(heads, e, np.arange(5))
        assert all_logits.shape == (1, 5)
        for i in range(5):
            assert all_logits[0, i] == pytest.approx(head_forward(heads, e[0], i), abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        heads = init_heads(m=1, d=4, h=2, seed=0)
        with pytest.raises(TrainingError):
            head_forward(heads, np.ones(5), 0)


class TestSigmoid:
    @pytest.mark.parametrize("x", [
        np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 709.0, -709.0, 745.0, -745.0,
                  1e-320, -1e-320]),
        50.0 * np.random.default_rng(0).standard_normal(10_000),
        np.array(-3.25),
    ], ids=["edges", "normals", "0-d"])
    def test_matches_masked_formula_bit_for_bit(self, x):
        new, old = sigmoid(x), masked_sigmoid(x)
        assert new.shape == old.shape
        nan = np.isnan(old)
        np.testing.assert_array_equal(np.isnan(new), nan)  # NaN stays NaN; its sign is moot
        assert (new[~nan].view(np.int64) == old[~nan].view(np.int64)).all()


def finite_difference_grads(heads, e, qids, labels, pw, delta=1e-6):
    grads = {}
    for name, arr in parameter_arrays(heads).items():
        sub = arr[qids]
        grad = np.zeros_like(sub)
        it = np.nditer(sub, flags=["multi_index"])
        while not it.finished:
            idx = (qids[it.multi_index[0]],) + it.multi_index[1:]
            original = arr[idx]
            arr[idx] = original + delta
            up = document_loss(heads, e, qids, labels, pw)
            arr[idx] = original - delta
            down = document_loss(heads, e, qids, labels, pw)
            arr[idx] = original
            grad[it.multi_index] = (up - down) / (2 * delta)
            it.iternext()
        grads[name] = grad
    return grads


class TestGradients:
    def test_analytic_matches_central_differences(self):
        rng = np.random.Generator(np.random.PCG64(11))
        for seed in range(3):
            heads = init_heads(m=4, d=8, h=5, seed=seed)
            e = rng.standard_normal(8)
            qids = np.array([0, 2, 3])
            labels = np.array([1.0, 0.0, 1.0])
            pw = 2.5
            _, analytic = document_loss_and_grads(heads, e, qids, labels, pw)
            numeric = finite_difference_grads(heads, e, qids, labels, pw)
            for name in analytic:
                scale = np.maximum(np.abs(numeric[name]), 1e-6)
                rel = np.abs(analytic[name] - numeric[name]) / scale
                assert rel.max() < 1e-4, f"{name} rel err {rel.max():.2e}"

    def test_label_swap_symmetry_with_unit_weight(self):
        heads = init_heads(m=3, d=6, h=4, seed=5)
        e = np.random.default_rng(2).standard_normal(6)
        qids = np.array([0, 1, 2])
        labels = np.array([1.0, 0.0, 1.0])
        base = document_loss(heads, e, qids, labels, pos_weight=1.0)
        heads.w2 *= -1.0
        heads.b2 *= -1.0
        flipped = document_loss(heads, e, qids, 1.0 - labels, pos_weight=1.0)
        assert flipped == pytest.approx(base, abs=1e-12)


class TestPosWeight:
    def test_paper_scale_supports(self):
        examples = [TrainingExample("d-yes", {0: 1})] * 112_645 + \
                   [TrainingExample("d-no", {0: 0})] * 846_089
        assert compute_pos_weight(examples) == pytest.approx(7.5111, abs=1e-4)

    def test_balanced_is_one(self):
        examples = [TrainingExample("a", {0: 1, 1: 0})] * 50
        assert compute_pos_weight(examples) == 1.0

    def test_minority_no(self):
        examples = [TrainingExample("a", {i: 1}) for i in range(90)] + \
                   [TrainingExample("b", {i: 0}) for i in range(10)]
        assert compute_pos_weight(examples) == pytest.approx(0.1111, abs=1e-4)

    def test_single_class_is_error(self):
        with pytest.raises(TrainingError):
            compute_pos_weight([TrainingExample("a", {0: 1})])


def constant_heads(tmp_path, probabilities, tau=TrainingSection.tau):
    """Loaded heads (d=4) whose head q answers yes with probabilities[q] on
    every row: all weights zero, and b2 the logit of that probability."""
    p = np.asarray(probabilities, dtype=np.float64)
    heads = init_heads(m=len(p), d=4, h=2, seed=0, tau=tau)
    heads.params[:] = 0.0
    heads.b2[:] = np.log(p) - np.log1p(-p)
    return loaded(heads, tmp_path)


class TestBinarize:
    """embedding_bits thresholds at each tau: bit 1 iff the probability
    strictly exceeds tau."""

    def test_boundary_is_strict(self, tmp_path):
        heads = constant_heads(tmp_path, [0.5])  # logit 0 exactly
        bits = embedding_bits(heads, np.ones((1, 4)), [0.5, 0.5 - 2.0 ** -40])
        assert bits[:, 0, 0].tolist() == [0, 1]

    def test_basic(self, tmp_path):
        heads = constant_heads(tmp_path, [0.9, 0.1])
        np.testing.assert_array_equal(embedding_bits(heads, np.ones((2, 4)), [0.5]),
                                      [[[1, 0], [1, 0]]])

    def test_high_threshold_zeroes_everything(self, tmp_path):
        heads = constant_heads(tmp_path, np.linspace(0.01, 0.98, 20))
        assert embedding_bits(heads, np.ones((3, 4)), [0.99]).sum() == 0

    def test_monotone_in_tau(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(4))
        fresh = init_heads(m=64, d=8, h=4, seed=4)
        fresh.b2[:] += rng.normal(0.0, 2.0, size=64)
        taus = [0.1, 0.2, 0.4, 0.5, 0.7, 0.9]
        bits = embedding_bits(loaded(fresh, tmp_path), rng.standard_normal((40, 8)), taus)
        assert 0 < bits[-1].sum() < bits[0].sum()
        assert np.all(bits[1:] <= bits[:-1])  # raising tau never flips 0 -> 1

    def test_tau_range_validated(self, tmp_path):
        heads = constant_heads(tmp_path, [0.5])
        for taus in ([0.0], [0.5, 1.0], [-0.1, 0.5], [float("nan")]):
            with pytest.raises(TrainingError, match=r"tau must be in \(0, 1\)"):
                embedding_bits(heads, np.ones((1, 4)), taus)


def hyperplane_data(encoder, n_docs, m, seed, margin_quantile=0.0):
    """Labels = sign of fixed random hyperplanes over mock embeddings.

    With margin_quantile > 0 each question is answered only by documents whose
    distance to that hyperplane clears the quantile, so every answered pair
    carries a margin and the concept is learnable from a small sample. Answers
    stay masked per document, matching the training contract.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    planes = rng.standard_normal((m, encoder.dim))
    candidates = [f"document number {i} topic {i % 17} word{i * 7 % 29}"
                  for i in range(2 * n_docs)]
    embeddings = encoder.encode(candidates)
    dots = embeddings @ planes.T  # (2n, m)
    thresholds = np.quantile(np.abs(dots), margin_quantile, axis=0)
    texts, examples = {}, []
    for i, text in enumerate(candidates):
        if len(examples) >= n_docs:
            break
        answers = {q: int(dots[i, q] > 0) for q in range(m)
                   if abs(dots[i, q]) >= thresholds[q]}
        if not answers:
            continue
        doc = f"doc{i:05d}"
        texts[doc] = text
        examples.append(TrainingExample(doc, answers))
    return texts, examples


def vectors(encoder, texts, examples):
    """Encoder rows of the examples' documents, in example order."""
    return encoder.encode([texts[ex.document_id] for ex in examples])


class TestTraining:
    def test_same_seed_is_bit_identical(self):
        encoder = MockEncoder(dim=16, seed=0)
        texts, examples = hyperplane_data(encoder, n_docs=12, m=3, seed=0)
        cfg = TrainingSection(learning_rate=1e-3, steps=50, hidden=4)
        a = train_heads(examples, vectors(encoder, texts, examples), toy_bank(3), cfg=cfg, seed=9)
        b = train_heads(examples, vectors(encoder, texts, examples), toy_bank(3), cfg=cfg, seed=9)
        for name in ("W1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(parameter_arrays(a)[name],
                                          parameter_arrays(b)[name])

    def test_untouched_heads_keep_init_parameters(self):
        encoder = MockEncoder(dim=16, seed=0)
        texts = {"d0": "alpha beta gamma", "d1": "delta epsilon zeta"}
        # question 2 never answered by anyone
        examples = [TrainingExample("d0", {0: 1, 1: 0}),
                    TrainingExample("d1", {0: 0, 1: 1})]
        cfg = TrainingSection(learning_rate=1e-3, steps=40, hidden=4, pos_weight="none")
        trained = train_heads(examples, vectors(encoder, texts, examples), toy_bank(3),
                              cfg=cfg, seed=2)
        init = init_heads(3, 16, 4, seed=2, tau=cfg.tau,
                          bank_fingerprint=toy_bank(3).fingerprint())
        np.testing.assert_array_equal(trained.W1[2], init.W1[2])
        np.testing.assert_array_equal(trained.b2[2:3], init.b2[2:3])
        assert not np.array_equal(trained.W1[0], init.W1[0])

    def test_single_point_capacity(self):
        encoder = MockEncoder(dim=12, seed=1)
        texts = {"only": "a single training document"}
        examples = [TrainingExample("only", {0: 1})]
        cfg = TrainingSection(learning_rate=1e-2, steps=2000, hidden=4, pos_weight="none")
        heads = train_heads(examples, vectors(encoder, texts, examples), toy_bank(1, dim=12),
                            cfg=cfg, seed=0)
        prob = sigmoid(np.array([head_forward(heads, encoder.encode(
            [texts["only"]])[0], 0)]))[0]
        assert abs(prob - 1.0) < 0.05

    def test_linearly_separable_heldout_accuracy(self, tmp_path):
        encoder = MockEncoder(dim=16, seed=2)
        texts, examples = hyperplane_data(encoder, n_docs=200, m=4, seed=3,
                                          margin_quantile=0.75)
        train, heldout = examples[:160], examples[160:]
        cfg = TrainingSection(learning_rate=3e-3, steps=20_000, hidden=16)
        heads = loaded(train_heads(train, vectors(encoder, texts, train), toy_bank(4, dim=16),
                                   cfg=cfg, seed=1), tmp_path)
        report = evaluate_heldout(heads, vectors(encoder, texts, heldout), heldout, tau=0.5)
        assert report.accuracy >= 0.99

    def test_unknown_question_id_rejected(self):
        encoder = MockEncoder(dim=8, seed=0)
        with pytest.raises(TrainingError, match="unknown question"):
            train_heads([TrainingExample("d", {7: 1})], encoder.encode(["text"]),
                        toy_bank(2), cfg=TrainingSection(steps=1, hidden=2, pos_weight="none"),
                        seed=0)

    def test_embedding_rows_must_match_examples(self):
        examples = [TrainingExample("d", {0: 1})]
        with pytest.raises(TrainingError, match="one row per example"):
            train_heads(examples, np.zeros((2, 8)), toy_bank(1),
                        cfg=TrainingSection(steps=1, hidden=2, pos_weight="none"), seed=0)
        with pytest.raises(TrainingError, match="one row per example"):
            evaluate_heldout(init_heads(1, 8, 2, seed=0), np.zeros(8), examples)

    def test_heldout_tau_defaults_to_the_heads_tau(self, tmp_path):
        """evaluate_heldout without tau scores at heads.tau_default, as
        embed_vectors embeds: yes-probability 0.4 is a yes at 0.3, a no at 0.5."""
        heads = constant_heads(tmp_path, [0.4], tau=0.3)
        assert heads.tau_default == 0.3
        examples = [TrainingExample("d", {0: 1})]
        E = np.ones((1, 4))
        assert evaluate_heldout(heads, E, examples).accuracy == 1.0
        assert evaluate_heldout(heads, E, examples, tau=0.5).accuracy == 0.0
        assert embed_vectors(E, heads).row(0).tolist() == [1]

    def test_empty_answers_rejected_at_construction(self):
        with pytest.raises(TrainingError):
            TrainingExample("d", {})


def random_training_set(seed, m, d, n_docs, q_range, used_heads=None):
    """n_docs examples answering between q_range[0] and q_range[1] questions each,
    drawn from used_heads (default all m), with (n_docs, d) normal embeddings."""
    rng = np.random.Generator(np.random.PCG64(seed))
    pool = np.arange(m if used_heads is None else used_heads)
    examples = []
    for i in range(n_docs):
        q = int(rng.integers(q_range[0], q_range[1] + 1))
        qids = rng.choice(pool, size=q, replace=False)
        examples.append(TrainingExample(f"doc{i}", {int(qid): int(rng.random() < 0.3)
                                                    for qid in qids}))
    # both classes present, so compute_pos_weight has a weight to give
    examples[0] = TrainingExample("doc0", {int(pool[0]): 1, int(pool[-1]): 0})
    return examples, rng.standard_normal((n_docs, d))


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) makes train_heads see n usable CPUs and fork for any amount of
    work, so that it trains on min(n, touched heads) workers."""
    def set_cpus(n):
        monkeypatch.setattr(heads_module, "_usable_cpus", lambda: n)
        monkeypatch.setattr(heads_module, "FORK_MIN_WORK", 0)
    return set_cpus


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children os.fork makes in this process during the test."""
    made = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return made


def assert_reaped(pids):
    """Every pid was a child of this process and has been waited for."""
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def train_at_each_worker_count(cpus, forks, train):
    """train() at each of WORKER_COUNTS: its result, or its TrainingError's
    message, each time; forked exactly when more than one worker trains."""
    results = []
    for workers in WORKER_COUNTS:
        cpus(workers)
        before = len(forks)
        try:
            results.append(train())
        except TrainingError as exc:
            results.append(str(exc))
        assert (len(forks) > before) == (workers > 1), workers
    assert_reaped(forks)
    return results


class TestTrainingMatchesReference:
    """train_heads keeps every bit of the allocating reference loop in tests/oracle.py."""

    @pytest.mark.parametrize("m,h,d,n_docs,q_range,used,pos_weight,steps", [
        (16, 16, 64, 180, (4, 13), None, "auto", 400),   # demo shape
        (12, 6, 16, 30, (1, 12), None, "auto", 300),     # uneven answers, q=1 included
        (10, 5, 8, 20, (1, 4), 6, "auto", 200),          # heads 6-9 never answered
        (8, 4, 8, 25, (2, 6), None, "3.7", 200),         # explicit pos_weight
        (9, 4, 8, 7, (1, 9), None, "auto", 52),          # steps not a multiple of n
        (64, 8, 32, 40, (5, 20), None, "auto", 300),     # m=64, h=8, d=32
        (40, 32, 64, 30, (5, 20), None, "auto", 120),    # two head chunks
        (6, 4, 8, 10, (6, 6), None, "auto", 60),         # tied touch counts
        (4, 4, 8, 12, (3, 4), None, "auto", 1500),       # 356+ touches: bias1 is 1.0
        (5, 4, 8, 1, (2, 2), None, "auto", 50),          # one document
        (8, 4, 8, 30, (1, 5), None, "auto", 17),         # steps < n
        (8, 4, 8, 10, (2, 5), None, "auto", 1),          # one step
    ], ids=["demo", "uneven", "untouched", "pos-weight", "partial-epoch", "m64",
            "two-chunks", "tied-counts", "bias1-one", "one-doc", "steps-lt-n", "one-step"])
    def test_params_bit_identical(self, cpus, forks, m, h, d, n_docs, q_range, used,
                                  pos_weight, steps):
        """At every worker count."""
        examples, embeddings = random_training_set(0, m, d, n_docs, q_range, used)
        if q_range[0] == 1:
            assert min(len(ex.answers) for ex in examples) == 1
        cfg = TrainingSection(learning_rate=3e-3, steps=steps, hidden=h,
                              pos_weight=pos_weight)
        want = reference_train_heads(examples, embeddings, toy_bank(m), cfg=cfg, seed=5)
        init = init_heads(m, d, h, seed=5)
        for got in train_at_each_worker_count(
                cpus, forks, lambda: train_heads(examples, embeddings, toy_bank(m), cfg=cfg,
                                                 seed=5)):
            assert (got.params.view(np.int64) == want.params.view(np.int64)).all()
            if used is not None:
                assert (got.params[used:].view(np.int64)
                        == init.params[used:].view(np.int64)).all()

    def test_mostly_dead_relu_units(self, cpus, forks):
        """A large step kills most hidden units. Their gradients are zeros of
        either sign, and exact zeros and negative zeros in the embeddings give
        more: the W1 outer product may flip a zero's sign, and no bit may move."""
        examples, embeddings = random_training_set(0, 8, 8, 30, (2, 6))
        embeddings[:, ::2] = 0.0
        embeddings[:, 1::4] = -0.0
        cfg = TrainingSection(learning_rate=0.2, steps=300, hidden=6)
        want = reference_train_heads(examples, embeddings, toy_bank(8), cfg=cfg, seed=5)
        for got in train_at_each_worker_count(
                cpus, forks, lambda: train_heads(examples, embeddings, toy_bank(8), cfg=cfg,
                                                 seed=5)):
            assert (got.params.view(np.int64) == want.params.view(np.int64)).all()
        hidden = np.einsum("qhd,nd->nqh", want.W1, embeddings) + want.b1
        assert (hidden <= 0.0).mean() > 0.75

    def test_edge_cases_reach_their_paths(self):
        """The cases above cover what they are named for."""
        # two-chunks: fewer rows fit one chunk than there are heads
        assert TRAIN_CHUNK_BYTES // init_heads(1, 64, 32, seed=0).params.nbytes < 40
        # tied-counts: every document but doc0 answers all 6 questions, so
        # questions 1 to 4 are touched on the same steps
        examples, _ = random_training_set(0, 6, 8, 10, (6, 6))
        assert all(len(ex.answers) == 6 for ex in examples[1:])
        # bias1-one: 1 - 0.9**t rounds to 1.0 from t = 356, and each head is
        # answered by at least 3 of the 12 documents over 125 full epochs
        assert 1.0 - ADAM_BETA1 ** 356.0 == 1.0 != 1.0 - ADAM_BETA1 ** 355.0
        examples, _ = random_training_set(0, 4, 8, 12, (3, 4))
        answered = [sum(q in ex.answers for ex in examples) for q in range(4)]
        assert min(answered) * (1500 // 12) >= 356

    def test_non_finite_loss_names_the_step(self, cpus, forks):
        examples, embeddings = random_training_set(3, 8, 8, 10, (2, 5))
        embeddings[4, 2] = np.inf
        cfg = TrainingSection(learning_rate=3e-3, steps=20, hidden=4)
        got = train_at_each_worker_count(
            cpus, forks, lambda: train_heads(examples, embeddings, toy_bank(8), cfg=cfg, seed=1))
        with np.errstate(all="ignore"), pytest.raises(TrainingError) as want:
            reference_train_heads(examples, embeddings, toy_bank(8), cfg=cfg, seed=1)
        assert "non-finite loss at step" in str(want.value)
        assert got == [str(want.value)] * len(WORKER_COUNTS)

    def test_divergence_after_step_zero_across_chunks(self, cpus, forks):
        m, n, seed = 40, 20, 4
        examples, embeddings = random_training_set(1, m, 64, n, (5, 20))
        # the document of step 5 in the first epoch's permutation
        late = int(np.random.Generator(np.random.PCG64(seed)).permutation(n)[5])
        embeddings[late, 3] = np.inf
        cfg = TrainingSection(learning_rate=3e-3, steps=60, hidden=32)
        got = train_at_each_worker_count(
            cpus, forks, lambda: train_heads(examples, embeddings, toy_bank(m), cfg=cfg,
                                             seed=seed))
        with np.errstate(all="ignore"), pytest.raises(TrainingError) as want:
            reference_train_heads(examples, embeddings, toy_bank(m), cfg=cfg, seed=seed)
        assert got == [str(want.value)] * len(WORKER_COUNTS)
        assert str(want.value).startswith("non-finite loss at step 5,")

    def test_divergence_stops_within_a_check_of_its_step(self, cpus, monkeypatch):
        """A non-finite logit at step 40 of 4,000 ends training at the next
        check: no chunk runs a round past CHECK_ROUNDS, where training in full
        would run over a thousand, and the message is the reference loop's."""
        m, n, seed = 6, 50, 2
        examples, embeddings = random_training_set(4, m, 8, n, (2, 4))
        # the document of step 40 in the first epoch's permutation
        embeddings[np.random.Generator(np.random.PCG64(seed)).permutation(n)[40], 0] = np.nan
        cfg = TrainingSection(learning_rate=3e-3, steps=4000, hidden=4)
        rounds = []
        real = heads_module._logits_and_grad

        def count_rounds(*args):
            rounds.append(None)
            return real(*args)

        monkeypatch.setattr(heads_module, "_logits_and_grad", count_rounds)
        cpus(1)
        with pytest.raises(TrainingError) as got:
            train_heads(examples, embeddings, toy_bank(m), cfg=cfg, seed=seed)
        with np.errstate(all="ignore"), pytest.raises(TrainingError) as want:
            reference_train_heads(examples, embeddings, toy_bank(m), cfg=cfg, seed=seed)
        assert str(got.value) == str(want.value)
        assert str(want.value).startswith("non-finite loss at step 40,")
        assert len(rounds) == heads_module.CHECK_ROUNDS
        answered = max(sum(q in ex.answers for ex in examples) for q in range(m))
        assert answered * (4000 // n) > 1000  # the rounds of training in full

    @pytest.mark.parametrize("pos_weight,fails", [("4e+307", False), ("1e+308", True)])
    def test_huge_finite_terms(self, cpus, forks, pos_weight, fails):
        """Terms above max / (2 * answers) are checked with the exact step mean:
        at 4e307 every mean stays finite, at 1e308 four finite yes terms
        overflow the mean of step 0."""
        examples = [TrainingExample(f"d{i}", {q: int(i % 3 != 0 or q % 2) for q in range(4)})
                    for i in range(9)]
        embeddings = np.random.default_rng(1).standard_normal((9, 8))
        cfg = TrainingSection(learning_rate=3e-3, steps=30, hidden=4, pos_weight=pos_weight)

        def train(trainer):
            return trainer(examples, embeddings, toy_bank(4), cfg=cfg, seed=5).params

        results = train_at_each_worker_count(cpus, forks, lambda: train(train_heads))
        try:
            with np.errstate(all="ignore"):
                want = train(reference_train_heads)
        except TrainingError as exc:
            want = str(exc)
        for got in results:
            if fails:
                assert got == want == "non-finite loss at step 0, question ids [0, 1, 2, 3]"
            else:
                assert (got.view(np.int64) == want.view(np.int64)).all()


@pytest.fixture
def mapped(monkeypatch):
    """The lengths of the mmap.mmap mappings made in this process during the test."""
    lengths = []
    real = mmap.mmap

    def spy(fileno, length, *args, **kwargs):
        lengths.append(length)
        return real(fileno, length, *args, **kwargs)

    monkeypatch.setattr(mmap, "mmap", spy)
    return lengths


class TestTrainingMemory:
    """Peaks of training in process, with one worker: the traced heap's peak
    plus the bytes the run maps, which tracemalloc does not see."""

    @pytest.fixture(autouse=True)
    def one_worker(self, cpus):
        cpus(1)

    @staticmethod
    def peak_bytes(examples, embeddings, m, cfg, mapped):
        train_heads(examples, embeddings, toy_bank(m), cfg=cfg, seed=0)  # warm imports, caches
        mapped.clear()
        tracemalloc.start()
        try:
            train_heads(examples, embeddings, toy_bank(m), cfg=cfg, seed=0)
            return tracemalloc.get_traced_memory()[1] + sum(mapped)
        finally:
            tracemalloc.stop()

    def test_demo_shape_peak(self, mapped):
        """Bound: the returned (m, P) params and five chunk arrays of the same
        rows; 12 bytes per touch (an int32 schedule slot and a float64 loss
        term, at most steps * 13 touches); 48 bytes per step (the int32
        document order, the schedule's per-step temporaries, and the two
        float64 bias tables with their count vector); and 512 KB for one
        round's temporaries and small arrays. Measured: 1.6 MB against a
        bound of 2.1 MB; keeping two more float64 arrays per touch breaks it."""
        m, h, d, steps = 16, 16, 64, 4000
        examples, embeddings = random_training_set(2, m, d, 180, (4, 13))
        cfg = TrainingSection(learning_rate=3e-3, steps=steps, hidden=h)
        row = init_heads(1, d, h, seed=0).params.nbytes
        bound = 6 * m * row + 12 * 13 * steps + 48 * steps + 512 * 1024
        assert self.peak_bytes(examples, embeddings, m, cfg, mapped) < bound

    def test_paper_shape_peak_below_per_head_adam_state(self, mapped):
        """At m=512, h=32, d=256 the params are 34 MB. Adam state for all
        heads at once would add two more such arrays; per-chunk state keeps
        the peak under twice the params."""
        m, h, d = 512, 32, 256
        examples, embeddings = random_training_set(3, m, d, 30, (15, 20))
        cfg = TrainingSection(learning_rate=3e-3, steps=20, hidden=h)
        params_bytes = init_heads(1, d, h, seed=0).params.nbytes * m
        assert self.peak_bytes(examples, embeddings, m, cfg, mapped) < 2 * params_bytes


def touch_counts(examples, steps, seed):
    """Each head's touches in a training run, by descending count (ties by
    id): one per step whose document answers it."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n = len(examples)
    order = np.concatenate([rng.permutation(n) for _ in range(-(-steps // n))])[:steps]
    counts = {}
    for doc in order:
        for q in examples[doc].answers:
            counts[q] = counts.get(q, 0) + 1
    return sorted(counts.values(), reverse=True)


def running(pid):
    """Whether process pid exists and has not ended (a zombie has ended), from /proc."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in "ZX"


def child_pids(pid):
    """The running children that process pid forked from its main thread, from
    /proc (other threads may come and go: BLAS stops its threads to fork)."""
    try:
        children = Path(f"/proc/{pid}/task/{pid}/children").read_text().split()
    except (FileNotFoundError, ProcessLookupError):
        return []
    return [child for child in map(int, children) if running(child)]


class TestTrainingWorkers:
    """Forked training: results written in place into shared memory, and no
    process left behind."""

    @staticmethod
    def demo_training():
        examples, embeddings = random_training_set(2, 16, 64, 180, (4, 13))
        cfg = TrainingSection(learning_rate=3e-3, steps=400, hidden=16)
        return examples, embeddings, cfg, lambda: train_heads(examples, embeddings,
                                                              toy_bank(16), cfg=cfg, seed=0)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_one_mapping_holds_every_row_and_one_logit_per_touch(self, cpus, forks, mapped,
                                                                 monkeypatch, workers):
        """In process and on three workers alike, training maps 8 bytes per
        parameter of all 16 heads plus 8 per touch, once, and nothing per
        child. Three workers cut chunks of 6, 6 and 4 heads by falling touch
        count, and the heaviest trains in process."""
        examples, _, cfg, train = self.demo_training()
        in_process = []
        real = heads_module._Lockstep.train_share

        def record(run, share, parent=None):
            if parent is None:
                in_process.append(share)
            real(run, share, parent)

        monkeypatch.setattr(heads_module._Lockstep, "train_share", record)
        cpus(workers)
        train()
        P = init_heads(1, 64, 16, seed=0).params.shape[1]
        counts = touch_counts(examples, cfg.steps, seed=0)
        assert mapped == [8 * (16 * P + sum(counts))]
        assert len(forks) == workers - 1
        if workers == 3:
            assert len(counts) == 16
            assert sum(counts[:6]) > max(sum(counts[6:12]), sum(counts[12:]))
            assert in_process == [[(0, 6)]]
        else:
            assert in_process == [[(0, 16)]]

    def test_a_failing_child_is_a_training_error(self, cpus, forks, monkeypatch):
        real = heads_module._Lockstep.train_share

        def fail_in_children(run, share, parent=None):
            if parent is not None:
                raise MemoryError("no room")
            real(run, share, parent)

        monkeypatch.setattr(heads_module._Lockstep, "train_share", fail_in_children)
        cpus(3)
        with pytest.raises(TrainingError, match="worker exited with status 1"):
            self.demo_training()[-1]()
        assert len(forks) == 2
        assert_reaped(forks)
        assert child_pids(os.getpid()) == []

    def test_an_interrupt_of_the_own_share_kills_every_child(self, cpus, forks, monkeypatch):
        """The children are killed, not waited for: their share of a long run
        would take seconds."""
        real = heads_module._Lockstep.train_share

        def interrupt_in_process(run, share, parent=None):
            if parent is None:
                raise KeyboardInterrupt
            real(run, share, parent)

        monkeypatch.setattr(heads_module._Lockstep, "train_share", interrupt_in_process)
        examples, embeddings = random_training_set(2, 16, 64, 180, (4, 13))
        cfg = TrainingSection(learning_rate=3e-3, steps=100_000, hidden=16)
        cpus(3)
        started = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            train_heads(examples, embeddings, toy_bank(16), cfg=cfg, seed=0)
        assert time.perf_counter() - started < 2.0
        assert len(forks) == 2
        assert_reaped(forks)

    def test_a_small_run_trains_in_process(self, monkeypatch, forks):
        """400 steps at the demo shape are 3.8M parameter updates: below
        FORK_MIN_WORK, so no fork on any number of CPUs."""
        examples, _, cfg, train = self.demo_training()
        monkeypatch.setattr(heads_module, "_usable_cpus", lambda: 4)
        P = init_heads(1, 64, 16, seed=0).params.shape[1]
        assert sum(touch_counts(examples, cfg.steps, seed=0)) * P < heads_module.FORK_MIN_WORK
        want = train()
        assert forks == []
        monkeypatch.setattr(heads_module, "FORK_MIN_WORK", 0)
        got = train()
        assert len(forks) == 3
        assert (got.params.view(np.int64) == want.params.view(np.int64)).all()

    def test_a_live_thread_keeps_training_in_process(self, cpus, forks):
        *_, train = self.demo_training()
        cpus(2)
        want = train()
        assert len(forks) == 1
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            got = train()
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(forks) == 1
        assert (got.params.view(np.int64) == want.params.view(np.int64)).all()


_RUN = [sys.executable, "-m", "qembed.cli", "run"]


@pytest.mark.skipif(not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
                    reason="reads a process's children from /proc")
def test_a_killed_build_leaves_no_worker_and_resumes_to_the_same_heads(tmp_path):
    """SIGKILL a seed-0 demo build while it trains. The workspace lock is
    free at once, its training child, if any, exits within half a second,
    and `qembed run` resumes to the pinned heads.bin bytes."""
    cfg_path = write_demo_workspace(tmp_path, seed=0)
    env = {**os.environ, "PYTHONPATH": str(Path(qembed.__file__).parents[1])}
    args = _RUN + ["--config", str(cfg_path), "--workspace", str(tmp_path)]
    build = subprocess.Popen(args, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
    try:
        log = tmp_path / "run_log.jsonl"
        deadline = time.monotonic() + 120
        # a record is one line, written once its stage has ended; the last
        # line may still be partly written
        while not (log.exists() and '"stage": "collect"' in log.read_text()):
            assert build.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        # collect has ended, so train runs; with more than one CPU it forks
        children = []
        waited = time.monotonic() + 1.0
        while not children and time.monotonic() < waited:
            children = child_pids(build.pid)
            time.sleep(0.01)
    finally:
        build.send_signal(signal.SIGKILL)
        build.wait(timeout=60)
    # at once, while a worker may still run: no worker holds the lock
    with open(tmp_path / "lock", "rb") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)  # raises if anything holds it
    assert not (tmp_path / "heads.bin").exists()  # killed before train ended
    assert bool(children) == (len(os.sched_getaffinity(0)) > 1)
    # a worker checks for its parent every CHECK_ROUNDS rounds, tens of ms
    # here; its share of the demo would take over a second more
    deadline = time.monotonic() + 0.5
    while any(map(running, children)):
        assert time.monotonic() < deadline, f"worker {children} outlived its parent"
        time.sleep(0.01)
    resumed = subprocess.run(args, env=env, capture_output=True, text=True, timeout=300)
    assert resumed.returncode == 0, resumed.stderr
    heads_bin = (tmp_path / "heads.bin").read_bytes()
    assert hashlib.sha256(heads_bin).hexdigest() == DEMO_DIGESTS["heads"]


class TestEmbedDocuments:
    def trained(self, tmp_path):
        """Trained heads as load_heads gives them back."""
        encoder = MockEncoder(dim=16, seed=0)
        texts, examples = hyperplane_data(encoder, n_docs=20, m=5, seed=5)
        cfg = TrainingSection(learning_rate=1e-3, steps=200, hidden=4)
        return encoder, texts, loaded(train_heads(examples, vectors(encoder, texts, examples),
                                                  toy_bank(5), cfg=cfg, seed=0), tmp_path)

    def test_zero_documents(self, tmp_path):
        encoder, _, heads = self.trained(tmp_path)
        matrix = embed_documents([], encoder, heads, tau=0.5)
        assert matrix.n == 0 and matrix.m == 5

    def test_matrix_matches_per_document_loop_oracle(self, tmp_path):
        encoder, texts, heads = self.trained(tmp_path)
        # more rows than one forward chunk, and not a multiple of it
        docs = sorted(texts.values()) + [f"extra document {i} about topic {i % 7}"
                                         for i in range(FORWARD_CHUNK + 7 - len(texts))]
        assert len(docs) > FORWARD_CHUNK and len(docs) % FORWARD_CHUNK
        matrix = embed_documents(docs, encoder, heads, tau=0.5)
        oracle = np.array([[head_forward(heads, e, q) for q in range(heads.m)]
                           for e in encoder.encode(docs)])
        for i in range(len(docs)):
            expected = (sigmoid(oracle[i]) > 0.5).astype(np.uint8)
            np.testing.assert_array_equal(matrix.row(i), expected)

        subset = np.array([4, 1, 3])
        full = forward_logits(heads, encoder.encode(docs), np.arange(heads.m))
        np.testing.assert_allclose(full, oracle, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(forward_logits(heads, encoder.encode(docs), subset),
                                      full[:, subset])

        # held-out answers set to the oracle's bits (then their negation) on a
        # varying question subset: accuracy 1 (then 0) means every pair agrees
        ids = [f"doc{i}" for i in range(len(docs))]
        bits = (sigmoid(oracle) > 0.5).astype(int)
        for flip, accuracy in ((0, 1.0), (1, 0.0)):
            examples = [TrainingExample(doc_id, {q: bits[i, q] ^ flip
                                                 for q in range(i % heads.m, heads.m)})
                        for i, doc_id in enumerate(ids)]
            report = evaluate_heldout(heads, encoder.encode(docs), examples, tau=0.5)
            assert report.accuracy == accuracy
            assert report.total == sum(len(ex.answers) for ex in examples)

    def test_rows_follow_input_order(self, tmp_path):
        encoder, texts, heads = self.trained(tmp_path)
        docs = sorted(texts.values())[:4]
        ids = [f"id{i}" for i in range(4)]
        matrix = embed_documents(docs, encoder, heads, tau=0.5, row_ids=ids)
        assert matrix.row_ids == ids


def loaded(heads, tmp_path, name="heads.bin"):
    """heads after a save_heads / load_heads round trip: float32 parameters."""
    save_heads(heads, tmp_path / name)
    return load_heads(tmp_path / name)


def expected_bits(heads, embeddings, tau):
    """The bits as computed before the certified forward: sigmoid of the
    float64 forward over every head, then > tau."""
    with np.errstate(all="ignore"):
        return (sigmoid(reference_forward_logits(heads, embeddings)) > tau).astype(np.uint8)


class RecomputeSpy:
    """Records the recomputes embedding_bits makes: (rows, heads) per
    forward_logits call."""

    def __init__(self, monkeypatch):
        self.calls = []
        real = heads_module.forward_logits

        def spy(heads, embeddings, question_ids):
            self.calls.append((len(embeddings), len(question_ids)))
            return real(heads, embeddings, question_ids)

        monkeypatch.setattr(heads_module, "forward_logits", spy)


class TestForwardSubsets:
    """The recompute's premise: forward_logits over a subset of heads gives,
    bit for bit, the full forward's columns, on float32-loaded heads."""

    @pytest.mark.parametrize("rows", [1, 4, 31, 32, 33, 65])
    def test_subset_columns_are_bit_identical(self, tmp_path, rows):
        heads = loaded(init_heads(m=40, d=256, h=64, seed=4), tmp_path)
        # float32 heads are upcast in blocks: 40 heads take several of them
        assert FORWARD_HEAD_BYTES // (12 * heads.params.shape[1]) < heads.m
        rng = np.random.default_rng(rows)
        E = rng.standard_normal((rows, 256))
        full = forward_logits(heads, E, np.arange(40))
        assert np.array_equal(full, reference_forward_logits(heads, E))
        for subset in ([7], [39, 0, 12], [5, 5, 30, 1, 5], rng.permutation(40),
                       rng.integers(0, 40, size=50), np.arange(40)[::-1]):
            subset = np.asarray(subset)
            assert np.array_equal(forward_logits(heads, E, subset), full[:, subset])

    def test_every_head_upcasts_one_block_at_a_time(self, tmp_path):
        """A recompute of every head, its worst case, holds one gathered and
        upcast block of FORWARD_HEAD_BYTES and small temporaries: well under
        the 13 MB a float64 copy of all 100 heads would take."""
        heads = loaded(init_heads(m=100, d=256, h=64, seed=1), tmp_path)
        E = np.random.default_rng(0).standard_normal((4, 256))
        every = np.arange(heads.m)
        tracemalloc.start()
        try:
            logits = forward_logits(heads, E, every)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < FORWARD_HEAD_BYTES + 512 * 1024 < 2 * heads.params.nbytes
        assert np.array_equal(logits, reference_forward_logits(heads, E))


class TestLoadedHeads:
    def test_params_are_one_aligned_read_only_float32_array(self, tmp_path):
        fresh = init_heads(m=5, d=12, h=3, seed=0, tau=0.3, bank_fingerprint="f")
        heads = loaded(fresh, tmp_path)
        params = heads.params
        assert params.dtype == np.float32 and params.shape == fresh.params.shape
        assert params.flags.c_contiguous and params.flags.owndata and params.flags.aligned
        assert params.ctypes.data % 16 == 0
        np.testing.assert_array_equal(params, fresh.params.astype(np.float32))
        for view in (heads.W1, heads.b1, heads.w2, heads.b2):
            assert np.shares_memory(view, params) and view.dtype == np.float32
        with pytest.raises(ValueError):
            heads.W1[0, 0, 0] = 1.0
        assert np.array_equal(heads.bounds, _bound_constants(heads))

    def test_empty_bank_loads(self, tmp_path):
        heads = loaded(init_heads(m=0, d=4, h=2, seed=0), tmp_path)
        assert heads.params.shape == (0, 4 * 2 + 2 * 2 + 1)
        with pytest.raises(TrainingError, match="empty"):
            embed_documents(["x"], MockEncoder(dim=4, seed=0), heads, tau=0.5)

    @pytest.mark.parametrize("shape", [(3, 8), (3, 16), (12,), (1, 3, 12)])
    def test_rows_of_another_width_are_a_training_error(self, tmp_path, shape):
        heads = loaded(init_heads(m=5, d=12, h=3, seed=0), tmp_path)
        with pytest.raises(TrainingError, match=re.escape(f"shape {shape} for heads of width 12")):
            embed_vectors(np.ones(shape), heads, 0.5)


def boundary_rows(heads, tau, q, e0, ulps=3):
    """Rows t * e0 on either side of head q's bit flip, at the closest scales t
    that float64 gives, plus `ulps` scales either side of those."""
    def bit(t):
        return bool(expected_bits(heads, t * e0[None, :], tau)[0, q])

    ts = np.linspace(0.5, 1.5, 101)
    flips = [i for i in range(100) if bit(ts[i]) != bit(ts[i + 1])]
    lo, hi = ts[flips[0]], ts[flips[0] + 1]
    low_bit = bit(lo)
    while np.nextafter(lo, hi) != hi:
        mid = lo + (hi - lo) / 2
        if bit(mid) == low_bit:
            lo = mid
        else:
            hi = mid
    scales = [lo, hi]
    for _ in range(ulps):
        scales += [np.nextafter(scales[-2], -np.inf), np.nextafter(scales[-1], np.inf)]
    return np.stack([t * e0 for t in scales])


def heads_at_threshold(m, d, h, seed, tau, e0):
    """float64 heads whose every logit on e0 sits at logit(tau)."""
    heads = init_heads(m=m, d=d, h=h, seed=seed)
    z = reference_forward_logits(heads, e0[None, :])[0]
    heads.b2[:] += (np.log(tau) - np.log1p(-tau)) - z
    return heads


class TestCertifiedBits:
    """Every embedding bit equals sigmoid(float64 forward) > tau."""

    TAUS = [0.1, 0.5, 0.9, 1e-6, 1 - 1e-6, 2.0 ** -30, 1 - 2.0 ** -30]

    @pytest.mark.parametrize("tau", TAUS + [1e-12, 1 - 1e-12, 2.0 ** -31, 5e-324,
                                            1 - 2.0 ** -53])
    def test_random_heads_and_rows(self, tmp_path, tau):
        rng = np.random.default_rng(11)
        fresh = init_heads(m=24, d=64, h=32, seed=6)
        fresh.b2[:] += rng.normal(0.0, 3.0, size=24)  # spread logits over the taus
        E = rng.standard_normal((70, 64)) * rng.uniform(0.01, 40.0, size=(70, 1))
        heads = loaded(fresh, tmp_path)
        np.testing.assert_array_equal(embed_vectors(E, heads, tau).to_dense(),
                                      expected_bits(heads, E, tau))

    @pytest.mark.parametrize("tau", [1e-12, 1 - 1e-12, 2.0 ** -31, 1 - 2.0 ** -31])
    def test_unbounded_slack_falls_back_in_full(self, tmp_path, monkeypatch, tau):
        """An infinite slack sends every (row, head) pair to the recompute."""
        assert _logit_threshold(tau)[1] == np.inf
        heads = loaded(init_heads(m=6, d=16, h=4, seed=2), tmp_path)
        E = np.random.default_rng(1).standard_normal((FORWARD_CHUNK + 5, 16))
        spy = RecomputeSpy(monkeypatch)
        np.testing.assert_array_equal(embed_vectors(E, heads, tau).to_dense(),
                                      expected_bits(heads, E, tau))
        assert spy.calls == [(FORWARD_CHUNK, 6), (5, 6)]

    def test_taus_share_one_recompute_per_chunk(self, tmp_path, monkeypatch):
        """A finite-slack tau beside an infinite-slack one, and a repeated tau:
        each tau's bits are its own, and each chunk recomputes the union of
        their undecided heads, every head here, once."""
        taus = [0.5, 1e-12, 0.5]
        assert _logit_threshold(0.5)[1] < np.inf == _logit_threshold(1e-12)[1]
        rng = np.random.default_rng(13)
        fresh = init_heads(m=7, d=16, h=4, seed=9)
        fresh.b2[:] += rng.normal(0.0, 3.0, size=7)
        heads = loaded(fresh, tmp_path)
        E = rng.standard_normal((FORWARD_CHUNK + 5, 16))
        spy = RecomputeSpy(monkeypatch)
        bits = embedding_bits(heads, E, taus)
        monkeypatch.undo()
        assert bits.shape == (3, len(E), 7)
        for tau, tau_bits in zip(taus, bits):
            np.testing.assert_array_equal(tau_bits, expected_bits(heads, E, tau))
        assert spy.calls == [(FORWARD_CHUNK, 7), (5, 7)]

    def test_one_call_over_many_taus_equals_one_call_each(self, tmp_path):
        """Taus in any order, repeated, at the margin and past it: each tau's
        bits from one call equal embed_vectors' at that tau alone."""
        encoder = MockEncoder(dim=16, seed=0)
        texts, examples = hyperplane_data(encoder, n_docs=60, m=6, seed=8)
        cfg = TrainingSection(learning_rate=1e-2, steps=2000, hidden=8)
        heads = loaded(train_heads(examples, vectors(encoder, texts, examples), toy_bank(6),
                                   cfg=cfg, seed=1), tmp_path)
        E = encoder.encode([f"held-out text {i} on topic {i % 5}" for i in range(70)])
        taus = [0.9, 0.1, 0.5, 2.0 ** -30, 0.1, 1 - 2.0 ** -31, 0.3]
        bits = embedding_bits(heads, E, taus)
        for tau, tau_bits in zip(taus, bits):
            np.testing.assert_array_equal(tau_bits, embed_vectors(E, heads, tau).to_dense())

    def test_no_rows_or_no_taus(self, tmp_path, monkeypatch):
        heads = loaded(init_heads(m=5, d=12, h=3, seed=0), tmp_path)
        spy = RecomputeSpy(monkeypatch)
        assert embedding_bits(heads, np.zeros((0, 12)), [0.5, 0.7]).shape == (2, 0, 5)
        assert embedding_bits(heads, np.ones((3, 12)), []).shape == (0, 3, 5)
        assert spy.calls == []

    @pytest.mark.parametrize("u32", [2.0 ** -6, 2.0 ** -5, 2.0 ** -4])
    def test_too_wide_for_the_bound_recomputes_every_pair(self, tmp_path, monkeypatch, u32):
        """Where d u32 > 1/4, every head's bound is infinite, also from d u32 = 1
        on, where gamma_d^32 is not defined (here with a coarser u32, so that
        d = 32 is too wide)."""
        monkeypatch.setattr(heads_module, "_U32", u32)
        heads = loaded(init_heads(m=6, d=32, h=4, seed=2), tmp_path)
        assert (heads.bounds[0] == np.inf).all()
        E = np.random.default_rng(2).standard_normal((9, 32))
        spy = RecomputeSpy(monkeypatch)
        np.testing.assert_array_equal(embed_vectors(E, heads, 0.5).to_dense(),
                                      expected_bits(heads, E, 0.5))
        assert spy.calls == [(9, 6)]

    @pytest.mark.parametrize("tau", [0.1, 0.5, 0.9, 1e-6, 1 - 1e-6])
    def test_rows_within_ulps_of_the_threshold(self, tmp_path, monkeypatch, tau):
        rng = np.random.default_rng(3)
        e0 = rng.standard_normal(32)
        heads = loaded(heads_at_threshold(m=8, d=32, h=16, seed=5, tau=tau, e0=e0), tmp_path)
        rows = np.concatenate([boundary_rows(heads, tau, q, e0) for q in (0, 3, 7)])
        spy = RecomputeSpy(monkeypatch)
        bits = embed_vectors(rows, heads, tau).to_dense()
        monkeypatch.undo()
        np.testing.assert_array_equal(bits, expected_bits(heads, rows, tau))
        assert [rows for rows, _ in spy.calls] == [24]  # one chunk, one recompute
        for q, at in ((0, 0), (3, 8), (7, 16)):  # each flip is in the rows
            assert len(set(bits[at:at + 8, q].tolist())) == 2

    def test_nan_inf_zero_and_extreme_rows(self, tmp_path, monkeypatch):
        d = 16
        rng = np.random.default_rng(4)
        base = rng.standard_normal(d)
        rows = [np.zeros(d), base, base * 1e-300, np.full(d, 5e-324), base * 1e-40,
                base * 1e39, base * 2.0 ** 61, base * 1e300]
        for value in (np.nan, np.inf, -np.inf):
            row = base.copy()
            row[3] = value
            rows.append(row)
        rows.append(np.where(np.arange(d) % 2, np.inf, -np.inf))
        E = np.stack(rows)
        stored = loaded(init_heads(m=10, d=d, h=8, seed=7), tmp_path)
        for tau in (0.1, 0.5, 0.9):
            spy = RecomputeSpy(monkeypatch)
            with np.errstate(all="ignore"):
                bits = embed_vectors(E, stored, tau).to_dense()
            monkeypatch.undo()
            np.testing.assert_array_equal(bits, expected_bits(stored, E, tau))
            assert [rows for rows, _ in spy.calls] == [len(E)]
        # every bit of a NaN or inf row, or one past the norm limit, is recomputed
        z, bound = _float32_logits(stored, E)
        assert (~(np.abs(z) > bound))[5:].all()
        assert np.isfinite(bound[:5]).all()

    @pytest.mark.parametrize("tau", [0.1, 0.5, 0.9, 1e-6])
    def test_rows_within_ulps_of_the_threshold_at_the_paper_width(self, tmp_path, monkeypatch,
                                                                   tau):
        """As above at h=128, d=256, where the float32 tail's bound term is as
        large as the first layer's."""
        rng = np.random.default_rng(21)
        e0 = rng.standard_normal(256)
        e0 /= np.linalg.norm(e0)
        heads = loaded(heads_at_threshold(m=4, d=256, h=128, seed=8, tau=tau, e0=e0), tmp_path)
        rows = np.concatenate([boundary_rows(heads, tau, q, e0) for q in (0, 3)])
        spy = RecomputeSpy(monkeypatch)
        bits = embed_vectors(rows, heads, tau).to_dense()
        monkeypatch.undo()
        np.testing.assert_array_equal(bits, expected_bits(heads, rows, tau))
        assert [rows for rows, _ in spy.calls] == [16]
        # every boundary row lies within the bound of the threshold, so the
        # screen leaves it to the recompute
        z, bound = _float32_logits(heads, rows)
        threshold = _logit_threshold(tau)[0]
        for q, at in ((0, 0), (3, 8)):
            assert (np.abs(z[at:at + 8, q] - threshold) <= bound[at:at + 8, q]).all()

    def test_heads_whose_float32_tail_could_overflow_are_recomputed(self, tmp_path,
                                                                   monkeypatch):
        """w2 or b1 near the float32 maximum: those heads' bounds are infinite, so
        every pair of them goes to the recompute, with no warning, while the
        float32 tail gives inf or NaN logits for some of them."""
        fresh = init_heads(m=6, d=16, h=8, seed=12)
        fresh.w2[1] = 3e38 * np.sign(fresh.w2[1])
        fresh.b1[2] = 3e38
        fresh.b1[3] = -3e38
        fresh.w2[4] = 3e38
        fresh.b1[4] = 1e38
        heads = loaded(fresh, tmp_path)
        assert (heads.bounds[0, 1:5] == np.inf).all()
        assert np.isfinite(heads.bounds[:, [0, 5]]).all()
        E = np.random.default_rng(6).standard_normal((FORWARD_CHUNK + 3, 16))
        spy = RecomputeSpy(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z, bound = _float32_logits(heads, E)
            bits = embedding_bits(heads, E, [0.1, 0.5])
        monkeypatch.undo()
        assert not np.isfinite(z[:, [2, 4]]).all() and (bound[:, 1:5] == np.inf).all()
        for tau, tau_bits in zip((0.1, 0.5), bits):
            np.testing.assert_array_equal(tau_bits, expected_bits(heads, E, tau))
        assert [rows for rows, _ in spy.calls] == [FORWARD_CHUNK, 3]

    def test_screens_are_whole_blocks_sized_by_bytes(self):
        """64 rows at the paper shape, the whole of ablate's rows at the demo
        shape, and fewer where many taus' logits outweigh a narrow hidden layer."""
        def shaped(m, h):  # the screen does not depend on d
            params = np.empty((m, 3 * h + 1), dtype=np.float32)
            return QuestionHeads(params=params, h=h, d=1, seed=0, tau_default=0.5,
                                 bank_fingerprint="")

        assert _screen_rows(shaped(512, 128), 1) == 2 * FORWARD_CHUNK
        assert _screen_rows(shaped(16, 16), 7) >= 4096
        assert _screen_rows(shaped(512, 1), 64) == 2 * FORWARD_CHUNK
        assert _screen_rows(shaped(1024, 256), 1) == FORWARD_CHUNK  # at least one block
        for args in ((shaped(40, 8), 1), (shaped(512, 128), 3)):
            assert _screen_rows(*args) % FORWARD_CHUNK == 0

    @pytest.mark.parametrize("n", [1, 31, 33, 63, 64, 65, 129])
    def test_recompute_runs_per_block_under_a_larger_screen(self, tmp_path, monkeypatch, n):
        """With screens of two blocks, every recompute still covers one
        FORWARD_CHUNK-aligned block of rows, and the bits are the float64 forward's."""
        rng = np.random.default_rng(n)
        fresh = init_heads(m=6, d=16, h=4, seed=3)
        fresh.b2[:] += rng.normal(0.0, 3.0, size=6)
        heads = loaded(fresh, tmp_path)
        monkeypatch.setattr(heads_module, "_SCREEN_BYTES", 2 * 4 * 6 * 4 * FORWARD_CHUNK)
        assert _screen_rows(heads, 1) == 2 * FORWARD_CHUNK
        E = rng.standard_normal((n, 16))
        spy = RecomputeSpy(monkeypatch)
        np.testing.assert_array_equal(embed_vectors(E, heads, 1e-12).to_dense(),
                                      expected_bits(heads, E, 1e-12))
        assert spy.calls == [(min(FORWARD_CHUNK, n - lo), 6)
                             for lo in range(0, n, FORWARD_CHUNK)]
        spy.calls.clear()
        np.testing.assert_array_equal(embed_vectors(E, heads, 0.5).to_dense(),
                                      expected_bits(heads, E, 0.5))
        assert all(rows in (FORWARD_CHUNK, n % FORWARD_CHUNK) for rows, _ in spy.calls)

    def test_trained_heads(self, tmp_path):
        encoder = MockEncoder(dim=16, seed=0)
        texts, examples = hyperplane_data(encoder, n_docs=60, m=6, seed=8)
        cfg = TrainingSection(learning_rate=1e-2, steps=2000, hidden=8)
        trained = train_heads(examples, vectors(encoder, texts, examples), toy_bank(6), cfg=cfg,
                              seed=1)
        E = encoder.encode([f"held-out text {i} on topic {i % 5}" for i in range(100)])
        heads = loaded(trained, tmp_path)
        for tau in (0.1, 0.5, 0.9):
            np.testing.assert_array_equal(embed_vectors(E, heads, tau).to_dense(),
                                          expected_bits(heads, E, tau))

    def test_only_loaded_heads_give_bits(self):
        """init_heads and train_heads output has no bounds: embedding it, or
        scoring held-out answers on it, is a TrainingError."""
        heads = init_heads(m=5, d=12, h=6, seed=3)
        E = np.random.default_rng(9).standard_normal((9, 12))
        with pytest.raises(TrainingError, match="load_heads"):
            embed_vectors(E, heads, 0.5)
        with pytest.raises(TrainingError, match="load_heads"):
            evaluate_heldout(heads, E[:1], [TrainingExample("d", {0: 1})])

    def test_bound_covers_the_float64_forward(self, tmp_path):
        """|z' - z| <= bound on rows of many scales, on loaded fresh and scaled heads."""
        rng = np.random.default_rng(12)
        E = rng.standard_normal((64, 48)) * 10.0 ** rng.uniform(-6, 6, size=(64, 1))
        fresh = init_heads(m=12, d=48, h=20, seed=2)
        big = init_heads(m=12, d=48, h=20, seed=3)
        big.W1[:] *= 1e3
        big.b1[:] *= -1e2
        for heads in (loaded(fresh, tmp_path), loaded(big, tmp_path, "big.bin")):
            for lo in range(0, len(E), FORWARD_CHUNK):
                chunk = E[lo:lo + FORWARD_CHUNK]
                z, bound = _float32_logits(heads, chunk)
                assert (np.abs(z - reference_forward_logits(heads, chunk)) <= bound).all()

    def test_bound_constants_cover_both_float32_dot_products(self, tmp_path):
        """a and b are at least the first-order worst case (Higham, ch. 3) of the
        two float32 dot products, gamma_d^32 for W1 e and gamma_h^32 for
        w2 . relu, which no test data of random rows comes near."""
        heads = loaded(init_heads(m=5, d=256, h=128, seed=1), tmp_path)
        gamma = lambda n: n * 2.0 ** -24 / (1.0 - n * 2.0 ** -24)  # noqa: E731
        w2 = np.abs(heads.w2.astype(np.float64))
        norms = np.linalg.norm(heads.W1.astype(np.float64), axis=2)
        a, b = heads.bounds
        assert (a >= (gamma(256) + gamma(128)) * np.einsum("qh,qh->q", w2, norms)).all()
        assert (b >= gamma(128) * np.einsum("qh,qh->q", w2, np.abs(heads.b1))).all()

    def test_bound_covers_the_float32_tail(self, tmp_path):
        """With W1 = 0 the first layer is exact, so the float32 w2 dot's rounding
        is all the error."""
        rng = np.random.default_rng(14)
        fresh = init_heads(m=16, d=32, h=128, seed=4)
        fresh.W1[:] = 0.0
        fresh.b1[:] = rng.uniform(1.0, 2.0, size=fresh.b1.shape) * 1e3
        fresh.w2[:] = rng.standard_normal(fresh.w2.shape)
        heads = loaded(fresh, tmp_path)
        E = rng.standard_normal((8, 32))
        z, bound = _float32_logits(heads, E)
        err = np.abs(z - reference_forward_logits(heads, E))
        assert (err <= bound).all() and err.max() > 0.0


@pytest.fixture
def threads(monkeypatch):
    """The threads started in this process during the test, with the
    certified forward's work threshold at 0 and no BLAS workers seen, so
    that it splits any call."""
    started = []
    real = threading.Thread.start

    def start(thread):
        started.append(thread)
        real(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    monkeypatch.setattr(heads_module, "FORWARD_SPLIT_MIN_WORK", 0)
    monkeypatch.setattr(heads_module, "_foreign_threads", lambda: False)
    return started


class TestSplitForward:
    """The certified forward on contiguous ranges of heads, one thread each."""

    @staticmethod
    def hard_case(tmp_path):
        """Heads 2 and 5 with an infinite bound (head 2's float32 tail
        overflows), and rows that are NaN, inf or past the float32 range."""
        rng = np.random.default_rng(5)
        fresh = init_heads(m=7, d=16, h=8, seed=9)
        fresh.b2[:] += rng.normal(0.0, 3.0, size=7)
        fresh.w2[2] = 3e38
        fresh.b1[2] = 1e38
        fresh.b1[5] = 3e38
        heads = loaded(fresh, tmp_path)
        assert (heads.bounds[0, [2, 5]] == np.inf).all()
        E = rng.standard_normal((FORWARD_CHUNK + 9, 16))
        E[3, 4] = np.nan
        E[7, 0] = np.inf
        E[8] *= 1e39
        E[9] *= 1e300
        return heads, E

    def test_bits_are_the_same_on_any_number_of_threads(self, tmp_path, monkeypatch, threads):
        """On 1, 2 and 3 CPUs the forward's logits, bounds and bits are the
        same bytes. Heads 2 and 5 overflow in a thread's range at 3 CPUs, so a
        thread without its own np.errstate would warn, here an error."""
        heads, E = self.hard_case(tmp_path)
        taus = [0.1, 0.5, 0.9]
        results = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(heads_module, "_usable_cpus", lambda cpus=cpus: cpus)
            before = len(threads)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                z, bound = _float32_logits(heads, E)
                bits = embedding_bits(heads, E, taus)
            assert len(threads) - before == 2 * (cpus - 1)  # two calls, cpus - 1 threads each
            results.append((z.tobytes(), bound.tobytes(), bits.tobytes()))
        assert results[1] == results[0] and results[2] == results[0]
        for tau, tau_bits in zip(taus, bits):
            np.testing.assert_array_equal(tau_bits, expected_bits(heads, E, tau))

    def test_no_thread_outlives_the_call_even_when_a_range_raises(self, tmp_path, monkeypatch,
                                                                 threads):
        """Every thread is joined before the call returns; an error in any
        range, the caller's or a thread's, reaches the caller after the joins,
        while the other ranges are still at work."""
        monkeypatch.setattr(heads_module, "_usable_cpus", lambda: 3)
        heads, E = self.hard_case(tmp_path)
        before = threading.active_count()
        want = embedding_bits(heads, E, [0.5])
        assert len(threads) == 2 and threading.active_count() == before
        real = heads_module._float32_range
        for failing in (0, 2, 4):  # the caller's range and each thread's
            def range_or_fail(heads, rows, hidden, z, lo, hi, failing=failing):
                if lo == failing:
                    raise MemoryError(f"range {lo}:{hi}")
                time.sleep(0.05)
                real(heads, rows, hidden, z, lo, hi)

            monkeypatch.setattr(heads_module, "_float32_range", range_or_fail)
            with pytest.raises(MemoryError, match=f"range {failing}:"):
                embedding_bits(heads, E, [0.5])
            assert threading.active_count() == before
            assert not any(thread.is_alive() for thread in threads)
        monkeypatch.setattr(heads_module, "_float32_range", real)
        assert np.array_equal(embedding_bits(heads, E, [0.5]), want)

    def test_one_thread_per_usable_cpu_but_the_callers(self, tmp_path, threads):
        """On this machine's CPUs: with one usable CPU (taskset -c 0) the
        forward starts no thread."""
        heads = loaded(init_heads(m=5, d=16, h=4, seed=2), tmp_path)
        E = np.random.default_rng(3).standard_normal((9, 16))
        bits = embed_vectors(E, heads, 0.5).to_dense()
        assert len(threads) == min(heads_module._usable_cpus(), heads.m) - 1
        np.testing.assert_array_equal(bits, expected_bits(heads, E, 0.5))

    def test_training_forks_after_a_split_forward(self, tmp_path, cpus, forks, threads):
        """The forward's threads are gone when it returns, so training in the
        same process still forks."""
        cpus(2)
        examples, embeddings = random_training_set(3, 6, 16, 40, (1, 4))
        cfg = TrainingSection(learning_rate=1e-2, steps=60, hidden=4)
        heads = loaded(train_heads(examples, embeddings, toy_bank(6), cfg=cfg, seed=0), tmp_path)
        assert len(forks) == 1
        embed_vectors(embeddings, heads, 0.5)
        assert len(threads) == 1 and threading.active_count() == 1
        again = train_heads(examples, embeddings, toy_bank(6), cfg=cfg, seed=0)
        assert len(forks) == 2
        assert_reaped(forks)
        assert np.array_equal(again.params.astype(np.float32), heads.params)

    def test_threads_only_above_the_work_threshold(self, monkeypatch):
        """W1's size times (rows + 8) decides: the demo shape's 200 rows, and
        100 rows at m=32, h=16, where a second thread was measured slower,
        stay in the calling thread; one row at the paper shape, streaming its
        67 MB W1, and 1,200 rows at m=32, h=16 split. At most one thread per head."""
        monkeypatch.setattr(heads_module, "_usable_cpus", lambda: 2)

        def shaped(m, h, d):  # pages never touched: no memory for the paper shape
            params = np.empty((m, h * d + 2 * h + 1), dtype=np.float32)
            return QuestionHeads(params=params, h=h, d=d, seed=0, tau_default=0.5,
                                 bank_fingerprint="")

        for (m, h, d), rows, workers in [((16, 16, 64), 200, 1), ((32, 16, 256), 100, 1),
                                         ((512, 128, 256), 1, 2), ((512, 128, 256), 4, 2),
                                         ((32, 16, 256), 1200, 2), ((1, 128, 256), 4096, 1)]:
            assert _forward_workers(shaped(m, h, d), rows) == workers, (m, h, d, rows)

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                        reason="reads a process's threads from /proc")
    def test_blas_workers_keep_the_forward_in_the_calling_thread(self):
        """In a fresh process, as BLAS reads its thread count at import: with
        BLAS on one thread, one row at the paper shape splits over every
        usable CPU; with BLAS workers running, it stays in the calling thread."""
        script = ("import numpy as np\n"
                  "from qembed import heads\n"
                  "params = np.empty((512, 128 * 256 + 2 * 128 + 1), dtype=np.float32)\n"
                  "h = heads.QuestionHeads(params=params, h=128, d=256, seed=0, tau_default=0.5,\n"
                  "                        bank_fingerprint='')\n"
                  "print(heads._foreign_threads(), heads._forward_workers(h, 1))")
        env = {**os.environ, "PYTHONPATH": str(Path(qembed.__file__).parents[1])}
        seen = {}
        for blas in ("1", "2"):
            out = subprocess.run([sys.executable, "-c", script],
                                 env={**env, "OPENBLAS_NUM_THREADS": blas}, capture_output=True,
                                 text=True, timeout=60, check=True).stdout.split()
            seen[blas] = (out[0] == "True", int(out[1]))
        assert seen["1"] == (False, min(heads_module._usable_cpus(), 512))
        if not seen["2"][0]:
            pytest.skip("BLAS started no worker thread (one CPU, or not OpenBLAS)")
        assert seen["2"][1] == 1


class TestClassificationReport:
    def test_perfect_predictor(self):
        y = np.array([0, 1, 0, 1, 1])
        report = classification_report(y, y)
        assert report.accuracy == 1.0
        assert report.no.precision == report.yes.recall == 1.0
        assert report.macro == (1.0, 1.0, 1.0)

    def test_always_no_on_ninety_percent_no(self):
        y_true = np.array([0] * 90 + [1] * 10)
        y_pred = np.zeros(100, dtype=int)
        report = classification_report(y_true, y_pred)
        assert report.accuracy == pytest.approx(0.9)
        assert report.yes.recall == 0.0
        assert report.yes.precision == 0.0  # zero-division convention
        assert report.no.recall == 1.0

    def test_supports_sum_to_total(self):
        rng = np.random.Generator(np.random.PCG64(6))
        y_true = rng.integers(0, 2, size=57)
        y_pred = rng.integers(0, 2, size=57)
        report = classification_report(y_true, y_pred)
        assert report.no.support + report.yes.support == report.total == 57


def test_save_load_roundtrip(tmp_path):
    heads = init_heads(m=3, d=6, h=4, seed=42, tau=0.4, bank_fingerprint="abc123")
    path = tmp_path / "heads.bin"
    save_heads(heads, path)
    loaded = load_heads(path)
    assert (loaded.m, loaded.d, loaded.h) == (3, 6, 4)
    assert loaded.seed == 42
    assert loaded.tau_default == 0.4
    assert loaded.bank_fingerprint == "abc123"
    for name in ("W1", "b1", "w2", "b2"):
        np.testing.assert_allclose(parameter_arrays(loaded)[name],
                                   parameter_arrays(heads)[name], atol=1e-6)


def test_heads_file_format_is_pinned(tmp_path):
    path = tmp_path / "heads.bin"
    save_heads(init_heads(m=3, d=6, h=4, seed=42, tau=0.4, bank_fingerprint="abc123"), path)
    blob = path.read_bytes()
    assert hashlib.sha256(blob).hexdigest() == \
        "29323e3790a59fd70e574f20f8140ebea10fb452fa9dff08d665bdeff3a4f0c3"
    again = tmp_path / "again.bin"
    save_heads(load_heads(path), again)
    assert again.read_bytes() == blob


def test_corrupt_heads_file_names_the_file(tmp_path):
    path = tmp_path / "heads.bin"
    save_heads(init_heads(m=3, d=6, h=4, seed=42), path)
    blob = path.read_bytes()
    header, body = blob.split(b"\n", 1)
    bad_header = [b"{not json" + b"\n" + body,
                  header.replace(b'"d": 6, ', b"") + b"\n" + body,
                  header.replace(b'"h": 4', b'"h": null') + b"\n" + body,
                  header.replace(b'"m": 3', b'"m": -1') + b"\n" + body,
                  header.replace(b'"m": 3', b'"m": 1e999') + b"\n" + body]
    for corrupt in [blob[:cut] for cut in range(len(blob))] + bad_header:
        path.write_bytes(corrupt)
        with pytest.raises(TrainingError, match="heads.bin"):
            load_heads(path)
