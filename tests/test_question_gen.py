import dataclasses
import hashlib
import itertools
import json
import types
import warnings

import numpy as np
import pytest

from qembed import question_gen
from qembed.cluster import ClusterModel
from qembed.config import GenerationSection, ProbeSection
from qembed.prompts import CandidateQuestion
from qembed.providers import CachedLLM, MockEncoder, ProviderError, UnscriptedPromptError
from qembed.question_gen import (
    BankQuestion,
    ProbeOutcome,
    QuestionBank,
    SamplingError,
    ScoredQuestion,
    generate_cluster_questions,
    load_question_bank,
    probe_question,
    quality_score,
    sample_contrastive,
    save_question_bank,
    select_question_bank,
)


def make_model(sizes, positions):
    """Line-shaped cluster model with given member counts per cluster."""
    centroids = np.array([[p, 0.0] for p in positions])
    doc_ids, labels = [], []
    for c, size in enumerate(sizes):
        for i in range(size):
            doc_ids.append(f"c{c}d{i}")
            labels.append(c)
    return ClusterModel(centroids=centroids, doc_ids=doc_ids,
                        labels=np.asarray(labels, dtype=np.int64), seed=0, inertia=0.0)


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


class QueueLLM:
    """Test double: returns canned responses in order, recording prompts."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.prompts = []

    def complete(self, prompt):
        self.prompts.append(prompt)
        if not self.responses:
            raise AssertionError("QueueLLM exhausted")
        return self.responses.pop(0)


class RuleLLM:
    """Test double: parses the text chunk out of an answer prompt and applies a rule."""

    def __init__(self, rule):
        self.rule = rule

    def complete(self, prompt):
        chunk = prompt.split("Text Chunk:\n", 1)[1].split("\n\nQuestions:", 1)[0]
        question = prompt.split("Questions:\n1. ", 1)[1].split("\n", 1)[0]
        return "1. yes" if self.rule(chunk, question) else "1. no"


class TestQualityScore:
    def test_perfect_split_is_one(self):
        assert quality_score(5, 5, 0, 5) == 1.0

    def test_all_yes_and_all_no_are_zero(self):
        assert quality_score(5, 5, 5, 5) == 0.0
        assert quality_score(0, 5, 0, 5) == 0.0

    def test_hand_arithmetic(self):
        assert quality_score(4, 5, 1, 5) == pytest.approx(0.6, abs=1e-12)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            quality_score(6, 5, 0, 5)
        with pytest.raises(ValueError):
            quality_score(0, 5, 6, 5)

    def test_bounds_over_full_grid(self):
        for pos in range(6):
            for neg in range(6):
                q = quality_score(pos, 5, neg, 5)
                assert -1.0 <= q <= 1.0
                assert (q == 1.0) == (pos == 5 and neg == 0)


class TestSampleContrastive:
    def default_model(self):
        return make_model(sizes=[8, 7, 7, 7, 10, 10],
                          positions=[0.0, 1.0, 1.05, 1.1, 5.0, 5.1])

    def test_default_counts_and_disjointness(self):
        model = self.default_model()
        sample = sample_contrastive(model, 0, GenerationSection(), rng(1))
        assert len(sample.positives) == 6
        assert len(sample.hard_negatives) == 18
        assert len(sample.easy_negatives) == 18
        groups = [set(sample.positives), set(sample.hard_negatives),
                  set(sample.easy_negatives)]
        assert not (groups[0] & groups[1] or groups[0] & groups[2] or groups[1] & groups[2])
        assignments = dict(zip(model.doc_ids, model.labels))
        assert all(assignments[d] == 0 for d in sample.positives)
        assert all(assignments[d] in (1, 2, 3) for d in sample.hard_negatives)
        assert all(assignments[d] in (4, 5) for d in sample.easy_negatives)

    def test_small_cluster_takes_all_members_with_warning(self, caplog):
        model = make_model(sizes=[4, 10, 10, 10, 20, 20],
                           positions=[0.0, 1.0, 1.05, 1.1, 5.0, 5.1])
        with caplog.at_level("WARNING"):
            sample = sample_contrastive(model, 0, GenerationSection(), rng(2))
        assert sorted(sample.positives) == [f"c0d{i}" for i in range(4)]
        assert any("taking all" in r.message for r in caplog.records)

    def test_deficient_negative_pool_is_an_error_naming_the_pool(self):
        model = make_model(sizes=[8, 2, 2, 2, 10, 10],
                           positions=[0.0, 1.0, 1.05, 1.1, 5.0, 5.1])
        with pytest.raises(SamplingError, match="hard negative pool"):
            sample_contrastive(model, 0, GenerationSection(), rng(3))

    def test_short_easy_pool_takes_all_with_warning(self, caplog):
        """k-means can leave fewer texts outside c and its neighbours than easy_negatives."""
        model = make_model(sizes=[8, 7, 7, 7, 2, 2],
                           positions=[0.0, 1.0, 1.05, 1.1, 5.0, 5.1])
        with caplog.at_level("WARNING"):
            sample = sample_contrastive(model, 0, GenerationSection(), rng(3))
        assert sorted(sample.easy_negatives) == ["c4d0", "c4d1", "c5d0", "c5d1"]
        assert len(sample.hard_negatives) == 18
        assert any("easy negative pool has only 4 texts, need 18" in r.message
                   for r in caplog.records)

    def test_fixed_seed_reproduces_sample(self):
        model = self.default_model()
        a = sample_contrastive(model, 0, GenerationSection(), rng(7))
        b = sample_contrastive(model, 0, GenerationSection(), rng(7))
        assert a == b


class TestGenerateClusterQuestions:
    def sample(self):
        return __import__("qembed.question_gen", fromlist=["ContrastiveSample"]) \
            .ContrastiveSample(cluster_id=2, positives=["p1"], hard_negatives=["h1"],
                               easy_negatives=["e1"])

    def texts(self):
        return {"p1": "stars and planets", "h1": "cooking with basil", "e1": "goal scored"}

    def test_parses_questions_with_origin_cluster(self):
        llm = QueueLLM(["1. Is it about space?\n2. Does it mention stars?"])
        out = generate_cluster_questions(self.sample(), self.texts(), llm)
        assert [q.text for q in out] == ["Is it about space?", "Does it mention stars?"]
        assert all(q.origin_cluster == 2 for q in out)
        assert "Positive 1. stars and planets" in llm.prompts[0]

    def test_truncates_beyond_ten(self, caplog):
        response = "\n".join(f"{i}. Is it question {i}?" for i in range(1, 14))
        with caplog.at_level("WARNING"):
            out = generate_cluster_questions(self.sample(), self.texts(), QueueLLM([response]))
        assert len(out) == 10

    def test_unparseable_output_gives_empty_list(self, caplog):
        with caplog.at_level("WARNING"):
            out = generate_cluster_questions(self.sample(), self.texts(),
                                             QueueLLM(["I refuse."]))
        assert out == []

    def test_provider_failure_skips_the_cluster_but_a_scripted_miss_raises(self, caplog):
        class FailingLLM:
            def complete(self, prompt):
                raise ProviderError("boom")

        with caplog.at_level("WARNING"):
            assert generate_cluster_questions(self.sample(), self.texts(), FailingLLM()) == []
        assert "generation failed for cluster 2: boom" in caplog.text
        with pytest.raises(UnscriptedPromptError, match="no scripted response"):
            generate_cluster_questions(self.sample(), self.texts(), CachedLLM(None, {}))


class TestProbeQuestion:
    def probe_model(self):
        # cluster 0: 5 members (positives); 1,2,3: one member each (hard); 4: two (easy)
        return make_model(sizes=[5, 1, 1, 1, 2],
                          positions=[0.0, 1.0, 1.1, 1.2, 10.0])

    def texts(self, model):
        return {d: f"text of {d}" for d in model.doc_ids}

    def outcome(self, yes_docs):
        model = self.probe_model()
        texts = self.texts(model)
        llm = RuleLLM(lambda chunk, q: any(d in chunk for d in yes_docs))
        q = CandidateQuestion(text="Is it in the yes set?", origin_cluster=0, ordinal=0)
        return probe_question(q, model, texts, llm, ProbeSection(), rng(4))

    def test_perfect_question_scores_one(self):
        out = self.outcome(yes_docs=[f"c0d{i}" for i in range(5)])
        assert out.quality == 1.0
        assert (out.pos_yes, out.neg_yes) == (5, 0)

    def test_all_no_and_all_yes_score_zero(self):
        assert self.outcome(yes_docs=[]).quality == 0.0
        model = self.probe_model()
        assert self.outcome(yes_docs=list(model.doc_ids)).quality == 0.0

    def test_hand_arithmetic_four_fifths_minus_one_fifth(self):
        yes = [f"c0d{i}" for i in range(4)] + ["c1d0"]
        out = self.outcome(yes_docs=yes)
        assert (out.pos_yes, out.neg_yes) == (4, 1)
        assert out.quality == pytest.approx(0.6, abs=1e-12)

    def test_provider_failure_returns_none(self):
        class FailingLLM:
            def complete(self, prompt):
                raise ProviderError("boom")

        model = self.probe_model()
        q = CandidateQuestion(text="Is it anything?", origin_cluster=0, ordinal=0)
        assert probe_question(q, model, self.texts(model), FailingLLM(),
                              ProbeSection(), rng(5)) is None

    def test_a_scripted_miss_raises(self):
        model = self.probe_model()
        q = CandidateQuestion(text="Is it anything?", origin_cluster=0, ordinal=0)
        with pytest.raises(UnscriptedPromptError, match="no scripted response"):
            probe_question(q, model, self.texts(model), CachedLLM(None, {}), ProbeSection(),
                           rng(5))

    def test_quality_matches_brute_force_over_all_probe_combinations(self):
        # every assignment of yes/no to the 10 probes, scored through the full path
        model = self.probe_model()
        texts = self.texts(model)
        pos_docs = [f"c0d{i}" for i in range(5)]
        neg_docs = ["c1d0", "c2d0", "c3d0", "c4d0", "c4d1"]
        question = CandidateQuestion(text="Is it marked yes?", origin_cluster=0, ordinal=0)
        for bits in itertools.product((0, 1), repeat=10):
            yes_set = {d for d, b in zip(pos_docs + neg_docs, bits) if b}
            llm = RuleLLM(lambda chunk, q: any(d in chunk for d in yes_set))
            out = probe_question(question, model, texts, llm,
                                 ProbeSection(), rng(6))
            pos_yes = sum(bits[:5])
            neg_yes = sum(bits[5:])
            assert out.pos_yes == pos_yes and out.neg_yes == neg_yes
            assert out.quality == pos_yes / 5 - neg_yes / 5  # exact


def scored(text, cluster, quality, ordinal=0):
    return ScoredQuestion(
        question=CandidateQuestion(text=text, origin_cluster=cluster, ordinal=ordinal),
        probe=ProbeOutcome(pos_yes=0, neg_yes=0, p_p=5, p_neg=5, quality=quality))


class TestSelectQuestionBank:
    def test_identical_texts_across_clusters_dedup(self):
        encoder = MockEncoder(dim=32, seed=0)
        candidates = [scored("Is it about space?", 0, 0.9),
                      scored("Is it about space?", 1, 0.8)]
        bank = select_question_bank(candidates, encoder, theta=0.8, t=4)
        assert bank.m == 1
        assert bank.questions[0].origin_cluster == 0

    def test_per_cluster_cap_keeps_top_quality(self):
        encoder = MockEncoder(dim=32, seed=0)
        candidates = [scored(f"Is it unique topic {chr(97 + i)} number {i}?", 0,
                             quality=i / 10, ordinal=i)
                      for i in range(6)]
        bank = select_question_bank(candidates, encoder, theta=0.8, t=4)
        assert bank.m == 4
        kept_quality = sorted(q.quality for q in bank.questions)
        assert kept_quality == [0.2, 0.3, 0.4, 0.5]

    def test_quality_ties_break_by_ordinal(self):
        encoder = MockEncoder(dim=32, seed=0)
        candidates = [scored("Is it alpha wolf?", 0, 0.5, ordinal=1),
                      scored("Is it beta fish?", 0, 0.5, ordinal=0)]
        bank = select_question_bank(candidates, encoder, theta=0.8, t=1)
        assert bank.questions[0].text == "Is it beta fish?"

    def test_ids_dense_in_admission_order(self):
        encoder = MockEncoder(dim=32, seed=0)
        candidates = [scored(f"Is it thing {chr(97 + i)} {i}?", i % 3, quality=1.0 - i / 20,
                             ordinal=i)
                      for i in range(9)]
        bank = select_question_bank(candidates, encoder, theta=0.8, t=4)
        assert [q.id for q in bank.questions] == list(range(bank.m))
        clusters = [q.origin_cluster for q in bank.questions]
        assert clusters == sorted(clusters)  # ascending cluster processing

    def test_cosine_exactly_theta_is_admitted(self, fixed_encoder_factory):
        theta = 0.8
        e1 = np.zeros(4)
        e1[0] = 1.0
        at_theta = np.array([theta, np.sqrt(1 - theta ** 2), 0.0, 0.0])
        encoder = fixed_encoder_factory({"Is it a?": e1, "Is it b?": at_theta})
        candidates = [scored("Is it a?", 0, 0.9, ordinal=0),
                      scored("Is it b?", 0, 0.8, ordinal=1)]
        bank = select_question_bank(candidates, encoder, theta=theta, t=4)
        assert bank.m == 2  # similarity == theta is not "exceeds"

    def test_bank_invariants_on_random_candidates_brute_force(self):
        # acceptance-style check at reduced size; full 500 lives in test_acceptance
        encoder = MockEncoder(dim=48, seed=3)
        generator = np.random.Generator(np.random.PCG64(9))
        words = [f"w{i}" for i in range(60)]
        candidates = []
        for i in range(120):
            picks = generator.choice(60, size=3, replace=False)
            text = f"Is {words[picks[0]]} {words[picks[1]]} {words[picks[2]]} present?"
            candidates.append(scored(text, int(generator.integers(0, 6)),
                                     float(generator.random()), ordinal=i))
        theta, t = 0.8, 4
        bank = select_question_bank(candidates, encoder, theta=theta, t=t)
        vecs = np.stack([q.embedding for q in bank.questions])
        sims = vecs @ vecs.T
        off_diag = sims[~np.eye(bank.m, dtype=bool)]
        assert np.all(off_diag <= theta + 1e-12)
        per_cluster = {}
        for q in bank.questions:
            per_cluster[q.origin_cluster] = per_cluster.get(q.origin_cluster, 0) + 1
        assert all(v <= t for v in per_cluster.values())

    def test_empty_candidates_give_empty_bank(self, caplog):
        with caplog.at_level("WARNING"):
            bank = select_question_bank([], MockEncoder(dim=8, seed=0), theta=0.8, t=4)
        assert bank.m == 0


def pairwise_is_duplicate(candidate_vec, admitted, theta):
    """The pairwise dedup rule: duplicate iff some cosine strictly exceeds theta."""
    for vec in admitted:
        denom = float(np.linalg.norm(candidate_vec) * np.linalg.norm(vec))
        sim = float(candidate_vec @ vec) / denom if denom else 0.0
        if sim > theta:
            return True
    return False


def pairwise_greedy(texts, embeddings, theta, clusters, t):
    """Greedy admission in the given order with the pairwise rule and a per-cluster cap."""
    kept, admitted_vecs, per_cluster = [], [], {}
    for text, vec, cluster in zip(texts, embeddings, clusters):
        if per_cluster.get(cluster, 0) >= t:
            continue
        norm = float(np.linalg.norm(vec))
        unit = vec / norm if norm else vec
        if pairwise_is_duplicate(unit, admitted_vecs, theta):
            continue
        kept.append(text)
        admitted_vecs.append(unit)
        per_cluster[cluster] = per_cluster.get(cluster, 0) + 1
    return kept


def ulp_steps(x, toward, count):
    steps = []
    for _ in range(count):
        x = np.nextafter(x, toward)
        steps.append(float(x))
    return steps


NEAR_THETA = 0.8


def near_theta_pairs(cosines, dim):
    """(anchor, partner) texts and vectors, each partner at the given cosine to
    its anchor in a rotated plane of its own, plus spare, zero and NaN rows."""
    basis, _ = np.linalg.qr(rng(11).standard_normal((dim, dim)))
    pairs = []
    for i, c in enumerate(cosines):
        a, b = basis[:, 2 * i], basis[:, 2 * i + 1]
        pairs.append(((f"Is it anchor {i}?", a),
                      (f"Is it partner {i}?", c * a + np.sqrt(1.0 - c * c) * b)))
    spare = [(f"Is it spare {j}?", basis[:, 2 * len(cosines) + j]) for j in range(5)]
    zeros = [(f"Is it void {j}?", np.zeros(dim)) for j in range(2)]
    nans = [(f"Is it undefined {j}?", np.full(dim, np.nan)) for j in range(2)]
    return pairs, spare, zeros, nans


def select_near_theta(cosines, dim, encoder_factory):
    """The bank select_question_bank keeps, at NEAR_THETA and t = 2, and the
    pairwise greedy rule's texts. Zero and NaN rows come first, so that every
    later candidate is compared with them."""
    pairs, spare, zeros, nans = near_theta_pairs(cosines, dim)
    candidates = [scored(text, 0, 0.5, ordinal=j) for j, (text, _) in enumerate(zeros)]
    candidates += [scored(text, 1, 0.5, ordinal=j) for j, (text, _) in enumerate(nans)]
    table = dict(zeros + nans)
    for i, ((anchor, a), (partner, p)) in enumerate(pairs, start=2):
        candidates += [scored(anchor, i, 0.9, ordinal=0), scored(partner, i, 0.5, ordinal=1)]
        table.update({anchor: a, partner: p})
    candidates += [scored(text, len(pairs) + 2, 0.9 - j / 10, ordinal=j)
                   for j, (text, _) in enumerate(spare)]  # 5 candidates, cap 2
    table.update(spare)
    encoder = encoder_factory(table)
    bank = select_question_bank(candidates[::-1], encoder, theta=NEAR_THETA, t=2)
    texts = [s.question.text for s in candidates]  # already in greedy order
    expected = pairwise_greedy(texts, encoder.encode(texts), NEAR_THETA,
                               clusters=[s.question.origin_cluster for s in candidates], t=2)
    assert sum(text.startswith("Is it spare") for text in expected) == 2
    assert all(text in expected for text, _ in zeros + nans)
    return bank.texts(), expected


class TestDedupMatchesPairwiseRule:
    def test_select_question_bank(self, fixed_encoder_factory):
        cosines = ([NEAR_THETA] + ulp_steps(NEAR_THETA, 2.0, 4) + ulp_steps(NEAR_THETA, -2.0, 4)
                   + [NEAR_THETA + 1e-10, NEAR_THETA - 1e-10])
        kept, expected = select_near_theta(cosines, 40, fixed_encoder_factory)
        assert kept == expected
        assert "Is it partner 9?" not in expected  # theta + 1e-10
        assert "Is it partner 10?" in expected     # theta - 1e-10

    def test_at_the_workload_width_inside_and_outside_the_band(self, fixed_encoder_factory):
        """At d = 256, partners at theta +- M/2 fall inside the float32 screen's
        band, so the exact check decides them; at theta +- 2M the screen does."""
        dim = 256
        margin = question_gen._screen_margin(dim)
        cosines = [NEAR_THETA + margin / 2, NEAR_THETA - margin / 2,
                   NEAR_THETA + 2 * margin, NEAR_THETA - 2 * margin]
        pairs, *_ = near_theta_pairs(cosines, dim)
        for c, ((_, a), (_, p)) in zip(cosines, pairs):
            screened = float(a.astype(np.float32) @ (p / np.linalg.norm(p)).astype(np.float32))
            inside = abs(c - NEAR_THETA) < margin
            assert (abs(screened - NEAR_THETA) <= margin) == inside
        kept, expected = select_near_theta(cosines, dim, fixed_encoder_factory)
        assert kept == expected
        assert [f"Is it partner {i}?" in expected for i in range(4)] == [
            False, True, False, True]

    def test_vectors_outside_the_screened_norms_are_decided_exactly(self):
        """A vector whose raw norm lies outside the screened range, or that is
        zero or NaN, is screened as NaN; the exact check still finds its
        duplicates."""
        dim = 256
        basis, _ = np.linalg.qr(rng(5).standard_normal((dim, dim)))
        a, b, c = basis[:, 0], basis[:, 1], basis[:, 2]
        near = 0.9 * a + np.sqrt(0.19) * b
        far, other_far = 0.7 * a + np.sqrt(0.51) * b, 0.7 * a + np.sqrt(0.51) * c
        vectors = [a, 1e-160 * near, 1e-100 * far, 1e-100 * near, 1e100 * near,
                   np.zeros(dim), np.full(dim, np.nan), 1e-160 * other_far]
        texts = [f"v{i}" for i in range(len(vectors))]
        expected = pairwise_greedy(texts, vectors, NEAR_THETA, clusters=texts, t=1)
        dedup = question_gen._AdmittedSet(len(vectors), dim, NEAR_THETA)
        assert [text for text, vec in zip(texts, vectors) if dedup.admit(vec) is not None] == (
            expected)
        assert not {"v1", "v3", "v4"} & set(expected)  # cosine 0.9 at any scale
        assert "v2" in expected and "v7" in expected          # cosines 0.7 and 0.49

    @pytest.mark.parametrize("big_first", [False, True])
    def test_a_vector_whose_squares_overflow_duplicates_its_unit_twin(self, big_first):
        """1e250 a squares to inf: admit divides it by its largest |entry| first,
        as LAPACK's dnrm2 does, so it is a's duplicate in either order, and no
        overflow warning is raised."""
        a = np.linalg.qr(rng(5).standard_normal((256, 256)))[0][:, 0]
        rows = {"Is it first?": 1e250 * a if big_first else a,
                "Is it second?": a if big_first else 1e250 * a}
        encoder = types.SimpleNamespace(  # raw rows, as an encoder may return them
            dim=256, encode=lambda texts: np.stack([rows[t] for t in texts]),
            fingerprint=lambda: "raw")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bank = select_question_bank([scored("Is it first?", 0, 0.9, ordinal=0),
                                         scored("Is it second?", 1, 0.9, ordinal=0)],
                                        encoder, theta=NEAR_THETA, t=4)
        assert bank.texts() == ["Is it first?"]
        np.testing.assert_allclose(bank.questions[0].embedding, a, rtol=0, atol=1e-15)


def test_select_bank_shaped_bank_keeps_its_pinned_bytes():
    """150 clusters of 10 distinct candidates at d = 256, theta 0.8 and t 4:
    the bank's texts, fingerprint and embedding bytes are pinned."""
    generator = rng(23)
    candidates, seen = [], set()
    for cluster in range(150):
        own = generator.choice(600, 4, replace=False)
        ordinal = 0
        while ordinal < 10:
            a, b = generator.choice(own, 2, replace=False)
            other = int(generator.integers(600))
            verb = ("mention", "describe")[int(generator.integers(2))]
            text = f"Does the text {verb} term{a} term{b} or term{other}?"
            if text in seen:
                continue
            seen.add(text)
            pos, neg = int(generator.integers(0, 6)), int(generator.integers(0, 6))
            candidates.append(scored(text, cluster, quality_score(pos, 5, neg, 5), ordinal))
            ordinal += 1
    bank = select_question_bank(candidates, MockEncoder(dim=256, seed=0), theta=0.8, t=4)
    texts = hashlib.sha256("\n".join(bank.texts()).encode("utf-8")).hexdigest()
    embeddings = np.stack([q.embedding for q in bank.questions]).tobytes()
    assert bank.m == 600
    assert texts == "96b9746979376a6794b0e496ddc03246430f39cdaad59729a4014a8f51b8e069"
    assert bank.fingerprint() == "3f3e6f5cd1ce22b0"
    assert hashlib.sha256(embeddings).hexdigest() == (
        "5607988b4fa142d73e515d369e47c80b36df469fc2107a2000c4cc98775c2fe4")


def test_bank_save_load_roundtrip(tmp_path):
    encoder = MockEncoder(dim=16, seed=0)
    candidates = [scored(f"Is it item {chr(97 + i)} {i}?", i % 2, quality=0.5 + i / 10,
                         ordinal=i) for i in range(4)]
    bank = select_question_bank(candidates, encoder, theta=0.8, t=4)
    path = tmp_path / "bank.jsonl"
    save_question_bank(bank, path)
    loaded = load_question_bank(path)
    assert loaded.m == bank.m
    assert loaded.theta == bank.theta and loaded.t == bank.t
    assert loaded.encoder_fingerprint == bank.encoder_fingerprint
    assert loaded.texts() == bank.texts()
    for a, b in zip(loaded.questions, bank.questions):
        assert (a.id, a.text, a.origin_cluster, a.quality) == \
            (b.id, b.text, b.origin_cluster, b.quality)
        assert a.embedding is None and b.embedding is not None  # selected, never stored
    assert loaded.fingerprint() == bank.fingerprint()
    header, *rows = map(json.loads, path.read_text().splitlines())
    assert header == {"theta": 0.8, "t": 4, "m": bank.m,
                      "encoder_fingerprint": "mock-encoder:dim=16:seed=0"}
    assert all(row.keys() == {"id", "text", "origin_cluster", "quality"} for row in rows)


def test_bank_is_immutable_and_fingerprinted_once(monkeypatch):
    questions = [BankQuestion(id=i, text=f"Is it {i}?", origin_cluster=0, quality=0.5,
                              embedding=np.zeros(2)) for i in range(3)]
    bank = QuestionBank(questions=questions, theta=0.8, t=4, encoder_fingerprint="enc")
    questions.append(questions[0])  # the caller's list is not the bank's
    assert bank.questions == tuple(questions[:3])
    with pytest.raises(dataclasses.FrozenInstanceError):
        bank.theta = 0.9
    other = dataclasses.replace(bank, theta=0.9)
    assert other.fingerprint() != bank.fingerprint()
    fingerprint = bank.fingerprint()
    monkeypatch.setattr(question_gen, "hashlib", None)  # any rehash would now fail
    assert bank.fingerprint() == fingerprint
