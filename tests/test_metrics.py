import math

import numpy as np
import pytest

from oracle import cognitive_load, cosine_similarity
from qembed.metrics import (
    MetricError,
    average_ranks,
    ndcg_at_k,
    spearman,
    v_measure,
)


class TestCosine:
    def test_self_similarity_is_one(self):
        v = np.array([0.3, -1.2, 4.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_hand_example(self):
        assert cosine_similarity([1, 0, 1], [1, 1, 1]) == pytest.approx(2 / math.sqrt(6),
                                                                        abs=1e-12)

    def test_zero_vector_convention(self):
        assert cosine_similarity([0, 0, 0], [1, 2, 3]) == 0.0
        assert cosine_similarity([1, 2, 3], [0, 0, 0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(MetricError):
            cosine_similarity([1, 2], [1, 2, 3])


class TestSpearman:
    def test_identical_orderings(self):
        assert spearman([1, 5, 9], [2, 3, 4]) == pytest.approx(1.0, abs=1e-12)

    def test_reversed(self):
        assert spearman([1, 2, 3], [9, 5, 1]) == pytest.approx(-1.0, abs=1e-12)

    def test_rank_difference_oracle(self):
        # d^2 sum = 2 -> 1 - 6*2/(4*15) = 0.8
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_ties_get_average_ranks(self):
        np.testing.assert_array_equal(average_ranks([1, 2, 2, 3]), [1.0, 2.5, 2.5, 4.0])
        assert spearman([1, 2, 2, 3], [1, 2, 3, 4]) == pytest.approx(3 / math.sqrt(10),
                                                                     abs=1e-12)

    def test_constant_input_is_an_error(self):
        with pytest.raises(MetricError, match="constant"):
            spearman([1, 1, 1], [1, 2, 3])
        with pytest.raises(MetricError, match="constant"):
            spearman([1, 2, 3], [5, 5, 5])

    def test_monotone_transform_invariance(self):
        rng = np.random.Generator(np.random.PCG64(0))
        transforms = [lambda x: 3 * x + 1, np.exp, np.tanh, lambda x: x ** 3]
        for trial in range(20):
            xs = rng.standard_normal(30)
            ys = rng.standard_normal(30)
            base = spearman(xs, ys)
            f = transforms[trial % len(transforms)]
            assert spearman(f(xs), ys) == pytest.approx(base, abs=1e-12)
            assert spearman(xs, f(ys)) == pytest.approx(base, abs=1e-12)


class TestNdcg:
    def test_ideal_ranking_is_one(self):
        qrels = {"a": 3.0, "b": 2.0, "c": 1.0}
        assert ndcg_at_k(["a", "b", "c"], qrels, k=10) == pytest.approx(1.0, abs=1e-12)

    def test_hand_example(self):
        # relevant docs at ranks 1 and 3, two relevant total
        qrels = {"r1": 1.0, "r2": 1.0}
        ranking = ["r1", "x", "r2", "y"]
        expected = (1.0 + 1.0 / math.log2(4)) / (1.0 + 1.0 / math.log2(3))
        assert ndcg_at_k(ranking, qrels, k=10) == pytest.approx(expected, abs=1e-12)
        assert ndcg_at_k(ranking, qrels, k=10) == pytest.approx(0.9197, abs=1e-4)

    def test_relevant_exist_but_none_retrieved(self):
        qrels = {"r": 1.0}
        assert ndcg_at_k(["x", "y"], qrels, k=2) == 0.0

    def test_no_relevant_docs_warns_and_returns_zero(self, caplog):
        with caplog.at_level("WARNING"):
            assert ndcg_at_k(["x"], {"x": 0.0}, k=10) == 0.0
        assert any("no relevant" in r.message for r in caplog.records)

    def test_permutations_below_k_are_irrelevant(self):
        qrels = {"a": 1.0, "b": 1.0}
        base = ndcg_at_k(["a", "b", "x", "y", "z"], qrels, k=2)
        swapped = ndcg_at_k(["a", "b", "z", "y", "x"], qrels, k=2)
        assert base == swapped == 1.0

    def test_k_must_be_positive(self):
        with pytest.raises(MetricError):
            ndcg_at_k(["a"], {"a": 1.0}, k=0)


class TestVMeasure:
    def test_relabeling_is_perfect(self):
        true = [0, 0, 1, 1, 2, 2]
        pred = [5, 5, 9, 9, 7, 7]
        assert v_measure(true, pred) == 1.0

    def test_all_same_prediction_is_zero(self):
        assert v_measure([0, 0, 1, 1], [0, 0, 0, 0]) == 0.0

    def test_crossed_assignment_is_zero(self):
        assert v_measure([0, 0, 1, 1], [0, 1, 0, 1]) == 0.0

    def test_self_agreement_is_one(self):
        labels = [0, 1, 2, 0, 1, 2, 1]
        assert v_measure(labels, labels) == 1.0

    def test_symmetric_under_relabeling_both_sides(self):
        rng = np.random.Generator(np.random.PCG64(1))
        true = rng.integers(0, 4, size=50)
        pred = rng.integers(0, 3, size=50)
        base = v_measure(true, pred)
        remap_true = np.array([10, 20, 30, 40])[true]
        remap_pred = np.array([7, 5, 3])[pred]
        assert v_measure(remap_true, remap_pred) == pytest.approx(base, abs=1e-12)

    def test_value_in_unit_interval(self):
        rng = np.random.Generator(np.random.PCG64(2))
        for _ in range(20):
            true = rng.integers(0, 5, size=40)
            pred = rng.integers(0, 5, size=40)
            v = v_measure(true, pred)
            assert 0.0 <= v <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(MetricError):
            v_measure([0, 1], [0, 1, 2])


class TestCognitiveLoad:
    def test_hand_example(self):
        assert cognitive_load([1, 0, 1], [1, 1, 1]) == 2

    def test_all_zero(self):
        assert cognitive_load([0, 0, 0], [1, 1, 1]) == 0

    def test_loop_oracle_random_vectors(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(50):
            u = rng.integers(0, 2, size=512)
            v = rng.integers(0, 2, size=512)
            assert cognitive_load(u, v) == sum(int(a) * int(b) for a, b in zip(u, v))

    def test_rejects_non_binary(self):
        with pytest.raises(MetricError):
            cognitive_load([0, 2], [1, 1])
