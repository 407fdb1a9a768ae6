import itertools

import warnings

import numpy as np
import pytest

import qembed.cluster
from oracle import reference_kmeans_fit, sorted_neighbors
from qembed.cluster import (
    ClusterError,
    ClusterModel,
    effective_k,
    kmeans_fit,
    load_cluster_model,
    nearest_clusters,
    save_cluster_model,
)


def unit(rows):
    rows = np.asarray(rows, dtype=np.float64)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def blobs(rng, centers, per, spread=0.05):
    points = []
    for c in centers:
        points.append(np.asarray(c) + spread * rng.standard_normal((per, len(c))))
    return unit(np.vstack(points))


class TestKmeansFit:
    def test_two_separated_clouds_recover_means(self):
        rng = np.random.Generator(np.random.PCG64(0))
        x = blobs(rng, [[1, 0, 0], [0, 0, 1]], per=20)
        model = kmeans_fit(x, k=2, seed=0)
        counts = np.bincount(model.labels)
        assert sorted(counts) == [20, 20]
        # each centroid equals the mean of its members
        for c in range(2):
            members = x[model.labels == c]
            np.testing.assert_allclose(model.centroids[c], members.mean(axis=0), atol=1e-9)

    def test_k1_gives_global_mean_and_total_variance(self):
        rng = np.random.Generator(np.random.PCG64(1))
        x = unit(rng.standard_normal((30, 4)))
        model = kmeans_fit(x, k=1, seed=3)
        np.testing.assert_allclose(model.centroids[0], x.mean(axis=0), atol=1e-12)
        expected = float(((x - x.mean(axis=0)) ** 2).sum())
        assert model.inertia == pytest.approx(expected, rel=1e-12)

    def test_six_points_k2_matches_brute_force_partition_oracle(self):
        x = unit([[1.0, 0.1], [0.9, 0.2], [1.1, -0.1],
                  [-1.0, 0.1], [-0.9, -0.2], [-1.1, 0.15]])
        model = kmeans_fit(x, k=2, seed=0)

        def cost(groups):
            total = 0.0
            for g in groups:
                pts = x[list(g)]
                total += float(((pts - pts.mean(axis=0)) ** 2).sum())
            return total

        best = min(
            (cost([part, tuple(i for i in range(6) if i not in part)])
             for r in range(1, 6) for part in itertools.combinations(range(6), r)),
        )
        assert model.inertia == pytest.approx(best, rel=1e-9)

    def test_same_seed_reproduces_bit_identical_fit(self):
        rng = np.random.Generator(np.random.PCG64(2))
        x = unit(rng.standard_normal((60, 8)))
        a = kmeans_fit(x, k=5, seed=11)
        b = kmeans_fit(x, k=5, seed=11)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        assert a.inertia == b.inertia

    def test_rejects_k_larger_than_n(self):
        x = unit(np.random.default_rng(0).standard_normal((3, 2)))
        with pytest.raises(ClusterError):
            kmeans_fit(x, k=4, seed=0)

    def test_rejects_non_finite(self):
        x = np.asarray([[1.0, 0.0], [np.nan, 1.0]])
        with pytest.raises(ClusterError, match="non-finite"):
            kmeans_fit(x, k=1, seed=0)

    def test_duplicate_points_with_k_equal_distinct_still_fits(self):
        x = unit([[1, 0], [1, 0], [1, 0], [0, 1], [0, 1], [0, 1]])
        model = kmeans_fit(x, k=2, seed=4)
        assert model.inertia == pytest.approx(0.0, abs=1e-12)

    def test_assignments_are_argmin_at_convergence(self):
        rng = np.random.Generator(np.random.PCG64(5))
        x = unit(rng.standard_normal((80, 6)))
        model = kmeans_fit(x, k=7, seed=9)
        d2 = ((x[:, None, :] - model.centroids[None, :, :]) ** 2).sum(axis=2)
        best = d2.min(axis=1)
        picked = d2[np.arange(80), model.labels]
        assert np.all(picked <= best + 1e-9)

    def test_unit_rows_argmin_euclid_equals_argmax_dot(self):
        rng = np.random.Generator(np.random.PCG64(6))
        x = blobs(rng, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], per=15)
        model = kmeans_fit(x, k=4, seed=2)
        d2 = ((x[:, None, :] - model.centroids[None, :, :]) ** 2).sum(axis=2)
        dots = x @ model.centroids.T
        # mins unique on this data, so the two rules must agree exactly
        assert np.array_equal(np.argmin(d2, axis=1), np.argmax(dots, axis=1))

    def test_doc_ids_flow_into_members(self):
        x = unit([[1, 0], [0.99, 0.1], [0, 1], [0.05, 0.99]])
        ids = ["a", "b", "c", "d"]
        model = kmeans_fit(x, k=2, seed=0, doc_ids=ids)
        all_members = sorted(sum((model.members(c) for c in range(2)), []))
        assert all_members == sorted(ids)
        # members preserve corpus order within a cluster
        for c in range(2):
            ms = model.members(c)
            assert ms == [i for i in ids if i in set(ms)]


def _fit_cases():
    """(name, rows, k) for the comparison with the np.add.at fit."""
    rng = np.random.Generator(np.random.PCG64(21))
    corpus = unit(rng.standard_normal((300, 96)))
    duplicated = unit(np.repeat(rng.standard_normal((6, 16)), 5, axis=0))
    yield "k=1", corpus[:120], 1
    yield "k=n", corpus[:24], 24
    yield "k=4, d=7", unit(rng.standard_normal((90, 7))), 4
    yield "k=17, d=224", unit(rng.standard_normal((200, 224))), 17
    yield "k=30, n=300", corpus, 30
    yield "blobs", blobs(rng, np.eye(8)[:5], per=25, spread=0.3), 5
    yield "one long cluster", np.vstack([corpus[:3], unit(np.ones((150, 96)) + 0.01
                                         * rng.standard_normal((150, 96)))]), 4
    yield "duplicate rows", duplicated, 4
    # cubed normals: one cluster of this fit empties once and is re-seeded
    yield "reseeded", np.random.Generator(np.random.PCG64(2606)).standard_normal((23, 2)) ** 3, 9
    yield "binary rows", (rng.random((150, 40)) < 0.3).astype(np.float64), 4
    yield "binary rows, k=12", (rng.random((150, 40)) < 0.5).astype(np.float64), 12
    yield "signed zeros", -(rng.random((120, 24)) < 0.2).astype(np.float64), 6


@pytest.mark.parametrize("name, x, k", list(_fit_cases()),
                         ids=[case[0] for case in _fit_cases()])
def test_fit_matches_the_add_at_fit_bit_for_bit(name, x, k, monkeypatch):
    reseeds = []
    reseed = qembed.cluster._reseed_empty

    def counted(*args):
        reseeds.append(reseed(*args))
        return reseeds[-1]

    monkeypatch.setattr(qembed.cluster, "_reseed_empty", counted)
    for seed in (0, 5):
        fit = kmeans_fit(x, k=k, seed=seed)
        ref = reference_kmeans_fit(x, k=k, seed=seed)
        assert fit.centroids.tobytes() == ref.centroids.tobytes()
        assert fit.labels.tobytes() == ref.labels.tobytes()
        assert (fit.inertia, fit.iterations) == (ref.inertia, ref.iterations)
    assert any(reseeds) == (name == "reseeded")


@pytest.mark.parametrize("x, k", [
    (np.zeros((120, 16)), 4),                      # every row the same
    (unit(np.repeat(np.eye(10), 5, axis=0)), 50),  # 10 distinct unit rows, 5 copies each
    (np.repeat(np.eye(3), 4, axis=0), 4),          # 3 distinct rows for 4 clusters
], ids=["all-zero", "10-distinct-k50", "3-distinct-k4"])
def test_fewer_distinct_rows_than_clusters_converge(x, k):
    """Each distinct row gets one cluster and the other clusters stay empty:
    no cluster is re-seeded onto a copy of its own row or emptied for
    another, so the fit ends at once, with no warning, as the reference fit."""
    distinct = np.unique(x, axis=0, return_inverse=True)[1].ravel()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = kmeans_fit(x, k=k, seed=0)
    assert fit.iterations == 1 and fit.inertia == 0.0
    assert len(np.unique(fit.labels)) == distinct.max() + 1
    assert (np.unique(np.stack([fit.labels, distinct]), axis=1).shape[1]
            == distinct.max() + 1)  # copies of one row share one cluster
    ref = reference_kmeans_fit(x, k=k, seed=0)
    assert fit.centroids.tobytes() == ref.centroids.tobytes()
    assert fit.labels.tobytes() == ref.labels.tobytes()


class TestNearestClusters:
    def line_model(self, positions):
        centroids = np.array([[p, 0.0] for p in positions])
        return ClusterModel(centroids=centroids, doc_ids=[], labels=np.zeros(0, dtype=np.int64),
                            seed=0, inertia=0.0)

    def test_collinear_example(self):
        model = self.line_model([0.0, 1.0, 2.0, 10.0])
        assert nearest_clusters(model, 0, 2) == [1, 2]

    def test_j_equals_k_minus_one_returns_all_sorted(self):
        model = self.line_model([0.0, 5.0, 1.0, 3.0])
        assert nearest_clusters(model, 0, 3) == [2, 3, 1]

    def test_matches_brute_force_on_random_model(self):
        rng = np.random.Generator(np.random.PCG64(3))
        centroids = rng.standard_normal((10, 4))
        model = ClusterModel(centroids=centroids, doc_ids=[],
                             labels=np.zeros(0, dtype=np.int64), seed=0, inertia=0.0)
        for c in range(10):
            dist = np.linalg.norm(centroids - centroids[c], axis=1)
            expected = sorted((i for i in range(10) if i != c),
                              key=lambda i: (dist[i], i))
            assert nearest_clusters(model, c, 9) == expected
            assert nearest_clusters(model, c, 3) == expected[:3]

    def test_ties_break_low_index(self):
        model = self.line_model([0.0, 1.0, -1.0])
        assert nearest_clusters(model, 0, 2) == [1, 2]

    def test_matches_the_per_call_sort_with_ties_and_repeated_calls(self):
        # equidistant pairs, a centroid duplicated (distance 0 before c itself),
        # and a cluster asked about again with every j
        model = self.line_model([2.0, 1.0, 3.0, 0.0, 4.0, 2.0, 1.0, 2.0])
        for _ in range(2):
            for c in range(model.k):
                for j in range(1, model.k):
                    got = nearest_clusters(model, c, j)
                    assert got == sorted_neighbors(model, c, j), (c, j)
        got.append(-1)  # the caller's list is its own
        assert nearest_clusters(model, c, model.k - 1) == sorted_neighbors(model, c, model.k - 1)

    def test_order_is_memoized_per_model(self, monkeypatch):
        model = self.line_model([0.0, 5.0, 1.0, 3.0])
        assert nearest_clusters(model, 1, 2) == [3, 2]
        monkeypatch.setattr(np, "argsort", None)  # a second sort would fail
        assert nearest_clusters(model, 1, 3) == [3, 2, 0]
        with pytest.raises(ClusterError, match="out of range"):
            nearest_clusters(model, 4, 1)
        with pytest.raises(ClusterError, match="need 1 <= j < k=4"):
            nearest_clusters(model, 1, 4)

    def test_rejects_j_out_of_range(self):
        model = self.line_model([0.0, 1.0])
        with pytest.raises(ClusterError):
            nearest_clusters(model, 0, 2)


def test_members_partition_is_exact():
    rng = np.random.Generator(np.random.PCG64(8))
    x = unit(rng.standard_normal((50, 5)))
    model = kmeans_fit(x, k=6, seed=1)
    seen = []
    for c in range(model.k):
        seen.extend(model.members(c))
    assert sorted(seen) == sorted(model.doc_ids)
    assert len(seen) == 50


def test_effective_k_clamps_with_warning(caplog):
    assert effective_k(5000, 200) == 50
    assert effective_k(8, 200) == 8
    assert effective_k(10, 4) == 1


def test_save_load_roundtrip(tmp_path):
    rng = np.random.Generator(np.random.PCG64(9))
    x = unit(rng.standard_normal((40, 6)))
    model = kmeans_fit(x, k=4, seed=13, doc_ids=[f"doc{i}" for i in range(40)])
    path = tmp_path / "clusters.bin"
    save_cluster_model(model, path)
    loaded = load_cluster_model(path)
    assert loaded.k == model.k and loaded.d == model.d
    assert loaded.doc_ids == model.doc_ids
    np.testing.assert_array_equal(loaded.labels, model.labels)
    # centroids persisted in float32
    np.testing.assert_allclose(loaded.centroids, model.centroids, atol=1e-6)
    assert loaded.seed == 13
