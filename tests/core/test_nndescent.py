"""Unit tests for NNDescent (neighborhood propagation)."""

import numpy as np
import pytest

from repro.core.distances import DistanceComputer
from repro.core.nndescent import (
    knn_graph_to_graph,
    nn_descent,
    random_knn_init,
)


@pytest.fixture()
def computer():
    gen = np.random.default_rng(5)
    centers = gen.normal(size=(4, 6)) * 4
    labels = gen.integers(4, size=120)
    data = centers[labels] + 0.2 * gen.normal(size=(120, 6))
    return DistanceComputer(data.astype(np.float32))


def test_random_init_shapes(computer):
    ids, dists = random_knn_init(computer, 5, np.random.default_rng(0))
    assert ids.shape == (120, 5)
    assert dists.shape == (120, 5)


def test_random_init_no_self_loops(computer):
    ids, _ = random_knn_init(computer, 5, np.random.default_rng(0))
    for node in range(120):
        assert node not in ids[node]


def test_random_init_sorted(computer):
    _, dists = random_knn_init(computer, 5, np.random.default_rng(0))
    assert np.all(np.diff(dists, axis=1) >= 0)


def test_random_init_rejects_k_too_large(computer):
    with pytest.raises(ValueError):
        random_knn_init(computer, 120, np.random.default_rng(0))


def test_nn_descent_improves_over_random(computer):
    rng = np.random.default_rng(1)
    init_ids, init_dists = random_knn_init(computer, 6, rng)
    result = nn_descent(computer, 6, np.random.default_rng(1), max_iterations=6)
    assert result.dists.mean() < init_dists.mean()


def test_nn_descent_high_recall_vs_exact(computer):
    result = nn_descent(computer, 6, np.random.default_rng(2), max_iterations=8)
    hits = total = 0
    for node in range(0, 120, 10):
        exact, _ = computer.exact_knn(computer.data[node], 7)
        exact = [e for e in exact.tolist() if e != node][:6]
        hits += len(set(exact) & set(result.ids[node].tolist()))
        total += 6
    assert hits / total > 0.85


def test_nn_descent_converges_before_max(computer):
    result = nn_descent(
        computer, 6, np.random.default_rng(3), max_iterations=50
    )
    assert result.iterations < 50
    assert len(result.updates) == result.iterations


def test_nn_descent_updates_decrease(computer):
    result = nn_descent(computer, 6, np.random.default_rng(4), max_iterations=6)
    assert result.updates[-1] <= result.updates[0]


def test_nn_descent_accepts_external_init(computer):
    rng = np.random.default_rng(5)
    init_ids, init_dists = random_knn_init(computer, 4, rng)
    result = nn_descent(
        computer,
        6,
        rng,
        init_ids=init_ids,
        init_dists=init_dists,
        max_iterations=4,
    )
    assert result.ids.shape == (120, 6)


def test_nn_descent_rejects_mismatched_init(computer):
    with pytest.raises(ValueError):
        nn_descent(
            computer,
            5,
            np.random.default_rng(0),
            init_ids=np.zeros((10, 3), dtype=np.int64),
            init_dists=np.zeros((120, 3)),
        )


def test_nn_descent_sample_rate(computer):
    result = nn_descent(
        computer, 6, np.random.default_rng(6), max_iterations=3, sample_rate=0.5
    )
    assert result.ids.shape == (120, 6)


def test_no_self_loops_after_descent(computer):
    result = nn_descent(computer, 6, np.random.default_rng(7), max_iterations=4)
    for node in range(120):
        assert node not in result.ids[node]


def test_knn_graph_to_graph(computer):
    result = nn_descent(computer, 6, np.random.default_rng(8), max_iterations=2)
    graph = knn_graph_to_graph(result.ids)
    assert graph.n == 120
    assert graph.degree(0) == 6

# ---------------------------------------------------------------------------
# backend parity: the vectorized Jacobi iteration must replay the scalar
# reference bit-for-bit (ids, dists, iteration count, updates, charges)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sample_rate", [1.0, 0.5])
def test_nn_descent_backend_parity(computer, sample_rate):
    runs = {}
    for backend in ("scalar", "python"):
        comp = DistanceComputer(computer.data.copy())
        result = nn_descent(
            comp, 6, np.random.default_rng(9), max_iterations=5,
            sample_rate=sample_rate, backend=backend,
        )
        runs[backend] = (
            result.ids.tobytes(), result.dists.tobytes(),
            result.iterations, tuple(result.updates), comp.count,
        )
    assert runs["python"] == runs["scalar"]


def test_random_init_backend_parity(computer):
    runs = {}
    for backend in ("scalar", "python"):
        comp = DistanceComputer(computer.data.copy())
        ids, dists = random_knn_init(
            comp, 5, np.random.default_rng(2), backend=backend
        )
        runs[backend] = (ids.tobytes(), dists.tobytes(), comp.count)
    assert runs["python"] == runs["scalar"]


def test_pad_init_never_duplicates():
    """Regression: the old ``np.resize`` fallback tiled neighbor ids when a
    node's sampled pool came up short, silently seeding NN-descent with
    duplicate edges."""
    # tiny n relative to k forces the pad path to exhaust + top-up
    gen = np.random.default_rng(0)
    data = gen.normal(size=(9, 3)).astype(np.float32)
    comp = DistanceComputer(data)
    for seed in range(30):
        ids, _ = random_knn_init(comp, 7, np.random.default_rng(seed))
        for node in range(9):
            row = ids[node]
            assert len(set(row.tolist())) == 7, f"dup ids for node {node}"
            assert node not in row


def test_pad_init_rejects_k_ge_n():
    gen = np.random.default_rng(0)
    data = gen.normal(size=(6, 3)).astype(np.float32)
    comp = DistanceComputer(data)
    with pytest.raises(ValueError):
        random_knn_init(comp, 6, np.random.default_rng(0))
