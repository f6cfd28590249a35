"""Tests for the vectorized multi-query beam kernel.

The kernel's contract is bit-identity with the scalar reference path —
same answer ids, distances, hop counts, and per-query distance-call totals
at any batch size, chunk size, and backend — so nearly every test here is a
cross-check against :func:`repro.core.beam_search.beam_search` /
:func:`batch_point_beam_search` on adversarial inputs (duplicate vectors,
duplicate adjacency entries, disconnected nodes).
"""

import os
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.beam_search import batch_point_beam_search, beam_search
from repro.core.distances import DistanceComputer
from repro.core.graph import CSRGraph, Graph
from repro.core.heap import NeighborQueue
from repro.core.filtered import acorn_beam_search
from repro.core.kernels import (
    DEFAULT_CHUNK_SIZE,
    AcornExpansion,
    KERNEL_BACKENDS,
    _merge_row,
    batch_point_search,
    batch_search,
    resolve_backend,
)

BACKENDS = ["python"]


def _random_world(seed, n=400, d=8, duplicates=True):
    """A random graph over clustered data, with ties baked in."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, d)).astype(np.float32)
    if duplicates:
        # duplicate vectors => exactly-equal distances => merge tie paths
        k = n // 8
        data[k : 2 * k] = data[:k]
    graph = Graph(n)
    for i in range(n):
        nbrs = rng.integers(0, n, size=int(rng.integers(0, 9)))
        graph.set_neighbors(i, nbrs)
    return data, graph


def _tie_world(rng, n, d, as_csr):
    """~4 copies of every vector and repeated adjacency entries: segment
    order and dedup only show in the results through ties and duplicates."""
    data = rng.standard_normal((n // 4, d)).astype(np.float32)[
        rng.integers(0, n // 4, size=n)
    ]
    adj = []
    for _ in range(n):
        nbrs = rng.integers(0, n, size=int(rng.integers(0, 9)))
        adj.append(np.concatenate([nbrs, nbrs[: rng.integers(0, 3)]]))
    if as_csr:
        # a raw CSR keeps the repeats (and self-loops) Graph would drop
        graph = CSRGraph(
            np.concatenate([[0], np.cumsum([a.size for a in adj])]),
            np.concatenate(adj),
        )
    else:
        graph = Graph(n)
        for i, nbrs in enumerate(adj):
            graph.set_neighbors(i, nbrs)
    return data, graph


def _reference(graph, computer, queries, seeds, k, width):
    scratch = np.zeros(graph.n, dtype=bool)
    return [
        beam_search(graph, computer, q, s, k=k, beam_width=width,
                    visited_mask=scratch)
        for q, s in zip(queries, seeds)
    ]


def _assert_identical(ref, got):
    assert len(ref) == len(got)
    for a, b in zip(ref, got):
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.dists, b.dists)
        assert a.hops == b.hops
        assert a.distance_calls == b.distance_calls


# ----------------------------------------------------------------------
# backend resolution
# ----------------------------------------------------------------------
def test_backend_names_exposed():
    assert set(KERNEL_BACKENDS) == {"python", "scalar"}


def test_resolve_rejects_unknown():
    with pytest.raises(ValueError, match="unknown kernel backend"):
        resolve_backend("cuda")


def test_resolve_explicit_passthrough():
    assert resolve_backend("python") == "python"
    assert resolve_backend("scalar") == "scalar"
    assert resolve_backend(" PYTHON ") == "python"


def test_resolve_auto():
    with pytest.raises(ValueError, match="unknown kernel backend"):
        resolve_backend("auto")


def test_resolve_reads_environment(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "scalar")
    assert resolve_backend(None) == "scalar"
    monkeypatch.setenv("REPRO_KERNEL", "")
    assert resolve_backend(None) == "python"
    monkeypatch.delenv("REPRO_KERNEL")
    assert resolve_backend(None) == "python"


def test_resolve_rejects_numba(monkeypatch):
    with pytest.raises(ValueError, match="unknown kernel backend"):
        resolve_backend("numba")
    monkeypatch.setenv("REPRO_KERNEL", "numba")
    with pytest.raises(ValueError, match="unknown kernel backend"):
        resolve_backend(None)


# ----------------------------------------------------------------------
# bit-identity against the scalar reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("as_csr", [False, True])
def test_batch_search_matches_scalar(backend, as_csr):
    data, graph = _random_world(0)
    if as_csr:
        graph = CSRGraph.from_graph(graph)
    rng = np.random.default_rng(1)
    queries = rng.standard_normal((37, 8)).astype(np.float32)
    seeds = [rng.integers(0, graph.n, size=int(rng.integers(1, 5)))
             for _ in range(37)]

    ref_computer = DistanceComputer(data)
    ref = _reference(graph, ref_computer, queries, seeds, 5, 16)
    got_computer = DistanceComputer(data)
    got = batch_search(graph, got_computer, queries, seeds, k=5,
                       beam_width=16, backend=backend)
    _assert_identical(ref, got)
    # accounting is exact in aggregate too, not just per query
    assert ref_computer.count == got_computer.count


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("chunk_size", [1, 3, 16, 1000])
def test_chunk_size_invariance(backend, chunk_size):
    data, graph = _random_world(2)
    rng = np.random.default_rng(3)
    queries = rng.standard_normal((23, 8)).astype(np.float32)
    seeds = [rng.integers(0, graph.n, size=2) for _ in range(23)]
    computer = DistanceComputer(data)
    ref = batch_search(graph, computer, queries, seeds, k=4, beam_width=12,
                       backend=backend, chunk_size=DEFAULT_CHUNK_SIZE)
    got = batch_search(graph, DistanceComputer(data), queries, seeds, k=4,
                       beam_width=12, backend=backend, chunk_size=chunk_size)
    _assert_identical(ref, got)


@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_point_search_matches_reference(backend):
    data, graph = _random_world(4)
    rng = np.random.default_rng(5)
    points = rng.integers(0, graph.n, size=29)
    seeds = [rng.integers(0, graph.n, size=3) for _ in range(29)]
    ref_computer = DistanceComputer(data)
    ref = batch_point_beam_search(graph, ref_computer, points, seeds, k=6,
                                  beam_width=14)
    got_computer = DistanceComputer(data)
    got = batch_point_search(graph, got_computer, points, seeds, k=6,
                             beam_width=14, backend=backend, chunk_size=7)
    _assert_identical(ref, got)
    assert ref_computer.count == got_computer.count


def test_scalar_backend_is_reference_path():
    data, graph = _random_world(6)
    rng = np.random.default_rng(7)
    queries = rng.standard_normal((9, 8)).astype(np.float32)
    seeds = [rng.integers(0, graph.n, size=2) for _ in range(9)]
    ref = _reference(graph, DistanceComputer(data), queries, seeds, 3, 10)
    got = batch_search(graph, DistanceComputer(data), queries, seeds, k=3,
                       beam_width=10, backend="scalar")
    _assert_identical(ref, got)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_batch_search_matches_scalar_property(seed):
    """Random worlds with ties: the whole contract, hypothesis-driven."""
    data, graph = _random_world(seed, n=120, d=4)
    rng = np.random.default_rng(seed ^ 0xBEEF)
    n_q = int(rng.integers(1, 12))
    queries = rng.standard_normal((n_q, 4)).astype(np.float32)
    # bake query-side ties too: some queries equal dataset vectors
    for j in range(0, n_q, 3):
        queries[j] = data[int(rng.integers(0, graph.n))]
    seeds = [rng.integers(0, graph.n, size=int(rng.integers(1, 4)))
             for _ in range(n_q)]
    k = int(rng.integers(1, 6))
    width = k + int(rng.integers(0, 10))
    ref = _reference(graph, DistanceComputer(data), queries, seeds, k, width)
    for backend in BACKENDS:
        got = batch_search(graph, DistanceComputer(data), queries, seeds,
                           k=k, beam_width=width, backend=backend,
                           chunk_size=int(rng.integers(1, 14)))
        _assert_identical(ref, got)


# ----------------------------------------------------------------------
# the per-row merge against the NeighborQueue reference
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_merge_row_replays_neighbor_queue(seed):
    rng = np.random.default_rng(seed)
    capacity = int(rng.integers(1, 9))
    size = int(rng.integers(0, capacity + 1))
    # sorted unique starting beam (queue semantics forbid duplicate ids)
    dists = np.full(capacity, np.inf)
    ids = np.full(capacity, -1, dtype=np.int64)
    expanded = np.ones(capacity, dtype=bool)
    start_d = np.sort(rng.choice(np.arange(20), size=size, replace=False)
                      .astype(np.float64))
    start_i = rng.choice(np.arange(100), size=size, replace=False).astype(np.int64)
    dists[:size] = start_d
    ids[:size] = start_i
    expanded[:size] = rng.integers(0, 2, size=size).astype(bool)

    n_cand = int(rng.integers(0, 12))
    # small integer distances force frequent exact ties
    cand_d = rng.integers(0, 12, size=n_cand).astype(np.float64)
    cand_i = rng.integers(100, 130, size=n_cand).astype(np.int64)

    queue = NeighborQueue.from_sorted_state(
        dists[:size], ids[:size], expanded[:size], capacity
    )
    for dist, node in zip(cand_d, cand_i):
        queue.insert(float(dist), int(node))

    new_size = _merge_row(dists, ids, expanded, size, cand_d, cand_i, capacity)
    assert new_size == queue.size
    assert np.array_equal(dists[:new_size], queue.dists[:new_size])
    assert np.array_equal(ids[:new_size], queue.ids[:new_size])
    assert np.array_equal(expanded[:new_size], queue.expanded[:new_size])


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def test_batch_search_validates_beam_width():
    data, graph = _random_world(8)
    with pytest.raises(ValueError, match="beam_width"):
        batch_search(graph, DistanceComputer(data),
                     np.zeros((1, 8), dtype=np.float32), [[0]], k=5,
                     beam_width=2, backend="python")


def test_batch_search_validates_chunk_size():
    data, graph = _random_world(9)
    with pytest.raises(ValueError, match="chunk_size"):
        batch_search(graph, DistanceComputer(data),
                     np.zeros((1, 8), dtype=np.float32), [[0]], k=1,
                     beam_width=4, backend="python", chunk_size=0)


def test_batch_search_validates_seed_range():
    data, graph = _random_world(10)
    with pytest.raises(ValueError, match="outside the graph's node range"):
        batch_search(graph, DistanceComputer(data),
                     np.zeros((1, 8), dtype=np.float32), [[graph.n]], k=1,
                     beam_width=4, backend="python")


def test_batch_search_requires_matching_lengths():
    data, graph = _random_world(11)
    with pytest.raises(ValueError, match="disagree"):
        batch_search(graph, DistanceComputer(data),
                     np.zeros((2, 8), dtype=np.float32), [[0]], k=1,
                     beam_width=4, backend="python")


def test_batch_point_search_validates_seed_range():
    data, graph = _random_world(12)
    with pytest.raises(ValueError, match="outside the graph's node range"):
        batch_point_search(graph, DistanceComputer(data), [0], [[-1]], k=1,
                           beam_width=4, backend="python")


# ----------------------------------------------------------------------
# tombstone exclusion: kernel path bit-identical to scalar masked filter
# ----------------------------------------------------------------------
def test_batch_search_exclude_mask_matches_scalar(small_graph):
    computer, graph = small_graph
    gen = np.random.default_rng(17)
    queries = gen.normal(size=(8, computer.dim)).astype(np.float32)
    exclude = np.zeros(graph.n, dtype=bool)
    exclude[gen.choice(graph.n, size=40, replace=False)] = True
    seeds = [
        np.sort(gen.choice(np.flatnonzero(~exclude), size=4, replace=False))
        for _ in range(queries.shape[0])
    ]
    kernel_results = batch_search(
        graph, computer, queries, seeds, k=10, beam_width=32,
        backend="python", exclude_mask=exclude,
    )
    for j in range(queries.shape[0]):
        mark = computer.checkpoint()
        ref = beam_search(
            graph, computer, queries[j], seeds[j], k=10, beam_width=32,
            exclude_mask=exclude,
        )
        assert np.array_equal(kernel_results[j].ids, ref.ids)
        assert np.array_equal(kernel_results[j].dists, ref.dists)
        assert kernel_results[j].distance_calls == computer.since(mark)
        assert not exclude[kernel_results[j].ids].any()


def test_batch_point_search_exclude_mask_matches_scalar(small_graph):
    computer, graph = small_graph
    gen = np.random.default_rng(19)
    exclude = np.zeros(graph.n, dtype=bool)
    exclude[gen.choice(graph.n, size=30, replace=False)] = True
    points = gen.choice(graph.n, size=6, replace=False).tolist()
    seeds = [
        np.sort(gen.choice(np.flatnonzero(~exclude), size=3, replace=False))
        for _ in points
    ]
    kernel_results = batch_point_search(
        graph, computer, points, seeds, k=8, beam_width=24,
        backend="python", exclude_mask=exclude,
    )
    scalar_results = batch_point_beam_search(
        graph, computer, points, seeds, k=8, beam_width=24,
        exclude_mask=exclude,
    )
    for got, ref in zip(kernel_results, scalar_results):
        assert np.array_equal(got.ids, ref.ids)
        assert np.array_equal(got.dists, ref.dists)
        assert not exclude[got.ids].any()


# ----------------------------------------------------------------------
# ACORN policy: lockstep expansion bit-identical to acorn_beam_search
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    expansion=st.sampled_from([1, 2, 3]),
    chunk_size=st.sampled_from([1, 3, 256]),
    as_csr=st.booleans(),
)
def test_acorn_policy_matches_scalar_property(seed, expansion, chunk_size, as_csr):
    """Per query: same ids, distances, hops and distance calls as the
    scalar ACORN loop, on graphs with duplicate adjacency entries and
    isolated nodes, duplicate vectors (tie replay), all-failing seeds,
    and all-fail / all-pass masks next to random ones."""
    n, d = 120, 4
    rng = np.random.default_rng(seed ^ 0xAC0)
    data, graph = _tie_world(rng, n, d, as_csr)
    n_q = int(rng.integers(2, 12))
    queries = rng.standard_normal((n_q, d)).astype(np.float32)
    for j in range(0, n_q, 3):
        queries[j] = data[int(rng.integers(0, n))]
    # one exclude row per query: random specificity, then the two extremes
    exclude = rng.random((n_q, n)) >= rng.uniform(0.05, 0.6, size=(n_q, 1))
    exclude[0] = True
    exclude[1] = False
    seeds = [rng.integers(0, n, size=int(rng.integers(1, 4))) for _ in range(n_q)]
    # a query whose seeds all fail, and one seeded at a node with no out-edges
    exclude[-1, seeds[-1]] = True
    isolated = np.flatnonzero(graph.degrees() == 0)
    if isolated.size:
        seeds[-2 % n_q] = isolated[:1]
    k = int(rng.integers(1, 6))
    width = k + int(rng.integers(0, 10))
    rows = rng.permutation(n_q)  # lane j filters by row rows[j], not row j

    scratch = np.zeros(n, dtype=bool)
    computer = DistanceComputer(data)
    ref = [
        acorn_beam_search(
            graph, computer, queries[j], seeds[j], k, width,
            allow_mask=~exclude[rows[j]], expansion=expansion,
            visited_mask=scratch,
        )
        for j in range(n_q)
    ]
    policy = AcornExpansion(exclude, rows, expansion)
    for backend in BACKENDS + ["scalar"]:
        got = batch_search(
            graph, DistanceComputer(data), queries, seeds, k=k,
            beam_width=width, backend=backend, chunk_size=chunk_size,
            acorn=policy,
        )
        _assert_identical(ref, got)
        for result in got:
            assert result.ids.shape == (k,)


# ----------------------------------------------------------------------
# visited lists: the kernel's step log equals the scalar evaluation order
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    chunk_size=st.sampled_from([1, 3, 256]),
    as_csr=st.booleans(),
)
def test_collected_visited_matches_scalar_property(seed, chunk_size, as_csr):
    """Per lane: ``visited`` / ``visited_dists`` equal ``beam_search``'s
    element for element (order and bits), with duplicate adjacency
    entries, duplicate vectors, isolated and multi-seed lanes; and
    collecting changes nothing else a search returns."""
    n, d = 120, 4
    rng = np.random.default_rng(seed ^ 0x715)
    data, graph = _tie_world(rng, n, d, as_csr)
    n_q = int(rng.integers(2, 12))
    queries = rng.standard_normal((n_q, d)).astype(np.float32)
    queries[0] = data[int(rng.integers(0, n))]
    seeds = [rng.integers(0, n, size=int(rng.integers(1, 5))) for _ in range(n_q)]
    isolated = np.flatnonzero(graph.degrees() == 0)
    if isolated.size:
        seeds[-1] = isolated[:1]
    k = int(rng.integers(1, 6))
    width = k + int(rng.integers(0, 10))
    points = rng.integers(0, n, size=n_q)

    computer = DistanceComputer(data)
    ref = _reference(graph, computer, queries, seeds, k, width)
    ref_points = batch_point_beam_search(
        graph, computer, points, seeds, k, width, collect_visited=True
    )
    for result in ref_points:
        assert result.visited.size == result.distance_calls
    for backend in BACKENDS + ["scalar"]:
        for expected, search, subjects in (
            (ref, batch_search, queries),
            (ref_points, batch_point_search, points),
        ):
            kwargs = dict(k=k, beam_width=width, backend=backend, chunk_size=chunk_size)
            got = search(graph, computer, subjects, seeds, collect_visited=True, **kwargs)
            _assert_identical(expected, got)
            for a, b in zip(expected, got):
                assert a.visited.dtype == b.visited.dtype == np.int64
                assert np.array_equal(a.visited, b.visited)
                assert np.array_equal(a.visited_dists, b.visited_dists)
            _assert_identical(got, search(graph, computer, subjects, seeds, **kwargs))


def test_collect_visited_rejected_under_acorn(small_graph):
    computer, graph = small_graph
    queries = np.zeros((1, computer.dim), dtype=np.float32)
    policy = AcornExpansion(np.zeros((1, graph.n), dtype=bool), [0])
    with pytest.raises(ValueError, match="collect_visited"):
        batch_search(graph, computer, queries, [[0]], k=1, beam_width=4,
                     backend="python", acorn=policy, collect_visited=True)


def test_acorn_policy_validation(small_graph):
    computer, graph = small_graph
    queries = np.zeros((2, computer.dim), dtype=np.float32)
    exclude = np.zeros((2, graph.n), dtype=bool)
    with pytest.raises(ValueError, match="expansion"):
        AcornExpansion(exclude, [0, 1], expansion=0)
    with pytest.raises(ValueError, match="covers 1 queries"):
        batch_search(graph, computer, queries, [[0], [1]], k=1, beam_width=4,
                     backend="python", acorn=AcornExpansion(exclude, [0]))
    with pytest.raises(ValueError, match="alternative"):
        batch_search(graph, computer, queries, [[0], [1]], k=1, beam_width=4,
                     backend="python", exclude_mask=exclude[0],
                     acorn=AcornExpansion(exclude, [0, 1]))
