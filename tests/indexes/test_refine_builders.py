"""The graph builders that write through ``repro.core.refine``, against
their per-node loops.

Vamana, NSG and SSG run frozen rounds (``refine_round``); ELPIS links each
leaf node with an ``insert_round`` of one.  The reference models below are
literal transcriptions of the per-node loops they replaced — one
``beam_search`` and one scalar prune per node — and live here, not in
``src/``.  NSG, SSG and ELPIS must equal their reference bit for bit;
Vamana must equal its reference at round size 1 and stay inside a quality
band at the default round size.

``kernel=None`` follows ``$REPRO_KERNEL`` (``python`` in tier-1); CI's
bench-smoke matrix runs this module once per backend.
"""

import numpy as np
import pytest

from repro.core.beam_search import beam_search
from repro.core.diversification import get_diversifier, rnd, rrnd
from repro.core.graph import Graph
from repro.core.seeds import find_medoid
from repro.datasets.synthetic import generate
from repro.eval.metrics import ground_truth
from repro.eval.runner import run_workload
from repro.indexes import ELPISIndex, NSGIndex, SSGIndex, VamanaIndex
from repro.indexes.efanna import EFANNAIndex

KERNELS = [None, "scalar"]


class PerNodeVamana(VamanaIndex):
    """The sequential pass: every node sees its predecessors' edges."""

    def _refine_pass(self, graph, alpha, rng):
        computer = self.computer
        visited_mask = np.zeros(graph.n, dtype=bool)
        order = rng.permutation(graph.n)
        for node in order:
            node = int(node)
            result = beam_search(
                graph,
                computer,
                computer.data[node],
                [self.medoid],
                k=self.build_beam_width,
                beam_width=self.build_beam_width,
                visited_mask=visited_mask,
            )
            extra = graph.neighbors(node)
            extra_dists = computer.one_to_many(node, extra)
            cand_ids = np.concatenate([result.visited, extra])
            cand_dists = np.concatenate([result.visited_dists, extra_dists])
            keep = cand_ids != node
            cand_ids, cand_dists = cand_ids[keep], cand_dists[keep]
            if cand_ids.size > self.prune_pool_size:
                top = np.argpartition(cand_dists, self.prune_pool_size)[
                    : self.prune_pool_size
                ]
                cand_ids, cand_dists = cand_ids[top], cand_dists[top]
            kept = rrnd(computer, cand_ids, cand_dists, self.max_degree, alpha=alpha)
            graph.set_neighbors(node, kept)
            for nbr in kept:
                nbr = int(nbr)
                merged = np.concatenate([graph.neighbors(nbr), [node]])
                if merged.size > self.max_degree:
                    merged = np.unique(merged)
                    dists = computer.one_to_many(nbr, merged)
                    merged = rnd(computer, merged, dists, self.max_degree)
                graph.set_neighbors(nbr, merged)


def _efanna_base(index, rng):
    base = EFANNAIndex(
        k_neighbors=index.efanna_k,
        n_trees=index.efanna_trees,
        seed=index.seed,
        kernel="scalar",
    )
    base.computer = index.computer
    base._build(rng)
    return base


class PerNodeNSG(NSGIndex):
    """One beam search and one RND prune per node over the EFANNA base."""

    def _build(self, rng):
        computer = self.computer
        base_graph = _efanna_base(self, rng).graph
        self.medoid = find_medoid(computer)
        graph = Graph(computer.n)
        visited_mask = np.zeros(computer.n, dtype=bool)
        for node in range(computer.n):
            result = beam_search(
                base_graph,
                computer,
                computer.data[node],
                [self.medoid],
                k=self.build_beam_width,
                beam_width=self.build_beam_width,
                visited_mask=visited_mask,
            )
            extra = base_graph.neighbors(node)
            extra_dists = computer.one_to_many(node, extra)
            cand_ids = np.concatenate([result.visited, extra])
            cand_dists = np.concatenate([result.visited_dists, extra_dists])
            keep = cand_ids != node
            cand_ids, cand_dists = cand_ids[keep], cand_dists[keep]
            if cand_ids.size > self.prune_pool_size:
                top = np.argpartition(cand_dists, self.prune_pool_size)[
                    : self.prune_pool_size
                ]
                cand_ids, cand_dists = cand_ids[top], cand_dists[top]
            graph.set_neighbors(
                node, rnd(computer, cand_ids, cand_dists, self.max_degree)
            )
        # the reverse-edge and repair stages are the builder's own
        self._add_reverse_edges(graph)
        self._repair_connectivity(graph)
        self.graph = graph


class PerNodeSSG(SSGIndex):
    """One two-hop expansion and one MOND prune per node."""

    def _build(self, rng):
        computer = self.computer
        base_graph = _efanna_base(self, rng).graph
        diversifier = get_diversifier("mond", theta_degrees=self.theta_degrees)
        graph = Graph(computer.n)
        for node in range(computer.n):
            one_hop = base_graph.neighbors(node)
            if one_hop.size:
                two_hop = np.concatenate(
                    [base_graph.neighbors(int(nbr)) for nbr in one_hop]
                )
                pool = np.unique(np.concatenate([one_hop, two_hop]))
            else:
                pool = one_hop
            pool = pool[pool != node]
            if pool.size == 0:
                continue
            dists = computer.one_to_many(node, pool)
            graph.set_neighbors(
                node, diversifier(computer, pool, dists, self.max_degree)
            )
        self._add_reverse_edges(graph, diversifier)
        self._repair_connectivity(graph, rng)
        self.graph = graph


class PerNodeELPIS(ELPISIndex):
    """The leaf loop with its own RND forward prune and back-edge merges."""

    def _build_leaf_graph(self, graph, leaf_ids, rng):
        computer = self.computer
        order = rng.permutation(leaf_ids)
        inserted = []
        visited_mask = np.zeros(computer.n, dtype=bool)
        for node in order:
            node = int(node)
            if not inserted:
                inserted.append(node)
                continue
            size = min(2, len(inserted))
            picks = rng.choice(len(inserted), size=size, replace=False)
            seeds = [inserted[int(p)] for p in picks]
            width = min(self.ef_construction, max(8, len(inserted)))
            result = beam_search(
                graph,
                computer,
                computer.data[node],
                seeds,
                k=min(width, len(inserted)),
                beam_width=width,
                visited_mask=visited_mask,
            )
            kept = rnd(computer, result.ids, result.dists, self.max_degree)
            graph.set_neighbors(node, kept)
            for nbr in kept:
                nbr = int(nbr)
                merged = np.concatenate([graph.neighbors(nbr), [node]])
                if merged.size > self.max_degree:
                    dists = computer.one_to_many(nbr, merged)
                    merged = rnd(computer, merged, dists, self.max_degree)
                graph.set_neighbors(nbr, merged)
            inserted.append(node)
        return int(order[0])


def _same_graph(a, b):
    (a_ptr, a_idx), (b_ptr, b_idx) = a.graph.to_csr(), b.graph.to_csr()
    return np.array_equal(a_ptr, b_ptr) and np.array_equal(a_idx, b_idx)


def _with_kernel(index, kernel):
    index.kernel = kernel
    return index


@pytest.fixture(scope="module")
def data():
    # ~8 duplicated vectors: ties in the searches and in the prunes
    points = generate("deep", 300, seed=5)
    points[150:158] = points[:8]
    return points


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize(
    "cls, reference, params",
    [
        (NSGIndex, PerNodeNSG, {"max_degree": 12, "build_beam_width": 24, "prune_pool_size": 32}),
        (SSGIndex, PerNodeSSG, {"max_degree": 12}),
    ],
)
def test_fixed_base_builders_equal_per_node_loop(cls, reference, params, kernel, data):
    expected = reference(seed=4, **params).build(data)
    built = cls(seed=4, kernel=kernel, **params).build(data)
    assert _same_graph(expected, built)
    assert built.build_report.distance_calls == expected.build_report.distance_calls


VAMANA = {"max_degree": 12, "build_beam_width": 24, "prune_pool_size": 32, "alpha": 1.2}


@pytest.mark.parametrize("kernel", KERNELS)
def test_vamana_round_size_one_is_the_sequential_pass(kernel, data, monkeypatch):
    monkeypatch.setattr("repro.indexes.vamana.REFINE_ROUND_SIZE", 1)
    expected = PerNodeVamana(seed=4, **VAMANA).build(data)
    built = _with_kernel(VamanaIndex(seed=4, **VAMANA), kernel).build(data)
    assert _same_graph(expected, built)
    assert built.build_report.distance_calls == expected.build_report.distance_calls


@pytest.mark.parametrize("dataset", ["sift", "deep"])
def test_vamana_default_rounds_stay_in_the_sequential_band(dataset):
    """Frozen rounds are a protocol change: the graph differs from the
    sequential one, and must answer as well at the same cost."""
    points = generate(dataset, 500, seed=9)
    queries = generate(dataset, 60, seed=10)
    truth, _ = ground_truth(points, queries, 10)
    sequential = PerNodeVamana(seed=4).build(points)
    built = {
        kernel: _with_kernel(VamanaIndex(seed=4), kernel).build(points)
        for kernel in ("python", "scalar")
    }
    assert _same_graph(built["python"], built["scalar"])
    assert (
        built["python"].build_report.distance_calls
        == built["scalar"].build_report.distance_calls
    )
    graph = built["python"].graph
    assert graph.degrees().max() <= built["python"].max_degree
    assert all(node not in graph.neighbors(node) for node in range(graph.n))
    want = run_workload(sequential, queries, truth, 10, 64)
    got = run_workload(built["python"], queries, truth, 10, 64)
    assert abs(got.recall - want.recall) <= 0.01
    assert got.mean_distance_calls == pytest.approx(want.mean_distance_calls, rel=0.05)


ELPIS = {"leaf_size": 64, "max_degree": 8, "ef_construction": 24}


@pytest.mark.parametrize("kernel", KERNELS)
def test_elpis_leaf_graphs_equal_per_node_loop(kernel, data):
    expected = PerNodeELPIS(seed=3, **ELPIS).build(data)
    built = _with_kernel(ELPISIndex(seed=3, **ELPIS), kernel).build(data)
    assert len(built._leaves) > 1
    assert _same_graph(expected, built)
    assert built.build_report.distance_calls == expected.build_report.distance_calls
