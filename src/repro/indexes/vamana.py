"""Vamana (DiskANN's graph) — Section 3.6.

Vamana refines a random ``R``-regular base graph (degree >= log n keeps it
connected) in two passes.  In each pass, every node runs a beam search from
the medoid over the current graph; the visited list is pruned with RRND —
``alpha = 1`` (plain RND) in the first pass, the user's ``alpha`` (>= 1,
typically 1.2-1.3) in the second, which relaxes pruning to add connectivity.
Bi-directional edges are inserted, and any overflowing neighbor list is
re-pruned with RND.  Queries start at the medoid plus random seeds (MD+KS).

A pass walks its permutation in frozen rounds of ``REFINE_ROUND_SIZE``
nodes (:mod:`repro.core.refine`): the round's searches all see the graph
as the previous round left it, its pools are pruned in one batch, and its
back-edges are merged per target in rank order.  That is ParlayANN's
batched Vamana, not the DiskANN paper's strictly sequential pass — which
is the same code at round size 1 — and the graph differs slightly from the
sequential one (EXPERIMENTS.md, "construction kernels", has the table).
"""

from __future__ import annotations

import numpy as np

from ..core.graph import Graph
from ..core.refine import REFINE_ROUND_SIZE, refine_round, search_pools
from ..core.seeds import find_medoid
from .base import BaseGraphIndex

__all__ = ["VamanaIndex"]


class VamanaIndex(BaseGraphIndex):
    """Two-pass RRND refinement of a random regular graph."""

    name = "Vamana"
    # seed selection is RNG/medoid-only: answers fine from a disk tier
    disk_tier_capable = True

    def __init__(
        self,
        max_degree: int = 24,
        build_beam_width: int = 64,
        prune_pool_size: int = 64,
        alpha: float = 1.3,
        n_query_seeds: int = 16,
        seed: int = 0,
        default_beam_width: int = 64,
    ):
        super().__init__(seed, default_beam_width)
        if alpha < 1.0:
            raise ValueError("alpha must be >= 1")
        self.max_degree = max_degree
        self.build_beam_width = build_beam_width
        self.prune_pool_size = prune_pool_size
        self.alpha = alpha
        self.n_query_seeds = n_query_seeds
        self.medoid: int | None = None

    def _build(self, rng: np.random.Generator) -> None:
        computer = self.computer
        n = computer.n
        graph = self._random_regular_graph(n, rng)
        self.medoid = find_medoid(computer)
        for pass_alpha in (1.0, self.alpha):
            self._refine_pass(graph, pass_alpha, rng)
        self.graph = graph

    def _random_regular_graph(self, n: int, rng: np.random.Generator) -> Graph:
        """Random base graph with out-degree ``>= log2(n)`` for connectivity."""
        degree = min(max(int(np.ceil(np.log2(max(n, 2)))), 4), self.max_degree, n - 1)
        graph = Graph(n)
        for node in range(n):
            choices = rng.choice(n - 1, size=degree, replace=False)
            choices[choices >= node] += 1
            graph.set_neighbors(node, choices)
        return graph

    def _refine_pass(
        self, graph: Graph, alpha: float, rng: np.random.Generator
    ) -> None:
        order = rng.permutation(graph.n)
        for start in range(0, graph.n, REFINE_ROUND_SIZE):
            nodes = order[start : start + REFINE_ROUND_SIZE]
            pools = search_pools(
                graph, self.computer, nodes, self.medoid,
                self.build_beam_width, self.prune_pool_size, self.build_backend,
            )
            refine_round(
                graph, self.computer, nodes, pools, self.max_degree,
                "rrnd", {"alpha": alpha}, self.build_backend,
                back_edge_strategy="rnd",
            )

    def _query_seeds(self, query: np.ndarray) -> np.ndarray:
        n = self.computer.n
        size = min(self.n_query_seeds, n)
        picks = self._query_rng.choice(n, size=size, replace=False)
        return np.unique(np.concatenate([picks, [self.medoid]]))
