"""Navigating Spreading-out Graph (NSG) — Section 3.6.

NSG starts from an EFANNA approximate k-NN graph, then rebuilds every
neighborhood: a beam search from the dataset medoid (the "navigating node")
collects each node's visited list, which is pruned with RND.  Reverse edges
are added under the same pruning, and a DFS tree from the medoid repairs any
disconnected vertices.  Queries start at the medoid enhanced with random
seeds (MD + KS).

Because NSG *contains* an EFANNA build, its indexing time and footprint
inherit EFANNA's — the scalability ceiling the paper highlights.
"""

from __future__ import annotations

import numpy as np

from ..core.diversification import rnd
from ..core.graph import Graph
from ..core.kernels import DEFAULT_CHUNK_SIZE
from ..core.refine import link_unreachable, refine_round, search_pools
from ..core.seeds import find_medoid
from .base import BaseGraphIndex
from .efanna import EFANNAIndex

__all__ = ["NSGIndex"]


class NSGIndex(BaseGraphIndex):
    """EFANNA base + per-node beam-search candidates + RND + DFS repair."""

    name = "NSG"
    # seed selection is RNG/medoid-only: answers fine from a disk tier
    disk_tier_capable = True

    def __init__(
        self,
        max_degree: int = 24,
        build_beam_width: int = 64,
        prune_pool_size: int = 64,
        efanna_k: int = 20,
        efanna_trees: int = 4,
        n_query_seeds: int = 16,
        seed: int = 0,
        default_beam_width: int = 64,
        kernel: str | None = None,
    ):
        super().__init__(seed, default_beam_width)
        self.max_degree = max_degree
        self.build_beam_width = build_beam_width
        self.prune_pool_size = prune_pool_size
        self.efanna_k = efanna_k
        self.efanna_trees = efanna_trees
        self.n_query_seeds = n_query_seeds
        #: construction-kernel backend request, for the EFANNA base and the
        #: refine stage alike (``None`` = ``$REPRO_KERNEL``)
        self.kernel = kernel
        self.medoid: int | None = None
        self._base_index: EFANNAIndex | None = None
        #: peak auxiliary bytes held during construction (Figure 8's gap
        #: between build footprint and final index size)
        self.peak_build_bytes = 0

    def _build(self, rng: np.random.Generator) -> None:
        computer = self.computer
        base = EFANNAIndex(
            k_neighbors=self.efanna_k,
            n_trees=self.efanna_trees,
            seed=self.seed,
            kernel=self.build_backend,
        )
        # share the computer so base-graph work is charged to this build
        base.computer = computer
        base._build(rng)
        self._base_index = base
        base_graph = base.graph
        self.peak_build_bytes = base.memory_bytes()
        self.medoid = find_medoid(computer)

        # the base graph is fixed, so a round is one kernel chunk: its size
        # bounds scratch memory and cannot change a search or a prune
        graph = Graph(computer.n)
        for start in range(0, computer.n, DEFAULT_CHUNK_SIZE):
            nodes = np.arange(start, min(start + DEFAULT_CHUNK_SIZE, computer.n))
            pools = search_pools(
                base_graph, computer, nodes, self.medoid,
                self.build_beam_width, self.prune_pool_size, self.build_backend,
            )
            refine_round(
                graph, computer, nodes, pools, self.max_degree, "rnd", None,
                self.build_backend,
            )
        self._add_reverse_edges(graph)
        self._repair_connectivity(graph)
        self.graph = graph

    def _add_reverse_edges(self, graph: Graph) -> None:
        """Insert reverse edges, re-pruning overflowing lists with RND."""
        computer = self.computer
        for node in range(graph.n):
            for nbr in graph.neighbors(node).tolist():
                merged = np.concatenate([graph.neighbors(nbr), [node]])
                if merged.size > self.max_degree:
                    merged = np.unique(merged)
                    dists = computer.one_to_many(nbr, merged)
                    merged = rnd(computer, merged, dists, self.max_degree)
                graph.set_neighbors(nbr, merged)

    def _repair_connectivity(self, graph: Graph) -> None:
        """NSG's DFS-tree repair: link unreachable nodes from their nearest
        reachable neighbor with a free slot (found by a beam search on the
        partial graph)."""
        link_unreachable(
            graph, self.computer, graph.reachable_from(self.medoid),
            self.medoid, self.max_degree,
        )

    def _query_seeds(self, query: np.ndarray) -> np.ndarray:
        n = self.computer.n
        size = min(self.n_query_seeds, n)
        picks = self._query_rng.choice(n, size=size, replace=False)
        return np.unique(np.concatenate([picks, [self.medoid]]))

    def memory_bytes(self) -> int:
        """Final NSG adjacency only; the EFANNA base is build scaffolding."""
        return super().memory_bytes()
