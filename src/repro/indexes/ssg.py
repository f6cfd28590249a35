"""Satellite System Graph (SSG) — Section 3.6.

SSG follows NSG's pipeline but differs in two ways the paper calls out:
candidates come from a *breadth-first local expansion* on the EFANNA base
graph (two hops) rather than a per-node beam search, and neighborhoods are
pruned with MOND (angle threshold ``theta``) rather than RND.  Connectivity
is repaired with DFS trees from *multiple* random roots instead of NSG's
single medoid tree.
"""

from __future__ import annotations

import numpy as np

from ..core.diversification import get_diversifier
from ..core.graph import Graph
from ..core.kernels import DEFAULT_CHUNK_SIZE
from ..core.refine import link_unreachable, point_distances, refine_round
from .base import BaseGraphIndex
from .efanna import EFANNAIndex

__all__ = ["SSGIndex"]


class SSGIndex(BaseGraphIndex):
    """EFANNA base + 2-hop BFS candidates + MOND + multi-root DFS repair."""

    name = "SSG"
    # seed selection is RNG/medoid-only: answers fine from a disk tier
    disk_tier_capable = True

    def __init__(
        self,
        max_degree: int = 24,
        theta_degrees: float = 60.0,
        efanna_k: int = 20,
        efanna_trees: int = 4,
        n_repair_roots: int = 3,
        n_query_seeds: int = 16,
        seed: int = 0,
        default_beam_width: int = 64,
        kernel: str | None = None,
    ):
        super().__init__(seed, default_beam_width)
        self.max_degree = max_degree
        self.theta_degrees = theta_degrees
        self.efanna_k = efanna_k
        self.efanna_trees = efanna_trees
        self.n_repair_roots = n_repair_roots
        self.n_query_seeds = n_query_seeds
        #: construction-kernel backend request, for the EFANNA base and the
        #: refine stage alike (``None`` = ``$REPRO_KERNEL``)
        self.kernel = kernel
        #: roots of the repair DFS trees (set by the build)
        self.repair_roots: np.ndarray | None = None
        self.peak_build_bytes = 0

    def _build(self, rng: np.random.Generator) -> None:
        computer = self.computer
        base = EFANNAIndex(
            k_neighbors=self.efanna_k,
            n_trees=self.efanna_trees,
            seed=self.seed,
            kernel=self.build_backend,
        )
        base.computer = computer
        base._build(rng)
        base_graph = base.graph
        self.peak_build_bytes = base.memory_bytes()
        diversifier = get_diversifier("mond", theta_degrees=self.theta_degrees)

        # the base graph is fixed, so a round is one kernel chunk: its size
        # bounds scratch memory and cannot change a pool or a prune
        graph = Graph(computer.n)
        for start in range(0, computer.n, DEFAULT_CHUNK_SIZE):
            nodes = np.arange(start, min(start + DEFAULT_CHUNK_SIZE, computer.n))
            pools = [self._two_hop_pool(base_graph, int(node)) for node in nodes]
            dists = point_distances(computer, nodes, pools, self.build_backend)
            refine_round(
                graph, computer, nodes, list(zip(pools, dists)), self.max_degree,
                "mond", {"theta_degrees": self.theta_degrees}, self.build_backend,
            )
        self._add_reverse_edges(graph, diversifier)
        self._repair_connectivity(graph, rng)
        self.graph = graph

    @staticmethod
    def _two_hop_pool(base_graph: Graph, node: int) -> np.ndarray:
        """Local expansion: direct neighbors plus neighbors-of-neighbors."""
        one_hop = base_graph.neighbors(node)
        if not one_hop.size:
            return one_hop
        two_hop = np.concatenate(
            [base_graph.neighbors(int(nbr)) for nbr in one_hop]
        )
        pool = np.unique(np.concatenate([one_hop, two_hop]))
        return pool[pool != node]

    def _add_reverse_edges(self, graph: Graph, diversifier) -> None:
        computer = self.computer
        for node in range(graph.n):
            for nbr in graph.neighbors(node).tolist():
                merged = np.unique(np.concatenate([graph.neighbors(nbr), [node]]))
                if merged.size > self.max_degree:
                    dists = computer.one_to_many(nbr, merged)
                    merged = diversifier(computer, merged, dists, self.max_degree)
                graph.set_neighbors(nbr, merged)

    def _repair_connectivity(self, graph: Graph, rng: np.random.Generator) -> None:
        """DFS trees from several random roots; link stragglers to the graph."""
        n = graph.n
        roots = rng.choice(n, size=min(self.n_repair_roots, n), replace=False)
        self.repair_roots = roots
        reachable = np.zeros(n, dtype=bool)
        for root in roots:
            reachable |= graph.reachable_from(int(root))
        link_unreachable(
            graph, self.computer, reachable, int(roots[0]), self.max_degree
        )

    def _query_seeds(self, query: np.ndarray) -> np.ndarray:
        n = self.computer.n
        size = min(self.n_query_seeds, n)
        return self._query_rng.choice(n, size=size, replace=False)
