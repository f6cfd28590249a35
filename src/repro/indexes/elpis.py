"""ELPIS — Hercules partitions + per-leaf HNSW graphs (Section 3.6).

ELPIS is the paper's leading divide-and-conquer method.  Indexing splits the
dataset with the Hercules EAPCA tree and builds an HNSW-style graph (II +
RND) independently inside every leaf — smaller graphs need smaller degrees
and beams, the source of its indexing-time and footprint lead in Figures
7-8.  Query answering searches a heuristically chosen initial leaf, then
prunes the remaining leaves by comparing their EAPCA lower-bound distance
against the current k-th best answer, searching only the survivors (up to
``nprobe``) and merging results.

The original searches candidate leaves concurrently; this reproduction
searches them in lower-bound order with a shared best-so-far, which
preserves the distance-calculation behaviour (see DESIGN.md, "Known
deviations").
"""

from __future__ import annotations

import numpy as np

from ..core.beam_search import SearchResult, beam_search
from ..core.graph import Graph
from ..core.heap import BoundedMaxHeap
from ..core.refine import insert_round
from ..trees.hercules import HerculesLeaf, HerculesTree
from .base import BaseGraphIndex

__all__ = ["ELPISIndex"]


class ELPISIndex(BaseGraphIndex):
    """EAPCA-tree partitioning with an II+RND graph per leaf."""

    name = "ELPIS"

    def __init__(
        self,
        leaf_size: int | None = None,
        max_degree: int = 16,
        ef_construction: int = 48,
        n_segments: int = 8,
        nprobe: int = 4,
        seed: int = 0,
        default_beam_width: int = 48,
    ):
        super().__init__(seed, default_beam_width)
        if leaf_size is not None and leaf_size < 8:
            raise ValueError("leaf_size must be >= 8")
        #: target points per Hercules leaf; ``None`` scales it with the
        #: dataset (n/4, at least 512) so partitions stay large relative to
        #: k-NN neighborhoods, as in the paper's 100k+-point leaves
        self.leaf_size = leaf_size
        self.max_degree = max_degree
        self.ef_construction = ef_construction
        self.n_segments = n_segments
        self.nprobe = nprobe
        self.tree: HerculesTree | None = None
        self._leaves: list[HerculesLeaf] = []
        self._leaf_entries: list[int] = []
        self._leaf_centroids: np.ndarray | None = None

    def _build(self, rng: np.random.Generator) -> None:
        computer = self.computer
        leaf_size = self.leaf_size
        if leaf_size is None:
            leaf_size = max(512, computer.n // 4)
        self.tree = HerculesTree.build(
            computer.data, leaf_size, self.n_segments
        )
        self._leaves = self.tree.leaves()
        graph = Graph(computer.n)
        self._leaf_entries = []
        for leaf in self._leaves:
            entry = self._build_leaf_graph(graph, leaf.point_ids, rng)
            self._leaf_entries.append(entry)
        self.graph = graph
        self._leaf_centroids = np.stack(
            [computer.data[leaf.point_ids].mean(axis=0) for leaf in self._leaves]
        ).astype(np.float64)

    def _build_leaf_graph(
        self, graph: Graph, leaf_ids: np.ndarray, rng: np.random.Generator
    ) -> int:
        """Incremental insertion with RND pruning restricted to one leaf."""
        computer = self.computer
        order = rng.permutation(leaf_ids)
        inserted: list[int] = []
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
            insert_round(
                graph, computer, [node], [(result.ids, result.dists)],
                self.max_degree, "rnd", None, self.build_backend,
            )
            inserted.append(node)
        return int(order[0])

    def _query_seeds(self, query: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError("ELPIS overrides search() directly")

    def search(
        self, query: np.ndarray, k: int = 10, beam_width: int | None = None
    ) -> SearchResult:
        """Leaf-ranked multi-graph beam search with EAPCA pruning."""
        computer = self._require_built()
        width = max(beam_width or self.default_beam_width, k)
        mark = computer.checkpoint()
        # Heuristic leaf ordering: distance from the query to each leaf
        # centroid (one distance calculation per leaf, charged below); the
        # admissible EAPCA bound is kept for pruning against the k-th bsf.
        q64 = np.asarray(query, dtype=np.float64)
        centroid_dists = np.sqrt(
            ((self._leaf_centroids - q64) ** 2).sum(axis=1)
        )
        computer.count += len(self._leaves)
        order = np.argsort(centroid_dists, kind="stable")
        results = BoundedMaxHeap(k)
        hops = 0
        searched = 0
        visited_mask = np.zeros(computer.n, dtype=bool)
        for leaf_idx in order:
            leaf = self._leaves[int(leaf_idx)]
            if searched >= self.nprobe:
                break
            if searched > 0 and leaf.synopsis.lower_bound(query) >= results.worst_dist():
                continue  # EAPCA lower bound prunes this leaf
            entry = self._leaf_entries[int(leaf_idx)]
            seeds = np.unique(
                np.concatenate([[entry], self.graph.neighbors(entry)])
            )
            result = beam_search(
                self.graph,
                computer,
                query,
                seeds,
                k=k,
                beam_width=width,
                visited_mask=visited_mask,
            )
            hops += result.hops
            for dist, node in zip(result.dists, result.ids):
                results.push(float(dist), int(node))
            searched += 1
        ids, dists = results.sorted_items()
        return SearchResult(
            ids=ids,
            dists=dists,
            distance_calls=computer.since(mark),
            hops=hops,
            visited=np.empty(0, dtype=np.int64),
        )

    def memory_bytes(self) -> int:
        """Per-leaf graphs plus the Hercules tree."""
        total = super().memory_bytes()
        if self.tree is not None:
            total += self.tree.memory_bytes()
        return total
