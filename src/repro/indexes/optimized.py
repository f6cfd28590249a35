"""ParlayANN-style "optimized implementation" variants — Figure 17.

The paper contrasts each method's original code with ParlayANN's optimized
reimplementations, attributing the gap to *data layout*: flat contiguous
adjacency storage removes pointer chasing and cache misses.  The same
contrast is reproduced here: :class:`OptimizedIndex` wraps any built graph
index, flattens its adjacency lists into one CSR array pair, and runs the
identical beam search over the contiguous layout.  Distance-calculation
counts are unchanged by construction; only wall-clock and memory layout
differ — exactly the effect Figure 17 isolates.
"""

from __future__ import annotations

import numpy as np

from ..core.beam_search import SearchResult
from ..core.graph import CSRGraph
from ..core.heap import NeighborQueue
from .base import BaseGraphIndex, BaseIndex

__all__ = ["OptimizedIndex"]


class OptimizedIndex(BaseIndex):
    """Flat-CSR re-layout of a built graph index (``<name>_Opt``)."""

    def __init__(self, base: BaseGraphIndex):
        if base.graph is None:
            raise ValueError("base index must be built before optimizing")
        super().__init__(base.seed)
        self.base = base
        self.name = f"{base.name}_Opt"
        self.computer = base.computer
        self.indptr, self.indices = base.graph.to_csr()
        self.build_report = base.build_report

    def _build(self, rng: np.random.Generator) -> None:  # pragma: no cover
        raise RuntimeError("OptimizedIndex wraps an already-built index")

    def build(self, data: np.ndarray) -> "OptimizedIndex":  # pragma: no cover
        """Unsupported: wrap an already-built index instead."""
        raise RuntimeError("OptimizedIndex wraps an already-built index")

    def search(
        self, query: np.ndarray, k: int = 10, beam_width: int | None = None
    ) -> SearchResult:
        """Beam search reading neighbors from the flat CSR arrays."""
        computer = self._require_built()
        width = max(beam_width or self.base.default_beam_width, k)
        mark = computer.checkpoint()
        seeds = self.base._query_seeds(query)
        queue = NeighborQueue(width)
        n = self.indptr.shape[0] - 1
        visited = np.zeros(n, dtype=bool)
        seed_dists = computer.to_query(seeds, query)
        visited[seeds] = True
        for dist, node in zip(seed_dists, seeds):
            queue.insert(float(dist), int(node))
        hops = 0
        indptr, indices = self.indptr, self.indices
        while True:
            node = queue.pop_nearest_unexpanded()
            if node is None:
                break
            hops += 1
            nbrs = indices[indptr[node] : indptr[node + 1]]
            if nbrs.size == 0:
                continue
            fresh = nbrs[~visited[nbrs]]
            if fresh.size == 0:
                continue
            visited[fresh] = True
            dists = computer.to_query(fresh, query)
            bound = queue.worst_dist()
            for dist, nbr in zip(dists.tolist(), fresh.tolist()):
                if dist < bound:
                    bound = queue.insert(dist, nbr)
        ids, dists = queue.top_k(k)
        return SearchResult(
            ids=ids,
            dists=dists,
            distance_calls=computer.since(mark),
            hops=hops,
            visited=np.empty(0, dtype=np.int64),
        )

    def seed_query_rng(self, query_index: int) -> None:
        """Reseed both this wrapper and the base index (seed selection runs
        inside the base's ``_query_seeds``)."""
        super().seed_query_rng(query_index)
        self.base.seed_query_rng(query_index)

    def shared_query_state(self) -> dict[str, np.ndarray]:
        """Dataset arrays plus this wrapper's already-flat CSR arrays."""
        state = BaseIndex.shared_query_state(self)
        state["csr_indptr"] = self.indptr
        state["csr_indices"] = self.indices
        return state

    def attach_shared_query_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Rebind the wrapper and its base index to one shared view each."""
        BaseIndex.attach_shared_query_state(self, arrays)
        self.indptr = arrays["csr_indptr"]
        self.indices = arrays["csr_indices"]
        # seed selection runs inside the base index; give it the same shared
        # computer (one distance counter) and a CSR view of the same graph
        self.base.computer = self.computer
        self.base.graph = CSRGraph(self.indptr, self.indices, validate=False)

    def __getstate__(self) -> dict:
        """Pickle without the CSR arrays; workers re-attach them shared."""
        state = super().__getstate__()
        state["indptr"] = None
        state["indices"] = None
        return state

    def memory_bytes(self) -> int:
        """CSR arrays plus the base method's seed structures."""
        seed_structures = self.base.memory_bytes() - self.base.graph.memory_bytes()
        return self.indptr.nbytes + self.indices.nbytes + max(seed_structures, 0)
