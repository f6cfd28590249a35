"""Streaming index tier: tombstone deletes, live inserts, batch consolidation.

The paper's protocol is build-then-freeze; production traffic is not.  This
module turns the incremental-insertion apparatus into an online engine the
way FreshDiskANN does:

* ``delete(ids)`` only *tombstones* nodes.  A tombstoned node keeps routing —
  beam search traverses it exactly as before (hops and distance calls are
  unchanged), it just never appears in an answer: the index's only query
  hook besides its seeds is ``_own_exclude``, which hands the tombstones to
  :meth:`~repro.indexes.base.BaseGraphIndex._answer`, the one answer path,
  where they are ORed into any filter a caller passes (``search``'s
  ``exclude_mask``, the filtered-search layer's predicates).
  Deleting is therefore O(batch) and recall degrades only gradually as dead
  nodes crowd the beam.

* ``insert(vectors)`` appends rows to growable dataset buffers and links the
  new nodes with the incremental-insertion protocol against the *frozen*
  pre-insert graph — one round of the batched II builder: every new node's
  candidate beam search is independent (and fans out over the batched
  builder's worker pool), then ONE :func:`~repro.core.refine.insert_round`
  prunes the pools and merges the edges in insertion-rank order.
  Tombstoned nodes route during these searches but never become
  candidates, so new edges only target live nodes.

* ``consolidate()`` is FreshDiskANN's batch delete-consolidation: every live
  node that points at a tombstoned neighbor rebuilds its out-list from the
  union of its live neighbors and its dead neighbors' live neighbors,
  re-pruned by the configured ND strategy in ONE
  :func:`~repro.core.build_kernels.prune_merged_many` (per worker chunk
  when the pool runs it) against the frozen pre-consolidation graph, so
  repairs are order-free; dead nodes' adjacency is then cleared.  Dead ids
  are never reused.

**Determinism contract.**  All mutation randomness derives from
``(mutation_seed, insertion_rank)``; candidate searches and prunes are
bit-identical across kernel backends and across in-process vs. worker-pool
execution; merges and repairs are applied in rank/node order; distance work
done in workers is folded back as order-independent counter deltas.  Graph
bytes and the aggregate distance-call count after any
insert/delete/consolidate schedule are therefore bit-identical at every
``n_workers`` and every ``REPRO_KERNEL`` backend.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np

from ..indexes.base import BaseGraphIndex, BuildReport
from .batch_build import _run_round_in_pool, _start_pool, build_ii_graph_batched
from .build_kernels import prune_merged_many
from .distances import DistanceComputer
from .diversification import PruneCounter, get_diversifier
from .graph import CSRGraph
from .kernels import batch_point_search, resolve_backend
from .refine import insert_round
from .shared import SharedArrayPack

__all__ = ["StreamingIndex", "ConsolidationReport"]


@dataclass
class ConsolidationReport:
    """Accounting for one :meth:`StreamingIndex.consolidate` pass."""

    n_dead: int
    n_repaired: int
    distance_calls: int
    wall_time_s: float


def _repair_candidates(graph, tombstone: np.ndarray, node: int) -> np.ndarray:
    """FreshDiskANN repair candidates for a live node with dead neighbors.

    The union of the node's live out-neighbors and, for each tombstoned
    out-neighbor ``d``, the live out-neighbors of ``d`` (minus the node
    itself) — the edges that kept routing *through* ``d`` now route around
    it.  Order (live neighbors first, then each dead neighbor's list in
    adjacency order) is deterministic; the ND pruner dedupes.
    """
    nbrs = graph.neighbors(node)
    dead = tombstone[nbrs]
    parts = [nbrs[~dead]]
    for d in nbrs[dead]:
        through = graph.neighbors(int(d))
        if through.size:
            through = through[~tombstone[through]]
            parts.append(through[through != node])
    cand = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    if cand.size:
        _, first = np.unique(cand, return_index=True)
        cand = cand[np.sort(first)]
    return cand


def _repair(graph, computer, tombstone, nodes, max_degree, diversify, params, kernel):
    """Repaired out-lists of ``nodes``: ONE prune over their repair candidates.

    A pure function of the frozen ``graph``, so a chunk of nodes repairs
    the same wherever (and in whatever grouping) it runs.
    """
    cands = [_repair_candidates(graph, tombstone, node) for node in nodes]
    return prune_merged_many(
        computer, list(nodes), cands, max_degree, diversify,
        params=params, backend=kernel,
    )


def _consolidate_worker_chunk(payload: tuple) -> list[tuple]:
    """Worker entry: repair one chunk of affected nodes on the frozen graph.

    Runs inside the batched builder's pool (the dataset computer is already
    attached by ``_build_worker_init``); the frozen CSR snapshot and the
    tombstone mask arrive as one shared-memory pack per consolidation pass.
    Returns ``((node, kept_ids) pairs, distance_call_delta)`` — per-chunk
    deltas sum order-independently, so the parent's aggregate counter
    matches the in-process pass exactly.
    """
    from .batch_build import _BUILD_WORKER

    csr_specs, nodes, max_degree, diversify, params, kernel = payload
    arrays, segments = SharedArrayPack.attach(csr_specs)
    try:
        frozen = CSRGraph(arrays["indptr"], arrays["indices"], validate=False)
        computer = _BUILD_WORKER["computer"]
        mark = computer.checkpoint()
        kepts = _repair(
            frozen, computer, arrays["tombstone"], nodes, max_degree,
            diversify, params, kernel,
        )
        return list(zip(nodes, kepts)), computer.since(mark)
    finally:
        for segment in segments:
            segment.close()


class StreamingIndex(BaseGraphIndex):
    """Online II-graph index: live inserts, tombstone deletes, consolidation.

    Parameters
    ----------
    max_degree, build_beam_width, diversify, diversify_params:
        The II apparatus knobs (out-degree cap, construction beam width, ND
        strategy) — used by the initial build, by every insert's linking
        pass, and by consolidation's re-prune.  The default is RRND with
        ``alpha=1.2`` (Vamana's relaxed prune, which FreshDiskANN builds
        on): consolidation repairs under plain RND prune too aggressively
        and lose several recall points relative to a from-scratch build,
        while the alpha slack keeps the repaired graph within tolerance.
    n_build_seeds, n_query_seeds:
        Random live seeds per insert-time / query-time beam search.
    growth_factor:
        Dataset buffers over-allocate by this factor so most inserts append
        in place instead of reallocating.
    n_workers:
        Worker processes for the initial build, insert-batch searches, and
        consolidation repairs.  Results are bit-identical at every count
        (``1`` runs in-process).
    min_parallel_batch:
        Mutation batches smaller than this run in-process even when
        ``n_workers > 1`` — pool startup dominates tiny batches and the
        result is identical either way.
    kernel:
        Beam backend for batched searches (``None`` = ``$REPRO_KERNEL``).
        Bit-identical across backends.
    """

    name = "Streaming-II"

    def __init__(
        self,
        max_degree: int = 16,
        build_beam_width: int = 64,
        diversify: str = "rrnd",
        diversify_params: dict | None = None,
        n_build_seeds: int = 4,
        n_query_seeds: int = 8,
        growth_factor: float = 1.5,
        seed: int = 0,
        default_beam_width: int = 64,
        n_workers: int = 1,
        min_parallel_batch: int = 32,
        kernel: str | None = None,
    ):
        super().__init__(seed, default_beam_width)
        if max_degree < 2:
            raise ValueError("max_degree must be >= 2")
        if n_build_seeds < 1 or n_query_seeds < 1:
            raise ValueError("seed counts must be >= 1")
        if growth_factor < 1.0:
            raise ValueError("growth_factor must be >= 1.0")
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if not isinstance(diversify, str):
            raise TypeError(
                "StreamingIndex needs the ND strategy by name (it must be "
                "re-instantiable inside worker processes)"
            )
        self.max_degree = max_degree
        self.build_beam_width = build_beam_width
        self.diversify = diversify
        if diversify_params is None:
            # FreshDiskANN's repair slack: alpha-relaxed prune by default
            diversify_params = {"alpha": 1.2} if diversify == "rrnd" else {}
        self.diversify_params = dict(diversify_params)
        self.n_build_seeds = n_build_seeds
        self.n_query_seeds = n_query_seeds
        self.growth_factor = growth_factor
        self.n_workers = n_workers
        self.min_parallel_batch = min_parallel_batch
        self.kernel = kernel
        self.prune_stats = PruneCounter()
        #: monotonically increasing graph version; bumped by every mutation.
        #: Serving-layer caches key on it, so any cached answer computed
        #: against an older graph state becomes unreachable.
        self.version = 0
        self._buf32: np.ndarray | None = None
        self._buf64: np.ndarray | None = None
        self._buf_sq: np.ndarray | None = None
        self._n_total = 0
        self._capacity = 0
        self._tombstone: np.ndarray | None = None
        self._alive_ids: np.ndarray | None = None
        self._mutation_seed = 0
        self._mutation_rank = 0
        get_diversifier(diversify)  # an unknown name fails here, not mid-build

    # ------------------------------------------------------------------
    # growable dataset storage
    # ------------------------------------------------------------------
    def _alloc(self, capacity: int, dim: int) -> None:
        new32 = np.zeros((capacity, dim), dtype=np.float32)
        new64 = np.zeros((capacity, dim), dtype=np.float64)
        new_sq = np.zeros(capacity, dtype=np.float64)
        if self._n_total:
            new32[: self._n_total] = self._buf32[: self._n_total]
            new64[: self._n_total] = self._buf64[: self._n_total]
            new_sq[: self._n_total] = self._buf_sq[: self._n_total]
        self._buf32, self._buf64, self._buf_sq = new32, new64, new_sq
        self._capacity = capacity

    def _ensure_capacity(self, need: int) -> None:
        if need > self._capacity:
            grown = int(np.ceil(self._capacity * self.growth_factor))
            self._alloc(max(need, grown), self._buf32.shape[1])

    def _rebind_computer(self, preserve_count: bool = True) -> None:
        """Re-slice the computer's views after the id space grows.

        :meth:`DistanceComputer.from_shared` wraps the buffer prefixes
        without copying; the running distance counter survives the rebind.
        """
        count = (
            self.computer.count
            if (preserve_count and self.computer is not None)
            else 0
        )
        self.computer = DistanceComputer.from_shared(
            self._buf32[: self._n_total],
            self._buf64[: self._n_total],
            self._buf_sq[: self._n_total],
        )
        self.computer.count = count

    def _append_rows(self, vectors: np.ndarray) -> None:
        m = vectors.shape[0]
        self._ensure_capacity(self._n_total + m)
        lo, hi = self._n_total, self._n_total + m
        v64 = vectors.astype(np.float64)
        self._buf32[lo:hi] = vectors
        self._buf64[lo:hi] = v64
        self._buf_sq[lo:hi] = (v64 * v64).sum(axis=1)
        self._n_total = hi
        self._rebind_computer()

    # ------------------------------------------------------------------
    # build
    # ------------------------------------------------------------------
    def build(self, data: np.ndarray) -> "StreamingIndex":
        """Initial build: the batched II protocol over growable storage.

        Always the prefix-doubling batched builder (never the sequential
        protocol), so the starting graph — like every later mutation — is
        bit-identical at any worker count.
        """
        data = np.ascontiguousarray(np.atleast_2d(data), dtype=np.float32)
        if data.ndim != 2 or data.shape[0] < 1:
            raise ValueError(f"data must be a non-empty 2-D array, got {data.shape}")
        n, dim = data.shape
        self._n_total = 0
        self._alloc(max(int(np.ceil(n * self.growth_factor)), n), dim)
        start = time.perf_counter()
        self._append_rows(data)
        self.computer.count = 0
        rng = np.random.default_rng(self.seed)
        mark = self.computer.checkpoint()
        result = build_ii_graph_batched(
            self.computer,
            max_degree=self.max_degree,
            beam_width=self.build_beam_width,
            diversify=self.diversify,
            rng=rng,
            diversify_params=self.diversify_params or None,
            track_pruning=True,
            n_workers=self.n_workers,
            kernel=self.kernel,
        )
        # drawn after the builder consumed its share of the stream: a pure
        # function of self.seed, independent of n_workers and kernel
        self._mutation_seed = int(rng.integers(np.iinfo(np.int64).max))
        self._mutation_rank = n
        self.graph = result.graph
        self.prune_stats = result.prune_stats
        self._tombstone = np.zeros(n, dtype=bool)
        self._on_mutation()
        self.version = 0
        self.build_report = BuildReport(
            distance_calls=self.computer.since(mark),
            wall_time_s=time.perf_counter() - start,
        )
        return self

    def _build(self, rng: np.random.Generator) -> None:  # pragma: no cover
        raise NotImplementedError("StreamingIndex overrides build() directly")

    # ------------------------------------------------------------------
    # mutation bookkeeping
    # ------------------------------------------------------------------
    def _on_mutation(self) -> None:
        self.version += 1
        self._csr_cache = None
        self._alive_ids = np.flatnonzero(~self._tombstone)

    def _require_streaming(self) -> DistanceComputer:
        computer = self._require_built()
        if self.graph is None or self._tombstone is None:
            raise RuntimeError(f"{self.name}: graph missing; build() first")
        return computer

    @property
    def n_total(self) -> int:
        """Total id space ever allocated (live + tombstoned)."""
        return self._n_total

    @property
    def n_alive(self) -> int:
        """Nodes that can currently be returned by a query."""
        return int(self._alive_ids.size) if self._alive_ids is not None else 0

    @property
    def alive_ids(self) -> np.ndarray:
        """Sorted ids of live nodes (read-only view semantics: copy to keep)."""
        self._require_streaming()
        return self._alive_ids

    def graph_fingerprint(self) -> int:
        """Hash of the exact graph bytes plus the tombstone mask.

        Two schedules that produce bit-identical graph state produce equal
        fingerprints — the determinism-contract witness used by tests and
        ``bench_streaming``.  A SHA-1 prefix, not ``hash()``: Python salts
        byte hashes per process, and the witness has to compare across
        processes and runs.
        """
        self._require_streaming()
        degrees = self.graph.degrees()
        flat = (
            np.concatenate([self.graph.neighbors(i) for i in range(self.graph.n)])
            if int(degrees.sum())
            else np.empty(0, dtype=np.int64)
        )
        digest = hashlib.sha1()
        for part in (flat, degrees, self._tombstone):
            digest.update(part.tobytes())
        return int.from_bytes(digest.digest()[:8], "big")

    # ------------------------------------------------------------------
    # delete / insert / consolidate
    # ------------------------------------------------------------------
    def delete(self, ids) -> int:
        """Tombstone ``ids``; returns how many were newly deleted.

        Idempotent per id.  The nodes keep routing traffic until the next
        :meth:`consolidate`; they stop being returned immediately.
        """
        self._require_streaming()
        ids = np.unique(np.asarray(ids, dtype=np.int64).ravel())
        if ids.size == 0:
            return 0
        if ids[0] < 0 or ids[-1] >= self._n_total:
            bad = ids[(ids < 0) | (ids >= self._n_total)]
            raise ValueError(
                f"delete ids {bad.tolist()} outside the id range [0, {self._n_total})"
            )
        fresh = ids[~self._tombstone[ids]]
        if fresh.size == self.n_alive:
            raise ValueError(
                "cannot tombstone every live node; the index would have no "
                "valid answers or query seeds"
            )
        if fresh.size == 0:
            return 0
        self._tombstone[fresh] = True
        self._on_mutation()
        return int(fresh.size)

    def insert(self, vectors: np.ndarray) -> np.ndarray:
        """Append ``vectors`` as new live nodes; returns their ids.

        One batched II round against the frozen pre-insert graph: candidate
        searches (seeded from live nodes, tombstones excluded from
        candidacy) are independent and fan out across the worker pool when
        the batch is large enough, then edges merge sequentially in
        insertion-rank order — bit-identical at every worker count and
        kernel backend.
        """
        computer = self._require_streaming()
        vectors = np.ascontiguousarray(np.atleast_2d(vectors), dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[1] != computer.dim:
            raise ValueError(
                f"vectors must be (m, {computer.dim}), got {vectors.shape}"
            )
        m = vectors.shape[0]
        if m == 0:
            return np.empty(0, dtype=np.int64)
        alive = self._alive_ids
        old_total = self._n_total
        self._append_rows(vectors)
        computer = self.computer
        new_ids = np.arange(old_total, old_total + m, dtype=np.int64)
        self.graph.grow(self._n_total)
        self._tombstone = np.concatenate(
            [self._tombstone, np.zeros(m, dtype=bool)]
        )

        ranks = range(self._mutation_rank, self._mutation_rank + m)
        self._mutation_rank += m
        rngs = [np.random.default_rng((self._mutation_seed, r)) for r in ranks]
        seeds_per_node = []
        for node_rng in rngs:
            size = min(self.n_build_seeds, alive.size)
            picks = node_rng.choice(alive.size, size=size, replace=False)
            seeds_per_node.append(alive[np.sort(picks)])
        width = min(self.build_beam_width, max(8, alive.size))
        k = min(width, alive.size)

        backend = resolve_backend(self.kernel)
        searches = self._frozen_point_searches(
            new_ids.tolist(), seeds_per_node, k, width, backend
        )
        # masked searches pad to k with (PAD_ID, inf) when tombstones
        # empty the beam; a sentinel id must never reach the
        # diversifier (fancy indexing would wrap -1 to the last node)
        cleaned = []
        for cand_ids, cand_dists in searches:
            live = cand_ids >= 0
            cleaned.append((cand_ids[live], cand_dists[live]))
        insert_round(
            self.graph, computer, new_ids.tolist(), cleaned, self.max_degree,
            self.diversify, self.diversify_params, backend,
            stats=self.prune_stats,
        )
        self._on_mutation()
        return new_ids

    def _frozen_point_searches(self, points, seeds_per_point, k, width, backend):
        """One round of point searches against the frozen current graph.

        In-process for small batches (or ``n_workers == 1``), otherwise
        fanned over the batched builder's shared-memory pool — identical
        results either way, by the builder's round contract.
        """
        if self.n_workers > 1 and len(points) >= self.min_parallel_batch:
            pool, data_pack = _start_pool(self.computer, self.n_workers)
            try:
                return _run_round_in_pool(
                    pool, self.graph, self.computer, points, seeds_per_point,
                    k, width, self.n_workers, backend,
                    exclude_mask=self._tombstone,
                )
            finally:
                pool.close()
                pool.join()
                data_pack.unlink()
        return [
            (r.ids, r.dists)
            for r in batch_point_search(
                self.graph, self.computer, points, seeds_per_point, k, width,
                backend=backend, exclude_mask=self._tombstone,
            )
        ]

    def consolidate(self) -> ConsolidationReport:
        """Rebuild around tombstoned nodes (FreshDiskANN batch consolidation).

        Every live node with at least one dead out-neighbor gets its
        out-list recomputed from its live neighbors plus its dead neighbors'
        live neighbors, re-pruned by the ND strategy — all repairs are
        evaluated against the frozen pre-consolidation graph (so the pass is
        order-free and parallelizes over the worker pool), then applied in
        node order.  Dead nodes' adjacency is cleared; their ids stay
        tombstoned forever (never reused).
        """
        computer = self._require_streaming()
        start = time.perf_counter()
        mark = computer.checkpoint()
        tombstone = self._tombstone
        dead = np.flatnonzero(tombstone)
        if dead.size == 0:
            return ConsolidationReport(0, 0, 0, time.perf_counter() - start)
        affected = [
            node
            for node in self._alive_ids.tolist()
            if self.graph.neighbors(node).size
            and bool(tombstone[self.graph.neighbors(node)].any())
        ]
        repairs = self._frozen_repairs(affected)
        for node, kept in repairs:
            self.graph.set_neighbors(node, kept)
        for d in dead.tolist():
            self.graph.set_neighbors(d, np.empty(0, dtype=np.int64))
        self._on_mutation()
        return ConsolidationReport(
            n_dead=int(dead.size),
            n_repaired=len(affected),
            distance_calls=computer.since(mark),
            wall_time_s=time.perf_counter() - start,
        )

    def _frozen_repairs(self, affected: list[int]) -> list[tuple]:
        """Repaired out-lists for ``affected``, frozen-graph semantics.

        Returns ``(node, kept_ids)`` in node order.  The pool path ships the
        frozen CSR snapshot + tombstone mask through shared memory and folds
        worker distance deltas into the parent counter.
        """
        if self.n_workers > 1 and len(affected) >= self.min_parallel_batch:
            pool, data_pack = _start_pool(self.computer, self.n_workers)
            try:
                indptr, indices = self.graph.to_csr()
                csr_pack = SharedArrayPack(
                    {
                        "indptr": indptr,
                        "indices": indices,
                        "tombstone": self._tombstone,
                    }
                )
                try:
                    bounds = np.array_split(
                        np.arange(len(affected)),
                        min(len(affected), self.n_workers * 4),
                    )
                    payloads = [
                        (
                            csr_pack.specs,
                            [affected[i] for i in chunk],
                            self.max_degree,
                            self.diversify,
                            self.diversify_params,
                            self.kernel,
                        )
                        for chunk in bounds
                        if chunk.size
                    ]
                    chunk_results = pool.map(_consolidate_worker_chunk, payloads)
                finally:
                    csr_pack.unlink()
            finally:
                pool.close()
                pool.join()
                data_pack.unlink()
            repairs: list[tuple] = []
            delta_total = 0
            for pairs, delta in chunk_results:
                repairs.extend(pairs)
                delta_total += delta
            self.computer.count += delta_total
            return repairs
        kepts = _repair(
            self.graph, self.computer, self._tombstone, affected,
            self.max_degree, self.diversify, self.diversify_params, self.kernel,
        )
        return list(zip(affected, kepts))

    # ------------------------------------------------------------------
    # query path (tombstone-aware)
    # ------------------------------------------------------------------
    def _query_seeds(self, query: np.ndarray) -> np.ndarray:
        alive = self._alive_ids
        size = min(self.n_query_seeds, alive.size)
        picks = self._query_rng.choice(alive.size, size=size, replace=False)
        return alive[picks]

    def _own_exclude(self) -> np.ndarray:
        """Tombstones: traversed by every query, returned by none."""
        return self._tombstone

    # ------------------------------------------------------------------
    # ground truth over the live set
    # ------------------------------------------------------------------
    def alive_ground_truth(
        self, queries: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact k-NN over the *live* nodes only, in original-id space.

        The recall-drift yardstick: after deletes, the true answers are the
        nearest live vectors, not the nearest rows of the original dataset.
        Uses a throwaway computer (not charged to the index) over the live
        rows and maps ids back.
        """
        self._require_streaming()
        alive = self._alive_ids
        if k > alive.size:
            raise ValueError(f"k={k} exceeds the live node count {alive.size}")
        throwaway = DistanceComputer(self._buf32[alive])
        ids, dists = throwaway.exact_knn_batch(np.atleast_2d(queries), k)
        return alive[ids], dists

    # ------------------------------------------------------------------
    # batch-engine / pickling plumbing
    # ------------------------------------------------------------------
    def shared_query_state(self) -> dict[str, np.ndarray]:
        state = super().shared_query_state()
        state["tombstone"] = self._tombstone
        return state

    def attach_shared_query_state(self, arrays: dict[str, np.ndarray]) -> None:
        super().attach_shared_query_state(arrays)
        self._tombstone = arrays["tombstone"]
        self._alive_ids = np.flatnonzero(~self._tombstone)

    def __getstate__(self) -> dict:
        state = super().__getstate__()
        for key in ("_buf32", "_buf64", "_buf_sq", "_tombstone", "_alive_ids"):
            state[key] = None
        return state

    def memory_bytes(self) -> int:
        graph_bytes = super().memory_bytes()
        mask_bytes = self._tombstone.nbytes if self._tombstone is not None else 0
        return graph_bytes + mask_bytes
