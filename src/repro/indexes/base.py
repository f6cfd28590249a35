"""Shared index interface.

Every reproduced method exposes the same surface:

* ``build(data)`` — construct the index, recording wall time and distance
  calculations (:class:`BuildReport`);
* ``search(query, k, beam_width)`` — answer one ng-approximate k-NN query,
  returning a :class:`~repro.core.beam_search.SearchResult` with its own
  distance accounting;
* ``memory_bytes()`` — bytes attributable to the index structures (the
  Figure 8/9/10 footprint metric; raw data is reported separately).

Graph-backed methods subclass :class:`BaseGraphIndex`, which provides the
standard beam-search query path (Algorithm 1) on top of per-method seeds.
That path is written once, in :meth:`BaseGraphIndex._answer`: per-query
seeds from the method's SS strategy, then ONE call into the beam kernel
(:func:`~repro.core.kernels.batch_search`, or
:func:`~repro.core.kernels.batch_search_pq` on the disk tier), whose
``scalar`` backend is the per-query reference loop.  ``search``,
``search_batch``, the streaming tier and the filtered-search layer all
answer through it.  Layers change *which* nodes may answer, never the
loop: an index contributes its own mask through
:meth:`BaseGraphIndex._own_exclude` (the streaming tier's tombstones) and
a caller passes per-query exclude masks or an ACORN policy; the two are
ORed, so filters and tombstones compose.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass

import numpy as np

from ..core.beam_search import SearchResult, normalize_exclude_masks
from ..core.distances import DistanceComputer
from ..core.graph import CSRGraph, Graph
from ..core.kernels import (
    AcornExpansion,
    batch_search,
    batch_search_pq,
    resolve_backend,
)

__all__ = ["BuildReport", "BaseIndex", "BaseGraphIndex", "load_disk_index"]


@dataclass
class BuildReport:
    """Construction cost accounting (Figures 7-9, Table 2)."""

    distance_calls: int = 0
    wall_time_s: float = 0.0


class BaseIndex(abc.ABC):
    """Common build/search/footprint contract for all methods."""

    name: str = "base"

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.computer: DistanceComputer | None = None
        self.build_report = BuildReport()
        self._query_rng = np.random.default_rng(seed ^ 0x5EED)

    def build(self, data: np.ndarray) -> "BaseIndex":
        """Construct the index over ``data``, recording cost."""
        self.computer = DistanceComputer(data)
        rng = np.random.default_rng(self.seed)
        start = time.perf_counter()
        mark = self.computer.checkpoint()
        self._build(rng)
        self.build_report = BuildReport(
            distance_calls=self.computer.since(mark),
            wall_time_s=time.perf_counter() - start,
        )
        return self

    @abc.abstractmethod
    def _build(self, rng: np.random.Generator) -> None:
        """Method-specific construction; ``self.computer`` is ready."""

    @abc.abstractmethod
    def search(
        self, query: np.ndarray, k: int = 10, beam_width: int | None = None
    ) -> SearchResult:
        """Answer one ng-approximate k-NN query."""

    def search_batch(
        self,
        queries: np.ndarray,
        k: int = 10,
        beam_width: int | None = None,
        query_indices=None,
        kernel: str | None = None,
    ) -> list[SearchResult]:
        """Answer a batch of queries; results match per-query :meth:`search`.

        The generic implementation is the per-query reference loop.  Graph
        indexes answering through the standard Algorithm-1 path override
        this with the vectorized multi-query beam kernel
        (:mod:`repro.core.kernels`), which is bit-identical by contract.

        ``query_indices`` (global indices within the workload) reseed the
        per-query RNG before each query's seed selection, exactly like the
        batch-query engine's sequential path — so batched and per-query
        execution consume identical randomness.
        """
        del kernel  # the reference loop has no backend to select
        queries = np.atleast_2d(np.asarray(queries))
        results = []
        for j in range(queries.shape[0]):
            if query_indices is not None:
                self.seed_query_rng(int(query_indices[j]))
            results.append(self.search(queries[j], k=k, beam_width=beam_width))
        return results

    def memory_bytes(self) -> int:
        """Bytes held by index structures (excludes the raw vectors)."""
        return 0

    def _require_built(self) -> DistanceComputer:
        if self.computer is None:
            raise RuntimeError(f"{self.name}: call build() before search()")
        return self.computer

    # ------------------------------------------------------------------
    # batch-engine contract: deterministic per-query randomness and
    # shared-memory state for worker processes
    # ------------------------------------------------------------------
    def seed_query_rng(self, query_index: int) -> None:
        """Reseed the per-query RNG deterministically from ``query_index``.

        The batch-query engine calls this before every query so that seed
        selection depends only on ``(self.seed, query_index)`` — never on how
        many queries ran before in the same process.  That is what makes a
        sharded parallel run bit-identical to the sequential one.
        """
        self._query_rng = np.random.default_rng(
            (self.seed ^ 0x5EED, int(query_index))
        )

    def shared_query_state(self) -> dict[str, np.ndarray]:
        """Arrays the batch engine should place in shared memory.

        The returned arrays are stripped from the pickled index (see
        ``__getstate__``) and re-attached in each worker via
        :meth:`attach_shared_query_state`.
        """
        computer = self._require_built()
        return {
            "data": computer.data,
            "data64": computer._data64,
            "sq_norms": computer._sq_norms,
        }

    def attach_shared_query_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Rebind this (unpickled) index to shared-memory array views."""
        self.computer = DistanceComputer.from_shared(
            arrays["data"], arrays["data64"], arrays["sq_norms"]
        )

    def __getstate__(self) -> dict:
        """Pickle without the dataset; workers re-attach it from shared memory."""
        state = self.__dict__.copy()
        state["computer"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)


class BaseGraphIndex(BaseIndex):
    """Graph-backed methods: beam search over ``self.graph`` with seeds."""

    #: Whether this method can answer from a disk-resident tier.  True only
    #: for methods whose seed selection needs no raw-vector access (random
    #: seeds and/or a pickled medoid); methods that probe trees/LSH tables
    #: against exact vectors at seed time (HNSW, NGT, SPTAG, EFANNA, HCNNG,
    #: IEH, ELPIS, LSHAPG) must stay in RAM mode.
    disk_tier_capable: bool = False

    #: Construction-kernel backend request (``None`` = ``$REPRO_KERNEL``).
    #: Builders that take ``kernel=`` set it in their constructor; the CLI's
    #: ``--kernel`` sets it on any graph index before :meth:`build`.
    kernel: str | None = None

    def __init__(self, seed: int = 0, default_beam_width: int = 64):
        super().__init__(seed)
        if default_beam_width < 1:
            raise ValueError("default_beam_width must be >= 1")
        self.graph: Graph | None = None
        self.default_beam_width = default_beam_width
        # (source graph, CSRGraph flattening) for the batch kernel; keyed by
        # identity so a rebuild invalidates it
        self._csr_cache: tuple | None = None
        # disk-tier state: the opened tier (never pickled) and its directory
        # (pickled, so worker processes can re-open the mmap themselves)
        self._disk_tier = None
        self._disk_tier_dir: str | None = None

    def build(self, data: np.ndarray) -> "BaseGraphIndex":
        """Construct the index; the build backend is resolved here, once."""
        #: what ``kernel`` resolved to for this build; every backend builds
        #: the same graph with the same distance-call total
        self.build_backend = resolve_backend(self.kernel)
        return super().build(data)

    @abc.abstractmethod
    def _query_seeds(self, query: np.ndarray) -> np.ndarray:
        """Seed node ids for one query (method-specific SS strategy)."""

    def _own_exclude(self) -> np.ndarray | None:
        """Nodes this index never returns (``None``: every node may answer).

        The streaming tier returns its tombstones; :meth:`_answer` ORs the
        mask into whatever filter the caller passes.
        """
        return None

    def _answer(
        self,
        queries: np.ndarray,
        k: int,
        beam_width: int | None,
        query_indices,
        backend: str,
        exclude=None,
        acorn=None,
        graph=None,
    ) -> list[SearchResult]:
        """The one answer path of Algorithm 1: seeds, then one kernel call.

        Per query, ``query_indices[j]`` (if given) reseeds the RNG and the
        method's SS strategy picks the seeds; their distance work is
        charged to that query.  The index's own mask (:meth:`_own_exclude`)
        is ORed into the caller's filter — per-query ``exclude`` masks
        (traversed, never returned) or an
        :class:`~repro.core.kernels.AcornExpansion` policy (never scored)
        — and the whole batch is ONE :func:`~repro.core.kernels.batch_search`
        (:func:`~repro.core.kernels.batch_search_pq` on the disk tier, which
        takes no filter).  ``scalar`` runs the per-query reference loops
        over ``self.graph``; the kernel backends traverse
        :meth:`_kernel_graph`.  ``graph`` overrides both (the RWalks
        augmented CSR).
        """
        computer = self._require_built()
        if self.graph is None:
            raise RuntimeError(f"{self.name}: graph missing; build() first")
        disk = self._disk_tier is not None
        if disk and (exclude is not None or acorn is not None):
            raise NotImplementedError("filters are not supported on the disk tier")
        queries = np.atleast_2d(np.asarray(queries))
        width = max(beam_width or max(self.default_beam_width, k), k)
        seeds_per_query, seed_calls = [], []
        for j, query in enumerate(queries):
            if query_indices is not None:
                self.seed_query_rng(int(query_indices[j]))
            before = computer.count
            seeds_per_query.append(self._query_seeds(query))
            seed_calls.append(computer.count - before)
        if disk:
            results = batch_search_pq(
                self.graph, computer, queries, seeds_per_query,
                k=k, beam_width=width, backend=backend,
            )
        else:
            own = self._own_exclude()
            if own is not None and acorn is not None:
                # only the rows this batch filters by, each ORed once
                rows, lanes = np.unique(acorn.rows, return_inverse=True)
                acorn = AcornExpansion(
                    acorn.exclude[rows] | own, lanes, acorn.expansion
                )
            elif own is not None:
                masks = normalize_exclude_masks(exclude, len(queries), own.size)
                exclude = own if masks is None else [m | own for m in masks]
            if graph is None:
                graph = self.graph if backend == "scalar" else self._kernel_graph()
            results = batch_search(
                graph, computer, queries, seeds_per_query,
                k=k, beam_width=width, backend=backend,
                exclude_mask=exclude, acorn=acorn,
            )
        for result, calls in zip(results, seed_calls):
            result.distance_calls += calls
        return results

    def search(
        self,
        query: np.ndarray,
        k: int = 10,
        beam_width: int | None = None,
        exclude_mask: np.ndarray | None = None,
    ) -> SearchResult:
        """Algorithm 1 on the method's graph, seeded by its SS strategy.

        ``exclude_mask`` flags nodes filtered from the answers (traversed,
        never returned — see :func:`~repro.core.beam_search.beam_search`),
        ORed with the index's own mask; masked answers are padded to
        exactly ``k`` slots with ``(PAD_ID, inf)`` on shortfall.  On the
        disk tier the traversal is PQ-guided with one exact re-rank
        (:func:`~repro.core.beam_search.pq_beam_search`).
        """
        return self._answer(
            query, k, beam_width, None, "scalar", exclude=exclude_mask
        )[0]

    def search_batch(
        self,
        queries: np.ndarray,
        k: int = 10,
        beam_width: int | None = None,
        query_indices=None,
        kernel: str | None = None,
        exclude_mask=None,
    ) -> list[SearchResult]:
        """Batched Algorithm 1 via the vectorized multi-query beam kernel.

        Per-query ids, distances, hops, and distance-call totals are
        bit-identical to :meth:`search` (``kernel="scalar"`` runs the
        reference loop itself).  ``exclude_mask`` accepts one shared mask or
        a per-query sequence (see
        :func:`~repro.core.beam_search.normalize_exclude_masks`); it is not
        supported on the disk tier.  Methods that override :meth:`search`
        answer outside the standard beam path and fall back to the
        per-query loop, without masks.
        """
        if type(self).search is not BaseGraphIndex.search:
            if exclude_mask is not None:
                raise NotImplementedError(
                    f"{self.name} overrides search() and cannot accept "
                    f"per-query exclude masks"
                )
            return super().search_batch(
                queries, k=k, beam_width=beam_width, query_indices=query_indices
            )
        return self._answer(
            queries, k, beam_width, query_indices, resolve_backend(kernel),
            exclude=exclude_mask,
        )

    def _kernel_graph(self):
        """The graph in the layout the batch kernel traverses fastest.

        Adjacency-list graphs are flattened to CSR once and cached (CSR
        frontier gathering is pure array arithmetic); traversal order over
        the flattening is identical, so answers are unaffected.  The cache
        is keyed by graph identity, so rebuilding invalidates it.
        """
        if isinstance(self.graph, CSRGraph):
            return self.graph
        if self._csr_cache is None or self._csr_cache[0] is not self.graph:
            self._csr_cache = (self.graph, CSRGraph.from_graph(self.graph))
        return self._csr_cache[1]

    def memory_bytes(self) -> int:
        """Graph adjacency bytes; subclasses add their seed structures."""
        return self.graph.memory_bytes() if self.graph is not None else 0

    # ------------------------------------------------------------------
    # beyond-RAM tier
    # ------------------------------------------------------------------
    def to_disk_tier(
        self,
        directory,
        pq_subspaces: int = 16,
        pq_centroids: int = 256,
        rng: np.random.Generator | None = None,
    ):
        """Persist this built index as a disk-resident search tier.

        Writes the CSR graph and raw float32 vectors as mmap-able files,
        trains/encodes a product quantizer over the dataset (``pq_subspaces``
        and ``pq_centroids`` are soft preferences, rounded down to a valid
        configuration), and pickles the index skeleton alongside so
        :func:`load_disk_index` restores a searchable index without the
        dataset ever becoming resident.  Returns the directory path.
        """
        from ..core.serialization import save_disk_tier
        from ..summarization.quantization import (
            ProductQuantizer,
            largest_subspace_count,
        )

        if not self.disk_tier_capable:
            raise NotImplementedError(
                f"{self.name} needs raw-vector access at query-seed time and "
                f"cannot answer from a disk tier"
            )
        computer = self._require_built()
        if self.graph is None:
            raise RuntimeError(f"{self.name}: graph missing; build() first")
        if rng is None:
            rng = np.random.default_rng(self.seed ^ 0xD15C)
        pq = ProductQuantizer.fit(
            computer.data,
            n_subspaces=largest_subspace_count(computer.dim, pq_subspaces),
            n_centroids=min(pq_centroids, computer.n),
            rng=rng,
        )
        codes = pq.encode(computer.data)
        return save_disk_tier(
            directory, self._kernel_graph(), computer.data, pq, codes, index=self
        )

    def attach_disk_tier(self, tier) -> None:
        """Switch this index to answer from an opened disk tier.

        Replaces the distance engine with the tier's
        :class:`~repro.core.distances.PQDistanceComputer` (which carries the
        ``n`` surface seed selection consumes, plus the ``approx_calls`` /
        ``page_reads`` accounting) and the graph with the tier's mmap-backed
        CSR view.  All subsequent ``search``/``search_batch`` calls run the
        two-phase PQ + exact-re-rank path.
        """
        if not self.disk_tier_capable:
            raise NotImplementedError(
                f"{self.name} needs raw-vector access at query-seed time and "
                f"cannot answer from a disk tier"
            )
        self._disk_tier = tier
        self._disk_tier_dir = str(tier.directory)
        self.computer = tier.computer
        self.graph = tier.graph
        self._csr_cache = None

    def shared_query_state(self) -> dict[str, np.ndarray]:
        """Dataset arrays plus the graph flattened to CSR.

        In disk-tier mode nothing index-sized goes to shared memory: each
        worker re-opens the tier directory itself (the mmaps share pages
        through the OS page cache; only the resident PQ codes are duplicated
        per worker — a deliberate tradeoff that keeps worker startup free of
        large pickles).
        """
        if self._disk_tier is not None:
            return {}
        state = super().shared_query_state()
        if self.graph is not None:
            if isinstance(self.graph, CSRGraph):
                indptr, indices = self.graph.indptr, self.graph.indices
            else:
                indptr, indices = self.graph.to_csr()
            state["csr_indptr"] = indptr
            state["csr_indices"] = indices
        return state

    def attach_shared_query_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Rebind the dataset and mount the graph as a zero-copy CSR view.

        A disk-tier index re-opens its tier directory instead — the graph
        and raw vectors come back as memory maps, and the worker gets its
        own PQ computer (and thus its own independent counters).
        """
        if self._disk_tier_dir is not None:
            from ..core.serialization import open_disk_tier

            self.attach_disk_tier(open_disk_tier(self._disk_tier_dir))
            return
        super().attach_shared_query_state(arrays)
        if "csr_indptr" in arrays:
            self.graph = CSRGraph(
                arrays["csr_indptr"], arrays["csr_indices"], validate=False
            )
        self._csr_cache = None

    def __getstate__(self) -> dict:
        """Pickle without the graph; workers re-attach the CSR view.

        ``_disk_tier_dir`` survives pickling (it is how a worker finds the
        tier again); the opened tier itself — mmap handles and resident
        codes — never does.
        """
        state = super().__getstate__()
        state["graph"] = None
        state["_csr_cache"] = None
        state["_disk_tier"] = None
        return state

    def degree_stats(self) -> dict[str, float]:
        """Mean/max out-degree — handy for graph-shape assertions in tests."""
        if self.graph is None:
            raise RuntimeError("build() first")
        degrees = self.graph.degrees()
        return {
            "mean": float(degrees.mean()) if degrees.size else 0.0,
            "max": float(degrees.max()) if degrees.size else 0.0,
            "min": float(degrees.min()) if degrees.size else 0.0,
        }


def load_disk_index(directory, mmap: bool = True) -> BaseGraphIndex:
    """Restore a searchable index from a disk-tier directory.

    Opens the tier (graph + raw vectors memory-mapped by default), unpickles
    the index skeleton saved by :meth:`BaseGraphIndex.to_disk_tier`, and
    attaches the tier — the dataset never becomes resident.  The returned
    index answers through the two-phase PQ + exact-re-rank path.
    """
    from ..core.serialization import open_disk_tier

    tier = open_disk_tier(directory, mmap=mmap)
    index = tier.load_index()
    if not isinstance(index, BaseGraphIndex):
        raise TypeError(
            f"disk tier {directory} holds a {type(index).__name__}, "
            f"not a graph index"
        )
    index.attach_disk_tier(tier)
    return index
