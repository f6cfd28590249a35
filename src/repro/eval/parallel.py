"""Parallel batch-query execution engine with deterministic accounting.

The paper's protocol answers queries one at a time in a single thread; a
serving-shaped system answers the same batch across worker processes.  This
module does both behind one entry point, :func:`run_batch`, with one hard
guarantee: **for a fixed index seed, the per-query answers, recall, and total
distance-calculation counts are identical for every worker count** (ParlayANN
calls this deterministic parallelism).  Two mechanisms deliver it:

* every query ``i`` is answered under an RNG derived only from
  ``(index.seed, i)`` (``BaseIndex.seed_query_rng``), never from how many
  queries the answering process saw before;
* per-query distance calls are measured as ``computer.since(mark)`` deltas,
  which are independent of the counter's absolute value, so summing the
  ordered per-query outcomes reproduces the sequential aggregate exactly.

Workers never re-pickle the dataset or the graph.  The parent places the
float32/float64 dataset copies, the squared norms, and the CSR-flattened
graph into ``multiprocessing.shared_memory`` segments
(:class:`SharedArrayPack`); each worker unpickles a skeleton index (heavy
arrays stripped by ``BaseIndex.__getstate__``) and re-attaches zero-copy
views (``DistanceComputer.from_shared`` + ``CSRGraph``), keeping its own
independent distance counter.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass
from multiprocessing import get_context

import numpy as np

from ..core.shared import SharedArrayPack
from ..indexes.base import BaseIndex

__all__ = ["QueryOutcome", "BatchResult", "SharedArrayPack", "run_batch"]


@dataclass
class QueryOutcome:
    """Answer and accounting for one query of a batch.

    ``approx_calls``/``page_reads`` are nonzero only in disk-tier mode:
    PQ asymmetric estimates scored and logical disk rows fetched (graph
    adjacency rows + re-rank vector rows).  Like ``distance_calls`` they
    are measured as counter deltas, so they are bit-identical at any
    worker count.
    """

    query_index: int
    ids: np.ndarray
    dists: np.ndarray
    distance_calls: int
    hops: int
    time_s: float
    approx_calls: int = 0
    page_reads: int = 0


@dataclass
class BatchResult:
    """Ordered per-query outcomes plus batch-level wall time."""

    outcomes: list[QueryOutcome]
    wall_time_s: float
    n_workers: int

    @property
    def total_distance_calls(self) -> int:
        """Aggregate distance calculations across the batch (exact)."""
        return sum(outcome.distance_calls for outcome in self.outcomes)

    @property
    def total_approx_calls(self) -> int:
        """Aggregate PQ asymmetric-distance estimates (disk tier; exact)."""
        return sum(outcome.approx_calls for outcome in self.outcomes)

    @property
    def total_page_reads(self) -> int:
        """Aggregate logical disk-row fetches (disk tier; exact)."""
        return sum(outcome.page_reads for outcome in self.outcomes)

    @property
    def qps(self) -> float:
        """Queries answered per second of batch wall time."""
        if self.wall_time_s <= 0:
            return 0.0
        return len(self.outcomes) / self.wall_time_s


# ----------------------------------------------------------------------
# worker process state and entry points
# ----------------------------------------------------------------------
_WORKER: dict = {}


def _worker_init(
    index_bytes: bytes,
    specs: dict,
    k: int,
    beam_width: int | None,
    kernel: str | None = None,
) -> None:
    """Pool initializer: mount shared arrays and rebuild the index skeleton."""
    arrays, segments = SharedArrayPack.attach(specs)
    index = pickle.loads(index_bytes)
    index.attach_shared_query_state(arrays)
    queries = arrays["batch_queries"]
    _WORKER.update(
        index=index,
        queries=queries,
        k=k,
        beam_width=beam_width,
        kernel=kernel,
        seed_indices=arrays.get("seed_indices"),
        segments=segments,
    )


def _worker_run_chunk(query_indices: np.ndarray) -> list[tuple]:
    """Answer a chunk of queries by global index; returns plain tuples."""
    outcomes = _answer_chunk(
        _WORKER["index"],
        _WORKER["queries"],
        query_indices,
        _WORKER["k"],
        _WORKER["beam_width"],
        _WORKER["kernel"],
        _WORKER["seed_indices"],
    )
    return [
        (
            outcome.query_index,
            outcome.ids,
            outcome.dists,
            outcome.distance_calls,
            outcome.hops,
            outcome.time_s,
            outcome.approx_calls,
            outcome.page_reads,
        )
        for outcome in outcomes
    ]


def _answer_chunk(
    index: BaseIndex,
    queries: np.ndarray,
    query_indices,
    k: int,
    beam_width: int | None,
    kernel: str | None,
    seed_indices: np.ndarray | None = None,
) -> list[QueryOutcome]:
    """Answer one chunk of queries, batched through the beam kernel.

    ``kernel="scalar"`` (or any index without a batch path) answers
    per-query through :func:`_answer_one`, the accounting-faithful
    reference; otherwise the chunk goes through ``index.search_batch`` as
    one multi-query kernel invocation.  Answers, hop counts, and distance
    accounting are bit-identical either way; only per-query latency
    attribution differs (a batched chunk reports the chunk's mean).

    ``seed_indices`` decouples randomness from batch position: query ``i``
    is answered under ``seed_query_rng(seed_indices[i])`` while the outcome
    still reports position ``i``.  The serving engine uses this to key
    randomness to query *content*, so an answer does not depend on where in
    a micro-batch the query landed.
    """
    from ..core.kernels import resolve_backend

    query_indices = np.asarray(query_indices, dtype=np.int64)
    rng_indices = (
        query_indices if seed_indices is None else seed_indices[query_indices]
    )
    if resolve_backend(kernel) == "scalar":
        return [
            _answer_one(index, queries[i], int(i), k, beam_width, int(r))
            for i, r in zip(query_indices, rng_indices)
        ]
    start = time.perf_counter()
    results = index.search_batch(
        queries[query_indices],
        k=k,
        beam_width=beam_width,
        query_indices=rng_indices,
        kernel=kernel,
    )
    per_query_s = (time.perf_counter() - start) / max(len(results), 1)
    return [
        QueryOutcome(
            query_index=int(query_index),
            ids=result.ids,
            dists=result.dists,
            distance_calls=result.distance_calls,
            hops=result.hops,
            time_s=per_query_s,
            approx_calls=result.approx_calls,
            page_reads=result.page_reads,
        )
        for query_index, result in zip(query_indices, results)
    ]


def _answer_one(
    index: BaseIndex,
    query: np.ndarray,
    query_index: int,
    k: int,
    beam_width: int | None,
    seed_index: int | None = None,
) -> QueryOutcome:
    """Answer one query under its deterministic per-query RNG."""
    index.seed_query_rng(query_index if seed_index is None else seed_index)
    start = time.perf_counter()
    result = index.search(query, k=k, beam_width=beam_width)
    elapsed = time.perf_counter() - start
    return QueryOutcome(
        query_index=query_index,
        ids=result.ids,
        dists=result.dists,
        distance_calls=result.distance_calls,
        hops=result.hops,
        time_s=elapsed,
        approx_calls=result.approx_calls,
        page_reads=result.page_reads,
    )


def run_batch(
    index: BaseIndex,
    queries: np.ndarray,
    k: int,
    beam_width: int | None = None,
    n_workers: int = 1,
    chunks_per_worker: int = 4,
    kernel: str | None = None,
    seed_indices: np.ndarray | None = None,
) -> BatchResult:
    """Answer a query batch, sequentially or across worker processes.

    ``n_workers=1`` answers in-process (the paper's sequential protocol);
    ``n_workers>1`` shards the batch over a process pool.  ``kernel``
    selects the beam backend (``None`` = ``$REPRO_KERNEL``, else ``python``):
    batched kernels answer each worker's chunk as one vectorized
    multi-query traversal, ``"scalar"`` keeps the per-query reference loop.
    Either way the outcomes come back ordered by query index and are
    bit-identical for a fixed index seed — across worker counts, chunkings,
    and kernel backends.

    ``seed_indices`` (optional, one per query) replaces each query's
    positional RNG index: query ``i`` runs under
    ``seed_query_rng(seed_indices[i])`` but still reports
    ``query_index=i``.  The serving tier derives these from query content
    so identical queries get identical answers regardless of micro-batch
    composition.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    queries = np.atleast_2d(np.asarray(queries))
    n_queries = queries.shape[0]
    if seed_indices is not None:
        seed_indices = np.asarray(seed_indices, dtype=np.int64)
        if seed_indices.shape != (n_queries,):
            raise ValueError(
                f"seed_indices must have shape ({n_queries},), "
                f"got {seed_indices.shape}"
            )
    start = time.perf_counter()
    if n_workers == 1 or n_queries <= 1:
        outcomes = _answer_chunk(
            index, queries, np.arange(n_queries), k, beam_width, kernel,
            seed_indices,
        )
        return BatchResult(outcomes, time.perf_counter() - start, 1)

    shared = dict(index.shared_query_state())
    shared["batch_queries"] = queries
    if seed_indices is not None:
        shared["seed_indices"] = seed_indices
    pack = SharedArrayPack(shared)
    index_bytes = pickle.dumps(index)
    n_workers = min(n_workers, n_queries)
    chunks = np.array_split(
        np.arange(n_queries), min(n_queries, n_workers * chunks_per_worker)
    )
    try:
        # fork shares the parent's modules, so even __main__-defined index
        # classes unpickle; platforms without fork fall back to spawn
        context = get_context("fork")
    except ValueError:
        context = get_context("spawn")
    try:
        with context.Pool(
            processes=n_workers,
            initializer=_worker_init,
            initargs=(index_bytes, pack.specs, k, beam_width, kernel),
        ) as pool:
            chunk_results = pool.map(_worker_run_chunk, chunks)
        outcomes = [
            QueryOutcome(*fields)
            for chunk in chunk_results
            for fields in chunk
        ]
    finally:
        pack.unlink()
    outcomes.sort(key=lambda outcome: outcome.query_index)
    return BatchResult(outcomes, time.perf_counter() - start, n_workers)
