"""Deterministic parallel batch construction of the II graph (ParlayANN-style).

The sequential II apparatus (:func:`~repro.core.incremental.build_ii_graph`)
inserts one node at a time: each insertion's beam search sees every edge the
previous insertion created.  That data dependence is what serializes
construction.  This module breaks it the way ParlayANN does — with
**prefix-doubling rounds**:

* the insertion order is fixed up front and split into rounds of doubling
  size (1, 1, 2, 4, 8, ... — round ``r`` inserts as many nodes as the prefix
  already holds, optionally capped by ``max_round_size``);
* within a round, every node's candidate beam search runs against the
  *frozen* graph over the preceding prefix, so the searches share no state
  and are embarrassingly parallel across a worker pool;
* the round's edges — forward lists from each node's diversified candidates,
  plus reverse edges with overflow re-pruning — are then written by ONE
  :func:`~repro.core.refine.insert_round`, in insertion-rank order (the
  sequential builder runs the same round with one node).

Three mechanisms make the result **bit-identical at any worker count**
(including ``n_workers=1``, which runs the same round loop in-process):

* all per-node randomness (seed sampling, SN level draws) comes from a
  generator derived only from ``(base_seed, insertion_rank)``, never from
  which worker ran the node or how many nodes it saw before;
* each worker attaches zero-copy to the parent's dataset
  (:meth:`DistanceComputer.from_shared`) and to a CSR snapshot of the round's
  frozen graph, whose neighbor lists are byte-for-byte the adjacency lists
  the in-process path reads — so a node's search is the same computation
  wherever it runs;
* workers report distance work as per-node counter *deltas*, which the
  parent folds back into its own counter; integer sums are order-independent,
  so the aggregate count matches the in-process run exactly.

The batched build is **not** the paper's protocol: a round's searches cannot
see edges created earlier in the same round, so the graph differs from the
strictly sequential one (ParlayANN reports — and our benchmarks confirm —
the quality difference is negligible).  Figures that assert the paper's
exact sequential accounting (e.g. Table 2) must keep ``n_workers=None``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from .distances import DistanceComputer
from .diversification import Diversifier, PruneCounter
from .graph import CSRGraph, Graph
from .kernels import batch_point_search, resolve_backend
from .refine import insert_round
from .shared import SharedArrayPack

__all__ = ["plan_rounds", "build_ii_graph_batched"]


def plan_rounds(
    n: int, max_round_size: int | None = None
) -> list[tuple[int, int]]:
    """Prefix-doubling round boundaries over insertion ranks ``[1, n)``.

    Rank 0 is inserted alone (there is no graph to search yet); each
    subsequent round inserts as many nodes as are already inserted, so the
    prefix doubles per round and the build finishes in ``O(log n)`` rounds.
    ``max_round_size`` caps the batch (smaller rounds see a fresher graph at
    the cost of more synchronization points).

    Returns ``(start, stop)`` rank pairs.
    """
    if max_round_size is not None and max_round_size < 1:
        raise ValueError("max_round_size must be >= 1")
    rounds: list[tuple[int, int]] = []
    start = 1
    while start < n:
        size = start
        if max_round_size is not None:
            size = min(size, max_round_size)
        stop = min(start + size, n)
        rounds.append((start, stop))
        start = stop
    return rounds


# ----------------------------------------------------------------------
# worker process state and entry points
# ----------------------------------------------------------------------
_BUILD_WORKER: dict = {}


def _build_worker_init(data_specs: dict) -> None:
    """Pool initializer: attach the dataset once per worker process."""
    arrays, segments = SharedArrayPack.attach(data_specs)
    computer = DistanceComputer.from_shared(
        arrays["data"], arrays["data64"], arrays["sq_norms"]
    )
    _BUILD_WORKER.update(computer=computer, segments=segments)


def _build_worker_search_chunk(payload: tuple) -> list[tuple]:
    """Run one chunk of a round's candidate searches on the frozen graph.

    The CSR snapshot arrives as shared-memory specs (one pack per round,
    shared by every chunk); the chunk itself is ``(points, seeds_per_point)``
    plus the round's ``k``/``beam_width`` and kernel backend.  Returns
    per-node ``(ids, dists, distance_call_delta)`` tuples in chunk order.
    ``exclude`` in the pack carries the streaming tier's tombstones: flagged
    nodes route but never become candidates.
    """
    csr_specs, points, seeds_per_point, k, beam_width, kernel = payload
    arrays, segments = SharedArrayPack.attach(csr_specs)
    try:
        frozen = CSRGraph(arrays["indptr"], arrays["indices"], validate=False)
        results = batch_point_search(
            frozen, _BUILD_WORKER["computer"], points, seeds_per_point, k,
            beam_width, backend=kernel, exclude_mask=arrays.get("exclude"),
        )
        return [(r.ids, r.dists, r.distance_calls) for r in results]
    finally:
        for segment in segments:
            segment.close()


def build_ii_graph_batched(
    computer: DistanceComputer,
    max_degree: int = 24,
    beam_width: int = 128,
    diversify: str | Diversifier = "rnd",
    rng: np.random.Generator | None = None,
    build_seeds=None,
    insertion_order: np.ndarray | None = None,
    diversify_params: dict | None = None,
    track_pruning: bool = True,
    prune_overflow: bool = True,
    n_workers: int = 1,
    max_round_size: int | None = None,
    min_parallel_round: int = 32,
    kernel: str | None = None,
    phase_times: dict | None = None,
):
    """Build the II graph in prefix-doubling rounds, optionally in parallel.

    Parameters mirror :func:`~repro.core.incremental.build_ii_graph`; the
    additions are:

    n_workers:
        Worker processes for the per-round candidate searches.  ``1`` runs
        the identical round loop in-process (no pool, no shared memory).
        The constructed graph and the aggregate distance-call count are
        bit-identical for every value.
    max_round_size:
        Cap on nodes per round (default: uncapped prefix doubling).
    min_parallel_round:
        Rounds smaller than this run in-process even when a pool is
        available — fan-out overhead dominates tiny rounds, and the result
        is identical either way.
    kernel:
        Construction-kernel backend (``python`` or ``scalar``; ``None``
        defers to ``$REPRO_KERNEL``).  Selects the beam kernel of the
        per-round candidate searches and the backend of each round's
        prunes (:func:`~repro.core.refine.insert_round`).  Backends are
        bit-identical, so the constructed graph, prune stats, and distance
        accounting do not depend on this choice.
    phase_times:
        Optional dict the builder fills with cumulative wall-clock seconds
        per phase: ``search`` (candidate beam searches), ``prune``
        (diversification + overflow re-prunes), ``merge`` (edge merging and
        seed-provider upkeep).  This is the per-phase breakdown
        ``bench_parallel_build.py`` reports.

    Returns an :class:`~repro.core.incremental.IIBuildResult`.
    """
    from .incremental import IIBuildResult, RandomBuildSeeds, _resolve_insertion_order

    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if rng is None:
        rng = np.random.default_rng(0)
    backend = resolve_backend(kernel)
    n = computer.n
    graph = Graph(n)
    prune_stats = PruneCounter()
    stats = prune_stats if track_pruning else None
    if build_seeds is None:
        build_seeds = RandomBuildSeeds()
    if phase_times is None:
        phase_times = {}
    for key in ("search", "prune", "merge"):
        phase_times.setdefault(key, 0.0)
    mark = computer.checkpoint()
    insertion_order = _resolve_insertion_order(insertion_order, n, rng)
    # one base seed drawn from the caller's stream: every per-node generator
    # derives from (base_seed, rank), so randomness is a pure function of the
    # insertion rank — the first determinism mechanism
    base_seed = int(rng.integers(np.iinfo(np.int64).max))
    result = IIBuildResult(
        graph=graph,
        distance_calls=0,
        prune_stats=prune_stats,
        seed_provider=build_seeds,
    )
    if n == 0:
        return result

    inserted: list[int] = [int(insertion_order[0])]
    build_seeds.on_insert(
        inserted[0], computer, np.random.default_rng((base_seed, 0))
    )
    pool = None
    data_pack = None
    try:
        for start, stop in plan_rounds(n, max_round_size):
            nodes = insertion_order[start:stop].tolist()
            rngs = [
                np.random.default_rng((base_seed, rank))
                for rank in range(start, stop)
            ]
            # seed selection reads the frozen prefix state (graph, SN stack),
            # so it runs in the parent before any of the round's merges
            seeds_per_node = [
                build_seeds.seeds_for(node, inserted, computer, node_rng)
                for node, node_rng in zip(nodes, rngs)
            ]
            width = min(beam_width, max(8, start))
            k = min(width, start)

            t0 = perf_counter()
            if n_workers > 1 and len(nodes) >= min_parallel_round:
                if pool is None:
                    pool, data_pack = _start_pool(computer, n_workers)
                searches = _run_round_in_pool(
                    pool, graph, computer, nodes, seeds_per_node, k, width,
                    n_workers, backend,
                )
            else:
                searches = [
                    (r.ids, r.dists)
                    for r in batch_point_search(
                        graph, computer, nodes, seeds_per_node, k, width,
                        backend=backend,
                    )
                ]
            phase_times["search"] += perf_counter() - t0

            insert_round(
                graph, computer, nodes, searches, max_degree, diversify,
                diversify_params, backend, stats=stats,
                prune_overflow=prune_overflow, phase_times=phase_times,
            )
            # the SN stack grows from the vectors alone, never from the base
            # graph, so its upkeep can follow the round's merge
            t0 = perf_counter()
            for node, node_rng in zip(nodes, rngs):
                inserted.append(node)
                build_seeds.on_insert(node, computer, node_rng)
            phase_times["merge"] += perf_counter() - t0
    finally:
        if pool is not None:
            pool.close()
            pool.join()
        if data_pack is not None:
            data_pack.unlink()
    result.distance_calls = computer.since(mark)
    return result


def _start_pool(computer: DistanceComputer, n_workers: int):
    """Share the dataset once and start the build worker pool."""
    from multiprocessing import get_context

    data_pack = SharedArrayPack(
        {
            "data": computer.data,
            "data64": computer._data64,
            "sq_norms": computer._sq_norms,
        }
    )
    try:
        try:
            # fork shares the parent's modules; platforms without it spawn
            context = get_context("fork")
        except ValueError:
            context = get_context("spawn")
        pool = context.Pool(
            processes=n_workers,
            initializer=_build_worker_init,
            initargs=(data_pack.specs,),
        )
    except BaseException:
        data_pack.unlink()
        raise
    return pool, data_pack


def _run_round_in_pool(
    pool,
    graph: Graph,
    computer: DistanceComputer,
    nodes: list[int],
    seeds_per_node: list,
    k: int,
    width: int,
    n_workers: int,
    kernel: str | None,
    exclude_mask: np.ndarray | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Fan one round's searches over the pool against a frozen CSR snapshot.

    Folds the workers' distance-call deltas into the parent counter and
    returns ``(cand_ids, cand_dists)`` per node, in insertion-rank order.
    ``exclude_mask`` (tombstones) rides in the round's shared-memory pack so
    every worker filters candidates identically to the in-process path.
    """
    indptr, indices = graph.to_csr()
    shared = {"indptr": indptr, "indices": indices}
    if exclude_mask is not None:
        shared["exclude"] = exclude_mask
    csr_pack = SharedArrayPack(shared)
    try:
        bounds = np.array_split(
            np.arange(len(nodes)), min(len(nodes), n_workers * 4)
        )
        payloads = [
            (
                csr_pack.specs,
                [nodes[i] for i in chunk],
                [seeds_per_node[i] for i in chunk],
                k,
                width,
                kernel,
            )
            for chunk in bounds
            if chunk.size
        ]
        chunk_results = pool.map(_build_worker_search_chunk, payloads)
    finally:
        csr_pack.unlink()
    searches: list[tuple[np.ndarray, np.ndarray]] = []
    delta_total = 0
    for chunk in chunk_results:
        for cand_ids, cand_dists, delta in chunk:
            searches.append((cand_ids, cand_dists))
            delta_total += delta
    computer.count += delta_total
    return searches
