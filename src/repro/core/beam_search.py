"""Beam search over a proximity graph (Algorithm 1 of the paper).

Every method in the study answers queries with the same greedy best-first
traversal: warm a fixed-capacity queue with seed nodes, repeatedly expand the
closest unexpanded node, score its neighbors in one vectorized batch, and
stop when the queue holds no unexpanded node closer than the current ``L``-th
best.  Methods differ only in the graph they traverse and the seeds they
start from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distances import DistanceComputer
from .graph import Graph
from .heap import NeighborQueue

__all__ = [
    "PAD_ID",
    "SearchResult",
    "prepare_seeds",
    "pad_top_k",
    "masked_top_k",
    "normalize_exclude_masks",
    "beam_search",
    "pq_beam_search",
    "rerank_topk",
    "batch_point_beam_search",
    "greedy_search",
]

#: Sentinel id filling answer slots a mask emptied (paired with ``inf``
#: distance).  Masked searches always return exactly ``k`` slots; callers
#: recover the real answers with ``ids[ids >= 0]`` or
#: :attr:`SearchResult.n_valid`.
PAD_ID: int = -1


def prepare_seeds(seeds, n: int) -> np.ndarray:
    """Normalize a seed iterable: unique int64 ids, validated against ``[0, n)``.

    Every traversal entry point shares this: a negative or >= ``n`` seed
    would otherwise wrap (or overrun) through numpy fancy indexing and
    corrupt results silently instead of raising.
    """
    seeds = np.unique(np.asarray(list(seeds), dtype=np.int64))
    if seeds.size == 0:
        raise ValueError("at least one seed is required")
    if seeds[0] < 0 or seeds[-1] >= n:
        bad = seeds[(seeds < 0) | (seeds >= n)]
        raise ValueError(
            f"seed ids {bad.tolist()} are outside the graph's node range "
            f"[0, {n})"
        )
    return seeds


def pad_top_k(
    ids: np.ndarray, dists: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Truncate-or-pad an answer list to exactly ``k`` slots.

    Shortfall slots are filled with ``(PAD_ID, inf)`` so a caller zipping
    against ``k``-wide ground truth never mis-aligns; the valid prefix
    stays bit-identical to the unpadded answer.
    """
    ids = np.asarray(ids, dtype=np.int64)[:k]
    dists = np.asarray(dists, dtype=np.float64)[:k]
    if ids.size == k:
        return ids, dists
    out_ids = np.full(k, PAD_ID, dtype=np.int64)
    out_dists = np.full(k, np.inf)
    out_ids[: ids.size] = ids
    out_dists[: dists.size] = dists
    return out_ids, out_dists


def masked_top_k(
    queue: NeighborQueue, k: int, exclude_mask: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Extract the ``k`` best *non-excluded* entries of a finished beam.

    With no mask this is exactly ``queue.top_k(k)``.  With a mask, the
    whole beam is filtered before truncation, so an answer slot vacated by
    a tombstoned node is backfilled by the next-best live entry rather
    than silently shrinking the result.  When filtering (or a short beam)
    leaves fewer than ``k`` survivors, the shortfall is surfaced instead
    of silently returning a narrower answer: the result is padded to
    exactly ``k`` slots with ``(PAD_ID, inf)`` (see :func:`pad_top_k`), so
    every caller that assumes ``len(ids) == k`` — recall computation,
    ground-truth zipping, the filtered-search layer under selective
    predicates — stays aligned.  Shared by the scalar path and the
    vectorized kernel so the two stay identical by construction.
    """
    if exclude_mask is None:
        return queue.top_k(k)
    ids, dists = queue.entries()
    keep = ~exclude_mask[ids]
    return pad_top_k(ids[keep], dists[keep], k)


def normalize_exclude_masks(
    exclude_mask, n_queries: int, n_nodes: int
) -> list | None:
    """Normalize the ``exclude_mask`` argument of the batch search paths.

    Accepts ``None`` (no filtering), one shared 1-D bool mask of length
    ``n_nodes`` (the streaming tier's tombstones — every query filters the
    same nodes), or a sequence of ``n_queries`` per-query masks, each a
    1-D bool array of length ``n_nodes`` or ``None`` (the filtered-search
    tier's per-query predicates).  Returns ``None`` or a list with one
    entry per query; a shared mask is repeated by reference, not copied.
    """
    if exclude_mask is None:
        return None
    if isinstance(exclude_mask, np.ndarray) and exclude_mask.ndim == 1:
        if exclude_mask.shape[0] != n_nodes:
            raise ValueError(
                f"exclude_mask has {exclude_mask.shape[0]} entries, "
                f"expected {n_nodes} (one per graph node)"
            )
        return [exclude_mask] * n_queries
    masks = list(exclude_mask)
    if len(masks) != n_queries:
        raise ValueError(
            f"per-query exclude masks disagree with the batch: "
            f"{len(masks)} masks vs {n_queries} queries"
        )
    for mask in masks:
        if mask is not None and np.asarray(mask).shape != (n_nodes,):
            raise ValueError(
                f"per-query exclude mask has shape {np.asarray(mask).shape}, "
                f"expected ({n_nodes},)"
            )
    return masks


@dataclass
class SearchResult:
    """Outcome of one graph traversal.

    Attributes
    ----------
    ids, dists:
        The ``k`` best answers found, ascending by distance.
    distance_calls:
        Exact distance calculations attributable to this search.
    hops:
        Number of node expansions performed.
    approx_calls:
        PQ asymmetric-distance estimates computed (disk tier only; zero on
        the in-memory exact paths).
    page_reads:
        Logical disk rows fetched — graph adjacency rows expanded plus raw
        vector rows read at re-rank (disk tier only; zero in RAM mode).
    visited, visited_dists:
        Ids (and distances) of every node whose distance was evaluated, in
        evaluation order — builders that connect a new node to its visited
        list (NSG, Vamana) consume these without re-scoring.
    """

    ids: np.ndarray
    dists: np.ndarray
    distance_calls: int
    hops: int
    approx_calls: int = 0
    page_reads: int = 0
    visited: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    visited_dists: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.float64)
    )

    @property
    def n_valid(self) -> int:
        """Number of real answers in ``ids``.

        Masked searches pad to exactly ``k`` slots with :data:`PAD_ID`
        when filtering empties the beam; this counts the non-sentinel
        prefix so callers can detect the shortfall explicitly.
        """
        return int(np.count_nonzero(self.ids != PAD_ID))


def beam_search(
    graph: Graph,
    computer: DistanceComputer,
    query: np.ndarray,
    seeds,
    k: int,
    beam_width: int,
    visited_mask: np.ndarray | None = None,
    exclude_mask: np.ndarray | None = None,
) -> SearchResult:
    """Run Algorithm 1 and return the ``k`` best answers.

    Parameters
    ----------
    graph:
        Proximity graph to traverse.
    computer:
        Distance engine over the dataset the graph indexes.
    query:
        Query vector of the dataset's dimensionality.
    seeds:
        Iterable of node ids used to warm the queue; the closest becomes the
        entry node.
    k:
        Number of answers to return.
    beam_width:
        Queue capacity ``L`` (must be ``>= k``).
    visited_mask:
        Optional pre-allocated ``bool`` scratch array of length ``n``; it is
        cleared on entry.  Passing one avoids reallocation in tight loops.
    exclude_mask:
        Optional ``bool`` array of length ``n`` flagging tombstoned nodes
        (the streaming tier's deletes).  Flagged nodes are traversed —
        FreshDiskANN-style, they keep routing until a consolidation pass
        rewires around them — but never returned: the finished beam is
        filtered before the ``k`` truncation.  Traversal, and therefore
        ``distance_calls``/``hops``/``visited``, is identical with or
        without the mask.
    """
    if beam_width < k:
        raise ValueError(f"beam_width ({beam_width}) must be >= k ({k})")
    mark = computer.checkpoint()
    if visited_mask is None:
        visited_mask = np.zeros(graph.n, dtype=bool)
    else:
        visited_mask[:] = False

    seeds = prepare_seeds(seeds, graph.n)
    queue = NeighborQueue(beam_width)
    visit_order: list[np.ndarray] = []
    visit_dists: list[np.ndarray] = []
    q64, q_sq = computer.prepare_query(query)

    seed_dists = computer.to_query_prepared(seeds, q64, q_sq)
    visited_mask[seeds] = True
    visit_order.append(seeds)
    visit_dists.append(seed_dists)
    for dist, node in zip(seed_dists.tolist(), seeds.tolist()):
        queue.insert(dist, node)

    hops = 0
    while True:
        node = queue.pop_nearest_unexpanded()
        if node is None:
            break
        hops += 1
        nbrs = graph.neighbors(node)
        if nbrs.size:
            fresh = nbrs[~visited_mask[nbrs]]
            if fresh.size:
                visited_mask[fresh] = True
                visit_order.append(fresh)
                dists = computer.to_query_prepared(fresh, q64, q_sq)
                visit_dists.append(dists)
                bound = queue.worst_dist()
                for dist, nbr in zip(dists.tolist(), fresh.tolist()):
                    if dist < bound:
                        bound = queue.insert(dist, nbr)

    ids, dists = masked_top_k(queue, k, exclude_mask)
    visited = (
        np.concatenate(visit_order) if visit_order else np.empty(0, dtype=np.int64)
    )
    visited_d = (
        np.concatenate(visit_dists) if visit_dists else np.empty(0, dtype=np.float64)
    )
    return SearchResult(
        ids=ids,
        dists=dists,
        distance_calls=computer.since(mark),
        hops=hops,
        visited=visited,
        visited_dists=visited_d,
    )


def rerank_topk(
    computer, query: np.ndarray, beam_ids: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact re-rank of a final beam: one batched read of the raw vectors.

    Scores ``beam_ids`` with :meth:`PQDistanceComputer.rerank` (counted as
    exact calls and page reads) and returns the ``k`` best, ties at equal
    distance broken by ascending id — a total order, so the result is
    independent of the beam's incoming order.  Shared by the scalar
    reference path and the vectorized kernel so the two are identical by
    construction.
    """
    beam_ids = np.asarray(beam_ids, dtype=np.int64)
    exact = computer.rerank(beam_ids, query)
    order = np.lexsort((beam_ids, exact))[: min(k, beam_ids.size)]
    return beam_ids[order], exact[order]


def pq_beam_search(
    graph,
    computer,
    query: np.ndarray,
    seeds,
    k: int,
    beam_width: int,
    visited_mask: np.ndarray | None = None,
) -> SearchResult:
    """Two-phase disk-tier search: PQ-guided traversal + one exact re-rank.

    The scalar reference path of the beyond-RAM tier.  Algorithm 1 runs
    exactly as :func:`beam_search`, but every candidate is scored with the
    asymmetric-distance estimate from ``computer``'s resident PQ codes (one
    LUT built per query, then pure table gathers) — the memory-mapped files
    are touched only for graph adjacency rows during traversal and for one
    batched exact re-rank of the surviving beam at the end.

    ``computer`` is a :class:`~repro.core.distances.PQDistanceComputer`;
    the returned ``distance_calls`` counts only the exact re-rank, while
    ``approx_calls`` / ``page_reads`` carry the traversal cost.  All three
    are deterministic (and bit-identical to the vectorized
    :func:`~repro.core.kernels.batch_search_pq` path) at any worker count.
    """
    if beam_width < k:
        raise ValueError(f"beam_width ({beam_width}) must be >= k ({k})")
    mark = computer.checkpoint()
    if visited_mask is None:
        visited_mask = np.zeros(graph.n, dtype=bool)
    else:
        visited_mask[:] = False

    seeds = prepare_seeds(seeds, graph.n)
    queue = NeighborQueue(beam_width)
    lut = computer.build_lut(query)

    seed_dists = computer.lut_to_ids(lut, seeds)
    visited_mask[seeds] = True
    for dist, node in zip(seed_dists.tolist(), seeds.tolist()):
        queue.insert(dist, node)

    hops = 0
    while True:
        node = queue.pop_nearest_unexpanded()
        if node is None:
            break
        hops += 1
        nbrs = graph.neighbors(node)
        if nbrs.size:
            fresh = nbrs[~visited_mask[nbrs]]
            if fresh.size:
                visited_mask[fresh] = True
                dists = computer.lut_to_ids(lut, fresh)
                bound = queue.worst_dist()
                for dist, nbr in zip(dists.tolist(), fresh.tolist()):
                    if dist < bound:
                        bound = queue.insert(dist, nbr)

    computer.note_graph_reads(hops)
    beam_ids, _ = queue.top_k(beam_width)
    ids, dists = rerank_topk(computer, query, beam_ids, k)
    d_exact, d_approx, d_pages = computer.since(mark)
    return SearchResult(
        ids=ids,
        dists=dists,
        distance_calls=d_exact,
        hops=hops,
        approx_calls=d_approx,
        page_reads=d_pages,
    )


def batch_point_beam_search(
    graph,
    computer: DistanceComputer,
    points,
    seeds_per_point,
    k: int,
    beam_width: int,
    visited_mask: np.ndarray | None = None,
    exclude_mask: np.ndarray | None = None,
    collect_visited: bool = False,
) -> list[SearchResult]:
    """Beam searches for a chunk of *dataset points*, sharing scratch state.

    The batched builder's kernel: every query is a dataset point given by id
    (``points``), so all point-to-frontier distances go through
    :meth:`DistanceComputer.one_to_many`, whose cached squared norms cover
    *both* sides — there is no per-query (let alone per-hop) query
    preparation.  One visited mask is allocated for the whole chunk, so a
    worker amortizes setup across every node it processes.

    ``graph`` may be a :class:`~repro.core.graph.Graph` or a
    :class:`~repro.core.graph.CSRGraph` — given identical edges in identical
    order, the traversal (and its distance accounting) is bit-identical,
    which is what lets the parallel builder mix in-process and worker-side
    execution freely.

    Returns one :class:`SearchResult` per point; ``collect_visited`` adds
    the ``visited`` / ``visited_dists`` lists :func:`beam_search` reports.

    ``exclude_mask`` carries the streaming tier's tombstones (one shared
    mask) or the filtered tier's per-point predicates (a sequence of
    masks, one per point — see :func:`normalize_exclude_masks`), with
    :func:`beam_search`'s semantics: flagged nodes route but are filtered
    from each point's answers, and traversal accounting is mask-invariant.
    """
    if beam_width < k:
        raise ValueError(f"beam_width ({beam_width}) must be >= k ({k})")
    if visited_mask is None or visited_mask.size != graph.n:
        visited_mask = np.zeros(graph.n, dtype=bool)
    points = list(points)
    masks = normalize_exclude_masks(exclude_mask, len(points), graph.n)
    results: list[SearchResult] = []
    for pt_idx, (point, seeds) in enumerate(zip(points, seeds_per_point)):
        mark = computer.checkpoint()
        visited_mask[:] = False
        # the same range validation beam_search performs: a negative seed
        # would wrap through fancy indexing and corrupt results silently
        seeds = prepare_seeds(seeds, graph.n)
        queue = NeighborQueue(beam_width)
        seed_dists = computer.one_to_many(point, seeds)
        visited_mask[seeds] = True
        visit_order, visit_dists = [seeds], [seed_dists]
        for dist, node in zip(seed_dists.tolist(), seeds.tolist()):
            queue.insert(dist, node)
        hops = 0
        while True:
            node = queue.pop_nearest_unexpanded()
            if node is None:
                break
            hops += 1
            nbrs = graph.neighbors(node)
            if nbrs.size:
                fresh = nbrs[~visited_mask[nbrs]]
                if fresh.size:
                    visited_mask[fresh] = True
                    dists = computer.one_to_many(point, fresh)
                    if collect_visited:
                        visit_order.append(fresh)
                        visit_dists.append(dists)
                    bound = queue.worst_dist()
                    for dist, nbr in zip(dists.tolist(), fresh.tolist()):
                        if dist < bound:
                            bound = queue.insert(dist, nbr)
        ids, dists = masked_top_k(
            queue, k, None if masks is None else masks[pt_idx]
        )
        result = SearchResult(
            ids=ids,
            dists=dists,
            distance_calls=computer.since(mark),
            hops=hops,
        )
        if collect_visited:
            result.visited = np.concatenate(visit_order)
            result.visited_dists = np.concatenate(visit_dists)
        results.append(result)
    return results


def greedy_search(
    graph: Graph,
    computer: DistanceComputer,
    query: np.ndarray,
    entry: int,
) -> tuple[int, float, int]:
    """Greedy descent to a local minimum (beam width 1).

    Used by HNSW's upper layers: from ``entry``, repeatedly move to the
    closest neighbor strictly better than the current node.  Returns
    ``(node, distance, distance_calls)``.
    """
    mark = computer.checkpoint()
    current = int(entry)
    current_dist = computer.one_to_query(current, query)
    # prepare the query once; the hop loop only pays the GEMV
    q64, q_sq = computer.prepare_query(query)
    improved = True
    while improved:
        improved = False
        nbrs = graph.neighbors(current)
        if nbrs.size == 0:
            break
        dists = computer.to_query_prepared(nbrs, q64, q_sq)
        best = int(np.argmin(dists))
        if dists[best] < current_dist:
            current = int(nbrs[best])
            current_dist = float(dists[best])
            improved = True
    return current, current_dist, computer.since(mark)
