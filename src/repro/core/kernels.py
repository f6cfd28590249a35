"""Vectorized multi-query beam kernel (lockstep Algorithm 1 over a batch).

The scalar :func:`~repro.core.beam_search.beam_search` spends most of its
time in per-hop Python overhead — one ``to_query_prepared`` call plus a
Python-level insert loop per node expansion.  This module advances a whole
*batch* of queries per iteration instead, ParlayANN-style:

* every active query pops its nearest unexpanded beam entry (one ``argmax``
  across the batch);
* all popped nodes' neighbors are gathered into one flat array and
  deduplicated against per-query visited state with two fancy-indexing
  operations;
* the whole frontier is scored by **one** batched distance call
  (:meth:`~repro.core.distances.DistanceComputer.to_queries_segmented`),
  keeping the paper's distance accounting exact;
* the candidates are merged into per-query beam buffers kept in SoA layout
  (``(batch, L)`` distance/id/expanded arrays replacing per-query
  :class:`~repro.core.heap.NeighborQueue` objects) by a masked top-``L``
  merge.

**Determinism contract.**  For every query the kernel performs the same
expansions, scores the same nodes with bit-identical distances (each query
segment is evaluated by the same GEMV expression as the scalar path — GEMM
column blocking rounds differently and is deliberately avoided), and keeps
the same beam content, so answer ids, distances, hop counts, and per-query
distance-call totals are **bit-identical to the scalar reference path** at
any batch size, chunk size, worker count, and backend.  On request
(``collect_visited``) that extends to each query's visited list — every
scored id and its distance, in the scalar loop's evaluation order — which
is what lets the refinement builders (:mod:`repro.core.refine`) take their
candidate pools from one batch instead of one ``beam_search`` per node.
The vectorized merge is exact whenever the merged distances are tie-free;
rows containing ties (duplicate vectors, duplicate adjacency entries) are
replayed through :func:`_merge_row`, a faithful transliteration of
``NeighborQueue``'s offer semantics.

Backends (runtime-selected via ``REPRO_KERNEL`` or per call):

``python``
    Pure-numpy lockstep kernel described above (the default).
``scalar``
    Not a batch kernel: callers run the accounting-faithful per-query
    reference path (:func:`beam_search` / :func:`batch_point_beam_search`).
"""

from __future__ import annotations

import os

import numpy as np

from .beam_search import (
    SearchResult,
    batch_point_beam_search,
    beam_search,
    normalize_exclude_masks,
    pad_top_k,
    pq_beam_search,
    prepare_seeds,
    rerank_topk,
)
from .distances import DistanceComputer
from .graph import CSRGraph

__all__ = [
    "AcornExpansion",
    "KERNEL_BACKENDS",
    "resolve_backend",
    "batch_search",
    "batch_search_pq",
    "batch_point_search",
]

#: Recognized ``REPRO_KERNEL`` values.
KERNEL_BACKENDS = ("python", "scalar")

#: Default number of queries advanced in lockstep per chunk.  Bounds the
#: per-chunk visited-state footprint at ``chunk_size * graph.n`` bytes while
#: amortizing the per-iteration fixed cost; results are chunk-size-invariant.
DEFAULT_CHUNK_SIZE = 256


def resolve_backend(backend: str | None = None) -> str:
    """Resolve a backend name (``None`` = ``$REPRO_KERNEL``, unset = ``python``)."""
    if backend is None:
        backend = os.environ.get("REPRO_KERNEL") or "python"
    backend = backend.strip().lower()
    if backend not in KERNEL_BACKENDS:
        raise ValueError(
            f"unknown kernel backend {backend!r}; expected one of {KERNEL_BACKENDS}"
        )
    return backend


# ----------------------------------------------------------------------
# per-row merge: the NeighborQueue offer sequence as a flat function
# ----------------------------------------------------------------------
def _merge_row(dists, ids, expanded, size, cand_dists, cand_ids, capacity):
    """Offer one candidate segment to one query's sorted beam row.

    Replays exactly what the scalar hot loop does with a
    ``NeighborQueue``: offers are processed in order under the evolving
    acceptance bound, kept sorted ascending with equal-distance inserts
    placed leftmost, duplicates rejected, and the tail evicted on
    overflow.  Mutates the row arrays in place and returns the new size.
    """
    if size == capacity:
        bound = dists[size - 1]
    else:
        bound = np.inf
    for t in range(cand_dists.shape[0]):
        dist = cand_dists[t]
        if dist >= bound:
            continue
        node = cand_ids[t]
        duplicate = False
        for p in range(size):
            if ids[p] == node:
                duplicate = True
                break
        if duplicate:
            continue
        pos = 0
        while pos < size and dists[pos] < dist:
            pos += 1
        if size == capacity:
            tail = size - 1
        else:
            tail = size
            size += 1
        p = tail
        while p > pos:
            dists[p] = dists[p - 1]
            ids[p] = ids[p - 1]
            expanded[p] = expanded[p - 1]
            p -= 1
        dists[pos] = dist
        ids[pos] = node
        expanded[pos] = False
        if size == capacity:
            bound = dists[size - 1]
    return size


# ----------------------------------------------------------------------
# batched steps
# ----------------------------------------------------------------------
def _gather_frontier(graph, popped: np.ndarray):
    """Concatenated neighbor lists of ``popped`` plus per-node lengths.

    CSR graphs are gathered with pure array arithmetic; adjacency-list
    graphs fall back to one ``neighbors()`` call per popped node.
    """
    if isinstance(graph, CSRGraph):
        indptr = graph.indptr
        starts = indptr[popped]
        lens = indptr[popped + 1] - starts
        total = int(lens.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64), lens
        offsets = np.cumsum(lens) - lens
        flat_pos = (
            np.arange(total, dtype=np.int64)
            - np.repeat(offsets, lens)
            + np.repeat(starts, lens)
        )
        return graph.indices[flat_pos].astype(np.int64, copy=False), lens
    lists = [graph.neighbors(int(node)) for node in popped]
    lens = np.asarray([nbrs.size for nbrs in lists], dtype=np.int64)
    if not lists:
        return np.empty(0, dtype=np.int64), lens
    return np.concatenate(lists), lens


class _MergeWorkspace:
    """Reusable scratch matrices for the vectorized merge.

    One hop's merge sorts ``(rows, capacity + max_count)`` matrices; reusing
    a grow-only allocation across the chunk's hops removes three array
    allocations plus three concatenations per iteration from the hot loop.
    """

    __slots__ = ("d", "i", "e")

    def __init__(self):
        self.d = self.i = self.e = None

    def take(self, n_rows: int, n_cols: int):
        if (
            self.d is None
            or self.d.shape[0] < n_rows
            or self.d.shape[1] < n_cols
        ):
            rows = n_rows if self.d is None else max(n_rows, self.d.shape[0])
            cols = n_cols if self.d is None else max(n_cols, self.d.shape[1])
            self.d = np.empty((rows, cols))
            self.i = np.empty((rows, cols), dtype=np.int64)
            self.e = np.empty((rows, cols), dtype=bool)
        return (
            self.d[:n_rows, :n_cols],
            self.i[:n_rows, :n_cols],
            self.e[:n_rows, :n_cols],
        )


def _merge_batch(
    beam_d, beam_i, beam_e, sizes, lanes, cand_d, cand_i, seg_starts, seg_stops,
    capacity, ws, rows_rep=None,
):
    """Merge each lane's candidate segment into its beam row.

    Candidates at or beyond their lane's current acceptance bound (the
    worst kept distance of a full beam; ``inf`` while the beam has room —
    slots past ``sizes`` hold ``inf`` by invariant) are dropped up front:
    the offer sequence's bound is monotonically non-increasing, so such a
    candidate can never be accepted and removing it leaves the merged beam,
    sizes, and replay outcomes exactly unchanged.  Late in a search nearly
    every scored neighbor falls outside the bound, which keeps the sort
    width small.

    ``rows_rep`` (candidate row index per ``cand_d`` entry, i.e.
    ``np.repeat(arange(lanes.size), counts)``) may be passed in when the
    caller already has it from building the segments.
    """
    counts = seg_stops - seg_starts
    if rows_rep is None:
        rows_rep = np.repeat(np.arange(lanes.size), counts)
    keep = cand_d < beam_d[lanes, capacity - 1][rows_rep]
    if not keep.all():
        cand_d = cand_d[keep]
        cand_i = cand_i[keep]
        rows_rep = rows_rep[keep]
        counts = np.bincount(rows_rep, minlength=lanes.size)
        nonzero = counts > 0
        if not nonzero.all():
            # rows whose every candidate was filtered need no merge at all
            lanes = lanes[nonzero]
            counts = counts[nonzero]
            if not lanes.size:
                return
            # compact surviving rows' indices to 0..len(lanes)-1
            rows_rep = (np.cumsum(nonzero) - 1)[rows_rep]
        seg_stops = np.cumsum(counts)
        seg_starts = seg_stops - counts
    _merge_sorted(
        beam_d, beam_i, beam_e, sizes, lanes, cand_d, cand_i,
        seg_starts, seg_stops, capacity, ws, rows_rep,
    )


def _merge_sorted(
    beam_d, beam_i, beam_e, sizes, lanes, cand_d, cand_i, seg_starts, seg_stops,
    capacity, ws, rows_rep,
):
    """Vectorized masked top-``L`` merge with an exact fallback on ties.

    With tie-free distances the dynamic offer sequence provably keeps
    exactly the ``L`` smallest distances of (old beam ∪ candidates), so one
    stable row-wise argsort over the concatenation reproduces the scalar
    queue bit-for-bit.  Rows whose merged head contains any equal adjacent
    distances (where insertion order and the strict acceptance bound start
    to matter) are replayed through :func:`_merge_row` instead.

    The candidate pad region reuses workspace memory without clearing ids:
    a stale id can only be "kept" behind an ``inf`` distance past the row's
    valid size, where finalize/pop/replay never read it.
    """
    counts = seg_stops - seg_starts
    max_count = int(counts.max()) if counts.size else 0
    if max_count == 0:
        return
    n_rows = lanes.size
    all_d, all_i, all_e = ws.take(n_rows, capacity + max_count)
    all_d[:, :capacity] = beam_d[lanes]
    all_i[:, :capacity] = beam_i[lanes]
    all_e[:, :capacity] = beam_e[lanes]
    all_d[:, capacity:] = np.inf
    all_e[:, capacity:] = True
    cols = (
        np.arange(cand_d.size, dtype=np.int64)
        - np.repeat(seg_starts, counts)
        + capacity
    )
    all_d[rows_rep, cols] = cand_d
    all_i[rows_rep, cols] = cand_i
    all_e[rows_rep, cols] = False

    order = np.argsort(all_d, axis=1, kind="stable")
    head_order = order[:, : capacity + 1]
    row_idx = np.arange(n_rows)[:, None]
    head = all_d[row_idx, head_order]

    old_sizes = sizes[lanes]
    valid = old_sizes + counts
    # pair p compares sorted positions (p, p+1); only pairs of real entries
    # (position p+1 < valid) can affect the kept beam or its order
    pair_real = np.arange(1, head.shape[1])[None, :] < np.minimum(
        valid, capacity + 1
    )[:, None]
    ties = ((head[:, 1:] == head[:, :-1]) & pair_real).any(axis=1)

    clean = ~ties
    if clean.any():
        clean_rows = np.flatnonzero(clean)[:, None]
        keep = head_order[:, :capacity]
        target = lanes[clean]
        beam_d[target] = head[clean, :capacity]
        beam_i[target] = all_i[clean_rows, keep[clean]]
        beam_e[target] = all_e[clean_rows, keep[clean]]
        sizes[target] = np.minimum(valid[clean], capacity)
    for r in np.flatnonzero(ties):
        start, stop = int(seg_starts[r]), int(seg_stops[r])
        lane = int(lanes[r])
        sizes[lane] = _merge_row(
            beam_d[lane], beam_i[lane], beam_e[lane], int(sizes[lane]),
            cand_d[start:stop], cand_i[start:stop], capacity,
        )


class AcornExpansion:
    """ACORN admit/expand policy for :func:`_search_chunk` (per-lane filters).

    The lockstep form of :func:`~repro.core.filtered.acorn_beam_search`:
    only nodes passing a lane's predicate are scored or enter its beam,
    and nodes failing it still *route* — every gathered frontier is
    extended through up to ``expansion`` consecutive failing layers, for
    the whole chunk at once (one CSR gather per layer, per-lane dedup by
    one ``np.unique`` over ``row * n + id`` keys).

    ``exclude`` is a ``(rows, n)`` bool matrix (``True`` = fails the
    predicate) and ``rows[j]`` the row query ``j`` filters by; the matrix
    is indexed per gathered ``(row, id)`` pair, never copied or inverted.

    **Segment-order rule.**  GEMV bits depend on the gathered row count
    and tie replay on offer order, so each lane's scored segment must be
    exactly the id sequence the scalar loop passes to
    ``to_query_prepared``: the admitted ids in the order given (adjacency
    order on a hop, ascending on the seed phase, whose seeds arrive
    sorted-unique) when routing through the lane's failing ids reached no
    passing node, and ``np.unique(admitted ∪ reached)`` — ascending,
    duplicates dropped — when it did.
    """

    __slots__ = ("exclude", "rows", "expansion")

    def __init__(self, exclude: np.ndarray, rows, expansion: int = 2):
        if expansion < 1:
            raise ValueError("expansion must be >= 1")
        self.exclude = exclude
        self.rows = np.asarray(rows, dtype=np.int64)
        self.expansion = expansion

    def chunk(self, start: int, stop: int) -> "AcornExpansion":
        """The policy of queries ``start:stop`` (lane ``j`` = query ``start + j``)."""
        return AcornExpansion(self.exclude, self.rows[start:stop], self.expansion)

    def admit(self, graph, visited, lanes, ids, owners, widen=False):
        """Turn gathered frontiers into the segments their lanes score.

        ``ids[t]`` was gathered for lane ``lanes[owners[t]]`` (``owners``
        non-decreasing) and is already marked in ``visited``.  Returns the
        ``(ids, owners)`` pairs to score, grouped by owner under the
        segment-order rule.  ``widen`` is the seed phase's extra: a lane
        with no passing node after ``expansion`` layers keeps routing one
        layer at a time until one turns up or its component is exhausted,
        so a selective predicate cannot strand it at the seeds.
        """
        n = graph.n
        mask_rows = self.rows[lanes]
        failing = self.exclude[mask_rows[owners], ids]
        if not failing.any():
            return ids, owners
        front_ids, front_owners = ids[failing], owners[failing]
        passing = ~failing
        ids, owners = ids[passing], owners[passing]
        if widen:
            # lanes that already hold a node to score
            served = np.zeros(lanes.size, dtype=bool)
            served[owners] = True
        reached = []
        depth = 0
        while front_ids.size and (depth < self.expansion or widen):
            if depth >= self.expansion:
                stranded = ~served[front_owners]
                front_ids, front_owners = front_ids[stranded], front_owners[stranded]
            depth += 1
            nbrs, lens = _gather_frontier(graph, front_ids)
            nbr_owners = np.repeat(front_owners, lens)
            unseen = ~visited[lanes[nbr_owners], nbrs]
            # ascending (owner, id): each lane's layer is sorted-unique
            keys = np.unique(nbr_owners[unseen] * n + nbrs[unseen])
            key_owners, key_ids = np.divmod(keys, n)
            visited[lanes[key_owners], key_ids] = True
            failing = self.exclude[mask_rows[key_owners], key_ids]
            front_ids, front_owners = key_ids[failing], key_owners[failing]
            if not failing.all():
                passing = ~failing
                reached.append(keys[passing])
                if widen:
                    served[key_owners[passing]] = True
        if not reached:
            return ids, owners
        reached = np.concatenate(reached)
        # lanes that reached something score sorted-unique(admitted ∪ reached)
        merged = np.zeros(lanes.size, dtype=bool)
        merged[reached // n] = True
        resort = merged[owners]
        keys = np.unique(
            np.concatenate([owners[resort] * n + ids[resort], reached])
        )
        key_owners, key_ids = np.divmod(keys, n)
        if resort.all():
            return key_ids, key_owners
        # the other lanes keep the given order; a stable sort by owner
        # interleaves the two groups without reordering inside a lane
        ids = np.concatenate([ids[~resort], key_ids])
        owners = np.concatenate([owners[~resort], key_owners])
        order = np.argsort(owners, kind="stable")
        return ids[order], owners[order]


def _search_chunk(
    graph,
    computer: DistanceComputer,
    seeds_per_lane: list[np.ndarray],
    score_segments,
    k: int,
    beam_width: int,
    exclude_masks: list | None = None,
    policy: AcornExpansion | None = None,
    collect_visited: bool = False,
) -> list[SearchResult]:
    """Run one lockstep chunk; lane ``j`` answers ``score_segments``'s query ``j``.

    ``exclude_masks`` — one mask (or ``None``) per lane, as produced by
    :func:`~repro.core.beam_search.normalize_exclude_masks` — only affects
    beam finalization: each masked lane's finished beam is filtered before
    the ``k`` truncation and padded to exactly ``k`` slots, mirroring
    :func:`~repro.core.beam_search.masked_top_k` bit-for-bit, so
    traversal, hops, and distance accounting are mask-invariant.

    ``policy`` filters *during* traversal instead: each gathered frontier
    (the seeds, then every hop's unvisited neighbors) goes through
    :meth:`AcornExpansion.admit` before it is scored, and answers are
    padded to ``k`` slots.  Seeds must arrive sorted-unique
    (:func:`~repro.core.beam_search.prepare_seeds`).  ``None`` is plain
    Algorithm 1.

    ``collect_visited`` fills each result's ``visited`` / ``visited_dists``
    with every id the lane scored, in the scalar loop's evaluation order:
    the seed segment, then each hop's scored segment as it was scored.
    Every step logs its ``(lane, id, dist)`` triples and one stable sort on
    lane splits the log at the end, so steps stay in time order inside a
    lane.  Off, it costs one branch per step.
    """
    n_lanes = len(seeds_per_lane)
    beam_d = np.full((n_lanes, beam_width), np.inf)
    beam_i = np.full((n_lanes, beam_width), -1, dtype=np.int64)
    # slots at/after ``sizes[lane]`` hold no entry; flagging them expanded
    # lets pop/termination run without a separate validity mask
    beam_e = np.ones((n_lanes, beam_width), dtype=bool)
    sizes = np.zeros(n_lanes, dtype=np.int64)
    hops = np.zeros(n_lanes, dtype=np.int64)
    calls = np.zeros(n_lanes, dtype=np.int64)
    visited = np.zeros((n_lanes, graph.n), dtype=bool)
    ws = _MergeWorkspace()

    # ---- seed phase: one batched distance call over every lane's seeds ----
    seed_lens = np.asarray([s.size for s in seeds_per_lane], dtype=np.int64)
    flat_seeds = np.concatenate(seeds_per_lane)
    lanes_all = np.arange(n_lanes, dtype=np.int64)
    seed_rows = np.repeat(lanes_all, seed_lens)
    visited[seed_rows, flat_seeds] = True
    if policy is not None:
        flat_seeds, seed_rows = policy.admit(
            graph, visited, lanes_all, flat_seeds, seed_rows, widen=True
        )
        seed_lens = np.bincount(seed_rows, minlength=n_lanes)
    seg_stops = np.cumsum(seed_lens)
    seg_starts = seg_stops - seed_lens
    seed_dists = score_segments(flat_seeds, seg_starts, seg_stops, lanes_all)
    calls += seed_lens
    log = [(seed_rows, flat_seeds, seed_dists)] if collect_visited else None
    _merge_batch(
        beam_d, beam_i, beam_e, sizes, lanes_all, seed_dists, flat_seeds,
        seg_starts, seg_stops, beam_width, ws, rows_rep=seed_rows,
    )

    # ---- lockstep hop loop ----
    active = lanes_all
    while active.size:
        rows_e = beam_e[active]
        # argmin of a bool row = first False = nearest unexpanded entry
        first = np.argmin(rows_e, axis=1)
        alive = ~rows_e[np.arange(active.size), first]
        active = active[alive]
        if not active.size:
            break
        first = first[alive]
        beam_e[active, first] = True
        popped = beam_i[active, first]
        hops[active] += 1

        nbr_flat, nbr_lens = _gather_frontier(graph, popped)
        if nbr_flat.size:
            owner_local = np.repeat(np.arange(active.size), nbr_lens)
            owner_lanes = active[owner_local]
            fresh_mask = ~visited[owner_lanes, nbr_flat]
            fresh = nbr_flat[fresh_mask]
            if fresh.size:
                fresh_lanes = owner_lanes[fresh_mask]
                fresh_rows = owner_local[fresh_mask]
                visited[fresh_lanes, fresh] = True
                if policy is not None:
                    fresh, fresh_rows = policy.admit(
                        graph, visited, active, fresh, fresh_rows
                    )
                    if not fresh.size:
                        continue
                counts = np.bincount(fresh_rows, minlength=active.size)
                seg_stops = np.cumsum(counts)
                seg_starts = seg_stops - counts
                dists = score_segments(fresh, seg_starts, seg_stops, active)
                calls[active] += counts
                if log is not None:
                    log.append((active[fresh_rows], fresh, dists))
                _merge_batch(
                    beam_d, beam_i, beam_e, sizes, active, dists, fresh,
                    seg_starts, seg_stops, beam_width, ws, rows_rep=fresh_rows,
                )

    if log is not None:
        log_lanes, log_ids, log_dists = (np.concatenate(col) for col in zip(*log))
        order = np.argsort(log_lanes, kind="stable")
        bounds = np.cumsum(np.bincount(log_lanes, minlength=n_lanes))[:-1]
        visited_ids = np.split(log_ids[order], bounds)
        visited_dists = np.split(log_dists[order], bounds)
    results = []
    for lane in range(n_lanes):
        size = int(sizes[lane])
        mask = None if exclude_masks is None else exclude_masks[lane]
        if mask is None:
            ids = beam_i[lane, :min(k, size)].copy()
            dists = beam_d[lane, :min(k, size)].copy()
            if policy is not None:
                ids, dists = pad_top_k(ids, dists, k)
        else:
            keep = ~mask[beam_i[lane, :size]]
            ids, dists = pad_top_k(
                beam_i[lane, :size][keep], beam_d[lane, :size][keep], k
            )
        result = SearchResult(
            ids=ids,
            dists=dists,
            distance_calls=int(calls[lane]),
            hops=int(hops[lane]),
        )
        if log is not None:
            result.visited = visited_ids[lane]
            result.visited_dists = visited_dists[lane]
        results.append(result)
    return results


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------
def batch_search(
    graph,
    computer: DistanceComputer,
    queries: np.ndarray,
    seeds_per_query,
    k: int,
    beam_width: int,
    backend: str | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    exclude_mask=None,
    acorn: AcornExpansion | None = None,
    collect_visited: bool = False,
) -> list[SearchResult]:
    """Answer a batch of external queries with the multi-query beam kernel.

    Per-query answers, distances, hop counts, and distance-call totals are
    bit-identical to per-query :func:`beam_search` calls with the same
    seeds, at any ``chunk_size`` and backend.  ``backend="scalar"`` runs the
    reference path itself.  ``collect_visited`` also returns each query's
    ``visited`` / ``visited_dists`` — every scored id in evaluation order,
    element for element what :func:`beam_search` reports — which is what
    the refinement builders (:mod:`repro.core.refine`) prune; plain queries
    leave it off.
    ``exclude_mask`` flags nodes to filter from the answers — one shared
    mask (the streaming tier's tombstones) or a per-query sequence (the
    filtered tier's predicates; see
    :func:`~repro.core.beam_search.normalize_exclude_masks`).  Flagged
    nodes are traversed, never returned (see :func:`beam_search`);
    traversal accounting is mask-invariant.

    ``acorn`` filters during traversal instead (see
    :class:`AcornExpansion`): the batch then answers bit-identically to
    per-query :func:`~repro.core.filtered.acorn_beam_search` calls, which
    is what ``backend="scalar"`` runs.
    """
    backend = resolve_backend(backend)
    if beam_width < k:
        raise ValueError(f"beam_width ({beam_width}) must be >= k ({k})")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    queries = np.atleast_2d(np.asarray(queries))
    seeds_list = [prepare_seeds(seeds, graph.n) for seeds in seeds_per_query]
    if len(seeds_list) != queries.shape[0]:
        raise ValueError(
            f"queries and seeds_per_query disagree: {queries.shape[0]} queries "
            f"vs {len(seeds_list)} seed lists"
        )
    masks = normalize_exclude_masks(exclude_mask, len(seeds_list), graph.n)
    if acorn is not None:
        if masks is not None:
            raise ValueError("exclude_mask and acorn are alternative filters")
        if collect_visited:
            raise ValueError("collect_visited is not available under an acorn policy")
        if acorn.rows.shape != (len(seeds_list),):
            raise ValueError(
                f"acorn policy covers {acorn.rows.size} queries, "
                f"the batch holds {len(seeds_list)}"
            )
        if backend == "scalar":
            from .filtered import acorn_beam_search

            scratch = np.zeros(graph.n, dtype=bool)
            return [
                acorn_beam_search(
                    graph, computer, query, seeds, k, beam_width,
                    allow_mask=~acorn.exclude[row], expansion=acorn.expansion,
                    visited_mask=scratch,
                )
                for query, seeds, row in zip(queries, seeds_list, acorn.rows)
            ]
    if backend == "scalar":
        scratch = np.zeros(graph.n, dtype=bool)
        return [
            beam_search(
                graph, computer, query, seeds, k, beam_width,
                visited_mask=scratch,
                exclude_mask=None if masks is None else masks[j],
            )
            for j, (query, seeds) in enumerate(zip(queries, seeds_list))
        ]

    prepared = [computer.prepare_query(query) for query in queries]
    q64s = np.ascontiguousarray([q for q, _ in prepared])
    q_sqs = np.asarray([q_sq for _, q_sq in prepared])
    results: list[SearchResult] = []
    for start in range(0, len(seeds_list), chunk_size):
        stop = min(start + chunk_size, len(seeds_list))

        def score(ids, seg_starts, seg_stops, lanes, _start=start):
            sel = _start + lanes
            return computer.to_queries_segmented(
                ids, seg_starts, seg_stops, q64s[sel], q_sqs[sel]
            )

        results.extend(
            _search_chunk(
                graph, computer, seeds_list[start:stop], score, k, beam_width,
                exclude_masks=None if masks is None else masks[start:stop],
                policy=None if acorn is None else acorn.chunk(start, stop),
                collect_visited=collect_visited,
            )
        )
    return results


def batch_search_pq(
    graph,
    computer,
    queries: np.ndarray,
    seeds_per_query,
    k: int,
    beam_width: int,
    backend: str | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> list[SearchResult]:
    """Disk-tier variant of :func:`batch_search`: PQ-guided beam + exact re-rank.

    ``computer`` is a :class:`~repro.core.distances.PQDistanceComputer`.
    Phase one runs the same lockstep kernel as :func:`batch_search` with one
    difference — the batched scoring call is a segmented ADC table gather
    over the resident PQ codes (:meth:`PQDistanceComputer.lut_segmented`),
    so the traversal touches the memory-mapped files only for graph
    adjacency rows.  Phase two re-ranks each query's *full* final beam
    (the kernel is run with ``k = beam_width``) with one batched exact read
    from the raw-vector mmap, via the same :func:`rerank_topk` helper as the
    scalar reference path.

    Answers, exact/approx distance-call totals, hop counts, and page-read
    counts are bit-identical to per-query :func:`pq_beam_search` calls at
    any ``chunk_size``, worker count, and backend (``"scalar"`` runs the
    reference path itself).
    """
    backend = resolve_backend(backend)
    if beam_width < k:
        raise ValueError(f"beam_width ({beam_width}) must be >= k ({k})")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    queries = np.atleast_2d(np.asarray(queries))
    seeds_list = [prepare_seeds(seeds, graph.n) for seeds in seeds_per_query]
    if len(seeds_list) != queries.shape[0]:
        raise ValueError(
            f"queries and seeds_per_query disagree: {queries.shape[0]} queries "
            f"vs {len(seeds_list)} seed lists"
        )
    if backend == "scalar":
        scratch = np.zeros(graph.n, dtype=bool)
        return [
            pq_beam_search(
                graph, computer, query, seeds, k, beam_width,
                visited_mask=scratch,
            )
            for query, seeds in zip(queries, seeds_list)
        ]

    # one ADC lookup table per query, stacked so the scoring closure is a
    # single 3-D gather; inf-padding makes ragged codebook sizes safe
    luts = np.ascontiguousarray([computer.build_lut(query) for query in queries])
    results: list[SearchResult] = []
    for start in range(0, len(seeds_list), chunk_size):
        stop = min(start + chunk_size, len(seeds_list))

        def score(ids, seg_starts, seg_stops, lanes, _start=start):
            return computer.lut_segmented(
                ids, seg_starts, seg_stops, luts, _start + lanes
            )

        # k = beam_width: phase one must surface the whole beam for re-rank
        beams = _search_chunk(
            graph, computer, seeds_list[start:stop], score, beam_width,
            beam_width,
        )
        for offset, beam in enumerate(beams):
            computer.note_graph_reads(beam.hops)
            ids, dists = rerank_topk(
                computer, queries[start + offset], beam.ids, k
            )
            results.append(
                SearchResult(
                    ids=ids,
                    dists=dists,
                    distance_calls=int(beam.ids.size),
                    hops=beam.hops,
                    approx_calls=beam.distance_calls,
                    page_reads=beam.hops + int(beam.ids.size),
                )
            )
    return results


def batch_point_search(
    graph,
    computer: DistanceComputer,
    points,
    seeds_per_point,
    k: int,
    beam_width: int,
    backend: str | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    exclude_mask=None,
    collect_visited: bool = False,
) -> list[SearchResult]:
    """Kernel variant of :func:`batch_point_beam_search` (queries are dataset
    points given by id; cached squared norms cover both sides).

    Bit-identical to :func:`batch_point_beam_search` per point at any chunk
    size and backend, ``visited`` lists included when ``collect_visited``
    asks for them.  ``exclude_mask`` flags nodes to filter from the
    answers (one shared mask or a per-point sequence): traversed, never
    returned; traversal accounting is mask-invariant.
    """
    backend = resolve_backend(backend)
    if backend == "scalar":
        return batch_point_beam_search(
            graph, computer, points, seeds_per_point, k, beam_width,
            exclude_mask=exclude_mask, collect_visited=collect_visited,
        )
    if beam_width < k:
        raise ValueError(f"beam_width ({beam_width}) must be >= k ({k})")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    points = np.asarray(list(points), dtype=np.int64)
    seeds_list = [prepare_seeds(seeds, graph.n) for seeds in seeds_per_point]
    if len(seeds_list) != points.shape[0]:
        raise ValueError(
            f"points and seeds_per_point disagree: {points.shape[0]} points "
            f"vs {len(seeds_list)} seed lists"
        )
    masks = normalize_exclude_masks(exclude_mask, len(seeds_list), graph.n)
    results: list[SearchResult] = []
    for start in range(0, len(seeds_list), chunk_size):
        stop = min(start + chunk_size, len(seeds_list))
        chunk_points = points[start:stop]

        def score(ids, seg_starts, seg_stops, lanes, _points=chunk_points):
            return computer.points_to_many_segmented(
                _points[lanes], ids, seg_starts, seg_stops
            )

        results.extend(
            _search_chunk(
                graph, computer, seeds_list[start:stop], score, k, beam_width,
                exclude_masks=None if masks is None else masks[start:stop],
                collect_visited=collect_visited,
            )
        )
    return results
