"""NNDescent — neighborhood propagation (Section 3.2, "NP").

Refines an initial k-NN graph approximation under the assumption that "a
neighbor of my neighbor is likely my neighbor": each iteration gathers, for
every node, its neighbors and its neighbors' neighbors, scores the pool, and
keeps the ``k`` closest.  This is the construction used by KGraph and, seeded
differently, by IEH and EFANNA; DPG, NSG, and SSG all refine graphs produced
this way.

**Iteration protocol.**  Every iteration reads a *frozen snapshot* of the
neighbor lists and writes a fresh one (Jacobi-style), rather than updating
lists in place mid-sweep (Gauss-Seidel).  The frozen snapshot is what makes a
whole iteration one batchable join — exactly the restructuring parallel
NN-descent implementations (ParlayANN, nndescent's own reference code) apply
— at the cost of propagating an update one iteration later than the in-place
sweep would.  Quality after convergence is equivalent; iteration counts may
differ slightly.

**Backends.**  The per-node reference loop (``scalar``) and the vectorized
whole-iteration path (``python``) implement
the same protocol and are **bit-identical**: same neighbor lists, same
per-iteration update counts, same ``distance_calls``.  The vectorized path
replaces the per-node ``one_to_many`` calls with one segmented batched
distance call per node block and the per-node merges with masked row-wise
top-``k`` argsorts.  All randomness (init draws, pool sampling) is consumed
in ascending node order by both backends, so the streams coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distances import DistanceComputer
from .graph import Graph
from .kernels import resolve_backend

__all__ = ["NNDescentResult", "nn_descent", "random_knn_init", "knn_graph_to_graph"]

#: Bound on pool entries materialized per vectorized node block.
_BLOCK_POOL_ENTRIES = 262_144


@dataclass
class NNDescentResult:
    """Outcome of an NNDescent run.

    Attributes
    ----------
    ids, dists:
        ``(n, k)`` arrays: the approximate k-NN list of every node, sorted
        ascending by distance.
    iterations:
        Number of refinement iterations actually executed.
    updates:
        Per-iteration count of neighbor-list entries that changed.
    """

    ids: np.ndarray
    dists: np.ndarray
    iterations: int
    updates: list[int]


def random_knn_init(
    computer: DistanceComputer,
    k: int,
    rng: np.random.Generator,
    backend: str | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Random initial neighbor lists: ``k`` distinct random ids per node.

    Both backends draw the same per-node choices in ascending node order;
    the vectorized path then scores all rows with one segmented distance
    call instead of ``n`` ``one_to_many`` round trips (bit-identical).
    """
    n = computer.n
    if k >= n:
        raise ValueError(f"k ({k}) must be < n ({n})")
    if resolve_backend(backend) == "scalar":
        ids = np.empty((n, k), dtype=np.int64)
        dists = np.empty((n, k), dtype=np.float64)
        for node in range(n):
            choices = rng.choice(n - 1, size=k, replace=False)
            choices[choices >= node] += 1  # skip self
            nbr_dists = computer.one_to_many(node, choices)
            order = np.argsort(nbr_dists, kind="stable")
            ids[node] = choices[order]
            dists[node] = nbr_dists[order]
        return ids, dists
    choices = np.empty((n, k), dtype=np.int64)
    for node in range(n):
        row = rng.choice(n - 1, size=k, replace=False)
        row[row >= node] += 1  # skip self
        choices[node] = row
    starts = np.arange(n, dtype=np.int64) * k
    dists = computer.points_to_many_segmented(
        np.arange(n, dtype=np.int64), choices.ravel(), starts, starts + k
    ).reshape(n, k)
    order = np.argsort(dists, axis=1, kind="stable")
    return (
        np.take_along_axis(choices, order, axis=1),
        np.take_along_axis(dists, order, axis=1),
    )


def nn_descent(
    computer: DistanceComputer,
    k: int,
    rng: np.random.Generator,
    init_ids: np.ndarray | None = None,
    init_dists: np.ndarray | None = None,
    max_iterations: int = 8,
    sample_rate: float = 1.0,
    convergence_threshold: float = 0.001,
    backend: str | None = None,
) -> NNDescentResult:
    """Refine a k-NN graph approximation by neighborhood propagation.

    Parameters
    ----------
    computer:
        Distance engine over the dataset.
    k:
        Neighbor list length to maintain.
    rng:
        Randomness source (initialization and neighbor sampling).
    init_ids, init_dists:
        Optional ``(n, >=1)`` starting neighbor lists (e.g., from the K-D
        trees of EFANNA or the hash tables of IEH).  When omitted, a random
        graph is used, which is the KGraph recipe.
    max_iterations:
        Upper bound on refinement iterations.
    sample_rate:
        Fraction of each node's propagation pool scored per iteration
        (KGraph's ``rho``); ``1.0`` scores the full pool.
    convergence_threshold:
        Stop when fewer than ``threshold * n * k`` entries changed.
    backend:
        Construction-kernel backend (``None`` = ``$REPRO_KERNEL``, else
        ``python``).  ``scalar`` runs the per-node reference loop; the
        vectorized path is bit-identical per the module contract.
    """
    n = computer.n
    resolved = resolve_backend(backend)
    if init_ids is None or init_dists is None:
        ids, dists = random_knn_init(computer, k, rng, backend=resolved)
    else:
        ids, dists = _pad_init(computer, init_ids, init_dists, k, rng)

    step = _iterate_scalar if resolved == "scalar" else _iterate_vectorized
    updates_log: list[int] = []
    iterations = 0
    for _ in range(max_iterations):
        iterations += 1
        ids, dists, updates = step(computer, ids, dists, k, rng, sample_rate)
        updates_log.append(updates)
        if updates < convergence_threshold * n * k:
            break
    return NNDescentResult(ids=ids, dists=dists, iterations=iterations, updates=updates_log)


def _iterate_scalar(
    computer: DistanceComputer,
    prev_ids: np.ndarray,
    prev_dists: np.ndarray,
    k: int,
    rng: np.random.Generator,
    sample_rate: float,
) -> tuple[np.ndarray, np.ndarray, int]:
    """One Jacobi iteration, per-node reference loop."""
    n = computer.n
    ids = np.empty_like(prev_ids)
    dists = np.empty_like(prev_dists)
    updates = 0
    for node in range(n):
        pool = prev_ids[prev_ids[node]].ravel()
        if sample_rate < 1.0 and pool.size:
            take = max(1, int(pool.size * sample_rate))
            pool = rng.choice(pool, size=take, replace=False)
        pool = np.unique(pool)
        pool = pool[(pool != node)]
        # drop candidates already in the list
        pool = np.setdiff1d(pool, prev_ids[node], assume_unique=False)
        if pool.size == 0:
            ids[node] = prev_ids[node]
            dists[node] = prev_dists[node]
            continue
        cand_dists = computer.one_to_many(node, pool)
        merged_ids = np.concatenate([prev_ids[node], pool])
        merged_dists = np.concatenate([prev_dists[node], cand_dists])
        order = np.argsort(merged_dists, kind="stable")[:k]
        new_ids = merged_ids[order]
        updates += int((new_ids != prev_ids[node]).sum())
        ids[node] = new_ids
        dists[node] = merged_dists[order]
    return ids, dists, updates


def _iterate_vectorized(
    computer: DistanceComputer,
    prev_ids: np.ndarray,
    prev_dists: np.ndarray,
    k: int,
    rng: np.random.Generator,
    sample_rate: float,
) -> tuple[np.ndarray, np.ndarray, int]:
    """One Jacobi iteration as a whole-iteration batched join.

    Per node block: gather the two-hop pool, sort rows and mask duplicates /
    self / entries already in the list (one searchsorted against the node's
    own sorted list via per-row offsets), score every surviving candidate in
    ONE segmented distance call, and merge with an inf-padded stable row
    argsort — each step reproducing the scalar loop's ``np.unique`` /
    ``setdiff1d`` / ``one_to_many`` / stable-merge semantics bit-for-bit.
    """
    n = computer.n
    ids = np.empty_like(prev_ids)
    dists = np.empty_like(prev_dists)
    prev_sorted = np.sort(prev_ids, axis=1)
    pool_width = k * k
    if sample_rate < 1.0 and pool_width:
        pool_width = max(1, int(pool_width * sample_rate))
    block = max(1, _BLOCK_POOL_ENTRIES // max(1, pool_width))
    updates = 0
    for b0 in range(0, n, block):
        b1 = min(b0 + block, n)
        nodes = np.arange(b0, b1, dtype=np.int64)
        pool = prev_ids[prev_ids[b0:b1]].reshape(b1 - b0, k * k)
        if sample_rate < 1.0 and pool.shape[1]:
            take = max(1, int(pool.shape[1] * sample_rate))
            sampled = np.empty((b1 - b0, take), dtype=np.int64)
            # per-node draws in ascending node order: the rng stream matches
            # the scalar reference exactly
            for row in range(b1 - b0):
                sampled[row] = rng.choice(pool[row], size=take, replace=False)
            pool = sampled
        sp = np.sort(pool, axis=1)
        keep = np.ones(sp.shape, dtype=bool)
        keep[:, 1:] = sp[:, 1:] != sp[:, :-1]
        keep &= sp != nodes[:, None]
        # membership against the node's own (sorted) list: offset every row
        # into a disjoint value range so one flat searchsorted covers all rows
        base = nodes - b0
        offs = (base * np.int64(n + 1))[:, None]
        hay = (prev_sorted[b0:b1] + offs).ravel()
        needles = (sp + offs).ravel()
        pos = np.searchsorted(hay, needles)
        member = np.zeros(needles.size, dtype=bool)
        in_range = pos < hay.size
        member[in_range] = hay[pos[in_range]] == needles[in_range]
        keep &= ~member.reshape(sp.shape)

        lens = keep.sum(axis=1).astype(np.int64)
        flat_ids = sp[keep]
        seg_stops = np.cumsum(lens)
        seg_starts = seg_stops - lens
        cand_flat = computer.points_to_many_segmented(
            nodes, flat_ids, seg_starts, seg_stops
        )

        l_max = int(lens.max()) if lens.size else 0
        if l_max == 0:
            ids[b0:b1] = prev_ids[b0:b1]
            dists[b0:b1] = prev_dists[b0:b1]
            continue
        width = k + l_max
        md = np.full((b1 - b0, width), np.inf, dtype=np.float64)
        mi = np.full((b1 - b0, width), -1, dtype=np.int64)
        md[:, :k] = prev_dists[b0:b1]
        mi[:, :k] = prev_ids[b0:b1]
        colmask = np.arange(l_max) < lens[:, None]
        md[:, k:][colmask] = cand_flat
        mi[:, k:][colmask] = flat_ids
        # stable argsort over the inf-padded rows: pads sort last and
        # stability preserves the concat order among ties, so the first k
        # columns equal the scalar per-node merge exactly
        order = np.argsort(md, axis=1, kind="stable")[:, :k]
        new_ids = np.take_along_axis(mi, order, axis=1)
        ids[b0:b1] = new_ids
        dists[b0:b1] = np.take_along_axis(md, order, axis=1)
        updates += int((new_ids != prev_ids[b0:b1]).sum())
    return ids, dists, updates


def _pad_init(
    computer: DistanceComputer,
    init_ids: np.ndarray,
    init_dists: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Normalize externally provided neighbor lists to exactly ``k`` entries.

    Short rows are topped up with random distinct ids.  When the first draw
    collides with existing entries, the shortfall is re-drawn from the
    remaining id space — never duplicated into the row (the old ``np.resize``
    fallback silently repeated neighbor ids).  ``k >= n`` is impossible to
    satisfy with distinct non-self ids and raises.
    """
    n = computer.n
    init_ids = np.asarray(init_ids, dtype=np.int64)
    init_dists = np.asarray(init_dists, dtype=np.float64)
    if init_ids.shape != init_dists.shape or init_ids.shape[0] != n:
        raise ValueError("init arrays must both be (n, m)")
    if k >= n:
        raise ValueError(f"k ({k}) must be < n ({n}) to fill distinct neighbor lists")
    ids = np.empty((n, k), dtype=np.int64)
    dists = np.empty((n, k), dtype=np.float64)
    for node in range(n):
        row = init_ids[node]
        row_d = init_dists[node]
        keep = row != node
        row, row_d = row[keep], row_d[keep]
        uniq, first = np.unique(row, return_index=True)
        row, row_d = uniq, row_d[first]
        if row.size < k:
            extra = rng.choice(n - 1, size=k - row.size, replace=False)
            extra[extra >= node] += 1
            extra = np.setdiff1d(extra, row, assume_unique=False)
            shortfall = k - row.size - extra.size
            if shortfall > 0:
                # the draw collided with existing entries: top up from the
                # ids not yet in play (always enough of them since k < n)
                mask = np.ones(n, dtype=bool)
                mask[node] = False
                mask[row] = False
                mask[extra] = False
                top_up = rng.choice(
                    np.flatnonzero(mask), size=shortfall, replace=False
                )
                extra = np.concatenate([extra, top_up])
            extra_d = computer.one_to_many(node, extra)
            row = np.concatenate([row, extra])
            row_d = np.concatenate([row_d, extra_d])
        order = np.argsort(row_d, kind="stable")[:k]
        ids[node] = row[order]
        dists[node] = row_d[order]
    return ids, dists


def knn_graph_to_graph(ids: np.ndarray) -> Graph:
    """Wrap an ``(n, k)`` neighbor-id matrix as a :class:`Graph` (bulk path)."""
    return Graph.from_neighbor_matrix(ids)
