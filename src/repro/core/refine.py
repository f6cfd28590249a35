"""Frozen rounds: the one edge-writing step every graph builder shares.

Every builder takes a node's candidate pool, prunes it with an ND strategy,
writes the forward list and adds reverse edges under the degree cap.  This
module does that a *round* of nodes at a time, ParlayANN-style: the pools
are scored against the graph as it stood when the round began, ALL of them
are pruned by ONE :func:`~repro.core.build_kernels.diversify_many`, and the
forward lists are written in rank order.  The two round kinds differ in how
reverse edges land, because the two protocols do:

* :func:`insert_round` — incremental insertion (HNSW, NSW, LSHAPG, the
  Section 4 apparatus, streaming inserts).  The round's nodes are new, so
  no pool holds one of them.  Per insertion, in rank order, the node is
  appended to each kept neighbour's list and the lists that overflow are
  re-pruned by ONE :func:`~repro.core.build_kernels.prune_merged_many`
  (one insertion's targets are pairwise distinct).  A neighbour hit by
  several insertions is re-pruned once per hit, as the sequential
  protocol does.  A diversifier callable cannot be batched; it is called
  once per pool and once per overflowing list instead.
* :func:`refine_round` — refinement (Vamana, NSG, SSG).  The round's nodes
  rewrite lists they already have; back-edges are grouped by target and
  every overflowing target is deduplicated and re-pruned once per round.
  A mode flag joining the two would hide two protocols behind one name.

Nothing in a round depends on which backend ran it: ``scalar`` makes the
same calls in the same order through the reference functions
(``beam_search``, the scalar diversifiers, ``one_to_many``), and every
batched call is bit-identical to those per request, so graphs, prune stats
and distance-call totals are equal at every ``REPRO_KERNEL``.

A round of one node is the strictly sequential pass of the papers: the
node sees every edge its predecessors wrote, each target receives exactly
one back-edge, and the result is the per-node loop's, bit for bit.  Larger
rounds trade that freshness for batching; when the searched graph is not
the one being written (NSG and SSG refine a fixed EFANNA base) the round
size cannot change the result at all and only bounds the scratch memory,
so those builders take one kernel chunk per round.
"""

from __future__ import annotations

import inspect
from time import perf_counter

import numpy as np

from .beam_search import beam_search
from .build_kernels import diversify_many, prune_merged_many
from .distances import DistanceComputer
from .diversification import Diversifier, PruneCounter
from .graph import Graph
from .kernels import batch_search

__all__ = [
    "REFINE_ROUND_SIZE",
    "point_distances",
    "search_pools",
    "insert_round",
    "refine_round",
    "link_unreachable",
]

#: Nodes per round when the graph searched is the graph being rewritten
#: (Vamana).  Chosen from the sequential-vs-round table in EXPERIMENTS.md
#: ("construction kernels"): the largest size whose query distance calls
#: stay within 3.5 % and build distance calls within 2 % of the sequential
#: pass's (recall@10 moves by less than 0.001 at any size tried).
REFINE_ROUND_SIZE = 128


def point_distances(
    computer: DistanceComputer, points, lists: list[np.ndarray], backend: str
) -> list[np.ndarray]:
    """Distances from each dataset point to its own id list (counted).

    ``scalar`` is one ``one_to_many(point, ids)`` per point; the kernel
    backends make one segmented call whose segments are those same calls.
    """
    if backend == "scalar":
        return [
            computer.one_to_many(int(point), ids)
            for point, ids in zip(points, lists)
        ]
    if not lists:
        return []
    lens = np.asarray([ids.size for ids in lists], dtype=np.int64)
    stops = np.cumsum(lens)
    dists = computer.points_to_many_segmented(
        points, np.concatenate(lists), stops - lens, stops
    )
    return np.split(dists, stops[:-1])


def search_pools(
    graph: Graph,
    computer: DistanceComputer,
    nodes: np.ndarray,
    entry: int,
    beam_width: int,
    pool_size: int,
    backend: str,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Candidate pools of one round: what a search from ``entry`` scored.

    Every node of ``nodes`` runs Algorithm 1 towards its own vector over
    ``graph``, which nothing writes until the round's searches are done;
    its pool is the visited list plus its current neighbours, itself
    removed, cut to the ``pool_size`` closest.  Queries are passed as
    vectors, not point ids, so the query norm is the ``q @ q`` a per-node
    ``beam_search(..., computer.data[node])`` uses.  (The lists are searched
    as they are: at round sizes up to 256 a CSR snapshot per round measured
    no faster.)
    """
    results = batch_search(
        graph, computer, computer.data[nodes], [[entry]] * len(nodes),
        k=beam_width, beam_width=beam_width, backend=backend,
        collect_visited=True,
    )
    extras = [graph.neighbors(int(node)) for node in nodes]
    extra_dists = point_distances(computer, nodes, extras, backend)
    pools = []
    for node, result, extra, extra_d in zip(nodes, results, extras, extra_dists):
        cand_ids = np.concatenate([result.visited, extra])
        cand_dists = np.concatenate([result.visited_dists, extra_d])
        keep = cand_ids != node
        cand_ids, cand_dists = cand_ids[keep], cand_dists[keep]
        # the strategies sort and dedup internally; the cap bounds their cost
        if cand_ids.size > pool_size:
            top = np.argpartition(cand_dists, pool_size)[:pool_size]
            cand_ids, cand_dists = cand_ids[top], cand_dists[top]
        pools.append((cand_ids, cand_dists))
    return pools


def insert_round(
    graph: Graph,
    computer: DistanceComputer,
    nodes,
    pools: list[tuple[np.ndarray, np.ndarray]],
    max_degree: int,
    strategy: str | Diversifier,
    params: dict | None,
    backend: str | None,
    stats: PruneCounter | None = None,
    prune_overflow: bool = True,
    phase_times: dict | None = None,
) -> None:
    """Link one round of newly inserted ``nodes`` into ``graph`` (II).

    ``pools[r]`` is the ``(cand_ids, cand_dists)`` pool of ``nodes[r]``,
    scored against the graph before the round; no pool may hold a node of
    the round, so no forward list is a back-edge target.  ``strategy`` /
    ``params`` select the ND strategy (or ``strategy`` is a diversifier
    callable).  Each kept edge ``node -> target`` also appends ``node`` to
    ``target``'s list, insertions in rank order; with
    ``prune_overflow`` a list that outgrows ``max_degree`` is re-pruned
    with the same strategy.  ``stats`` counts the overflow prunes only —
    Table 1's pruning ratio: how much of an R+1-sized list the ND predicate
    itself removes, beyond what the degree cap would.  ``phase_times``, if
    given, accumulates wall-clock seconds under ``prune`` and ``merge``.
    """
    named = isinstance(strategy, str)
    t_round = perf_counter()
    if named:
        kept_per_node = diversify_many(
            computer, pools, max_degree, strategy, params=params, backend=backend
        )
    else:
        kept_per_node = [
            strategy(computer, cand_ids, cand_dists, max_degree)
            for cand_ids, cand_dists in pools
        ]
    t_prune = perf_counter() - t_round
    for node, kept in zip(nodes, kept_per_node):
        graph.set_neighbors(int(node), kept)
        owners, merged_lists = [], []
        for target in np.asarray(kept).tolist():
            merged = np.concatenate([graph.neighbors(target), [node]])
            if prune_overflow and merged.size > max_degree:
                owners.append(target)
                merged_lists.append(merged)
            else:
                graph.set_neighbors(target, merged)
        if not owners:
            continue
        t_start = perf_counter()
        if named:
            pruned = prune_merged_many(
                computer, owners, merged_lists, max_degree, strategy,
                params=params, stats=stats, backend=backend,
            )
        else:
            pruned = [
                _prune_with_stats(
                    strategy, computer, merged,
                    computer.one_to_many(owner, merged), max_degree, stats,
                )
                for owner, merged in zip(owners, merged_lists)
            ]
        t_prune += perf_counter() - t_start
        for owner, kept_owner in zip(owners, pruned):
            graph.set_neighbors(owner, kept_owner)
    if phase_times is not None:
        t_merge = perf_counter() - t_round - t_prune
        phase_times["prune"] = phase_times.get("prune", 0.0) + t_prune
        phase_times["merge"] = phase_times.get("merge", 0.0) + t_merge


def _prune_with_stats(diversifier, computer, cand_ids, cand_dists, max_degree, stats):
    """Run a diversifier callable once, charging ``stats`` if given.

    A callable that takes ``stats=`` counts for itself; for one that does
    not, the examined/rejected counts are estimated from its output, so
    it still runs exactly once and distances are never charged twice.
    """
    if stats is None:
        return diversifier(computer, cand_ids, cand_dists, max_degree)
    if _accepts_stats(diversifier):
        return diversifier(computer, cand_ids, cand_dists, max_degree, stats=stats)
    kept = diversifier(computer, cand_ids, cand_dists, max_degree)
    examined = min(len(cand_ids), max_degree + (len(cand_ids) - len(kept)))
    stats.examined += examined
    stats.rejected += max(0, examined - len(kept))
    return kept


def _accepts_stats(diversifier) -> bool:
    """Whether a diversifier callable accepts a ``stats=`` keyword.

    Decided from the signature, never by calling the diversifier: probing
    with ``stats=`` and catching ``TypeError`` would also swallow genuine
    ``TypeError``s raised *inside* a stats-accepting diversifier and then
    silently re-run it without stats, double-charging distance calls.
    """
    try:
        parameters = inspect.signature(diversifier).parameters
    except (TypeError, ValueError):  # builtins/exotic callables: be conservative
        return False
    if "stats" in parameters:
        kind = parameters["stats"].kind
        return kind not in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.VAR_POSITIONAL,
        )
    return any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    )


def refine_round(
    graph: Graph,
    computer: DistanceComputer,
    nodes: np.ndarray,
    pools: list[tuple[np.ndarray, np.ndarray]],
    max_degree: int,
    strategy: str,
    params: dict | None,
    backend: str,
    back_edge_strategy: str | None = None,
) -> None:
    """Prune one round's pools and write its edges into ``graph``.

    ``pools[r]`` is the ``(cand_ids, cand_dists)`` pool of ``nodes[r]``;
    ``strategy`` / ``params`` select the ND strategy of the forward lists.
    With ``back_edge_strategy`` every kept edge ``node -> target`` also
    inserts ``target -> node``: a target's new sources are appended in rank
    order, and a list that outgrows ``max_degree`` (raw size, duplicates
    counted) is deduplicated and re-pruned with that strategy.
    """
    kept_per_node = diversify_many(
        computer, pools, max_degree, strategy, params=params, backend=backend
    )
    for node, kept in zip(nodes, kept_per_node):
        graph.set_neighbors(int(node), kept)
    if back_edge_strategy is None:
        return
    targets = np.concatenate(kept_per_node)
    sources = np.repeat(nodes, [kept.size for kept in kept_per_node])
    # stable: within a target, sources keep the round's rank order
    order = np.argsort(targets, kind="stable")
    targets, first = np.unique(targets[order], return_index=True)
    owners, merged_lists = [], []
    for target, new in zip(targets.tolist(), np.split(sources[order], first[1:])):
        merged = np.concatenate([graph.neighbors(target), new])
        if merged.size > max_degree:
            owners.append(target)
            merged_lists.append(np.unique(merged))
        else:
            graph.set_neighbors(target, merged)
    pruned = prune_merged_many(
        computer, owners, merged_lists, max_degree, back_edge_strategy,
        backend=backend,
    )
    for target, kept in zip(owners, pruned):
        graph.set_neighbors(target, kept)


def link_unreachable(
    graph: Graph,
    computer: DistanceComputer,
    reachable: np.ndarray,
    root: int,
    max_degree: int,
) -> None:
    """Tree-grow repair: link every node ``reachable`` does not flag.

    NSG's rule: a beam search from ``root`` towards the node scores
    reachable nodes near it, and the nearest one with a free slot becomes
    its parent, so repair never pushes a list past ``max_degree``; whatever
    the node reaches is then reachable too and is not linked again
    (``reachable`` is updated in place).  When every scored node is full
    the beam is doubled.  Only if the whole component reachable from
    ``root`` is saturated does the nearest node take the edge anyway:
    reachability is what the searches need.
    """
    visited_mask = np.zeros(graph.n, dtype=bool)
    for node in np.flatnonzero(~reachable).tolist():
        if reachable[node]:
            continue
        width = max(8, max_degree)
        while True:
            result = beam_search(
                graph, computer, computer.data[node], [root],
                k=1, beam_width=width, visited_mask=visited_mask,
            )
            nearest = result.visited[
                np.argsort(result.visited_dists, kind="stable")
            ].tolist()
            anchor = next(
                (i for i in nearest if graph.degree(i) < max_degree), None
            )
            # a search that scored fewer nodes than its beam holds saw the
            # whole component
            if anchor is not None or len(nearest) < width:
                break
            width *= 2
        graph.add_edge(nearest[0] if anchor is None else anchor, node)
        reachable[node] = True
        stack = [node]
        while stack:
            for nbr in graph.neighbors(stack.pop()).tolist():
                if not reachable[nbr]:
                    reachable[nbr] = True
                    stack.append(nbr)
