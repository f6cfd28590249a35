"""Frozen-round refinement: the build stage Vamana, NSG and SSG share.

The refinement builders rebuild every node's neighbourhood from a candidate
pool: search (or expand) around the node, prune the pool with an ND
strategy, write the forward list, and — for Vamana — insert the reverse
edges under the degree cap.  Done one node at a time that is one scalar
beam search and one scalar prune per node.  This module does it a *round*
of nodes at a time, ParlayANN-style (the recipe
:mod:`~repro.core.batch_build` follows for incremental insertion):

* every node of the round searches the graph as it stood when the round
  began — ONE lockstep batch through :func:`~repro.core.kernels.batch_search`
  with the visited lists collected (:func:`search_pools`);
* all pools are pruned by ONE
  :func:`~repro.core.build_kernels.diversify_many` and the forward lists
  written in rank order (:func:`refine_round`);
* back-edges are grouped by target, sources in rank order, and every
  overflowing target is re-pruned by ONE
  :func:`~repro.core.build_kernels.prune_merged_many`.

Nothing in a round depends on which backend ran it: ``scalar`` makes the
same calls in the same order through the reference functions
(``beam_search``, the scalar diversifiers, ``one_to_many``), and every
batched call is bit-identical to those per request, so graphs and
distance-call totals are equal at every ``REPRO_KERNEL``.

A round of one node is the strictly sequential pass of the papers: the
node sees every edge its predecessors wrote, each target receives exactly
one back-edge, and the result is the per-node loop's, bit for bit.  Larger
rounds trade that freshness for batching; when the searched graph is not
the one being written (NSG and SSG refine a fixed EFANNA base) the round
size cannot change the result at all and only bounds the scratch memory,
so those builders take one kernel chunk per round.
"""

from __future__ import annotations

import numpy as np

from .beam_search import beam_search
from .build_kernels import diversify_many, prune_merged_many
from .distances import DistanceComputer
from .graph import Graph
from .kernels import batch_search

__all__ = [
    "REFINE_ROUND_SIZE",
    "point_distances",
    "search_pools",
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
