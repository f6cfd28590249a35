"""Baseline incremental-insertion (II) graph builder — Section 4's apparatus.

To isolate the effect of each ND and SS strategy, the paper implements "a
basic II-based method, where nodes are inserted incrementally and each node
acquires its list of candidate neighbors through a beam search on the current
partial graph of already inserted nodes", then applies each strategy
independently.  This module is that apparatus:

* nodes are inserted one at a time;
* each insertion runs a beam search over the partial graph, seeded by a
  pluggable *build seed provider* (random/KS sampling, or an incrementally
  maintained Stacked-NSW layer stack — the Table 2 comparison);
* the visited candidates are pruned by a pluggable ND strategy to at most
  ``max_degree`` neighbors;
* bi-directional edges are added, re-pruning any overflowing neighbor list
  with the same ND strategy.

The last two steps are :func:`~repro.core.refine.insert_round` with a round
of one node; the batched builder and streaming inserts run the same round
with more nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beam_search import beam_search
from .distances import DistanceComputer
from .diversification import Diversifier, PruneCounter, rnd
from .graph import Graph
from .heap import NeighborQueue
from .kernels import resolve_backend
from .refine import insert_round

__all__ = [
    "IIBuildResult",
    "build_ii_graph",
    "RandomBuildSeeds",
    "StackedNSWBuildSeeds",
]


@dataclass
class IIBuildResult:
    """Graph plus build accounting for the II apparatus.

    Attributes
    ----------
    graph:
        The constructed proximity graph.
    distance_calls:
        Distance calculations consumed by construction.
    prune_stats:
        Examined/rejected counts of the ND strategy (Table 1).
    seed_provider:
        The build seed provider, exposing any structure it maintained
        (e.g., the SN layer stack, reusable at query time).
    """

    graph: Graph
    distance_calls: int
    prune_stats: PruneCounter
    seed_provider: "RandomBuildSeeds | StackedNSWBuildSeeds"


class RandomBuildSeeds:
    """KS-style build seeds: random already-inserted nodes per insertion."""

    name = "KS"

    def __init__(self, n_seeds: int = 4):
        if n_seeds < 1:
            raise ValueError("n_seeds must be >= 1")
        self.n_seeds = n_seeds

    def seeds_for(self, node, inserted, computer, rng) -> list[int]:
        """Sample up to ``n_seeds`` inserted nodes uniformly."""
        size = min(self.n_seeds, len(inserted))
        picks = rng.choice(len(inserted), size=size, replace=False)
        return [inserted[int(p)] for p in picks]

    def on_insert(self, node, computer, rng) -> None:
        """Nothing to maintain."""

    def memory_bytes(self) -> int:
        """No auxiliary structure."""
        return 0


class StackedNSWBuildSeeds:
    """SN build seeds: an HNSW-style layer stack grown with the graph.

    Each inserted node draws a maximum level from Eq. 1
    (``floor(-ln(U) / ln(M))``); positive-level nodes join small diversified
    NSW graphs at layers ``1..level``.  Seeds for an insertion's base-layer
    beam search come from a greedy descent through the current stack — the
    extra distance calls this costs relative to KS is exactly what Table 2
    measures.
    """

    name = "SN"

    def __init__(self, max_degree: int = 16, ef_construction: int = 24):
        if max_degree < 2:
            raise ValueError("max_degree must be >= 2")
        self.max_degree = max_degree
        self.ef_construction = ef_construction
        self._inv_log_m = 1.0 / math.log(max_degree)
        self.layers: list[dict[int, np.ndarray]] = []  # layers[0] is layer 1
        self.entry: int | None = None
        self.entry_level = 0

    # ------------------------------------------------------------------
    def seeds_for(self, node, inserted, computer, rng) -> list[int]:
        """Greedy descent through the layer stack toward ``node``'s vector."""
        if self.entry is None:
            return [inserted[int(rng.integers(len(inserted)))]]
        query = computer.data[node]
        current = self.entry
        current_dist = computer.one_to_query(current, query)
        for layer in reversed(self.layers):
            current, current_dist = self._greedy_in_layer(
                layer, current, current_dist, query, computer
            )
        return [current]

    def on_insert(self, node, computer, rng) -> None:
        """Draw a level for ``node`` and link it into its layers."""
        level = int(
            math.floor(-math.log(max(rng.uniform(), 1e-12)) * self._inv_log_m)
        )
        if self.entry is None:
            self.entry = int(node)
            self.entry_level = level
            for _ in range(level):
                self.layers.append({int(node): np.empty(0, dtype=np.int64)})
            return
        if level == 0:
            return
        while len(self.layers) < level:
            self.layers.append({})
        query = computer.data[node]
        current = self.entry
        current_dist = computer.one_to_query(current, query)
        # descend through layers above `level` first
        for layer_idx in range(len(self.layers) - 1, level - 1, -1):
            current, current_dist = self._greedy_in_layer(
                self.layers[layer_idx], current, current_dist, query, computer
            )
        # then insert into layers `level`..1
        for layer_idx in range(min(level, len(self.layers)) - 1, -1, -1):
            layer = self.layers[layer_idx]
            if not layer:
                layer[int(node)] = np.empty(0, dtype=np.int64)
                continue
            if current not in layer:
                current = next(iter(layer))
                current_dist = computer.one_to_query(current, query)
            ids, dists = self._layer_beam(layer, query, current, computer)
            kept = rnd(computer, ids, dists, self.max_degree)
            layer[int(node)] = kept
            for nbr in kept:
                nbr = int(nbr)
                merged = np.concatenate([layer[nbr], [node]])
                if merged.size > self.max_degree:
                    dists_nbr = computer.one_to_many(nbr, merged)
                    merged = rnd(computer, merged, dists_nbr, self.max_degree)
                layer[nbr] = merged
            if ids.size:
                current = int(ids[0])
                current_dist = float(dists[0])
        if level > self.entry_level:
            self.entry = int(node)
            self.entry_level = level

    # ------------------------------------------------------------------
    @staticmethod
    def _greedy_in_layer(layer, current, current_dist, query, computer):
        if current not in layer:
            if not layer:
                return current, current_dist
            current = next(iter(layer))
            current_dist = computer.one_to_query(current, query)
        # prepare the query once; the hop loop only pays the GEMV
        q64, q_sq = computer.prepare_query(query)
        improved = True
        while improved:
            improved = False
            nbrs = layer.get(current)
            if nbrs is None or nbrs.size == 0:
                break
            dists = computer.to_query_prepared(nbrs, q64, q_sq)
            best = int(np.argmin(dists))
            if dists[best] < current_dist:
                current = int(nbrs[best])
                current_dist = float(dists[best])
                improved = True
        return current, current_dist

    def _layer_beam(self, layer, query, entry, computer):
        queue = NeighborQueue(self.ef_construction)
        visited = {entry}
        queue.insert(computer.one_to_query(entry, query), entry)
        while True:
            node = queue.pop_nearest_unexpanded()
            if node is None:
                break
            fresh = [int(x) for x in layer.get(node, ()) if int(x) not in visited]
            if not fresh:
                continue
            visited.update(fresh)
            dists = computer.to_query(np.asarray(fresh), query)
            bound = queue.worst_dist()
            for dist, nbr in zip(dists.tolist(), fresh):
                if dist < bound:
                    bound = queue.insert(dist, nbr)
        return queue.entries()

    def memory_bytes(self) -> int:
        """Bytes across all layer adjacency arrays."""
        total = 0
        for layer in self.layers:
            total += sum(arr.nbytes + 32 for arr in layer.values())
        return total


def build_ii_graph(
    computer: DistanceComputer,
    max_degree: int = 24,
    beam_width: int = 128,
    diversify: str | Diversifier = "rnd",
    rng: np.random.Generator | None = None,
    build_seeds: RandomBuildSeeds | StackedNSWBuildSeeds | None = None,
    insertion_order: np.ndarray | None = None,
    diversify_params: dict | None = None,
    track_pruning: bool = True,
    prune_overflow: bool = True,
    n_workers: int | None = None,
    max_round_size: int | None = None,
    kernel: str | None = None,
) -> IIBuildResult:
    """Build the baseline II graph over the computer's dataset.

    Parameters
    ----------
    computer:
        Distance engine owning the dataset.
    max_degree:
        Out-degree cap ``R`` (the paper uses R=60 at its scale).
    beam_width:
        Construction beam width ``L`` (the paper uses L=800).
    diversify:
        ND strategy name (``"nond" | "rnd" | "rrnd" | "mond"``) or a bound
        callable.
    rng:
        Randomness for insertion order and seed sampling.
    build_seeds:
        Build-time seed provider; defaults to :class:`RandomBuildSeeds`.
    insertion_order:
        Optional permutation of node ids (``ValueError`` otherwise); random
        when omitted.
    diversify_params:
        Extra parameters bound to the ND strategy (``alpha``,
        ``theta_degrees``).
    track_pruning:
        Record examined/rejected pruning counts (Table 1); adds a cheap
        replay of each prune decision.
    prune_overflow:
        Re-prune neighbor lists that exceed ``max_degree`` after reverse-edge
        insertion.  The original NSW keeps unbounded neighbor lists (its
        early edges are the long-range links), so it disables this.
    n_workers:
        ``None`` (default) keeps the paper's strictly sequential protocol.
        Any integer switches to the ParlayANN-style batched builder
        (:func:`~repro.core.batch_build.build_ii_graph_batched`): candidate
        searches run in prefix-doubling rounds against a frozen prefix
        graph, across ``n_workers`` processes — the batched result is
        bit-identical at every worker count, but it is a (negligibly)
        different graph than the sequential protocol produces.
    max_round_size:
        Round-size cap for the batched builder (ignored when ``n_workers``
        is ``None``).
    kernel:
        Construction-kernel backend (``python`` or ``scalar``; ``None`` =
        ``$REPRO_KERNEL``).  Selects the backend of every insertion round's
        prunes (:func:`~repro.core.refine.insert_round`) and, for the
        batched builder, of its candidate searches; the sequential
        protocol's searches are scalar :func:`beam_search` calls, since each
        insertion must see the previous one's edges.  Graph, prune stats
        and distance accounting are the same at every backend.
    """
    if n_workers is not None:
        from .batch_build import build_ii_graph_batched

        return build_ii_graph_batched(
            computer,
            max_degree=max_degree,
            beam_width=beam_width,
            diversify=diversify,
            rng=rng,
            build_seeds=build_seeds,
            insertion_order=insertion_order,
            diversify_params=diversify_params,
            track_pruning=track_pruning,
            prune_overflow=prune_overflow,
            n_workers=n_workers,
            max_round_size=max_round_size,
            kernel=kernel,
        )
    if rng is None:
        rng = np.random.default_rng(0)
    backend = resolve_backend(kernel)
    n = computer.n
    graph = Graph(n)
    prune_stats = PruneCounter()
    if build_seeds is None:
        build_seeds = RandomBuildSeeds()
    mark = computer.checkpoint()
    insertion_order = _resolve_insertion_order(insertion_order, n, rng)
    inserted: list[int] = []
    visited_mask = np.zeros(n, dtype=bool)

    # a round of one node per insertion: each search sees every edge the
    # previous insertions wrote
    for node in insertion_order.tolist():
        if inserted:
            seeds = build_seeds.seeds_for(node, inserted, computer, rng)
            width = min(beam_width, max(8, len(inserted)))
            result = beam_search(
                graph, computer, computer.data[node], seeds,
                k=min(width, len(inserted)), beam_width=width,
                visited_mask=visited_mask,
            )
            insert_round(
                graph, computer, [node], [(result.ids, result.dists)],
                max_degree, diversify, diversify_params, backend,
                stats=prune_stats if track_pruning else None,
                prune_overflow=prune_overflow,
            )
        inserted.append(node)
        build_seeds.on_insert(node, computer, rng)
    return IIBuildResult(
        graph=graph,
        distance_calls=computer.since(mark),
        prune_stats=prune_stats,
        seed_provider=build_seeds,
    )


def _resolve_insertion_order(
    insertion_order, n: int, rng: np.random.Generator
) -> np.ndarray:
    """The order an II builder inserts in: validated, or drawn from ``rng``.

    An explicit order must be a permutation of ``range(n)``: a repeated or
    missing id would leave nodes isolated or insert one twice.
    """
    if insertion_order is None:
        return rng.permutation(n)
    order = np.asarray(insertion_order)
    if order.shape != (n,) or not np.array_equal(np.sort(order), np.arange(n)):
        raise ValueError(
            f"insertion_order must be a permutation of range({n}); got "
            f"{order.size} entries with {np.unique(order).size} distinct ids"
        )
    return order.astype(np.int64)
