"""Filtered vector search: predicate-constrained k-NN over the same graphs.

The paper's twelve methods are evaluated on unfiltered workloads, but real
serving traffic increasingly carries attribute predicates alongside the
query vector.  RWalks (Echihabi et al.) and ACORN show that *filtered*
search over the same proximity graphs is a scenario family of its own,
whose recall/QPS trade-offs are governed by filter **specificity** — the
fraction of points that satisfy the predicate.  This module layers that
scenario over any built :class:`~repro.indexes.base.BaseGraphIndex`
without touching the index itself, with three strategies behind one API:

``inline``
    The tombstone machinery generalized: traverse the unmodified graph
    exactly as the unfiltered search would (hops and distance calls are
    predicate-invariant), but filter the finished beam through the query's
    allow-mask, padding to ``k`` with ``(PAD_ID, inf)`` on shortfall.
    Cheap and exact at permissive specificities; at selective predicates
    the beam drains and recall drops — that cliff is the phenomenon the
    benchmark sweeps.
``acorn``
    ACORN-style multi-hop expansion: only passing nodes enter the beam or
    are scored, while filtered-out nodes still *route* — each expansion
    gathers neighbors through up to ``expansion`` consecutive failing
    nodes, so selective predicates don't strand the traversal on an
    island of failing neighbors.  Two implementations, bit-identical in
    ids, distances, hops and distance calls: :func:`acorn_beam_search`
    here (the reference; single queries and ``kernel="scalar"``) and the
    lockstep kernel's expand policy
    (:class:`~repro.core.kernels.AcornExpansion`, which also states the
    segment-order rule the identity rests on; batches).
``rwalks``
    RWalks-style offline edge augmentation: attribute-diffusing random
    walks add same-label shortcut edges on top of the existing graph (the
    index is untouched; augmentation is a pure function of graph bytes,
    labels, and seed), then the inline strategy runs over the augmented
    graph.

No strategy owns a search loop: each hands the wrapped index's one answer
path (:meth:`~repro.indexes.base.BaseGraphIndex._answer`) its predicate
rows — as exclude masks, as an ACORN policy, or with the RWalks graph —
and that path ORs them with the index's own mask.  Over a
:class:`~repro.core.streaming.StreamingIndex` the predicates and the
tombstones therefore compose: filtered search under churn never returns a
deleted id.  Inserts do not extend the attributes; a wrapped index that
has grown past them raises ``ValueError`` at every entry point.

Determinism: every strategy draws its per-query randomness through the
wrapped index's ``seed_query_rng`` protocol and measures distance calls as
counter deltas, so answers, distance counts, and hop counts are
bit-identical across kernel backends and worker counts — the same
guarantee the unfiltered batch engine makes, pinned by the filtered
benchmark's assertions.
"""

from __future__ import annotations

import numpy as np

from .beam_search import SearchResult, pad_top_k, prepare_seeds
from .graph import CSRGraph, Graph
from .heap import NeighborQueue
from .kernels import AcornExpansion, resolve_backend

__all__ = [
    "FILTER_STRATEGIES",
    "FilteredIndex",
    "acorn_beam_search",
    "rwalks_augment",
]

#: Strategy names accepted by :class:`FilteredIndex`.
FILTER_STRATEGIES = ("inline", "acorn", "rwalks")


# ----------------------------------------------------------------------
# ACORN-style traversal, scalar: the reference the lockstep policy
# (kernels.AcornExpansion) must match bit for bit
# ----------------------------------------------------------------------
def _expand_through_failing(graph, allow_mask, visited_mask, frontier, depth):
    """Gather passing nodes reachable through ``depth`` failing layers.

    ``frontier`` holds filtered-out nodes already marked visited; each
    layer gathers their unvisited neighbors, harvests the passing ones,
    and keeps routing through the failing ones.  Failing nodes are marked
    visited but never scored, so distance accounting stays a pure function
    of the passing set.  Frontiers are sorted-unique at every layer, so
    the result is independent of gather order.

    Returns ``(found, frontier)``: the passing nodes, and the failing
    frontier left after the last layer (empty once the component is
    exhausted) — where a caller that found nothing resumes widening.
    """
    found = []
    for _ in range(depth):
        if not frontier.size:
            break
        nexts = [graph.neighbors(int(node)) for node in frontier]
        nbrs = np.unique(np.concatenate(nexts)) if nexts else frontier[:0]
        fresh = nbrs[~visited_mask[nbrs]]
        if not fresh.size:
            frontier = fresh
            break
        visited_mask[fresh] = True
        passing = fresh[allow_mask[fresh]]
        if passing.size:
            found.append(passing)
        frontier = fresh[~allow_mask[fresh]]
    if not found:
        return np.empty(0, dtype=np.int64), frontier
    return np.concatenate(found), frontier


def acorn_beam_search(
    graph,
    computer,
    query: np.ndarray,
    seeds,
    k: int,
    beam_width: int,
    allow_mask: np.ndarray,
    expansion: int = 2,
    visited_mask: np.ndarray | None = None,
) -> SearchResult:
    """Algorithm 1 with ACORN-style expansion through filtered-out nodes.

    The beam holds only nodes satisfying ``allow_mask``; every expansion
    gathers the popped node's neighbors and, instead of discarding failing
    ones, routes through up to ``expansion`` consecutive failing layers to
    reach passing nodes behind them (``expansion=1`` is the ACORN-1
    two-hop analog).  Failing nodes are marked visited and never scored:
    ``distance_calls`` counts passing nodes only, each exactly once.

    Seeds failing the predicate are used as routing starts; if no passing
    node is reachable within ``expansion`` hops of the seeds, the failing
    frontier keeps widening until one is found or the component is
    exhausted — a selective predicate cannot strand the search at the
    seed.  Answers are padded to ``k`` with ``(PAD_ID, inf)`` when fewer
    passing nodes exist.
    """
    if beam_width < k:
        raise ValueError(f"beam_width ({beam_width}) must be >= k ({k})")
    if expansion < 1:
        raise ValueError("expansion must be >= 1")
    mark = computer.checkpoint()
    if visited_mask is None or visited_mask.size != graph.n:
        visited_mask = np.zeros(graph.n, dtype=bool)
    else:
        visited_mask[:] = False

    seeds = prepare_seeds(seeds, graph.n)
    visited_mask[seeds] = True
    passing = seeds[allow_mask[seeds]]
    failing = seeds[~allow_mask[seeds]]
    if failing.size:
        more, failing = _expand_through_failing(
            graph, allow_mask, visited_mask, failing, expansion
        )
        passing = np.unique(np.concatenate([passing, more]))
        # a fully-failing neighborhood keeps widening, one layer at a time,
        # from the frontier the expansion stopped at
        while not passing.size and failing.size:
            passing, failing = _expand_through_failing(
                graph, allow_mask, visited_mask, failing, 1
            )

    queue = NeighborQueue(beam_width)
    q64, q_sq = computer.prepare_query(query)
    if passing.size:
        dists = computer.to_query_prepared(passing, q64, q_sq)
        for dist, node in zip(dists.tolist(), passing.tolist()):
            queue.insert(dist, node)

    hops = 0
    while True:
        node = queue.pop_nearest_unexpanded()
        if node is None:
            break
        hops += 1
        nbrs = graph.neighbors(node)
        if not nbrs.size:
            continue
        fresh = nbrs[~visited_mask[nbrs]]
        if not fresh.size:
            continue
        visited_mask[fresh] = True
        cand = fresh[allow_mask[fresh]]
        blocked = fresh[~allow_mask[fresh]]
        if blocked.size:
            more, _ = _expand_through_failing(
                graph, allow_mask, visited_mask, blocked, expansion
            )
            if more.size:
                cand = np.unique(np.concatenate([cand, more]))
        if not cand.size:
            continue
        dists = computer.to_query_prepared(cand, q64, q_sq)
        bound = queue.worst_dist()
        for dist, nbr in zip(dists.tolist(), cand.tolist()):
            if dist < bound:
                bound = queue.insert(dist, nbr)

    raw_ids, raw_dists = queue.top_k(k)
    ids, dists = pad_top_k(raw_ids, raw_dists, k)
    return SearchResult(
        ids=ids,
        dists=dists,
        distance_calls=computer.since(mark),
        hops=hops,
    )


# ----------------------------------------------------------------------
# RWalks-style offline edge augmentation
# ----------------------------------------------------------------------
def rwalks_augment(
    graph,
    labels: np.ndarray,
    n_walks: int = 8,
    walk_len: int = 4,
    extra_degree: int = 4,
    seed: int = 0,
) -> Graph:
    """Attribute-aware edge augmentation via random walks (RWalks-style).

    For every node, ``n_walks`` uniform random walks of ``walk_len`` steps
    diffuse over the base graph; visited nodes carrying the *same label*
    as the walk's origin become shortcut candidates, ranked by visit count
    (ties by ascending id), and the top ``extra_degree`` not already
    adjacent are appended to the node's out-list.  Same-label regions that
    the base graph connects only through other labels thus gain direct
    edges, which is what keeps selective categorical filters from
    stranding an inline traversal.

    Pure function of ``(graph bytes, labels, seed)``: each node's walks
    draw from ``default_rng((seed, node))``, so the augmented graph is
    bit-identical across processes and platforms and independent of node
    processing order.  The input graph is not modified.
    """
    if n_walks < 1 or walk_len < 1:
        raise ValueError("n_walks and walk_len must be >= 1")
    if extra_degree < 0:
        raise ValueError("extra_degree must be >= 0")
    labels = np.asarray(labels)
    n = graph.n
    if labels.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
    out = graph.copy() if isinstance(graph, Graph) else _csr_to_graph(graph)
    if extra_degree == 0:
        return out
    for node in range(n):
        rng = np.random.default_rng((seed, node))
        touched: list[int] = []
        for _ in range(n_walks):
            cur = node
            for _ in range(walk_len):
                nbrs = graph.neighbors(cur)
                if not nbrs.size:
                    break
                cur = int(nbrs[rng.integers(nbrs.size)])
                touched.append(cur)
        if not touched:
            continue
        visits = np.asarray(touched, dtype=np.int64)
        cand, counts = np.unique(visits, return_counts=True)
        same = (labels[cand] == labels[node]) & (cand != node)
        cand, counts = cand[same], counts[same]
        if not cand.size:
            continue
        existing = out.neighbors(node)
        fresh = ~np.isin(cand, existing)
        cand, counts = cand[fresh], counts[fresh]
        if not cand.size:
            continue
        # most-visited first, ties by ascending id — a total order
        order = np.lexsort((cand, -counts))[:extra_degree]
        out.set_neighbors(node, np.concatenate([existing, cand[order]]))
    return out


def _csr_to_graph(csr) -> Graph:
    """Materialize a mutable adjacency-list copy of a CSR graph."""
    out = Graph(csr.n)
    for node in range(csr.n):
        out.set_neighbors(node, csr.neighbors(node))
    return out


# ----------------------------------------------------------------------
# the index-agnostic wrapper
# ----------------------------------------------------------------------
def _check_cover(attrs, inner) -> None:
    """Attributes must label every point the index can answer with."""
    if attrs.n != inner.computer.n:
        raise ValueError(
            f"attributes cover {attrs.n} points but the index holds "
            f"{inner.computer.n}"
        )


class FilteredIndex:
    """Predicate-filtered search over a built graph index.

    Wraps a built :class:`~repro.indexes.base.BaseGraphIndex` together
    with the workload's attributes and per-query predicates, and exposes
    the batch-engine surface (``search`` / ``search_batch`` /
    ``seed_query_rng`` / ``shared_query_state`` /
    ``attach_shared_query_state``), so the existing parallel engine,
    :func:`~repro.eval.runner.run_workload`, and the beam-width sweep all
    run filtered workloads unchanged.

    ``predicates[i]`` applies to workload query ``i`` — the same global
    query index the engine passes to :meth:`seed_query_rng`, which is how
    the scalar per-query path (whose ``search`` never sees an index)
    selects the right filter at any worker count.

    Every strategy answers through the wrapped index's standard Algorithm-1
    path (its ``_query_seeds``, then the beam kernel), so method-specific
    search overrides do not apply under a filter: LSHAPG's probabilistic
    routing is skipped, and ELPIS, which has no single-graph seed strategy,
    raises ``NotImplementedError``.
    """

    name = "filtered"

    def __init__(
        self,
        inner,
        attrs,
        predicates,
        strategy: str = "inline",
        expansion: int = 2,
        rwalks_walks: int = 8,
        rwalks_len: int = 4,
        rwalks_extra_degree: int = 4,
    ):
        if strategy not in FILTER_STRATEGIES:
            raise ValueError(
                f"unknown filter strategy {strategy!r}; "
                f"choose from {FILTER_STRATEGIES}"
            )
        if inner.computer is None or inner.graph is None:
            raise RuntimeError("wrap a *built* graph index")
        _check_cover(attrs, inner)
        self.inner = inner
        self.attrs = attrs
        self.predicates = list(predicates)
        self.strategy = strategy
        self.expansion = expansion
        self._current_query = 0
        # one exclude row per workload query: True = fails the predicate
        self._exclude = np.stack(
            [~p.mask(attrs) for p in self.predicates]
        ) if self.predicates else np.zeros((0, attrs.n), dtype=bool)
        self._aug_csr: CSRGraph | None = None
        if strategy == "rwalks":
            augmented = rwalks_augment(
                inner.graph,
                attrs.labels,
                n_walks=rwalks_walks,
                walk_len=rwalks_len,
                extra_degree=rwalks_extra_degree,
                seed=inner.seed,
            )
            self._aug_csr = CSRGraph.from_graph(augmented)

    # -- batch-engine protocol -----------------------------------------
    @property
    def seed(self) -> int:
        return self.inner.seed

    @property
    def computer(self):
        return self.inner.computer

    def seed_query_rng(self, query_index: int) -> None:
        """Forward to the wrapped index, remembering which query is next.

        The remembered index selects the query's predicate in
        :meth:`search`, keyed to the same global workload position the
        engine keys randomness to — so predicate selection is exactly as
        worker-count-invariant as seed selection.
        """
        self._current_query = int(query_index) % max(len(self.predicates), 1)
        self.inner.seed_query_rng(query_index)

    def shared_query_state(self) -> dict[str, np.ndarray]:
        state = dict(self.inner.shared_query_state())
        state["filter_exclude"] = self._exclude
        if self._aug_csr is not None:
            state["aug_indptr"] = self._aug_csr.indptr
            state["aug_indices"] = self._aug_csr.indices
        return state

    def attach_shared_query_state(self, arrays: dict[str, np.ndarray]) -> None:
        self.inner.attach_shared_query_state(arrays)
        self._exclude = arrays["filter_exclude"]
        if "aug_indptr" in arrays:
            self._aug_csr = CSRGraph(
                arrays["aug_indptr"], arrays["aug_indices"], validate=False
            )

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_exclude"] = None
        state["_aug_csr"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    # -- answering -----------------------------------------------------
    def search(
        self, query: np.ndarray, k: int = 10, beam_width: int | None = None
    ) -> SearchResult:
        """Answer the current query under its predicate.

        Call :meth:`seed_query_rng` first (the batch engine always does);
        it selects both the per-query randomness and the predicate.
        """
        return self._answer(
            query, k, beam_width, None, [self._current_query], "scalar"
        )[0]

    def search_batch(
        self,
        queries: np.ndarray,
        k: int = 10,
        beam_width: int | None = None,
        query_indices=None,
        kernel: str | None = None,
    ) -> list[SearchResult]:
        """Batched filtered search, bit-identical to per-query :meth:`search`.

        One call into the wrapped index's answer path: ``inline`` and
        ``rwalks`` pass the queries' predicate rows as exclude masks on the
        finished beams, ``acorn`` passes the same rows as the kernel's
        admit/expand policy, so a batch advances in lockstep with one
        segmented distance call per step (``scalar`` runs the per-query
        reference loops).
        """
        queries = np.atleast_2d(np.asarray(queries))
        indices = (
            np.arange(queries.shape[0], dtype=np.int64)
            if query_indices is None
            else np.asarray(query_indices, dtype=np.int64)
        )
        rows = indices % max(len(self.predicates), 1)
        return self._answer(
            queries, k, beam_width, indices, rows, resolve_backend(kernel)
        )

    def _answer(self, queries, k, beam_width, query_indices, rows, backend):
        """Route through the inner index's one answer path under ``rows``."""
        _check_cover(self.attrs, self.inner)
        if self.strategy == "acorn":
            return self.inner._answer(
                queries, k, beam_width, query_indices, backend,
                acorn=AcornExpansion(self._exclude, rows, self.expansion),
            )
        return self.inner._answer(
            queries, k, beam_width, query_indices, backend,
            exclude=[self._exclude[row] for row in rows], graph=self._aug_csr,
        )

    def memory_bytes(self) -> int:
        """Wrapped index bytes plus the filter layer's own structures."""
        extra = self._exclude.nbytes if self._exclude is not None else 0
        if self._aug_csr is not None:
            extra += self._aug_csr.memory_bytes()
        return self.inner.memory_bytes() + extra
