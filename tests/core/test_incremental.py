"""Unit tests for the II builder apparatus and its build seed providers.

Both II builders write edges through ``repro.core.refine.insert_round``.
The reference models below are literal transcriptions of the loops it
replaced — the sequential builder's one scalar prune per list
(:func:`per_node_ii`) and the batched builder's per-node merge of each
frozen round (:func:`per_round_ii`) — and both builders must equal them bit
for bit: adjacency, distance calls and prune stats.  ``kernel=None``
follows ``$REPRO_KERNEL`` (``python`` in tier-1); CI's bench-smoke matrix
runs this module once per backend.
"""

import numpy as np
import pytest

from repro.core.batch_build import build_ii_graph_batched, plan_rounds
from repro.core.beam_search import batch_point_beam_search, beam_search
from repro.core.distances import DistanceComputer
from repro.core.diversification import PruneCounter, get_diversifier, rnd
from repro.core.graph import Graph
from repro.core.incremental import (
    RandomBuildSeeds,
    StackedNSWBuildSeeds,
    build_ii_graph,
)

BUILDERS = pytest.mark.parametrize(
    "builder", [build_ii_graph, build_ii_graph_batched], ids=["sequential", "batched"]
)


@pytest.fixture()
def computer(small_data):
    return DistanceComputer(small_data)


def test_build_produces_connected_enough_graph(computer):
    result = build_ii_graph(
        computer, max_degree=8, beam_width=24, rng=np.random.default_rng(0)
    )
    graph = result.graph
    assert graph.n == computer.n
    # II graphs with bidirectional edges should reach nearly all nodes
    reachable = graph.reachable_from(0).sum()
    assert reachable > 0.95 * computer.n


def test_degree_cap_respected(computer):
    result = build_ii_graph(
        computer, max_degree=6, beam_width=24, rng=np.random.default_rng(0)
    )
    assert result.graph.degrees().max() <= 6


def test_nond_overflow_disabled_grows_degrees(computer):
    capped = build_ii_graph(
        computer, max_degree=6, beam_width=24, diversify="nond",
        rng=np.random.default_rng(0),
    )
    uncapped = build_ii_graph(
        computer, max_degree=6, beam_width=24, diversify="nond",
        rng=np.random.default_rng(0), prune_overflow=False,
    )
    assert uncapped.graph.degrees().max() > capped.graph.degrees().max()


def test_distance_calls_recorded(computer):
    result = build_ii_graph(
        computer, max_degree=6, beam_width=16, rng=np.random.default_rng(0)
    )
    assert result.distance_calls > computer.n  # at least one search per node


def test_prune_stats_populated_for_rnd(computer):
    result = build_ii_graph(
        computer, max_degree=6, beam_width=24, diversify="rnd",
        rng=np.random.default_rng(0),
    )
    assert result.prune_stats.examined > 0
    assert 0 <= result.prune_stats.ratio() < 1


def test_rrnd_prunes_less_than_rnd(computer):
    """Table 1's ordering: RND > MOND > RRND pruning ratios."""
    ratios = {}
    for name, params in [
        ("rnd", {}),
        ("mond", {"theta_degrees": 60.0}),
        ("rrnd", {"alpha": 1.3}),
    ]:
        result = build_ii_graph(
            computer, max_degree=6, beam_width=24, diversify=name,
            rng=np.random.default_rng(0), diversify_params=params,
        )
        ratios[name] = result.prune_stats.ratio()
    assert ratios["rnd"] > ratios["mond"] > ratios["rrnd"]


def test_searchable_after_build(computer, tiny_queries):
    result = build_ii_graph(
        computer, max_degree=8, beam_width=24, rng=np.random.default_rng(0)
    )
    hits = 0
    for q in tiny_queries:
        gt, _ = computer.exact_knn(q, 5)
        res = beam_search(result.graph, computer, q, [0], k=5, beam_width=40)
        hits += len(set(gt.tolist()) & set(res.ids.tolist()))
    assert hits / (5 * len(tiny_queries)) > 0.8


def test_insertion_order_respected(computer):
    order = np.arange(computer.n)[::-1].copy()
    result = build_ii_graph(
        computer, max_degree=6, beam_width=16,
        rng=np.random.default_rng(0), insertion_order=order,
    )
    assert result.graph.n == computer.n


def test_random_build_seeds_validation():
    with pytest.raises(ValueError):
        RandomBuildSeeds(0)


def test_sn_build_seeds_costs_more_than_ks(computer):
    """Table 2: the SN-based build performs more distance calculations."""
    comp_a = DistanceComputer(computer.data)
    ks = build_ii_graph(
        comp_a, max_degree=8, beam_width=24,
        rng=np.random.default_rng(1), build_seeds=RandomBuildSeeds(n_seeds=4),
    )
    comp_b = DistanceComputer(computer.data)
    sn = build_ii_graph(
        comp_b, max_degree=8, beam_width=24,
        rng=np.random.default_rng(1),
        build_seeds=StackedNSWBuildSeeds(max_degree=8),
    )
    assert sn.distance_calls > ks.distance_calls


def test_sn_provider_maintains_layers(computer):
    provider = StackedNSWBuildSeeds(max_degree=8)
    build_ii_graph(
        computer, max_degree=8, beam_width=16,
        rng=np.random.default_rng(2), build_seeds=provider,
    )
    assert provider.entry is not None
    assert provider.memory_bytes() >= 0


def test_sn_provider_validation():
    with pytest.raises(ValueError):
        StackedNSWBuildSeeds(max_degree=1)


def test_single_point_dataset():
    computer = DistanceComputer(np.zeros((1, 4), dtype=np.float32))
    result = build_ii_graph(computer, max_degree=4, beam_width=8)
    assert result.graph.n == 1
    assert result.graph.degree(0) == 0


def test_two_point_dataset():
    computer = DistanceComputer(
        np.array([[0.0, 0.0], [1.0, 1.0]], dtype=np.float32)
    )
    result = build_ii_graph(computer, max_degree=4, beam_width=8)
    assert result.graph.degree(0) + result.graph.degree(1) >= 2


# ----------------------------------------------------------------------
# stats-signature detection for custom diversifiers
# ----------------------------------------------------------------------
def test_custom_diversifier_internal_typeerror_propagates(computer):
    """A stats-accepting diversifier whose own body raises TypeError.

    Signature detection must use introspection, not try/except around the
    call: probing with ``stats=`` and falling back on TypeError would
    silently swallow this bug (and double-call the diversifier).
    """

    def broken(comp, cand_ids, cand_dists, max_degree, stats=None):
        raise TypeError("bug inside the diversifier body")

    with pytest.raises(TypeError, match="bug inside"):
        build_ii_graph(
            computer, max_degree=8, beam_width=16, diversify=broken,
            rng=np.random.default_rng(0),
        )


def test_custom_diversifier_without_stats_still_counted(computer):
    calls = []

    def plain(comp, cand_ids, cand_dists, max_degree):
        calls.append(len(cand_ids))
        order = np.argsort(cand_dists, kind="stable")
        return cand_ids[order][:max_degree]

    result = build_ii_graph(
        computer, max_degree=8, beam_width=16, diversify=plain,
        rng=np.random.default_rng(0),
    )
    assert calls, "custom diversifier was never invoked"
    # the estimated pruning accounting still accumulates
    assert result.prune_stats.examined > 0


def test_custom_diversifier_with_kwargs_receives_stats(computer):
    seen = []

    def kwargs_style(comp, cand_ids, cand_dists, max_degree, **extra):
        seen.append("stats" in extra)
        order = np.argsort(cand_dists, kind="stable")
        return cand_ids[order][:max_degree]

    build_ii_graph(
        computer, max_degree=8, beam_width=16, diversify=kwargs_style,
        rng=np.random.default_rng(0),
    )
    # primary prunes use the bare 4-arg call; overflow re-prunes go through
    # the stats path and must land in **extra for a VAR_KEYWORD diversifier
    assert seen and any(seen), "VAR_KEYWORD diversifier never received stats"


# ----------------------------------------------------------------------
# insertion orders
# ----------------------------------------------------------------------
@BUILDERS
@pytest.mark.parametrize("shape", ["duplicate", "short", "long"])
def test_insertion_order_must_be_a_permutation(builder, shape):
    """A repeated, missing or extra id used to isolate nodes, re-insert one,
    or fail with a bare IndexError, depending on the builder."""
    data = np.random.default_rng(0).standard_normal((50, 4)).astype(np.float32)
    order = np.arange(50)
    if shape == "duplicate":
        order[7] = order[3]
    elif shape == "short":
        order = order[:40]
    else:
        order = np.append(order, 0)
    with pytest.raises(ValueError, match="permutation"):
        builder(
            DistanceComputer(data), max_degree=6, beam_width=8,
            insertion_order=order,
        )


# ----------------------------------------------------------------------
# reference models: the loops insert_round replaced
# ----------------------------------------------------------------------
def _link(graph, computer, node, kept, max_degree, diversifier, stats):
    """Forward list, then one back-edge per kept neighbour, scalar re-prune."""
    graph.set_neighbors(node, kept)
    for nbr in kept:
        nbr = int(nbr)
        merged = np.concatenate([graph.neighbors(nbr), [node]])
        if merged.size > max_degree:
            dists_nbr = computer.one_to_many(nbr, merged)
            merged = diversifier(computer, merged, dists_nbr, max_degree, stats=stats)
        graph.set_neighbors(nbr, merged)


def per_node_ii(computer, max_degree, beam_width, diversify, params, rng, build_seeds):
    """The sequential II loop: one ``beam_search`` and scalar prunes per node."""
    graph = Graph(computer.n)
    stats = PruneCounter()
    diversifier = get_diversifier(diversify, **(params or {}))
    mark = computer.checkpoint()
    inserted: list[int] = []
    visited_mask = np.zeros(computer.n, dtype=bool)
    for node in rng.permutation(computer.n):
        node = int(node)
        if inserted:
            seeds = build_seeds.seeds_for(node, inserted, computer, rng)
            width = min(beam_width, max(8, len(inserted)))
            result = beam_search(
                graph, computer, computer.data[node], seeds,
                k=min(width, len(inserted)), beam_width=width,
                visited_mask=visited_mask,
            )
            kept = diversifier(computer, result.ids, result.dists, max_degree)
            _link(graph, computer, node, kept, max_degree, diversifier, stats)
        inserted.append(node)
        build_seeds.on_insert(node, computer, rng)
    return graph, computer.since(mark), stats


def per_round_ii(computer, max_degree, beam_width, diversify, params, rng, build_seeds):
    """The batched II loop: frozen-prefix searches, then a per-node merge."""
    graph = Graph(computer.n)
    stats = PruneCounter()
    diversifier = get_diversifier(diversify, **(params or {}))
    mark = computer.checkpoint()
    order = rng.permutation(computer.n)
    base_seed = int(rng.integers(np.iinfo(np.int64).max))
    inserted = [int(order[0])]
    build_seeds.on_insert(inserted[0], computer, np.random.default_rng((base_seed, 0)))
    for start, stop in plan_rounds(computer.n):
        nodes = [int(node) for node in order[start:stop]]
        rngs = [np.random.default_rng((base_seed, rank)) for rank in range(start, stop)]
        seeds = [
            build_seeds.seeds_for(node, inserted, computer, node_rng)
            for node, node_rng in zip(nodes, rngs)
        ]
        width = min(beam_width, max(8, start))
        results = batch_point_beam_search(
            graph, computer, nodes, seeds, min(width, start), width
        )
        kept_per_node = [
            diversifier(computer, r.ids, r.dists, max_degree) for r in results
        ]
        for node, node_rng, kept in zip(nodes, rngs, kept_per_node):
            _link(graph, computer, node, kept, max_degree, diversifier, stats)
            inserted.append(node)
            build_seeds.on_insert(node, computer, node_rng)
    return graph, computer.since(mark), stats


def _fingerprint(graph, distance_calls, stats):
    indptr, indices = graph.to_csr()
    return indptr.tolist(), indices.tolist(), distance_calls, stats.examined, stats.rejected


@pytest.fixture(scope="module")
def dup_data():
    data = np.random.default_rng(7).standard_normal((100, 8)).astype(np.float32)
    data[5] = data[70]  # duplicate vector: ties and dist_q == 0 mid-build
    return data


STRATEGIES = [
    ("rnd", None),
    ("rrnd", {"alpha": 1.2}),
    ("mond", {"theta_degrees": 60.0}),
    ("nond", None),
]
SEED_PROVIDERS = {
    "KS": lambda: RandomBuildSeeds(n_seeds=4),
    "SN": lambda: StackedNSWBuildSeeds(max_degree=6),
}


@pytest.mark.parametrize("kernel", [None, "scalar"])
@pytest.mark.parametrize("seeds", sorted(SEED_PROVIDERS))
@pytest.mark.parametrize("diversify,params", STRATEGIES)
@pytest.mark.parametrize(
    "builder,reference",
    [(build_ii_graph, per_node_ii), (build_ii_graph_batched, per_round_ii)],
    ids=["sequential", "batched"],
)
def test_builders_equal_reference_loops(
    builder, reference, diversify, params, seeds, kernel, dup_data
):
    expected = reference(
        DistanceComputer(dup_data), 6, 12, diversify, params,
        np.random.default_rng(1), SEED_PROVIDERS[seeds](),
    )
    built = builder(
        DistanceComputer(dup_data), max_degree=6, beam_width=12,
        diversify=diversify, diversify_params=params,
        rng=np.random.default_rng(1), build_seeds=SEED_PROVIDERS[seeds](),
        kernel=kernel,
    )
    assert _fingerprint(built.graph, built.distance_calls, built.prune_stats) == (
        _fingerprint(*expected)
    )


@BUILDERS
def test_stats_callable_matches_named_strategy(builder, dup_data):
    """A callable goes through insert_round's per-request branch; wrapping
    the named strategy must not change graph, charges or prune stats."""

    def wrapped(comp, cand_ids, cand_dists, max_degree, stats=None):
        return rnd(comp, cand_ids, cand_dists, max_degree, stats=stats)

    runs = [
        builder(
            DistanceComputer(dup_data), max_degree=6, beam_width=12,
            diversify=diversify, rng=np.random.default_rng(1),
        )
        for diversify in ("rnd", wrapped)
    ]
    named, custom = (
        _fingerprint(run.graph, run.distance_calls, run.prune_stats) for run in runs
    )
    assert custom == named
