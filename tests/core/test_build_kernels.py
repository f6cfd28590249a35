"""Bit-identity property tests for the batched construction kernels.

The contract under test: for every backend, :func:`diversify_many` /
:func:`prune_merged_many` return exactly the edges the scalar strategies
would select, with identical ``PruneCounter`` totals and identical
``DistanceComputer.count`` charges.  The generators deliberately produce
the geometry that exposes last-ulp sensitivity — duplicate vectors
(distance ties and ``dist_q == 0``), duplicate candidate ids, and
``max_degree`` larger than the candidate pool.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.build_kernels import diversify_many, prune_merged_many
from repro.core.distances import DistanceComputer
from repro.core.diversification import DIVERSIFIERS, PruneCounter

# the lockstep kernel must reproduce the reference strategies; the scalar
# dispatch must BE them (the II builders' scalar path runs through it)
BACKENDS = ["python", "scalar"]

STRATEGIES = [
    ("nond", None),
    ("rnd", None),
    ("rrnd", {"alpha": 1.2}),
    ("rrnd", {"alpha": 1.0}),
    ("mond", {"theta_degrees": 60.0}),
    ("mond", {"theta_degrees": 0.0}),
]


def _dataset(rng, n, dim, n_dups):
    data = rng.standard_normal((n, dim)).astype(np.float32)
    for _ in range(n_dups):
        a, b = rng.integers(0, n, size=2)
        data[a] = data[b]  # exact ties and zero distances
    return data


def _scalar_reference(computer, requests, max_degree, strategy, params):
    stats = PruneCounter()
    mark = computer.checkpoint()
    base = DIVERSIFIERS[strategy]
    kept = [
        base(computer, ids, dists, max_degree, stats=stats, **(params or {}))
        for ids, dists in requests
    ]
    return kept, stats, computer.since(mark)


@pytest.mark.parametrize("strategy,params", STRATEGIES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_diversify_many_matches_scalar(strategy, params, backend):
    rng = np.random.default_rng(17)
    data = _dataset(rng, 80, 6, n_dups=6)
    computer = DistanceComputer(data)
    requests = []
    for _ in range(12):
        m = int(rng.integers(0, 30))
        ids = rng.integers(0, 80, size=m)  # duplicates likely
        dists = computer.one_to_many(int(rng.integers(0, 80)), ids)
        requests.append((ids.astype(np.int64), dists))
    for max_degree in (1, 4, 64):  # 64 > every candidate-list length
        ref_kept, ref_stats, ref_calls = _scalar_reference(
            computer, requests, max_degree, strategy, params
        )
        stats = PruneCounter()
        mark = computer.checkpoint()
        with np.errstate(all="ignore"):
            kept = diversify_many(
                computer, requests, max_degree, strategy,
                params=params, stats=stats, backend=backend,
            )
        assert computer.since(mark) == ref_calls
        assert (stats.examined, stats.rejected) == (
            ref_stats.examined, ref_stats.rejected,
        )
        assert len(kept) == len(ref_kept)
        for got, want in zip(kept, ref_kept):
            np.testing.assert_array_equal(got, np.asarray(want, dtype=np.int64))


@given(
    seed=st.integers(0, 2**32 - 1),
    max_degree=st.integers(1, 12),
    strat=st.sampled_from(["rnd", "rrnd", "mond", "nond"]),
)
@settings(max_examples=40, deadline=None)
def test_diversify_many_property(seed, max_degree, strat):
    """Randomized adversarial geometry: every backend replays the scalar run."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 40))
    data = _dataset(rng, n, 4, n_dups=int(rng.integers(0, 4)))
    computer = DistanceComputer(data)
    params = (
        {"alpha": float(rng.choice([1.0, 1.1, 1.5]))}
        if strat == "rrnd"
        else {"theta_degrees": float(rng.choice([30.0, 60.0, 90.0]))}
        if strat == "mond"
        else None
    )
    requests = []
    for _ in range(int(rng.integers(1, 6))):
        m = int(rng.integers(0, 2 * n))
        ids = rng.integers(0, n, size=m).astype(np.int64)
        dists = computer.one_to_many(int(rng.integers(0, n)), ids)
        requests.append((ids, dists))
    ref_kept, ref_stats, ref_calls = _scalar_reference(
        computer, requests, max_degree, strat, params
    )
    for backend in BACKENDS:
        stats = PruneCounter()
        mark = computer.checkpoint()
        kept = diversify_many(
            computer, requests, max_degree, strat,
            params=params, stats=stats, backend=backend,
        )
        assert computer.since(mark) == ref_calls
        assert (stats.examined, stats.rejected) == (
            ref_stats.examined, ref_stats.rejected,
        )
        for got, want in zip(kept, ref_kept):
            np.testing.assert_array_equal(got, np.asarray(want, dtype=np.int64))


@pytest.mark.parametrize("backend", BACKENDS)
def test_prune_merged_many_matches_scalar(backend):
    rng = np.random.default_rng(23)
    data = _dataset(rng, 60, 5, n_dups=4)
    computer = DistanceComputer(data)
    owners = [int(o) for o in rng.integers(0, 60, size=8)]
    merged = [
        rng.integers(0, 60, size=int(rng.integers(0, 20))).astype(np.int64)
        for _ in owners
    ]
    ref_stats = PruneCounter()
    mark = computer.checkpoint()
    ref = []
    for owner, m in zip(owners, merged):
        dists = computer.one_to_many(owner, m)
        ref.append(DIVERSIFIERS["rrnd"](
            computer, m, dists, 6, alpha=1.2, stats=ref_stats
        ))
    ref_calls = computer.since(mark)
    stats = PruneCounter()
    mark = computer.checkpoint()
    kept = prune_merged_many(
        computer, owners, merged, 6, "rrnd",
        params={"alpha": 1.2}, stats=stats, backend=backend,
    )
    assert computer.since(mark) == ref_calls
    assert (stats.examined, stats.rejected) == (
        ref_stats.examined, ref_stats.rejected,
    )
    for got, want in zip(kept, ref):
        np.testing.assert_array_equal(got, np.asarray(want, dtype=np.int64))


def test_strategy_validation():
    rng = np.random.default_rng(0)
    computer = DistanceComputer(rng.standard_normal((10, 3)).astype(np.float32))
    with pytest.raises(KeyError):
        diversify_many(computer, [], 4, "nope")
    with pytest.raises(TypeError):
        diversify_many(computer, [], 4, "rnd", params={"alpha": 1.2})
    with pytest.raises(ValueError):
        diversify_many(computer, [], 4, "rrnd", params={"alpha": 0.5})
    with pytest.raises(ValueError):
        diversify_many(computer, [], 4, "mond", params={"theta_degrees": 200.0})
    with pytest.raises(ValueError):
        prune_merged_many(computer, [1, 2], [np.arange(2)], 4, "rnd")


def test_bound_diversifier_forwards_stats():
    """get_diversifier(name, **params) must thread ``stats`` through.

    Regression: the bound wrapper used to swallow the ``stats`` argument, so
    every rrnd(alpha)/mond(theta) build reported a zero pruning ratio in the
    Table 1 reproduction.
    """
    from repro.core.diversification import get_diversifier

    rng = np.random.default_rng(3)
    data = rng.standard_normal((40, 4)).astype(np.float32)
    computer = DistanceComputer(data)
    ids = np.arange(1, 30, dtype=np.int64)
    dists = computer.one_to_many(0, ids)
    for name, params in [
        ("rrnd", {"alpha": 1.05}),
        ("mond", {"theta_degrees": 85.0}),
    ]:
        bound = get_diversifier(name, **params)
        stats = PruneCounter()
        bound(computer, ids, dists, 4, stats=stats)
        assert stats.examined > 0
        # identical totals to calling the base strategy directly
        direct = PruneCounter()
        DIVERSIFIERS[name](computer, ids, dists, 4, stats=direct, **params)
        assert (stats.examined, stats.rejected) == (
            direct.examined, direct.rejected,
        )


@pytest.mark.parametrize("div,params", [
    ("rnd", None),
    ("rrnd", {"alpha": 1.2}),
    ("mond", {"theta_degrees": 60.0}),
    ("nond", None),
])
def test_builders_bit_identical_across_kernels(div, params):
    """End-to-end: both II builders produce identical graphs/stats/charges
    under every kernel backend (the strongest bit-identity test: insertion
    amplifies any single flipped accept decision into a different graph)."""
    from repro.core.batch_build import build_ii_graph_batched
    from repro.core.incremental import build_ii_graph

    rng = np.random.default_rng(7)
    data = rng.standard_normal((180, 8)).astype(np.float32)
    data[5] = data[120]  # duplicate vector: ties + dist_q == 0 mid-build

    def fingerprint(result):
        indptr, indices = result.graph.to_csr()
        return (
            indptr.tobytes(), indices.tobytes(), result.distance_calls,
            result.prune_stats.examined, result.prune_stats.rejected,
        )

    runs = {}
    for kern in ("scalar", "python"):
        seq = build_ii_graph(
            DistanceComputer(data), max_degree=6, beam_width=12,
            diversify=div, diversify_params=params,
            rng=np.random.default_rng(1), kernel=kern,
        )
        bat = build_ii_graph_batched(
            DistanceComputer(data), max_degree=6, beam_width=12,
            diversify=div, diversify_params=params,
            rng=np.random.default_rng(1), kernel=kern,
        )
        runs[("seq", kern)] = fingerprint(seq)
        runs[("batch", kern)] = fingerprint(bat)
    assert runs[("seq", "python")] == runs[("seq", "scalar")]
    assert runs[("batch", "python")] == runs[("batch", "scalar")]
