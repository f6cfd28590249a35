"""Tests for the filtered-search layer: strategies, padding, determinism.

The load-bearing contracts:

* every strategy returns exactly ``k`` answer slots, none of which violate
  the query's predicate (real answers pass, shortfall slots are sentinel
  padding);
* the inline strategy's traversal is predicate-invariant (identical hops
  and distance calls to the unfiltered search);
* answers, distance counts, and hop counts are bit-identical across
  kernel backends and worker counts;
* filtered ground truth is deterministic across processes (PR 5
  CRC-seeding discipline);
* the layer composes with the streaming tier: predicate masks and
  tombstones OR together, so no strategy returns a deleted id;
* every strategy answers through the wrapped index's standard Algorithm-1
  path, whatever search override the method carries.

``kernel=None`` follows ``$REPRO_KERNEL``; CI's filtered-smoke matrix runs
this module once per backend.
"""

import numpy as np
import pytest

from repro.core.beam_search import beam_search
from repro.core.distances import DistanceComputer
from repro.core.filtered import (
    FILTER_STRATEGIES,
    FilteredIndex,
    acorn_beam_search,
    rwalks_augment,
)
from repro.core.graph import Graph
from repro.core.kernels import AcornExpansion, batch_search
from repro.core.streaming import StreamingIndex
from repro.datasets.attributes import point_attributes, query_predicates
from repro.datasets.synthetic import generate
from repro.eval.metrics import filtered_ground_truth, recall
from repro.eval.parallel import run_batch
from repro.indexes import create_index


N, N_QUERIES, K, WIDTH = 600, 10, 10, 48


@pytest.fixture(scope="module")
def world():
    data = generate("sift", N + N_QUERIES, seed=2)
    queries = data[N:]
    data = data[:N]
    attrs = point_attributes("sift", N, seed=2)
    inner = create_index("HNSW", seed=7).build(data)
    return data, queries, attrs, inner


def _filtered(world, spec, strategy):
    data, queries, attrs, inner = world
    preds = query_predicates("sift", N_QUERIES, spec, seed=2)
    fi = FilteredIndex(inner, attrs, preds, strategy=strategy)
    allow = [p.mask(attrs) for p in preds]
    return fi, preds, allow


@pytest.mark.parametrize("strategy", FILTER_STRATEGIES)
@pytest.mark.parametrize("spec", [0.15, 0.6])
def test_answers_satisfy_predicate_and_pad_to_k(world, strategy, spec):
    data, queries, attrs, inner = world
    fi, preds, allow = _filtered(world, spec, strategy)
    for j, query in enumerate(queries):
        fi.seed_query_rng(j)
        result = fi.search(query, k=K, beam_width=WIDTH)
        assert result.ids.shape == (K,)
        assert result.dists.shape == (K,)
        valid = result.ids[result.ids >= 0]
        assert valid.size == result.n_valid
        assert allow[j][valid].all(), (
            f"{strategy}: answer violates predicate at query {j}"
        )
        # padding, if any, sits at the tail with inf distances
        assert np.all(np.isinf(result.dists[result.n_valid:]))
        assert np.all(np.diff(result.dists[: result.n_valid]) >= 0)


def test_inline_traversal_is_predicate_invariant(world):
    """The inline strategy's mask touches only beam finalization: hops and
    distance calls equal the unfiltered search's exactly."""
    data, queries, attrs, inner = world
    fi, _, _ = _filtered(world, 0.3, "inline")
    for j, query in enumerate(queries):
        inner.seed_query_rng(j)
        plain = inner.search(query, k=K, beam_width=WIDTH)
        fi.seed_query_rng(j)
        masked = fi.search(query, k=K, beam_width=WIDTH)
        assert masked.hops == plain.hops
        assert masked.distance_calls == plain.distance_calls


@pytest.mark.parametrize("strategy", FILTER_STRATEGIES)
def test_bit_identical_across_kernels_and_workers(world, strategy, monkeypatch):
    data, queries, attrs, inner = world
    fi, _, _ = _filtered(world, 0.25, strategy)
    # count the lockstep kernel's one distance call per step, so the test
    # cannot pass by the "python" side quietly running the scalar loop too
    segmented_calls = []
    segmented = DistanceComputer.to_queries_segmented

    def counting(self, *args, **kwargs):
        segmented_calls.append(1)
        return segmented(self, *args, **kwargs)

    monkeypatch.setattr(DistanceComputer, "to_queries_segmented", counting)
    base = run_batch(fi, queries, k=K, beam_width=WIDTH, n_workers=1, kernel="python")
    steps = len(segmented_calls)
    # every lane pops once per step: seed call + one call per lockstep step
    assert 1 < steps <= 1 + max(o.hops for o in base.outcomes)
    scalar = run_batch(fi, queries, k=K, beam_width=WIDTH, n_workers=1, kernel="scalar")
    assert len(segmented_calls) == steps, "the scalar run entered the kernel"
    runs = [
        scalar,
        run_batch(fi, queries, k=K, beam_width=WIDTH, n_workers=2, kernel="python"),
        run_batch(fi, queries, k=K, beam_width=WIDTH, n_workers=2, kernel="scalar"),
    ]
    for other in runs:
        for a, b in zip(base.outcomes, other.outcomes):
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.dists, b.dists)
            assert a.distance_calls == b.distance_calls
            assert a.hops == b.hops


def test_acorn_widens_past_failing_seeds():
    """Regression: a passing node more than ``expansion`` hops behind a
    failing seed was never reached — the widening loop restarted from the
    seeds, whose neighbors were already visited, and gave up at once."""
    n = 8
    path = Graph(n)
    for node in range(n):
        path.set_neighbors(node, [v for v in (node - 1, node + 1) if 0 <= v < n])
    data = np.arange(n, dtype=np.float32)[:, None] * np.ones((1, 2), np.float32)
    computer = DistanceComputer(data)
    for targets in ([3], [4], [6], []):
        allow = np.zeros(n, dtype=bool)
        allow[targets] = True
        scalar = acorn_beam_search(
            path, computer, data[0], [0], 1, 4, allow, expansion=2
        )
        (kernel,) = batch_search(
            path, computer, data[:1], [[0]], k=1, beam_width=4, backend="python",
            acorn=AcornExpansion(~allow[None, :], [0], expansion=2),
        )
        for result in (scalar, kernel):
            assert result.ids.tolist() == (targets or [-1])
            assert result.hops == len(targets)
            assert result.distance_calls == len(targets)


def test_inline_recall_near_exact_at_permissive_specificity(world):
    """ISSUE acceptance: at specificity >= 0.5 the inline strategy loses
    < 2 recall points vs filtered brute force at a wide beam."""
    data, queries, attrs, inner = world
    fi, preds, allow = _filtered(world, 0.6, "inline")
    truth, _ = filtered_ground_truth(data, queries, K, allow)
    result = run_batch(fi, queries, k=K, beam_width=120, n_workers=1)
    recalls = [recall(o.ids, truth[j]) for j, o in enumerate(result.outcomes)]
    assert float(np.mean(recalls)) > 0.98


def test_acorn_beats_inline_at_selective_specificity(world):
    """The point of multi-hop expansion: when the predicate filters out
    most of the graph, routing through failing nodes reaches passing
    points the drained inline beam misses."""
    data, queries, attrs, inner = world
    spec = 0.05
    fi_inline, preds, allow = _filtered(world, spec, "inline")
    fi_acorn, _, _ = _filtered(world, spec, "acorn")
    truth, _ = filtered_ground_truth(data, queries, K, allow)
    r_inline = run_batch(fi_inline, queries, k=K, beam_width=WIDTH, n_workers=1)
    r_acorn = run_batch(fi_acorn, queries, k=K, beam_width=WIDTH, n_workers=1)
    inline_rec = np.mean(
        [recall(o.ids, truth[j]) for j, o in enumerate(r_inline.outcomes)]
    )
    acorn_rec = np.mean(
        [recall(o.ids, truth[j]) for j, o in enumerate(r_acorn.outcomes)]
    )
    assert acorn_rec >= inline_rec


def test_filtered_index_validation(world):
    data, queries, attrs, inner = world
    preds = query_predicates("sift", N_QUERIES, 0.5, seed=2)
    with pytest.raises(ValueError, match="strategy"):
        FilteredIndex(inner, attrs, preds, strategy="nope")
    short_attrs = point_attributes("sift", N - 1, seed=2)
    with pytest.raises(ValueError, match="cover"):
        FilteredIndex(inner, short_attrs, preds)
    unbuilt = create_index("HNSW", seed=7)
    with pytest.raises(RuntimeError, match="built"):
        FilteredIndex(unbuilt, attrs, preds)


def test_acorn_pads_when_nothing_passes(world):
    data, queries, attrs, inner = world
    allow = np.zeros(N, dtype=bool)
    inner.seed_query_rng(0)
    seeds = inner._query_seeds(queries[0])
    result = acorn_beam_search(
        inner.graph, inner.computer, queries[0], seeds, K, WIDTH, allow
    )
    assert result.ids.shape == (K,)
    assert result.n_valid == 0
    assert np.all(result.ids == -1)


def test_acorn_validation(world):
    data, queries, attrs, inner = world
    allow = np.ones(N, dtype=bool)
    with pytest.raises(ValueError, match="beam_width"):
        acorn_beam_search(
            inner.graph, inner.computer, queries[0], [0], 5, 3, allow
        )
    with pytest.raises(ValueError, match="expansion"):
        acorn_beam_search(
            inner.graph, inner.computer, queries[0], [0], 2, 8, allow,
            expansion=0,
        )


def test_rwalks_augment_properties(world):
    data, queries, attrs, inner = world
    augmented = rwalks_augment(
        inner.graph, attrs.labels, n_walks=4, walk_len=3, extra_degree=3,
        seed=7,
    )
    base_degrees = inner.graph.degrees()
    aug_degrees = augmented.degrees()
    # edges are only added, never removed, and growth is bounded
    assert np.all(aug_degrees >= base_degrees)
    assert np.all(aug_degrees <= base_degrees + 3)
    # every added edge links same-label nodes
    for node in range(0, N, 17):
        base = set(inner.graph.neighbors(node).tolist())
        added = [
            v for v in augmented.neighbors(node).tolist() if v not in base
        ]
        for v in added:
            assert attrs.labels[v] == attrs.labels[node]
    # deterministic: same inputs, same graph bytes
    again = rwalks_augment(
        inner.graph, attrs.labels, n_walks=4, walk_len=3, extra_degree=3,
        seed=7,
    )
    for node in range(N):
        assert np.array_equal(augmented.neighbors(node), again.neighbors(node))
    # the base graph is untouched
    assert np.array_equal(inner.graph.degrees(), base_degrees)


def test_rwalks_augment_validation(world):
    data, queries, attrs, inner = world
    with pytest.raises(ValueError, match="n_walks"):
        rwalks_augment(inner.graph, attrs.labels, n_walks=0)
    with pytest.raises(ValueError, match="extra_degree"):
        rwalks_augment(inner.graph, attrs.labels, extra_degree=-1)
    with pytest.raises(ValueError, match="labels"):
        rwalks_augment(inner.graph, attrs.labels[:-1])


def _same_answers(a, b):
    assert np.array_equal(a.ids, b.ids)
    assert np.array_equal(a.dists, b.dists)
    assert a.hops == b.hops
    assert a.distance_calls == b.distance_calls


@pytest.fixture(scope="module")
def churned(world):
    """A streaming index over the world's points with every other id deleted."""
    data, _, attrs, _ = world
    stream = StreamingIndex(seed=1).build(data)
    stream.delete(np.arange(0, N, 2))
    return stream, generate("sift", 20, seed=11), attrs


@pytest.mark.parametrize("strategy", FILTER_STRATEGIES)
def test_filters_compose_with_tombstones(churned, strategy):
    """Regression: each strategy owned its own loop and dropped the streaming
    index's tombstones, so half the answers were deleted ids."""
    stream, queries, attrs = churned
    preds = query_predicates("sift", len(queries), 0.5, seed=2)
    fi = FilteredIndex(stream, attrs, preds, strategy=strategy)
    legs = [
        fi.search_batch(queries, k=K, beam_width=WIDTH, kernel=kernel)
        for kernel in (None, "python", "scalar")
    ]
    single = []
    for j, query in enumerate(queries):
        fi.seed_query_rng(j)
        single.append(fi.search(query, k=K, beam_width=WIDTH))
    legs.append(single)
    for workers in (1, 2):
        run = run_batch(fi, queries, k=K, beam_width=WIDTH, n_workers=workers)
        legs.append(run.outcomes)
    answered = 0
    for j, result in enumerate(legs[0]):
        valid = result.ids[result.ids >= 0]
        answered += valid.size
        assert not stream._tombstone[valid].any(), f"{strategy}: tombstone at query {j}"
        assert preds[j].mask(attrs)[valid].all()
    assert answered > K * len(queries) // 2
    for leg in legs[1:]:
        for a, b in zip(legs[0], leg):
            _same_answers(a, b)


def test_streaming_search_ors_exclude_mask_with_tombstones(churned):
    stream, queries, _ = churned
    exclude = np.zeros(N, dtype=bool)
    exclude[1::4] = True
    both = exclude | stream._tombstone
    for j, query in enumerate(queries[:5]):
        stream.seed_query_rng(j)
        result = stream.search(query, k=K, beam_width=WIDTH, exclude_mask=exclude)
        stream.seed_query_rng(j)
        seeds = stream._query_seeds(query)
        expected = beam_search(
            stream.graph, stream.computer, query, seeds, k=K, beam_width=WIDTH,
            exclude_mask=both,
        )
        _same_answers(result, expected)
        assert not both[result.ids[result.ids >= 0]].any()


@pytest.fixture(scope="module")
def grown(world):
    """Filtered wrappers whose streaming index grew past the attributes."""
    data, queries, attrs, _ = world
    stream = StreamingIndex(seed=1).build(data)
    preds = query_predicates("sift", N_QUERIES, 0.5, seed=2)
    wrapped = {
        strategy: FilteredIndex(stream, attrs, preds, strategy=strategy)
        for strategy in FILTER_STRATEGIES
    }
    stream.insert(queries[:3])
    return wrapped, queries


@pytest.mark.parametrize("strategy", FILTER_STRATEGIES)
@pytest.mark.parametrize(
    "entry, kernel",
    [("search", None)]
    + [(entry, kernel) for entry in ("search_batch", "run_batch")
       for kernel in ("python", "scalar")],
)
def test_grown_index_raises_one_clear_error(grown, strategy, entry, kernel):
    wrapped, queries = grown
    fi = wrapped[strategy]
    message = f"attributes cover {N} points but the index holds {N + 3}"
    with pytest.raises(ValueError, match=message):
        if entry == "search":
            fi.seed_query_rng(0)
            fi.search(queries[0], k=K, beam_width=WIDTH)
        elif entry == "search_batch":
            fi.search_batch(queries, k=K, beam_width=WIDTH, kernel=kernel)
        else:
            run_batch(fi, queries, k=K, beam_width=WIDTH, kernel=kernel)


@pytest.fixture(scope="module")
def lshapg(world):
    data, _, _, _ = world
    index = create_index("LSHAPG", seed=7).build(data)
    assert index.probabilistic_routing
    return index


@pytest.mark.parametrize("strategy", FILTER_STRATEGIES)
def test_search_overrides_do_not_apply_under_a_filter(world, lshapg, strategy):
    """LSHAPG's probabilistic routing overrides search(); under a filter it
    answers through the standard Algorithm-1 path at both backends."""
    _, queries, attrs, _ = world
    preds = query_predicates("sift", N_QUERIES, 0.3, seed=2)
    fi = FilteredIndex(lshapg, attrs, preds, strategy=strategy)
    runs = [
        run_batch(fi, queries, k=K, beam_width=WIDTH, kernel=kernel).outcomes
        for kernel in ("python", "scalar")
    ]
    for a, b in zip(*runs):
        _same_answers(a, b)
    assert all(o.ids[0] >= 0 for o in runs[0])


@pytest.mark.parametrize("kernel", ["python", "scalar"])
def test_filter_over_elpis_raises_the_same_error(world, kernel):
    data, queries, attrs, _ = world
    elpis = create_index("ELPIS", seed=7).build(data)
    preds = query_predicates("sift", N_QUERIES, 0.3, seed=2)
    fi = FilteredIndex(elpis, attrs, preds, strategy="inline")
    with pytest.raises(NotImplementedError, match="ELPIS"):
        fi.search_batch(queries, k=K, beam_width=WIDTH, kernel=kernel)


def test_filtered_ground_truth_contract(world):
    data, queries, attrs, inner = world
    preds = query_predicates("sift", N_QUERIES, 0.2, seed=2)
    allow = [p.mask(attrs) for p in preds]
    ids, dists = filtered_ground_truth(data, queries, K, allow)
    assert ids.shape == (N_QUERIES, K)
    assert dists.shape == (N_QUERIES, K)
    for j in range(N_QUERIES):
        valid = ids[j][ids[j] >= 0]
        assert allow[j][valid].all()
        n_valid = valid.size
        assert np.all(np.isinf(dists[j, n_valid:]))
        assert np.all(np.diff(dists[j, :n_valid]) >= 0)
    # a query with no allowed points is all padding
    empty_ids, empty_dists = filtered_ground_truth(
        data, queries[:1], K, [np.zeros(N, dtype=bool)]
    )
    assert np.all(empty_ids == -1)
    assert np.all(np.isinf(empty_dists))
    assert recall(np.array([-1] * K), empty_ids[0]) == 1.0


def test_filtered_ground_truth_validation(world):
    data, queries, attrs, inner = world
    with pytest.raises(ValueError, match="disagree"):
        filtered_ground_truth(data, queries, K, [np.ones(N, dtype=bool)])
    with pytest.raises(ValueError, match="shape"):
        filtered_ground_truth(
            data, queries[:1], K, [np.ones(N - 1, dtype=bool)]
        )


def test_filtered_ground_truth_matches_bruteforce_subset(world):
    data, queries, attrs, inner = world
    from repro.eval.metrics import ground_truth

    mask = attrs.values < 0.5
    sub = np.flatnonzero(mask)
    sub_ids, sub_dists = ground_truth(data[sub], queries, K)
    ids, dists = filtered_ground_truth(
        data, queries, K, [mask] * N_QUERIES
    )
    for j in range(N_QUERIES):
        assert np.array_equal(ids[j], sub[sub_ids[j]])
        assert np.allclose(dists[j], sub_dists[j])


def test_filtered_ground_truth_stable_across_processes():
    """PR 5 discipline, extended to the filtered workload: attribute masks
    and ground truth must be bit-identical at any PYTHONHASHSEED."""
    import os
    import pathlib
    import subprocess
    import sys

    src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    script = (
        "import numpy as np;"
        "from repro.datasets.synthetic import generate;"
        "from repro.datasets.attributes import point_attributes, query_predicates;"
        "from repro.eval.metrics import filtered_ground_truth;"
        "data = generate('sift', 120, seed=3);"
        "attrs = point_attributes('sift', 100, seed=3);"
        "preds = query_predicates('sift', 5, 0.3, seed=3);"
        "ids, dists = filtered_ground_truth("
        "data[:100], data[100:105], 8, [p.mask(attrs) for p in preds]);"
        "print(int(ids.sum()), float(np.where(np.isinf(dists), -1, dists).sum()))"
    )
    outputs = set()
    for hash_seed in ("0", "1", "42"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs.add(proc.stdout.strip())
    assert len(outputs) == 1, f"filtered GT varies with PYTHONHASHSEED: {outputs}"
