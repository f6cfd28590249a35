"""Tests for the streaming tier: tombstones, inserts, consolidation.

The load-bearing contracts:

* a tombstoned id is never returned, at any beam width, worker count, or
  kernel backend — while traversal (hops, distance calls) is unchanged;
* ``insert`` makes new vectors findable against the live graph;
* ``consolidate`` keeps recall near a from-scratch build over the live set;
* graph bytes and the distance-call total after any schedule are
  bit-identical across worker counts and kernel backends.
"""

import pickle

import numpy as np
import pytest

from repro.core.streaming import StreamingIndex
from repro.eval.metrics import recall
from repro.eval.parallel import run_batch


@pytest.fixture(scope="module")
def churned():
    """A small index with a fixed delete/insert schedule applied."""
    gen = np.random.default_rng(3)
    data = gen.standard_normal((240, 10)).astype(np.float32)
    index = StreamingIndex(
        max_degree=10, build_beam_width=32, seed=5, default_beam_width=32
    ).build(data)
    doomed = np.random.default_rng(9).choice(240, size=24, replace=False)
    index.delete(doomed)
    inserted = index.insert(gen.standard_normal((24, 10)).astype(np.float32))
    queries = gen.standard_normal((12, 10)).astype(np.float32)
    return index, doomed, inserted, queries


def _schedule(index, data, doomed, replacements):
    index.build(data)
    index.delete(doomed[: len(doomed) // 2])
    index.insert(replacements[: len(replacements) // 2])
    index.delete(doomed[len(doomed) // 2:])
    index.insert(replacements[len(replacements) // 2:])
    index.consolidate()
    return index


def test_tombstones_never_returned(churned):
    index, doomed, _, queries = churned
    for width in (8, 16, 48):
        for j, query in enumerate(queries):
            index.seed_query_rng(j)
            result = index.search(query, k=10, beam_width=width)
            assert not np.intersect1d(result.ids, doomed).size
            assert not index._tombstone[result.ids].any()


def test_tombstones_never_returned_batched(churned):
    index, doomed, _, queries = churned
    for kernel in ("python", "scalar"):
        results = index.search_batch(
            queries, k=10, beam_width=32,
            query_indices=np.arange(len(queries)), kernel=kernel,
        )
        for result in results:
            assert not np.intersect1d(result.ids, doomed).size


def test_tombstones_never_returned_across_workers(churned):
    index, doomed, _, queries = churned
    base = run_batch(index, queries, k=10, beam_width=32, n_workers=1)
    sharded = run_batch(index, queries, k=10, beam_width=32, n_workers=2)
    for a, b in zip(base.outcomes, sharded.outcomes):
        assert np.array_equal(a.ids, b.ids)
        assert a.distance_calls == b.distance_calls
        assert not np.intersect1d(a.ids, doomed).size


def test_delete_does_not_change_traversal_cost():
    gen = np.random.default_rng(4)
    data = gen.standard_normal((150, 8)).astype(np.float32)
    query = gen.standard_normal(8).astype(np.float32)
    index = StreamingIndex(
        max_degree=8, build_beam_width=24, seed=1, default_beam_width=24
    ).build(data)
    index.seed_query_rng(0)
    before = index.search(query, k=5, beam_width=24)
    index.delete(before.ids[:2])
    index.seed_query_rng(0)
    after = index.search(query, k=5, beam_width=24)
    # tombstoned nodes still route: same hops and distance calls, the
    # answer just backfills from the beam
    assert after.hops == before.hops
    assert after.distance_calls == before.distance_calls
    assert not np.intersect1d(after.ids, before.ids[:2]).size


def test_insert_makes_vectors_findable(churned):
    index, _, inserted, _ = churned
    for node in inserted[:5]:
        index.seed_query_rng(int(node))
        result = index.search(index.computer.data[node], k=3, beam_width=48)
        assert node in result.ids, f"inserted node {node} not findable"


def test_delete_validation():
    data = np.random.default_rng(0).standard_normal((50, 6)).astype(np.float32)
    index = StreamingIndex(max_degree=6, build_beam_width=16, seed=0).build(data)
    with pytest.raises(ValueError, match="outside"):
        index.delete([50])
    with pytest.raises(ValueError, match="outside"):
        index.delete([-1])
    with pytest.raises(ValueError, match="every live node"):
        index.delete(np.arange(50))
    assert index.delete([3, 3, 7]) == 2
    assert index.delete([3]) == 0  # idempotent
    assert index.n_alive == 48


def test_insert_validation_and_growth():
    data = np.random.default_rng(1).standard_normal((40, 5)).astype(np.float32)
    index = StreamingIndex(
        max_degree=6, build_beam_width=16, seed=0, growth_factor=1.1
    ).build(data)
    with pytest.raises(ValueError, match="vectors must be"):
        index.insert(np.zeros((2, 4), dtype=np.float32))
    assert index.insert(np.zeros((0, 5), dtype=np.float32)).size == 0
    gen = np.random.default_rng(2)
    total = 40
    for _ in range(4):  # force several capacity doublings
        batch = gen.standard_normal((25, 5)).astype(np.float32)
        new_ids = index.insert(batch)
        assert np.array_equal(
            new_ids, np.arange(total, total + 25, dtype=np.int64)
        )
        total += 25
        assert index.n_total == total
        assert np.allclose(index.computer.data[new_ids], batch)
    assert index.graph.n == total


def test_consolidate_clears_dead_adjacency():
    gen = np.random.default_rng(6)
    data = gen.standard_normal((120, 6)).astype(np.float32)
    index = StreamingIndex(max_degree=8, build_beam_width=24, seed=2).build(data)
    doomed = np.arange(0, 120, 10)
    index.delete(doomed)
    report = index.consolidate()
    assert report.n_dead == doomed.size
    assert report.distance_calls > 0
    for d in doomed:
        assert index.graph.neighbors(int(d)).size == 0
    # no live node points at a dead one anymore
    for node in index.alive_ids.tolist():
        nbrs = index.graph.neighbors(node)
        assert not index._tombstone[nbrs].any()
    # a second pass finds nothing to repair
    assert index.consolidate().n_repaired == 0


def test_consolidation_recall_near_from_scratch():
    gen = np.random.default_rng(8)
    data = gen.standard_normal((500, 12)).astype(np.float32)
    queries = gen.standard_normal((15, 12)).astype(np.float32)
    doomed = np.random.default_rng(10).choice(500, size=50, replace=False)
    replacements = gen.standard_normal((50, 12)).astype(np.float32)

    index = StreamingIndex(max_degree=12, build_beam_width=48, seed=4)
    _schedule(index, data, doomed, replacements)
    truth, _ = index.alive_ground_truth(queries, 10)
    recalls = []
    for j, query in enumerate(queries):
        index.seed_query_rng(j)
        result = index.search(query, k=10, beam_width=48)
        recalls.append(recall(result.ids, truth[j]))
    consolidated = float(np.mean(recalls))

    live_rows = np.concatenate(
        [data[np.setdiff1d(np.arange(500), doomed)], replacements]
    )
    fresh = StreamingIndex(max_degree=12, build_beam_width=48, seed=4).build(
        live_rows
    )
    fresh_truth, _ = fresh.alive_ground_truth(queries, 10)
    fresh_recalls = []
    for j, query in enumerate(queries):
        fresh.seed_query_rng(j)
        result = fresh.search(query, k=10, beam_width=48)
        fresh_recalls.append(recall(result.ids, fresh_truth[j]))
    assert consolidated > float(np.mean(fresh_recalls)) - 0.05


def test_schedule_bit_identical_across_workers_and_kernels():
    gen = np.random.default_rng(12)
    data = gen.standard_normal((200, 8)).astype(np.float32)
    doomed = np.random.default_rng(13).choice(200, size=30, replace=False)
    replacements = gen.standard_normal((30, 8)).astype(np.float32)

    states = []
    for n_workers, kernel in [(1, None), (2, None), (4, None), (1, "scalar")]:
        index = StreamingIndex(
            max_degree=8, build_beam_width=24, seed=6,
            n_workers=n_workers, min_parallel_batch=4, kernel=kernel,
        )
        _schedule(index, data, doomed, replacements)
        states.append((index.graph_fingerprint(), index.computer.count))
    assert len(set(states)) == 1, f"divergent replay states: {states}"


def test_graph_fingerprint_stable_across_processes():
    """The witness must compare between processes: it used to be Python's
    ``hash()`` of bytes, which is salted per process (PR 5 discipline)."""
    import os
    import pathlib
    import subprocess
    import sys

    src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    script = (
        "import numpy as np;"
        "from repro.core.streaming import StreamingIndex;"
        "data = np.random.default_rng(3).standard_normal((80, 6)).astype(np.float32);"
        "index = StreamingIndex(max_degree=6, build_beam_width=16, seed=1).build(data);"
        "index.delete([2, 5]);"
        "print(index.graph_fingerprint())"
    )
    outputs = set()
    for hash_seed in ("0", "1", "42"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        )
        outputs.add(proc.stdout.strip())
    assert len(outputs) == 1, f"fingerprint varies with PYTHONHASHSEED: {outputs}"


def test_version_bumps_on_every_mutation():
    gen = np.random.default_rng(14)
    data = gen.standard_normal((60, 5)).astype(np.float32)
    index = StreamingIndex(max_degree=6, build_beam_width=16, seed=0).build(data)
    v = index.version
    index.delete([1])
    assert index.version == v + 1
    index.insert(gen.standard_normal((2, 5)).astype(np.float32))
    assert index.version == v + 2
    index.consolidate()
    assert index.version == v + 3


def test_pickle_roundtrip_with_bound_diversifier(churned):
    index, _, _, queries = churned
    skeleton = pickle.loads(pickle.dumps(index))
    arrays = index.shared_query_state()
    assert "tombstone" in arrays
    skeleton.attach_shared_query_state(arrays)
    skeleton.seed_query_rng(0)
    index.seed_query_rng(0)
    a = skeleton.search(queries[0], k=5, beam_width=32)
    b = index.search(queries[0], k=5, beam_width=32)
    assert np.array_equal(a.ids, b.ids)


def test_build_validation():
    with pytest.raises(ValueError):
        StreamingIndex(max_degree=1)
    with pytest.raises(ValueError):
        StreamingIndex(growth_factor=0.5)
    with pytest.raises(TypeError, match="by name"):
        StreamingIndex(diversify=lambda *a: a)
    index = StreamingIndex(max_degree=4, build_beam_width=8, seed=0)
    with pytest.raises(RuntimeError):
        index.search(np.zeros(4, dtype=np.float32), k=1)


def test_memory_accounting(churned):
    index, _, _, _ = churned
    assert index.memory_bytes() >= index._tombstone.nbytes
