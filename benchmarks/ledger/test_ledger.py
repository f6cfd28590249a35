"""Self-tests of the perf ledger: ``PYTHONPATH=src pytest benchmarks/ledger -q``.

Tier-1's ``testpaths`` does not collect this file; it tests the benchmark,
not the program.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

LEDGER_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(LEDGER_DIR))

import run  # noqa: E402  (pins BLAS threads and puts src/ on the path)
import compare  # noqa: E402
from common import K, load_spec, percentiles_ms  # noqa: E402
from trace import Tracer, exact_proxy, self_times  # noqa: E402

SPEC = load_spec()


# ----------------------------------------------------------------------
# the declared names are the emitted names
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def smoke_set(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(LEDGER_DIR / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out) as handle:
        return json.load(handle), out


def test_smoke_run_emits_every_declared_metric(smoke_set):
    result, _ = smoke_set
    assert result["smoke"] is True
    assert set(result["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    measured_layers = set()
    for name, runs in result["workloads"].items():
        assert list(runs["untraced"]["metrics"]) == end_to_end, name
        assert list(runs["traced"]["metrics"]) == per_layer, name
        assert runs["untraced"]["correct"] and runs["traced"]["correct"], name
        assert runs["untraced"]["failed"] == 0 and runs["untraced"]["attempted"] >= 1
        measured_layers |= set(per_layer) - set(runs["traced"]["not_applicable"])
    # every layer metric is measured by at least one workload
    assert measured_layers == set(per_layer)


def test_metric_and_workload_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert set(run.WORKLOAD_MODULES) == {w["name"] for w in SPEC["workloads"]}


def test_compare_refuses_a_smoke_set(smoke_set):
    _, path = smoke_set
    with pytest.raises(SystemExit, match="smoke"):
        compare.load(path)


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("parent", 0.0, 10.0, -1),
        ("child", 1.0, 4.0, 0),
        ("child", 3.0, 6.0, 0),  # overlaps the first child: [1, 6] counted once
        ("grandchild", 1.5, 2.0, 1),
        ("late", 9.0, 12.0, 0),  # runs past the parent: clipped to [9, 10]
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0 - 0.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(0.5)


def test_tracer_nests_spans_per_thread_and_totals_them():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    totals = tracer.totals()
    assert totals["outer"]["count"] == 1 and totals["inner"]["count"] == 2
    assert totals["outer"]["self_s"] == pytest.approx(
        totals["outer"]["total_s"] - totals["inner"]["total_s"]
    )
    assert [row[3] for row in tracer.rows()] == [-1, 0, 0]


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def test_p99_is_refused_below_1000_samples():
    p50, p99 = percentiles_ms([0.001] * 999)
    assert p50 == pytest.approx(1.0) and p99 is None
    p50, p99 = percentiles_ms(list(np.linspace(0.001, 0.002, 1000)))
    assert p99 == pytest.approx(1.99, abs=0.01)
    with pytest.raises(ValueError):
        percentiles_ms([])


# ----------------------------------------------------------------------
# compare.py verdicts
# ----------------------------------------------------------------------
def _set(sha, qps, samples, calls=100.0):
    metrics = {
        m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["end_to_end"]
    }
    metrics["batch_qps"] = {"value": qps, "unit": "1/s", "samples": samples}
    return {
        "smoke": False,
        "provenance": {"git_sha": sha},
        "workloads": {"ram-search": {"untraced": {
            "metrics": metrics, "exact": {"dist_calls_per_query": calls},
        }}},
    }


def _verdicts(base, new):
    lines, passed = compare.compare(base, new, SPEC)
    row = next(line for line in lines if line.lstrip().startswith("batch_qps"))
    return row.split()[-1], passed, lines


def test_compare_bound_unresolved_and_exact():
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "batch_qps")
    steady = [1000.0, 1001.0, 999.0, 1000.5]
    inside, outside = 1000.0 * (1 - 0.5 * bound), 1000.0 * (1 - 1.5 * bound)
    base = _set("a", 1000.0, steady)
    assert _verdicts(base, _set("b", inside, steady))[:2] == ("ok", True)
    assert _verdicts(base, _set("b", outside, steady))[:2] == ("regression", False)
    assert _verdicts(base, _set("b", 1200.0, steady))[:2] == ("ok", True)  # better
    noisy = [700.0, 1000.0, 1300.0, 880.0]  # own spread beyond the bound
    assert _verdicts(base, _set("b", outside, noisy))[:2] == ("unresolved", True)
    # a counter may move between commits, never between two runs of one commit
    word, passed, lines = _verdicts(base, _set("b", 1000.0, steady, calls=101.0))
    assert passed and any(line.endswith("differs") for line in lines)
    assert _verdicts(base, _set("a", 1000.0, steady, calls=101.0))[1] is False
    assert _verdicts(base, _set("a", 1000.0, steady))[1] is True


# ----------------------------------------------------------------------
# proxies change nothing
# ----------------------------------------------------------------------
def test_proxied_search_is_bit_identical():
    from repro import create_index, generate
    from repro.eval.parallel import run_batch

    data = generate("sift", 400, seed=3)
    queries = generate("sift", 40, seed=4)
    index = create_index("HNSW", seed=11, max_degree=12, ef_construction=32).build(data)

    def answers():
        mark = index.computer.checkpoint()
        outcomes = run_batch(index, queries, k=K, beam_width=32).outcomes
        scalar = run_batch(index, queries, k=K, beam_width=32, kernel="scalar").outcomes
        key = [
            (o.ids.tobytes(), o.dists.tobytes(), o.hops, o.distance_calls)
            for o in outcomes + scalar
        ]
        return key, index.computer.since(mark)

    bare = answers()
    tracer = Tracer()
    computer = index.computer
    index.computer = exact_proxy(computer, tracer)
    try:
        proxied = answers()
    finally:
        index.computer = computer
    assert proxied == bare
    assert tracer.totals()["distances.to_queries_segmented"]["count"] > 0


def test_proxied_index_serves_identical_answers():
    from repro import generate
    from repro.core.streaming import StreamingIndex
    from repro.eval.parallel import run_batch
    from trace import TimedProxy

    data = generate("sift", 300, seed=3)
    queries = generate("sift", 20, seed=4)
    index = StreamingIndex(max_degree=8, build_beam_width=32, seed=11).build(data)
    tracer = Tracer()
    proxy = TimedProxy(index, tracer, "streaming", ("search_batch", "insert", "delete"))
    proxy.delete([1, 2, 3])  # a mutation through the proxy reaches the index
    assert index.n_alive == 297 and proxy.version == index.version

    def key(target):
        mark = index.computer.checkpoint()
        outcomes = run_batch(target, queries, k=K, beam_width=32).outcomes
        answers = [(o.ids.tobytes(), o.dists.tobytes(), o.distance_calls) for o in outcomes]
        return answers, index.computer.since(mark)

    assert key(proxy) == key(index)
    assert tracer.totals()["streaming.search_batch"]["count"] == 1
