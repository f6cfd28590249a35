"""``build``: construct four graphs, one per construction paradigm.

Construction is where the paper puts the cost.  HNSW (incremental
insertion), Vamana (diversified refinement), NSG (NN-descent then prune)
and KGraph (pure NN-descent) put ``core.build_kernels``,
``core.nndescent``, ``core.incremental`` and the build-time beam searches
at about all of the measured time and the query kernel at about none.  A
short search over each built graph checks that what was built can be
searched, and records the recall each method reaches (NSG and KGraph sit
low on clustered data at width 64; that is recorded, not hidden).
"""

from __future__ import annotations

import time
from statistics import geometric_mean, median

import numpy as np

from repro import (
    DistanceComputer,
    build_ii_graph,
    create_index,
    ground_truth,
    run_workload,
)
from repro.core.batch_build import build_ii_graph_batched, plan_rounds
from repro.core.build_kernels import diversify_many
from repro.core.diversification import PruneCounter, get_diversifier
from repro.core.nndescent import nn_descent

from common import (
    INDEX_SEED,
    K,
    check_answers,
    check_graph,
    draw,
    file_latency,
    percentiles_ms,
    run_setups,
    time_single_queries,
    timed,
)
from trace import Tracer, exact_proxy

DATASET = "sift"
N_POINTS = 1000
N_QUERIES = 300
WIDTH = 64
#: method -> (constructor parameters, out-degree cap the graph must respect)
METHODS = {
    "HNSW": ({"max_degree": 24, "ef_construction": 64}, 24),
    "Vamana": (
        {"max_degree": 24, "build_beam_width": 64, "prune_pool_size": 96, "alpha": 1.3},
        24,
    ),
    "NSG": ({"max_degree": 24, "build_beam_width": 48}, 24),
    "KGraph": ({"k_neighbors": 20}, 20),
}
#: timed builds of each method in a 10 s run: three, because one build's
#: rate moves by 5 % with the machine's minute and the median of three does not
BUILD_REPS = 3
SEARCH_REPS = 3
#: one-query-at-a-time passes over each graph; a pass pools the four methods
SINGLE_REPS = 3
#: the pruning probe: candidate lists of exact neighbours
PRUNE_LISTS = 512
PRUNE_POOL = 96
PRUNE_DEGREE = 24
#: points the incremental and batched-builder probes insert
PROBE_POINTS = 600


def setup(seed: int, budget, times: dict):
    n = budget.n(N_POINTS, floor=200)
    data, times["generate_s"] = timed(draw, DATASET, n, seed)
    queries = draw(DATASET, budget.n(N_QUERIES), seed, queries=True)
    (truth, _), times["ground_truth_s"] = timed(ground_truth, data, queries, K)
    return data, queries, truth


def _build(method: str, data):
    params, _ = METHODS[method]
    return create_index(method, seed=INDEX_SEED, **params).build(data)


def untraced(led) -> None:
    budget = led.budget
    (data, queries, truth), _ = run_setups(led, setup)
    n, n_queries = data.shape[0], queries.shape[0]

    rates = {method: [] for method in METHODS}
    indexes = {}
    for _ in range(budget.reps(BUILD_REPS)):
        for method in METHODS:
            indexes[method], wall = timed(_build, method, data)
            rates[method].append(n / wall)
            led.ops("build", n)
    per_rep = [geometric_mean(column) for column in zip(*rates.values())]
    led.metric(
        "build_points_per_s", geometric_mean(median(r) for r in rates.values()), per_rep
    )
    for method, (_, cap) in METHODS.items():
        led.check("build", f"{method}_graph_valid", check_graph(indexes[method].graph, cap))
        led.exact[f"{method}.build_dist_calls"] = indexes[method].build_report.distance_calls

    # a short search over what was built
    qps, recalls, calls = {}, [], []
    for method, index in indexes.items():
        run_workload(index, queries, truth, K, WIDTH)
        qps[method] = []
        for _ in range(budget.reps(SEARCH_REPS)):
            measured, wall = timed(run_workload, index, queries, truth, K, WIDTH)
            qps[method].append(n_queries / wall)
            led.ops("search", n_queries)
        recalls.append(measured.recall)
        calls.append(measured.mean_distance_calls)
        led.exact[f"{method}.recall_at_10"] = measured.recall
        led.exact[f"{method}.dist_calls_per_query"] = measured.mean_distance_calls
    led.metric(
        "batch_qps",
        geometric_mean(median(q) for q in qps.values()),
        [geometric_mean(column) for column in zip(*qps.values())],
    )
    led.metric("recall_at_10", float(np.mean(recalls)))
    led.metric("dist_calls_per_query", float(np.mean(calls)))

    # latency from each pass's own percentiles; a pass pools the four
    # methods' calls
    p50s, p99s, answers = [], [], {}
    for _ in range(budget.reps(SINGLE_REPS)):
        latencies = []
        for method, index in indexes.items():
            rep, answers[method] = time_single_queries(index, queries, K, WIDTH)
            latencies.extend(rep)
            led.ops("search", n_queries)
        p50, p99 = percentiles_ms(latencies)
        p50s.append(p50)
        p99s.append(p99)
    file_latency(led, p50s, p99s, len(latencies))
    for method, found in answers.items():
        led.check("search", f"{method}_answers_unique_in_range", check_answers(found, K, n))


def traced(led) -> None:
    budget = led.budget
    tracer = Tracer()
    times: dict = {}
    data, queries, truth = setup(led.seed, budget, times)
    led.metric("datasets.generate_s", times["generate_s"])
    led.metric("metrics.ground_truth_s", times["ground_truth_s"])
    n = data.shape[0]

    # indexes: which method moved
    for method in METHODS:
        tracer.phase = f"indexes.{method}"
        with tracer.span(f"indexes.{method}.build"):
            index, wall = timed(_build, method, data)
        led.ops("build", n)
        measured = run_workload(index, queries, truth, K, WIDTH)
        led.metric(f"indexes.{method}.build_s", wall)
        led.metric(f"indexes.{method}.dist_calls", index.build_report.distance_calls)
        led.metric(f"indexes.{method}.index_mb", index.memory_bytes() / 2**20)
        led.metric(f"indexes.{method}.recall_at_10", measured.recall)

    # core.nndescent: KGraph's and NSG's share
    computer = DistanceComputer(data)
    tracer.phase = "nndescent"
    with tracer.span("nndescent"):
        descent, wall = timed(nn_descent, computer, 20, np.random.default_rng(INDEX_SEED))
    led.metric("nndescent.s", wall)
    led.metric("nndescent.iterations", descent.iterations)
    led.metric("nndescent.updates", sum(descent.updates))
    led.metric("nndescent.dist_calls", computer.count)

    # core.build_kernels against the scalar diversifiers, same candidate lists
    lists = min(budget.n(PRUNE_LISTS), n)
    pool = min(PRUNE_POOL, n - 1)
    requests = []
    for node in range(lists):
        ids, dists = computer.exact_knn(data[node], pool + 1)
        keep = ids != node
        requests.append((ids[keep][:pool], dists[keep][:pool]))
    batched_s = scalar_s = 0.0
    stats = PruneCounter()
    mark = computer.checkpoint()
    kept = 0
    for strategy, params in (("rnd", {}), ("rrnd", {"alpha": 1.3})):
        tracer.phase = f"prune.{strategy}"
        with tracer.span("build_kernels.diversify_many"):
            selected, wall = timed(
                diversify_many, computer, requests, PRUNE_DEGREE, strategy, params, stats
            )
        batched_s += wall
        kept += sum(len(s) for s in selected)
        scalar = get_diversifier(strategy, **params)
        with tracer.span("diversification.scalar"):
            start = time.perf_counter()
            reference = [scalar(computer, ids, dists, PRUNE_DEGREE) for ids, dists in requests]
            scalar_s += time.perf_counter() - start
        same = all(np.array_equal(a, b) for a, b in zip(selected, reference))
        led.check("build", f"{strategy}_batched_equals_scalar", "" if same else "kept ids differ")
    prunes = 2 * lists
    led.metric("build_kernels.prune_us_per_node", batched_s / prunes * 1e6)
    led.metric("diversification.prune_us_per_node", scalar_s / prunes * 1e6)
    led.metric("build_kernels.kept_share", kept / (prunes * pool))
    # the scalar pass charges the same distances again: halve the delta
    led.metric("build_kernels.dist_calls_per_node", computer.since(mark) / 2 / prunes)

    # core.incremental: HNSW's insertion loop, distance time through the proxy
    probe = DistanceComputer(data[: min(budget.n(PROBE_POINTS), n)])
    _, plain_s = timed(
        build_ii_graph, probe, 24, 64, "rnd", np.random.default_rng(INDEX_SEED)
    )
    probe.reset()
    tracer.phase = "incremental"
    since = tracer.mark()
    with tracer.span("incremental.build_ii_graph"):
        result, wall = timed(
            build_ii_graph, exact_proxy(probe, tracer), 24, 64, "rnd",
            np.random.default_rng(INDEX_SEED),
        )
    totals = tracer.totals(since)
    build = totals.pop("incremental.build_ii_graph")
    led.metric("incremental.points_per_s", probe.n / wall)
    led.metric("incremental.dist_calls", result.distance_calls)
    led.metric("incremental.distance_share", 1.0 - build["self_s"] / build["total_s"])
    led.metric("trace.overhead_share", 1.0 - plain_s / wall)
    led.ops("build", 2 * probe.n)

    # core.batch_build: the rounds protocol, one worker and two
    phases: dict = {}
    probe.reset()
    tracer.phase = "batch_build"
    with tracer.span("batch_build"):
        _, wall = timed(
            build_ii_graph_batched, probe, 24, 64, "rnd",
            np.random.default_rng(INDEX_SEED), n_workers=1, phase_times=phases,
        )
    for phase in ("search", "prune", "merge"):
        led.metric(f"batch_build.{phase}_s", phases[phase])
    led.metric("batch_build.rounds", len(plan_rounds(probe.n)))
    led.metric("batch_build.points_per_s", probe.n / wall)
    with tracer.span("batch_build.2w"):
        _, wall = timed(
            build_ii_graph_batched, probe, 24, 64, "rnd",
            np.random.default_rng(INDEX_SEED), n_workers=2,
        )
    led.metric("batch_build.points_per_s_2w", probe.n / wall)
    led.ops("build", 2 * probe.n)
    led.tracer = tracer
