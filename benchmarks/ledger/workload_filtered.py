"""``filtered-search``: predicate-constrained search over the HNSW graph.

The same Algorithm 1 loop under an admit/expand policy.  ACORN-style
expansion at specificity 0.1 runs a scalar fork of the beam search whatever
the kernel backend, so a gain in the batch kernel is predicted to leave this
workload unchanged, and folding the fork into the kernel should move it.
``ram-search`` issues the same queries with no predicate.
"""

from __future__ import annotations

from statistics import median

import numpy as np

from repro import create_index, run_workload
from repro.core.filtered import FilteredIndex
from repro.datasets.attributes import point_attributes, query_predicates
from repro.eval.metrics import filtered_ground_truth
from repro.eval.parallel import run_batch

from common import (
    INDEX_SEED,
    K,
    PARITY_QUERIES,
    batch_phase,
    check_answers,
    draw,
    run_setups,
    single_phase,
    timed,
)
from trace import Tracer, exact_proxy
from workload_ram import DATASET, HNSW_PARAMS, N_POINTS, WIDTH

N_QUERIES = 1000
SPECIFICITY = 0.1
STRATEGY = "acorn"
BATCH_REPS = 2
#: two, so that a busy moment of the host is in at most one pass's p99
SINGLE_REPS = 2


def setup(seed: int, budget, times: dict):
    """Data, queries, attributes, predicates, filtered truth, built index."""
    n = budget.n(N_POINTS, floor=256)
    n_queries = budget.n(N_QUERIES, floor=PARITY_QUERIES)
    data, times["generate_s"] = timed(draw, DATASET, n, seed)
    queries = draw(DATASET, n_queries, seed, queries=True)
    attrs = point_attributes(DATASET, n, seed=seed)
    predicates = query_predicates(DATASET, n_queries, SPECIFICITY, seed=seed)
    allow = [p.mask(attrs) for p in predicates]
    (truth, _), times["ground_truth_s"] = timed(
        filtered_ground_truth, data, queries, K, allow
    )
    index, times["build_s"] = timed(
        create_index("HNSW", seed=INDEX_SEED, **HNSW_PARAMS).build, data
    )
    return data, queries, attrs, predicates, allow, truth, index


def check_predicates(outcomes, allow) -> str:
    """Every returned id satisfies its query's predicate."""
    for pos, outcome in enumerate(outcomes):
        ids = np.asarray(outcome.ids)
        real = ids[ids >= 0]
        if not np.all(allow[pos][real]):
            return f"answer {pos} holds a point its predicate rejects"
    return ""


def untraced(led) -> None:
    (data, queries, attrs, predicates, allow, truth, index), phases = run_setups(led, setup)
    n = data.shape[0]
    builds = [n / times["build_s"] for times in phases]
    led.metric("build_points_per_s", median(builds), builds)
    filtered = FilteredIndex(index, attrs, predicates, strategy=STRATEGY)

    batch_phase(led, filtered, queries, truth, WIDTH, BATCH_REPS)
    # seed_query_rng, called before each search, also selects the predicate
    answers = single_phase(led, filtered, queries, WIDTH, SINGLE_REPS)

    # acorn has one scalar implementation, so the batch phase ran this same code
    for phase in ("batch", "single"):
        led.check(phase, "answers_unique_in_range_or_padded", check_answers(answers, K, n))
        led.check(phase, "answers_satisfy_predicate", check_predicates(answers, allow))


def traced(led) -> None:
    budget = led.budget
    tracer = Tracer()
    times: dict = {}
    data, queries, attrs, predicates, allow, truth, index = setup(led.seed, budget, times)
    led.metric("datasets.generate_s", times["generate_s"])
    led.metric("metrics.ground_truth_s", times["ground_truth_s"])
    n_queries = queries.shape[0]

    masks = [timed(FilteredIndex, index, attrs, predicates, STRATEGY)[1] for _ in range(3)]
    led.metric("filtered.mask_build_ms", median(masks) * 1000.0, masks)

    inline = FilteredIndex(index, attrs, predicates, strategy="inline")
    run_workload(inline, queries, truth, K, WIDTH)
    tracer.phase = "filtered.inline"
    with tracer.span("filtered.inline"):
        measured, wall = timed(run_workload, inline, queries, truth, K, WIDTH)
    led.metric("filtered.inline_qps", n_queries / wall)
    led.metric("filtered.inline_recall_at_10", measured.recall)
    answers = run_batch(inline, queries, k=K, beam_width=WIDTH).outcomes
    led.check("traced", "inline_answers_satisfy_predicate", check_predicates(answers, allow))

    acorn = FilteredIndex(index, attrs, predicates, strategy=STRATEGY)
    _, plain_s = timed(run_workload, acorn, queries, truth, K, WIDTH)
    computer = index.computer
    index.computer = exact_proxy(computer, tracer)
    try:
        tracer.phase = "filtered.acorn"
        with tracer.span("filtered.acorn"):
            measured, wall = timed(run_workload, acorn, queries, truth, K, WIDTH)
    finally:
        index.computer = computer
    led.metric("filtered.acorn_recall_at_10", measured.recall)
    led.metric("filtered.acorn_dist_calls_per_query", measured.mean_distance_calls)
    led.metric("trace.overhead_share", 1.0 - plain_s / wall)
    led.ops("traced", 3 * n_queries)
    led.tracer = tracer
