"""Table 3 — comparative analysis grid, derived from measured results.

The paper grades each method (good / medium / bad) on search efficiency
and accuracy and on indexing efficiency and footprint.  This bench derives
the same grid from our 1M-tier measurements: terciles of distance calls at
recall 0.95 (search), of recall reached at the widest beam (accuracy), and
of build distance calls / index size (indexing).  Build seconds are printed
beside the grade but do not set it: some methods build through the batched
construction kernels and some through per-node Python, so wall-clock would
grade the implementation (EXPERIMENTS.md, "construction kernels").
"""

import numpy as np
import pytest

from conftest import TIER_METHODS

from repro.eval.reporting import Report
from repro.eval.runner import calls_at_recall, sweep_beam_widths

TIER = "1M"
DATASET = "deep"
WIDTHS = (10, 20, 40, 80, 160, 320)


def _grade(value, values, reverse=False):
    """Tercile grade: value within the best/middle/worst third."""
    finite = sorted(v for v in values if v is not None)
    if value is None:
        return "x"
    lo = finite[max(0, len(finite) // 3 - 1)]
    hi = finite[min(len(finite) - 1, 2 * len(finite) // 3)]
    if reverse:
        return "+" if value >= hi else ("~" if value >= lo else "x")
    return "+" if value <= lo else ("~" if value <= hi else "x")


def test_table3_comparative_grid(benchmark, store):
    methods = TIER_METHODS[TIER]
    queries = store.queries(DATASET)
    truth = store.truth(DATASET, TIER)

    def workload():
        stats = {}
        for method in methods:
            index = store.index(method, DATASET, TIER)
            curve = sweep_beam_widths(index, queries, truth, k=10, beam_widths=WIDTHS)
            stats[method] = {
                "search_calls": calls_at_recall(curve, 0.95),
                "best_recall": max(p.recall for p in curve),
                "build_time": index.build_report.wall_time_s,
                "build_calls": index.build_report.distance_calls,
                "index_bytes": index.memory_bytes(),
            }
        return stats

    stats = benchmark.pedantic(workload, rounds=1, iterations=1)
    report = Report("table3_summary")
    calls = [stats[m]["search_calls"] for m in methods]
    recalls = [stats[m]["best_recall"] for m in methods]
    build_calls = [stats[m]["build_calls"] for m in methods]
    sizes = [stats[m]["index_bytes"] for m in methods]
    rows = []
    grades = {}
    for m in methods:
        s = stats[m]
        grades[m] = {
            "q_eff": _grade(s["search_calls"], calls),
            "q_acc": _grade(s["best_recall"], recalls, reverse=True),
            "i_eff": _grade(s["build_calls"], build_calls),
            "i_foot": _grade(s["index_bytes"], sizes),
        }
        rows.append(
            [m, grades[m]["q_eff"], grades[m]["q_acc"], grades[m]["i_eff"],
             grades[m]["i_foot"], s["build_calls"], round(s["build_time"], 2)]
        )
    report.add_table(
        ["method", "query eff", "query acc", "index eff", "index footprint",
         "build distance calls", "build seconds"],
        rows,
        title="Table 3: comparative analysis (+ good / ~ medium / x bad), "
              "derived from Deep 1M-tier measurements",
    )
    report.save()
    # paper shape: HNSW gets good query grades; KGraph gets bad ones
    assert grades["HNSW"]["q_acc"] == "+"
    assert grades["KGraph"]["q_eff"] in ("~", "x") or grades["KGraph"]["q_acc"] in ("~", "x")
