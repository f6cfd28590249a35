"""Experiment driver: builds, sweeps, and tradeoff curves.

Reproduces the paper's experimental procedure (Section 4.1): indexes are
built once per configuration; query workloads are swept over beam widths to
trace the recall / distance-calculation tradeoff curve of each method
(Figures 5, 12-16); build cost is tracked in wall time, distance
calculations, and peak Python-heap bytes (Figures 7-8).
"""

from __future__ import annotations

import tracemalloc
import warnings
from dataclasses import dataclass, field

import numpy as np

from ..indexes.base import BaseIndex
from .metrics import ground_truth, recall
from .parallel import run_batch

__all__ = [
    "BuildMeasurement",
    "SweepPoint",
    "build_with_tracking",
    "sweep_beam_widths",
    "calls_at_recall",
    "beam_width_for_recall",
    "QueryMeasurement",
    "run_workload",
]


@dataclass
class BuildMeasurement:
    """Construction cost of one index (one Figure 7/8 bar)."""

    name: str
    wall_time_s: float
    distance_calls: int
    peak_heap_bytes: int
    index_bytes: int


@dataclass
class QueryMeasurement:
    """One workload run at a fixed beam width.

    ``mean_*`` fields keep the paper's per-query averages; the latency
    percentiles, throughput, and exact aggregate counter were added with the
    parallel batch-query engine (``n_workers`` records how the batch ran —
    the answers themselves are worker-count-invariant).
    """

    beam_width: int
    recall: float
    mean_distance_calls: float
    mean_hops: float
    mean_time_s: float
    p50_time_s: float = 0.0
    p95_time_s: float = 0.0
    p99_time_s: float = 0.0
    qps: float = 0.0
    total_distance_calls: int = 0
    wall_time_s: float = 0.0
    n_workers: int = 1
    # disk-tier accounting (zero on the in-memory exact paths): PQ estimates
    # scored and logical disk rows fetched, deterministic at any worker count
    mean_approx_calls: float = 0.0
    mean_page_reads: float = 0.0
    total_approx_calls: int = 0
    total_page_reads: int = 0
    # which storage tier answered the workload ("ram" or "disk") — reporting
    # keys the disk-counter section on this, not on counter truthiness, so a
    # disk run that happened to read zero pages still renders as a disk run
    tier_mode: str = "ram"


@dataclass
class SweepPoint:
    """One point of a recall/efficiency tradeoff curve."""

    beam_width: int
    recall: float
    distance_calls: float
    time_s: float
    extras: dict = field(default_factory=dict)


def build_with_tracking(index: BaseIndex, data: np.ndarray) -> BuildMeasurement:
    """Build ``index`` over ``data`` recording time, distances, peak memory.

    Peak memory is the Python-heap high-water mark during construction
    (tracemalloc), standing in for the paper's ``/proc`` VmPeak probe.
    """
    already_tracing = tracemalloc.is_tracing()
    if not already_tracing:
        tracemalloc.start()
    try:
        index.build(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not already_tracing:
            tracemalloc.stop()
    return BuildMeasurement(
        name=index.name,
        wall_time_s=index.build_report.wall_time_s,
        distance_calls=index.build_report.distance_calls,
        peak_heap_bytes=int(peak),
        index_bytes=index.memory_bytes(),
    )


def run_workload(
    index: BaseIndex,
    queries: np.ndarray,
    truth_ids: np.ndarray,
    k: int,
    beam_width: int,
    n_workers: int = 1,
    kernel: str | None = None,
) -> QueryMeasurement:
    """Run one workload at one beam width over the batch-query engine.

    ``n_workers=1`` (the default) keeps the paper's sequential protocol;
    larger values shard the batch across worker processes.  ``kernel``
    selects the beam backend (``python`` / ``scalar``; ``None`` defers to
    ``$REPRO_KERNEL``).  Recall and the aggregate
    distance-calculation count are identical for every worker count and
    kernel backend (see :mod:`repro.eval.parallel`).
    """
    queries = np.atleast_2d(np.asarray(queries))
    truth_ids = np.atleast_2d(np.asarray(truth_ids))
    if queries.shape[0] != truth_ids.shape[0]:
        raise ValueError(
            f"queries and truth_ids disagree: {queries.shape[0]} queries vs "
            f"{truth_ids.shape[0]} ground-truth rows"
        )
    batch = run_batch(
        index, queries, k=k, beam_width=beam_width, n_workers=n_workers,
        kernel=kernel,
    )
    recalls = [
        recall(outcome.ids, truth[:k])
        for outcome, truth in zip(batch.outcomes, truth_ids)
    ]
    calls = [outcome.distance_calls for outcome in batch.outcomes]
    hops = [outcome.hops for outcome in batch.outcomes]
    times = [outcome.time_s for outcome in batch.outcomes]
    approx = [outcome.approx_calls for outcome in batch.outcomes]
    pages = [outcome.page_reads for outcome in batch.outcomes]
    return QueryMeasurement(
        beam_width=beam_width,
        recall=float(np.mean(recalls)),
        mean_distance_calls=float(np.mean(calls)),
        mean_hops=float(np.mean(hops)),
        mean_time_s=float(np.mean(times)),
        p50_time_s=float(np.percentile(times, 50)),
        p95_time_s=float(np.percentile(times, 95)),
        p99_time_s=float(np.percentile(times, 99)),
        qps=batch.qps,
        total_distance_calls=batch.total_distance_calls,
        wall_time_s=batch.wall_time_s,
        n_workers=batch.n_workers,
        mean_approx_calls=float(np.mean(approx)),
        mean_page_reads=float(np.mean(pages)),
        total_approx_calls=batch.total_approx_calls,
        total_page_reads=batch.total_page_reads,
        tier_mode="disk" if getattr(index, "_disk_tier", None) is not None else "ram",
    )


def sweep_beam_widths(
    index: BaseIndex,
    queries: np.ndarray,
    truth_ids: np.ndarray,
    k: int = 10,
    beam_widths: tuple[int, ...] = (10, 20, 40, 80, 160, 320),
    n_workers: int = 1,
    kernel: str | None = None,
) -> list[SweepPoint]:
    """Trace the recall / distance-calculation tradeoff curve of a method.

    Beam widths below ``k`` cannot hold ``k`` answers and are dropped with a
    warning naming them; if *every* width is below ``k`` the curve would be
    silently empty, so that raises instead.
    """
    dropped = [width for width in beam_widths if width < k]
    if dropped:
        if len(dropped) == len(beam_widths):
            raise ValueError(
                f"all beam widths {list(beam_widths)} are < k={k}; "
                "the sweep would be empty"
            )
        warnings.warn(
            f"dropping beam widths {dropped} < k={k} from the sweep",
            UserWarning,
            stacklevel=2,
        )
    curve: list[SweepPoint] = []
    for width in beam_widths:
        if width < k:
            continue
        measurement = run_workload(
            index, queries, truth_ids, k, width, n_workers=n_workers,
            kernel=kernel,
        )
        curve.append(
            SweepPoint(
                beam_width=width,
                recall=measurement.recall,
                distance_calls=measurement.mean_distance_calls,
                time_s=measurement.mean_time_s,
            )
        )
    return curve


def calls_at_recall(curve: list[SweepPoint], target: float) -> float | None:
    """Distance calls needed to reach ``target`` recall, interpolated.

    Returns ``None`` when the curve never reaches the target (the paper
    reports these cases as method failures, e.g. Seismic at 0.8).
    """
    reached = [p for p in curve if p.recall >= target]
    if not reached:
        return None
    above = min(reached, key=lambda p: p.distance_calls)
    below = [p for p in curve if p.recall < target and p.distance_calls <= above.distance_calls]
    if not below:
        return float(above.distance_calls)
    prev = max(below, key=lambda p: p.recall)
    span = above.recall - prev.recall
    if span <= 0:
        return float(above.distance_calls)
    frac = (target - prev.recall) / span
    return float(prev.distance_calls + frac * (above.distance_calls - prev.distance_calls))


def beam_width_for_recall(curve: list[SweepPoint], target: float) -> int | None:
    """Smallest swept beam width reaching ``target`` recall (Figure 11)."""
    reached = [p for p in curve if p.recall >= target]
    if not reached:
        return None
    return int(min(reached, key=lambda p: p.beam_width).beam_width)


def make_ground_truth(
    data: np.ndarray, queries: np.ndarray, k: int
) -> np.ndarray:
    """Convenience wrapper returning just the ground-truth ids."""
    ids, _ = ground_truth(data, queries, k)
    return ids
