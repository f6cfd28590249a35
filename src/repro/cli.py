"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``methods``
    List every registered method with its paradigm tags.
``datasets``
    List the dataset stand-ins with their difficulty profiles.
``demo``
    Build one method on one dataset and report build cost + query recall.
``complexity``
    Print the LID/LRC hardness profile of a dataset (Figure 4 style).
``recommend``
    Apply the Figure 18 decision tree to a dataset size / hardness.
``serve``
    Streaming-tier demo: build a live index, churn it with interleaved
    deletes/inserts while answering concurrent micro-batched queries, then
    consolidate and report recall drift + client-observed latency.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

#: Paradigm tags per method (Figure 3's taxonomy).
_PARADIGMS = {
    "KGraph": "NP",
    "NSW": "II",
    "HNSW": "II+ND(RND)+SS(SN)",
    "EFANNA": "NP+SS(KD)",
    "DPG": "NP+ND(MOND)",
    "NGT": "NP+ND(RND)+SS(VPTree)",
    "NSG": "NP-base+ND(RND)+SS(MD,KS)",
    "SSG": "NP-base+ND(MOND)+SS(KS)",
    "Vamana": "ND(RRND,RND)+SS(MD,KS)",
    "SPTAG-KDT": "DC+ND(RND)+SS(KD)",
    "SPTAG-BKT": "DC+ND(RND)+SS(KM)",
    "HCNNG": "DC+SS(KD)",
    "ELPIS": "DC+II+ND(RND)",
    "LSHAPG": "II+ND(RND)+SS(LSH)",
    "IEH": "NP+SS(LSH)",
    "IVF-Flat": "inverted index (survey family)",
    "IVF-PQ": "inverted index + product quantization",
    "BruteForce": "exact baseline",
}


def _cmd_methods(args) -> int:
    from .indexes import METHOD_REGISTRY

    for name in sorted(METHOD_REGISTRY):
        print(f"{name:11s} {_PARADIGMS.get(name, '')}")
    return 0


def _cmd_datasets(args) -> int:
    from .datasets.synthetic import DATASET_GENERATORS
    from .eval.recommend import HARD_DATASETS

    for name, spec in DATASET_GENERATORS.items():
        hard = "hard" if name in HARD_DATASETS else "easy"
        print(f"{name:10s} d={spec.dim:<4d} {hard}")
    return 0


def _supports_build_workers(method: str) -> bool:
    """Whether a method's constructor accepts ``n_workers`` (II-based builds)."""
    import inspect

    from .indexes import METHOD_REGISTRY

    try:
        return "n_workers" in inspect.signature(METHOD_REGISTRY[method]).parameters
    except (TypeError, ValueError):
        return False


def _cmd_demo(args) -> int:
    from .datasets.synthetic import generate
    from .eval.metrics import ground_truth
    from .eval.runner import run_workload
    from .indexes import create_index
    from .indexes.base import BaseGraphIndex

    data = generate(args.dataset, args.n, seed=args.seed)
    queries = generate(args.dataset, args.queries, seed=args.seed + 1)
    filtered = args.filter_specificity is not None
    if filtered:
        if args.tier_mode == "disk":
            print("error: --filter-specificity requires --tier-mode ram")
            return 2
        from .datasets.attributes import point_attributes, query_predicates
        from .eval.metrics import filtered_ground_truth

        attrs = point_attributes(args.dataset, args.n, seed=args.seed)
        predicates = query_predicates(
            args.dataset, args.queries, args.filter_specificity, seed=args.seed
        )
        allow = [p.mask(attrs) for p in predicates]
        truth, _ = filtered_ground_truth(data, queries, args.k, allow)
    else:
        truth, _ = ground_truth(data, queries, args.k)
    index_params = {"seed": args.seed}
    if args.workers > 1:
        if _supports_build_workers(args.method):
            index_params["n_workers"] = args.workers
        else:
            print(
                f"note: {args.method} has no parallel builder; "
                "constructing sequentially"
            )
    index = create_index(args.method, **index_params)
    # --kernel selects the construction-kernel backend for the build too
    # (bit-identical graphs by contract); methods without batched
    # construction ignore it and build on the reference path
    if args.kernel is not None and isinstance(index, BaseGraphIndex):
        index.kernel = args.kernel
    index.build(data)
    print(
        f"built {index.name} on {args.dataset} (n={args.n}): "
        f"{index.build_report.wall_time_s:.1f}s, "
        f"{index.build_report.distance_calls:,} distance calls, "
        f"{index.memory_bytes() // 1024} KiB"
    )
    tier_dir = None
    if args.tier_mode == "disk":
        import tempfile

        from .indexes.base import load_disk_index

        if not getattr(index, "disk_tier_capable", False):
            print(
                f"error: {index.name} cannot answer from a disk tier "
                "(seed selection needs raw-vector access); use --tier-mode ram"
            )
            return 2
        tier_dir = tempfile.TemporaryDirectory(prefix="repro-disk-tier-")
        index.to_disk_tier(tier_dir.name)
        index = load_disk_index(tier_dir.name)
        tier = index._disk_tier
        print(
            f"disk tier: {tier.resident_bytes() // 1024} KiB resident "
            f"(PQ codes + codebooks), {tier.file_bytes() // 1024} KiB "
            f"memory-mapped (graph + raw vectors)"
        )
    if filtered:
        from .core.filtered import FilteredIndex

        index = FilteredIndex(
            index, attrs, predicates, strategy=args.filter_strategy
        )
        mean_spec = float(np.mean([m.mean() for m in allow]))
        print(
            f"filtered search ({args.filter_strategy}): specificity "
            f"{args.filter_specificity} requested, {mean_spec:.3f} realized"
        )
    try:
        measurement = run_workload(
            index, queries, truth, args.k, args.beam_width,
            n_workers=args.workers, kernel=args.kernel,
        )
    finally:
        if tier_dir is not None:
            tier_dir.cleanup()
    from .core.kernels import resolve_backend

    print(f"beam kernel: {resolve_backend(args.kernel)}")
    print(
        f"recall@{args.k}: {measurement.recall:.3f}  "
        f"mean distance calls/query: {measurement.mean_distance_calls:.0f}  "
        f"mean latency: {1000 * measurement.mean_time_s:.2f} ms"
    )
    if args.stats:
        from .eval.reporting import format_query_stats

        print(format_query_stats(measurement))
    return 0


def _cmd_serve(args) -> int:
    """Mixed insert/delete/query load on the streaming tier, then consolidate."""
    import asyncio

    from .core.streaming import StreamingIndex
    from .datasets.synthetic import generate
    from .eval.metrics import recall
    from .eval.serving import ServingEngine

    data = generate(args.dataset, args.n, seed=args.seed)
    queries = generate(args.dataset, args.queries, seed=args.seed + 1)
    index = StreamingIndex(
        max_degree=args.max_degree,
        build_beam_width=args.beam_width,
        seed=args.seed,
        default_beam_width=args.beam_width,
        n_workers=args.workers,
        kernel=args.kernel,
    )
    index.build(data)
    print(
        f"built {index.name} on {args.dataset} (n={args.n}): "
        f"{index.build_report.wall_time_s:.1f}s, "
        f"{index.build_report.distance_calls:,} distance calls"
    )

    churn_rng = np.random.default_rng(args.seed + 2)
    n_churn = int(round(args.churn * args.n))

    async def run() -> tuple[float, float]:
        engine = ServingEngine(
            index, k=args.k, beam_width=args.beam_width, kernel=args.kernel
        )
        # churn: tombstone a random slice of the build set, insert fresh
        # replacement vectors, with concurrent query traffic throughout
        doomed = churn_rng.choice(args.n, size=n_churn, replace=False)
        replacements = generate(args.dataset, max(n_churn, 1), seed=args.seed + 3)
        half = len(doomed) // 2
        await asyncio.gather(
            engine.delete(doomed[:half]),
            *[engine.search(q) for q in queries],
        )
        await asyncio.gather(
            engine.delete(doomed[half:]),
            engine.insert(replacements[:n_churn]),
            *[engine.search(q) for q in queries],
        )
        true_ids, _ = index.alive_ground_truth(queries, args.k)
        answers = await asyncio.gather(*[engine.search(q) for q in queries])
        drift_recall = float(
            np.mean([recall(ids, t) for (ids, _), t in zip(answers, true_ids)])
        )
        report = await engine.consolidate()
        print(
            f"consolidate: {report.n_dead} dead, {report.n_repaired} nodes "
            f"repaired, {report.distance_calls:,} distance calls, "
            f"{report.wall_time_s:.2f}s"
        )
        answers = await asyncio.gather(*[engine.search(q) for q in queries])
        post_recall = float(
            np.mean([recall(ids, t) for (ids, _), t in zip(answers, true_ids)])
        )
        await engine.close()
        measurement = engine.report.measurement(post_recall, args.beam_width)
        print(
            f"served {engine.report.n_queries} queries "
            f"({engine.report.cache_hits} cache hits, "
            f"mean batch {engine.report.mean_batch_size:.1f})"
        )
        if args.stats:
            from .eval.reporting import format_query_stats

            print(format_query_stats(measurement))
        return drift_recall, post_recall

    drift_recall, post_recall = asyncio.run(run())
    print(
        f"recall@{args.k} vs live ground truth at {100 * args.churn:.0f}% churn: "
        f"{drift_recall:.3f} before consolidation, {post_recall:.3f} after"
    )
    return 0


def _cmd_complexity(args) -> int:
    from .datasets.complexity import dataset_complexity
    from .datasets.synthetic import generate

    data = generate(args.dataset, args.n, seed=args.seed)
    profile = dataset_complexity(data, args.dataset, k=min(100, args.n - 1))
    print(f"{args.dataset}: mean LID {profile.mean_lid:.2f}  mean LRC {profile.mean_lrc:.2f}")
    print("lower LID / higher LRC = easier search (paper, Figure 4)")
    return 0


def _cmd_recommend(args) -> int:
    from .eval.recommend import recommend

    rec = recommend(args.n, hard=args.hard)
    print("recommended:", ", ".join(rec.methods))
    print(rec.rationale)
    return 0


def _worker_count(text: str) -> int:
    """``--workers`` value: rejected at parse time, before any index is built."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing).

    Prefix matching is off everywhere: ``--worker 2`` is an error, not a
    silent ``--workers 2``.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Graph-based vector search reproduction",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=functools.partial(argparse.ArgumentParser, allow_abbrev=False),
    )

    sub.add_parser("methods", help="list registered methods").set_defaults(
        func=_cmd_methods
    )
    sub.add_parser("datasets", help="list dataset stand-ins").set_defaults(
        func=_cmd_datasets
    )

    demo = sub.add_parser("demo", help="build + query one method")
    demo.add_argument("--method", default="HNSW")
    demo.add_argument("--dataset", default="deep")
    demo.add_argument("--n", type=int, default=3000)
    demo.add_argument("--queries", type=int, default=10)
    demo.add_argument("--k", type=int, default=10)
    demo.add_argument("--beam-width", type=int, default=64)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument(
        "--workers",
        type=_worker_count,
        default=1,
        help="worker processes for the query batch AND, for II-based methods "
        "(NSW/HNSW/LSHAPG), the batched graph build (1 = the paper's "
        "strictly sequential protocol; query results are identical at any "
        "count, and the batched build is identical at any count > 1)",
    )
    demo.add_argument(
        "--stats",
        action="store_true",
        help="print latency percentiles (p50/p95/p99) and throughput",
    )
    demo.add_argument(
        "--kernel",
        choices=["python", "scalar"],
        default=None,
        help="kernel backend for queries AND, where supported, the index "
        "build (batched diversification + NN-descent; default: "
        "$REPRO_KERNEL, else python). Both backends return bit-identical "
        "graphs, answers, and distance counts; 'scalar' is the per-query / "
        "per-node reference loop",
    )
    demo.add_argument(
        "--filter-specificity",
        type=float,
        default=None,
        metavar="S",
        help="run a *filtered* workload: per-point attributes plus per-query "
        "range predicates matching an expected fraction S of the points "
        "(0 < S <= 1); recall is measured against filtered brute force",
    )
    demo.add_argument(
        "--filter-strategy",
        choices=["inline", "acorn", "rwalks"],
        default="inline",
        help="filtered-search strategy: 'inline' masks the finished beam, "
        "'acorn' routes through filtered-out nodes (multi-hop expansion), "
        "'rwalks' adds same-label shortcut edges offline then searches "
        "inline over the augmented graph",
    )
    demo.add_argument(
        "--tier-mode",
        choices=["ram", "disk"],
        default="ram",
        help="'disk' saves the built index as a memory-mapped disk tier and "
        "answers with PQ-guided traversal + exact re-rank (only methods "
        "whose seed selection needs no raw vectors: Vamana/NSG/SSG/NSW/"
        "DPG/KGraph/RandomGraph); 'ram' is the paper's in-memory protocol",
    )
    demo.set_defaults(func=_cmd_demo)

    comp = sub.add_parser("complexity", help="LID/LRC hardness profile")
    comp.add_argument("--dataset", default="deep")
    comp.add_argument("--n", type=int, default=2000)
    comp.add_argument("--seed", type=int, default=0)
    comp.set_defaults(func=_cmd_complexity)

    rec = sub.add_parser("recommend", help="Figure 18 decision tree")
    rec.add_argument("--n", type=int, required=True)
    rec.add_argument("--hard", action="store_true")
    rec.set_defaults(func=_cmd_recommend)

    serve = sub.add_parser(
        "serve", help="streaming tier: churn + concurrent queries demo"
    )
    serve.add_argument("--dataset", default="deep")
    serve.add_argument("--n", type=int, default=2000)
    serve.add_argument("--queries", type=int, default=20)
    serve.add_argument("--k", type=int, default=10)
    serve.add_argument("--beam-width", type=int, default=64)
    serve.add_argument("--max-degree", type=int, default=16)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--churn",
        type=float,
        default=0.1,
        help="fraction of the build set to delete (and replace with fresh "
        "inserts) while queries are in flight",
    )
    serve.add_argument(
        "--workers",
        type=_worker_count,
        default=1,
        help="worker processes for the initial build and mutation batches "
        "(graph state is bit-identical at any count)",
    )
    serve.add_argument(
        "--kernel",
        choices=["python", "scalar"],
        default=None,
        help="beam-search backend (default: $REPRO_KERNEL, else python)",
    )
    serve.add_argument(
        "--stats",
        action="store_true",
        help="print client-observed latency percentiles and throughput",
    )
    serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
