"""Compare two ledger result sets written by ``run.py --out``.

    python3 benchmarks/ledger/compare.py A.json B.json

Per workload, every end-to-end metric gets a row with base, new, ratio and
a verdict: ``ok``; ``regression`` when the new value is worse than the base
by more than the metric's bound in ``BENCHMARK.json``; ``unresolved`` when
either file's own repetition spread exceeds that bound, so the two cannot
be told apart.  Exact counters (distance calls, recall, hops, pages, approx
calls, graph fingerprint) get an equality verdict, and layer rows follow
when both files hold a traced run.  Exits non-zero on a regression, and on
a counter that differs between two files of one commit, where it must not.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def spread(values) -> float:
    """Interquartile range as a share of the median (0 below 2 samples)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0


def verdict(base: dict, new: dict, better: str, bound: float) -> tuple[float, str]:
    """``(ratio, verdict)`` for one end-to-end metric of one workload."""
    ratio = new["value"] / base["value"]
    worse_by = 1.0 - ratio if better == "higher" else ratio - 1.0
    noisy = max(spread(base.get("samples", ())), spread(new.get("samples", ())))
    if noisy > bound:
        return ratio, "unresolved"
    return ratio, "regression" if worse_by > bound else "ok"


def load(path) -> dict:
    with open(path) as handle:
        data = json.load(handle)
    if data.get("smoke"):
        raise SystemExit(f"{path}: a --smoke set holds no comparable numbers")
    return data


def compare(base: dict, new: dict, spec: dict) -> tuple[list[str], bool]:
    """The report lines and whether the comparison passes."""
    lines, passed = [], True
    same_commit = base["provenance"]["git_sha"] == new["provenance"]["git_sha"]
    for name in base["workloads"]:
        if name not in new["workloads"]:
            lines.append(f"== {name}: missing from the new set")
            passed = False
            continue
        old_runs, new_runs = base["workloads"][name], new["workloads"][name]
        lines.append(f"== {name}")
        if "untraced" in old_runs and "untraced" in new_runs:
            old, cur = old_runs["untraced"], new_runs["untraced"]
            for metric in spec["end_to_end"]:
                a, b = old["metrics"][metric["name"]], cur["metrics"][metric["name"]]
                ratio, word = verdict(a, b, metric["better"], metric["bound"])
                passed = passed and word != "regression"
                lines.append(
                    f"  {metric['name']:24s} {a['value']:12.5g} -> {b['value']:12.5g} "
                    f"{metric['unit']:9s} x{ratio:.3f}  {word}"
                )
            for key in sorted(set(old["exact"]) | set(cur["exact"])):
                a, b = old["exact"].get(key), cur["exact"].get(key)
                word = "identical" if a == b else "differs"
                passed = passed and not (same_commit and a != b)
                lines.append(f"  exact {key:32s} {a!s:>18s} -> {b!s:>18s}  {word}")
        if "traced" in old_runs and "traced" in new_runs:
            old, cur = old_runs["traced"], new_runs["traced"]
            skipped = set(old["not_applicable"]) & set(cur["not_applicable"])
            for metric in spec["per_layer"]:
                if metric["name"] in skipped:
                    continue
                a = old["metrics"][metric["name"]]["value"]
                b = cur["metrics"][metric["name"]]["value"]
                ratio = f"x{b / a:.3f}" if a else "-"
                lines.append(
                    f"  layer {metric['name']:38s} {a:12.5g} -> {b:12.5g} {metric['unit']:9s} {ratio}"
                )
    return lines, passed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit(__doc__)
    with open(Path(__file__).resolve().parents[2] / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    lines, passed = compare(load(argv[0]), load(argv[1]), spec)
    print("\n".join(lines))
    print("PASS" if passed else "FAIL: regression or same-commit counter drift")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
