"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_methods_lists_all(capsys):
    assert main(["methods"]) == 0
    out = capsys.readouterr().out
    for name in ("HNSW", "ELPIS", "Vamana", "SPTAG-BKT"):
        assert name in out


def test_datasets_lists_hardness(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    assert "seismic" in out and "hard" in out
    assert "sift" in out and "easy" in out


def test_demo_small(capsys):
    code = main([
        "demo", "--method", "HCNNG", "--dataset", "deep",
        "--n", "400", "--queries", "3", "--beam-width", "40",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "recall@10" in out


def test_complexity(capsys):
    assert main(["complexity", "--dataset", "randpow0", "--n", "500"]) == 0
    assert "LID" in capsys.readouterr().out


def test_recommend_small_easy(capsys):
    assert main(["recommend", "--n", "1000"]) == 0
    assert "HNSW" in capsys.readouterr().out


def test_recommend_hard(capsys):
    assert main(["recommend", "--n", "1000", "--hard"]) == 0
    out = capsys.readouterr().out
    assert "ELPIS" in out or "SPTAG" in out


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["demo", "--n", "123"])
    assert args.n == 123


def test_demo_stats_flag(capsys):
    code = main(
        ["demo", "--method", "NSW", "--n", "250", "--queries", "4", "--stats"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "p95 latency" in out
    assert "throughput (QPS)" in out


def test_demo_workers_flag(capsys):
    code = main(
        ["demo", "--method", "NSW", "--n", "250", "--queries", "4",
         "--workers", "2", "--stats"]
    )
    assert code == 0
    assert "workers" in capsys.readouterr().out


def test_parser_accepts_workers():
    parser = build_parser()
    args = parser.parse_args(["demo", "--workers", "4", "--stats"])
    assert args.workers == 4
    assert args.stats is True


@pytest.mark.parametrize("command", ["demo", "serve"])
def test_workers_below_one_rejected_at_parse_time(command, capsys):
    """``--workers 0`` used to build the whole index and then die with a
    traceback; argparse now refuses it before any work starts."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, "--workers", "0"])
    assert exc.value.code == 2
    assert "--workers: must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["demo", "serve"])
def test_option_prefixes_rejected(command, capsys):
    """``--worker 2`` used to match ``--workers`` by prefix, silently."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, "--worker", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --worker" in capsys.readouterr().err


def test_demo_kernel_reaches_the_vamana_build(capsys, monkeypatch):
    """``--kernel`` selects the build backend of every graph method, not
    only of those with a ``kernel=`` constructor parameter; the graph (so
    the build's distance calls and every answer) is the same either way."""
    from repro.indexes import vamana

    backends = []

    def spy(*args):
        backends.append(args[-1])
        return search_pools(*args)

    search_pools = vamana.search_pools
    monkeypatch.setattr(vamana, "search_pools", spy)
    reports = {}
    for kernel in ("python", "scalar"):
        args = ["demo", "--method", "Vamana", "--n", "300", "--queries", "4",
                "--kernel", kernel]
        assert main(args) == 0
        assert set(backends) == {kernel}
        backends.clear()
        built, _, answers = capsys.readouterr().out.partition("beam kernel:")
        reports[kernel] = (
            built.split("s, ", 1)[1],
            answers.split("mean latency")[0].split("\n", 1)[1],
        )
    assert "distance calls" in reports["python"][0]
    assert reports["python"] == reports["scalar"]


def test_demo_disk_tier(capsys):
    code = main(
        ["demo", "--method", "Vamana", "--n", "300", "--queries", "4",
         "--beam-width", "40", "--tier-mode", "disk", "--stats"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "disk tier:" in out
    assert "memory-mapped" in out
    assert "total page reads" in out
    assert "recall@10" in out


def test_demo_disk_tier_rejects_non_capable_method(capsys):
    code = main(
        ["demo", "--method", "HNSW", "--n", "250", "--queries", "3",
         "--tier-mode", "disk"]
    )
    assert code == 2
    assert "cannot answer from a disk tier" in capsys.readouterr().out
