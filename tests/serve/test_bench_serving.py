"""The serving benchmark's smoke mode and its CLI passthrough.

``bench_serving.py --smoke`` is a CI gate, not just a number printer:
its in-script checks (warm == cold fingerprints, zero replica cold
cells, pool hits, write invalidation) turn fast-path regressions into a
non-zero exit.  These tests pin that behavior at a scale small enough
for the tier-1 suite.
"""

import json

import pytest

from benchmarks.bench_serving import build_parser, main, percentiles
from repro.harness.cli import main as cli_main

SMALL = [
    "--smoke", "--users", "100", "-k", "5", "--clients", "4", "--seed", "7",
]


class TestBenchSmoke:
    def test_smoke_run_passes_all_checks(self, tmp_path, capsys):
        artifact = tmp_path / "bench.json"
        assert main([*SMALL, "--json", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "solves-per-second (bit-identical)" in out
        payload = json.loads(artifact.read_text())
        assert payload["benchmark"] == "bench_serving"
        results = payload["results"]
        assert all(results["checks"].values())
        assert results["pool_stats"]["replica_cold_cells"] == 0
        assert results["pool_stats"]["generation"] == 2
        assert results["solve_throughput"]["speedup"] > 0
        kinds = results["mixed"]["warm"]["kinds"]
        assert kinds["solve"] >= 1 and kinds["what-if"] >= 1
        assert kinds["stream"] >= 1

    def test_unreachable_min_speedup_fails_the_run(self):
        assert main([*SMALL, "--min-speedup", "1e9"]) == 1

    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.clients == 8
        assert not args.smoke

    def test_percentiles_on_known_latencies(self):
        latencies = [float(i) for i in range(1, 101)]
        assert percentiles(latencies) == {
            "p50": 50.0, "p95": 95.0, "p99": 99.0,
        }
        assert percentiles([3.0]) == {"p50": 3.0, "p95": 3.0, "p99": 3.0}


class TestCliPassthrough:
    def test_serve_bench_subcommand_forwards_args(self, capsys):
        exit_code = cli_main(
            ["serve-bench", "--", "--smoke", "--users", "80", "-k", "4",
             "--clients", "2", "--seed", "7"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "checks:" in out
        assert "FAIL" not in out

    def test_serve_bench_without_separator(self, capsys):
        # argparse.REMAINDER passes flags through even without `--`
        exit_code = cli_main(
            ["serve-bench", "--smoke", "--users", "80", "-k", "4",
             "--clients", "2", "--seed", "7", "--min-speedup", "1e9"]
        )
        assert exit_code == 1  # forwarded checks still gate the exit code
