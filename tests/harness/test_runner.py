"""Tests of the sweep runner on miniature grids."""

import pytest

from repro.harness.runner import paper_methods, run_point, run_sweep
from repro.workloads.config import ExperimentConfig
from repro.workloads.sweeps import sweep_intervals, sweep_k

from tests.conftest import make_random_instance

TINY_BASE = ExperimentConfig(n_users=60)


class TestPaperMethods:
    def test_contains_the_three_paper_methods(self):
        methods = paper_methods(seed=0)
        assert set(methods) == {"GRD", "TOP", "RAND"}

    def test_engine_spec_propagates(self):
        methods = paper_methods(seed=0, engine="reference")
        assert all(m.engine_spec.kind == "reference" for m in methods.values())


class TestRunPoint:
    def test_returns_result_per_method(self):
        instance = make_random_instance(seed=300)
        results = run_point(instance, 3, paper_methods(seed=1))
        assert set(results) == {"GRD", "TOP", "RAND"}
        assert all(r.achieved_k == 3 for r in results.values())

    def test_grd_wins_or_ties_on_utility(self):
        instance = make_random_instance(seed=301, n_users=25)
        results = run_point(instance, 4, paper_methods(seed=2))
        assert results["GRD"].utility >= results["TOP"].utility - 1e-9
        assert results["GRD"].utility >= results["RAND"].utility - 1e-9


class TestRunSweep:
    def test_table_covers_grid_times_methods(self):
        sweep = sweep_k((5, 10), base=TINY_BASE)
        table = run_sweep(sweep, x_label="k", root_seed=0)
        assert table.x_values() == (5.0, 10.0)
        assert len(table.rows) == 2 * 3

    def test_interval_sweep_runs(self):
        sweep = sweep_intervals(k=5, factors=(1.0, 2.0), base=TINY_BASE)
        table = run_sweep(sweep, x_label="|T|", root_seed=0)
        assert table.x_values() == (5.0, 10.0)

    def test_progress_callback_called_per_point(self):
        lines = []
        sweep = sweep_k((5, 10), base=TINY_BASE)
        run_sweep(sweep, x_label="k", root_seed=0, progress=lines.append)
        assert len(lines) == 2

    def test_reproducible_given_root_seed(self):
        sweep = sweep_k((5,), base=TINY_BASE)
        a = run_sweep(sweep, x_label="k", root_seed=3)
        b = run_sweep(sweep, x_label="k", root_seed=3)
        assert [(r.method, r.utility) for r in a.rows] == [
            (r.method, r.utility) for r in b.rows
        ]

    def test_custom_method_factory(self):
        from repro.algorithms.greedy import GreedyScheduler

        sweep = sweep_k((5,), base=TINY_BASE)
        table = run_sweep(
            sweep,
            x_label="k",
            root_seed=0,
            method_factory=lambda: {"ONLY": GreedyScheduler()},
        )
        assert table.methods() == ("ONLY",)

    def test_rows_carry_solver_stats(self):
        sweep = sweep_k((5,), base=TINY_BASE)
        table = run_sweep(sweep, x_label="k", root_seed=0)
        grd_row = next(r for r in table.rows if r.method == "GRD")
        assert grd_row.extra["initial_scores"] > 0
