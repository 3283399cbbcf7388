"""Abl 3 — sensitivity to competing-event density.

The paper fixes the mean competing events per interval at the
Meetup-measured 8.1.  This ablation sweeps the density from 0 (monopoly:
the organizer owns the calendar) to 16.2 (doubled competition) and
measures the utility GRD can still extract, timing each solve.  Expected
monotone decrease — competition inflates every Luce denominator.
"""

from __future__ import annotations

import pytest

from repro.algorithms.greedy import GreedyScheduler

from benchmarks.conftest import COMPETING_GRID, instance_for_competing

_K = 60
_DENSITIES = COMPETING_GRID
_UTILITIES: dict[float, float] = {}


@pytest.mark.benchmark(group="ablation3-competing")
@pytest.mark.parametrize("density", _DENSITIES)
def test_grd_under_competition(benchmark, density: float):
    instance = instance_for_competing(density, k=_K)
    solver = GreedyScheduler()
    result = benchmark.pedantic(
        solver.solve, args=(instance, _K), rounds=1, iterations=1
    )
    _UTILITIES[density] = result.utility
    benchmark.extra_info["mean_competing_per_interval"] = density
    benchmark.extra_info["utility"] = result.utility
    benchmark.extra_info["n_competing_total"] = instance.n_competing


@pytest.mark.benchmark(group="ablation3-competing")
def test_competition_hurts_monotonically(benchmark):
    def check():
        if set(_UTILITIES) != set(_DENSITIES):
            pytest.skip("run the density grid first")
        ordered = [_UTILITIES[d] for d in _DENSITIES]
        assert all(a > b for a, b in zip(ordered, ordered[1:]))
        return True

    assert benchmark.pedantic(check, rounds=1, iterations=1)
