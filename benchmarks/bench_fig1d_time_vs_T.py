"""Fig 1d — execution time versus the number of time intervals |T|.

Same sweep as Fig 1c, read on the time axis.  Initial scoring is
proportional to |T| x |E| x |U| for both GRD and TOP, so both climb with
|T|; GRD adds k rounds of per-interval updates on top, so the GRD–TOP gap
widens (the paper's stated observation).  RAND remains near-free.  The
shapes are asserted on each solve's Eq. 4 work
(``SolverStats.initial_scores + score_updates``): deterministic
counters, so the check does not depend on a single wall-clock sample.
"""

from __future__ import annotations

import pytest

from repro.api import solver_registry

from benchmarks.conftest import INTERVAL_GRID, instance_for_intervals

_K = 100
_WORK: dict[tuple[str, int], int] = {}


def _method(name: str, seed: int):
    seeded = solver_registry.get(name.lower()).seeded
    return solver_registry.create(name.lower(), seed=seed if seeded else None)


@pytest.mark.benchmark(group="fig1d-time-vs-T")
@pytest.mark.parametrize("n_intervals", INTERVAL_GRID)
@pytest.mark.parametrize("method", ["GRD", "TOP", "RAND"])
def test_fig1d_point(benchmark, method: str, n_intervals: int):
    instance = instance_for_intervals(n_intervals, k=_K)
    solver = _method(method, n_intervals)

    result = benchmark.pedantic(
        solver.solve, args=(instance, _K), rounds=1, iterations=1
    )
    _WORK[(method, n_intervals)] = (
        result.stats.initial_scores + result.stats.score_updates
    )

    benchmark.extra_info["n_intervals"] = n_intervals
    benchmark.extra_info["method"] = method
    benchmark.extra_info["achieved_k"] = result.achieved_k
    benchmark.extra_info["initial_scores"] = result.stats.initial_scores
    benchmark.extra_info["score_updates"] = result.stats.score_updates


@pytest.mark.benchmark(group="fig1d-time-vs-T")
def test_fig1d_shape(benchmark):
    def check():
        for n_intervals in INTERVAL_GRID:
            if ("GRD", n_intervals) not in _WORK:
                pytest.skip("run the full fig1d group to check shapes")
        smallest, largest = INTERVAL_GRID[0], INTERVAL_GRID[-1]
        # scoring cost climbs with |T| for both scoring methods
        assert _WORK[("GRD", largest)] > _WORK[("GRD", smallest)]
        assert _WORK[("TOP", largest)] > _WORK[("TOP", smallest)]
        # RAND cheapest everywhere
        for n_intervals in INTERVAL_GRID:
            assert _WORK[("RAND", n_intervals)] < _WORK[("GRD", n_intervals)]
            assert _WORK[("RAND", n_intervals)] < _WORK[("TOP", n_intervals)]
        # the GRD-TOP gap widens with |T|
        assert (
            _WORK[("GRD", largest)] - _WORK[("TOP", largest)]
            > _WORK[("GRD", smallest)] - _WORK[("TOP", smallest)]
        )
        return True

    assert benchmark.pedantic(check, rounds=1, iterations=1)
