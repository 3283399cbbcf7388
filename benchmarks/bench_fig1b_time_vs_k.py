"""Fig 1b — execution time versus the number of scheduled events k.

The paper's Figure 1b plots solver wall-clock against k.  Here the
pytest-benchmark measurement *is* the figure: one timed case per
(method, k), same instances as Fig 1a (session-cached, so generation cost
is excluded).  Compare the ``mean`` column across rows of the
``fig1b-time-vs-k`` group to read the figure.

Paper shapes asserted, on each solve's Eq. 4 work
(``SolverStats.initial_scores + score_updates``): deterministic
counters, so the check does not depend on a single wall-clock sample.

* RAND is orders of magnitude cheaper than the scoring methods;
* GRD costs more than TOP at equal k (TOP skips all score updates), and
  the gap grows with k.
"""

from __future__ import annotations

import pytest

from repro.api import solver_registry

from benchmarks.conftest import K_GRID, instance_for_k

_WORK: dict[tuple[str, int], int] = {}


def _method(name: str, k: int):
    seeded = solver_registry.get(name.lower()).seeded
    return solver_registry.create(name.lower(), seed=k if seeded else None)


@pytest.mark.benchmark(group="fig1b-time-vs-k")
@pytest.mark.parametrize("k", K_GRID)
@pytest.mark.parametrize("method", ["GRD", "TOP", "RAND"])
def test_fig1b_point(benchmark, method: str, k: int):
    instance = instance_for_k(k)
    solver = _method(method, k)

    result = benchmark.pedantic(
        solver.solve, args=(instance, k), rounds=1, iterations=1
    )
    _WORK[(method, k)] = (
        result.stats.initial_scores + result.stats.score_updates
    )

    assert result.achieved_k == k
    benchmark.extra_info["k"] = k
    benchmark.extra_info["method"] = method
    benchmark.extra_info["initial_scores"] = result.stats.initial_scores
    benchmark.extra_info["score_updates"] = result.stats.score_updates


@pytest.mark.benchmark(group="fig1b-time-vs-k")
def test_fig1b_shape(benchmark):
    def check():
        for k in K_GRID:
            if ("GRD", k) not in _WORK:
                pytest.skip("run the full fig1b group to check shapes")
        for k in K_GRID:
            assert _WORK[("RAND", k)] < _WORK[("GRD", k)]
            assert _WORK[("RAND", k)] < _WORK[("TOP", k)]
            assert _WORK[("GRD", k)] > _WORK[("TOP", k)]
        first, last = K_GRID[0], K_GRID[-1]
        assert (
            _WORK[("GRD", last)] - _WORK[("TOP", last)]
            > _WORK[("GRD", first)] - _WORK[("TOP", first)]
        )
        return True

    assert benchmark.pedantic(check, rounds=1, iterations=1)
