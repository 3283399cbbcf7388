"""Abl 2 — Algorithm 1's eager update versus GRD's lazy rescoring.

Algorithm 1 rescores the picked interval's whole row after every pick
(the eager loop, kept as the test oracle in
``tests/algorithms/eager_grd.py``).  GRD — and ``grd-heap``, the name
the former heap variant is still requested under — marks that row stale
instead and rescores only the stale cells that reach the top.  Both must
select the same schedule with the same utility bits: a stale score is
an upper bound on the current one, and a cell's bits do not depend on
the batch it is scored in.  This benchmark verifies that at k=100 while
measuring the difference in score-update counts; its checks read only
counters and bits, so they do not depend on a wall-clock sample.

The agreement check runs through a module-scoped fixture accumulator
(not a module global), and the fixture's *teardown* enforces
completeness: if only one variant ran — whether because
``test_variants_agree`` was deselected (``-k eager``) or the other
variant was filtered out — the teardown errors naming the missing
variant.  A partial run can never read as a passing agreement.
"""

from __future__ import annotations

import pytest

from repro.algorithms.greedy import GreedyScheduler

from benchmarks.conftest import instance_for_k
from tests.algorithms.eager_grd import EagerGreedyScheduler

_K = 100
_VARIANTS = ("eager", "lazy")


@pytest.fixture(scope="module")
def variant_results():
    """Accumulates each variant's full result for the agreement check.

    The teardown is the loud-failure backstop: a run that recorded some
    variants but not all of them errors here even when the agreement
    test itself was deselected.
    """
    results: dict[str, object] = {}
    yield results
    missing = [v for v in _VARIANTS if v not in results]
    if results and missing:
        raise RuntimeError(
            f"partial ablation run: variant(s) {missing} never ran, so "
            f"eager and lazy GRD were not compared — run the module "
            f"unfiltered"
        )


@pytest.mark.benchmark(group="ablation2-lazy")
@pytest.mark.parametrize("variant", list(_VARIANTS))
def test_grd_variant(benchmark, variant: str, variant_results):
    instance = instance_for_k(_K)
    solver = EagerGreedyScheduler() if variant == "eager" else GreedyScheduler()
    result = benchmark.pedantic(
        solver.solve, args=(instance, _K), rounds=1, iterations=1
    )
    variant_results[variant] = result
    benchmark.extra_info["variant"] = variant
    benchmark.extra_info["utility"] = result.utility
    benchmark.extra_info["score_updates"] = result.stats.score_updates
    benchmark.extra_info["pops"] = result.stats.pops


@pytest.mark.benchmark(group="ablation2-lazy")
def test_variants_agree(benchmark, variant_results):
    def check():
        missing = [v for v in _VARIANTS if v not in variant_results]
        if missing:
            pytest.fail(
                f"variant(s) {missing} did not run — the agreement check "
                f"needs both; run the module unfiltered"
            )
        eager = variant_results["eager"]
        lazy = variant_results["lazy"]
        assert list(lazy.schedule) == list(eager.schedule)
        assert lazy.utility.hex() == eager.utility.hex()
        assert lazy.stats.score_updates < eager.stats.score_updates, (
            "lazy rescoring's whole point is fewer score updates"
        )
        return True

    assert benchmark.pedantic(check, rounds=1, iterations=1)
