"""Solve-free restores: recovery from a checkpoint past offset 0 binds
the policy straight onto the checkpoint's schedule, so it runs no greedy
fill and no solve; the offset-0 floor keeps its fresh bind."""

from __future__ import annotations

import pytest

from repro.algorithms.incremental import IncrementalScheduler
from repro.core.engine import SparseEngine
from repro.resilience import Durability, recover
from repro.stream import StreamDriver

from tests.resilience.conftest import ENGINE, golden_instance, golden_trace

#: A policy name and its parameters; periodic-rebuild with a solver other
#: than "grd" also re-solves when it binds.
POLICIES = [
    ("incremental", {}),
    ("periodic-rebuild", {"rebuild_every": 2, "solver": "grd-heap"}),
    ("hybrid", {}),
]


@pytest.fixture
def counts(monkeypatch):
    """Greedy fills and Eq. 4 kernel calls made from here on."""
    seen = {"fills": 0, "kernel": 0}
    fill = IncrementalScheduler._fill
    kernel = SparseEngine._scores_for_rows

    def counting_fill(self, *args, **kwargs):
        seen["fills"] += 1
        return fill(self, *args, **kwargs)

    def counting_kernel(self, *args, **kwargs):
        seen["kernel"] += 1
        return kernel(self, *args, **kwargs)

    monkeypatch.setattr(IncrementalScheduler, "_fill", counting_fill)
    monkeypatch.setattr(SparseEngine, "_scores_for_rows", counting_kernel)
    return seen


def _run(policy, params, durability=None, stop_after=None):
    return StreamDriver(
        golden_instance("dense_a"),
        policy=policy,
        engine=ENGINE,
        durability=durability,
        **params,
    ).run(golden_trace("dense_a"), stop_after=stop_after)


@pytest.mark.parametrize("policy, params", POLICIES)
def test_restore_past_offset_zero_runs_no_fill(policy, params, counts, tmp_path):
    durability = Durability(tmp_path / "ses", checkpoint_every=4)
    _run(policy, params, durability, stop_after=8)
    counts.update(fills=0, kernel=0)
    recovered = recover(durability)
    # the checkpoint at 8 leaves no journal tail to replay
    assert recovered.checkpoint_offset == recovered.offset == 8
    assert counts == {"fills": 0, "kernel": 0}
    plane = recovered.policy.scheduler.plane
    assert (plane.fills, plane.cells_filled) == (0, 0)
    clean = _run(policy, params)
    resumed = recovered.resume(golden_trace("dense_a"))
    assert resumed.utilities == clean.utilities
    assert resumed.final_schedule == clean.final_schedule


def test_offset_zero_floor_binds_fresh(counts, tmp_path):
    durability = Durability(tmp_path / "ses", checkpoint_every=4)
    _run("incremental", {}, durability, stop_after=0)
    counts.update(fills=0, kernel=0)
    recovered = recover(durability)
    assert recovered.checkpoint_offset == recovered.offset == 0
    assert counts["fills"] == 1  # the initial greedy fill, bit-exact by construction
    assert recovered.policy.scheduler.plane.fills == 1
    clean = _run("incremental", {})
    resumed = recovered.resume(golden_trace("dense_a"))
    assert resumed.utilities == clean.utilities
    assert resumed.final_schedule == clean.final_schedule
