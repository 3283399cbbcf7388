"""Shared fixtures for the benchmark suite.

Scale knobs (environment variables):

``SES_BENCH_USERS``
    Population size per instance (default 1200).  The paper ran 42,444
    Meetup users on C++; the default keeps the whole suite laptop-sized
    while preserving every qualitative shape.  Set to 42444 for a
    full-scale parity run.
``SES_BENCH_FULL``
    When set (to anything non-empty), use the paper's full grids
    (k in {100..500}, |T| in {k/5..3k}); default grids drop the two most
    expensive points of each sweep.

Instances are materialized once per grid point and cached for the whole
pytest session, so pytest-benchmark timings measure *solving*, never
workload generation.  Every instance is cut from one EBSN snapshot,
generated before the first instance from the largest config any grid
asks for, so an instance does not depend on which files ran first.
"""

from __future__ import annotations

import os

import pytest

from repro.core.instance import SESInstance
from repro.workloads.config import ExperimentConfig
from repro.workloads.generator import WorkloadGenerator

BENCH_USERS = int(os.environ.get("SES_BENCH_USERS", "1200"))
FULL_GRIDS = bool(os.environ.get("SES_BENCH_FULL", ""))

#: Fig 1a/1b x-axis. The paper sweeps k up to 500; the default grid stops
#: at 300 to keep the suite under a few minutes (SES_BENCH_FULL restores it).
K_GRID: tuple[int, ...] = (100, 200, 300, 400, 500) if FULL_GRIDS else (100, 200, 300)

#: Fig 1c/1d x-axis, as |T| values for k = 100 (paper: k/5 .. 3k).
INTERVAL_GRID: tuple[int, ...] = (
    (20, 50, 100, 150, 200, 300) if FULL_GRIDS else (20, 50, 100, 150, 200)
)

#: Abl 3's competing-event densities (mean rivals per interval) at k = 60.
COMPETING_GRID: tuple[float, ...] = (0.0, 4.0, 8.1, 16.2)

_BASE = ExperimentConfig(n_users=BENCH_USERS)
_GENERATOR = WorkloadGenerator(root_seed=2018)  # the paper's year
_CACHE: dict[tuple, SESInstance] = {}


def _competing_config(mean_competing: float, k: int) -> ExperimentConfig:
    return ExperimentConfig(k=k, n_users=BENCH_USERS, mean_competing=mean_competing)


#: The config whose snapshot covers every grid point above.  The
#: generator draws a new snapshot, further along its random stream,
#: whenever a config needs more pool events than the current one holds,
#: so an instance would depend on which configs came before it.  Drawing
#: the largest first makes it the only draw.
_SNAPSHOT_CONFIG = max(
    [_BASE.with_k(k) for k in K_GRID]
    + [_BASE.with_k(100).with_intervals(t) for t in INTERVAL_GRID]
    + [_competing_config(density, 60) for density in COMPETING_GRID],
    key=lambda config: config.required_pool_events,
)


def _build(config: ExperimentConfig, seed: int) -> SESInstance:
    if config.required_pool_events > _SNAPSHOT_CONFIG.required_pool_events:
        raise ValueError(
            f"{config} needs a larger snapshot than {_SNAPSHOT_CONFIG}; "
            f"add its grid to the snapshot config"
        )
    _GENERATOR.snapshot_for(_SNAPSHOT_CONFIG)
    return _GENERATOR.build(config, seed=seed)


def instance_for_k(k: int) -> SESInstance:
    """Paper-default instance at budget ``k`` (|E| = 2k, |T| = 3k/2)."""
    key = ("k", k)
    if key not in _CACHE:
        _CACHE[key] = _build(_BASE.with_k(k), seed=k)
    return _CACHE[key]


def instance_for_intervals(n_intervals: int, k: int = 100) -> SESInstance:
    """Instance with pinned |T| at the paper-default k = 100."""
    key = ("T", n_intervals, k)
    if key not in _CACHE:
        config = _BASE.with_k(k).with_intervals(n_intervals)
        _CACHE[key] = _build(config, seed=10_000 + n_intervals)
    return _CACHE[key]


def instance_for_competing(mean_competing: float, k: int = 60) -> SESInstance:
    """Instance with non-default competing-event density (Abl 3)."""
    key = ("C", mean_competing, k)
    if key not in _CACHE:
        config = _competing_config(mean_competing, k)
        _CACHE[key] = _build(config, seed=20_000 + int(mean_competing * 10))
    return _CACHE[key]


@pytest.fixture(scope="session")
def bench_users() -> int:
    return BENCH_USERS
