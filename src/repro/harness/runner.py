"""Sweep runner: materialize instances, run every method, collect rows.

This is the engine behind each Figure 1 panel: given a sweep (list of
``(x, config)``) and a set of solvers, it builds one instance per grid
point through a shared :class:`~repro.workloads.generator.WorkloadGenerator`
and records utility + wall-clock per method.

Method construction is deliberately a *factory* (name -> Scheduler) called
per grid point, so stateful solvers (RAND's generator, SA's temperature)
start fresh each time, with seeds derived from the runner's root seed.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.algorithms.base import ScheduleResult, Scheduler
from repro.algorithms.registry import solver_registry
from repro.core.engine import EngineSpec
from repro.core.instance import SESInstance
from repro.harness.results import SweepRow, SweepTable
from repro.utils.rng import SeedSequenceFactory
from repro.workloads.config import ExperimentConfig
from repro.workloads.generator import WorkloadGenerator

__all__ = ["PAPER_METHOD_NAMES", "paper_methods", "run_point", "run_sweep"]

MethodFactory = Callable[[], dict[str, Scheduler]]

#: Registry names of the paper's evaluation trio, in figure order.
PAPER_METHOD_NAMES: tuple[str, ...] = ("grd", "top", "rand")


def paper_methods(
    seed: int = 0,
    engine: EngineSpec | str | None = None,
    extras: Sequence[str] = (),
) -> dict[str, Scheduler]:
    """The paper's GRD/TOP/RAND trio, built from the solver registry.

    ``extras`` appends further registry names (e.g. ``("sa", "grasp")``)
    so sweeps can compare extension heuristics against the paper methods
    without hand-rolling another solver dict.  ``seed`` is applied to
    every solver registered as seeded.
    """
    spec = EngineSpec.coerce(engine)
    methods: dict[str, Scheduler] = {}
    for name in (*PAPER_METHOD_NAMES, *extras):
        info = solver_registry.get(name)
        methods[info.display_name] = solver_registry.create(
            name, engine=spec, seed=seed if info.seeded else None
        )
    return methods


def run_point(
    instance: SESInstance,
    k: int,
    methods: dict[str, Scheduler],
) -> dict[str, ScheduleResult]:
    """Run every method on one instance; returns results keyed by name."""
    results: dict[str, ScheduleResult] = {}
    for name, solver in methods.items():
        results[name] = solver.solve(instance, k)
    return results


def run_sweep(
    sweep: Sequence[tuple[float, ExperimentConfig]],
    x_label: str,
    title: str = "",
    root_seed: int = 0,
    method_factory: MethodFactory | None = None,
    workload: WorkloadGenerator | None = None,
    progress: Callable[[str], None] | None = None,
    engine: EngineSpec | str | None = None,
) -> SweepTable:
    """Execute a sweep and return the populated table.

    Parameters
    ----------
    sweep:
        ``(x, config)`` pairs, e.g. from :func:`repro.workloads.sweep_k`.
    x_label, title:
        Axis/figure labels carried into reports.
    root_seed:
        Seeds the workload generator and the per-point method seeds.
    method_factory:
        Zero-argument callable producing fresh solvers per grid point;
        defaults to the paper's GRD/TOP/RAND trio.
    workload:
        Shared generator; a fresh one (seeded ``root_seed``) by default.
    progress:
        Optional callback receiving one line per completed grid point
        (the CLI passes ``print``).
    engine:
        :class:`EngineSpec` (or kind string) behind the default method
        trio; ignored when ``method_factory`` is given.
    """
    spec = EngineSpec.coerce(engine)
    table = SweepTable(x_label=x_label, title=title)
    workload = workload or WorkloadGenerator(root_seed=root_seed)
    seeds = SeedSequenceFactory(root_seed + 1)

    for x, config in sweep:
        instance = workload.build(config)
        point_seed = int(seeds.spawn().integers(2**31 - 1))
        methods = (
            method_factory()
            if method_factory
            else paper_methods(seed=point_seed, engine=spec)
        )
        for name, result in run_point(instance, config.k, methods).items():
            table.add(
                SweepRow(
                    x=float(x),
                    method=name,
                    utility=result.utility,
                    runtime_seconds=result.runtime_seconds,
                    achieved_k=result.achieved_k,
                    requested_k=result.requested_k,
                    extra={
                        key: float(value)
                        for key, value in result.stats.as_dict().items()
                    },
                )
            )
        if progress is not None:
            progress(f"{x_label}={x:g}: done ({instance.describe()})")
    return table
