"""Deterministic mixed serving workloads (solve / what-if / stream).

The concurrency story of :class:`~repro.serve.session.ServingSession` is
only testable if the workload itself cannot smuggle nondeterminism in:
with worker threads stealing items off a shared queue, anything sampled
*inside* a worker would depend on the interleaving.  So randomness is
bound to **items, not workers**: the whole request list — solver mix,
per-item seeds for stochastic solvers, what-if targets — is
materialized up front from one
:class:`~repro.utils.rng.SeedSequenceFactory` root, and each item's
outcome is a pure function of (item, instance version).  A concurrent
run with a fixed root seed therefore produces exactly the same multiset
of response fingerprints as a serial replay, regardless of thread
interleaving — the property ``test_serving_session.py`` asserts.  The
determinism lint audits this module with the benchmarks and conftests.

:func:`run_item` executes one item through a :class:`ServingSession`;
:func:`run_item_cold` executes the same item against a bare instance
with per-request construction (the cold baseline).  Both reduce the
outcome to the same :func:`fingerprint` shape, so warm-vs-cold parity is
one set comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.algorithms.registry import solver_registry
from repro.api.requests import SolveRequest
from repro.core.engine import EngineSpec
from repro.core.instance import SESInstance
from repro.serve.session import ServingSession
from repro.utils.rng import SeedSequenceFactory

__all__ = ["WorkItem", "make_workload", "run_item", "run_item_cold"]

#: Default solver rotation: the GRD family the warm plane accelerates.
DEFAULT_SOLVERS: tuple[str, ...] = ("grd", "grd-heap", "top")

#: Re-solve budget for seeded solvers drawn into the mix.
_SEED_RANGE = 2**31


@dataclass(frozen=True)
class WorkItem:
    """One pre-sampled client request (pure data, thread-agnostic).

    ``kind`` is ``"solve"`` (a :class:`SolveRequest`), ``"what-if"`` (a
    :func:`repro.harness.whatif.competition_cost` query against rival
    ``competing_index``) or ``"stream"`` (a simulated replay of
    ``trace``).  Fields not used by a kind stay at their defaults.
    """

    index: int
    kind: str
    k: int
    request: SolveRequest | None = None
    competing_index: int = 0
    trace: Any = field(default=None, compare=False)

    def label(self) -> str:
        if self.kind == "solve" and self.request is not None:
            return f"{self.index}:{self.request.solver}"
        return f"{self.index}:{self.kind}"


def make_workload(
    n_items: int,
    k: int,
    root_seed: int,
    *,
    solvers: tuple[str, ...] = DEFAULT_SOLVERS,
    engine: EngineSpec | str | None = None,
    n_competing: int = 0,
    whatif_every: int = 0,
    trace: Any = None,
    stream_every: int = 0,
) -> tuple[WorkItem, ...]:
    """Pre-sample a mixed request list from one root seed.

    Every ``whatif_every``-th item becomes a competition-cost query
    (requires ``n_competing > 0``) and every ``stream_every``-th a
    simulated trace replay (requires ``trace``); everything else is a
    solve whose solver cycles through ``solvers`` via the seeded mix
    generator.  Stochastic solvers get a per-item child seed, so item
    ``i`` is reproducible in isolation — its randomness never depends on
    how many draws other items consumed, let alone on which thread runs
    it.
    """
    if n_items < 0:
        raise ValueError(f"n_items must be non-negative, got {n_items}")
    if not solvers:
        raise ValueError("solvers must name at least one solver")
    factory = SeedSequenceFactory(root_seed)
    mix_rng = factory.spawn()
    items: list[WorkItem] = []
    for index in range(n_items):
        item_rng = factory.spawn()
        if whatif_every and n_competing and (index + 1) % whatif_every == 0:
            items.append(
                WorkItem(
                    index=index,
                    kind="what-if",
                    k=k,
                    competing_index=int(item_rng.integers(n_competing)),
                )
            )
            continue
        if trace is not None and stream_every and (
            index + 1
        ) % stream_every == 0:
            items.append(
                WorkItem(index=index, kind="stream", k=k, trace=trace)
            )
            continue
        solver = solvers[int(mix_rng.integers(len(solvers)))]
        seed = (
            int(item_rng.integers(_SEED_RANGE))
            if solver_registry.get(solver).seeded
            else None
        )
        items.append(
            WorkItem(
                index=index,
                kind="solve",
                k=k,
                request=SolveRequest(
                    k=k,
                    solver=solver,
                    engine=engine,
                    seed=seed,
                    label=f"item-{index}",
                ),
            )
        )
    return tuple(items)


def fingerprint(item: WorkItem, payload: Any) -> tuple[Any, ...]:
    """Reduce one outcome to a hashable, bit-exact comparison key."""
    return (item.index, item.kind, payload)


def run_item(serving: ServingSession, item: WorkItem) -> tuple[Any, ...]:
    """Execute one item through the serving session (warm path)."""
    if item.kind == "solve":
        assert item.request is not None
        response = serving.solve(item.request)
        return fingerprint(
            item,
            (
                response.utility,
                tuple(sorted(response.schedule.as_mapping().items())),
            ),
        )
    if item.kind == "what-if":
        return fingerprint(
            item, serving.competition_cost(item.k, item.competing_index)
        )
    if item.kind == "stream":
        result = serving.stream(item.trace, policy="incremental")
        return fingerprint(
            item,
            (
                result.final_utility,
                tuple(sorted(result.final_schedule.items())),
            ),
        )
    raise ValueError(f"unknown work item kind {item.kind!r}")


def run_item_cold(
    instance: SESInstance,
    item: WorkItem,
    *,
    default_engine: EngineSpec | str | None = None,
) -> tuple[Any, ...]:
    """Execute one item with per-request construction (cold baseline).

    Solver, engine and every accelerating structure are built from
    scratch, exactly what serving without the pool would pay; outcomes
    are fingerprint-compatible with :func:`run_item`, so warm-vs-cold
    parity is a direct set comparison.
    """
    default_spec = EngineSpec.coerce(default_engine)
    if item.kind == "solve":
        assert item.request is not None
        request = item.request
        spec = (
            EngineSpec.coerce(request.engine)
            if request.engine is not None
            else default_spec
        )
        solver = solver_registry.create(
            request.solver,
            engine=spec,
            seed=request.seed,
            strict=request.strict,
            **request.params,
        )
        result = solver.solve(instance, request.k)
        return fingerprint(
            item,
            (
                result.utility,
                tuple(sorted(result.schedule.as_mapping().items())),
            ),
        )
    if item.kind == "what-if":
        from repro.harness import whatif

        cost = whatif.competition_cost(
            instance,
            item.k,
            item.competing_index,
            solver=solver_registry.create("grd", engine=default_spec),
        )
        return fingerprint(item, cost)
    if item.kind == "stream":
        from repro.stream import StreamDriver

        driver = StreamDriver(
            instance, policy="incremental", engine=default_spec
        )
        result = driver.run(item.trace)
        return fingerprint(
            item,
            (
                result.final_utility,
                tuple(sorted(result.final_schedule.items())),
            ),
        )
    raise ValueError(f"unknown work item kind {item.kind!r}")
