"""Trace generation: seeded change streams derived from experiment configs.

A :class:`TraceGenerator` turns an
:class:`~repro.workloads.config.ExperimentConfig` (which pins the
instance shape: users, events, intervals, locations, xi distribution)
plus a :class:`TraceConfig` (which pins the *stream* shape: op mix,
payload sparsity, pacing) into a replayable
:class:`~repro.stream.trace.Trace`.

All randomness descends from one root seed via
:class:`~repro.utils.rng.SeedSequenceFactory` spawning — one child stream
for op-kind choices, one for payloads, one for timestamps — so the same
``(config, trace_config, root_seed)`` triple always yields the identical
trace, independent of anything generated before it.

The generator simulates the live index space while sampling: a
:class:`~repro.stream.trace.CancelEvent` renumbers subsequent events
exactly like the incremental scheduler does, so every sampled index is
valid at its op's replay position.  Interest payloads are sparse
``(user, value)`` entries with an expected density knob, matching the
Jaccard-mined sparsity regime CSC interest storage is built for.

Generated traces carry their starting shape (``n_events`` /
``n_intervals``), which arms :class:`~repro.stream.trace.Trace`'s
replayability validation: every emitted trace is checked op by op (live
index space, budget monotonicity, no duplicate live names) and a
sampling bug here would surface as a
:class:`~repro.core.errors.TraceError` at generation time rather than as
a corrupted replay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stream.trace import (
    AnnounceRival,
    ArriveCandidate,
    CancelEvent,
    ChangeOp,
    DriftInterest,
    RaiseBudget,
    Trace,
)
from repro.utils.rng import SeedSequenceFactory
from repro.workloads.config import ExperimentConfig

__all__ = ["TraceConfig", "TraceGenerator"]


@dataclass(frozen=True)
class TraceConfig:
    """Shape of a generated change stream.

    The four ``*_rate`` knobs are relative intensities (they are
    normalized into a categorical distribution over op kinds), mirroring
    the arrival-rate / cancellation / rival-intensity framing of the
    streaming scenario; ``budget_rate`` adds occasional budget growth.
    """

    n_ops: int = 50
    arrival_rate: float = 1.0
    cancel_rate: float = 0.5
    rival_rate: float = 0.5
    drift_rate: float = 0.25
    budget_rate: float = 0.1
    #: Expected fraction of users with nonzero interest per sampled column.
    interest_density: float = 0.02
    #: Mean exponential gap between consecutive op timestamps.
    mean_interarrival: float = 1.0
    #: ``k`` growth per budget op.
    budget_step: int = 1
    #: Never cancel below this many live candidate events.
    min_live_events: int = 2

    def __post_init__(self) -> None:
        if self.n_ops < 0:
            raise ValueError(f"n_ops must be non-negative, got {self.n_ops}")
        rates = {
            "arrival_rate": self.arrival_rate,
            "cancel_rate": self.cancel_rate,
            "rival_rate": self.rival_rate,
            "drift_rate": self.drift_rate,
            "budget_rate": self.budget_rate,
        }
        for name, rate in rates.items():
            if rate < 0:
                raise ValueError(f"{name} must be non-negative, got {rate}")
        if sum(rates.values()) <= 0:
            raise ValueError("at least one op rate must be positive")
        if not 0.0 < self.interest_density <= 1.0:
            raise ValueError(
                f"interest_density must lie in (0, 1], got "
                f"{self.interest_density}"
            )
        if self.mean_interarrival <= 0:
            raise ValueError(
                f"mean_interarrival must be positive, got "
                f"{self.mean_interarrival}"
            )
        if self.budget_step <= 0:
            raise ValueError(
                f"budget_step must be positive, got {self.budget_step}"
            )
        if self.min_live_events < 1:
            raise ValueError(
                f"min_live_events must be at least 1, got "
                f"{self.min_live_events}"
            )


#: Op kinds in sampling order (fixed: part of the deterministic contract).
_KINDS = ("arrive", "cancel", "rival", "drift", "budget")


class TraceGenerator:
    """Samples seeded, replayable change traces for one experiment config."""

    def __init__(
        self,
        config: ExperimentConfig,
        trace_config: TraceConfig | None = None,
        root_seed: int = 0,
    ):
        self._config = config
        self._trace_config = trace_config or TraceConfig()
        self._root_seed = root_seed

    @property
    def config(self) -> ExperimentConfig:
        return self._config

    @property
    def trace_config(self) -> TraceConfig:
        return self._trace_config

    @property
    def root_seed(self) -> int:
        return self._root_seed

    # ------------------------------------------------------------------
    def generate(self, n_ops: int | None = None) -> Trace:
        """Sample one trace (``n_ops`` overrides the configured length)."""
        spec = self._trace_config
        count = spec.n_ops if n_ops is None else n_ops
        if count < 0:
            raise ValueError(f"n_ops must be non-negative, got {count}")
        seeds = SeedSequenceFactory(self._root_seed)
        kind_rng = seeds.spawn()
        payload_rng = seeds.spawn()
        time_rng = seeds.spawn()

        weights = np.array(
            [
                spec.arrival_rate,
                spec.cancel_rate,
                spec.rival_rate,
                spec.drift_rate,
                spec.budget_rate,
            ]
        )
        weights = weights / weights.sum()

        n_live = self._config.events  # live candidate-event count
        k = self._config.k
        clock = 0.0
        ops: list[ChangeOp] = []
        for _ in range(count):
            clock += float(time_rng.exponential(spec.mean_interarrival))
            kind = _KINDS[int(kind_rng.choice(len(_KINDS), p=weights))]
            if kind == "cancel" and n_live <= spec.min_live_events:
                kind = "arrive"  # keep the pool alive; arrivals are the dual
            op = self._sample_op(kind, clock, n_live, k, payload_rng)
            ops.append(op)
            if kind == "arrive":
                n_live += 1
            elif kind == "cancel":
                n_live -= 1
            elif kind == "budget":
                k += spec.budget_step
        return Trace(
            ops=tuple(ops),
            n_users=self._config.n_users,
            initial_k=self._config.k,
            n_events=self._config.events,
            n_intervals=self._config.intervals,
            seed=self._root_seed,
            label=f"{self._config.label()} ops={count}",
        )

    # ------------------------------------------------------------------
    def _sample_op(
        self,
        kind: str,
        clock: float,
        n_live: int,
        k: int,
        rng: np.random.Generator,
    ) -> ChangeOp:
        spec = self._trace_config
        if kind == "arrive":
            return ArriveCandidate(
                time=clock,
                location=int(rng.integers(self._config.n_locations)),
                required_resources=float(rng.uniform(*self._config.xi_range)),
                interest=self._sample_entries(rng),
            )
        if kind == "cancel":
            return CancelEvent(time=clock, event=int(rng.integers(n_live)))
        if kind == "rival":
            return AnnounceRival(
                time=clock,
                interval=int(rng.integers(self._config.intervals)),
                interest=self._sample_entries(rng),
            )
        if kind == "drift":
            return DriftInterest(
                time=clock,
                event=int(rng.integers(n_live)),
                interest=self._sample_entries(rng),
            )
        return RaiseBudget(time=clock, new_k=k + spec.budget_step)

    def _sample_entries(self, rng: np.random.Generator):
        """One sparse interest column as sorted ``(user, value)`` entries."""
        n_users = self._config.n_users
        nnz = int(rng.binomial(n_users, self._trace_config.interest_density))
        nnz = max(1, min(n_users, nnz))
        users = np.sort(rng.choice(n_users, size=nnz, replace=False))
        values = rng.uniform(0.0, 1.0, size=nnz)
        # open interval (0, 1]: an exact zero would be a non-entry
        values = 1.0 - values
        return tuple(
            (int(user), float(value)) for user, value in zip(users, values)
        )
