"""``durable-stream``: a journaled stream replay, killed, recovered and resumed.

Why: checkpoints dominate the time (every ``CheckpointStore.write``
encodes the whole instance as JSON), while per-op repair
(``LiveInstance``, ``IncrementalScheduler``, plane deltas) sets the
median op.  Recovery reads the same files, so a cheaper checkpoint that
makes recovery slower shows up in ``recover_s``.  5,000 users rather
than 20,000 because one JSON encode of the 20,000-user instance takes
seconds and produces over 100 MB.

One cycle replays a 96-op generated trace with the incremental policy
and a ``Durability`` directory at the default cadence (a checkpoint
every 16 records), kills the replay after op 88 (past the checkpoint at
80), times ``repro.resilience.recover()`` on the directory, and
finishes the trace with ``resume()``.  Each op is timed from outside
the driver, from the moment the policy starts applying it until its
journal record, and any checkpoint that record triggers, is written.
The resumed run's per-op utilities, final schedule and final utility
must equal an uninterrupted replay's bit for bit; that replay (with 0
instance freezes) is made in set-up and not timed.

The seed draws one trace, and every cycle replays it; a timed window
runs at least :data:`MIN_CYCLES` cycles and ``utility_mean`` covers the
first.  Six ops of each cycle trigger a checkpoint; with twelve such ops
in a window, the tail percentile (ten ops beyond it) is always a
checkpointing op.  Arrivals are about 85% of the trace's ops (the
generator's other rates stay at their defaults), so the median op is an
arrival's repair rather than falling between the cheap ops (cancel,
rival, budget) and the dear ones, where each seed's op mix would decide
it.
"""

from __future__ import annotations

import itertools
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from perfbench.checks import replay_mismatches, schedule_key
from perfbench.harness import OpLog, Outcome, digest_instance, latency_bands, new_digest
from perfbench.workloads import Population


#: Fewest cycles a timed window runs.
MIN_CYCLES = 2


@dataclass
class DurableState:
    instance: Any
    trace: Any
    #: The uninterrupted replay of ``trace``, made in set-up.
    reference: Any
    workdir: Path


class _OpStamps:
    """Opens an op when the policy starts applying a trace op and closes
    it when the driver's journal record for that op returns."""

    def __init__(self, ops: OpLog) -> None:
        self.ops = ops
        self.armed = False
        self._saved: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        from repro.resilience.stream import DurableStream
        from repro.stream.policies import IncrementalPolicy

        apply = IncrementalPolicy.__dict__["apply"]
        record = DurableStream.__dict__["record"]
        stamps = self

        def timed_apply(policy: Any, op: Any) -> None:
            if stamps.armed:
                stamps.ops.begin(op.kind)
            apply(policy, op)

        def timed_record(durable: Any, op: Any, observed: Any) -> None:
            try:
                record(durable, op, observed)
            finally:
                if stamps.armed:
                    stamps.ops.end()

        self._saved = [(IncrementalPolicy, "apply", apply), (DurableStream, "record", record)]
        IncrementalPolicy.apply = timed_apply  # type: ignore[method-assign]
        DurableStream.record = timed_record  # type: ignore[method-assign]

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved = []


class DurableStreamWorkload:
    name = "durable-stream"
    load_threads = 1
    users = 5_000
    k = 24
    trace_ops = 96
    #: Past the checkpoint at 80 (the default cadence is 16 records).
    kill_at = 88

    def __init__(self) -> None:
        self._cycles = itertools.count()

    @staticmethod
    def _spec() -> Any:
        from repro.api import EngineSpec

        return EngineSpec(kind="sparse")

    def load_dataset(self) -> Population:
        return Population(self.users, self.k)

    def setup(self, seed: int, workdir: Path, dataset: Population) -> DurableState:
        from repro.stream import StreamDriver
        from repro.workloads.traces import TraceConfig, TraceGenerator

        instance = dataset.instance(seed)
        shape = TraceConfig(n_ops=self.trace_ops, arrival_rate=8.0)
        trace = TraceGenerator(dataset.config, shape, root_seed=seed).generate()
        reference = StreamDriver(instance, policy="incremental", engine=self._spec()).run(trace)
        return DurableState(instance, trace, reference, workdir)

    def input_digest(self, state: DurableState) -> str:
        digest = new_digest()
        digest_instance(digest, state.instance)
        digest.update(state.trace.to_jsonl().encode())
        return digest.hexdigest()

    def rearm(self, state: DurableState) -> DurableState:
        return state

    def run(self, state: DurableState, ops: OpLog, seconds: float | None) -> Outcome:
        """Whole cycles; a traced pass (``seconds=None``) runs one."""
        import repro.resilience as resilience
        from repro.stream import StreamDriver

        outcome = Outcome(ops)
        stamps = _OpStamps(ops)
        directories = []
        stamps.install()
        started = time.perf_counter()
        try:
            for cycle in itertools.count():
                if seconds is None:
                    if cycle:
                        break
                elif cycle >= MIN_CYCLES and time.perf_counter() - started >= seconds:
                    break
                durability = resilience.Durability(
                    state.workdir / f"cycle-{next(self._cycles)}"
                )
                directories.append(durability.directory)
                driver = StreamDriver(
                    state.instance, policy="incremental", engine=self._spec(),
                    durability=durability,
                )
                stamps.armed = True
                killed = driver.run(state.trace, stop_after=self.kill_at)
                stamps.armed = False
                recover_started = time.perf_counter()
                recovered = resilience.recover(durability)
                outcome.recover.append(time.perf_counter() - recover_started)
                stamps.armed = True
                resumed = recovered.resume(state.trace)
                stamps.armed = False
                outcome.results.append((killed, resumed))
            outcome.elapsed = time.perf_counter() - started
        finally:
            stamps.uninstall()
            for directory in directories:
                shutil.rmtree(directory, ignore_errors=True)
        return outcome

    def check(self, state: DurableState, outcome: Outcome) -> None:
        reference = state.reference
        if reference.freezes:
            outcome.fail(outcome.attempted, f"the uninterrupted replay froze the "
                         f"instance {reference.freezes} times")
        for cycle, (killed, resumed) in enumerate(outcome.results):
            problems = replay_mismatches(
                killed.utilities, {}, 0.0,
                reference.utilities[:self.kill_at], {}, 0.0,
            ) + replay_mismatches(
                resumed.utilities, resumed.final_schedule, resumed.final_utility,
                reference.utilities, reference.final_schedule, reference.final_utility,
            )
            if problems:
                outcome.fail(min(len(problems), self.trace_ops),
                             f"cycle {cycle}: " + "; ".join(problems[:3]))
            if cycle == 0:
                outcome.utilities.extend(resumed.utilities)
        outcome.signature = [
            (resumed.utilities, schedule_key(resumed.final_schedule), resumed.final_utility)
            for _, resumed in outcome.results
        ]
        outcome.notes.append(latency_bands(outcome.ops))
