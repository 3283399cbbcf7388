"""Cold solves back to back: ``batch-solve`` and ``sharded-solve``.

Both run one caller issuing the same GRD request through
:func:`repro.api.solve_once`, which builds a fresh session (engine and
score plane) per solve, exactly as ``ses-repro solve`` does.  Every
solve must return the same feasible schedule, with a utility that
recomputes within 1e-9.  ``utility_mean`` covers the first
``fixed_ops`` solves, which every run completes.

There is no journal to recover, so ``recover_s`` here is the time to
rebuild a session and fill its score plane from the in-memory instance:
what a restarted process pays before its first warm answer.  The
harness times these restarts after the window, outside set-up.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from perfbench.checks import UtilityOracle, schedule_key
from perfbench.harness import MIN_OPS, OpLog, Outcome, digest_instance, new_digest
from perfbench.workloads import Population


@dataclass
class SolveState:
    instance: Any
    request: Any


class ColdSolves:
    name = ""
    load_threads = 1
    users = 0
    k = 0
    #: Solves per pass of a traced run, and the solves ``utility_mean`` covers.
    fixed_ops = 0

    def spec(self) -> Any:
        raise NotImplementedError

    def load_dataset(self) -> Any:
        raise NotImplementedError

    def build_instance(self, seed: int, dataset: Any) -> Any:
        raise NotImplementedError

    def setup(self, seed: int, workdir: Path, dataset: Any) -> SolveState:
        from repro.api import SolveRequest

        instance = self.build_instance(seed, dataset)
        return SolveState(instance, SolveRequest(k=self.k, solver="grd", engine=self.spec()))

    def restart(self, state: SolveState) -> None:
        from repro.api import ScheduleSession

        ScheduleSession(state.instance, default_engine=self.spec()).plane_for().ensure()

    def input_digest(self, state: SolveState) -> str:
        digest = new_digest()
        digest_instance(digest, state.instance)
        return digest.hexdigest()

    def rearm(self, state: SolveState) -> SolveState:
        return state

    def run(self, state: SolveState, ops: OpLog, seconds: float | None) -> Outcome:
        import repro.api

        outcome = Outcome(ops)
        started = time.perf_counter()
        while True:
            done = len(outcome.results)
            if seconds is None:
                if done >= self.fixed_ops:
                    break
            elif done >= MIN_OPS and time.perf_counter() - started >= seconds:
                break
            with ops.op():
                response = repro.api.solve_once(state.instance, state.request)
            outcome.results.append(response.result)
        outcome.elapsed = time.perf_counter() - started
        return outcome

    def check(self, state: SolveState, outcome: Outcome) -> None:
        oracle = UtilityOracle()
        first = schedule_key(outcome.results[0].schedule)
        for index, result in enumerate(outcome.results):
            problem = oracle.problem(state.instance, result.schedule, result.utility)
            if problem is None and schedule_key(result.schedule) != first:
                problem = "schedule differs from the first solve's"
            if problem is not None:
                outcome.fail(1, f"solve {index}: {problem}")
        outcome.utilities = [result.utility for result in outcome.results[:self.fixed_ops]]
        outcome.signature = [
            (result.utility, schedule_key(result.schedule)) for result in outcome.results
        ]


class BatchSolve(ColdSolves):
    """The paper's experiment: cold GRD at k=60 on 20,000 users.

    Why: about 93% of a cold solve sits in
    ``SparseEngine.scores_for_interval``, so Eq. 4 kernel work shows
    here first, while the serve, live, stream, resilience and shard
    layers do nothing.
    """

    name = "batch-solve"
    load_threads = 1
    users = 20_000
    k = 60
    fixed_ops = 4

    def spec(self) -> Any:
        from repro.api import EngineSpec

        return EngineSpec(kind="sparse")

    def load_dataset(self) -> Population:
        return Population(self.users, self.k)

    def build_instance(self, seed: int, dataset: Population) -> Any:
        return dataset.instance(seed)


class ShardedSolve(ColdSolves):
    """Cold GRD at k=12 on 250,000 users through two shards on two threads.

    Why: the only workload that runs ``repro.shard``.  The instance is
    16 accumulation blocks of 16,384 users, 8 per shard; fan-out, merge
    and the thread executor do most of the work and the per-column
    kernel is tiny, so a cheaper dispatch shows here and nowhere else.
    """

    name = "sharded-solve"
    load_threads = 2
    users = 250_000
    k = 12
    fixed_ops = 16

    def spec(self) -> Any:
        from repro.api import EngineSpec

        return EngineSpec(kind="sparse", shards=2, workers=2)

    def load_dataset(self) -> None:
        """None: the instance is synthesized whole, block by block, in set-up."""

    def build_instance(self, seed: int, dataset: None) -> Any:
        import repro.workloads.generator as generator

        return generator.synthesize_sharded_instance(
            self.users, n_events=64, n_intervals=12, shards=2, seed=seed
        )
