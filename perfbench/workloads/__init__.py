"""The four workloads.  Each runs in its own process over the sparse engine.

This module imports nothing heavy: ``run.py`` imports it to parse its
arguments before numpy is loaded, so the numeric libraries' thread pools
can still be pinned.
"""

from __future__ import annotations

import importlib
from typing import Any

#: Default workload seed, and the held-out seed later claims must also hold on.
DEFAULT_SEED = 2018
HELD_OUT_SEED = 7919

#: ``name -> (module, class)``.
WORKLOADS: dict[str, tuple[str, str]] = {
    "batch-solve": ("perfbench.workloads.solves", "BatchSolve"),
    "serve-mixed": ("perfbench.workloads.serve_mixed", "ServeMixed"),
    "durable-stream": ("perfbench.workloads.durable_stream", "DurableStreamWorkload"),
    "sharded-solve": ("perfbench.workloads.solves", "ShardedSolve"),
}

#: Threads each workload keeps busy at once (clients or shard workers).
LOAD_THREADS: dict[str, int] = {
    "batch-solve": 1,
    "serve-mixed": 2,
    "durable-stream": 1,
    "sharded-solve": 2,
}


#: Seed of the EBSN snapshot every instance is cut from.  Like the paper's
#: one Meetup dump it is fixed: ``--seed`` draws the instance from it
#: (candidate and rival events, sigma, xi, locations), the op lists and the
#: traces, but not the population's interest structure itself, which
#: would move every workload's cost by about 10% from one seed to the next.
SNAPSHOT_SEED = 2018


class Population:
    """The fixed EBSN snapshot a workload's instances are cut from.

    It is the workload's dataset: the harness generates it once per run,
    before the timed set-ups, as a dataset would be loaded once.
    """

    def __init__(self, users: int, k: int) -> None:
        import repro.workloads.generator as generator
        from repro.workloads.config import ExperimentConfig

        self.config = ExperimentConfig(k=k, n_users=users, interest_backend="sparse")
        self._generator = generator.WorkloadGenerator(root_seed=SNAPSHOT_SEED)
        self._generator.snapshot_for(self.config)

    def instance(self, seed: int) -> Any:
        """A sparse-interest instance at the paper's ``|T| = 3k/2`` and ``|E| = 2k``."""
        return self._generator.build(self.config, seed=seed)


def load_workload(name: str) -> Any:
    module, cls = WORKLOADS[name]
    return getattr(importlib.import_module(module), cls)()
