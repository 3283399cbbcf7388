"""Crash recovery: kill a journaled stream replay, recover it, finish it.

A durable stream replay journals every change op it absorbs and writes a
checkpoint every few records (format ``ses-ckpt/3``: schedule, policy
state and the engine's accumulated float state, the last as binary
arrays).  This example

1. replays a generated change trace into a ``Durability`` directory and
   kills it mid-trace with ``stop_after``, leaving the directory as a
   crashed process would;
2. rebuilds the session with ``repro.resilience.recover()``: the newest
   checkpoint the journal covers, then the journal records after it,
   each checked against the journaled utility;
3. finishes the trace with ``resume()`` and asserts that every per-op
   utility and the final schedule equal an uninterrupted replay's;
4. prints the size of each checkpoint file.

It writes only to a temporary directory, which it removes at the end.

Run with::

    python examples/crash_recovery.py
"""

import tempfile
from pathlib import Path

from repro import ExperimentConfig, WorkloadGenerator
from repro.resilience import Durability, recover
from repro.stream import StreamDriver
from repro.workloads.traces import TraceConfig, TraceGenerator

K = 12
SEED = 7
OPS = 40
CHECKPOINT_EVERY = 8
KILL_AT = 27  # past the checkpoint at offset 24


def main() -> None:
    config = ExperimentConfig(k=K, n_users=1_000)
    instance = WorkloadGenerator(root_seed=SEED).build(config)
    trace = TraceGenerator(
        config, TraceConfig(n_ops=OPS), root_seed=SEED
    ).generate()
    clean = StreamDriver(instance, policy="incremental").run(trace)

    with tempfile.TemporaryDirectory(prefix="ses-crash-") as workdir:
        durability = Durability(
            Path(workdir) / "stream", checkpoint_every=CHECKPOINT_EVERY
        )
        killed = StreamDriver(
            instance, policy="incremental", durability=durability
        ).run(trace, stop_after=KILL_AT)
        print(f"killed after op {KILL_AT} of {len(trace)}: "
              f"expected attendance {killed.final_utility:.4f}")

        recovered = recover(durability)
        tail = recovered.offset - recovered.checkpoint_offset
        print(f"recovered from the checkpoint at offset "
              f"{recovered.checkpoint_offset} plus {tail} journaled ops")

        resumed = recovered.resume(trace)
        assert resumed.utilities == clean.utilities, "resumed replay diverged"
        assert resumed.final_schedule == clean.final_schedule
        print(f"resumed to op {len(trace)}: expected attendance "
              f"{resumed.final_utility:.4f}, every op's utility equal to "
              f"the uninterrupted replay's")

        print("\ncheckpoint files:")
        for path in sorted(durability.checkpoint_directory.glob("ckpt-*.json")):
            print(f"  {path.name}  {path.stat().st_size:>9,} bytes")


if __name__ == "__main__":
    main()
