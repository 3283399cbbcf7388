"""``serve-mixed``: two closed-loop clients against one ``ServingSession``.

Why: the warm plane removes the initial score sweep, so the time moves
elsewhere: ``PlanePool`` leases and forks, the per-generation freeze and
template build, dirty-row refresh, the GRD loop, the deadline path's
baseline solve and gap reports.  The engine's share is smaller than in
``batch-solve`` and there is no journal.

The instance is ``batch-solve``'s (20,000 users, k=60).  The clients
work in epochs.  In each epoch each client issues ten requests, a solve
first: four ``grd`` solves, two ``top`` solves, one ``grd-heap`` solve,
one gap report on its latest solve, and two ``grd`` solves that carry a
60 s ``deadline_ms`` (two of nine solves, about a quarter), far above
their latency, so none degrades.  Sorted by latency the kinds form
separate bands (gap < top < grd-heap < grd < deadline grd); with this
mix the median op sits inside the plain ``grd`` band and the tail
percentile inside the deadline band.  Plain ``grd`` is the median kind
because its cost barely moves with the seed (it rescans every candidate
at every step), while ``grd-heap``'s lazy re-evaluations cost about 15%
more or less from one seed's instance to the next, which the two
clients' overlap turned into a quarter of the median.
Between epochs one write commits, rotating through rival, drift,
arrival and cancel, so the seed fixes every read's version and result.
``utility_mean`` covers the first :data:`MIN_EPOCHS` epochs, which every
run completes.

There is no journal to recover, so ``recover_s`` here is the time to
open a ``ServingSession`` over the instance and serve its first (warm-up)
solve: what a restarted process pays.  The harness times these restarts
after the window, outside set-up.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

from perfbench.checks import UtilityOracle, schedule_key
from perfbench.harness import (
    OpLog, Outcome, digest_instance, digest_json, latency_bands, new_digest,
)
from perfbench.workloads import Population

#: Each client's requests in every epoch.  The order is fixed rather than
#: drawn from the seed: the two clients share two cores and the
#: interpreter lock, so which requests overlap moves every latency, and a
#: per-seed order would turn that into seed-to-seed noise.
CLIENT_REQUESTS = (
    ("grd", "top", "grd+deadline", "grd", "gap", "grd-heap", "top",
     "grd+deadline", "grd", "grd"),
    ("top", "grd", "grd-heap", "grd+deadline", "grd", "top", "gap",
     "grd", "grd+deadline", "grd"),
)
CLIENTS = len(CLIENT_REQUESTS)
DEADLINE_MS = 60_000.0
WRITE_KINDS = ("rival", "drift", "arrival", "cancel")
#: Epochs every run completes (``utility_mean``) and a traced pass runs.
MIN_EPOCHS = 2
#: Fewest epochs a timed window runs: 80 ops, 16 of them deadline solves,
#: so the tail percentile (ten ops beyond it) sits inside the deadline band.
WINDOW_EPOCHS = 4
MAX_EPOCHS = 200
#: Expected fraction of users interested in a written column.
WRITE_DENSITY = 0.02


@dataclass
class ServeState:
    instance: Any
    writes: list[dict[str, Any]]
    requests: dict[str, Any]
    serving: Any


def _writes(instance: Any, seed: int) -> list[dict[str, Any]]:
    """The write committed after each epoch, drawn from the seed."""
    rng = np.random.default_rng([seed, 0x5E12E])
    locations = sorted(set(instance.locations))
    low, high = 1.0, min(20.0 / 3.0, instance.theta)
    live_events = instance.n_events
    writes = []
    for epoch in range(MAX_EPOCHS):
        kind = WRITE_KINDS[epoch % len(WRITE_KINDS)]
        write: dict[str, Any] = {"kind": kind}
        if kind in ("rival", "drift", "arrival"):
            nnz = max(1, int(rng.binomial(instance.n_users, WRITE_DENSITY)))
            write["rows"] = np.sort(rng.choice(instance.n_users, size=nnz, replace=False))
            write["values"] = 1.0 - rng.uniform(0.0, 1.0, size=nnz)
        if kind == "rival":
            write["interval"] = int(rng.integers(instance.n_intervals))
        elif kind in ("drift", "cancel"):
            write["event"] = int(rng.integers(live_events))
        else:
            write["location"] = int(locations[int(rng.integers(len(locations)))])
            write["xi"] = float(rng.uniform(low, high))
        live_events += {"arrival": 1, "cancel": -1}.get(kind, 0)
        writes.append(write)
    return writes


def _commit(serving: Any, write: dict[str, Any], n_users: int) -> None:
    if "rows" in write:
        column = np.zeros(n_users)
        column[write["rows"]] = write["values"]
    kind = write["kind"]
    if kind == "rival":
        serving.add_competing(write["interval"], column)
    elif kind == "drift":
        serving.update_event_interest(write["event"], column)
    elif kind == "arrival":
        serving.add_event(write["location"], write["xi"], column)
    else:
        serving.cancel_event(write["event"])


class ServeMixed:
    name = "serve-mixed"
    load_threads = CLIENTS
    users = 20_000
    k = 60

    @staticmethod
    def _spec() -> Any:
        from repro.api import EngineSpec

        return EngineSpec(kind="sparse")

    def _open_session(self, instance: Any, requests: dict[str, Any]) -> Any:
        from repro.serve import ServingSession

        serving = ServingSession(instance, default_engine=self._spec())
        serving.solve(requests["top"])  # fills the primary plane
        return serving

    def load_dataset(self) -> Population:
        return Population(self.users, self.k)

    def setup(self, seed: int, workdir: Path, dataset: Population) -> ServeState:
        from repro.api import SolveRequest

        instance = dataset.instance(seed)
        writes = _writes(instance, seed)
        requests = {
            solver: SolveRequest(k=self.k, solver=solver, engine=self._spec())
            for solver in ("top", "grd-heap", "grd")
        }
        return ServeState(instance, writes, requests, self._open_session(instance, requests))

    def restart(self, state: ServeState) -> None:
        self._open_session(state.instance, state.requests)

    def input_digest(self, state: ServeState) -> str:
        digest = new_digest()
        digest_instance(digest, state.instance)
        digest_json(digest, CLIENT_REQUESTS)
        digest_json(digest, [
            {key: value.tolist() if isinstance(value, np.ndarray) else value
             for key, value in write.items()}
            for write in state.writes
        ])
        return digest.hexdigest()

    def rearm(self, state: ServeState) -> ServeState:
        return replace(state, serving=self._open_session(state.instance, state.requests))

    def _client(self, state: ServeState, epoch: int, client: int, ops: OpLog) -> list[Any]:
        serving = state.serving
        latest = None
        results = []
        for index, kind in enumerate(CLIENT_REQUESTS[client]):
            with ops.op(kind):
                if kind == "gap":
                    output = serving.gap_report(latest)
                elif kind == "grd+deadline":
                    output = serving.solve(state.requests["grd"], deadline_ms=DEADLINE_MS)
                else:
                    output = serving.solve(state.requests[kind])
            if kind != "gap":
                latest = output
            results.append((epoch, client, index, kind, output))
        return results

    def run(self, state: ServeState, ops: OpLog, seconds: float | None) -> Outcome:
        outcome = Outcome(ops)
        serving = state.serving
        first_version = serving.version
        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=CLIENTS, thread_name_prefix="client") as pool:
            for epoch in range(MAX_EPOCHS):
                if seconds is None:
                    if epoch >= MIN_EPOCHS:
                        break
                elif epoch >= WINDOW_EPOCHS and time.perf_counter() - started >= seconds:
                    break
                futures = [
                    pool.submit(self._client, state, epoch, client, ops)
                    for client in range(CLIENTS)
                ]
                for future in futures:
                    outcome.results.extend(future.result())
                outcome.versions[first_version + epoch] = serving.version_instance()
                _commit(serving, state.writes[epoch], state.instance.n_users)
        outcome.elapsed = time.perf_counter() - started
        return outcome

    def check(self, state: ServeState, outcome: Outcome) -> None:
        first_version = min(outcome.versions)
        oracle = UtilityOracle()
        signature = []
        for epoch, client, index, kind, output in outcome.results:
            expected = first_version + epoch
            where = f"epoch {epoch} client {client} request {index} ({kind})"
            if output.version != expected:
                outcome.fail(1, f"{where}: stamped version {output.version}, expected {expected}")
                continue
            if kind == "gap":
                signature.append((epoch, client, index, kind, output.weakest, output.gaps))
                continue
            problem = "degraded response" if output.degraded else oracle.problem(
                outcome.versions[expected], output.schedule, output.utility
            )
            if problem is not None:
                outcome.fail(1, f"{where}: {problem}")
            if epoch < MIN_EPOCHS:
                outcome.utilities.append(output.utility)
            signature.append(
                (epoch, client, index, kind, output.utility, schedule_key(output.schedule))
            )
        cold = state.serving.pool_stats().replica_cold_cells
        if cold:
            outcome.fail(1, f"replicas filled {cold} plane cells cold; forks must copy")
        outcome.signature = sorted(signature, key=lambda row: row[:3])
        outcome.notes.append(latency_bands(outcome.ops))
