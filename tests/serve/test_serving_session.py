"""ServingSession: K-thread serving == serial replay == cold baseline.

The acceptance differential: the same deterministic workload executed by
K concurrent client threads, by a serial replay on a fresh session, and
by per-request cold construction must produce identical response
fingerprints on the sparse AND reference engines — concurrency must be
invisible in the results, visible only in the latency.
"""

import queue
import threading

import numpy as np
import pytest

from repro.api import EngineSpec, SolveRequest
from repro.core.engine import ENGINE_KINDS
from repro.serve import ServingSession
from repro.workloads.config import ExperimentConfig
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.traces import TraceConfig, TraceGenerator

from tests.conftest import make_random_instance
from tests.serve.workload import make_workload, run_item, run_item_cold

SEED = 424


def run_threaded(serving, items, n_threads=4):
    """Drain the workload with worker threads; fingerprints by item index."""
    pending = queue.Queue()
    for item in items:
        pending.put(item)
    fingerprints = [None] * len(items)
    errors = []

    def worker():
        while True:
            try:
                item = pending.get_nowait()
            except queue.Empty:
                return
            try:
                fingerprints[item.index] = run_item(serving, item)
            except BaseException as exc:
                errors.append(exc)
                return

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return fingerprints


def build_workload_instance():
    config = ExperimentConfig(k=4, n_users=80)
    instance = WorkloadGenerator(root_seed=SEED).build(config)
    trace = TraceGenerator(
        config, TraceConfig(n_ops=3), root_seed=SEED
    ).generate()
    return instance, trace


class TestConcurrentDifferential:
    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_k_threads_match_serial_replay_and_cold(self, kind):
        spec = EngineSpec(kind)
        instance, trace = build_workload_instance()
        items = make_workload(
            12,
            4,
            SEED,
            engine=spec,
            n_competing=instance.n_competing,
            whatif_every=5,
            trace=trace,
            stream_every=7,
        )
        assert {item.kind for item in items} == {"solve", "what-if", "stream"}

        threaded = run_threaded(
            ServingSession(instance, default_engine=spec), items, n_threads=4
        )
        serial_session = ServingSession(instance, default_engine=spec)
        serial = [run_item(serial_session, item) for item in items]
        cold = [
            run_item_cold(instance, item, default_engine=spec)
            for item in items
        ]
        assert threaded == serial == cold

    def test_two_runs_same_seed_identical_despite_interleaving(self):
        spec = EngineSpec()
        instance, _ = build_workload_instance()
        items = make_workload(10, 3, SEED, engine=spec, solvers=("grd", "sa"))
        assert any(
            item.request is not None and item.request.seed is not None
            for item in items
        ), "the mix should draw the seeded solver"
        first = run_threaded(
            ServingSession(instance, default_engine=spec), items, n_threads=5
        )
        second = run_threaded(
            ServingSession(instance, default_engine=spec), items, n_threads=2
        )
        assert first == second

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_threads_against_a_mutating_writer_stay_version_consistent(
        self, kind
    ):
        """Solves racing a writer must each match the cold solve of *some*
        committed version — never a torn mix of two versions."""
        spec = EngineSpec(kind)
        instance, _ = build_workload_instance()
        serving = ServingSession(instance, default_engine=spec)
        rng = np.random.default_rng(11)
        versions = {0: serving.version_instance()}
        responses = []
        lock = threading.Lock()
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                response = serving.solve(k=3)
                with lock:
                    responses.append(response)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for _ in range(4):
            serving.add_competing(
                int(rng.integers(instance.n_intervals)),
                rng.random(instance.n_users),
            )
            versions[serving.version] = serving.version_instance()
        stop.set()
        for thread in threads:
            thread.join()

        assert responses
        from repro.api import solver_registry

        expected = {
            version: solver_registry.create(
                "grd", engine=spec
            ).solve(frozen, 3).utility
            for version, frozen in versions.items()
        }
        for response in responses:
            assert response.version in expected
            assert response.utility == expected[response.version]


class TestServingSessionApi:
    @pytest.fixture
    def serving(self):
        instance = make_random_instance(
            n_users=24, n_events=6, n_intervals=4, n_competing=3, seed=31
        )
        return ServingSession(instance)

    def test_solve_accepts_request_or_kwargs(self, serving):
        by_request = serving.solve(SolveRequest(k=3))
        by_kwargs = serving.solve(k=3)
        assert by_request.utility == by_kwargs.utility
        assert by_request.schedule.as_mapping() == (
            by_kwargs.schedule.as_mapping()
        )
        with pytest.raises(TypeError, match="not both"):
            serving.solve(SolveRequest(k=3), k=3)

    def test_responses_are_version_stamped(self, serving):
        first = serving.solve(k=2)
        assert first.version == 0
        assert not first.pool_hit
        second = serving.solve(k=2)
        assert second.pool_hit  # replica parked by the first solve
        assert second.response.reused_engine
        assert "@v0" in first.summary()

        serving.add_competing(0, np.full(24, 0.5))
        assert serving.version == 1
        third = serving.solve(k=2)
        assert third.version == 1
        assert not third.pool_hit

    def test_mutators_commit_and_renumber(self, serving):
        column = np.full(24, 0.25)
        event = serving.add_event(
            location=0, required_resources=2.0, interest_column=column
        )
        assert event == 6
        assert serving.version_instance().n_events == 7
        serving.update_event_interest(event, np.full(24, 0.75))
        assert serving.cancel_event(0) == 0
        assert serving.version_instance().n_events == 6
        assert serving.version == 3
        # post-mutation solves still match a cold solve of the new state
        from repro.api import solver_registry

        warm = serving.solve(k=3)
        cold = solver_registry.create("grd", engine=serving.default_engine)
        result = cold.solve(serving.version_instance(), 3)
        assert warm.utility == result.utility
        assert warm.schedule.as_mapping() == result.schedule.as_mapping()

    def test_whatif_and_report_serve_current_version(self, serving):
        cost = serving.competition_cost(3, 0)
        assert cost >= 0.0
        schedule = serving.solve(k=3).schedule
        report = serving.report(schedule)
        assert report.format()
        curve = serving.what_if_theta(3, [5.0, 20.0])
        assert len(curve.rows) == 2 if hasattr(curve, "rows") else True
        assert serving.requests_served == 4

    def test_describe_mentions_counters(self, serving):
        serving.solve(k=2)
        text = serving.describe()
        assert "1 request(s) served" in text
        assert "fork(s)" in text


class TestWorkloadFactory:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="non-negative"):
            make_workload(-1, 3, SEED)
        with pytest.raises(ValueError, match="at least one solver"):
            make_workload(4, 3, SEED, solvers=())

    def test_same_seed_same_workload(self):
        a = make_workload(8, 3, SEED, solvers=("grd", "sa"))
        b = make_workload(8, 3, SEED, solvers=("grd", "sa"))
        assert a == b
        c = make_workload(8, 3, SEED + 1, solvers=("grd", "sa"))
        assert a != c

    def test_item_labels_and_kinds(self):
        items = make_workload(6, 3, SEED, n_competing=2, whatif_every=3)
        assert [item.kind for item in items] == [
            "solve", "solve", "what-if", "solve", "solve", "what-if",
        ]
        assert items[2].label() == "2:what-if"
        assert items[0].label().startswith("0:")
