"""Tests of instance/schedule JSON and NPZ round-tripping."""

import numpy as np
import pytest

from repro.core.objective import total_utility
from repro.core.schedule import Assignment, Schedule
from repro.data.serialization import (
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_instance_npz,
    save_instance,
    save_instance_npz,
    schedule_from_dict,
    schedule_to_dict,
)

from tests.conftest import make_random_instance


def assert_same_csc(actual, expected):
    """Two interest stores hold the same CSC components, bit for bit."""
    for side in ("candidate_sparse", "competing_sparse"):
        got, want = getattr(actual, side), getattr(expected, side)
        assert got.shape == want.shape
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, part), getattr(want, part))


class TestInstanceDictRoundTrip:
    def test_round_trip_preserves_shapes(self):
        instance = make_random_instance(seed=200)
        rebuilt = instance_from_dict(instance_to_dict(instance))
        assert rebuilt.n_users == instance.n_users
        assert rebuilt.n_events == instance.n_events
        assert rebuilt.n_intervals == instance.n_intervals
        assert rebuilt.n_competing == instance.n_competing

    def test_round_trip_preserves_matrices(self):
        instance = make_random_instance(seed=201)
        rebuilt = instance_from_dict(instance_to_dict(instance))
        np.testing.assert_allclose(
            rebuilt.interest.candidate, instance.interest.candidate
        )
        np.testing.assert_allclose(
            rebuilt.interest.competing, instance.interest.competing
        )
        np.testing.assert_allclose(
            rebuilt.activity.matrix, instance.activity.matrix
        )

    def test_round_trip_preserves_entities(self):
        instance = make_random_instance(seed=202)
        rebuilt = instance_from_dict(instance_to_dict(instance))
        assert rebuilt.events == instance.events
        assert rebuilt.competing == instance.competing
        assert rebuilt.theta == instance.theta

    def test_round_trip_preserves_utilities(self):
        """The real contract: solving the rebuilt instance gives same numbers."""
        instance = make_random_instance(seed=203)
        rebuilt = instance_from_dict(instance_to_dict(instance))
        schedule_a = Schedule(instance, [Assignment(0, 0), Assignment(1, 2)])
        schedule_b = Schedule(rebuilt, [Assignment(0, 0), Assignment(1, 2)])
        assert total_utility(instance, schedule_a) == pytest.approx(
            total_utility(rebuilt, schedule_b), abs=1e-12
        )

    def test_unknown_version_rejected(self):
        instance = make_random_instance(seed=204)
        payload = instance_to_dict(instance)
        payload["format_version"] = 99
        with pytest.raises(ValueError, match="format version"):
            instance_from_dict(payload)


class TestInstanceFiles:
    def test_json_file_round_trip(self, tmp_path):
        instance = make_random_instance(seed=205)
        path = tmp_path / "instance.json"
        save_instance(instance, path)
        rebuilt = load_instance(path)
        np.testing.assert_allclose(
            rebuilt.interest.candidate, instance.interest.candidate
        )

    def test_npz_file_round_trip(self, tmp_path):
        instance = make_random_instance(seed=206)
        path = tmp_path / "instance.npz"
        save_instance_npz(instance, path)
        rebuilt = load_instance_npz(path)
        np.testing.assert_allclose(
            rebuilt.interest.candidate, instance.interest.candidate
        )
        np.testing.assert_allclose(
            rebuilt.activity.matrix, instance.activity.matrix
        )
        assert rebuilt.events == instance.events

    def test_npz_is_smaller_than_json(self, tmp_path):
        instance = make_random_instance(seed=207, n_users=60, n_events=20)
        json_path = tmp_path / "i.json"
        npz_path = tmp_path / "i.npz"
        save_instance(instance, json_path)
        save_instance_npz(instance, npz_path)
        assert npz_path.stat().st_size < json_path.stat().st_size


class TestScheduleRoundTrip:
    def test_round_trip(self):
        instance = make_random_instance(seed=208)
        schedule = Schedule(instance, [Assignment(0, 1), Assignment(3, 2)])
        rebuilt = schedule_from_dict(schedule_to_dict(schedule), instance)
        assert rebuilt == schedule

    def test_empty_schedule(self):
        instance = make_random_instance(seed=209)
        rebuilt = schedule_from_dict(
            schedule_to_dict(Schedule(instance)), instance
        )
        assert len(rebuilt) == 0

    def test_unknown_version_rejected(self):
        instance = make_random_instance(seed=210)
        payload = schedule_to_dict(Schedule(instance))
        payload["format_version"] = 0
        with pytest.raises(ValueError, match="format version"):
            schedule_from_dict(payload, instance)


class TestSparseRoundTrip:
    def _sparse_instance(self, seed=300):
        return make_random_instance(
            seed=seed, interest_density=0.3, interest_input="coo"
        )

    def test_json_round_trip_preserves_csc(self):
        instance = self._sparse_instance()
        rebuilt = instance_from_dict(instance_to_dict(instance))
        assert_same_csc(rebuilt.interest, instance.interest)

    def test_payload_is_canonical_and_zero_free(self):
        import json

        instance = self._sparse_instance(seed=301)
        payload = instance_to_dict(instance)
        interest = payload["interest"]
        assert interest["backend"] == "sparse"
        assert all(value != 0.0 for value in interest["candidate"]["values"])
        # serializing the round-tripped instance reproduces the bytes
        rebuilt = instance_from_dict(payload)
        assert json.dumps(instance_to_dict(rebuilt)) == json.dumps(payload)

    def test_file_round_trip(self, tmp_path):
        instance = self._sparse_instance(seed=302)
        path = tmp_path / "sparse.json"
        save_instance(instance, path)
        rebuilt = load_instance(path)
        assert_same_csc(rebuilt.interest, instance.interest)

    def test_npz_round_trip_stays_sparse(self, tmp_path):
        instance = self._sparse_instance(seed=303)
        path = tmp_path / "sparse.npz"
        save_instance_npz(instance, path)
        rebuilt = load_instance_npz(path)
        assert_same_csc(rebuilt.interest, instance.interest)

    def test_round_trip_preserves_utilities(self):
        instance = self._sparse_instance(seed=304)
        rebuilt = instance_from_dict(instance_to_dict(instance))
        schedule = Schedule(instance, [Assignment(0, 0), Assignment(1, 0)])
        rebuilt_schedule = Schedule(
            rebuilt, [Assignment(0, 0), Assignment(1, 0)]
        )
        assert total_utility(rebuilt, rebuilt_schedule) == pytest.approx(
            total_utility(instance, schedule), abs=1e-12
        )


class TestLegacyDensePayloads:
    """Files written while ``mu`` could be stored dense still load: nested
    lists in JSON, ``interest_candidate`` / ``interest_competing`` arrays
    in npz.  Both convert to the CSC a sparse save reloads as."""

    def _instance(self):
        return make_random_instance(seed=305, interest_density=0.3)

    def test_dense_json_payload_loads_as_csc(self, tmp_path):
        import json

        instance = self._instance()
        payload = instance_to_dict(instance)
        payload["interest"] = {
            "candidate": instance.interest.candidate.tolist(),
            "competing": instance.interest.competing.tolist(),
        }
        path = tmp_path / "dense.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        sparse_path = tmp_path / "sparse.json"
        save_instance(instance, sparse_path)
        assert_same_csc(load_instance(path).interest, instance.interest)
        assert_same_csc(
            load_instance(path).interest, load_instance(sparse_path).interest
        )

    def test_dense_npz_archive_loads_as_csc(self, tmp_path):
        import json

        instance = self._instance()
        metadata = instance_to_dict(instance)
        del metadata["interest"], metadata["activity"]
        path = tmp_path / "dense.npz"
        np.savez_compressed(
            path,
            metadata=np.frombuffer(
                json.dumps(metadata).encode("utf-8"), dtype=np.uint8
            ),
            activity=instance.activity.matrix,
            interest_candidate=instance.interest.candidate,
            interest_competing=instance.interest.competing,
        )
        sparse_path = tmp_path / "sparse.npz"
        save_instance_npz(instance, sparse_path)
        rebuilt = load_instance_npz(path)
        assert rebuilt.events == instance.events
        assert_same_csc(rebuilt.interest, load_instance_npz(sparse_path).interest)
