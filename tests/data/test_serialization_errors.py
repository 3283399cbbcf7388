"""Negative-path tests for the serialization layer."""

import json

import pytest

from repro.core.errors import UnknownEntityError
from repro.data.serialization import (
    instance_from_dict,
    instance_to_dict,
    load_instance,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.core.schedule import Assignment, Schedule

from tests.conftest import make_random_instance


class TestInstancePayloadErrors:
    def test_missing_version_rejected(self):
        instance = make_random_instance(seed=800)
        payload = instance_to_dict(instance)
        del payload["format_version"]
        with pytest.raises(ValueError, match="format version"):
            instance_from_dict(payload)

    @pytest.mark.parametrize("layout", ["csc", "legacy-dense"])
    def test_corrupted_interest_matrix_caught_by_validation(self, layout):
        instance = make_random_instance(seed=801)
        payload = instance_to_dict(instance)
        if layout == "csc":
            payload["interest"]["candidate"]["values"][0] = 7.5  # outside [0, 1]
        else:
            payload["interest"] = {
                "candidate": instance.interest.candidate.tolist(),
                "competing": instance.interest.competing.tolist(),
            }
            payload["interest"]["candidate"][0][0] = 7.5
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            instance_from_dict(payload)

    def test_dangling_competing_interval_caught(self):
        from repro.core.errors import InstanceValidationError

        instance = make_random_instance(seed=802)
        payload = instance_to_dict(instance)
        payload["competing"][0]["interval"] = 999
        with pytest.raises(InstanceValidationError, match="interval 999"):
            instance_from_dict(payload)

    def test_load_nonexistent_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_instance(tmp_path / "missing.json")

    def test_load_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(json.JSONDecodeError):
            load_instance(path)


class TestSchedulePayloadErrors:
    def test_schedule_against_wrong_instance_rejected(self):
        big = make_random_instance(seed=803, n_events=6)
        small = make_random_instance(seed=804, n_events=2)
        schedule = Schedule(big, [Assignment(5, 0)])
        payload = schedule_to_dict(schedule)
        with pytest.raises(UnknownEntityError, match="out of range"):
            schedule_from_dict(payload, small)

    def test_duplicate_event_in_payload_rejected(self):
        from repro.core.errors import DuplicateEventError

        instance = make_random_instance(seed=805)
        payload = {
            "format_version": 1,
            "assignments": [
                {"event": 0, "interval": 0},
                {"event": 0, "interval": 1},
            ],
        }
        with pytest.raises(DuplicateEventError):
            schedule_from_dict(payload, instance)
