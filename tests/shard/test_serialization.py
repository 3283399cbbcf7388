"""Sharded-instance serialization: directory format + flat fallbacks."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.errors import SerializationError
from repro.core.interest import InterestMatrix
from repro.data.serialization import (
    instance_from_dict,
    instance_to_dict,
    load_instance_npz,
    load_sharded_instance,
    save_instance_npz,
    save_sharded_instance,
)
from repro.shard.interest import ShardedInterest
from repro.workloads.generator import synthesize_sharded_instance

from tests.conftest import make_random_instance

#: Block storages earlier builds wrote (float32 CSC, float32 dense,
#: float32 memmap); this build refuses their directories by name.
RETIRED_STORAGES = [f"{prefix}32" for prefix in ("csc", "dense", "memmap")]


@pytest.fixture(scope="module")
def instance():
    return synthesize_sharded_instance(
        900, n_events=8, n_intervals=3, density=0.05, shards=2,
        block_users=256, seed=13,
    )


class TestFlatFallbacks:
    def test_json_dict_flattens_to_sparse(self, instance):
        back = instance_from_dict(instance_to_dict(instance))
        assert isinstance(back.interest, InterestMatrix)
        np.testing.assert_array_equal(
            back.interest.candidate, instance.interest.candidate
        )

    def test_npz_round_trip_flattens_to_sparse(self, instance, tmp_path):
        path = tmp_path / "inst.npz"
        save_instance_npz(instance, path)
        back = load_instance_npz(path)
        assert isinstance(back.interest, InterestMatrix)
        np.testing.assert_array_equal(
            back.interest.candidate, instance.interest.candidate
        )
        np.testing.assert_array_equal(
            back.activity.matrix, instance.activity.matrix
        )


class TestDirectoryFormat:
    def test_csc_round_trip_is_exact(self, instance, tmp_path):
        save_sharded_instance(instance, tmp_path / "d")
        back = load_sharded_instance(tmp_path / "d")
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert manifest["storage"] == "csc"
        assert isinstance(back.interest, ShardedInterest)
        assert back.interest.plan == instance.interest.plan
        np.testing.assert_array_equal(
            back.interest.candidate, instance.interest.candidate
        )
        np.testing.assert_array_equal(
            back.interest.competing, instance.interest.competing
        )
        np.testing.assert_array_equal(
            back.activity.matrix, instance.activity.matrix
        )
        assert back.n_users == instance.n_users
        assert back.events == instance.events

    def test_every_file_is_fsynced_before_the_manifest(
        self, instance, tmp_path, fsynced_inodes
    ):
        directory = tmp_path / "d"
        save_sharded_instance(instance, directory)
        files = {path.stat().st_ino: path.name for path in directory.iterdir()}
        assert len(files) == 2 + 2 * instance.interest.plan.n_blocks
        synced = [inode for inode in fsynced_inodes if inode in files]
        assert set(synced) == set(files)
        # the manifest, the commit point, is the last file made durable
        assert files[synced[-1]] == "manifest.json"

    def test_default_users_stored_as_count(self, instance, tmp_path):
        save_sharded_instance(instance, tmp_path / "d")
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert manifest["metadata"]["users"] == {"count": 900}
        assert manifest["plan"]["block_users"] == 256

    def test_named_users_stored_in_full(self, tmp_path):
        from repro.core.instance import SESInstance
        from repro.core.entities import User
        from repro.shard.interest import ShardedInterest
        from repro.shard.plan import ShardPlan

        base = make_random_instance(n_users=20, seed=2)
        users = tuple(
            User(index=u.index, name=f"user-{u.index}") for u in base.users
        )
        interest = ShardedInterest.from_interest(
            base.interest, ShardPlan(n_users=20, block_users=8)
        )
        named = SESInstance(
            users=users,
            intervals=base.intervals,
            events=base.events,
            competing=base.competing,
            interest=interest,
            activity=base.activity,
            organizer=base.organizer,
        )
        save_sharded_instance(named, tmp_path / "named")
        manifest = json.loads(
            (tmp_path / "named" / "manifest.json").read_text()
        )
        assert isinstance(manifest["metadata"]["users"], list)
        back = load_sharded_instance(tmp_path / "named")
        assert back.users[3].name == "user-3"

    def test_requires_sharded_interest(self, tmp_path):
        flat = make_random_instance(seed=1)
        with pytest.raises(ValueError, match="ShardedInterest"):
            save_sharded_instance(flat, tmp_path / "flat")

    @pytest.mark.parametrize(
        "key, value",
        [("format_version", 99), ("format_version", None)]
        + [("storage", storage) for storage in RETIRED_STORAGES],
    )
    def test_unsupported_format_rejected(self, instance, tmp_path, key, value):
        save_sharded_instance(instance, tmp_path / "d")
        manifest_path = tmp_path / "d" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest[key] = value
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SerializationError) as caught:
            load_sharded_instance(tmp_path / "d")
        assert str(tmp_path / "d") in str(caught.value)
        assert repr(value) in str(caught.value)

    @pytest.mark.parametrize("corruption", ["nan", "row-past-block", "truncated"])
    def test_corrupt_block_rejected_naming_its_file(
        self, instance, tmp_path, corruption
    ):
        save_sharded_instance(instance, tmp_path / "d")
        path = tmp_path / "d" / "candidate_block00000.npz"
        if corruption == "truncated":
            raw = path.read_bytes()
            path.write_bytes(raw[: len(raw) // 2])
        else:
            with np.load(path) as parts:
                arrays = dict(parts)
            if corruption == "nan":
                arrays["data"][0] = np.nan
            else:
                arrays["indices"][-1] = arrays["shape"][0]
            np.savez(path, **arrays)
        with pytest.raises(SerializationError, match="candidate_block00000.npz"):
            load_sharded_instance(tmp_path / "d")

    @pytest.mark.parametrize("name", ["manifest.json", "activity.npy"])
    def test_truncated_file_rejected_naming_it(self, instance, tmp_path, name):
        save_sharded_instance(instance, tmp_path / "d")
        path = tmp_path / "d" / name
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(SerializationError) as caught:
            load_sharded_instance(tmp_path / "d")
        assert str(path) in str(caught.value)

    def test_manifest_without_a_valid_plan_rejected(self, instance, tmp_path):
        save_sharded_instance(instance, tmp_path / "d")
        path = tmp_path / "d" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["plan"] = dict(manifest["plan"], n_blocks_typo=1)
        path.write_text(json.dumps(manifest))
        with pytest.raises(SerializationError, match="manifest.json"):
            load_sharded_instance(tmp_path / "d")
