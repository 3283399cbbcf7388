"""Atomic artifact saves + torn sharded-directory detection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import SerializationError
from repro.data.serialization import (
    load_instance,
    load_instance_npz,
    load_sharded_instance,
    save_instance,
    save_instance_npz,
    save_sharded_instance,
)

from tests.conftest import make_random_instance


class TestAtomicWrites:
    def test_json_save_leaves_no_tmp_sibling(self, tmp_path):
        save_instance(make_random_instance(seed=900), tmp_path / "inst.json")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]
        assert load_instance(tmp_path / "inst.json").n_users == 12

    def test_json_save_replaces_existing_atomically(self, tmp_path):
        path = tmp_path / "inst.json"
        save_instance(make_random_instance(seed=900), path)
        save_instance(make_random_instance(seed=901, n_users=7), path)
        assert load_instance(path).n_users == 7
        assert not list(tmp_path.glob("*.tmp-*"))

    def test_failed_save_cleans_its_tmp_file(self, tmp_path):
        instance = make_random_instance(seed=902)
        with pytest.raises(FileNotFoundError):
            save_instance(instance, tmp_path / "no-such-dir" / "inst.json")
        # a failure inside the body must not strand a tmp sibling either
        import repro.data.serialization as ser

        def boom(handle):
            handle.write(b"partial")
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError, match="disk full"):
            ser._atomic_write(tmp_path / "inst.json", boom)
        assert list(tmp_path.iterdir()) == []

    def test_save_fsyncs_file_and_directory(self, tmp_path, fsynced_inodes):
        save_instance_npz(make_random_instance(seed=904), tmp_path / "inst.npz")
        assert (tmp_path / "inst.npz").stat().st_ino in fsynced_inodes
        assert tmp_path.stat().st_ino in fsynced_inodes

    def test_npz_save_appends_suffix_and_stays_atomic(self, tmp_path):
        instance = make_random_instance(seed=903)
        save_instance_npz(instance, tmp_path / "bare")
        save_instance_npz(instance, tmp_path / "named.npz")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "bare.npz", "named.npz",
        ]
        for name in ("bare.npz", "named.npz"):
            back = load_instance_npz(tmp_path / name)
            np.testing.assert_array_equal(
                back.interest.candidate, instance.interest.candidate
            )


class TestTornShardedDirectories:
    @pytest.fixture()
    def saved(self, tmp_path):
        pytest.importorskip("scipy")
        from repro.workloads.generator import synthesize_sharded_instance

        instance = synthesize_sharded_instance(
            300, n_events=6, n_intervals=3, density=0.1, shards=2,
            block_users=128, seed=13,
        )
        save_sharded_instance(instance, tmp_path / "inst")
        return tmp_path / "inst"

    def test_missing_manifest_is_typed(self, saved):
        (saved / "manifest.json").unlink()
        with pytest.raises(SerializationError, match="manifest"):
            load_sharded_instance(saved)

    def test_missing_block_named_in_error(self, saved):
        victim = sorted(saved.glob("candidate_block*"))[0]
        victim.unlink()
        with pytest.raises(SerializationError, match=victim.name):
            load_sharded_instance(saved)

    def test_missing_activity_detected(self, saved):
        (saved / "activity.npy").unlink()
        with pytest.raises(SerializationError, match="activity.npy"):
            load_sharded_instance(saved)

    def test_intact_directory_still_loads(self, saved):
        back = load_sharded_instance(saved)
        assert back.interest.backend == "sharded"

    def test_manifest_is_the_commit_point(self, saved):
        # every file the manifest references exists the moment it lands:
        # a reader that sees manifest.json sees a complete directory
        import json

        manifest = json.loads((saved / "manifest.json").read_text())
        n_blocks = -(-manifest["plan"]["n_users"] // manifest["plan"]["block_users"])
        for name in ("candidate", "competing"):
            for index in range(n_blocks):
                assert (saved / f"{name}_block{index:05d}.npz").is_file()
