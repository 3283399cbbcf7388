"""Schedule versions: store semantics, diffs, session and serving APIs."""

from __future__ import annotations

import pytest

from repro.api import ScheduleSession
from repro.interactive import ScheduleVersion, VersionStore, diff_versions
from repro.serve import ServingSession

from tests.conftest import make_random_instance


@pytest.fixture
def instance():
    return make_random_instance(seed=321)


def version(name, assignments, utility, sequence=0, **kw):
    return ScheduleVersion(
        name=name,
        assignments=tuple(sorted(assignments.items())),
        utility=utility,
        k=kw.pop("k", 3),
        solver=kw.pop("solver", "grd"),
        sequence=sequence,
        **kw,
    )


class TestVersionStore:
    def test_save_get_names_in_save_order(self):
        store = VersionStore()
        store.save("draft", {0: 1}, 1.0, k=2, solver="grd")
        store.save("alt", {0: 2}, 1.5, k=2, solver="top")
        assert store.names() == ("draft", "alt")
        assert store.get("draft").assignments == ((0, 1),)
        assert store.latest().name == "alt"
        assert "draft" in store and "nope" not in store
        assert len(store) == 2

    def test_duplicate_name_needs_overwrite_and_keeps_sequence(self):
        store = VersionStore()
        store.save("v1", {0: 1}, 1.0, k=2, solver="grd")
        store.save("v2", {0: 2}, 2.0, k=2, solver="grd")
        with pytest.raises(ValueError, match="already exists"):
            store.save("v1", {1: 0}, 3.0, k=2, solver="grd")
        replaced = store.save(
            "v1", {1: 0}, 3.0, k=2, solver="grd", overwrite=True
        )
        assert replaced.sequence == 0
        assert store.names() == ("v1", "v2")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            VersionStore().save("", {}, 0.0, k=1, solver="grd")

    def test_unknown_name_lists_known(self):
        store = VersionStore()
        store.save("only", {}, 0.0, k=1, solver="grd")
        with pytest.raises(KeyError, match="known: only"):
            store.get("missing")
        with pytest.raises(KeyError, match="none saved"):
            VersionStore().get("missing")

    def test_diff_defaults_to_latest(self):
        store = VersionStore()
        store.save("a", {0: 1}, 1.0, k=2, solver="grd")
        store.save("b", {0: 1, 2: 0}, 1.8, k=2, solver="grd")
        diff = store.diff("a")
        assert diff.target == "b"
        assert diff.added == ((2, 0),)
        assert store.changes_since("a") == diff


class TestDiff:
    def test_added_removed_moved_unchanged(self):
        base = version("a", {0: 1, 1: 2, 2: 0}, 1.0)
        target = version("b", {0: 1, 1: 3, 4: 2}, 1.6, sequence=1)
        diff = diff_versions(base, target)
        assert diff.added == ((4, 2),)
        assert diff.removed == ((2, 0),)
        assert diff.moved == ((1, 2, 3),)
        assert diff.unchanged == 1
        assert diff.utility_delta == pytest.approx(0.6)
        assert not diff.is_empty
        text = diff.describe()
        assert "+e4@t2" in text and "-e2@t0" in text and "e1: t2->t3" in text

    def test_identical_versions_diff_empty(self):
        base = version("a", {0: 1}, 1.0)
        diff = diff_versions(base, version("b", {0: 1}, 1.0, sequence=1))
        assert diff.is_empty
        assert "no assignment changes" in diff.describe()

    def test_snapshot_is_immutable_and_describes_itself(self):
        snap = version("v3", {0: 1}, 1.25, stamp=4)
        with pytest.raises(AttributeError):
            snap.utility = 9.0
        assert snap.mapping() == {0: 1}
        text = snap.describe()
        assert "v3" in text and "stamp=4" in text


@pytest.mark.parametrize("kind", [ScheduleSession, ServingSession])
class TestSessionVersions:
    def test_save_diff_round_trip(self, instance, kind):
        session = kind(instance)
        first = session.solve(k=2, solver="grd")
        second = session.solve(k=3, solver="grd")
        session.save_version("draft", first)
        session.save_version("more", second)
        assert session.versions() == ("draft", "more")
        assert session.schedule_version("draft").solver == first.solver
        assert session.schedule_version("draft").k == 2

        diff = session.diff_versions("draft")
        assert diff.target == "more"
        assert diff.utility_delta == pytest.approx(
            second.utility - first.utility
        )
        # the snapshot matches the response it came from
        assert dict(session.schedule_version("more").assignments) == (
            second.schedule.as_mapping()
        )

    def test_saved_version_survives_later_solves(self, instance, kind):
        session = kind(instance)
        session.save_version("pin", session.solve(k=2, solver="grd"))
        before = session.schedule_version("pin")
        session.solve(k=4, solver="top")
        assert session.schedule_version("pin") == before


class TestServingVersions:
    def test_versions_stamped_with_pool_generation(self, instance):
        session = ServingSession(instance)
        served = session.solve(k=2, solver="grd")
        session.save_version("v0", served)
        assert session.schedule_version("v0").stamp == served.version

        session.cancel_event(instance.n_events - 1)
        bumped = session.solve(k=2, solver="grd")
        session.save_version("v1", bumped)
        assert session.schedule_version("v1").stamp == session.version
        assert session.schedule_version("v1").stamp > (
            session.schedule_version("v0").stamp
        )
        assert session.versions() == ("v0", "v1")
        diff = session.diff_versions("v0", "v1")
        assert diff.utility_delta == pytest.approx(
            bumped.utility - served.utility
        )
