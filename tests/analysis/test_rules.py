"""Every rule proven on fixture packages carrying seeded violations."""

from __future__ import annotations

import pytest

from tests.analysis.conftest import rules_of


class TestDeltaExhaustiveness:
    def test_missing_branch_fires(self, lint_fixture):
        result = lint_fixture("delta_bad", "delta-exhaustiveness")
        assert len(result.findings) == 1
        finding = result.findings[0]
        assert finding.rule == "delta-exhaustiveness"
        assert finding.path.endswith("delta_bad/engine.py")
        assert "CompetingAdded" in finding.message
        assert "LeakyEngine" in finding.message

    def test_exhaustive_ancestor_and_delegating_are_clean(self, lint_fixture):
        result = lint_fixture("delta_good", "delta-exhaustiveness")
        assert result.clean, rules_of(result)

    def test_shard_router_missing_branch_fires(self, lint_fixture):
        result = lint_fixture("shard_bad", "delta-exhaustiveness")
        routed = [
            f for f in result.findings if "localize_delta" in f.message
        ]
        assert len(routed) == 1
        finding = routed[0]
        assert finding.path.endswith("shard_bad/shard/engine.py")
        assert "CompetingAdded" in finding.message
        # a module-level router has no owning class in the label
        assert finding.message.startswith("localize_delta ")

    def test_covering_and_delegating_routers_are_clean(self, lint_fixture):
        result = lint_fixture("shard_good", "delta-exhaustiveness")
        assert result.clean, rules_of(result)


class TestFreezeBan:
    def test_hot_path_freeze_and_instance_fire(self, lint_fixture):
        result = lint_fixture("freeze_bad", "freeze-ban")
        assert rules_of(result) == ["freeze-ban", "freeze-ban"]
        messages = " ".join(f.message for f in result.findings)
        assert ".freeze()" in messages and ".instance" in messages
        # same spellings outside the designated modules stay legal
        assert all(
            f.path.endswith("stream/driver.py") for f in result.findings
        )

    def test_suppression_comments_silence_and_count(self, lint_fixture):
        result = lint_fixture("suppressed", "freeze-ban")
        assert result.clean
        assert result.suppressed == 2


class TestFrozenOpDiscipline:
    def test_unfrozen_and_mutable_fields_fire(self, lint_fixture):
        result = lint_fixture("frozen_bad", "frozen-op-discipline")
        assert len(result.findings) == 5
        messages = [f.message for f in result.findings]
        assert any("MutableOp" in m and "frozen=True" in m for m in messages)
        assert any("interest" in m and "list" in m for m in messages)
        assert any("options" in m and "dict" in m for m in messages)
        # CleanOp and the ClassVar field must not fire
        assert not any("CleanOp" in m or "registry" in m for m in messages)
        # the rule covers repro.interactive's value modules too
        assert any(
            "UnfrozenLockSet" in m and "frozen=True" in m for m in messages
        )
        assert any("LeakyVersion.assignments" in m and "dict" in m for m in messages)
        assert not any("CleanLockSet" in m for m in messages)


class TestRegistryCompleteness:
    def test_unregistered_schedulers_fire(self, lint_fixture):
        result = lint_fixture("registry_bad", "registry-completeness")
        flagged = sorted(f.message.split()[0] for f in result.findings)
        assert flagged == ["GhostScheduler", "GhostlierScheduler"]
        # registered, private and abstract classes stay clean
        messages = " ".join(f.message for f in result.findings)
        assert "VisibleScheduler" not in messages
        assert "_PrivateHelper" not in messages
        assert "AbstractFamily" not in messages


class TestDeterminism:
    def test_all_seeded_violations_fire(self, lint_fixture):
        result = lint_fixture("determinism_bad", "determinism")
        messages = [f.message for f in result.findings]
        assert len(messages) == 9
        assert sum("legacy global stream" in m for m in messages) == 3
        assert sum("without a seed" in m for m in messages) == 1
        assert sum("time.time()" in m for m in messages) == 1
        assert sum("stdlib random" in m for m in messages) == 1
        assert sum("set iteration" in m for m in messages) == 3

    def test_sanctioned_randomness_is_clean(self, lint_fixture):
        result = lint_fixture("determinism_bad", "determinism")
        # the `sanctioned` function's lines must not appear in findings
        bad_lines = {f.line for f in result.findings}
        source = (
            result.findings[0].path
            if result.findings
            else None
        )
        assert source is not None
        from pathlib import Path

        text = Path(source).read_text(encoding="utf-8").splitlines()
        start = next(
            i for i, line in enumerate(text, 1) if "def sanctioned" in line
        )
        assert all(line < start for line in bad_lines)


class TestDtypeDiscipline:
    def test_low_precision_on_score_path_fires(self, lint_fixture):
        result = lint_fixture("dtype_bad", "dtype-discipline")
        culprits = sorted(
            f.message.split("dtype=")[1].split(")")[0]
            for f in result.findings
        )
        assert culprits == ["f2", "float32", "float32"]

    @pytest.mark.parametrize(
        "module",
        [
            "engine.py",  # a merged score partial
            "interest.py",  # a storage block: no shard module is exempt
        ],
    )
    def test_float32_partial_on_shard_compute_path_fires(
        self, lint_fixture, module
    ):
        result = lint_fixture("shard_bad", "dtype-discipline")
        (finding,) = [
            f for f in result.findings
            if f.path.endswith(f"shard_bad/shard/{module}")
        ]
        assert "float32" in finding.message
        assert len(result.findings) == 2


def test_full_battery_on_clean_twin(lint_fixture):
    """The whole battery, not just the targeted rule, passes delta_good."""
    result = lint_fixture("delta_good")
    assert result.clean, rules_of(result)


def test_full_battery_on_shard_clean_twin(lint_fixture):
    result = lint_fixture("shard_good")
    assert result.clean, rules_of(result)
