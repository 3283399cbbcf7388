"""Acceptance: the real tree lints clean, and mutations are caught.

The mutation tests copy real ``src`` modules into a throwaway tree and
break an invariant *in the copy* — deleting a ``LiveDelta`` dispatch
branch, stripping a ``@register_solver`` decorator — then assert the
matching rule fires.  ``src/`` itself is never touched.
"""

from __future__ import annotations

import inspect
import shutil
from pathlib import Path

import pytest

from repro.analysis import default_rules, resolve_rules, run_lint
from tests.analysis.conftest import SRC, rules_of


def test_whole_src_tree_is_clean():
    result = run_lint([SRC], default_rules())
    assert result.clean, "\n".join(f.format() for f in result.findings)
    assert result.files_checked > 50
    # the deliberately allow-listed freeze sites are counted, not hidden
    assert result.suppressed >= 2


class TestMutationCopies:
    """Each mutation must flip the lint verdict on an otherwise-clean copy."""

    @pytest.fixture
    def engine_copy(self, tmp_path):
        target = tmp_path / "core"
        target.mkdir()
        return Path(
            shutil.copy(SRC / "repro/core/engine.py", target / "engine.py")
        )

    @pytest.fixture
    def greedy_copy(self, tmp_path):
        target = tmp_path / "algorithms"
        target.mkdir()
        return Path(
            shutil.copy(
                SRC / "repro/algorithms/greedy.py", target / "greedy.py"
            )
        )

    def test_unmutated_engine_copy_is_clean(self, engine_copy):
        result = run_lint([engine_copy], resolve_rules(["delta-exhaustiveness"]))
        assert result.clean, rules_of(result)

    def test_deleting_delta_branch_fails_lint(self, engine_copy):
        source = engine_copy.read_text(encoding="utf-8")
        branch = (
            "        elif isinstance(delta, CompetingAdded):\n"
            "            self._on_competing_added(delta)\n"
        )
        assert branch in source, "mutation anchor moved; update this test"
        engine_copy.write_text(source.replace(branch, ""), encoding="utf-8")
        result = run_lint([engine_copy], resolve_rules(["delta-exhaustiveness"]))
        assert not result.clean
        assert any(
            f.rule == "delta-exhaustiveness" and "CompetingAdded" in f.message
            for f in result.findings
        )

    def test_unmutated_greedy_copy_is_clean(self, greedy_copy):
        result = run_lint(
            [greedy_copy], resolve_rules(["registry-completeness"])
        )
        assert result.clean, rules_of(result)

    def test_unregistering_solver_fails_lint(self, greedy_copy):
        source = greedy_copy.read_text(encoding="utf-8")
        decorator = (
            '@register_solver(summary="the paper\'s greedy '
            'Algorithm 1 (list-based)")\n'
        )
        assert decorator in source, "mutation anchor moved; update this test"
        greedy_copy.write_text(source.replace(decorator, ""), encoding="utf-8")
        result = run_lint(
            [greedy_copy], resolve_rules(["registry-completeness"])
        )
        assert not result.clean
        assert any(
            f.rule == "registry-completeness" and "GreedyScheduler" in f.message
            for f in result.findings
        )


class TestServeHotPathCoverage:
    """The serve/ hot path is inside the freeze-ban + determinism nets."""

    @pytest.fixture
    def pool_copy(self, tmp_path):
        target = tmp_path / "serve"
        target.mkdir()
        return Path(
            shutil.copy(SRC / "repro/serve/pool.py", target / "pool.py")
        )

    def test_unmutated_pool_copy_is_clean_with_one_allowlisted_freeze(
        self, pool_copy
    ):
        result = run_lint([pool_copy], resolve_rules(["freeze-ban"]))
        assert result.clean, rules_of(result)
        # the version_instance() freeze is counted as suppressed, not hidden
        assert result.suppressed == 1

    def test_stripping_the_freeze_allowlist_fails_lint(self, pool_copy):
        source = pool_copy.read_text(encoding="utf-8")
        marker = "  # ses-lint: disable=freeze-ban"
        assert marker in source, "allowlist anchor moved; update this test"
        pool_copy.write_text(source.replace(marker, ""), encoding="utf-8")
        result = run_lint([pool_copy], resolve_rules(["freeze-ban"]))
        assert not result.clean
        assert any(
            f.rule == "freeze-ban" and "freeze()" in f.message
            for f in result.findings
        )

    def test_serving_session_is_in_freeze_ban_scope(self, tmp_path):
        # a .freeze() call in a module whose path ends serve/session.py
        # must fire — proving the scope tuple actually covers the file
        target = tmp_path / "serve"
        target.mkdir()
        bad = target / "session.py"
        bad.write_text("def peek(live):\n    return live.freeze()\n")
        result = run_lint([bad], resolve_rules(["freeze-ban"]))
        assert rules_of(result) == ["freeze-ban"]

    def test_durable_writer_is_in_freeze_ban_scope(self, tmp_path):
        # the shared durable writer runs on every applied op of both
        # session kinds: a .freeze() in a file at its module's path
        # (package dir + file name) must fire
        from repro.resilience.journal import DurableWriter

        module = Path(inspect.getfile(DurableWriter))
        target = tmp_path / module.parent.name
        target.mkdir()
        bad = target / module.name
        bad.write_text("def peek(live):\n    return live.freeze()\n")
        result = run_lint([bad], resolve_rules(["freeze-ban"]))
        assert rules_of(result) == ["freeze-ban"]

    def test_change_op_structure_is_in_freeze_ban_scope(self, tmp_path):
        # ChangeOp.apply_structure runs on every serving write and every
        # recovery replay: a .freeze() in a file at its module's path
        # must fire
        from repro.stream.trace import ChangeOp

        module = Path(inspect.getfile(ChangeOp))
        target = tmp_path / module.parent.name
        target.mkdir()
        bad = target / module.name
        bad.write_text("def peek(live):\n    return live.freeze()\n")
        result = run_lint([bad], resolve_rules(["freeze-ban"]))
        assert rules_of(result) == ["freeze-ban"]

    def test_shared_session_methods_are_in_both_hot_path_scopes(
        self, tmp_path
    ):
        # the serving session's organizer and analysis methods live in
        # the session base both kinds share: a .freeze() and a float32
        # array in a file at that module's path must fire both rules
        from repro.serve import ServingSession

        module = Path(inspect.getfile(ServingSession.gap_report))
        target = tmp_path / module.parent.name
        target.mkdir()
        bad = target / module.name
        bad.write_text(
            "import numpy as np\n\n"
            "def peek(live):\n"
            "    return live.freeze(), np.zeros(3, dtype=np.float32)\n"
        )
        result = run_lint(
            [bad], resolve_rules(["freeze-ban", "dtype-discipline"])
        )
        assert sorted(rules_of(result)) == ["dtype-discipline", "freeze-ban"]

    def test_serve_tree_is_determinism_clean(self):
        result = run_lint(
            [SRC / "repro/serve"], resolve_rules(["determinism"])
        )
        assert result.clean, "\n".join(f.format() for f in result.findings)
        assert result.files_checked == 3

    def test_unseeded_rng_in_serve_fails_determinism(self, tmp_path):
        target = tmp_path / "serve"
        target.mkdir()
        bad = target / "workload.py"
        bad.write_text(
            "import numpy as np\n\n"
            "def sample():\n    return np.random.default_rng().random()\n"
        )
        result = run_lint([bad], resolve_rules(["determinism"]))
        assert rules_of(result) == ["determinism"]


def test_determinism_audit_of_benchmarks_and_conftests():
    """Satellite audit: harness code outside src stays deterministic.

    Fixture packages under tests/analysis/fixtures carry *seeded*
    violations, so the audit deliberately covers benchmarks/, the
    conftest layer and the serving workload (whose seeded items make K
    threads replay like one) rather than the whole tests tree.
    """
    repo = SRC.parent
    targets = [repo / "benchmarks", repo / "tests/serve/workload.py"]
    targets += sorted((repo / "tests").glob("**/conftest.py"))
    result = run_lint(targets, resolve_rules(["determinism"]))
    assert result.clean, "\n".join(f.format() for f in result.findings)
