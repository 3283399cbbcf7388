"""The lint engine itself: suppression, filtering, collection, errors."""

from __future__ import annotations

import pytest

from repro.analysis import (
    ALL_RULES,
    LintError,
    RULE_NAMES,
    default_rules,
    resolve_rules,
    run_lint,
)
from repro.analysis.engine import collect_files


def test_rule_catalogue_is_well_formed():
    assert len(RULE_NAMES) == 6
    assert len(set(RULE_NAMES)) == len(RULE_NAMES)
    for rule in ALL_RULES:
        assert rule.name and rule.name != "abstract"
        assert rule.rationale


def test_resolve_rules_filters_and_orders():
    rules = resolve_rules(["determinism", "freeze-ban"])
    assert [rule.name for rule in rules] == ["determinism", "freeze-ban"]
    # duplicates collapse, order of first mention wins
    rules = resolve_rules(["freeze-ban", "determinism", "freeze-ban"])
    assert [rule.name for rule in rules] == ["freeze-ban", "determinism"]


def test_resolve_rules_unknown_name_is_internal_error():
    with pytest.raises(LintError, match="no-such-rule"):
        resolve_rules(["no-such-rule"])


def test_resolve_rules_none_gives_full_battery():
    assert [r.name for r in resolve_rules(None)] == list(RULE_NAMES)


def test_missing_path_is_internal_error(tmp_path):
    with pytest.raises(LintError, match="no such path"):
        run_lint([tmp_path / "nowhere"], default_rules())


def test_syntax_error_is_internal_error(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n", encoding="utf-8")
    with pytest.raises(LintError, match="cannot parse"):
        run_lint([tmp_path], default_rules())


def test_no_rules_is_internal_error(tmp_path):
    (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
    with pytest.raises(LintError, match="no rules"):
        run_lint([tmp_path], [])


def test_collect_skips_caches_and_accepts_files(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text("x = 1\n", encoding="utf-8")
    cache = tmp_path / "pkg" / "__pycache__"
    cache.mkdir()
    (cache / "mod.cpython-311.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not python\n", encoding="utf-8")
    files = collect_files([tmp_path, tmp_path / "pkg" / "mod.py"])
    assert [f.name for f in files] == ["mod.py"]


def test_line_suppression_is_rule_specific(tmp_path):
    tree = tmp_path / "stream"
    tree.mkdir()
    source = (
        "def f(s):\n"
        "    return s.instance  # ses-lint: disable=determinism\n"
    )
    (tree / "driver.py").write_text(source, encoding="utf-8")
    result = run_lint([tmp_path], resolve_rules(["freeze-ban"]))
    # the comment names a different rule: the finding must survive
    assert [f.rule for f in result.findings] == ["freeze-ban"]
    assert result.suppressed == 0


def test_file_level_suppression(tmp_path):
    tree = tmp_path / "stream"
    tree.mkdir()
    source = (
        "# ses-lint: disable-file=freeze-ban\n"
        "def f(s):\n"
        "    return s.instance\n"
        "def g(s):\n"
        "    return s.live.freeze()\n"
    )
    (tree / "driver.py").write_text(source, encoding="utf-8")
    result = run_lint([tmp_path], resolve_rules(["freeze-ban"]))
    assert result.clean
    assert result.suppressed == 2


def test_exit_code_contract(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n", encoding="utf-8")
    result = run_lint([clean], default_rules())
    assert result.clean and result.exit_code == 0
    tree = tmp_path / "stream"
    tree.mkdir()
    (tree / "driver.py").write_text(
        "def f(s):\n    return s.instance\n", encoding="utf-8"
    )
    result = run_lint([tmp_path], default_rules())
    assert not result.clean and result.exit_code == 1


def test_findings_sorted_and_counted(tmp_path):
    tree = tmp_path / "stream"
    tree.mkdir()
    (tree / "driver.py").write_text(
        "def g(s):\n"
        "    return s.live.freeze()\n"
        "def f(s):\n"
        "    return s.instance\n",
        encoding="utf-8",
    )
    result = run_lint([tmp_path], default_rules())
    lines = [f.line for f in result.findings]
    assert lines == sorted(lines)
    assert result.findings_by_rule() == {"freeze-ban": 2}
