"""The rule battery: one catalog of every repo invariant ses-lint enforces.

Mirrors the solver registry's design: each rule module declares one
:class:`~repro.analysis.engine.Rule` subclass, and this package is the
single list every entry point (CLI ``--rule`` choices, the pytest
suites, the CI gate, the README catalogue) derives from.
"""

from __future__ import annotations

from repro.analysis.engine import LintError, Rule
from repro.analysis.rules.deltas import DeltaExhaustivenessRule
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.dtype import DtypeDisciplineRule
from repro.analysis.rules.freeze import FreezeBanRule
from repro.analysis.rules.frozen_ops import FrozenOpsRule
from repro.analysis.rules.solvers import RegistryCompletenessRule

__all__ = [
    "ALL_RULES",
    "RULE_NAMES",
    "default_rules",
    "resolve_rules",
]

#: Every shipped rule, in catalogue order.
ALL_RULES: tuple[type[Rule], ...] = (
    DeltaExhaustivenessRule,
    FreezeBanRule,
    FrozenOpsRule,
    RegistryCompletenessRule,
    DeterminismRule,
    DtypeDisciplineRule,
)

#: Rule names, in catalogue order (CLI choices, docs).
RULE_NAMES: tuple[str, ...] = tuple(rule.name for rule in ALL_RULES)


def default_rules() -> list[Rule]:
    """Fresh instances of the full battery."""
    return [rule() for rule in ALL_RULES]


def resolve_rules(names: list[str] | None) -> list[Rule]:
    """Instances for ``names`` (full battery when ``None``/empty).

    Raises :class:`~repro.analysis.engine.LintError` on unknown names —
    the CLI maps that to the internal-error exit code 2, so a typo'd
    ``--rule`` can never masquerade as a clean run.
    """
    if not names:
        return default_rules()
    by_name = {rule.name: rule for rule in ALL_RULES}
    unknown = sorted(set(names) - set(by_name))
    if unknown:
        raise LintError(
            f"unknown rule(s) {', '.join(unknown)}; "
            f"choose from {', '.join(RULE_NAMES)}"
        )
    return [by_name[name]() for name in dict.fromkeys(names)]
