"""freeze-ban: hot-path stream code must never materialize a snapshot.

PR 4's whole point was that the streaming hot path runs in O(delta) over
:class:`~repro.core.live.LiveInstance`; one careless ``.instance`` read
or ``.freeze()`` call reintroduces an O(instance) snapshot per op and
silently erases that speedup.  Runtime tests catch this only when the
freeze counter assertion happens to cover the offending path; this rule
bans the *spelling* in the designated hot-path modules.  The cached :attr:`IncrementalScheduler.instance` property
itself and :meth:`PlanePool.version_instance` are the allow-listed
exceptions, marked with ``# ses-lint: disable=freeze-ban`` right at the
site so every new exception shows up in review.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.analysis.engine import Finding, Project, Rule, SourceModule

__all__ = ["FreezeBanRule"]

#: Path suffixes of the modules where snapshots are banned.  The serve
#: hot path is held to the same standard: replica forks are O(cells)
#: copies and writer commits O(delta) patches, so the only legitimate
#: freeze is PlanePool.version_instance's per-generation cached one —
#: allow-listed at the site.
HOT_PATH_MODULES = (
    "stream/driver.py",
    "stream/policies.py",
    "algorithms/incremental.py",
    "serve/pool.py",
    "serve/session.py",
    # the session methods both session kinds share (gap reports, version
    # saves, stream replays) run on the serving read path too
    "api/session.py",
    # durability sits on the same per-op path: the DurableWriter in
    # resilience/journal.py journals every applied op of both session
    # kinds and checkpoints on the cadence, in O(delta) and O(schedule) —
    # checkpoints carry no instance, so they have no snapshot to
    # allow-list.  Recovery's one freeze (deriving a checkpoint's
    # instance from the base instance and the journal prefix) lives in
    # resilience/base.py, off this list
    "resilience/stream.py",
    "resilience/journal.py",
    # every change op's structural step (ChangeOp.apply_structure) runs
    # on each serving write and each recovery replay
    "stream/trace.py",
)


class FreezeBanRule(Rule):
    name = "freeze-ban"
    rationale = (
        "hot-path stream modules must stay O(delta): no .instance reads "
        "or .freeze() calls outside explicitly allow-listed sites"
    )

    def check(
        self, module: SourceModule, project: Project
    ) -> Iterable[Finding]:
        if not module.matches(*HOT_PATH_MODULES):
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "freeze"
            ):
                yield self.finding(
                    module,
                    node,
                    ".freeze() materializes an O(instance) snapshot on a "
                    "hot-path module; read through .live instead",
                )
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == "instance"
                and isinstance(node.ctx, ast.Load)
            ):
                yield self.finding(
                    module,
                    node,
                    ".instance is a cached freeze (O(instance) after any "
                    "mutation); hot-path code must read through .live",
                )
