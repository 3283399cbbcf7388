"""dtype-discipline: score/mass arrays stay full float64 precision.

Every correctness property this repo leans on — 1e-9 engine parity,
bit-identical warm/cold solves, golden-trace utilities reproduced to the
last ulp — is calibrated for float64 accumulation.  A drive-by
low-precision ``dtype=`` on a score or mass path (tempting when chasing
memory at a million users) passes every smoke test and then fails parity
suites intermittently at scale.  This rule bans low-precision float
dtypes in array construction inside the designated score/mass modules,
the whole shard subsystem included: its block storage
(``shard/interest.py``) holds float64 CSC blocks, and its partials merge
in float64.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.analysis.astutil import tail
from repro.analysis.engine import Finding, Project, Rule, SourceModule

__all__ = ["DtypeDisciplineRule"]

#: Path suffixes of the modules computing Eq. 1-4 scores and masses.
SCORE_PATH_MODULES = (
    "core/attendance.py",
    "core/engine.py",
    "core/scoreplane.py",
    "core/interest.py",
    "core/live.py",
    "core/objective.py",
    "core/scoring.py",
    "algorithms/incremental.py",
    "serve/pool.py",
    "serve/session.py",
    "shard/plan.py",
    "shard/executor.py",
    "shard/engine.py",
    "shard/interest.py",
)

#: numpy constructors and the position of their ``dtype`` parameter.
_CONSTRUCTOR_DTYPE_POS = {
    "array": 1,
    "asarray": 1,
    "ascontiguousarray": 1,
    "asfortranarray": 1,
    "zeros": 1,
    "ones": 1,
    "empty": 1,
    "arange": 4,
    "fromiter": 1,
    "full": 2,
    "zeros_like": 1,
    "ones_like": 1,
    "empty_like": 1,
    "full_like": 2,
}

#: dtype spellings below float64 precision.
LOW_PRECISION_NAMES = frozenset(
    {"float32", "float16", "single", "half", "f4", "f2", "<f4", "<f2"}
)


def _low_precision(node: ast.expr) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        if node.value in LOW_PRECISION_NAMES:
            return node.value
        return None
    name = tail(node)
    if name in LOW_PRECISION_NAMES:
        return name
    return None


class DtypeDisciplineRule(Rule):
    name = "dtype-discipline"
    rationale = (
        "score/mass paths are calibrated for float64; low-precision dtypes "
        "break the 1e-9 parity and bit-identical warm-solve contracts"
    )

    def check(
        self, module: SourceModule, project: Project
    ) -> Iterable[Finding]:
        if not module.matches(*SCORE_PATH_MODULES):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = tail(node.func)
            position = _CONSTRUCTOR_DTYPE_POS.get(callee or "")
            if position is None:
                continue
            dtype_expr: ast.expr | None = None
            for keyword in node.keywords:
                if keyword.arg == "dtype":
                    dtype_expr = keyword.value
            if dtype_expr is None and len(node.args) > position:
                dtype_expr = node.args[position]
            if dtype_expr is None:
                continue
            culprit = _low_precision(dtype_expr)
            if culprit is not None:
                yield self.finding(
                    module,
                    node,
                    f"np.{callee}(..., dtype={culprit}) constructs a "
                    f"low-precision array on a score/mass path; these are "
                    f"pinned to float64 by the parity/warm-solve contracts",
                )
