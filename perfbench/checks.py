"""Output checks.  A check that fails counts its op as failed.

* A solve's schedule must be feasible and its reported utility must
  match :func:`repro.core.objective.total_utility_fast` on the instance
  it was solved against, within :data:`RELATIVE_TOLERANCE`.
* Repeated cold solves of one request must return one schedule.
* A recovered-and-resumed stream replay must be bit-identical to an
  uninterrupted one: every per-op utility, the final schedule and the
  final utility.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

RELATIVE_TOLERANCE = 1e-9


def schedule_key(schedule: Any) -> tuple[tuple[int, int], ...]:
    mapping = schedule if isinstance(schedule, dict) else schedule.as_mapping()
    return tuple(sorted((int(e), int(t)) for e, t in mapping.items()))


class UtilityOracle:
    """Recomputes solve utilities; one recomputation per (instance, schedule)."""

    def __init__(self) -> None:
        self._cache: dict[tuple[int, tuple[tuple[int, int], ...]], tuple[bool, float]] = {}
        # instances stay referenced so their ids cannot be reused
        self._instances: dict[int, Any] = {}

    def _truth(self, instance: Any, schedule: Any) -> tuple[bool, float]:
        from repro.core.feasibility import is_schedule_feasible
        from repro.core.objective import total_utility_fast

        key = (id(instance), schedule_key(schedule))
        if key not in self._cache:
            self._instances[id(instance)] = instance
            self._cache[key] = (
                is_schedule_feasible(instance, schedule),
                total_utility_fast(instance, schedule),
            )
        return self._cache[key]

    def problem(self, instance: Any, schedule: Any, utility: float) -> str | None:
        """``None`` when the schedule is feasible and its utility recomputes."""
        feasible, expected = self._truth(instance, schedule)
        if not feasible:
            return f"infeasible schedule {schedule_key(schedule)}"
        if abs(utility - expected) > RELATIVE_TOLERANCE * abs(expected):
            return f"utility {utility!r} but the schedule recomputes to {expected!r}"
        return None


def replay_mismatches(
    resumed_utilities: Sequence[float],
    resumed_schedule: dict[int, int],
    resumed_utility: float,
    reference_utilities: Sequence[float],
    reference_schedule: dict[int, int],
    reference_utility: float,
) -> list[str]:
    """Every way a resumed replay differs from the uninterrupted one."""
    problems = []
    if len(resumed_utilities) != len(reference_utilities):
        problems.append(
            f"{len(resumed_utilities)} op records, expected {len(reference_utilities)}"
        )
    for index, (got, want) in enumerate(zip(resumed_utilities, reference_utilities)):
        if got != want:
            problems.append(f"op {index}: utility {got!r}, uninterrupted {want!r}")
    if dict(resumed_schedule) != dict(reference_schedule):
        problems.append("final schedule differs from the uninterrupted replay")
    if resumed_utility != reference_utility:
        problems.append(
            f"final utility {resumed_utility!r}, uninterrupted {reference_utility!r}"
        )
    return problems
