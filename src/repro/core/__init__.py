"""Core SES problem model: entities, instances, schedules, Eq. 1–4 semantics.

This subpackage is the executable form of the paper's Section II.  The
import graph is strictly layered::

    entities -> interest/activity -> instance -> live -> schedule
             -> feasibility -> attendance -> objective -> scoring -> engine
             -> scoreplane

:mod:`repro.core.live` adds the mutable counterpart of the immutable
instance: :class:`LiveInstance` absorbs streaming change ops in O(delta)
and freezes back into an equivalent :class:`SESInstance` on demand.
"""

from repro.core.activity import ActivityModel
from repro.core.attendance import (
    attendance_probability,
    expected_attendance,
    luce_denominator,
)
from repro.core.engine import (
    ENGINE_KINDS,
    EngineSpec,
    ReferenceEngine,
    ScoreEngine,
    SparseEngine,
    make_engine,
)
from repro.core.entities import (
    CandidateEvent,
    CompetingEvent,
    Organizer,
    TimeInterval,
    User,
)
from repro.core.errors import (
    DuplicateEventError,
    InfeasibleAssignmentError,
    InstanceValidationError,
    ScheduleSizeError,
    SESError,
    UnknownEntityError,
)
from repro.core.feasibility import (
    FeasibilityChecker,
    explain_infeasibility,
    is_schedule_feasible,
)
from repro.core.instance import SESInstance
from repro.core.interest import InterestMatrix
from repro.core.live import (
    CompetingAdded,
    EventAdded,
    EventInterestReplaced,
    EventRemoved,
    LiveDelta,
    LiveInstance,
    LiveInterest,
)
from repro.core.objective import (
    interval_utility_fast,
    total_utility,
    total_utility_fast,
    utility_upper_bound,
)
from repro.core.schedule import Assignment, Schedule
from repro.core.scoreplane import ScorePlane
from repro.core.timegrid import (
    AFTERNOON_AND_EVENING,
    CalendarGrid,
    DayPart,
    EVENING_ONLY,
)
from repro.core.scoring import assignment_score

__all__ = [
    "ActivityModel",
    "AFTERNOON_AND_EVENING",
    "Assignment",
    "CalendarGrid",
    "CandidateEvent",
    "CompetingEvent",
    "DayPart",
    "DuplicateEventError",
    "ENGINE_KINDS",
    "EVENING_ONLY",
    "EngineSpec",
    "FeasibilityChecker",
    "InfeasibleAssignmentError",
    "InstanceValidationError",
    "InterestMatrix",
    "Organizer",
    "ReferenceEngine",
    "SESError",
    "SESInstance",
    "Schedule",
    "ScheduleSizeError",
    "ScoreEngine",
    "ScorePlane",
    "SparseEngine",
    "TimeInterval",
    "UnknownEntityError",
    "User",
    "assignment_score",
    "attendance_probability",
    "expected_attendance",
    "explain_infeasibility",
    "interval_utility_fast",
    "is_schedule_feasible",
    "luce_denominator",
    "make_engine",
    "total_utility",
    "total_utility_fast",
    "utility_upper_bound",
]
