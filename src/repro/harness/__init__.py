"""Experiment harness: sweep runner, result tables, text reports, CLI."""

from repro.harness.figures import FIGURE_SPECS, figure_value_axis, generate_figure
from repro.harness.inspect import EventReport, IntervalReport, ScheduleReport
from repro.harness.report import format_ascii_chart, format_figure, format_table
from repro.harness.whatif import (
    WhatIfCurve,
    competition_cost,
    sweep_locations,
    sweep_theta,
)
from repro.harness.results import SweepRow, SweepTable
from repro.harness.runner import paper_methods, run_point, run_sweep

__all__ = [
    "EventReport",
    "FIGURE_SPECS",
    "figure_value_axis",
    "generate_figure",
    "IntervalReport",
    "ScheduleReport",
    "SweepRow",
    "SweepTable",
    "format_ascii_chart",
    "format_figure",
    "format_table",
    "paper_methods",
    "run_point",
    "run_sweep",
    "WhatIfCurve",
    "competition_cost",
    "sweep_locations",
    "sweep_theta",
]
