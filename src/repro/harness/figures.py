"""One-call regeneration of each Figure-1 panel.

``generate_figure("1a")`` runs the exact sweep behind the paper's panel
and returns the populated :class:`~repro.harness.results.SweepTable`; the
CLI, the EXPERIMENTS.md tables and user notebooks all share this single
definition, so the panels cannot drift apart between entry points.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.engine import EngineSpec
from repro.harness.results import SweepTable
from repro.harness.runner import run_sweep
from repro.workloads.config import ExperimentConfig
from repro.workloads.sweeps import sweep_intervals, sweep_k

__all__ = ["FIGURE_SPECS", "generate_figure", "figure_value_axis"]

#: panel -> (x label, value axis, title)
FIGURE_SPECS: dict[str, tuple[str, str, str]] = {
    "1a": ("k", "utility", "Fig 1a: utility vs k"),
    "1b": ("k", "time", "Fig 1b: time vs k"),
    "1c": ("|T|", "utility", "Fig 1c: utility vs |T|"),
    "1d": ("|T|", "time", "Fig 1d: time vs |T|"),
}

#: the paper's grids
FULL_K_GRID = (100, 200, 300, 400, 500)
QUICK_K_GRID = (20, 40, 60)
QUICK_INTERVAL_FACTORS = (0.5, 1.5, 3.0)


def figure_value_axis(panel: str) -> str:
    """``"utility"`` or ``"time"`` — which axis the panel plots."""
    try:
        return FIGURE_SPECS[panel][1]
    except KeyError:
        raise ValueError(
            f"unknown panel {panel!r}; choose from {sorted(FIGURE_SPECS)}"
        ) from None


def generate_figure(
    panel: str,
    n_users: int | None = None,
    seed: int = 0,
    quick: bool = False,
    progress: Callable[[str], None] | None = None,
    engine: EngineSpec | str | None = None,
) -> SweepTable:
    """Run the sweep behind one Figure-1 panel and return its table.

    Parameters
    ----------
    panel:
        ``"1a"`` … ``"1d"``.
    n_users:
        Population per instance; ``None`` keeps the library default.
    seed:
        Root seed for workload generation and stochastic methods.
    quick:
        Use a miniature grid (seconds instead of minutes); shapes still
        hold, absolute values shrink.
    progress:
        Optional per-grid-point callback (the CLI passes a stderr print).
    engine:
        :class:`EngineSpec` (or kind string) behind every method.
    """
    if panel not in FIGURE_SPECS:
        raise ValueError(
            f"unknown panel {panel!r}; choose from {sorted(FIGURE_SPECS)}"
        )
    spec = EngineSpec.coerce(engine)
    x_label, __, title = FIGURE_SPECS[panel]
    base = (
        ExperimentConfig(n_users=n_users)
        if n_users is not None
        else ExperimentConfig()
    )

    if panel in ("1a", "1b"):
        grid = QUICK_K_GRID if quick else FULL_K_GRID
        sweep = sweep_k(grid, base=base)
    else:
        k = 20 if quick else 100
        factors = QUICK_INTERVAL_FACTORS if quick else None
        if factors is not None:
            sweep = sweep_intervals(k=k, factors=factors, base=base)
        else:
            sweep = sweep_intervals(k=k, base=base)

    return run_sweep(
        sweep,
        x_label=x_label,
        title=title,
        root_seed=seed,
        progress=progress,
        engine=spec,
    )
