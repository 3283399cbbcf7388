"""Regenerate the Eq. 4 cell-bit fixture in this directory.

Run from the repository root after an *intentional* change to the
engine's arithmetic::

    PYTHONPATH=src python -m tests.core.golden.regenerate

``cell_bits.json`` holds, as ``float.hex`` strings, every cell the
sparse engine answers in the cases below.  ``tests/core/test_cell_bits.py``
recomputes them and compares exactly.  The stream goldens and the
benchmark pins only see final utilities, which ``total_utility``
recomputes from mass, so a cell that moves by an ulp without flipping a
pick would go unseen there; here it fails.
"""

import json
from pathlib import Path

import numpy as np

from repro.core.engine import SparseEngine
from repro.core.scoreplane import ScorePlane
from repro.workloads.config import ExperimentConfig
from repro.workloads.generator import WorkloadGenerator

from tests.conftest import make_random_instance
from tests.core.test_engine import (
    QUERY_SURFACES,
    live_deltas_engine,
    placed_engine,
    residue_engines,
)

FIXTURE = Path(__file__).parent / "cell_bits.json"


def generated_instance():
    """A generated instance with a rival-free interval; the rest densify."""
    config = ExperimentConfig(k=6, n_users=120)
    return WorkloadGenerator(root_seed=5).build(config)


def random_instance():
    """Rival-free, sparse-``K_t`` and densified-``K_t`` intervals at once."""
    return make_random_instance(
        seed=0, n_users=80, n_events=8, n_intervals=5, n_competing=4,
        interest_density=0.1,
    )


def competing_kinds(instance):
    """How the sparse engine stores each interval's ``K_t``."""
    kinds = set()
    for rivals in instance.competing_by_interval:
        rows, _ = instance.interest.competing_mass_entries(rivals)
        if not len(rivals):
            kinds.add("none")
        elif rows.size > SparseEngine.DENSIFY_FRACTION * instance.n_users:
            kinds.add("dense")
        else:
            kinds.add("sparse")
    return kinds


def engine_cases():
    """The engines the query-surface and residue cases read."""
    return [placed_engine(), live_deltas_engine(), residue_engines()[0]]


def scheduled_kinds(engine):
    """How the sparse engine holds each interval's ``M_t``."""
    names = {"_SparseMass": "sorted", "_DenseMass": "dense"}
    return {
        names[type(mass).__name__] if mass is not None else "none"
        for mass in map(
            engine._scheduled_mass.get, range(engine.instance.n_intervals)
        )
    }


def cold_plane(instance):
    return ScorePlane(SparseEngine(instance)).ensure()


def residue_cells():
    engine, _ = residue_engines()
    return np.concatenate([
        [engine.score(3, 0)],
        engine.scores_for_interval(0, [3, 4]),
        engine.scores_for_rows([0, 1], [3, 4]).ravel(),
        engine.scores_for_event(3, [0, 1]),
    ])


def _cases():
    # the "sparse" in the names is the CSC storage the cells were first
    # recorded on; the names stay so the fixture keeps its keys
    cases = {}
    for query, ask in QUERY_SURFACES.items():
        cases[f"placed-sparse-{query}"] = lambda ask=ask: ask(placed_engine())
        cases[f"live-sparse-{query}"] = (
            lambda ask=ask: ask(live_deltas_engine())
        )
    cases["plane-random-sparse"] = lambda: cold_plane(random_instance())
    cases["residue-sparse"] = residue_cells
    cases["plane-generated"] = lambda: cold_plane(generated_instance())
    return cases


#: case name -> thunk computing the case's cells
CASES = _cases()


def cell_bits(cells):
    """``float.hex`` of every cell, in C order."""
    return [float(value).hex() for value in np.ravel(cells)]


def main() -> None:
    recorded = {name: cell_bits(CASES[name]()) for name in sorted(CASES)}
    FIXTURE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}: {len(recorded)} cases, "
          f"{sum(map(len, recorded.values()))} cells")


if __name__ == "__main__":
    main()
