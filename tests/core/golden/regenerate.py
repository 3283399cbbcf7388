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
    STORAGE_QUERIES,
    live_deltas_engine,
    placed_engine,
    residue_engines,
)

FIXTURE = Path(__file__).parent / "cell_bits.json"

STORAGES = ("dense", "sparse")


def generated_instance():
    """A generated instance with a rival-free interval; the rest densify."""
    config = ExperimentConfig(k=6, n_users=120, interest_backend="sparse")
    return WorkloadGenerator(root_seed=5).build(config)


def random_instance(storage):
    """Rival-free, sparse-``K_t`` and densified-``K_t`` intervals at once."""
    return make_random_instance(
        seed=0, n_users=80, n_events=8, n_intervals=5, n_competing=4,
        interest_density=0.1, interest_backend=storage,
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


def cold_plane(instance):
    return ScorePlane(SparseEngine(instance)).ensure()


def residue_cells(storage):
    engine, _ = residue_engines(storage)
    return np.concatenate([
        [engine.score(3, 0)],
        engine.scores_for_interval(0, [3, 4]),
        engine.scores_for_rows([0, 1], [3, 4]).ravel(),
        engine.scores_for_event(3, [0, 1]),
    ])


def _cases():
    cases = {}
    for storage in STORAGES:
        for query, ask in STORAGE_QUERIES.items():
            cases[f"placed-{storage}-{query}"] = (
                lambda ask=ask, storage=storage: ask(placed_engine(storage))
            )
            cases[f"live-{storage}-{query}"] = (
                lambda ask=ask, storage=storage: ask(live_deltas_engine(storage))
            )
        cases[f"plane-random-{storage}"] = (
            lambda storage=storage: cold_plane(random_instance(storage))
        )
        cases[f"residue-{storage}"] = lambda storage=storage: residue_cells(storage)
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
