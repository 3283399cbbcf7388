"""Exact cell pins for the sparse engine's Eq. 4 kernel.

Every case in ``golden/regenerate.py`` is recomputed and compared with
the committed ``float.hex`` strings: a kernel rewrite must keep every
cell's bits, not just the final utilities.  After an *intentional*
change to the arithmetic, regenerate with::

    PYTHONPATH=src python -m tests.core.golden.regenerate
"""

import json

import pytest

from repro.core.engine import SparseEngine

from tests.core.golden.regenerate import (
    CASES,
    FIXTURE,
    cell_bits,
    competing_kinds,
    engine_cases,
    generated_instance,
    random_instance,
    scheduled_kinds,
)

RECORDED = json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case():
    assert sorted(RECORDED) == sorted(CASES)


#: ``DENSIFY_FRACTION`` values: the default, one that holds every nonempty
#: ``K_t`` and ``M_t`` dense, and one that holds every one sorted.
FRACTIONS = {
    "default": SparseEngine.DENSIFY_FRACTION,
    "all-dense": 0.0,
    "all-sorted": 1.0,
}


@pytest.mark.parametrize("layout", sorted(FRACTIONS))
@pytest.mark.parametrize("name", sorted(CASES))
def test_cells_keep_their_recorded_bits(name, layout, monkeypatch):
    """Sorted and dense masses gather the same floats, so no layout may
    move a pinned cell."""
    monkeypatch.setattr(SparseEngine, "DENSIFY_FRACTION", FRACTIONS[layout])
    assert cell_bits(CASES[name]()) == RECORDED[name]


def test_plane_cases_cover_every_competing_mass_layout():
    assert competing_kinds(generated_instance()) >= {"none", "dense"}
    assert competing_kinds(random_instance()) == {"none", "sparse", "dense"}


def test_engine_cases_cover_every_scheduled_mass_layout(monkeypatch):
    """The pinned engines hold ``M_t`` in every layout: none, and dense at
    the default fraction.  Their columns are all denser than it, so the
    sorted layout is the one they hold under ``all-sorted``."""
    kinds = {}
    for layout, fraction in FRACTIONS.items():
        monkeypatch.setattr(SparseEngine, "DENSIFY_FRACTION", fraction)
        kinds[layout] = set().union(*map(scheduled_kinds, engine_cases()))
    assert kinds == {
        "default": {"none", "dense"},
        "all-dense": {"none", "dense"},
        "all-sorted": {"none", "sorted"},
    }
