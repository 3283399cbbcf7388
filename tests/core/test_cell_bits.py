"""Exact cell pins for the sparse engine's Eq. 4 kernel.

Every case in ``golden/regenerate.py`` is recomputed and compared with
the committed ``float.hex`` strings: a kernel rewrite must keep every
cell's bits, not just the final utilities.  After an *intentional*
change to the arithmetic, regenerate with::

    PYTHONPATH=src python -m tests.core.golden.regenerate
"""

import json

import pytest

from tests.core.golden.regenerate import (
    CASES,
    FIXTURE,
    cell_bits,
    competing_kinds,
    generated_instance,
    random_instance,
)

RECORDED = json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case():
    assert sorted(RECORDED) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cells_keep_their_recorded_bits(name):
    assert cell_bits(CASES[name]()) == RECORDED[name]


def test_plane_cases_cover_every_competing_mass_layout():
    assert competing_kinds(generated_instance()) >= {"none", "dense"}
    assert competing_kinds(random_instance()) == {"none", "sparse", "dense"}
