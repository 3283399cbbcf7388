"""``grd-heap`` — the name GRD's lazy variant is requested under.

This solver once kept GRD's candidates in a lazily revalidated binary
heap.  GRD itself now rescores lazily (see :mod:`repro.algorithms.greedy`),
with fewer rescored cells and no per-candidate Python heap, so
``grd-heap`` runs the same pick loop and returns GRD's schedule bit for
bit.  The name and the ``GRD-heap`` label stay because callers record
them: the stream oracle's default solver, journal metadata and the
benchmark's request mix.
"""

from __future__ import annotations

from repro.algorithms.greedy import GreedyScheduler
from repro.algorithms.registry import register_solver

__all__ = ["LazyGreedyScheduler"]


@register_solver(summary="GRD under its former lazy-heap name: the same loop")
class LazyGreedyScheduler(GreedyScheduler):
    """GRD's lazy pick loop under the ``grd-heap`` name."""

    name = "GRD-heap"
