"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run one workload from the repository root::

    python3 perfbench/run.py --workload batch-solve --seed 2018 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that wraps the public calls at
each layer seam (see :mod:`perfbench.tracing`) and prints the per-layer
table.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the
machine and input fingerprint.

The benchmark's own tests run at tiny sizes::

    python3 -m pytest perfbench/tests -q

Nothing in this package is imported by the program under test.  It
receives only generated inputs; every random draw descends from the
``--seed`` argument.
"""
