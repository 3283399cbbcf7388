"""Every workload's output check catches an injected wrong utility or schedule.

The workloads run here at tiny sizes; the checks are the ones the
benchmark runs.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from perfbench.harness import OpLog
from perfbench.workloads.durable_stream import DurableStreamWorkload
from perfbench.workloads.serve_mixed import ServeMixed
from perfbench.workloads.solves import BatchSolve, ShardedSolve


class TinyBatch(BatchSolve):
    users = 300
    k = 6
    fixed_ops = 3


class TinySharded(ShardedSolve):
    users = 3_000
    fixed_ops = 2


class TinyServe(ServeMixed):
    users = 300
    k = 6


class TinyDurable(DurableStreamWorkload):
    users = 300
    k = 6
    trace_ops = 20
    kill_at = 18


def passes(workload, tmp_path):
    state = workload.setup(5, tmp_path, workload.load_dataset())
    outcome = workload.run(state, OpLog(), None)
    workload.check(state, outcome)
    assert outcome.failed == 0, outcome.problems
    return state, outcome


def recheck(workload, state, outcome):
    again = replace(outcome, failed=0, problems=[], utilities=[], notes=[])
    workload.check(state, again)
    return again


@pytest.mark.parametrize("workload", [TinyBatch(), TinySharded()], ids=lambda w: w.name)
def test_cold_solve_check_catches_a_wrong_utility(workload, tmp_path):
    state, outcome = passes(workload, tmp_path)
    result = outcome.results[1]
    outcome.results[1] = replace(result, utility=result.utility * (1 + 1e-6))
    again = recheck(workload, state, outcome)
    assert again.failed == 1
    assert "recomputes" in again.problems[0]


def test_cold_solve_check_catches_a_different_schedule(tmp_path):
    from repro.core.objective import total_utility_fast
    from repro.core.schedule import Schedule

    workload = TinyBatch()
    state, outcome = passes(workload, tmp_path)
    result = outcome.results[-1]
    smaller = Schedule(state.instance)
    for assignment in list(result.schedule)[:-1]:
        smaller.add(assignment)
    outcome.results[-1] = replace(
        result, schedule=smaller, utility=total_utility_fast(state.instance, smaller)
    )
    again = recheck(workload, state, outcome)
    assert again.failed == 1
    assert "differs" in again.problems[0]


def _served(output, **changes):
    result = replace(output.response.result, **changes)
    return replace(output, response=replace(output.response, result=result))


def test_serve_check_catches_wrong_utility_degraded_and_stale_version(tmp_path):
    workload = TinyServe()
    state, outcome = passes(workload, tmp_path)
    solves = [i for i, row in enumerate(outcome.results) if row[3] != "gap"]
    first, second, third = solves[:3]
    epoch, client, index, kind, output = outcome.results[first]
    outcome.results[first] = (epoch, client, index, kind,
                              _served(output, utility=output.utility + 1.0))
    epoch, client, index, kind, output = outcome.results[second]
    outcome.results[second] = (epoch, client, index, kind, replace(output, degraded=True))
    epoch, client, index, kind, output = outcome.results[third]
    outcome.results[third] = (epoch, client, index, kind,
                              replace(output, version=output.version + 1))
    again = recheck(workload, state, outcome)
    assert again.failed == 3
    assert any("recomputes" in p for p in again.problems)
    assert any("degraded" in p for p in again.problems)
    assert any("stamped version" in p for p in again.problems)


def test_durable_check_catches_a_diverged_resume(tmp_path):
    workload = TinyDurable()
    state, outcome = passes(workload, tmp_path)
    killed, resumed = outcome.results[0]
    records = list(resumed.records)
    records[-1] = replace(records[-1], utility=records[-1].utility + 1e-9)
    outcome.results[0] = (killed, replace(resumed, records=tuple(records)))
    again = recheck(workload, state, outcome)
    assert again.failed == 1
    assert "op 19" in again.problems[0]

    schedule = dict(resumed.final_schedule)
    schedule.pop(next(iter(schedule)))
    outcome.results[0] = (killed, replace(resumed, final_schedule=schedule))
    again = recheck(workload, state, outcome)
    assert again.failed == 1
    assert "final schedule" in again.problems[0]
