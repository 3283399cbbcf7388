"""The tail-percentile rule, exact means, utility pins, and the declared contract."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.harness import (
    END_TO_END_UNITS, OpLog, Outcome, check_utility, exact_mean, tail_percentile,
)
from perfbench.layers import PER_LAYER_UNITS
from perfbench.workloads import LOAD_THREADS, WORKLOADS, load_workload

ROOT = Path(__file__).resolve().parents[2]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    samples = list(range(100, 0, -1))  # 1..100, unsorted
    percentile, value = tail_percentile(samples)
    assert (percentile, value) == (90.0, 90)
    assert sum(1 for s in samples if s > value) == 10


def test_tail_with_eleven_samples_is_the_smallest():
    samples = [5.0, 1.0, 9.0, 2.0, 7.0, 3.0, 8.0, 4.0, 6.0, 10.0, 11.0]
    percentile, value = tail_percentile(samples)
    assert value == 1.0
    assert sum(1 for s in samples if s > value) == 10
    assert percentile == pytest.approx(100 / 11)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 10)


def test_exact_mean_does_not_depend_on_the_order_of_its_values():
    values = [0.1, 1e16, 0.3, -1e16, 2.0 / 3.0, 0.7]
    assert exact_mean(values) == exact_mean(values[::-1]) == exact_mean(sorted(values))
    assert sum(values) / len(values) != sum(values[::-1]) / len(values)


def test_a_utility_below_its_pin_fails_a_check_and_one_above_is_noted():
    pin = {"utility_mean": 100.0}
    low = Outcome(OpLog(), utilities=[99.0, 100.0])
    assert check_utility(pin, low) == 99.5
    assert low.failed == 1 and "below" in low.problems[0]
    high = Outcome(OpLog(), utilities=[100.0, 101.0])
    check_utility(pin, high)
    assert high.failed == 0 and "differs" in high.notes[0]
    exact = Outcome(OpLog(), utilities=[100.0])
    check_utility(pin, exact)
    check_utility({}, exact)
    assert exact.failed == 0 and not exact.notes


def test_benchmark_json_names_every_metric_and_workload():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert declared["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == PER_LAYER_UNITS
    for name in WORKLOADS:
        assert load_workload(name).load_threads == LOAD_THREADS[name]


def test_pins_cover_the_default_and_held_out_seeds():
    from perfbench.workloads import DEFAULT_SEED, HELD_OUT_SEED

    pins = json.loads((ROOT / "perfbench" / "pins.json").read_text(encoding="utf-8"))
    assert sorted(pins) == sorted(WORKLOADS)
    for seeds in pins.values():
        assert sorted(seeds) == sorted([str(DEFAULT_SEED), str(HELD_OUT_SEED)])
        for pin in seeds.values():
            assert sorted(pin) == ["inputs", "utility_mean"]


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch-solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert "src" in done.stderr
