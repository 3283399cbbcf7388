"""Golden-trace regression suite: frozen streams, exact expected replays.

Three small seeded traces live as committed JSONL
fixtures under ``golden/`` together with their exact expected
observations per maintenance policy.  Replaying them must reproduce the
expected per-op utility trajectory **exactly** (float equality, not
approximately): replay is deterministic, and these numbers lock down the
whole streaming stack — LiveInstance delta application, engine
``apply_delta`` state, score-cache maintenance, policy decisions — so an
unintended behavioral drift anywhere fails this suite loudly.

After an *intentional* change, regenerate with::

    PYTHONPATH=src python tests/stream/golden/regenerate.py
"""

import json
from pathlib import Path

import pytest

from repro.stream import POLICY_NAMES, Trace

from tests.stream.golden.regenerate import CASES, build_case, replay

GOLDEN_DIR = Path(__file__).parent / "golden"

with (GOLDEN_DIR / "expected.json").open() as handle:
    EXPECTED = json.load(handle)


def case_params():
    for name in CASES:
        for policy in POLICY_NAMES:
            yield pytest.param(name, policy, id=f"{name}-{policy}")


class TestFixturesAreCurrent:
    @pytest.mark.parametrize("name", list(CASES))
    def test_committed_trace_matches_generator(self, name):
        """The JSONL fixture is byte-identical to its seeded generation."""
        _, trace, _ = build_case(name)
        committed = (GOLDEN_DIR / f"{name}.jsonl").read_text(encoding="utf-8")
        assert committed == trace.to_jsonl()

    def test_every_case_has_expectations(self):
        assert set(EXPECTED) == set(CASES)
        for name in CASES:
            assert set(EXPECTED[name]["policies"]) == set(POLICY_NAMES)


class TestGoldenReplays:
    @pytest.mark.parametrize("name,policy", case_params())
    def test_replay_matches_expected_exactly(self, name, policy):
        instance, _, spec = build_case(name)
        trace = Trace.load(GOLDEN_DIR / f"{name}.jsonl")
        result = replay(instance, trace, spec, policy)

        expected = EXPECTED[name]["policies"][policy]
        assert EXPECTED[name]["engine"] == spec.kind
        # exact float equality: the contract is bit-level determinism
        assert list(result.utilities) == expected["utilities"]
        assert result.final_utility == expected["final_utility"]
        assert {
            str(event): interval
            for event, interval in sorted(result.final_schedule.items())
        } == expected["final_schedule"]
        assert result.final_k == expected["final_k"]
        assert result.rebuilds == expected["rebuilds"]
        assert result.freezes == expected["freezes"]

    @pytest.mark.parametrize("name", list(CASES))
    def test_incremental_policy_never_freezes(self, name):
        """The golden expectations themselves prove the O(delta) fast
        path: pure incremental replays materialize zero snapshots."""
        assert EXPECTED[name]["policies"]["incremental"]["freezes"] == 0
