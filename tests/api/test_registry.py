"""Registry completeness and capability-aware construction."""

import pkgutil

import pytest

import repro.algorithms
from repro.algorithms import (
    AnnealingScheduler,
    GreedyScheduler,
    IncrementalScheduler,
    LocalSearchRefiner,
    RandomScheduler,
)
from repro.api import EngineSpec, SolverRegistry, register_solver, solver_registry
from repro.core.objective import total_utility
from repro.harness.cli import build_parser

from tests.conftest import make_random_instance

#: modules in repro.algorithms that are infrastructure, not solvers
_NON_SOLVER_MODULES = {"base", "registry"}


class TestCompleteness:
    def test_every_solver_module_registers(self):
        """Each algorithm module must contribute at least one registry entry
        — a new solver file that forgets the decorator fails here."""
        modules = {
            module.name
            for module in pkgutil.iter_modules(repro.algorithms.__path__)
            if module.name not in _NON_SOLVER_MODULES
        }
        registered = {info.module.rsplit(".", 1)[-1] for info in solver_registry}
        missing = modules - registered
        assert not missing, f"unregistered solver modules: {sorted(missing)}"

    def test_all_ten_solvers_present(self):
        assert set(solver_registry.names()) == {
            "beam",
            "exact",
            "grasp",
            "grd",
            "grd-heap",
            "incremental",
            "ls",
            "rand",
            "sa",
            "top",
        }

    def test_one_shot_excludes_refiner_and_online(self):
        one_shot = set(solver_registry.one_shot_names())
        assert "ls" not in one_shot
        assert "incremental" not in one_shot
        assert {"grd", "grd-heap", "top", "rand", "sa", "beam", "grasp", "exact"} <= (
            one_shot
        )

    def test_cli_choices_derive_from_registry(self):
        """Every one-shot registry name is a valid --solver choice."""
        parser = build_parser()
        for name in solver_registry.one_shot_names():
            args = parser.parse_args(["solve", "f.json", "-k", "1", "--solver", name])
            assert args.solver == name

    def test_capability_flags(self):
        assert solver_registry.get("rand").seeded
        assert not solver_registry.get("grd").seeded
        assert solver_registry.get("ls").kind == "refiner"
        assert solver_registry.get("incremental").kind == "online"
        assert solver_registry.get("sa").anytime
        assert not solver_registry.get("ls").strict_capable


class TestLookup:
    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="unknown solver"):
            solver_registry.get("quantum")

    def test_contains_and_len(self):
        assert "grd" in solver_registry
        assert "quantum" not in solver_registry
        assert len(solver_registry) == 10

    def test_duplicate_name_rejected(self):
        registry = SolverRegistry()

        @register_solver(name="dup", registry=registry)
        class First:
            name = "DUP"

        with pytest.raises(ValueError, match="already registered"):

            @register_solver(name="dup", registry=registry)
            class Second:
                name = "DUP2"


@pytest.fixture
def built_specs(monkeypatch):
    """Every spec an engine is built from while the test runs."""
    built = []
    original = EngineSpec.build

    def recording_build(spec, instance):
        built.append(spec)
        return original(spec, instance)

    monkeypatch.setattr(EngineSpec, "build", recording_build)
    return built


class TestEngineThreading:
    """The spec a solver is given reaches every engine it scores with:
    no constructor on the way to ``Scheduler`` may drop or replace it."""

    ORACLE = EngineSpec("reference")

    @pytest.mark.parametrize("name", solver_registry.one_shot_names())
    def test_one_shot_solver(self, name, built_specs):
        seed = 3 if solver_registry.get(name).seeded else None
        solver = solver_registry.create(name, engine=self.ORACLE, seed=seed)
        instance = make_random_instance(seed=11)
        result = solver.solve(instance, 3)
        assert built_specs and set(built_specs) == {self.ORACLE}
        assert result.utility == pytest.approx(
            total_utility(instance, result.schedule), abs=1e-9
        )

    def test_refiner(self, built_specs):
        instance = make_random_instance(seed=11)
        draft = GreedyScheduler().solve(instance, 3).schedule
        built_specs.clear()
        refiner = solver_registry.create("ls", engine=self.ORACLE, seed=2)
        refined = refiner.refine(instance, draft)
        assert built_specs and set(built_specs) == {self.ORACLE}
        assert refined.utility == pytest.approx(
            total_utility(instance, refined.schedule), abs=1e-9
        )
        assert refined.utility >= total_utility(instance, draft) - 1e-9

    def test_online_maintainer(self, built_specs):
        instance = make_random_instance(seed=11)
        scheduler = IncrementalScheduler(instance, 3, engine=self.ORACLE)
        assert scheduler.engine_spec == self.ORACLE
        assert built_specs and set(built_specs) == {self.ORACLE}


class TestCreate:
    def test_creates_correct_class_with_engine(self):
        solver = solver_registry.create("grd", engine=EngineSpec("reference"))
        assert isinstance(solver, GreedyScheduler)
        assert solver.engine_spec == EngineSpec("reference")

    def test_seed_applied_to_seeded_solver(self):
        a = solver_registry.create("rand", seed=5)
        b = solver_registry.create("rand", seed=5)
        assert isinstance(a, RandomScheduler)
        instance = make_random_instance(seed=9)
        assert a.solve(instance, 3).schedule == b.solve(instance, 3).schedule

    def test_seed_rejected_for_deterministic_solver(self):
        with pytest.raises(ValueError, match="deterministic"):
            solver_registry.create("grd", seed=1)

    def test_default_params_overridable(self):
        solver = solver_registry.create("sa", seed=1, steps=7)
        assert solver._steps == 7

    def test_refiner_constructible(self):
        refiner = solver_registry.create("ls", seed=2, max_rounds=3)
        assert isinstance(refiner, LocalSearchRefiner)

    def test_online_solver_not_creatable(self):
        with pytest.raises(ValueError, match="online maintainer"):
            solver_registry.create("incremental")
        # ... but direct construction with the new typed argument works
        instance = make_random_instance(seed=10)
        live = IncrementalScheduler(instance, k=2, engine=EngineSpec())
        assert len(live.schedule) == 2

    def test_strict_rejected_when_not_capable(self):
        with pytest.raises(ValueError, match="strict"):
            solver_registry.create("ls", strict=True)

    def test_strict_forwarded(self):
        solver = solver_registry.create("sa", strict=True, seed=0)
        assert isinstance(solver, AnnealingScheduler)
        assert solver._strict
