"""Command-line interface: ``ses-repro`` / ``python -m repro``.

The CLI is a thin client of the :mod:`repro.api` facade: solver choices
come from :data:`~repro.api.solver_registry` (a newly registered solver
appears here automatically), engine choices from
:data:`~repro.core.engine.ENGINE_KINDS`, and the ``solve``/``demo``
commands serve their queries through a
:class:`~repro.api.ScheduleSession`.

Subcommands
-----------

``figure {1a,1b,1c,1d}``
    Regenerate one panel of the paper's Figure 1 (utility/time vs k/|T|).
    ``--quick`` shrinks the grid and population for a seconds-scale run;
    ``--users`` / ``--seed`` control scale and reproducibility; ``--csv``
    dumps the raw series.

``dataset``
    Generate the synthetic Meetup-style EBSN and print the calibration
    statistics the paper reports (mean overlap, conflict fraction, sizes).

``solve``
    Load an instance JSON (see :mod:`repro.data.serialization`), run a
    solver, print the schedule and utility.  ``--pin T:E`` /
    ``--forbid T:E`` (repeatable) thread organizer locks through the
    solve: pinned events are guaranteed their interval, forbidden cells
    are never selected.

``gaps``
    Solve a draft like ``solve``, then print the organizer gap report:
    every unscheduled event with the intervals that could still host it,
    estimated marginal gains, and why the rest are off the table
    (blocked / forbidden / dominated).  Accepts the same ``--pin`` /
    ``--forbid`` locks; ``--explain-locks`` dry-runs pin feasibility
    (via :meth:`~repro.interactive.locks.LockSet.explain`) and exits
    without solving — nonzero when the locks are infeasible.

``solvers``
    List every registered solver with its capabilities, as aligned
    kind/capability columns; ``--kind {batch,refiner,online}`` filters.

``stream``
    Streaming workloads: generate (or load) a change-event trace and
    replay it against one or more maintenance policies, printing per-op
    latency and final-utility lines per policy (see :mod:`repro.stream`).
    ``solve`` and ``stream`` accept ``--shards`` / ``--workers`` to run
    their engines sharded (see :mod:`repro.shard`).

``lint``
    Run the :mod:`repro.analysis` invariant linter over source trees
    (delta exhaustiveness, hot-path freeze bans, frozen-op discipline,
    registry completeness, determinism, dtype discipline).
    Exit code 0 clean / 1 findings / 2 internal error.

``demo``
    End-to-end smoke run on a small instance: all methods side by side.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from repro.api import (
    ENGINE_KINDS,
    EngineSpec,
    ScheduleSession,
    SolveRequest,
    solver_registry,
)
from repro.algorithms.registry import SOLVER_KINDS
from repro.stream.policies import POLICY_NAMES
from repro.ebsn.generator import EBSNConfig, MeetupStyleGenerator
from repro.ebsn.stats import summarize
from repro.harness.figures import FIGURE_SPECS
from repro.harness.report import format_figure
from repro.workloads.config import ExperimentConfig

__all__ = ["main", "build_parser"]


def _add_engine_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine",
        choices=ENGINE_KINDS,
        default=ENGINE_KINDS[0],
        help="score engine: sparse (nonzero interest entries only, default), "
        "reference (slow loop-based oracle)",
    )


def _add_shard_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--shards", type=int, default=None, metavar="P",
        help="partition the user axis into P shards and merge per-shard "
        "score partials (repro.shard; results match the unsharded engine)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="W",
        help="thread-pool width for sharded fan-outs (default: one per "
        "shard; requires --shards)",
    )


def _engine_spec(args: argparse.Namespace) -> EngineSpec:
    return EngineSpec(
        kind=args.engine,
        backend=getattr(args, "backend", None),
        shards=getattr(args, "shards", None),
        workers=getattr(args, "workers", None),
    )


def _add_lock_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--pin", action="append", default=[], metavar="T:E",
        help="pin event E to interval T (repeatable); pins count toward -k "
        "and are guaranteed in the result",
    )
    parser.add_argument(
        "--forbid", action="append", default=[], metavar="T:E",
        help="never place event E at interval T (repeatable)",
    )


def _parse_cell(text: str, flag: str) -> tuple[int, int]:
    interval, sep, event = text.partition(":")
    if not sep or not interval.strip() or not event.strip():
        raise SystemExit(
            f"ses-repro: {flag} expects INTERVAL:EVENT (e.g. 2:5), got {text!r}"
        )
    try:
        return int(interval), int(event)
    except ValueError:
        raise SystemExit(
            f"ses-repro: {flag} expects integer INTERVAL:EVENT, got {text!r}"
        ) from None


def _locks_from_args(args: argparse.Namespace) -> "LockSet | None":
    from repro.interactive import LockSet

    locks = LockSet(
        pins=tuple(_parse_cell(text, "--pin") for text in args.pin),
        forbids=frozenset(_parse_cell(text, "--forbid") for text in args.forbid),
    )
    return LockSet.coerce(locks)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ses-repro",
        description=(
            "Reproduction of 'Social Event Scheduling' (ICDE 2018): "
            "solvers, synthetic Meetup data, and Figure-1 experiments."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    figure = commands.add_parser("figure", help="regenerate a Figure 1 panel")
    figure.add_argument("panel", choices=sorted(FIGURE_SPECS))
    figure.add_argument("--seed", type=int, default=0)
    figure.add_argument(
        "--users", type=int, default=None, help="population size (default 3000)"
    )
    figure.add_argument(
        "--quick", action="store_true", help="tiny grid for a fast sanity run"
    )
    figure.add_argument("--csv", type=str, default=None, help="write raw rows here")
    _add_engine_argument(figure)
    figure.add_argument(
        "--backend",
        choices=("dense", "sparse"),
        default=None,
        help="mu storage for generated workloads "
        "(default: sparse when --engine sparse, else dense)",
    )

    dataset = commands.add_parser("dataset", help="generate + summarize the EBSN")
    dataset.add_argument("--seed", type=int, default=0)
    dataset.add_argument("--users", type=int, default=2000)
    dataset.add_argument("--events", type=int, default=600)
    dataset.add_argument("--groups", type=int, default=80)

    solve = commands.add_parser("solve", help="solve an instance JSON file")
    solve.add_argument("path", help="instance file from repro.data.save_instance")
    solve.add_argument("-k", type=int, required=True, help="events to schedule")
    solve.add_argument(
        "--solver",
        choices=solver_registry.one_shot_names(),
        default="grd",
    )
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument(
        "--json", action="store_true", help="emit the schedule as JSON"
    )
    solve.add_argument(
        "--report",
        action="store_true",
        help="print the full schedule report (per-event attendance, "
        "staffing utilization, cannibalization)",
    )
    _add_lock_arguments(solve)
    _add_engine_argument(solve)
    _add_shard_arguments(solve)

    gaps = commands.add_parser(
        "gaps", help="solve a draft, then print the organizer gap report"
    )
    gaps.add_argument("path", help="instance file from repro.data.save_instance")
    gaps.add_argument("-k", type=int, required=True, help="events to schedule")
    gaps.add_argument(
        "--solver",
        choices=solver_registry.one_shot_names(),
        default="grd",
    )
    gaps.add_argument("--seed", type=int, default=0)
    gaps.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="report only the N best gap events (default: all)",
    )
    gaps.add_argument(
        "--explain-locks", action="store_true",
        help="dry-run the lock set's pin feasibility against the "
        "instance and exit without solving (nonzero exit if infeasible)",
    )
    _add_lock_arguments(gaps)
    _add_engine_argument(gaps)
    _add_shard_arguments(gaps)

    solvers = commands.add_parser(
        "solvers", help="list every registered solver and its capabilities"
    )
    solvers.add_argument(
        "--kind",
        choices=SOLVER_KINDS,
        default=None,
        help="only list solvers of this kind (batch one-shot solvers, "
        "refiners of existing schedules, or online maintainers)",
    )

    stream = commands.add_parser(
        "stream",
        help="replay a change-event trace under maintenance policies",
    )
    stream.add_argument(
        "--trace", type=str, default=None,
        help="JSONL trace to replay (default: generate one)",
    )
    stream.add_argument(
        "--save-trace", type=str, default=None,
        help="write the generated trace here (JSONL)",
    )
    stream.add_argument(
        "--policy",
        action="append",
        choices=POLICY_NAMES,
        default=None,
        help="maintenance policy to replay under (repeatable; "
        "default: all of them)",
    )
    stream.add_argument("--ops", type=int, default=30, help="trace length")
    stream.add_argument("-k", type=int, default=20, help="initial budget")
    stream.add_argument(
        "--users", type=int, default=500, help="population size"
    )
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument(
        "--rebuild-every", type=int, default=1,
        help="ops between re-solves (periodic-rebuild policy)",
    )
    stream.add_argument(
        "--drift-threshold", type=float, default=None,
        help="interest-mass pressure triggering a rebuild (hybrid policy; "
        "default: 10%% of total candidate interest mass)",
    )
    stream.add_argument(
        "--oracle-every", type=int, default=None,
        help="sample regret vs a fresh GRD re-solve every N ops "
        "(each sample costs a full solve)",
    )
    _add_engine_argument(stream)
    _add_shard_arguments(stream)
    stream.add_argument(
        "--backend",
        choices=("dense", "sparse"),
        default=None,
        help="mu storage for the generated workload "
        "(default: sparse when --engine sparse, else dense)",
    )

    lint = commands.add_parser(
        "lint",
        help="run the repo-invariant linter (repro.analysis) over sources",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="NAME",
        help="run only this rule (repeatable; default: the full battery)",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable ses-lint/1 report on stdout",
    )
    lint.add_argument(
        "--output",
        type=str,
        default=None,
        metavar="FILE",
        help="also write the JSON report here (CI artifact)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue with rationales and exit",
    )

    demo = commands.add_parser("demo", help="small end-to-end comparison run")
    _add_engine_argument(demo)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "figure": _run_figure,
        "dataset": _run_dataset,
        "solve": _run_solve,
        "gaps": _run_gaps,
        "solvers": _run_solvers,
        "stream": _run_stream,
        "lint": _run_lint,
        "demo": _run_demo,
    }[args.command]
    return handler(args)


# ----------------------------------------------------------------------
def _run_figure(args: argparse.Namespace) -> int:
    from repro.harness.figures import figure_value_axis, generate_figure

    table = generate_figure(
        args.panel,
        n_users=args.users,
        seed=args.seed,
        quick=args.quick,
        progress=lambda line: print(line, file=sys.stderr),
        engine=_engine_spec(args),
    )
    print(format_figure(table, value=figure_value_axis(args.panel)))
    if args.csv:
        table.to_csv(args.csv)
        print(f"raw rows written to {args.csv}", file=sys.stderr)
    return 0


def _run_dataset(args: argparse.Namespace) -> int:
    config = EBSNConfig(
        n_users=args.users, n_events=args.events, n_groups=args.groups
    )
    snapshot = MeetupStyleGenerator(config).generate(seed=args.seed)
    stats = summarize(snapshot.network)
    print(json.dumps(stats, indent=2, sort_keys=True))
    print(
        f"horizon={snapshot.horizon_slots} slots "
        f"(calibrated for mean overlap {config.target_overlap})",
        file=sys.stderr,
    )
    return 0


def _run_solve(args: argparse.Namespace) -> int:
    from repro.core.errors import LockError
    from repro.data.serialization import schedule_to_dict

    session = ScheduleSession.from_file(
        args.path, default_engine=_engine_spec(args)
    )
    info = solver_registry.get(args.solver)
    try:
        response = session.solve(
            SolveRequest(
                k=args.k,
                solver=args.solver,
                seed=args.seed if info.seeded else None,
                locks=_locks_from_args(args),
            )
        )
    except LockError as exc:
        print(f"ses-repro: lock error: {exc}", file=sys.stderr)
        return 1
    result = response.result
    instance = session.instance
    if args.json:
        print(json.dumps(schedule_to_dict(result.schedule)))
    elif args.report:
        print(result.summary())
        print()
        print(session.report(result.schedule).format())
    else:
        print(result.summary())
        for assignment in result.schedule:
            event = instance.events[assignment.event]
            interval = instance.intervals[assignment.interval]
            print(
                f"  {event.display_name} -> {interval.display_name} "
                f"(location {event.location}, xi={event.required_resources:.2f})"
            )
    return 0


def _run_gaps(args: argparse.Namespace) -> int:
    from repro.core.errors import LockError

    session = ScheduleSession.from_file(
        args.path, default_engine=_engine_spec(args)
    )
    info = solver_registry.get(args.solver)
    locks = _locks_from_args(args)
    if getattr(args, "explain_locks", False):
        from repro.interactive.locks import LockSet

        report = (locks or LockSet()).explain(session.instance, k=args.k)
        print(report.describe())
        return 0 if report.feasible else 1
    try:
        response = session.solve(
            SolveRequest(
                k=args.k,
                solver=args.solver,
                seed=args.seed if info.seeded else None,
                locks=locks,
            )
        )
        report = session.gap_report(response, limit=args.limit)
    except LockError as exc:
        print(f"ses-repro: lock error: {exc}", file=sys.stderr)
        return 1
    print(response.result.summary())
    if locks is not None:
        print(f"locks: {locks.describe()}")
    print()
    print(report.describe())
    return 0


def _run_solvers(args: argparse.Namespace) -> int:
    kind_filter = getattr(args, "kind", None)
    infos = [
        info
        for info in solver_registry
        if kind_filter is None or info.kind == kind_filter
    ]
    if not infos:
        print(f"no registered solvers of kind {kind_filter!r}")
        return 0
    name_width = max(len(info.name) for info in infos)
    kind_width = max(len(info.kind) for info in infos)
    for info in infos:
        capabilities = [
            flag
            for flag, enabled in (
                ("seeded", info.seeded),
                ("anytime", info.anytime),
                ("strict", info.strict_capable),
            )
            if enabled
        ]
        print(
            f"{info.name:<{name_width}}  {info.kind:<{kind_width}}  "
            f"{', '.join(capabilities) or '-':<22}  "
            f"{info.display_name}: {info.summary}"
        )
        if info.default_params:
            defaults = ", ".join(
                f"{key}={value}" for key, value in sorted(info.default_params.items())
            )
            print(f"{'':<{name_width}}  {'':<{kind_width}}  defaults: {defaults}")
    return 0


def _run_stream(args: argparse.Namespace) -> int:
    from repro.stream import POLICY_NAMES as ALL_POLICIES
    from repro.stream import StreamDriver, Trace, make_policy
    from repro.workloads.generator import WorkloadGenerator
    from repro.workloads.traces import TraceConfig, TraceGenerator

    spec = _engine_spec(args)
    if args.trace is not None:
        # replay instance shape comes from the trace header, so the ops'
        # event/interval indices are valid regardless of -k/--users
        trace = Trace.load(args.trace)
        config = ExperimentConfig(
            k=trace.initial_k,
            n_users=trace.n_users,
            n_events=trace.n_events,
            n_intervals=trace.n_intervals,
            interest_backend=spec.interest_backend,
        )
        if trace.n_users != args.users or trace.initial_k != args.k:
            print(
                f"using the trace's shape (k={trace.initial_k}, "
                f"users={trace.n_users}); -k/--users are for generation",
                file=sys.stderr,
            )
    else:
        config = ExperimentConfig(
            k=args.k,
            n_users=args.users,
            interest_backend=spec.interest_backend,
        )
        trace = TraceGenerator(
            config, TraceConfig(n_ops=args.ops), root_seed=args.seed
        ).generate()
    if args.save_trace:
        trace.save(args.save_trace)
        print(f"trace written to {args.save_trace}", file=sys.stderr)
    print(trace.describe(), file=sys.stderr)

    instance = WorkloadGenerator(root_seed=args.seed).build(config)
    print(instance.describe(), file=sys.stderr)
    policies = args.policy or list(ALL_POLICIES)
    for name in policies:
        params = {}
        if name == "periodic-rebuild":
            params["rebuild_every"] = args.rebuild_every
        elif name == "hybrid" and args.drift_threshold is not None:
            params["drift_threshold"] = args.drift_threshold
        driver = StreamDriver(
            instance,
            policy=make_policy(name, **params),
            engine=spec,
            oracle_every=args.oracle_every,
        )
        print(f"  {driver.run(trace).summary()}")
    return 0


def _run_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import (
        ALL_RULES,
        LintError,
        render_json,
        render_text,
        resolve_rules,
        run_lint,
    )

    if args.list_rules:
        width = max(len(rule.name) for rule in ALL_RULES)
        for rule in ALL_RULES:
            print(f"{rule.name:<{width}}  {rule.rationale}")
        return 0
    try:
        result = run_lint(args.paths, resolve_rules(args.rule))
    except LintError as exc:
        print(f"ses-lint: internal error: {exc}", file=sys.stderr)
        return 2
    if args.output:
        Path(args.output).write_text(render_json(result), encoding="utf-8")
    if args.json:
        print(render_json(result), end="")
    else:
        print(render_text(result), end="")
    return result.exit_code


#: demo line-up: registry name -> extra request params
_DEMO_METHODS: dict[str, dict] = {
    "grd": {},
    "grd-heap": {},
    "top": {},
    "rand": {},
    "sa": {"steps": 500},
}
_DEMO_SEED = 7


def _run_demo(args: argparse.Namespace) -> int:
    from repro.workloads.generator import WorkloadGenerator

    spec = EngineSpec(kind=args.engine)
    config = ExperimentConfig(
        k=20, n_users=500, interest_backend=spec.interest_backend
    )
    session = ScheduleSession(
        WorkloadGenerator(root_seed=7).build(config), default_engine=spec
    )
    print(session.instance.describe())
    requests = [
        SolveRequest(
            k=config.k,
            solver=name,
            seed=_DEMO_SEED if solver_registry.get(name).seeded else None,
            params=params,
        )
        for name, params in _DEMO_METHODS.items()
    ]
    for response in session.solve_many(requests):
        print(" ", response.result.summary())
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
