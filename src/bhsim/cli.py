"""Command line interface.

Subcommands: ``simulate`` (one run), ``sweep`` (seed range), ``path``
(dump search paths), ``partition`` (dump Voronoi cells).  Exit codes:
0 success, 1 configuration error, 2 invariant violation or numerical
failure (or, for ``sweep``, any run that ended in an error row), 3 I/O
error.  ``simulate`` prints one summary line; a run's full account is
its event log (``--out``).
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .fleet import DuplicateGenerators
from .mission import DegenerateCell, PathTooDense
from .scenario import (
    ParseError,
    Scenario,
    ValidationError,
    _parse_int,
    default_scenario,
    load_scenario,
)
from .sim import CSV_HEADER, InvariantViolation, plan_cells, run_simulation, sweep
from .tracking import NumericalFailure
from .world import PackingInfeasible

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2
EXIT_IO = 3

CONFIG_ERRORS = (
    ParseError,
    ValidationError,
    PackingInfeasible,
    DegenerateCell,
    DuplicateGenerators,
    PathTooDense,
)


class _ArgumentParser(argparse.ArgumentParser):
    """Reports usage errors with the configuration exit code, not 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _load(args: argparse.Namespace) -> Scenario:
    scenario = load_scenario(args.scenario) if args.scenario else default_scenario()
    if getattr(args, "seed", None) is not None:
        scenario = replace(scenario, seed=args.seed)
    return scenario


def integer(text: str) -> int:
    """A flag's integer, as a scenario's: an optional sign, then ASCII digits."""
    return _parse_int(text)


def _parse_seed_range(text: str) -> list[int]:
    """Seeds ``A..B`` (both ends included, ``A <= B``) or one seed ``A``."""
    lo, sep, hi = text.partition("..")
    try:
        seeds = list(range(_parse_int(lo), _parse_int(hi) + 1)) if sep else [_parse_int(text)]
    except ValueError:
        seeds = []
    if not seeds:
        raise ValidationError(
            "--seeds", f"{text!r} is neither a seed nor a range A..B with A <= B"
        )
    return seeds


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _load(args)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        # no metrics of an earlier run beside this run's log, which the
        # run streams (a failed run's ends in ``error``)
        (out / "metrics.csv").unlink(missing_ok=True)
        m = run_simulation(scenario, out / "events.jsonl").metrics
        (out / "metrics.csv").write_text(
            CSV_HEADER + "\n" + m.csv_row() + "\n", encoding="utf-8"
        )
    else:
        m = run_simulation(scenario).metrics
    print(
        f"seed={m.seed} popped={m.balloons_popped}/{m.balloons_total} "
        f"time={m.pops_total_time if m.pops_total_time is not None else '-'} "
        f"geofence_violations={m.geofence_violations}"
    )
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ValidationError("--jobs", f"{args.jobs} is below 1")
    scenario = _load(args)
    seeds = _parse_seed_range(args.seeds)
    # A scenario that cannot be planned fails every seed the same way:
    # report it once as a configuration error instead of as error rows.
    plan_cells(scenario, range(scenario.agents.count))
    if args.out:
        # no metrics or per-seed logs of an earlier sweep beside this
        # sweep's logs
        Path(args.out, "metrics.csv").unlink(missing_ok=True)
        for log in Path(args.out).glob("events_seed*.jsonl"):
            log.unlink()
    result = sweep(scenario, seeds, jobs=args.jobs, out_dir=args.out)
    if args.out:
        Path(args.out, "metrics.csv").write_text(
            "\n".join(result.csv_lines()) + "\n", encoding="utf-8"
        )
    for line in result.csv_lines():
        print(line)
    for key, value in sorted(result.aggregate.items()):
        print(f"# {key} = {value:.6g}")
    failed = [m.seed for m in result.rows if m.error is not None]
    if failed:
        print(f"sweep: {len(failed)} run(s) failed: seeds {failed}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_path(args: argparse.Namespace) -> int:
    scenario = _load(args)
    _, paths = plan_cells(scenario, range(scenario.agents.count))
    mp = scenario.mission
    lines = []
    for agent_id in sorted(paths):
        path = paths[agent_id]
        lines.append(
            f"path agent={agent_id} altitude={mp.search_altitude} "
            f"spacing={mp.lane_spacing} waypoints={len(path)}"
        )
        for wp in path:
            lines.append(f"{wp[0]:.3f} {wp[1]:.3f} {wp[2]:.3f}")
        lines.append("")
    _write_or_print(args.out, lines)
    return EXIT_OK


def _cmd_partition(args: argparse.Namespace) -> int:
    scenario = _load(args)
    cells, _ = plan_cells(scenario, range(scenario.agents.count))
    lines = []
    for cell in sorted(cells, key=lambda c: c.agent_id):
        gx, gy = cell.generator
        lines.append(
            f"cell agent={cell.agent_id} generator={gx:.3f},{gy:.3f} "
            f"vertices={len(cell.polygon)}"
        )
        for vx, vy in cell.polygon:
            lines.append(f"{vx:.6f} {vy:.6f}")
        lines.append("")
    _write_or_print(args.out, lines)
    return EXIT_OK


def _write_or_print(out: str | None, lines: list[str]) -> None:
    text = "\n".join(lines).rstrip("\n") + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="bhsim", description="Multi-UAV balloon interception simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim_p = sub.add_parser("simulate", help="run one scenario")
    sim_p.add_argument("--scenario", help="scenario file (defaults when omitted)")
    sim_p.add_argument("--seed", type=integer, help="override the scenario seed")
    sim_p.add_argument("--out", help="directory for events.jsonl and metrics.csv")
    sim_p.set_defaults(func=_cmd_simulate)

    sweep_p = sub.add_parser("sweep", help="run a seed range")
    sweep_p.add_argument("--scenario", help="scenario file (defaults when omitted)")
    sweep_p.add_argument("--seeds", required=True, help="range A..B or single seed")
    sweep_p.add_argument("--jobs", type=integer, default=1, help="parallel runs")
    sweep_p.add_argument("--out", help="directory for per-seed logs and metrics.csv")
    sweep_p.set_defaults(func=_cmd_sweep)

    path_p = sub.add_parser("path", help="dump search paths")
    path_p.add_argument("--scenario", help="scenario file (defaults when omitted)")
    path_p.add_argument("--out", help="output file (stdout when omitted)")
    path_p.set_defaults(func=_cmd_path)

    part_p = sub.add_parser("partition", help="dump Voronoi cells")
    part_p.add_argument("--scenario", help="scenario file (defaults when omitted)")
    part_p.add_argument("--out", help="output file (stdout when omitted)")
    part_p.set_defaults(func=_cmd_partition)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
