"""Command-line surface: simulate, steady-state, figure, fmt-sweep, cobweb.

Exit codes: 0 success, 2 configuration error, 3 solver failure, 4 a property
sweep found a counterexample. A configuration error is a file that cannot be
read or written (a config that is missing, a directory or not UTF-8, or an
--out that is a file), or an input outside a bound, named once at each
boundary: its owner raises OutOfRange naming its field, a growth condition
or a float fault in a solver is OutOfRange("params"), and
``errors.named_by`` renames the field, to the scenario key in the scenario
module and to the option here. The output directory defaults to ./out and
can be overridden by --out or the INEQ_LAB_OUT environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import (
    IneqLabError,
    OutOfRange,
    ParseError,
    WrongRegime,
    named_by,
)
from .figures import FIGURE_NAMES, figure
from .olg import cobweb_data
from .scenario import (
    RunArtifacts,
    ScenarioConfig,
    atomic_write,
    csv_text,
    format_float,
    parse_scenario,
    render_scenario,
    run_scenario,
    steady_state_for,
)
from .svgplot import line_chart
from .value_theory import fmt_sweep

_CONFIG_ERRORS = (ParseError, OutOfRange, WrongRegime)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_COUNTEREXAMPLE = 4


def _default_out(value: str | None) -> Path:
    if value:
        return Path(value)
    return Path(os.environ.get("INEQ_LAB_OUT", "out"))


def _load_config(path: str) -> ScenarioConfig:
    return parse_scenario(Path(path).read_text(encoding="utf-8"))


def _apply_overrides(config: ScenarioConfig, tol: float | None,
                     max_steps: int | None) -> ScenarioConfig:
    """``config`` with --tol and --max-steps in place of its horizon keys.

    The overridden text is parsed again, so the values meet the same checks
    as in a scenario file; a violated one is an OutOfRange naming the
    option. Only the keys of the options given are named by an option.
    """
    keys = (("horizon.stop_tol", "horizon.max_generations") if config.regime.is_olg
            else ("horizon.terminal_band", "horizon.max_iterations"))
    options = {key: (option, value) for key, option, value
               in zip(keys, ("--tol", "--max-steps"), (tol, max_steps))
               if value is not None}
    if not options:
        return config
    lines = render_scenario(config).splitlines()
    for i, line in enumerate(lines):
        key = line.partition(" = ")[0]
        if key in options:
            lines[i] = f"{key} = {json.dumps(options[key][1])}"
    with named_by({key: option for key, (option, _) in options.items()}):
        return parse_scenario("\n".join(lines))


def _cmd_simulate(args) -> int:
    config = _apply_overrides(_load_config(args.config), args.tol, args.max_steps)
    artifacts: RunArtifacts = run_scenario(config, _default_out(args.out),
                                           fmt=args.format)
    if "summary" in config.outputs:
        print(artifacts.summary, end="")
    for path in (artifacts.trajectory_csv, artifacts.metrics_csv, artifacts.svg):
        if path is not None:
            print(f"wrote {path}")
    return EXIT_OK


def _cmd_steady_state(args) -> int:
    config = _load_config(args.config)
    steady = steady_state_for(config)
    print(f"case {config.regime.case_label()}")
    if steady.holding_star is not None:
        print(f"holding* = {format_float(steady.holding_star)}")
        if steady.consumption_star is not None:
            print(f"consumption* = {format_float(steady.consumption_star)}")
    else:
        print("holding* = n/a (balanced growth ray)")
    print(f"r* = {format_float(steady.interest_star)}")
    print(f"g* = {format_float(steady.growth_star)}")
    print(f"r* - g* = {format_float(steady.interest_star - steady.growth_star)}")
    return EXIT_OK


def _cmd_figure(args) -> int:
    paths = figure(args.name, _default_out(args.out), fmt=args.format or "both")
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_fmt_sweep(args) -> int:
    with named_by({"trials": "--trials", "n": "--size", "seed": "--seed"}):
        report = fmt_sweep(args.trials, args.size, args.seed)
    print(report.text())
    return EXIT_OK if report.clean else EXIT_COUNTEREXAMPLE


def _cmd_cobweb(args) -> int:
    config = _load_config(args.config)
    if config.regime.is_endogenous or not config.regime.is_olg:
        raise WrongRegime("cobweb diagrams exist for the fixed-technology OLG map only")
    b_star = steady_state_for(config).holding_star
    start = min(config.initial_distribution)
    b_min = args.min if args.min is not None else min(0.05 * b_star, 0.5 * start)
    b_max = args.max if args.max is not None else 2.5 * max(b_star,
                                                            *config.initial_distribution)
    # the default b_min is finite and positive, so it is named only by a
    # range out of order, and that is the given --max's fault
    with named_by({"b_min": "--min" if args.min is not None else "--max",
                   "b_max": "--max", "n_points": "--points"}):
        data = cobweb_data(config.params, b_min, b_max, args.points)
    out = _default_out(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{config.name}_cobweb.csv"
    if args.format in (None, "csv", "both"):
        atomic_write(csv_path, csv_text(
            ["b", "next_b", "diagonal"],
            ([format_float(b), format_float(m), format_float(b)]
             for b, m in zip(data.levels, data.mapped)),
        ))
        print(f"wrote {csv_path}")
    if args.format in ("svg", "both"):
        svg_path = out / f"{config.name}_cobweb.svg"
        atomic_write(svg_path, line_chart(
            [("map", data.levels, data.mapped),
             ("diagonal", data.levels, data.levels)],
            title=f"{config.name}: bequest map",
            xlabel="b(t)", ylabel="b(t+1)",
        ))
        print(f"wrote {svg_path}")
    print(f"steady state b* = {format_float(data.b_star)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ineqlab",
        description="growth-and-inequality benchmark economies: simulate, "
                    "reproduce figures, check value-theory theorems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, bare_format):
        p.add_argument("--out", default=None, help="output directory "
                       "(default: $INEQ_LAB_OUT or ./out)")
        p.add_argument("--format", choices=("csv", "svg", "both"), default=None,
                       help=f"file formats to write (default: {bare_format})")

    p_sim = sub.add_parser("simulate", help="run a scenario config file")
    p_sim.add_argument("config")
    add_common(p_sim, "both, of the outputs the scenario lists")
    p_sim.add_argument("--tol", type=float, default=None,
                       help="override stop tolerance / terminal band")
    p_sim.add_argument("--max-steps", type=int, default=None,
                       help="override max generations / solver iterations")
    p_sim.set_defaults(func=_cmd_simulate)

    p_ss = sub.add_parser("steady-state", help="print the long-run target")
    p_ss.add_argument("config")
    p_ss.set_defaults(func=_cmd_steady_state)

    p_fig = sub.add_parser("figure", help="reproduce a named figure")
    p_fig.add_argument("name", choices=FIGURE_NAMES)
    add_common(p_fig, "both")
    p_fig.set_defaults(func=_cmd_figure)

    p_sweep = sub.add_parser("fmt-sweep",
                             help="randomized exploitation-theorem check")
    p_sweep.add_argument("--trials", type=int, required=True)
    p_sweep.add_argument("--size", type=int, required=True, help="commodities n")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.set_defaults(func=_cmd_fmt_sweep)

    p_cob = sub.add_parser("cobweb", help="emit the bequest-map cobweb data")
    p_cob.add_argument("config")
    add_common(p_cob, "csv only")
    p_cob.add_argument("--min", type=float, default=None,
                       help="least bequest level (default: the smaller of "
                            "0.05 b* and half the least holding)")
    p_cob.add_argument("--max", type=float, default=None,
                       help="largest bequest level (default: 2.5 times the "
                            "largest of b* and the holdings)")
    p_cob.add_argument("--points", type=int, default=200,
                       help="levels on the grid (default: %(default)s)")
    p_cob.set_defaults(func=_cmd_cobweb)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IneqLabError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (OSError, UnicodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
