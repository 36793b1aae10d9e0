"""Command-line experiment driver.

Subcommands: example, montecarlo, sweep-gamma, interrupt, scalability, bound,
show-config. Configuration comes from built-in defaults, then an optional
key = value config file (--config), then command-line overrides; show-config
prints the effective merged configuration in the same format the file uses.

Exit codes: 0 success, 1 validation error, 2 completed but at least one trial
hit the step cap or the state-history cap.
"""

from __future__ import annotations

import argparse
import sys
import typing
from fractions import Fraction
from pathlib import Path

from .board import exact
from .errors import TacoError
from .example import ExampleRun, run_example
from .experiments import (
    ExperimentConfig,
    run_interrupt,
    run_montecarlo,
    run_scalability,
    run_sweep_gamma,
)
from .metrics import bound_report
from .report import SCHEMA_VERSION, RunResult, config_lines

# Per-subcommand default overrides, applied below config file and flags.
# The scalability grid keeps the coarse unit d0=1 with Uniform(0,1) costs;
# the waypoint commands inherit the negotiation-scale default from
# ExperimentConfig.
_COMMAND_DEFAULTS: dict[str, dict] = {
    "interrupt": {"mechanisms": ("taco",)},
    "scalability": {
        "scenario": "random",
        "trials": 100,
        "epsilon": 0.1,
        "d0": Fraction(1),
    },
}


def _names(raw: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


# Each configuration key's parser, chosen by its annotation in ExperimentConfig;
# an empty value or "none" is None.
_PARSE_AS = {int: int, float: float, str: str, Fraction: exact, tuple[str, ...]: _names,
             float | None: lambda raw: None if raw.strip().lower() in ("", "none") else float(raw)}
_CONFIG_PARSERS = {key: _PARSE_AS[hint]
                   for key, hint in typing.get_type_hints(ExperimentConfig).items()}


def _parsed(source: str, convert, raw):
    """convert(raw), a value that does not convert reported with its source."""
    try:
        return convert(raw)
    except (ValueError, TypeError) as e:
        raise ValueError(f"{source}: {e}") from None


def load_config_file(path: str | Path) -> dict:
    """Parse a key = value config file into typed values; # starts a comment."""
    data: dict = {}
    for lineno, raw_line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw_line!r}")
        key, val = line.split("=", 1)
        key = key.strip()
        if key not in _CONFIG_PARSERS:
            raise ValueError(f"{path}:{lineno}: unknown configuration key {key!r}")
        data[key] = _parsed(f"{path}:{lineno}: {key}", _CONFIG_PARSERS[key], val.strip())
    return data


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    values: dict = dict(_COMMAND_DEFAULTS.get(args.command, {}))
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    for key, parse in _CONFIG_PARSERS.items():
        raw = getattr(args, key, None)
        if raw is not None:
            values[key] = _parsed(_flag(key), parse, raw)
    return ExperimentConfig(**values)


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _arg(args: argparse.Namespace, key: str, convert):
    """A subcommand's own flag value, converted."""
    return _parsed(_flag(key), convert, getattr(args, key))


def _list_arg(args: argparse.Namespace, key: str, convert) -> list:
    """A comma-separated flag value, each item converted; empty items are skipped."""
    return _arg(args, key, lambda raw: [convert(tok) for tok in _names(raw)])


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="FILE", help="key = value configuration file")
    for key in _CONFIG_PARSERS:
        sub.add_argument(_flag(key), dest=key, metavar="VALUE", default=None,
                         help=f"override {key}")


def _fmt_fraction_matrix(mat) -> str:
    return "[" + ",".join("[" + ",".join(str(v) for v in row) + "]" for row in mat) + "]"


def _fmt_float_matrix(mat) -> str:
    return "[" + ",".join("[" + ",".join(f"{v:.6g}" for v in row) + "]" for row in mat) + "]"


def _print_example(run: ExampleRun) -> None:
    # Displayed agent/option numbers are 1-based; CSV files stay 0-based.
    print("worked two-agent example (agents and options numbered from 1)")
    print("step  agent  offers            pays              profits                 selections")
    for snap in run.steps:
        sels = ",".join("-" if s is None else str(s + 1) for s in snap.selections)
        print(
            f"{snap.step:>4}  {snap.agent + 1:>5}  "
            f"{_fmt_fraction_matrix(snap.offers):<16}  "
            f"{_fmt_fraction_matrix(snap.pays):<16}  "
            f"{_fmt_float_matrix(snap.profits):<22}  ({sels})"
        )
    for start, end in run.detected_spans:
        print(f"cycle detected: steps {start}..{end}")
    out = run.outcome
    settle_str = ",".join(str(s) for s in out.settlements)
    print(
        f"terminated at step {out.steps}: consensus option {out.consensus_choice + 1}, "
        f"settlements [{settle_str}], final d {out.final_d}"
    )


def _write_example_files(run: ExampleRun, out_dir: Path) -> None:
    import csv as _csv

    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "example_trace.csv", "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(
            ["step", "agent", "selection", "offers", "pays", "profits", "selections"]
        )
        for snap in run.steps:
            sels = " ".join("-" if s is None else str(s) for s in snap.selections)
            writer.writerow([
                snap.step, snap.agent, snap.selections[snap.agent],
                _fmt_fraction_matrix(snap.offers), _fmt_fraction_matrix(snap.pays),
                _fmt_float_matrix(snap.profits), sels,
            ])
    out = run.outcome
    lines = [
        f"csv_schema_version = {SCHEMA_VERSION}",
        "command = example",
        f"steps = {out.steps}",
        f"rounds = {out.rounds}",
        f"cycles_detected = {out.cycles_detected}",
        f"consensus_choice = {out.consensus_choice}",
        f"settlements = {','.join(str(s) for s in out.settlements)}",
        f"final_d = {out.final_d}",
        f"terminated_naturally = {out.terminated_naturally}",
    ]
    (out_dir / "example_summary.txt").write_text("\n".join(lines) + "\n")


def _finish_run(res: RunResult) -> int:
    print(res.summary_text, end="")
    if res.csv_path is not None:
        print(f"per-trial rows: {res.csv_path}")
    if res.summary_path is not None:
        print(f"summary: {res.summary_path}")
    if res.failures:
        print(
            f"warning: {res.failures} trial(s) hit the step cap or the state-history cap",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_example(args: argparse.Namespace) -> int:
    run = run_example(
        epsilon=_arg(args, "epsilon", float), d0=_arg(args, "d0", exact),
        gamma=_arg(args, "gamma", exact),
    )
    _print_example(run)
    if args.out:
        _write_example_files(run, Path(args.out))
    return 0


def _out_dir(cfg: ExperimentConfig) -> Path | None:
    # An empty out_dir disables files, matching the example command's --out ''.
    return Path(cfg.out_dir) if cfg.out_dir else None


def _cmd_montecarlo(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    return _finish_run(run_montecarlo(cfg, _out_dir(cfg)))


def _cmd_sweep_gamma(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    gammas = _list_arg(args, "gammas", exact)
    return _finish_run(run_sweep_gamma(cfg, gammas, _out_dir(cfg)))


def _cmd_interrupt(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    steps = _list_arg(args, "steps", lambda tok: 0 if tok.lower() == "natural" else int(tok))
    return _finish_run(run_interrupt(cfg, steps, _out_dir(cfg)))


def _cmd_scalability(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    n_list = _list_arg(args, "n_list", int)
    m_list = _list_arg(args, "m_list", int)
    return _finish_run(run_scalability(cfg, n_list, m_list, _out_dir(cfg)))


def _cmd_bound(args: argparse.Namespace) -> int:
    keys = (("n", int), ("m", int), ("gamma", exact), ("epsilon", float), ("d0", exact),
            ("b_max", float))
    print(bound_report(*(_arg(args, key, convert) for key, convert in keys)), end="")
    return 0


def _cmd_show_config(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    for line in config_lines(cfg):
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tacosim",
        description="Trading-auction consensus simulation workbench",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("example", help="run and print the worked two-agent trace")
    p.add_argument("--epsilon", default="1e-6", help="termination tolerance")
    p.add_argument("--gamma", default="9/10", help="trading-unit decay factor (rational)")
    p.add_argument("--d0", default="1", help="initial trading unit (rational)")
    p.add_argument("--out", default="results/example", help="output directory (or omit files with --out '')")
    p.set_defaults(func=_cmd_example)

    p = subs.add_parser("montecarlo", help="mechanism comparison over seeded trials")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_montecarlo)

    p = subs.add_parser("sweep-gamma", help="Monte Carlo per decay factor, paired instances")
    _add_config_flags(p)
    p.add_argument("--gammas", default="3/10,6/10,9/10,99/100", help="comma-separated rationals")
    p.set_defaults(func=_cmd_sweep_gamma)

    p = subs.add_parser("interrupt", help="forced-interruption sweep, paired instances")
    _add_config_flags(p)
    p.add_argument(
        "--steps",
        default="natural,50,20,5",
        help="comma-separated interruption steps; 'natural' or 0 = run to termination",
    )
    p.set_defaults(func=_cmd_interrupt)

    p = subs.add_parser("scalability", help="grid over agent and choice counts")
    _add_config_flags(p)
    p.add_argument("--n-list", default="3,5,7,10", help="comma-separated agent counts")
    p.add_argument("--m-list", default="3,10,30,100", help="comma-separated choice counts")
    p.set_defaults(func=_cmd_scalability)

    p = subs.add_parser("bound", help="print the analytic worst-case step bound")
    for flag, default in (("--n", "2"), ("--m", "2"), ("--gamma", "9/10"), ("--epsilon", "0.1"),
                          ("--d0", "1"), ("--b-max", "1.2")):
        p.add_argument(flag, default=default)
    p.set_defaults(func=_cmd_bound)

    p = subs.add_parser("show-config", help="print the effective configuration")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_show_config)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args)
    except (ValueError, TypeError, TacoError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
