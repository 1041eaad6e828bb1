"""Command line front end for the zonal kernel laboratory.

Four subcommands (eval, compare, scaling, oracle) share --out and
--config; eval, compare and scaling share --n and --format (csv or json),
and compare and scaling the window flags --window-c, --delta and --grid.
Each shared flag is defined once, in a help-less parent parser.  The
Monte Carlo oracle alone draws random numbers, adds --samples and --seed,
and writes JSON only.  The oracle refuses an n or a degree outside
quadric's validated domain (ORACLE_DIMENSIONS, ORACLE_MAX_DEGREE) before
it builds any basis.  --grid is capped so that a run stays below 1 GB of
memory.  A config file is a flat JSON object whose keys must equal, not
abbreviate, flag names of the chosen subcommand; its values may begin with
"-", and explicit command line flags always win over them.  --config is
found by argparse itself, so an abbreviation such as --conf is honoured and
of two --config flags the last is loaded.
Tables share one CSV schema (n,k,delta,C,theta,exact,asymptotic,abs_err,
rel_err); JSON documents carry schema_version 1 and a config echo of every
parsed flag but --out, --config and --format.  Exit codes: 0 on success, 2
on invalid usage or argument values (an unwritable --out among them), 1 on
unexpected failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import harness, quadric
from .asymptotics import DELTA_MAX, AngleWindow
from .special import ZonalIndex, legendre_normalized, projector_kernel

DEFAULT_SEED = 20250819
DEFAULT_SAMPLES = 1_000_000
# compare peaks at about 179 MB at 2^18 angles, CSV or JSON, both streamed
MAX_GRID = 1 << 18

EVAL_HEADER = ("n", "k", "theta", "legendre", "projector")


def _int_type(minimum: int, maximum: int | None = None):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(
                f"must be <= {maximum} to bound memory below 1 GB, got {value}")
        return value

    return parse


def _float_type(valid, rule: str):
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
        if not valid(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {value!r}")
        return value

    return parse


_positive_float = _float_type(lambda v: v > 0.0, "must be > 0")
_delta_value = _float_type(lambda v: 0.0 <= v < DELTA_MAX, "must lie in [0, 1/6)")
_angle = _float_type(lambda v: 0.0 <= v <= math.pi, "angles must lie in [0, pi]")


def _comma_list(element, noun: str, distinct: bool = False):
    def parse(text: str) -> list:
        parts = [p.strip() for p in text.split(",") if p.strip()]
        if not parts:
            raise argparse.ArgumentTypeError(f"expected a comma separated list of {noun}")
        values = [element(part) for part in parts]
        if distinct and len(set(values)) < len(values):
            raise argparse.ArgumentTypeError(f"{noun} must not repeat, got {text!r}")
        return values

    return parse


class _RaisingParser(argparse.ArgumentParser):
    # argparse exits on an ambiguous option (--=x) even with exit_on_error=False
    def error(self, message):
        raise argparse.ArgumentError(None, message)


# every subcommand's parent, and on its own the pre-parse that finds --config
_IO = _RaisingParser(add_help=False)
_IO.add_argument("--out", default=None, help="write output to this file instead of stdout")
_IO.add_argument("--config", default=None, help="JSON file of flag defaults for this subcommand")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    # flags several subcommands share, each defined once in a help-less parent
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--n", type=_int_type(1), default=2, help="sphere dimension")
    table.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--window-c", dest="window_c", type=_positive_float, default=1.0,
                        help="window margin constant")
    window.add_argument("--delta", type=_delta_value, default=0.0,
                        help="window shrink exponent in [0, 1/6)")
    window.add_argument("--grid", type=_int_type(1, MAX_GRID), default=512,
                        help="angles per window")

    parser = argparse.ArgumentParser(
        prog="zonal",
        description="zonal kernel values, asymptotic comparisons, and geometric oracles",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("eval", parents=[table, _IO],
                          help="pointwise zonal and projector kernel values")
    sub.add_argument("--k", type=_int_type(0), required=True, help="degree")
    sub.add_argument("--theta", type=_comma_list(_angle, "angles"), default=[0.5, 1.0, 1.5],
                     help="comma separated angles in [0, pi]")
    sub.set_defaults(func=_cmd_eval)

    sub = subs.add_parser("compare", parents=[table, window, _IO],
                          help="exact versus leading form over an angle window")
    sub.add_argument("--k", type=_int_type(1), default=256, help="degree")
    sub.set_defaults(func=_cmd_compare)

    sub = subs.add_parser("scaling", parents=[table, window, _IO],
                          help="log-log fit of bracket error against degree")
    sub.add_argument("--k-min", dest="k_min", type=_int_type(1), default=64,
                     help="first degree of the doubling grid")
    sub.add_argument("--k-max", dest="k_max", type=_int_type(1), default=4096,
                     help="last degree of the doubling grid")
    sub.set_defaults(func=_cmd_scaling)

    sub = subs.add_parser("oracle", parents=[_IO], help="Monte Carlo geometric oracle report (json)")
    sub.add_argument("--n", type=_int_type(2), default=2,
                     help=f"sphere dimension in {quadric.ORACLE_DIMENSIONS}")
    sub.add_argument("--ks", type=_comma_list(_int_type(1), "degrees", distinct=True),
                     default=[2, 4, 8],
                     help=f"comma separated degrees, at most {quadric.ORACLE_MAX_DEGREE}")
    sub.add_argument("--pairs", type=_int_type(1), default=8, help="random sphere pairs per degree")
    sub.add_argument("--samples", type=_int_type(1), default=DEFAULT_SAMPLES,
                     help="Monte Carlo sample count of the basis build")
    sub.add_argument("--seed", type=_int_type(0), default=DEFAULT_SEED,
                     help="master seed for the basis, pair and probe substreams")
    sub.set_defaults(func=_cmd_oracle)

    return parser, dict(subs.choices)


def _config_argv(command: str, path: str, sub: argparse.ArgumentParser) -> list[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"--config: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("--config: document must be a JSON object of flag values")
    out = []
    for key, value in doc.items():
        flag = "--" + str(key).lstrip("-").replace("_", "-")
        if flag == "--config":
            raise ValueError("--config: key 'config' cannot be set from a config file")
        # the exact option strings argparse holds, so no abbreviation matches
        if flag == "--help" or flag not in sub._option_string_actions:
            raise ValueError(f"--config: unknown key {key!r} for subcommand {command!r}")
        items = value if isinstance(value, list) else [value]
        if not all(isinstance(v, (str, int, float)) and not isinstance(v, bool) for v in items):
            raise ValueError(f"--config: key {key!r} must be a number, a string or a list of them, "
                             f"got {json.dumps(value)}")
        # one token, so a value that begins with "-" is not read as a flag
        out.append(f"{flag}={','.join(str(v) for v in items)}")
    return out


def _emit(args, kind: str, payload: dict, rows=(), header=harness.CSV_HEADER, **echo) -> None:
    """Write rows as CSV or the payload as JSON, to the --out file or stdout.

    The JSON config echo is every parsed flag but --out, --config and
    --format, --window-c as C, updated with ``echo``.
    """
    if getattr(args, "format", "json") == "csv":
        write = lambda fh: harness.write_csv(rows, fh, header=header)
    else:
        config = {("C" if key == "window_c" else key): value for key, value in vars(args).items()
                  if key not in ("out", "config", "format", "func", "command")}
        write = lambda fh: harness.json_summary(kind, {**config, **echo}, payload, fh)
    if not args.out:
        return write(sys.stdout)
    try:
        fh = open(args.out, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ValueError(f"--out: {exc}") from None
    with fh:
        write(fh)


def _cmd_eval(args) -> int:
    idx = ZonalIndex(n=args.n, k=args.k)
    thetas = np.asarray(args.theta, dtype=float)
    legendre = legendre_normalized(idx, np.cos(thetas))
    projector = projector_kernel(idx, np.cos(thetas))
    rows = [{"n": args.n, "k": args.k, "theta": float(t), "legendre": float(p), "projector": float(q)}
            for t, p, q in zip(thetas, legendre, projector)]
    _emit(args, "eval", {"rows": rows}, rows, EVAL_HEADER)
    return 0


def _cmd_compare(args) -> int:
    idx = ZonalIndex(n=args.n, k=args.k)
    window = AngleWindow(c=args.window_c, delta=args.delta)
    rows = harness.compare_rows(idx, window, args.grid)
    _emit(args, "compare", {"rows": rows}, rows)
    return 0


def _cmd_scaling(args) -> int:
    if args.k_max < args.k_min:
        raise ValueError("--k-max: must be >= --k-min")
    ks = []
    k = args.k_min
    while k <= args.k_max:
        ks.append(k)
        k *= 2
    window = AngleWindow(c=args.window_c, delta=args.delta)
    fit = harness.fit_error_scaling(args.n, ks, window, args.grid)
    _emit(args, "scaling", fit.as_dict(), fit.worst_rows, ks=ks)
    return 0


def _cmd_oracle(args) -> int:
    quadric.require_oracle_domain("oracle", args.n, args.ks)
    bases = quadric.build_cone_basis(args.n, args.ks, args.samples, args.seed)
    payload = harness.geometric_oracle(bases, pairs=args.pairs, seed=args.seed)
    _emit(args, "oracle", payload, ks=sorted(args.ks))
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, commands = build_parser()
    try:
        if argv and argv[0] in commands:
            try:
                config_path = _IO.parse_known_args(argv[1:])[0].config
            except argparse.ArgumentError:  # the full parse below reports it
                config_path = None
            if config_path is not None:
                argv = [argv[0]] + _config_argv(argv[0], config_path, commands[argv[0]]) + argv[1:]
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code) if exc.code else 0
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"unexpected error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
