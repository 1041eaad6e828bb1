"""Command line front end for the zonal kernel laboratory.

Four subcommands (eval, compare, scaling, oracle) share --out and
--config; eval, compare and scaling add --format (csv or json), and the
Monte Carlo oracle alone draws random numbers, adds --samples and --seed,
and writes JSON only.  The oracle refuses an n or a degree outside
quadric's validated domain (ORACLE_DIMENSIONS, ORACLE_MAX_DEGREE) before
it builds any basis.  --grid is capped so that a run stays below 1 GB of
memory.  A config file is a flat JSON object whose keys are flag names of
the chosen subcommand; explicit command line flags always win over config
values.
Tables share one CSV schema (n,k,delta,C,theta,exact,asymptotic,abs_err,
rel_err); JSON documents carry schema_version 1.  Exit codes: 0 on
success, 2 on invalid usage or argument values, 1 on unexpected failure.
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


class CliError(Exception):
    """Usage error detected after parsing; the message names the flag."""


def _int_type(minimum: int, label: str, maximum: int | None = None):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{label} must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(
                f"{label} must be <= {maximum} to bound memory below 1 GB, got {value}"
            )
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


def _theta_list(text: str) -> list[float]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("expected a comma separated list of angles")
    return [_angle(part) for part in parts]


def _degree_list(minimum: int):
    element = _int_type(minimum, "every degree")

    def parse(text: str) -> list[int]:
        parts = [p.strip() for p in text.split(",") if p.strip()]
        if not parts:
            raise argparse.ArgumentTypeError("expected a comma separated list of degrees")
        degrees = [element(part) for part in parts]
        if len(set(degrees)) < len(degrees):
            raise argparse.ArgumentTypeError(f"every degree must appear once, got {text!r}")
        return degrees

    return parse


def _add(sub, registry: set, *names: str, **kwargs) -> None:
    sub.add_argument(*names, **kwargs)
    registry.update(names)


def _add_common(sub, registry: set) -> None:
    _add(sub, registry, "--out", default=None, help="write output to this file instead of stdout")
    _add(sub, registry, "--config", default=None,
         help="JSON file of flag defaults for this subcommand")


def _add_window(sub, registry: set) -> None:
    _add(sub, registry, "--window-c", dest="window_c", type=_positive_float, default=1.0,
         help="window margin constant")
    _add(sub, registry, "--delta", type=_delta_value, default=0.0,
         help="window shrink exponent in [0, 1/6)")


def _add_grid(sub, registry: set) -> None:
    _add(sub, registry, "--grid", type=_int_type(1, "--grid", MAX_GRID), default=512,
         help="angles per window")


def _add_format(sub, registry: set) -> None:
    _add(sub, registry, "--format", choices=("csv", "json"), default="csv",
         help="output format")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, set]]:
    parser = argparse.ArgumentParser(
        prog="zonal",
        description="zonal kernel values, asymptotic comparisons, and geometric oracles",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    flags: dict[str, set] = {}

    sub = subs.add_parser("eval", help="pointwise zonal and projector kernel values")
    reg = flags["eval"] = set()
    _add(sub, reg, "--n", type=_int_type(1, "--n"), default=2, help="sphere dimension")
    _add(sub, reg, "--k", type=_int_type(0, "--k"), required=True, help="degree")
    _add(sub, reg, "--theta", type=_theta_list, default=[0.5, 1.0, 1.5],
         help="comma separated angles in [0, pi]")
    _add_format(sub, reg)
    _add_common(sub, reg)
    sub.set_defaults(func=_cmd_eval)

    sub = subs.add_parser("compare", help="exact versus leading form over an angle window")
    reg = flags["compare"] = set()
    _add(sub, reg, "--n", type=_int_type(1, "--n"), default=2, help="sphere dimension")
    _add(sub, reg, "--k", type=_int_type(1, "--k"), default=256, help="degree")
    _add_window(sub, reg)
    _add_grid(sub, reg)
    _add_format(sub, reg)
    _add_common(sub, reg)
    sub.set_defaults(func=_cmd_compare)

    sub = subs.add_parser("scaling", help="log-log fit of bracket error against degree")
    reg = flags["scaling"] = set()
    _add(sub, reg, "--n", type=_int_type(1, "--n"), default=2, help="sphere dimension")
    _add(sub, reg, "--k-min", dest="k_min", type=_int_type(1, "--k-min"), default=64,
         help="first degree of the doubling grid")
    _add(sub, reg, "--k-max", dest="k_max", type=_int_type(1, "--k-max"), default=4096,
         help="last degree of the doubling grid")
    _add_window(sub, reg)
    _add_grid(sub, reg)
    _add_format(sub, reg)
    _add_common(sub, reg)
    sub.set_defaults(func=_cmd_scaling)

    sub = subs.add_parser("oracle", help="Monte Carlo geometric oracle report (json)")
    reg = flags["oracle"] = set()
    _add(sub, reg, "--n", type=_int_type(2, "--n"), default=2, help=f"sphere dimension in {quadric.ORACLE_DIMENSIONS}")
    _add(sub, reg, "--ks", type=_degree_list(1), default=[2, 4, 8],
         help=f"comma separated degrees, at most {quadric.ORACLE_MAX_DEGREE}")
    _add(sub, reg, "--pairs", type=_int_type(1, "--pairs"), default=8,
         help="random sphere pairs per degree")
    _add(sub, reg, "--samples", type=_int_type(1, "--samples"), default=DEFAULT_SAMPLES,
         help="Monte Carlo sample count of the basis build")
    _add(sub, reg, "--seed", type=_int_type(0, "--seed"), default=DEFAULT_SEED,
         help="master seed for the basis, pair and probe substreams")
    _add_common(sub, reg)
    sub.set_defaults(func=_cmd_oracle)

    return parser, flags


def _find_config(argv: list[str]) -> str | None:
    for i, token in enumerate(argv):
        if token == "--config":
            return argv[i + 1] if i + 1 < len(argv) else None
        if token.startswith("--config="):
            return token.split("=", 1)[1]
    return None


def _config_argv(command: str, path: str, registry: set) -> list[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"--config: {exc}") from None
    if not isinstance(doc, dict):
        raise CliError("--config: document must be a JSON object of flag values")
    out = []
    for key, value in doc.items():
        flag = "--" + str(key).lstrip("-").replace("_", "-")
        if flag == "--config":
            raise CliError("--config: key 'config' cannot be set from a config file")
        if flag not in registry:
            raise CliError(f"--config: unknown key {key!r} for subcommand {command!r}")
        items = value if isinstance(value, list) else [value]
        if not all(isinstance(v, (str, int, float)) and not isinstance(v, bool) for v in items):
            raise CliError(f"--config: key {key!r} must be a number, a string or a list of them, "
                           f"got {json.dumps(value)}")
        out.extend([flag, ",".join(str(v) for v in items)])
    return out


def _emit(args, write) -> None:
    """Call write(stream) on the --out file, or on stdout without one."""
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write(fh)
    else:
        write(sys.stdout)


def _cmd_eval(args) -> int:
    idx = ZonalIndex(n=args.n, k=args.k)
    thetas = np.asarray(args.theta, dtype=float)
    legendre = np.atleast_1d(legendre_normalized(idx, np.cos(thetas)))
    projector = np.atleast_1d(projector_kernel(idx, np.cos(thetas)))
    rows = [
        {
            "n": args.n,
            "k": args.k,
            "theta": float(t),
            "legendre": float(legendre[i]),
            "projector": float(projector[i]),
        }
        for i, t in enumerate(thetas)
    ]
    if args.format == "csv":
        _emit(args, lambda fh: harness.write_csv(rows, fh, header=EVAL_HEADER))
    else:
        config = {"n": args.n, "k": args.k, "theta": [float(t) for t in thetas]}
        _emit(args, lambda fh: harness.json_summary("eval", config, {"rows": rows}, fh))
    return 0


def _cmd_compare(args) -> int:
    idx = ZonalIndex(n=args.n, k=args.k)
    window = AngleWindow(c=args.window_c, delta=args.delta)
    rows = harness.compare_rows(idx, window, args.grid)
    if args.format == "csv":
        _emit(args, lambda fh: harness.write_csv(rows, fh))
    else:
        config = {
            "n": args.n,
            "k": args.k,
            "C": args.window_c,
            "delta": args.delta,
            "grid": args.grid,
        }
        _emit(args, lambda fh: harness.json_summary("compare", config, {"rows": rows}, fh))
    return 0


def _cmd_scaling(args) -> int:
    if args.k_max < args.k_min:
        raise CliError("--k-max: must be >= --k-min")
    ks = []
    k = args.k_min
    while k <= args.k_max:
        ks.append(k)
        k *= 2
    window = AngleWindow(c=args.window_c, delta=args.delta)
    fit = harness.fit_error_scaling(args.n, ks, window, args.grid)
    if args.format == "csv":
        _emit(args, lambda fh: harness.write_csv(fit.worst_rows, fh))
    else:
        doc = fit.as_dict()
        config = {
            "n": args.n,
            "k_min": args.k_min,
            "k_max": args.k_max,
            "ks": list(fit.ks),
            "C": args.window_c,
            "delta": args.delta,
            "grid": args.grid,
        }
        _emit(args, lambda fh: harness.json_summary("scaling", config, doc, fh))
    return 0


def _cmd_oracle(args) -> int:
    quadric.require_oracle_domain("oracle", args.n, args.ks)
    bases = quadric.build_cone_basis(args.n, args.ks, args.samples, args.seed)
    payload = harness.geometric_oracle(bases, pairs=args.pairs, seed=args.seed)
    config = {
        "n": args.n,
        "ks": sorted(args.ks),
        "samples": args.samples,
        "pairs": args.pairs,
        "seed": args.seed,
    }
    _emit(args, lambda fh: harness.json_summary("oracle", config, payload, fh))
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, flags = build_parser()
    try:
        if argv and argv[0] in flags:
            config_path = _find_config(argv[1:])
            if config_path is not None:
                argv = [argv[0]] + _config_argv(argv[0], config_path, flags[argv[0]]) + argv[1:]
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code) if exc.code else 0
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"unexpected error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
