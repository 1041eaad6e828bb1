"""Command line front end for the zonal kernel laboratory.

Five subcommands (eval, compare, scaling, oracle, bench) share --seed, --out
and --config; eval, compare and scaling add --format (csv or json), the
Monte Carlo oracle adds --samples, and oracle and bench write JSON only.  A
config file is a flat JSON object whose keys are flag names of the chosen
subcommand; explicit command line flags always win over config values.
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

from . import harness
from .asymptotics import DELTA_MAX, AngleWindow
from .special import ZonalIndex, legendre_normalized, projector_kernel

DEFAULT_SEED = 20250819
DEFAULT_SAMPLES = 1_000_000

EVAL_HEADER = ("n", "k", "theta", "legendre", "projector")


class CliError(Exception):
    """Usage error detected after parsing; the message names the flag."""


def _int_type(minimum: int, label: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{label} must be >= {minimum}, got {value}")
        return value

    return parse


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value!r}")
    return value


def _delta_value(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0.0 <= value < DELTA_MAX:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1/6), got {value!r}")
    return value


def _theta_list(text: str) -> list[float]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("expected a comma separated list of angles")
    out = []
    for part in parts:
        try:
            value = float(part)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a number, got {part!r}") from None
        if not 0.0 <= value <= math.pi:
            raise argparse.ArgumentTypeError(f"angles must lie in [0, pi], got {value!r}")
        out.append(value)
    return out


def _degree_list(minimum: int):
    element = _int_type(minimum, "every degree")

    def parse(text: str) -> list[int]:
        parts = [p.strip() for p in text.split(",") if p.strip()]
        if not parts:
            raise argparse.ArgumentTypeError("expected a comma separated list of degrees")
        return [element(part) for part in parts]

    return parse


def _add(sub, registry: set, *names: str, **kwargs) -> None:
    sub.add_argument(*names, **kwargs)
    registry.update(names)


def _add_common(sub, registry: set) -> None:
    _add(sub, registry, "--seed", type=_int_type(0, "--seed"), default=DEFAULT_SEED,
         help="master seed for all Monte Carlo substreams")
    _add(sub, registry, "--out", default=None, help="write output to this file instead of stdout")
    _add(sub, registry, "--config", default=None,
         help="JSON file of flag defaults for this subcommand")


def _add_window(sub, registry: set) -> None:
    _add(sub, registry, "--window-c", dest="window_c", type=_positive_float, default=1.0,
         help="window margin constant")
    _add(sub, registry, "--delta", type=_delta_value, default=0.0,
         help="window shrink exponent in [0, 1/6)")


def _add_grid(sub, registry: set) -> None:
    _add(sub, registry, "--grid", type=_int_type(1, "--grid"), default=512,
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
    _add(sub, reg, "--n", type=_int_type(2, "--n"), default=2, help="sphere dimension (2 or 3)")
    _add(sub, reg, "--ks", type=_degree_list(0), default=[2, 4, 8],
         help="comma separated degrees")
    _add(sub, reg, "--pairs", type=_int_type(1, "--pairs"), default=8,
         help="random sphere pairs per degree")
    _add(sub, reg, "--samples", type=_int_type(1, "--samples"), default=DEFAULT_SAMPLES,
         help="Monte Carlo sample count")
    _add_common(sub, reg)
    sub.set_defaults(func=_cmd_oracle)

    sub = subs.add_parser("bench", help="recurrence versus leading form timing (json)")
    reg = flags["bench"] = set()
    _add(sub, reg, "--n", type=_int_type(1, "--n"), default=2, help="sphere dimension")
    _add(sub, reg, "--ks", type=_degree_list(1), default=[16, 64, 256, 1024, 4096],
         help="comma separated degrees")
    _add_window(sub, reg)
    _add(sub, reg, "--budget", type=_positive_float, default=1e-2,
         help="relative error budget for the switch-over degree")
    _add(sub, reg, "--batch", type=_int_type(100_000, "--batch"), default=1 << 17,
         help="evaluations per timing repetition")
    _add(sub, reg, "--reps", type=_int_type(1, "--reps"), default=5,
         help="timing repetitions per degree")
    _add_common(sub, reg)
    sub.set_defaults(func=_cmd_bench)

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
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        out.extend([flag, str(value)])
    return out


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
        text = harness.write_csv(rows, header=EVAL_HEADER)
    else:
        config = {"n": args.n, "k": args.k, "theta": [float(t) for t in thetas], "seed": args.seed}
        text = harness.json_summary("eval", config, {"rows": rows})
    _emit(args, text)
    return 0


def _cmd_compare(args) -> int:
    idx = ZonalIndex(n=args.n, k=args.k)
    window = AngleWindow(c=args.window_c, delta=args.delta)
    rows = harness.compare_rows(idx, window, args.grid)
    if args.format == "csv":
        text = harness.write_csv(rows)
    else:
        config = {
            "n": args.n,
            "k": args.k,
            "C": args.window_c,
            "delta": args.delta,
            "grid": args.grid,
            "seed": args.seed,
        }
        text = harness.json_summary("compare", config, {"rows": rows})
    _emit(args, text)
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
        text = harness.write_csv(fit.worst_rows)
    else:
        doc = fit.as_dict()
        if math.isnan(doc["slope"]):
            doc["slope"] = None
            doc["intercept"] = None
        config = {
            "n": args.n,
            "k_min": args.k_min,
            "k_max": args.k_max,
            "ks": list(fit.ks),
            "C": args.window_c,
            "delta": args.delta,
            "grid": args.grid,
            "seed": args.seed,
        }
        text = harness.json_summary("scaling", config, doc)
    _emit(args, text)
    return 0


def _cmd_oracle(args) -> int:
    if args.n not in (2, 3):
        raise CliError("--n: the oracle push-forward supports n = 2 or 3")
    if max(args.ks) > 12:
        raise CliError("--ks: oracle degrees are capped at 12")
    payload = harness.geometric_oracle(
        args.n, args.ks, samples=args.samples, pairs=args.pairs, seed=args.seed
    )
    config = {
        "n": args.n,
        "ks": sorted(int(k) for k in args.ks),
        "samples": args.samples,
        "pairs": args.pairs,
        "seed": args.seed,
    }
    text = harness.json_summary("oracle", config, payload)
    _emit(args, text)
    return 0


def _cmd_bench(args) -> int:
    window = AngleWindow(c=args.window_c, delta=args.delta)
    report = harness.crossover_benchmark(
        args.n, args.ks, window, error_budget=args.budget, batch=args.batch, reps=args.reps
    )
    config = {
        "n": args.n,
        "ks": sorted(int(k) for k in args.ks),
        "C": args.window_c,
        "delta": args.delta,
        "budget": args.budget,
        "batch": args.batch,
        "reps": args.reps,
        "seed": args.seed,
    }
    text = harness.json_summary("bench", config, report.as_dict())
    _emit(args, text)
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
