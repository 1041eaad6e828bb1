"""The benchmark's workloads: task generation, the timed call, and its checks.

A task is the unit of work timed.  Each workload turns a task seed into a
task (a pure function of the seed), runs it through the zonal package's
public functions, checks the output against references that share no code
with the package, and digests the output so equal task seeds can be shown
to give equal bytes.

The calls go through module attributes (``special.legendre_normalized``,
``cli.main``) at call time, so a ``spans.Tracer`` installed on those
attributes sees them.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_legendre

from zonal import cli, harness, special
from zonal.asymptotics import AngleWindow
from zonal.special import ZonalIndex

# Tolerances, none looser than the package's own tests and ROADMAP:
# large-degree recurrence against a float64 closed form
# (tests/test_special.py::test_chebyshev_identity_large_degree)
POINT_ATOL = 1e-10
# projector diagonal scale dim/vol (criterion 7, "diagonal")
PROJECTOR_RTOL = 1e-14
# recurrence against closed forms up to k = 1000 (criterion 1)
WINDOW_ATOL = 1e-10
# envelope-relative error of the leading form: exact on the circle
# (tests/test_harness.py::test_relative_bracket_error_circle_closes) and
# below 0.01 otherwise (criterion 2, and the default bench budget)
LEADING_REL = {1: 1e-13, 2: 1e-2, 3: 1e-2}
# oracle residuals (criterion 5)
ORACLE_RESIDUAL = 0.05
# every this-many window angles is re-evaluated by a closed form
WINDOW_STRIDE = 64

DIMENSIONS = (1, 2, 3)


def _vol_sphere(n: int) -> float:
    # closed forms, independent of special.vol_sphere
    return {1: 2.0 * math.pi, 2: 4.0 * math.pi, 3: 2.0 * math.pi**2}[n]


def _dim_eigenspace(n: int, k: int) -> int:
    return math.comb(k + n, n) - (math.comb(k + n - 2, n) if k >= 2 else 0)


def closed_form(n: int, k: int, theta: np.ndarray) -> np.ndarray:
    """Value-one zonal polynomial by a formula that shares no code with the recurrence."""
    if n == 1:
        return np.cos(k * theta)
    if n == 2:
        return eval_legendre(k, np.cos(theta))
    if n == 3:
        return np.sin((k + 1) * theta) / ((k + 1) * np.sin(theta))
    raise ValueError(f"closed_form: no closed form for n={n}")


def _sha256_arrays(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class KernelTask:
    seed: int
    point_thetas: tuple[float, ...]
    point_k: int
    window_k: int


class KernelWorkload:
    """Point half and window half of the value-one recurrence, n = 1, 2, 3.

    Point half: ``legendre_normalized`` and ``projector_kernel`` at three
    angles and a degree near 2.5e4, which is what ``zonal eval`` does and
    pays the per-degree Python cost.  Window half:
    ``harness.bracket_errors_on_grid`` over 2^17 window angles at a degree
    near 256, which is what compare, scaling and bench do, on arrays of
    1 MB each.  No quadrature or Monte Carlo runs.
    """

    name = "kernel"

    def __init__(self, point_k: int = 25_000, window_k: int = 256, grid: int = 1 << 17):
        self.point_k = point_k
        self.window_k = window_k
        self.grid = grid
        self.window = AngleWindow()

    def make_task(self, seed: int) -> KernelTask:
        gen = np.random.default_rng(seed)
        thetas = gen.uniform(0.2, math.pi - 0.2, size=3)
        # degrees jitter by about 1% so task costs stay comparable
        point_k = self.point_k + int(gen.integers(-self.point_k // 100, self.point_k // 100 + 1))
        window_k = self.window_k + int(gen.integers(-8, 9))
        return KernelTask(seed, tuple(float(t) for t in thetas), point_k, window_k)

    def run(self, task: KernelTask) -> list[np.ndarray]:
        t = np.cos(np.array(task.point_thetas))
        out = []
        for n in DIMENSIONS:
            idx = ZonalIndex(n=n, k=task.point_k)
            out.append(special.legendre_normalized(idx, t))
            out.append(special.projector_kernel(idx, t))
        for n in DIMENSIONS:
            idx = ZonalIndex(n=n, k=task.window_k)
            thetas, exact, lead, rel = harness.bracket_errors_on_grid(idx, self.window, self.grid)
            out.extend((thetas, exact, np.asarray(lead.value), rel))
        return out

    def check(self, task: KernelTask, out) -> list[str]:
        failures = []
        t = np.cos(np.array(task.point_thetas))
        theta = np.arccos(t)
        for i, n in enumerate(DIMENSIONS):
            k = task.point_k
            leg, proj = out[2 * i], out[2 * i + 1]
            err = float(np.max(np.abs(leg - closed_form(n, k, theta))))
            if not err <= POINT_ATOL:
                failures.append(f"point n={n} k={k}: |P - closed form| = {err:.3e} > {POINT_ATOL:g}")
            scale = _dim_eigenspace(n, k) / _vol_sphere(n)
            ref = scale * leg
            perr = float(np.max(np.abs(proj - ref) - PROJECTOR_RTOL * np.abs(ref)))
            if not perr <= 0.0:
                failures.append(f"point n={n} k={k}: projector differs from dim/vol * P beyond rtol {PROJECTOR_RTOL:g}")
        base = 2 * len(DIMENSIONS)
        for i, n in enumerate(DIMENSIONS):
            k = task.window_k
            thetas, exact, _, rel = out[base + 4 * i: base + 4 * i + 4]
            if thetas.shape != (self.grid,):
                failures.append(f"window n={n}: expected {self.grid} angles, got {thetas.shape}")
                continue
            worst = float(np.max(rel))
            if not worst < LEADING_REL[n]:
                failures.append(f"window n={n} k={k}: leading-form error {worst:.3e} >= {LEADING_REL[n]:g}")
            sub = slice(None, None, WINDOW_STRIDE)
            err = float(np.max(np.abs(exact[sub] - closed_form(n, k, thetas[sub]))))
            if not err <= WINDOW_ATOL:
                failures.append(f"window n={n} k={k}: |P - closed form| = {err:.3e} > {WINDOW_ATOL:g}")
        return failures

    def digest(self, out) -> str:
        return _sha256_arrays(out)


class OracleWorkload:
    """``zonal oracle`` through ``cli.main`` in-process, stdout captured."""

    def __init__(self, name: str, options: tuple[str, ...]):
        self.name = name
        self.options = options

    def make_task(self, seed: int) -> tuple[str, ...]:
        return ("oracle", *self.options, "--seed", str(seed))

    def run(self, argv) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        return code, buf.getvalue()

    def check(self, argv, out) -> list[str]:
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"]
        failures = []
        if doc["config"]["seed"] != int(argv[-1]):
            failures.append("config does not echo the task seed")
        for deg in doc["degrees"]:
            for key in ("max_residual", "diagonal_residual"):
                if not deg[key] < ORACLE_RESIDUAL:
                    failures.append(f"k={deg['k']}: {key} {deg[key]:.4g} >= {ORACLE_RESIDUAL}")
        if doc["decay"]["monotone_until_floor"] is not True:
            failures.append("decay is not monotone until the noise floor")
        return failures

    def digest(self, out) -> str:
        return hashlib.sha256(out[1].encode("utf-8")).hexdigest()


WORKLOADS = {
    "kernel": KernelWorkload(),
    "oracle-n3": OracleWorkload("oracle-n3", ("--n", "3", "--ks", "2,4,8", "--samples", "200000")),
    # CLI defaults: n=2, ks 2,4,8, 10^6 samples, 8 pairs.  Not in BENCHMARK.json
    # (a run holds too few of its 4 s tasks to be steady); run it by name.
    "oracle-n2": OracleWorkload("oracle-n2", ()),
}
