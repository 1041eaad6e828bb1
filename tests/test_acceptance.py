"""One test per acceptance criterion, each printing a [PASS]/[FAIL] line.

Every criterion states its tolerance and a wall-clock budget; both are
asserted.  Run `pytest -s tests/test_acceptance.py` to see the lines.
"""
import math
import os
import subprocess
import sys
import time

import numpy as np

from oracles import exact_cone_basis, gaussian_coefficient_numeric
from zonal.asymptotics import AngleWindow, c_constant_leading, gaussian_leading_coefficient
from zonal.harness import (
    bracket_errors_on_grid,
    fit_error_scaling,
    geometric_oracle,
)
from zonal.quadric import build_cone_basis, c_constant_numeric, offdiagonal_decay_probe, sample_frame
from zonal.special import (
    ZonalIndex,
    dim_eigenspace,
    legendre_normalized,
    projector_kernel,
    vol_sphere,
)

SEED = 20250819
# the BLAS thread variables the package defaults to 1 when none is set
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_chebyshev_exactness():
    t0 = time.perf_counter()
    gen = np.random.default_rng(SEED)
    thetas = gen.uniform(0.01, math.pi - 0.01, size=100)
    sweep = np.stack([legendre_normalized(ZonalIndex(1, j), np.cos(thetas)) for j in range(1001)])
    ks = np.arange(1, 1001)
    reference = np.cos(ks[:, None] * thetas[None, :])
    worst = float(np.abs(sweep[1:] - reference).max())
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 1 chebyshev exactness",
        worst < 1e-10 and elapsed < 1.0,
        f"max |P - cos k theta| = {worst:.3e} (< 1e-10), {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_laplace_accuracy():
    t0 = time.perf_counter()
    window = AngleWindow(c=1.0, delta=0.0)
    err_1024 = float(bracket_errors_on_grid(ZonalIndex(n=2, k=1024), window, grid_size=512)[3].max())
    err_4096 = float(bracket_errors_on_grid(ZonalIndex(n=2, k=4096), window, grid_size=512)[3].max())
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 2 laplace accuracy",
        err_1024 < 0.01 and err_4096 < err_1024 and elapsed < 5.0,
        f"rel err k=1024: {err_1024:.5f} (< 0.01), k=4096: {err_4096:.5f} (smaller), "
        f"{elapsed:.2f}s (< 5s)",
    )


def test_criterion_3_error_scaling_slope():
    t0 = time.perf_counter()
    ks = (64, 128, 256, 512, 1024, 2048, 4096)
    results = {n: fit_error_scaling(n, ks)[0] for n in (2, 3)}
    elapsed = time.perf_counter() - t0
    ok = all(
        -1.25 <= fit["slope"] <= -0.75 and fit["r_squared"] > 0.95 for fit in results.values()
    )
    detail = ", ".join(
        f"n={n}: slope {fit['slope']:.3f}, r^2 {fit['r_squared']:.4f}" for n, fit in results.items()
    )
    _report(
        "criterion 3 error scaling slope",
        ok and elapsed < 30.0,
        f"{detail} (slope in [-1.25, -0.75], r^2 > 0.95), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_4_gaussian_coefficient_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3, 4):
        for theta in (0.3, 1.0, math.pi / 2, 2.5):
            numeric = gaussian_coefficient_numeric(n, theta)
            closed = gaussian_leading_coefficient(n, theta)
            worst = max(worst, abs(numeric - closed))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 4 gaussian coefficient identity",
        worst < 1e-6 and elapsed < 1.0,
        f"max |numeric - closed| = {worst:.3e} (< 1e-6), {elapsed:.2f}s (< 1s)",
    )


def test_criterion_5_geometric_oracle_equivalence():
    t0 = time.perf_counter()
    ks = (2, 4, 6, 8)
    full = geometric_oracle(build_cone_basis(2, ks, 1_000_000, SEED), pairs=20, seed=SEED)
    quarter = geometric_oracle(build_cone_basis(2, ks, 250_000, SEED), pairs=20, seed=SEED)
    worst = max(d["max_residual"] for d in full["degrees"])
    mean_full = sum(d["mean_residual"] for d in full["degrees"]) / len(ks)
    mean_quarter = sum(d["mean_residual"] for d in quarter["degrees"]) / len(ks)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 5 geometric oracle equivalence",
        worst < 0.05 and mean_full < mean_quarter and elapsed < 300.0,
        f"max residual {worst:.5f} (< 0.05), mean residual {mean_quarter:.5f} -> "
        f"{mean_full:.5f} under samples x4, {elapsed:.1f}s (< 300s)",
    )


def test_criterion_6_c_constant_convergence():
    t0 = time.perf_counter()
    ks = (4, 8, 12)
    ratios = []
    for k in ks:
        idx = ZonalIndex(n=2, k=k)
        ratios.append(c_constant_numeric(idx) / c_constant_leading(idx))
    last = ratios[-1]
    spread = max(abs(ratio - 1.0) * k for k, ratio in zip(ks, ratios))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 6 c-constant convergence",
        abs(last - 1.0) < 0.05 and spread < 2.0 and elapsed < 180.0,
        f"|ratio-1| at k=12: {abs(last - 1.0):.4f} (< 0.05), "
        f"max |ratio-1|*k: {spread:.3f} (< 2), {elapsed:.1f}s (< 180s)",
    )


def test_criterion_7_structural_identities(basis_cache):
    t0 = time.perf_counter()
    gen = np.random.default_rng(SEED)
    basis = basis_cache.get(2, 3)
    checks = {}

    def slice_point():
        return sample_frame(2, gen) / math.sqrt(2.0)

    worst = 0.0
    for _ in range(100):
        x, y = slice_point(), slice_point()
        val = basis.kernel(x, y, 1.0)
        worst = max(worst, abs(val - np.conj(basis.kernel(y, x, 1.0))) / max(1.0, abs(val)))
    checks["hermitian"] = (worst, 1e-13)

    worst = 0.0
    for _ in range(100):
        x, y = slice_point(), slice_point()
        phase = gen.uniform(0.0, 2.0 * math.pi)
        lhs = basis.kernel(np.exp(1j * phase) * x, y, 1.0)
        rhs = np.exp(1j * basis.k * phase) * basis.kernel(x, y, 1.0)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    checks["equivariance"] = (worst, 1e-12)

    exact = exact_cone_basis(2, 3)
    worst = 0.0
    for _ in range(100):
        x, y = slice_point(), slice_point()
        val = exact.kernel(x, y, 1.0)
        worst = max(worst, abs(exact.kernel(x.conj(), y.conj(), 1.0) - np.conj(val)) / max(1.0, abs(val)))
    checks["conjugation"] = (worst, 5e-13)

    worst = 0.0
    for _ in range(100):
        x, y = slice_point(), slice_point()
        r = gen.uniform(0.5, 2.0)
        lhs = basis.kernel(r * x, r * y, r)
        rhs = r ** (1 - 2 * basis.n) * basis.kernel(x, y, 1.0)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    checks["homogeneity"] = (worst, 1e-12)

    worst = 0.0
    for _ in range(100):
        n = int(gen.integers(1, 5))
        k = int(gen.integers(0, 40))
        t = float(gen.uniform(-1.0, 1.0))
        idx = ZonalIndex(n=n, k=k)
        lhs = float(legendre_normalized(idx, -t))
        rhs = (-1.0) ** k * float(legendre_normalized(idx, t))
        # |P| <= 1, so this is an absolute deviation
        worst = max(worst, abs(lhs - rhs))
    checks["parity"] = (worst, 1e-10)

    worst = 0.0
    for _ in range(100):
        n = int(gen.integers(1, 5))
        k = int(gen.integers(0, 40))
        idx = ZonalIndex(n=n, k=k)
        expected = dim_eigenspace(idx) / vol_sphere(n)
        worst = max(worst, abs(float(projector_kernel(idx, 1.0)) - expected) / expected)
    checks["diagonal"] = (worst, 1e-14)

    elapsed = time.perf_counter() - t0
    ok = all(value <= bound for value, bound in checks.values()) and elapsed < 60.0
    detail = ", ".join(
        f"{name} {value:.2e} (<= {bound:.0e})" for name, (value, bound) in checks.items()
    )
    _report(
        "criterion 7 structural identities",
        ok,
        f"worst deviations over 100 instances each: {detail}, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_8_offdiagonal_decay(basis_cache):
    t0 = time.perf_counter()
    bases = basis_cache.get_many(2, range(2, 13))
    report = offdiagonal_decay_probe(bases, SEED)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 8 off-diagonal decay",
        report["distance"] >= 0.5 and report["monotone_until_floor"] and elapsed < 120.0,
        f"distance {report['distance']:.3f} (>= 0.5), strictly decreasing over "
        f"k={report['ks'][0]}..{report['ks'][-1]} until floor: {report['monotone_until_floor']}, "
        f"{elapsed:.1f}s (< 120s)",
    )


def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()
    outputs = {}
    jobs = {
        "oracle": ["oracle", "--ks", "2,3", "--pairs", "3", "--samples", "30000",
                   "--seed", "11"],
        # a basis of 81 members, where threaded BLAS rounds per thread count
        "oracle_n3": ["oracle", "--n", "3", "--ks", "8", "--pairs", "2",
                      "--samples", "20000", "--seed", "11"],
        "scaling": ["scaling", "--k-min", "64", "--k-max", "256", "--grid", "64",
                    "--format", "json"],
    }
    for name, argv in jobs.items():
        blobs = []
        for threads in (None, "1"):
            env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            target = tmp_path / f"{name}_{threads}.out"
            proc = subprocess.run(
                [sys.executable, "-m", "zonal.cli", *argv, "--out", str(target)],
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            blobs.append(target.read_bytes())
        outputs[name] = all(b == blobs[0] for b in blobs)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 9 determinism",
        all(outputs.values()),
        f"byte-identical with OPENBLAS_NUM_THREADS unset and 1: "
        f"{', '.join(f'{k}={v}' for k, v in outputs.items())}, {elapsed:.1f}s",
    )
