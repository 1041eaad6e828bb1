"""Measurement harness: error sweeps, scaling fits, and the geometric oracle.

Errors are always measured against the local oscillation envelope: the
figure of merit for a degree is max |exact - leading| / amplitude over a
midpoint grid inside the angle window.  Output helpers emit one CSV schema
(n,k,delta,C,theta,exact,asymptotic,abs_err,rel_err) and JSON summaries
with schema_version 1; floats are formatted for full round-trip.
"""
from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import quadric, rng
from .asymptotics import AngleWindow, c_constant_leading, legendre_leading
from .special import ZonalIndex, dim_eigenspace, legendre_normalized, projector_kernel, vol_sphere

__all__ = [
    "ScalingFit",
    "ConvergenceRow",
    "bracket_errors_on_grid",
    "fit_error_scaling",
    "c_constant_convergence",
    "geometric_oracle",
    "compare_rows",
    "write_csv",
    "json_summary",
]

GRID_SIZE = 512
# rounding of an exactly closing bracket: the recurrence's forward error is
# pinned at 8 k eps (test_forward_error_grows_like_k_eps), and rounding
# t = cos(theta) adds about k eps cot(theta) / 2, largest at the window edge
EXACT_C = 8.0

CSV_HEADER = ("n", "k", "delta", "C", "theta", "exact", "asymptotic", "abs_err", "rel_err")
# JSON encoder chunks or CSV lines joined per write of a streamed document
JSON_BATCH = 4096


def bracket_errors_on_grid(idx: ZonalIndex, window: AngleWindow, grid_size: int = GRID_SIZE):
    """Per-angle envelope-relative errors of the leading form at degree k.

    Returns (thetas, exact, leading, rel_err) arrays over the window's
    midpoint grid; thetas is the window's cached, read-only grid.
    """
    thetas, cos, sin = window.nodes(idx.k, grid_size)
    exact = legendre_normalized(idx, cos)
    lead, rel = legendre_leading(idx, thetas, _sin=sin, _exact=exact)
    return thetas, exact, lead, rel


@dataclass(frozen=True)
class ScalingFit:
    """Log-log fit of bracket error against degree."""

    n: int
    window: AngleWindow
    ks: tuple[int, ...]
    errors: tuple[float, ...]
    slope: float
    intercept: float
    r_squared: float
    exact: bool
    # each degree's worst-angle CSV-schema row; not part of the JSON summary
    worst_rows: tuple[dict, ...] = field(default=(), compare=False, repr=False)

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        """(log k, log error) pairs behind the fit; zero errors floored."""
        floor = sys.float_info.min
        return tuple(
            (math.log(float(k)), math.log(max(err, floor)))
            for k, err in zip(self.ks, self.errors)
        )

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "C": self.window.c,
            "delta": self.window.delta,
            "ks": list(self.ks),
            "errors": list(self.errors),
            "points": [list(point) for point in self.points],
            "slope": None if math.isnan(self.slope) else self.slope,
            "intercept": None if math.isnan(self.intercept) else self.intercept,
            "r_squared": self.r_squared,
            "exact": self.exact,
        }


def fit_error_scaling(
    n: int,
    ks,
    window: AngleWindow | None = None,
    grid_size: int = GRID_SIZE,
) -> ScalingFit:
    """Ordinary least squares of log error on log degree.

    A family whose bracket closes exactly (the circle case) leaves rounding
    errors that grow like k eps.  A run whose error at every degree k stays
    below EXACT_C k eps / sin(lo), lo the window's lower edge at k, is
    flagged exact and carries a NaN slope instead of a fit through noise.
    On the default window n >= 2 meets that bound only from k near 10^7.
    """
    window = window or AngleWindow()
    ks = tuple(int(k) for k in ks)
    if len(ks) < 2:
        raise ValueError(f"fit_error_scaling: need at least 2 degrees, got {len(ks)}")
    if any(k < 1 for k in ks):
        raise ValueError("fit_error_scaling: degrees must be >= 1")
    errors = []
    worst_rows = []
    exact = True
    for k in ks:
        idx = ZonalIndex(n=n, k=k)
        grid = bracket_errors_on_grid(idx, window, grid_size)
        rel = grid[3]
        errors.append(float(rel.max()))
        worst_rows += _schema_rows(idx, window, grid, [int(np.argmax(rel))])
        bound = EXACT_C * k * sys.float_info.epsilon / math.sin(window.bounds(k)[0])
        exact = exact and errors[-1] <= bound
    if exact:
        slope = intercept = math.nan
        r2 = 1.0
    else:
        logk = np.log(np.array(ks, dtype=float))
        loge = np.log(np.array(errors, dtype=float))
        slope, intercept = (float(v) for v in np.polyfit(logk, loge, 1))
        pred = slope * logk + intercept
        ss_res = float(np.sum((loge - pred) ** 2))
        ss_tot = float(np.sum((loge - loge.mean()) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return ScalingFit(
        n=n,
        window=window,
        ks=ks,
        errors=tuple(errors),
        slope=slope,
        intercept=intercept,
        r_squared=r2,
        exact=exact,
        worst_rows=tuple(worst_rows),
    )


@dataclass(frozen=True)
class ConvergenceRow:
    """One degree of the push-forward constant comparison."""

    k: int
    numeric: float
    leading: float
    ratio: float


def c_constant_convergence(n: int, ks) -> list[ConvergenceRow]:
    """Closed-form push-forward constant against its leading form, per degree.

    The ratio is the finite-k Gamma ratio sqrt(k^L Gamma(k+L) / Gamma(k+n-1)),
    L = (n-1)/2, so this tabulates how fast c_k approaches its leading form.
    """
    rows = []
    for k in ks:
        idx = ZonalIndex(n=n, k=int(k))
        value = quadric.c_constant_numeric(idx)
        lead = c_constant_leading(idx)
        rows.append(ConvergenceRow(k=int(k), numeric=value, leading=lead, ratio=value / lead))
    return rows


def geometric_oracle(bases, pairs: int, seed: int) -> dict:
    """Cross-checks of the geometric chain on Monte Carlo bases, per degree.

    Takes the cone bases of one sphere dimension, as `quadric.build_cone_basis`
    returns them, checks and orders them once (`quadric.ordered_bases`)
    before any push-forward, and reports them in increasing degree.  For
    every degree: evaluates the fiber push-forward of the kernel at `pairs`
    random sphere pairs plus the diagonal, and compares against the
    push-forward constant squared times the sphere projector.  The
    constant's fields are the degree's `c_constant_convergence` row and
    depend on neither the bases nor `seed`.  Residuals are normalized by the
    diagonal scale C^2 N / vol(S^n), so they measure the Monte Carlo noise
    of the basis alone.  The decay section is the bases' `quadric.DecayReport`
    at one separated probe pair.  Everything random is driven by
    counter-based substreams of `seed`, so the result is a function of the
    arguments alone.
    """
    n, bases = quadric.ordered_bases(bases, "geometric_oracle")
    if pairs < 1:
        raise ValueError(f"geometric_oracle: pairs must be >= 1, got {pairs}")
    degrees = []
    for basis, c in zip(bases, c_constant_convergence(n, [b.k for b in bases])):
        idx = ZonalIndex(n=n, k=basis.k)
        scale = c.numeric**2 * dim_eigenspace(idx) / vol_sphere(n)
        gen = rng.substream(seed, rng.PAIR_DRAW, idx.k)
        rows = []
        for _ in range(pairs):
            q0 = quadric.sphere_point(n, gen)
            q1 = quadric.sphere_point(n, gen)
            push = quadric.pushforward_kernel(basis, q0, q1)
            t = float(np.dot(q0, q1))
            pred = c.numeric**2 * float(projector_kernel(idx, t))
            rows.append(
                {
                    "dot": t,
                    "pushforward": push,
                    "predicted": pred,
                    "residual": abs(push - pred) / scale,
                }
            )
        q_diag = quadric.sphere_point(n, gen)
        diag = quadric.pushforward_kernel(basis, q_diag, q_diag)
        residuals = [row["residual"] for row in rows]
        degrees.append(
            {
                "k": idx.k,
                "gram_error": basis.gram_error,
                "c_numeric": c.numeric,
                "c_leading": c.leading,
                "c_ratio": c.ratio,
                "pairs": rows,
                "max_residual": max(residuals),
                "mean_residual": sum(residuals) / len(residuals),
                "diagonal_residual": abs(diag - scale) / scale,
            }
        )
    report = quadric.offdiagonal_decay_probe(bases, *quadric.probe_pair(n, seed))
    return {"n": n, "samples": bases[0].samples, "pairs": pairs, "degrees": degrees, "decay": asdict(report)}


def _schema_rows(idx: ZonalIndex, window: AngleWindow, grid, indices) -> list[dict]:
    """CSV-schema rows at the given indices of a bracket_errors_on_grid result."""
    thetas, exact, lead, rel = grid
    asym = lead.value
    return [
        {
            "n": idx.n,
            "k": idx.k,
            "delta": window.delta,
            "C": window.c,
            "theta": float(thetas[i]),
            "exact": float(exact[i]),
            "asymptotic": float(asym[i]),
            "abs_err": abs(float(exact[i]) - float(asym[i])),
            "rel_err": float(rel[i]),
        }
        for i in indices
    ]


def compare_rows(idx: ZonalIndex, window: AngleWindow, grid_size: int = GRID_SIZE):
    """CSV-schema rows comparing exact and leading values over the window."""
    grid = bracket_errors_on_grid(idx, window, grid_size)
    return _schema_rows(idx, window, grid, range(len(grid[0])))


def _csv_cell(value) -> str:
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return repr(float(value))


def _write_batched(stream, pieces) -> None:
    # JSON_BATCH strings per write: one write per string would be one system
    # call each on an unbuffered stdout (PYTHONUNBUFFERED), twice the time
    while batch := list(itertools.islice(pieces, JSON_BATCH)):
        stream.write("".join(batch))


def write_csv(rows, stream, header=CSV_HEADER) -> None:
    """Write rows under ``header`` to ``stream``, integers as integers, floats round-trip.

    The rows go out in batches of JSON_BATCH lines and are never held whole
    as text.
    """
    lines = (",".join(_csv_cell(row[name]) for name in header) + "\n" for row in rows)
    _write_batched(stream, itertools.chain([",".join(header) + "\n"], lines))


def json_summary(kind: str, config: dict, payload: dict, stream) -> None:
    """Write a stable JSON document to ``stream``: schema_version 1, config echo, sorted keys.

    The document is written in batches of encoder chunks and never held
    whole in memory.
    """
    doc = {"schema_version": 1, "kind": kind, "config": config, **payload}
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(doc)
    _write_batched(stream, itertools.chain(chunks, ["\n"]))
