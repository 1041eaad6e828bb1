"""Measurement harness: error sweeps, scaling fits, and the geometric oracle.

Errors are always measured against the local oscillation envelope: the
figure of merit for a degree is max |exact - leading| / amplitude over a
midpoint grid inside the angle window.  Tables are columns, a dict from
each header name to an array or to one value every row repeats, and
comparison tables share CSV_HEADER (n,k,delta,C,theta,exact,asymptotic,
abs_err,rel_err); write_csv takes any other header, such as cli.EVAL_HEADER.
JSON summaries carry schema_version 1; floats are formatted for full
round-trip.
"""
from __future__ import annotations

import itertools
import json
import math
import sys

import numpy as np

from . import quadric, rng
from .asymptotics import AngleWindow, c_constant_leading, legendre_leading
from .special import ZonalIndex, _is_int, dim_eigenspace, legendre_normalized, projector_kernel, vol_sphere

__all__ = [
    "bracket_errors_on_grid",
    "fit_error_scaling",
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


def fit_error_scaling(
    n: int,
    ks,
    window: AngleWindow | None = None,
    grid_size: int = GRID_SIZE,
) -> tuple[dict, dict]:
    """Ordinary least squares of log error on log degree.

    Returns (summary, worst): the JSON payload of `zonal scaling`, and the
    CSV-schema columns of each degree's worst angle, which its CSV writes.
    The summary's points are the (log k, log error) pairs behind the fit,
    zero errors floored to the smallest normal float.  The degrees must be
    at least two distinct integers >= 1.

    A family whose bracket closes exactly (the circle case) leaves rounding
    errors that grow like k eps.  A run whose error at every degree k stays
    below EXACT_C k eps / sin(lo), lo the window's lower edge at k, is
    flagged exact and carries a null slope and intercept instead of a fit
    through noise.  On the default window n >= 2 meets that bound only from
    k near 10^7.
    """
    window = window or AngleWindow()
    ks = list(ks)
    if not all(_is_int(k) and k >= 1 for k in ks):
        raise ValueError(f"fit_error_scaling: degrees must be integers >= 1, got {ks}")
    ks = [int(k) for k in ks]
    if len(ks) < 2:
        raise ValueError(f"fit_error_scaling: need at least 2 degrees, got {len(ks)}")
    if len(set(ks)) < len(ks):
        raise ValueError(f"fit_error_scaling: degrees must be distinct, got {ks}")
    errors = []
    worst = []
    exact = True
    for k in ks:
        thetas, values, lead, rel = bracket_errors_on_grid(ZonalIndex(n=n, k=k), window, grid_size)
        i = int(np.argmax(rel))
        errors.append(float(rel[i]))
        worst.append((thetas[i], values[i], lead.value[i], rel[i]))
        bound = EXACT_C * k * sys.float_info.epsilon / math.sin(window.bounds(k)[0])
        exact = exact and errors[-1] <= bound
    slope = intercept = math.nan
    r2 = 1.0
    if not exact:
        logk = np.log(np.array(ks, dtype=float))
        loge = np.log(np.array(errors, dtype=float))
        slope, intercept = (float(v) for v in np.polyfit(logk, loge, 1))
        pred = slope * logk + intercept
        ss_res = float(np.sum((loge - pred) ** 2))
        ss_tot = float(np.sum((loge - loge.mean()) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    floor = sys.float_info.min
    summary = {
        "n": n,
        "C": window.c,
        "delta": window.delta,
        "ks": ks,
        "errors": errors,
        "points": [[math.log(float(k)), math.log(max(err, floor))] for k, err in zip(ks, errors)],
        "slope": None if math.isnan(slope) else slope,
        "intercept": None if math.isnan(intercept) else intercept,
        "r_squared": r2,
        "exact": exact,
    }
    return summary, _schema_columns(n, np.array(ks), window, *np.array(worst).T)


def geometric_oracle(bases, pairs: int, seed: int) -> dict:
    """Cross-checks of the geometric chain on Monte Carlo bases, per degree.

    Takes the cone bases of one sphere dimension, one sample count and
    distinct degrees, as `quadric.build_cone_basis` returns them, checks and
    orders them once (`quadric._ordered_bases`) before any push-forward, and
    reports them in increasing degree.  For every degree: evaluates the fiber push-forward
    of the kernel at `pairs` random sphere pairs plus the diagonal, and
    compares against the push-forward constant squared times the sphere
    projector.  The constant's fields, the closed-form c_k
    (`quadric.c_constant_numeric`), its leading form and their ratio,
    depend on neither the bases nor `seed`.  Residuals are normalized by the
    diagonal scale C^2 N / vol(S^n), so they measure the Monte Carlo noise
    of the basis alone.  The decay section is the dict
    `quadric.offdiagonal_decay_probe` returns for the bases.  Everything random
    is driven by counter-based substreams of `seed`, so the result is a
    function of the arguments alone.
    """
    n, bases = quadric._ordered_bases(bases, "geometric_oracle")
    counts = sorted({basis.samples for basis in bases})
    if len(counts) > 1:
        raise ValueError(f"geometric_oracle: bases mix sample counts {' and '.join(map(str, counts))}")
    if pairs < 1:
        raise ValueError(f"geometric_oracle: pairs must be >= 1, got {pairs}")
    degrees = []
    for basis in bases:
        idx = ZonalIndex(n=n, k=basis.k)
        c_numeric = quadric.c_constant_numeric(idx)
        c_leading = c_constant_leading(idx)
        scale = c_numeric**2 * dim_eigenspace(idx) / vol_sphere(n)
        gen = rng.substream(seed, rng.PAIR_DRAW, idx.k)
        rows = []
        for _ in range(pairs):
            q0 = quadric.sphere_point(n, gen)
            q1 = quadric.sphere_point(n, gen)
            push = quadric.pushforward_kernel(basis, q0, q1)
            t = float(np.dot(q0, q1))
            pred = c_numeric**2 * float(projector_kernel(idx, t))
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
                "c_numeric": c_numeric,
                "c_leading": c_leading,
                "c_ratio": c_numeric / c_leading,
                "pairs": rows,
                "max_residual": max(residuals),
                "mean_residual": sum(residuals) / len(residuals),
                "diagonal_residual": abs(diag - scale) / scale,
            }
        )
    decay = quadric.offdiagonal_decay_probe(bases, seed)
    return {"n": n, "samples": bases[0].samples, "pairs": pairs, "degrees": degrees, "decay": decay}


def _schema_columns(n, k, window: AngleWindow, thetas, exact, asym, rel) -> dict:
    abs_err = np.subtract(exact, asym)
    np.abs(abs_err, out=abs_err)
    return {"n": n, "k": k, "delta": window.delta, "C": window.c, "theta": thetas, "exact": exact,
            "asymptotic": asym, "abs_err": abs_err, "rel_err": rel}


def compare_rows(idx: ZonalIndex, window: AngleWindow, grid_size: int = GRID_SIZE) -> dict:
    """CSV-schema columns comparing exact and leading values over the window."""
    thetas, exact, lead, rel = bracket_errors_on_grid(idx, window, grid_size)
    return _schema_columns(idx.n, idx.k, window, thetas, exact, lead.value, rel)


def _batches(columns: dict, header, text: bool):
    """Each JSON_BATCH rows of ``columns`` as one list per header name, of Python numbers or their reprs.

    A 0-d column's one value is converted once and repeated; the others
    have one length, the row count (one row when every column is 0-d).
    """
    arrays = [np.asarray(columns[name]) for name in header]
    size = next((len(a) for a in arrays if a.ndim), 1)
    form = (lambda values: list(map(repr, values))) if text else list
    for start in range(0, size, JSON_BATCH):
        stop = min(start + JSON_BATCH, size)
        yield [form(a[start:stop].tolist()) if a.ndim else form([a.tolist()]) * (stop - start) for a in arrays]


def _table_rows(columns: dict, header=CSV_HEADER) -> list[dict]:
    """The rows of ``columns`` as dicts of Python numbers, keyed by ``header``."""
    return [dict(zip(header, row)) for cells in _batches(columns, header, False) for row in zip(*cells)]


def write_csv(columns: dict, stream, header=CSV_HEADER) -> None:
    """Write the table ``columns`` under ``header`` to ``stream``, integers as integers, floats round-trip.

    The rows are converted and written JSON_BATCH at a time and are never
    held whole as text: one write per line would be one system call each on
    an unbuffered stdout (PYTHONUNBUFFERED), twice the time.
    """
    stream.write(",".join(header) + "\n")
    for cells in _batches(columns, header, True):
        stream.write("\n".join(map(",".join, zip(*cells))) + "\n")


def json_summary(kind: str, config: dict, payload: dict, stream) -> None:
    """Write a stable JSON document to ``stream``: schema_version 1, config echo, sorted keys.

    The document is written in batches of encoder chunks and never held
    whole in memory.
    """
    doc = {"schema_version": 1, "kind": kind, "config": config, **payload}
    chunks = itertools.chain(json.JSONEncoder(sort_keys=True, indent=2).iterencode(doc), ["\n"])
    # JSON_BATCH chunks per write, for the reason write_csv batches its lines
    while batch := list(itertools.islice(chunks, JSON_BATCH)):
        stream.write("".join(batch))
