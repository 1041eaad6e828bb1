import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from oracles import decay_exact, eval_monomials, exact_cone_basis, fiber_nodes, gram_stderr
from zonal import asymptotics, quadric, rng, special
from zonal.asymptotics import AngleWindow, c_constant_leading, legendre_leading
from zonal.harness import (
    CSV_HEADER,
    JSON_BATCH,
    bracket_errors_on_grid,
    compare_rows,
    fit_error_scaling,
    geometric_oracle,
    json_summary,
    write_csv,
)
from zonal.quadric import _pushforward_raw, build_cone_basis, sphere_point
from zonal.special import ZonalIndex, legendre_normalized


def test_bracket_errors_on_grid_shapes():
    idx = ZonalIndex(n=2, k=32)
    window = AngleWindow()
    thetas, exact, lead, rel = bracket_errors_on_grid(idx, window, grid_size=64)
    assert thetas.shape == exact.shape == rel.shape == (64,)
    lo, hi = window.bounds(32)
    assert np.all((thetas > lo) & (thetas < hi))
    assert np.all(rel >= 0.0)
    assert np.asarray(lead.value).shape == (64,)


def test_bracket_errors_match_the_uncached_reference_bit_for_bit():
    # the window's nodes are cached per (lo, hi, size): at delta = 0 every
    # degree shares them (hits), and each new size, C or delta at delta > 0
    # forms them anew (misses).  Every array equals the uncached evaluation.
    # The 2^17 angles of the kernel benchmark are checked at its C = 1 alone
    def bits(a):
        return np.asarray(a, dtype=float).view(np.int64)

    nodes = asymptotics._midpoint_nodes
    nodes.cache_clear()
    for delta in (0.0, 0.1):
        for k in (31, 256, 257, 1000):
            for size in (512, 1 << 17, 1001):
                for c in (1.0, 0.02) if size < 1 << 17 else (1.0,):
                    window = AngleWindow(c, delta)
                    lo, hi = window.bounds(k)
                    theta = lo + (np.arange(size) + 0.5) * ((hi - lo) / size)
                    for n in range(1, 6):
                        idx = ZonalIndex(n=n, k=k)
                        got_theta, exact, lead, rel = bracket_errors_on_grid(idx, window, size)
                        ref_exact = legendre_normalized(idx, np.cos(theta))
                        ref_lead = legendre_leading(idx, theta)
                        ref_rel = np.abs(ref_exact - ref_lead.value) / ref_lead.amplitude
                        pairs = [(got_theta, theta), (exact, ref_exact), (rel, ref_rel),
                                 *((getattr(lead, f), getattr(ref_lead, f)) for f in ("amplitude", "phase", "value"))]
                        for got, ref in pairs:
                            np.testing.assert_array_equal(bits(got), bits(ref), err_msg=f"{idx} {window} {size}")
    info = nodes.cache_info()
    assert info.hits > 0 and info.misses > 0, info
    assert info.currsize <= info.maxsize


def test_bracket_memory_is_the_outputs_and_chunks(monkeypatch):
    # the exact values and the leading form's amplitude, phase, value and
    # error are 5 input sizes, all returned; the passes that form them hold
    # one chunk's temporaries a thread.  Peak over 2^18 angles of a cached
    # window, n = 1, 2, 3, in input sizes on 1 and MAX_WORKERS threads:
    # 5.00 and 5.00 when the leading side ran as whole-array passes, 5.07
    # and 5.20 in one chunked pass; one whole-array temporary more reads 6
    window, size = AngleWindow(), 2**18
    window.nodes(256, size)
    for workers in (1, special.MAX_WORKERS):
        monkeypatch.setattr(special, "_workers", lambda chunks: min(chunks, workers))
        for n in (1, 2, 3):
            tracemalloc.start()
            try:
                bracket_errors_on_grid(ZonalIndex(n=n, k=256), window, size)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 5.5 * 8 * size, (workers, n)


def test_window_nodes_are_read_only_and_bounded():
    window = AngleWindow(c=0.5, delta=0.1)
    for k in range(2, 40):
        theta, cos, sin = window.nodes(k, 64)
        assert window.nodes(k, 64)[0] is theta
        for arr in (theta, cos, sin, bracket_errors_on_grid(ZonalIndex(n=2, k=k), window, 64)[0]):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        info = asymptotics._midpoint_nodes.cache_info()
        assert info.currsize <= info.maxsize


def test_relative_bracket_error_circle_closes():
    # the n=1 bracket is exactly the cosine, so only rounding remains
    for k in (8, 64, 512):
        assert float(bracket_errors_on_grid(ZonalIndex(n=1, k=k), AngleWindow())[3].max()) < 1e-13
    # at degrees other than powers of two the product k theta rounds as well;
    # on the benchmark's 2^17 angles cos(k acos t) itself reads 1.18e-13 at k=264
    for k in (255, 257, 264):
        assert float(bracket_errors_on_grid(ZonalIndex(n=1, k=k), AngleWindow(), 1 << 17)[3].max()) < 1e-13


def test_relative_bracket_error_decreases_with_degree():
    window = AngleWindow()
    errs = [float(bracket_errors_on_grid(ZonalIndex(n=2, k=k), window)[3].max()) for k in (256, 1024)]
    assert errs[1] < errs[0]


def test_wider_window_is_harder():
    idx = ZonalIndex(n=2, k=256)
    narrow = float(bracket_errors_on_grid(idx, AngleWindow())[3].max())
    wide = float(bracket_errors_on_grid(idx, AngleWindow(c=1.0, delta=0.1))[3].max())
    assert wide >= narrow


def test_fit_error_scaling_exact_circle():
    fit = fit_error_scaling(1, (64, 128, 256))
    assert fit.exact
    assert math.isnan(fit.slope)
    assert fit.r_squared == 1.0
    assert all(math.isfinite(x) and math.isfinite(y) for x, y in fit.points)
    # near the poles rounding t = cos(theta) costs up to 34 k eps at k=256,
    # so the bound scales with 1 / sin of the window edge
    narrow = AngleWindow(c=0.01, delta=0.16)
    assert fit_error_scaling(1, (64, 128, 256), narrow).exact
    assert not fit_error_scaling(2, (64, 128, 256), narrow).exact


def test_fit_error_scaling_slope_band():
    for n in (2, 3):
        fit = fit_error_scaling(n, (64, 128, 256, 512))
        assert not fit.exact
        assert -1.4 < fit.slope < -0.6
        assert fit.r_squared > 0.9


def test_fit_error_scaling_validation():
    with pytest.raises(ValueError):
        fit_error_scaling(2, (64,))
    with pytest.raises(ValueError):
        fit_error_scaling(2, (0, 64))


def test_scaling_fit_points_and_dict():
    fit = fit_error_scaling(2, (64, 128))
    assert fit.points == tuple(
        (math.log(float(k)), math.log(e)) for k, e in zip(fit.ks, fit.errors)
    )
    doc = fit.as_dict()
    assert doc["ks"] == [64, 128]
    assert doc["points"] == [list(p) for p in fit.points]
    assert set(doc) == {
        "n", "C", "delta", "ks", "errors", "points", "slope", "intercept", "r_squared", "exact",
    }
    # the worst-angle rows feed `zonal scaling --format csv`, not the JSON
    window = AngleWindow(c=1.0, delta=0.1)
    fit = fit_error_scaling(2, (64, 128), window, grid_size=32)
    assert len(fit.worst_rows) == 2
    for k, err, row in zip(fit.ks, fit.errors, fit.worst_rows):
        rows = compare_rows(ZonalIndex(n=2, k=k), window, grid_size=32)
        assert row == max(rows, key=lambda r: r["rel_err"])
        assert row["rel_err"] == err


def test_c_constant_convergence_rows():
    # the oracle's c-constant fields: the closed form, its leading form and their ratio
    out = geometric_oracle(build_cone_basis(2, (2, 4), 30_000, seed=3), pairs=1, seed=3)
    assert [d["k"] for d in out["degrees"]] == [2, 4]
    for deg in out["degrees"]:
        idx = ZonalIndex(n=2, k=deg["k"])
        lead = c_constant_leading(idx)
        assert deg["c_numeric"] == quadric.c_constant_numeric(idx)
        assert deg["c_leading"] == lead
        assert deg["c_ratio"] == deg["c_numeric"] / lead
        assert 0.8 < deg["c_ratio"] < 1.5


def test_csv_cells_round_trip():
    # write_csv's cells: integers as integers, floats as strings that round-trip, signed zero included
    floats = (0.1, 1.0 / 3.0, 1e-300, 2.0, -0.0, math.pi, np.float64(0.7))
    stream = io.StringIO()
    write_csv([{"x": x, "k": 2} for x in floats] + [{"x": 2.0, "k": np.int64(3)}], stream, header=("x", "k"))
    header, *lines, last = stream.getvalue().splitlines()
    assert header == "x,k" and last == "2.0,3"
    for x, line in zip(floats, lines, strict=True):
        cell, k = line.split(",")
        assert k == "2"
        assert float(cell) == x and math.copysign(1.0, float(cell)) == math.copysign(1.0, x)


def test_write_csv_schema():
    rows = compare_rows(ZonalIndex(n=2, k=16), AngleWindow(), grid_size=4)
    stream = io.StringIO()
    assert write_csv(rows, stream) is None
    text = stream.getvalue()
    lines = text.strip().split("\n")
    assert lines[0] == "n,k,delta,C,theta,exact,asymptotic,abs_err,rel_err"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "2" and first[1] == "16"  # integers stay integers
    assert float(first[4]) > 0.0
    other = io.StringIO()
    write_csv([{"k": 3, "x": 0.5}], other, header=("k", "x"))
    assert other.getvalue() == "k,x\n3,0.5\n"


@pytest.mark.parametrize("count", [0, 3, JSON_BATCH + 1])
def test_write_csv_stream_matches_one_shot(count):
    # JSON_BATCH + 1 rows span two batched writes
    rows = [{"k": i, "x": 0.1 * i} for i in range(count)]
    expected = "k,x\n" + "".join(f"{i},{0.1 * i!r}\n" for i in range(count))
    stream = io.StringIO()
    assert write_csv(rows, stream, header=("k", "x")) is None
    assert stream.getvalue() == expected


def test_compare_rows_contents():
    window = AngleWindow(c=1.0, delta=0.1)
    rows = compare_rows(ZonalIndex(n=2, k=64), window, grid_size=8)
    for row in rows:
        assert set(row) == set(CSV_HEADER)
        assert row["n"] == 2 and row["k"] == 64
        assert row["delta"] == 0.1 and row["C"] == 1.0
        np.testing.assert_allclose(row["abs_err"], abs(row["exact"] - row["asymptotic"]), rtol=1e-12)


def test_json_summary_layout():
    stream = io.StringIO()
    json_summary("demo", {"n": 2}, {"alpha": 1.5}, stream)
    text = stream.getvalue()
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["schema_version"] == 1
    assert doc["kind"] == "demo"
    assert doc["config"] == {"n": 2}
    assert doc["alpha"] == 1.5
    # keys are serialized sorted for byte-stable output
    assert text.index('"alpha"') < text.index('"config"') < text.index('"kind"')


@pytest.mark.parametrize("rows", [0, 3, JSON_BATCH])
def test_json_summary_stream_matches_one_shot(rows):
    # a JSON_BATCH-row payload spans several batched writes
    payload = {"rows": [{"theta": 0.1 * i, "k": i, "exact": True} for i in range(rows)]}
    expected = json.dumps({"schema_version": 1, "kind": "demo", "config": {"n": 2}, **payload},
                          sort_keys=True, indent=2) + "\n"
    stream = io.StringIO()
    assert json_summary("demo", {"n": 2}, payload, stream) is None
    assert stream.getvalue() == expected


def test_geometric_oracle_validation():
    with pytest.raises(ValueError):
        geometric_oracle((), pairs=2, seed=1)
    with pytest.raises(ValueError):
        geometric_oracle(build_cone_basis(2, (2,), 30_000, seed=1), pairs=0, seed=1)


def test_geometric_oracle_checks_bases_before_any_pushforward(monkeypatch):
    def no_pushforward(*args):
        raise AssertionError("push-forward reached")

    monkeypatch.setattr(quadric, "pushforward_kernel", no_pushforward)
    with pytest.raises(ValueError, match="need at least one basis"):
        geometric_oracle((), pairs=2, seed=1)
    mixed = [exact_cone_basis(2, 2), exact_cone_basis(3, 2)]
    with pytest.raises(ValueError, match="mix sphere dimensions n = 2 and 3"):
        geometric_oracle(mixed, pairs=2, seed=1)
    # the report states one sample count, so bases built with two are refused
    (small,) = build_cone_basis(2, (2,), 20_000, seed=1)
    (large,) = build_cone_basis(2, (4,), 200_000, seed=1)
    with pytest.raises(ValueError, match="bases mix sample counts 20000 and 200000"):
        geometric_oracle([large, small], pairs=2, seed=1)


def test_geometric_oracle_report():
    # degrees are reported in increasing order whatever the order of the bases
    out = geometric_oracle(build_cone_basis(2, (3, 2), 30_000, seed=123), pairs=3, seed=123)
    assert set(out) == {"n", "samples", "pairs", "degrees", "decay"}
    assert out["n"] == 2 and out["samples"] == 30_000 and out["pairs"] == 3
    assert [d["k"] for d in out["degrees"]] == [2, 3]
    for deg in out["degrees"]:
        assert len(deg["pairs"]) == 3
        for row in deg["pairs"]:
            assert set(row) == {"dot", "pushforward", "predicted", "residual"}
        assert deg["max_residual"] == max(r["residual"] for r in deg["pairs"])
        assert deg["max_residual"] < 0.1
        assert deg["diagonal_residual"] < 0.1
        assert 0.9 < deg["c_ratio"] < 1.1
    decay = out["decay"]
    # the probe's report as it is: its tuples serialize as JSON lists
    assert decay["ks"] == (2, 3)
    assert decay["monotone_until_floor"] is True
    assert decay["superpolynomial"] is None  # two degrees cannot show curvature


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("samples", [30_000, 200_000])
def test_geometric_oracle_decay_matches_closed_form(n, samples):
    # the probe pair sits at quadric.PROBE_ANGLE; the decay values
    # carry the basis's Gram noise, and its entrywise standard error bounds
    # their error more tightly here than the rigorous gram_error does
    ks = (2, 4, 8)
    bases = build_cone_basis(n, ks, samples, seed=7)
    out = geometric_oracle(bases, pairs=1, seed=7)
    assert out["decay"]["distance"] == pytest.approx(math.sqrt(2.0) * math.sin(quadric.PROBE_ANGLE / 2), rel=1e-12)
    for basis, value in zip(bases, out["decay"]["values"]):
        assert abs(value - decay_exact(quadric.PROBE_ANGLE, basis.k)) <= 2.0 * gram_stderr(basis, seed=7)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_geometric_oracle_within_gram_error(n, seed):
    # the exact kernel pushes forward to the real value c_k^2 P_k, and the
    # sampled one lies within gram_error prefactor |F0| |F1| of it, with F
    # the fiber integrals of the sections (here by the oracle's own rule).
    # The decay value lies within gram_error (1 + value) / (1 - gram_error)
    # of the exact kernel's.  Both bounds hold at every seed
    ks = (2, 4, 8)
    bases = build_cone_basis(n, ks, 30_000, seed)
    out = geometric_oracle(bases, pairs=4, seed=seed)
    for deg, basis in zip(out["degrees"], bases):
        error = deg["gram_error"]
        assert error == basis.gram_error
        gen = rng.substream(seed, rng.PAIR_DRAW, basis.k)
        for row in deg["pairs"]:
            q0, q1 = sphere_point(n, gen), sphere_point(n, gen)
            assert row["dot"] == float(np.dot(q0, q1))
            fibers = []
            for q in (q0, q1):
                nodes, weights = fiber_nodes(q, basis.k)
                fibers.append(weights @ eval_monomials(q + 1j * nodes, basis.exponents) @ basis.coeff.T)
            bound = error * basis.prefactor(math.sqrt(2.0)) * np.linalg.norm(fibers[0]) * np.linalg.norm(fibers[1])
            rounding = 1e-12 * (1.0 + abs(row["predicted"]))
            assert abs(row["pushforward"] - row["predicted"]) <= bound + rounding
            assert abs(_pushforward_raw(basis, q0, q1)[0].imag) <= bound + rounding
    for deg, value, flag in zip(out["degrees"], out["decay"]["values"], out["decay"]["below_floor"]):
        error = deg["gram_error"]
        assert abs(value - decay_exact(quadric.PROBE_ANGLE, deg["k"])) <= error * (1.0 + value) / (1.0 - error) + 1e-12
        # a value below gram_error is consistent with zero
        assert flag == (value < error)


def test_geometric_oracle_deterministic():
    a = geometric_oracle(build_cone_basis(2, (2,), 30_000, seed=7), pairs=2, seed=7)
    b = geometric_oracle(build_cone_basis(2, (2,), 30_000, seed=7), pairs=2, seed=7)
    assert a == b
