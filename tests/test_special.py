import math
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import binom, eval_gegenbauer, eval_jacobi, eval_legendre

from oracles import gegenbauer_norm_constant
from zonal import asymptotics, special
from zonal.asymptotics import AngleWindow, gegenbauer_leading, legendre_leading, projector_leading
from zonal.harness import bracket_errors_on_grid
from zonal.special import (
    K_EXPANSION,
    ZonalIndex,
    _check_range,
    _darboux_plan,
    _gamma_ratio,
    _scaled_half_pochhammer,
    dim_eigenspace,
    legendre_normalized,
    projector_kernel,
    vol_sphere,
)


def test_index_validation():
    with pytest.raises(ValueError):
        ZonalIndex(n=0, k=3)
    with pytest.raises(ValueError):
        ZonalIndex(n=2, k=-1)
    with pytest.raises(ValueError):
        ZonalIndex(n=2.0, k=3)
    # bool subclasses int
    with pytest.raises(ValueError):
        ZonalIndex(n=True, k=3)
    with pytest.raises(ValueError):
        ZonalIndex(n=2, k=False)
    assert ZonalIndex(n=np.int64(2), k=np.int32(3)).k == 3


def test_chebyshev_case_spot():
    # n=1 the normalized polynomial is cos(k arccos t)
    val = legendre_normalized(ZonalIndex(n=1, k=7), math.cos(0.3))
    np.testing.assert_allclose(val, math.cos(2.1), rtol=0, atol=1e-14)


def test_value_one_at_t_one():
    for n in (1, 2, 3, 5):
        for k in (0, 1, 9, 40):
            assert legendre_normalized(ZonalIndex(n=n, k=k), 1.0) == 1.0


def test_known_value_n2_k2():
    # (3 t^2 - 1)/2 at t=0
    np.testing.assert_allclose(
        legendre_normalized(ZonalIndex(n=2, k=2), 0.0), -0.5, rtol=0, atol=1e-15
    )


def test_scipy_legendre_oracle():
    # n=2 is the classical Legendre polynomial
    t = np.linspace(-1.0, 1.0, 41)
    for k in (0, 1, 2, 3, 5, 10, 25):
        mine = legendre_normalized(ZonalIndex(n=2, k=k), t)
        np.testing.assert_allclose(mine, eval_legendre(k, t), rtol=1e-12, atol=1e-13)


def test_scipy_jacobi_oracle():
    # the norm constant turns the value-one values into scipy's symmetric-Jacobi ones
    t = np.linspace(-0.99, 0.99, 23)
    for n in (2, 3, 4):
        alpha = 0.5 * (n - 2)
        for k in (0, 1, 4, 11):
            idx = ZonalIndex(n=n, k=k)
            mine = gegenbauer_norm_constant(idx) * legendre_normalized(idx, t)
            np.testing.assert_allclose(
                mine, eval_jacobi(k, alpha, alpha, t), rtol=1e-12, atol=1e-14
            )


def test_norm_constant_values():
    # Gamma(k + n/2) / (k! Gamma(n/2))
    assert gegenbauer_norm_constant(ZonalIndex(n=2, k=17)) == pytest.approx(1.0, rel=1e-14)
    assert gegenbauer_norm_constant(ZonalIndex(n=4, k=1)) == pytest.approx(2.0, rel=1e-14)
    assert gegenbauer_norm_constant(ZonalIndex(n=3, k=0)) == pytest.approx(1.0, rel=1e-14)


def test_norm_constant_large_k_no_overflow():
    value = gegenbauer_norm_constant(ZonalIndex(n=6, k=200_000))
    assert math.isfinite(value) and value > 0.0


def test_dim_eigenspace_values():
    assert dim_eigenspace(ZonalIndex(n=2, k=5)) == 11
    assert dim_eigenspace(ZonalIndex(n=3, k=2)) == 9
    assert dim_eigenspace(ZonalIndex(n=1, k=3)) == 2
    assert dim_eigenspace(ZonalIndex(n=1, k=0)) == 1
    assert dim_eigenspace(ZonalIndex(n=4, k=0)) == 1


def test_dim_eigenspace_closed_forms():
    for k in range(0, 25):
        assert dim_eigenspace(ZonalIndex(n=2, k=k)) == 2 * k + 1
        assert dim_eigenspace(ZonalIndex(n=3, k=k)) == (k + 1) ** 2
        if k >= 1:
            assert dim_eigenspace(ZonalIndex(n=1, k=k)) == 2


def test_vol_sphere_values():
    np.testing.assert_allclose(vol_sphere(1), 2.0 * math.pi, rtol=1e-15)
    np.testing.assert_allclose(vol_sphere(2), 4.0 * math.pi, rtol=1e-15)
    np.testing.assert_allclose(vol_sphere(0), 2.0, rtol=1e-15)
    np.testing.assert_allclose(vol_sphere(3), 2.0 * math.pi**2, rtol=1e-15)
    with pytest.raises(ValueError):
        vol_sphere(-1)
    with pytest.raises(ValueError):
        vol_sphere(True)


def test_projector_diagonal_and_chebyshev():
    idx = ZonalIndex(n=2, k=4)
    np.testing.assert_allclose(
        projector_kernel(idx, 1.0), 9.0 / (4.0 * math.pi), rtol=1e-14
    )
    # n=1: (2 / 2 pi) cos(k theta)
    theta = np.linspace(0.1, 3.0, 7)
    np.testing.assert_allclose(
        projector_kernel(ZonalIndex(n=1, k=3), np.cos(theta)),
        np.cos(3.0 * theta) / math.pi,
        rtol=1e-12,
        atol=1e-13,
    )


def test_projector_scale_overflow_raises():
    # N / vol(S^n) passes the largest double at n=400, k=21, and N itself
    # does at k=10^5; these gave -inf and OverflowError before
    assert math.isfinite(projector_kernel(ZonalIndex(n=400, k=20), 0.3))
    for k in (21, 50, 100_000):
        with pytest.raises(ValueError, match="overflow"):
            projector_kernel(ZonalIndex(n=400, k=k), 0.3)
    # 1 / vol(S^n) overflows from n=438 and vol(S^n) is zero from n=455,
    # so there even k=0 fails; n=500 raised ZeroDivisionError before
    assert math.isfinite(projector_kernel(ZonalIndex(n=437, k=0), 0.3))
    for n in (438, 455, 500):
        with pytest.raises(ValueError, match="overflow"):
            projector_kernel(ZonalIndex(n=n, k=0), 0.3)


def test_projector_parity():
    t = np.linspace(-1.0, 1.0, 17)
    for n in (1, 2, 3):
        for k in (0, 1, 4, 9):
            idx = ZonalIndex(n=n, k=k)
            left = projector_kernel(idx, -t)
            right = (-1.0) ** k * projector_kernel(idx, t)
            np.testing.assert_allclose(left, right, rtol=1e-10, atol=1e-12)


def test_legendre_parity_and_bound():
    gen = np.random.default_rng(3)
    t = gen.uniform(-1.0, 1.0, size=200)
    for n in (1, 2, 3, 4):
        for k in (0, 1, 2, 7, 30, 101):
            idx = ZonalIndex(n=n, k=k)
            vals = legendre_normalized(idx, t)
            np.testing.assert_allclose(
                legendre_normalized(idx, -t), (-1.0) ** k * vals, rtol=0, atol=1e-10
            )
            assert np.max(np.abs(vals)) <= 1.0 + 1e-10


def test_reproducing_idempotence():
    # integrating the projector against itself over the middle sphere
    # reproduces it: sum_y w_y P(x.y) P(y.z) = P(x.z)
    from zonal.quadrature import sphere_rule

    idx = ZonalIndex(n=2, k=4)
    nodes, weights = sphere_rule(2, 2 * idx.k + 2)
    gen = np.random.default_rng(11)
    for _ in range(4):
        x = gen.normal(size=3)
        x /= np.linalg.norm(x)
        z = gen.normal(size=3)
        z /= np.linalg.norm(z)
        left = float(
            np.sum(weights * projector_kernel(idx, nodes @ x) * projector_kernel(idx, nodes @ z))
        )
        right = float(projector_kernel(idx, float(np.dot(x, z))))
        np.testing.assert_allclose(left, right, rtol=1e-11, atol=1e-13)


def test_chebyshev_identity_large_degree():
    # float64 cos(k theta) is itself only good to ~2e-12 at k theta ~ 3e4, so
    # the 1e-12 gate needs an arbitrary-precision reference at the exact
    # binary64 argument; a coarser float64 cross-check runs alongside.
    import mpmath as mp

    mp.mp.dps = 40
    gen = np.random.default_rng(5)
    theta = gen.uniform(0.01, math.pi - 0.01, size=12)
    t = np.cos(theta)
    for k in (1000, 10_000):
        vals = legendre_normalized(ZonalIndex(n=1, k=k), t)
        refs = np.array([float(mp.cos(k * mp.acos(mp.mpf(float(ti))))) for ti in t])
        np.testing.assert_allclose(vals, refs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(vals, np.cos(k * theta), rtol=0, atol=1e-10)


def test_no_overflow_at_extreme_degree():
    k = 1_000_000
    t = np.array([-0.73, 0.2, 0.98])
    vals = legendre_normalized(ZonalIndex(n=3, k=k), t)
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) <= 1.0 + 1e-10
    theta = np.arccos(t)
    closed = np.sin((k + 1) * theta) / ((k + 1) * np.sin(theta))
    np.testing.assert_allclose(vals, closed, rtol=0, atol=1e-14)


def _envelope(n, k, theta):
    # leading amplitude of the value-one polynomial, written out for n = 1..5
    s = np.sin(theta)
    return {1: np.ones_like(s), 2: np.sqrt(2.0 / (math.pi * k * s)), 3: 1.0 / ((k + 1) * s),
            4: 8.0 / (math.sqrt(math.pi) * (2.0 * k * s) ** 1.5), 5: 3.0 / (k * s) ** 2}[n]


def _mp_value_one(n, k, t):
    import mpmath as mp

    x = mp.mpf(float(t))
    if n == 1:
        return mp.cos(k * mp.acos(x))
    if n == 3:
        theta = mp.acos(x)
        return mp.sin((k + 1) * theta) / ((k + 1) * mp.sin(theta))
    if n == 2:
        # the classical Legendre recurrence, whose rounding in 40 digits is
        # far below float64 (mpmath.legendre itself is slow at k = 10^4)
        prev, cur = mp.mpf(1), x
        for j in range(2, k + 1):
            prev, cur = cur, ((2 * j - 1) * x * cur - (j - 1) * prev) / j
        return cur
    lam = mp.mpf(n - 1) / 2
    return mp.gegenbauer(k, lam, x) / mp.gegenbauer(k, lam, 1)


# envelope-relative forward error <= FORWARD_C k eps.  The recurrence's
# worst ratio is 4.2 (n=2, k=10^4) and 2.6 (n=3, k=10^5), both in scipy's
# power series at |t| < 1e-5, and below 0.25 elsewhere.  At n >= 2 these
# degrees take the Darboux expansion on all but the boundary angles; its
# worst ratio here is 1.07 (n=3, k=10^6), and 1.3 on other angles.  n = 1
# takes the closed form, below 0.5 everywhere; scipy's eval_chebyt, which
# it replaced, read 327 at k=10^4 and 9,656 at k=10^5 at x = 1 - 2^-52.
FORWARD_C = 8.0


def _boundary_angles(n, k):
    # 0.1% to either side of the expansion's domain edge, at both poles
    bound = _darboux_plan(n, k).bound
    edge = math.acos(bound)
    outside, inside = edge * (1.0 - 1e-3), edge * (1.0 + 1e-3)
    assert math.cos(inside) < bound <= math.cos(outside)
    return np.array([outside, inside, math.pi - outside, math.pi - inside])


def test_forward_error_grows_like_k_eps():
    import mpmath as mp

    gen = np.random.default_rng(17)
    # the last three angles have |t| < 1e-5, where scipy sums a power series
    base = np.concatenate([gen.uniform(0.05, math.pi - 0.05, size=8),
                           math.pi / 2 - np.array([1e-7, 3e-6, -8e-6])])
    cases = ([(n, 10**e) for n in (1, 3) for e in (3, 4, 5, 6)] + [(2, 10**3), (2, 10**4)]
             + [(n, k) for n in (4, 5) for k in (1000, 3000)])
    with mp.workdps(40):
        for n, k in cases:
            theta = base if n == 1 else np.concatenate([base, _boundary_angles(n, k)])
            t = np.cos(theta)
            vals = legendre_normalized(ZonalIndex(n=n, k=k), t)
            refs = np.array([float(_mp_value_one(n, k, ti)) for ti in t])
            worst = float(np.max(np.abs(vals - refs) / _envelope(n, k, theta)))
            assert worst <= FORWARD_C * k * np.finfo(float).eps, (n, k, worst)


def test_circle_forward_error_at_the_pole_and_the_switch():
    # x = |t| next to 1, at the closed form's switch x = sqrt(1/2) between
    # its two angles, and at 0.5 and 0 on the asin(x) side; k = 10^8 is out
    # of reach of a k-step loop in test time
    import mpmath as mp

    half = math.sqrt(0.5)
    x = np.array([1.0 - 2.0**-52, 1.0 - 2.0**-40, 1.0 - 1e-12, 0.999999,
                  np.nextafter(half, 0.0), half, np.nextafter(half, 1.0), 0.5, 0.0])
    t = np.concatenate([x, -x])
    with mp.workdps(50):
        for k in (10**3, 10**4, 10**5, 10**6, 10**8):
            vals = legendre_normalized(ZonalIndex(n=1, k=k), t)
            refs = np.array([float(_mp_value_one(1, k, ti)) for ti in t])
            worst = float(np.max(np.abs(vals - refs)))
            assert worst <= FORWARD_C * k * np.finfo(float).eps, (k, worst)


def test_circle_half_angle_branch_error_is_relative_to_the_angle():
    # next to x = 1 the half-angle branch rounds theta to half an ulp of itself,
    # so the error stays within (1 + k theta) eps, and near 0.55 of it at worst;
    # asin(x) at these angles reads 102, 1.3e5 and 9.6e6 times that bound
    import mpmath as mp

    x = np.array([1.0 - 2.0**-j for j in range(8, 53, 2)])
    t = np.concatenate([x, -x])
    with mp.workdps(50):
        theta = np.array([float(mp.acos(mp.mpf(float(xi)))) for xi in np.abs(t)])
        for k in (10**3, 10**6, 10**8):
            vals = legendre_normalized(ZonalIndex(n=1, k=k), t)
            refs = np.array([float(_mp_value_one(1, k, ti)) for ti in t])
            worst = float(np.max(np.abs(vals - refs) / (1.0 + k * theta)))
            assert worst <= np.finfo(float).eps, (k, worst)


def test_darboux_plan_covers_the_default_window():
    # from K_EXPANSION on, the expansion's domain holds the default window
    # [1, pi - 1], so every angle of it takes the expansion there
    t = np.cos(np.linspace(1.0, math.pi - 1.0, 33))
    for n in (2, 3, 4):
        for j in range(K_EXPANSION, 301):
            assert np.all(np.abs(t) < _darboux_plan(n, j).bound), (n, j)


def test_array_shape_and_order_keep_values():
    # the expansion and the closed form run over a flat copy of the angles in chunks
    t = np.cos(np.linspace(0.01, math.pi - 0.01, 10_000)).reshape(100, 100)
    for n in (1, 2, 3):
        idx = ZonalIndex(n=n, k=300)
        flat = legendre_normalized(idx, t.ravel()).reshape(t.shape)
        np.testing.assert_array_equal(legendre_normalized(idx, t), flat)
        np.testing.assert_array_equal(legendre_normalized(idx, np.asfortranarray(t)), flat)
        np.testing.assert_array_equal(legendre_normalized(idx, t.T), flat.T)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_each_value_is_independent_of_the_other_angles(n, monkeypatch):
    # CHUNK is lowered so that a few hundred angles on [0, pi], bunched at
    # both poles, fill chunks that lie all inside the expansion's domain,
    # all outside it, or both (for n = 1: all below the closed form's switch
    # |t| = sqrt(1/2), all above it, or both); the chunking code reads CHUNK
    # at call time
    monkeypatch.setattr(special, "CHUNK", 64)
    pole = np.geomspace(1e-7, 0.05, 2 * special.CHUNK)
    theta = np.concatenate([[0.0], pole, np.linspace(0.05, math.pi - 0.05, 3 * special.CHUNK),
                            math.pi - pole[::-1], [math.pi]])
    assert theta.size > 2 * special.CHUNK
    t = np.cos(theta)
    kinds = set()
    for k in (32, 300, 4097):
        idx = ZonalIndex(n=n, k=k)
        alone = np.array([legendre_normalized(idx, ti) for ti in t])
        # bit for bit, signed zeros included
        np.testing.assert_array_equal(legendre_normalized(idx, t).view(np.int64), alone.view(np.int64), err_msg=f"k={k}")
        plan = _darboux_plan(n, k) if n > 1 else None
        if n == 1 or plan is not None:
            inside = np.abs(t) < (plan.bound if plan else math.sqrt(0.5))
            for lo in range(0, t.size, special.CHUNK):
                kinds.add(frozenset(inside[lo:lo + special.CHUNK]))
    assert kinds >= {frozenset([True]), frozenset([False]), frozenset([True, False])}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_chunk_size_keeps_every_value(n, monkeypatch):
    # the 2^17 default-window angles of the kernel benchmark, and a sweep of
    # [0, pi] whose chunks cross the expansion's domain and the closed form's
    # switch, in 4096-angle chunks and in 16384-angle ones
    window = AngleWindow().nodes(256, 1 << 17)[1]
    sweep = np.cos(np.linspace(0.0, math.pi, 20_000))
    for k, t in [(248, window), (256, window), (257, window), (264, window), (300, sweep), (4097, sweep)]:
        idx = ZonalIndex(n=n, k=k)
        vals = []
        for chunk in (4096, 16384):
            monkeypatch.setattr(special, "CHUNK", chunk)
            vals.append(legendre_normalized(idx, t).view(np.int64))
        np.testing.assert_array_equal(vals[0], vals[1], err_msg=f"k={k}")


def test_expansion_memory_is_chunked(monkeypatch):
    # the expansion and the closed form hold a dozen temporaries per angle;
    # over 16384-angle chunks of these 2^18 angles the call peaks near 1.7
    # input sizes on one thread (the result and one chunk's temporaries; an
    # argument inside [-1, 1] is not copied), and each further thread holds
    # one more chunk's, near 3.5 at MAX_WORKERS; over the whole array at once
    # near 12
    t = np.cos(np.linspace(0.0, math.pi, 2**18))
    for workers in (1, special.MAX_WORKERS):
        _with_workers(monkeypatch, workers)
        for n in (1, 2):
            tracemalloc.start()
            try:
                legendre_normalized(ZonalIndex(n=n, k=512), t)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 5 * t.nbytes, (workers, n)


@pytest.fixture
def thread_starts(monkeypatch):
    """Counts threading.Thread.start calls while the test runs."""
    starts = []
    start = threading.Thread.start

    def counted(thread):
        starts.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return starts


def _with_workers(monkeypatch, workers):
    monkeypatch.setattr(special, "_workers", lambda chunks: min(chunks, workers))


def test_worker_count_keeps_every_value(monkeypatch, thread_starts):
    # five chunks of a C = 0.02 window, whose first and last chunks mix
    # expansion and recurrence angles (n >= 2; for n = 1, the closed form's
    # two branches), and five of the default window, all recurrence below
    # K_EXPANSION, on 1, 2 and MAX_WORKERS threads: the value-one evaluation,
    # the leading forms and the bracket errors keep their bits
    size = 5 * special.CHUNK
    narrow, default = AngleWindow(c=0.02), AngleWindow()
    kinds = set()
    for n in (1, 2, 3, 4, 5):
        for k, window in [(256, narrow), (257, narrow), (1000, narrow), (256, default), (31, default)]:
            idx = ZonalIndex(n=n, k=k)
            theta, t, _ = window.nodes(k, size)
            got = []
            for workers in (1, 2, special.MAX_WORKERS):
                _with_workers(monkeypatch, workers)
                before = len(thread_starts)
                arrays = [legendre_normalized(idx, t)]
                assert len(thread_starts) - before == workers - 1
                for form in (legendre_leading, projector_leading, gegenbauer_leading):
                    lead = form(idx, theta)
                    arrays += [lead.value, lead.amplitude * np.cos(asymptotics._phase_alpha(idx, theta))]
                _, exact, lead, rel = bracket_errors_on_grid(idx, window, size)
                arrays += [exact, lead.value, rel]
                got.append([a.view(np.int64) for a in arrays])
            for other in got[1:]:
                for ref, arr in zip(got[0], other):
                    np.testing.assert_array_equal(arr, ref, err_msg=f"n={n} k={k}")
            # the chunked leading value is the plain product, bit for bit
            for a in range(1, 7, 2):
                np.testing.assert_array_equal(got[0][a], got[0][a + 1])
            plan = _darboux_plan(n, k) if n > 1 else None
            inside = np.abs(t) < (plan.bound if plan else math.sqrt(0.5))
            kinds |= {frozenset(inside[lo:lo + special.CHUNK]) for lo in range(0, size, special.CHUNK)}
    assert kinds >= {frozenset([True]), frozenset([True, False])}


@pytest.mark.parametrize("late", [True, False])
def test_chunk_error_reaches_the_caller(monkeypatch, late):
    # a chunk raising on a worker thread (late) or on the caller's own run:
    # the ValueError reaches the caller, and every thread has ended by then
    _with_workers(monkeypatch, special.MAX_WORKERS)
    x = np.arange(4 * special.CHUNK, dtype=float)
    bad = x[-1] if late else 0.0

    def fn(xs, out):
        if xs[0] <= bad <= xs[-1]:
            raise ValueError("chunk refused")
        out[...] = xs

    threads = threading.active_count()
    with pytest.raises(ValueError, match="chunk refused"):
        special._in_chunks(fn, x)
    assert threading.active_count() == threads
    np.testing.assert_array_equal(special._in_chunks(lambda xs, out: np.copyto(out, xs), x), x)
    assert threading.active_count() == threads


def test_many_threads_with_fast_switching_keep_every_value(monkeypatch):
    # more threads than CPUs, switching every microsecond: every chunk still
    # lands in its own slice, and no thread outlives the call
    monkeypatch.setattr(special, "CHUNK", 64)
    _with_workers(monkeypatch, 8)
    x = np.arange(20 * special.CHUNK + 3, dtype=float)
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(50):
            out = special._in_chunks(lambda xs, out: np.negative(xs, out=out), x)
            np.testing.assert_array_equal(out, -x)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads


def test_empty_or_one_chunk_input_starts_no_thread(monkeypatch, thread_starts):
    _with_workers(monkeypatch, special.MAX_WORKERS)
    for n in (1, 2):
        assert legendre_normalized(ZonalIndex(n=n, k=300), np.empty((0, 3))).shape == (0, 3)
        assert legendre_normalized(ZonalIndex(n=n, k=300), np.linspace(-1.0, 1.0, special.CHUNK)).shape == (special.CHUNK,)
    assert special._in_chunks(np.copyto, np.empty(0)).shape == (0,)
    assert thread_starts == []


def test_worker_count_is_capped_by_chunks_cpus_and_max_workers(monkeypatch):
    cap = special.MAX_WORKERS
    monkeypatch.setattr(special.os, "sched_getaffinity", lambda pid: set(range(cap + 3)), raising=False)
    assert [special._workers(c) for c in (0, 1, cap - 1, cap + 5)] == [0, 1, cap - 1, cap]
    monkeypatch.setattr(special.os, "sched_getaffinity", lambda pid: {0})
    assert special._workers(100) == 1
    # where the affinity call is missing, the CPU count stands in
    monkeypatch.delattr(special.os, "sched_getaffinity")
    monkeypatch.setattr(special.os, "cpu_count", lambda: 2)
    assert special._workers(100) == min(2, cap)
    monkeypatch.setattr(special.os, "cpu_count", lambda: None)
    assert special._workers(100) == 1


@pytest.mark.filterwarnings("error")
def test_large_dimension_keeps_the_recurrence():
    # from L = (n-1)/2 = 90 no degree inside the range guard has an
    # expansion domain, and 4^L (1/2)_L in its scale overflows from L = 172
    t = np.array([0.1, 0.5, 0.9])
    for n in (181, 401, 1025, 1100):
        lam = 0.5 * (n - 1)
        for k in range(K_EXPANSION, 101):
            assert _darboux_plan(n, k) is None
            vals = legendre_normalized(ZonalIndex(n=n, k=k), t)
            assert np.all(np.isfinite(vals))
            np.testing.assert_array_equal(vals, eval_gegenbauer(k, lam, t) / binom(k + n - 2.0, k))


def test_gamma_ratio_against_mpmath():
    # k! / Gamma(k + L + 1), the expansion's scale; measured within 33 ulps
    # for L <= 2.5 up to k = 10^8
    import mpmath as mp

    with mp.workdps(40):
        for lam in (0.5, 1.0, 1.5, 2.0, 2.5):
            for k in (13, 32, 255, 9_999, 10_000, 10**6, 10**8):
                ref = float(mp.gamma(k + 1) / mp.gamma(k + 1 + mp.mpf(lam)))
                assert _gamma_ratio(k, lam) == pytest.approx(ref, rel=64 * np.finfo(float).eps), (lam, k)


def test_degree_range_raises():
    # binom(k + n - 2, k) is finite up to n=100, k=52024, n=200, k=2574 and
    # n=400, k=687; past it scipy's loop returns NaN
    for n, k in ((100, 25_000), (200, 2574), (400, 20)):
        vals = legendre_normalized(ZonalIndex(n=n, k=k), np.array([-0.4, 0.0, 3e-6, 0.3]))
        assert np.all(np.isfinite(vals)) and np.max(np.abs(vals)) <= 1.0
    for n, k in ((200, 2575), (200, 25_000), (400, 1000)):
        with pytest.raises(ValueError, match="outside the evaluated range"):
            legendre_normalized(ZonalIndex(n=n, k=k), 0.3)
    # from k > 1e8 (n-1)/2 scipy scales its loop by 2L/k instead
    theta = 1.2
    k = 50_000_000
    lead = _envelope(2, k, theta) * math.cos((k + 0.5) * theta - 0.25 * math.pi)
    err = abs(legendre_normalized(ZonalIndex(n=2, k=k), math.cos(theta)) - lead)
    assert err <= 1e-6 * _envelope(2, k, theta)
    with pytest.raises(ValueError, match="outside the evaluated range"):
        legendre_normalized(ZonalIndex(n=2, k=k + 1), math.cos(theta))
    # on the circle float(k) must be exact, so k <= 2^53
    assert abs(legendre_normalized(ZonalIndex(n=1, k=2**53), math.cos(theta))) <= 1.0
    for k in (2**53 + 1, 10**17):
        with pytest.raises(ValueError, match="outside the evaluated range"):
            legendre_normalized(ZonalIndex(n=1, k=k), math.cos(theta))


def test_dimension_range_raises():
    # L = (n - 1)/2 is an exact double up to n = 2^53; float(10^400) overflows
    assert legendre_normalized(ZonalIndex(n=2**53, k=1), 0.3) == pytest.approx(0.3, rel=1e-15)
    for n, k in ((2**53 + 1, 0), (10**400, 0), (10**400, 3)):
        with pytest.raises(ValueError, match=r"outside the evaluated range: n <= 2\^53"):
            legendre_normalized(ZonalIndex(n=n, k=k), 0.3)


def _accepted(n, k):
    try:
        _check_range(n, k)
    except ValueError:
        return False
    return True


def test_range_guard_matches_scipy_binom_finiteness():
    # the guard's bounds on binom(k + n - 2, k) leave scipy's binom to decide
    # near the overflow threshold; below the 1e8 (n-1)/2 degree limit the two
    # agree on the last accepted degree and on either side of it
    def finite(n, k):
        return math.isfinite(binom(k + n - 2.0, k))

    for n in range(2, 1201):
        lo, hi = 0, 10**7 * (n - 1)
        if finite(n, hi):
            assert _accepted(n, hi) and _accepted(n, hi // 3), n
            continue
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if finite(n, mid) else (lo, mid)
        for k in (lo // 2, lo - 1, lo, hi, hi + 1, 2 * hi):
            assert _accepted(n, k) == finite(n, k), (n, k)


def test_range_guard_is_fast_far_past_the_threshold():
    # an exact integer binom(2 10^6 - 2, 10^6) alone takes tens of seconds
    start = time.perf_counter()
    with pytest.raises(ValueError, match="outside the evaluated range"):
        legendre_normalized(ZonalIndex(10**6, 10**6), 0.3)
    assert time.perf_counter() - start < 1.0


def test_scaled_half_pochhammer_is_correctly_rounded():
    # 4^L (1/2)_L, L = (n-1)/2, over every L the expansion's scale can reach
    import mpmath as mp

    with mp.workprec(400):
        for n in range(2, 181):
            m, half = divmod(n - 1, 2)
            if half:
                ref = float(2 * 4**m * mp.factorial(m) / mp.sqrt(mp.pi))
            else:
                ref = float(4**m * math.prod(Fraction(2 * j + 1, 2) for j in range(m)))
            assert _scaled_half_pochhammer(n) == ref, n


def test_argument_clamp():
    idx = ZonalIndex(n=2, k=3)
    assert legendre_normalized(idx, 1.0 + 1e-13) == 1.0
    np.testing.assert_allclose(
        legendre_normalized(idx, -1.0 - 1e-13), -1.0, rtol=0, atol=1e-15
    )
    with pytest.raises(ValueError):
        legendre_normalized(idx, 1.0 + 1e-9)
    with pytest.raises(ValueError, match="NaN"):
        legendre_normalized(idx, math.nan)
    with pytest.raises(ValueError, match="NaN"):
        legendre_normalized(idx, np.array([0.1, math.nan, 0.3]))
    with pytest.raises(ValueError, match="NaN"):
        projector_kernel(idx, np.array([[0.5, -0.5], [math.nan, 1.0]]))
    for bad in (math.inf, -math.inf):
        with pytest.raises(ValueError, match="outside"):
            legendre_normalized(idx, np.array([0.5, bad]))
    for n in (1, 2):
        for k in (3, 300):
            assert legendre_normalized(ZonalIndex(n=n, k=k), np.empty((2, 0))).shape == (2, 0)


def test_clamp_passes_an_in_range_argument_through():
    # an argument inside [-1, 1] is used as given, with no clipped copy, and is
    # never written: a read-only one is accepted and keeps its bits
    t = np.cos(np.linspace(0.0, math.pi, 1001))
    t.flags.writeable = False
    before = t.copy()
    assert special._clamped(t) is t
    for n in (1, 2, 3):
        for k in (3, 33, 300):
            legendre_normalized(ZonalIndex(n=n, k=k), t)
    np.testing.assert_array_equal(t.view(np.int64), before.view(np.int64))
    # a value within the slack outside [-1, 1] is still clamped, into a new array
    edge = np.array([0.5, 1.0 + 1e-13, -1.0 - 1e-13])
    clamped = special._clamped(edge)
    assert clamped is not edge and clamped.tolist() == [0.5, 1.0, -1.0]
    assert edge[1] == 1.0 + 1e-13
    assert legendre_normalized(ZonalIndex(n=2, k=4), edge)[1] == 1.0


_angles = st.lists(
    st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)), min_size=1, max_size=6
)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), k=st.integers(0, 300), t=_angles)
def test_recurrence_properties(n, k, t):
    idx = ZonalIndex(n=n, k=k)
    t = np.array(t)
    vals = legendre_normalized(idx, t)
    sign = -1.0 if k % 2 else 1.0
    # negation is exact and every step of the recurrence is odd or even in t
    np.testing.assert_array_equal(legendre_normalized(idx, -t), sign * vals)
    assert np.max(np.abs(vals)) <= 1.0 + 1e-10
    np.testing.assert_array_equal(legendre_normalized(idx, np.array([1.0, -1.0])), [1.0, sign])
