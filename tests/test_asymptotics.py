import math

import numpy as np
import pytest

from oracles import gaussian_coefficient_numeric, gegenbauer_norm_constant
from zonal.asymptotics import (
    DELTA_MAX,
    AngleWindow,
    AsymptoticValue,
    _phase_alpha,
    c_constant_leading,
    gaussian_leading_coefficient,
    gegenbauer_leading,
    legendre_leading,
    projector_leading,
)
from zonal import asymptotics, special
from zonal.special import ZonalIndex, dim_eigenspace, vol_sphere


def test_phase_values():
    np.testing.assert_allclose(_phase_alpha(ZonalIndex(n=1, k=12), 0.7), 8.4, rtol=1e-15)
    assert _phase_alpha(ZonalIndex(n=3, k=0), math.pi / 2) == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(
        _phase_alpha(ZonalIndex(n=2, k=10), math.pi / 2),
        10.5 * math.pi / 2 - math.pi / 4,
        rtol=1e-15,
    )


def test_circle_phase_is_k_theta():
    # at n = 1 the (n - 1) term is +-0 on finite angles, so the phase is the
    # product k theta bit for bit, signed zeros and type included
    theta = np.array([[0.0, -0.0, 5e-324, 0.7], [math.pi / 2, 3.0, -2.0, 1e290]])
    for k in (0, 1, 12, 4097, 2**53):
        idx = ZonalIndex(n=1, k=k)
        general = k * theta + (0.5 * theta - 0.25 * math.pi) * 0
        for arr, ref in ((theta, general), (theta[0, 3], general[0, 3])):
            phase = _phase_alpha(idx, arr)
            assert type(phase) is type(ref) and np.shape(phase) == np.shape(ref)
            np.testing.assert_array_equal(np.asarray(phase).view(np.int64), np.asarray(k * arr).view(np.int64))
            np.testing.assert_array_equal(np.asarray(phase).view(np.int64), np.asarray(ref).view(np.int64))
    # the general form's inf * 0 would give NaN; the leading forms refuse
    # infinite angles before they reach the phase
    np.testing.assert_array_equal(_phase_alpha(ZonalIndex(n=1, k=3), [math.inf, -math.inf]), [math.inf, -math.inf])


def test_asymptotic_value_composition():
    av = AsymptoticValue(amplitude=2.0, phase=0.3)
    assert av.value == 2.0 * np.cos(0.3)
    assert type(av.value) is type(2.0 * np.cos(0.3))


def form_of(monkeypatch, fn):
    """The (k, L) -> (c, b) form that a public leading form hands to the shared helper."""
    with monkeypatch.context() as m:
        m.setattr(asymptotics, "_leading", lambda idx, theta, form, *rest: form)
        return fn(ZonalIndex(n=2, k=1), 1.0)


def plain_leading(form, n, k, theta, exact):
    # numpy's whole-array arithmetic, as the leading forms ran before their
    # one chunked pass: amplitude, phase, value and |exact - value| / amplitude
    arr = np.asarray(theta, dtype=float)
    lam = 0.5 * (n - 1)
    c, b = form(k, lam)
    if lam:
        b *= c ** (1.0 / lam)
        with np.errstate(over="ignore"):
            amp = b / np.sin(arr)
            amp **= lam
        phase = k * arr + (0.5 * arr - 0.25 * math.pi) * (n - 1)
    else:
        amp, phase = c * np.ones_like(arr), k * arr
    value = amp * np.cos(phase)
    return amp, phase, value, np.abs(exact - value) / amp


@pytest.mark.filterwarnings("error")
def test_asymptotic_value_in_chunks_is_the_product(monkeypatch):
    # the leading forms' one pass over special's chunks, threaded past one
    # chunk, keeps the bits of the whole-array arithmetic: the amplitude,
    # the phase, the value amplitude * cos(phase) and the bracket error.
    # Signed zeros, infinities and NaNs in the exact values pass through the
    # error; at n = 301 amplitudes away from the poles underflow to 0, so
    # values are +-0 and errors divide by 0; at k = 2^1023 most phases
    # overflow to inf and their cosines are NaN.  The caller's np.errstate
    # holds on the threads that meet them
    monkeypatch.setattr(special, "_workers", lambda chunks: min(chunks, special.MAX_WORKERS))
    gen = np.random.default_rng(7)
    size = 3 * special.CHUNK + 5
    theta = gen.uniform(0.01, 3.13, size)
    exact = gen.uniform(-3.0, 3.0, size)
    for ends in (slice(0, 12), slice(-12, None)):
        exact[ends] = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.0] * 2
    row = slice(0, special.CHUNK + 7)
    cases = [(theta, exact), (theta[:-5].reshape(3, -1), exact[:-5].reshape(3, -1)), (theta[::2], exact[::2]),
             (np.broadcast_to(theta[row], (3, row.stop)), np.broadcast_to(exact[row], (3, row.stop))),
             # one chunk, on the caller alone, and angles given in float32
             (theta[:10], exact[:10]), (theta.astype(np.float32), exact)]
    forms = [(legendre_leading, 1, 7), (legendre_leading, 2, 256), (projector_leading, 4, 7),
             (gegenbauer_leading, 3, 31), (legendre_leading, 301, 40000),
             (legendre_leading, 1, 2**1023), (gegenbauer_leading, 2, 2**1023)]
    signs = set()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for fn, n, k in forms:
            form = form_of(monkeypatch, fn)
            for th, ex in cases:
                idx = ZonalIndex(n=n, k=k)
                refs = plain_leading(form, n, k, th, ex)
                lead = fn(idx, th)
                fused, rel = asymptotics._leading(idx, th, form, None, ex)
                got = (lead.amplitude, lead.phase, lead.value, fused.amplitude, fused.phase, fused.value, rel)
                for arr, ref in zip(got, refs[:3] * 2 + refs[3:]):
                    assert type(arr) is np.ndarray and arr.shape == ref.shape and arr.dtype == ref.dtype
                    np.testing.assert_array_equal(arr.view(np.int64), ref.view(np.int64), err_msg=f"{fn.__name__} n={n}")
                signs |= set(np.signbit(lead.value[lead.value == 0.0]).ravel().tolist())
    assert signs == {False, True}
    assert np.isnan(lead.value).any() and np.isinf(lead.phase).any()


def test_one_angle_gives_its_value_in_any_batch():
    # a 0-d angle runs the chunk arithmetic of an array, so its amplitude,
    # phase and value are its entries in any batch, bit for bit (numpy's
    # scalar power puts about 1 in 26 of them an ulp away, n = 2..11)
    theta = np.random.default_rng(3).uniform(0.01, 3.13, 300)
    for fn in (legendre_leading, projector_leading, gegenbauer_leading):
        for n in (1, 2, 3, 4, 7, 10):
            for k in (3, 256, 10**4):
                batch = fn(ZonalIndex(n=n, k=k), theta)
                for i in range(0, theta.size, 7):
                    one = fn(ZonalIndex(n=n, k=k), float(theta[i]))
                    for f in ("amplitude", "phase", "value"):
                        got, ref = getattr(one, f), getattr(batch, f)[i]
                        assert type(got) is np.float64 and got.view(np.int64) == ref.view(np.int64), (fn, n, k, f)


def test_amplitude_check_is_the_largest_amplitude_bit_for_bit(monkeypatch):
    # the check (b / min sin)^L reads no full-size amplitude, and it is the
    # largest amplitude max(b / sin, b)^L bit for bit: correctly rounded
    # division falls as its divisor grows, and sin <= 1.  Each form refuses
    # exactly where that number is not a normal positive double, on random
    # windows at n = 2..400
    tiny = np.finfo(float).tiny
    gen = np.random.default_rng(11)
    for fn in (legendre_leading, projector_leading, gegenbauer_leading):
        form = form_of(monkeypatch, fn)
        outcomes = set()
        for n in range(2, 401):
            k = int(10 ** gen.uniform(0.0, 6.0))
            window = AngleWindow(c=gen.uniform(0.001, 1.0), delta=gen.uniform(0.0, DELTA_MAX))
            theta, _, sin = window.nodes(k, int(gen.integers(1, 3000)))
            lam = 0.5 * (n - 1)
            c, b = form(k, lam)
            b *= c ** (1.0 / lam)
            with np.errstate(over="ignore"):
                largest = (b / sin).max(initial=b) ** lam
                check = (b / sin.min(initial=1.0)) ** lam
            assert check.view(np.int64) == largest.view(np.int64), (fn, n, k, window)
            accepted = bool(tiny <= largest < math.inf)
            try:
                fn(ZonalIndex(n=n, k=k), theta)
            except ValueError:
                assert not accepted, (fn, n, k, window)
            else:
                assert accepted, (fn, n, k, window)
            outcomes.add(accepted)
        assert outcomes == {True, False}, fn


def test_few_and_many_angles_refuse_alike(monkeypatch):
    # three angles of a 2^17-angle window, its two ends among them, hold its
    # least sine, so both calls form the same largest amplitude and refuse
    # or accept alike, on each side of each form's refusal edge: on the
    # default window's 2^17 angles, legendre_leading at k = 4 accepts
    # n = 381 and refuses n = 382
    monkeypatch.setattr(special, "_workers", lambda chunks: min(chunks, special.MAX_WORKERS))
    theta, _, sin = AngleWindow().nodes(4, 1 << 17)
    few = [0, theta.size // 2, -1]
    assert sin[few].min() == sin.min()
    for fn, k, edge in ((legendre_leading, 4, 382), (projector_leading, 10**4, 190), (gegenbauer_leading, 4, 1644)):
        for n in range(edge - 2, edge + 2):
            outcomes = []
            for th in (theta[few], theta):
                try:
                    fn(ZonalIndex(n=n, k=k), th)
                    outcomes.append(True)
                except ValueError:
                    outcomes.append(False)
            assert outcomes == [n < edge] * 2, (fn, n)


def test_legendre_leading_laplace_envelope():
    # n=2 amplitude is the classical Laplace envelope
    theta = np.linspace(0.2, math.pi - 0.2, 9)
    for k in (5, 40):
        lead = legendre_leading(ZonalIndex(n=2, k=k), theta)
        # same symbolic quantity, different association order: allow a couple ulp
        np.testing.assert_allclose(lead.amplitude, np.sqrt(2.0 / (math.pi * k * np.sin(theta))), rtol=1e-15)


def test_legendre_leading_chebyshev_exact():
    theta = np.linspace(0.1, 3.0, 11)
    for k in (1, 8, 129):
        lead = legendre_leading(ZonalIndex(n=1, k=k), theta)
        assert np.all(np.asarray(lead.amplitude) == 1.0)
        np.testing.assert_array_equal(lead.value, np.cos(k * theta))


def test_legendre_leading_spot_value():
    lead = legendre_leading(ZonalIndex(n=2, k=10), math.pi / 2)
    # cos(5 pi) = -1, amplitude sqrt(2 / (10 pi))
    np.testing.assert_allclose(lead.value, -math.sqrt(2.0 / (10.0 * math.pi)), rtol=1e-14)
    # degree-10 Legendre value at 0 is -63/256; leading form lands nearby
    assert abs(float(lead.value) - (-63.0 / 256.0)) < 0.007


def test_projector_leading_amplitude_relation():
    theta = np.linspace(0.3, math.pi - 0.3, 7)
    for n in (1, 2, 3, 4):
        for k in (3, 17, 200):
            idx = ZonalIndex(n=n, k=k)
            proj = projector_leading(idx, theta)
            leg = legendre_leading(idx, theta)
            factor = 2.0 * float(k) ** (n - 1) / (math.factorial(n - 1) * vol_sphere(n))
            np.testing.assert_allclose(
                np.asarray(proj.amplitude), factor * np.asarray(leg.amplitude), rtol=1e-13
            )
            np.testing.assert_array_equal(proj.phase, leg.phase)


def test_projector_leading_circle_amplitude():
    lead = projector_leading(ZonalIndex(n=1, k=9), 1.1)
    np.testing.assert_allclose(lead.amplitude, 1.0 / math.pi, rtol=1e-15)


def test_gegenbauer_leading_matches_legendre_at_n2():
    theta = np.linspace(0.2, math.pi - 0.2, 9)
    idx = ZonalIndex(n=2, k=31)
    geg = gegenbauer_leading(idx, theta)
    leg = legendre_leading(idx, theta)
    np.testing.assert_allclose(np.asarray(geg.amplitude), np.asarray(leg.amplitude), rtol=1e-13)
    np.testing.assert_array_equal(geg.phase, leg.phase)


def test_gegenbauer_leading_circle_amplitude():
    lead = gegenbauer_leading(ZonalIndex(n=1, k=25), math.pi / 2)
    np.testing.assert_allclose(lead.amplitude, (math.pi * 25) ** -0.5, rtol=1e-15)


def test_gegenbauer_bridge_ratio():
    # r * legendre amplitude approaches the gegenbauer amplitude at rate 1/k
    theta = 1.0
    for n in (3, 4):
        for k in (100, 1000, 10_000):
            idx = ZonalIndex(n=n, k=k)
            r = gegenbauer_norm_constant(idx)
            ratio = float(
                np.asarray(gegenbauer_leading(idx, theta).amplitude)
                / (r * np.asarray(legendre_leading(idx, theta).amplitude))
            )
            assert abs(ratio - 1.0) < 5.0 / k


def test_c_constant_leading_values():
    # n=1 value is k-independent
    for k in (1, 7, 3000):
        np.testing.assert_allclose(
            c_constant_leading(ZonalIndex(n=1, k=k)),
            math.sqrt(math.pi * math.sqrt(2.0)),
            rtol=1e-15,
        )
    base = 1.0 / (2.0 * math.sqrt(2.0)) * vol_sphere(2) * vol_sphere(1)
    np.testing.assert_allclose(
        c_constant_leading(ZonalIndex(n=2, k=100)),
        math.sqrt(base) * (100.0 * math.pi) ** -0.25,
        rtol=1e-15,
    )
    with pytest.raises(ValueError):
        c_constant_leading(ZonalIndex(n=2, k=0))


def test_gaussian_closed_forms():
    assert gaussian_leading_coefficient(1, 0.77) == 1.0
    np.testing.assert_allclose(
        gaussian_leading_coefficient(2, math.pi / 2), math.sqrt(2.0) * math.pi, rtol=1e-15
    )
    th = 1.3
    expected = (
        (math.sqrt(2.0) * math.pi) ** 2
        * math.sin(th)
        * np.exp(1j * (0.5 * th - 0.25 * math.pi) * 2)
    )
    np.testing.assert_allclose(gaussian_leading_coefficient(3, th), expected, rtol=1e-14)


def test_gaussian_numeric_matches_closed_form():
    assert gaussian_coefficient_numeric(1, 1.0) == 1.0
    for n in (1, 2, 3, 4):
        for theta in (0.3, 1.0, math.pi / 2, 2.5):
            numeric = gaussian_coefficient_numeric(n, theta)
            closed = gaussian_leading_coefficient(n, theta)
            assert abs(numeric - closed) < 1e-6


def test_gaussian_domain_errors():
    with pytest.raises(ValueError):
        gaussian_coefficient_numeric(5, 1.0)
    with pytest.raises(ValueError):
        gaussian_coefficient_numeric(2, 0.0)
    with pytest.raises(ValueError):
        gaussian_leading_coefficient(0, 1.0)
    # True is an int to Python but not a dimension, as for ZonalIndex
    with pytest.raises(ValueError, match="True"):
        gaussian_leading_coefficient(True, 1.0)
    with pytest.raises(ValueError, match="True"):
        gaussian_coefficient_numeric(True, 1.0)


def test_gaussian_numeric_rejects_unvalidated_angles():
    # the grid would need about 32 |cot theta| nodes per axis, 16 GB at 1e-3;
    # the cheap edge angles come first so a missing guard fails before that
    for n in (1, 2, 4):
        for theta in (0.05, math.pi - 0.05, 1e-3, math.pi - 1e-3):
            with pytest.raises(ValueError, match="0.05"):
                gaussian_coefficient_numeric(n, theta)


def test_window_validation():
    with pytest.raises(ValueError):
        AngleWindow(c=0.0)
    with pytest.raises(ValueError):
        AngleWindow(delta=DELTA_MAX)
    with pytest.raises(ValueError):
        AngleWindow(delta=-0.01)


def test_window_bounds_and_grid():
    window = AngleWindow()
    lo, hi = window.bounds(1)
    assert (lo, hi) == (1.0, math.pi - 1.0)
    shrink = AngleWindow(c=1.0, delta=0.1)
    lo16, hi16 = shrink.bounds(16)
    np.testing.assert_allclose(lo16, 16.0**-0.1, rtol=1e-15)
    np.testing.assert_allclose(hi16, math.pi - 16.0**-0.1, rtol=1e-15)
    grid = shrink.nodes(16, 64)[0]
    assert grid.shape == (64,)
    assert np.all((grid > lo16) & (grid < hi16))
    step = (hi16 - lo16) / 64
    np.testing.assert_allclose(grid[0], lo16 + 0.5 * step, rtol=1e-14)
    with pytest.raises(ValueError):
        AngleWindow(c=2.0).bounds(1)
    with pytest.raises(ValueError):
        window.bounds(0)
    with pytest.raises(ValueError, match="^AngleWindow.nodes: expected integer size"):
        window.nodes(4, 0)
    # a non-integer size would give ceil(size) angles, the last on the window's edge
    for size in (2.5, 3.0, True):
        with pytest.raises(ValueError, match="^AngleWindow.nodes: expected integer size"):
            window.nodes(5, size)
    assert all(arr.shape == (3,) for arr in window.nodes(5, np.int64(3)))


def test_leading_forms_reject_bad_inputs():
    idx = ZonalIndex(n=2, k=0)
    for fn in (legendre_leading, projector_leading, gegenbauer_leading):
        with pytest.raises(ValueError):
            fn(idx, 1.0)
        with pytest.raises(ValueError):
            fn(ZonalIndex(n=2, k=5), 0.0)
        with pytest.raises(ValueError):
            fn(ZonalIndex(n=2, k=5), math.pi)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="strictly inside"):
                fn(ZonalIndex(n=2, k=5), bad)
            with pytest.raises(ValueError, match="strictly inside"):
                fn(ZonalIndex(n=1, k=5), np.array([[0.5, bad], [1.0, 2.0]]))
        for n in (1, 2):
            empty = fn(ZonalIndex(n=n, k=5), np.empty((0, 3)))
            assert np.shape(empty.amplitude) == np.shape(empty.value) == (0, 3)
    # amplitudes past DBL_MAX at the angle nearest a pole, or below the least
    # double, are refused rather than returned as inf, 0 or NaN
    for fn in (projector_leading, gegenbauer_leading):
        for n in (200, 400):
            with pytest.raises(ValueError):
                fn(ZonalIndex(n=n, k=10**4), np.array([1e-3, 1.0]))
    for n, k in ((400, 4), (1000, 4), (100, 10**8)):
        with pytest.raises(ValueError):
            legendre_leading(ZonalIndex(n=n, k=k), 1.0)
    # the constant 4^L (1/2)_L is a double below n = 270; there the product decides
    assert np.isfinite(projector_leading(ZonalIndex(n=200, k=4), 1.0).amplitude)


def test_circle_amplitude_is_the_form_constant():
    # at n = 1 each amplitude is its form's constant exactly, in the input's shape
    k = 7
    constants = {legendre_leading: 1.0, projector_leading: 1.0 / math.pi,
                 gegenbauer_leading: k**-0.5 / math.gamma(0.5)}
    theta = np.array([[0.3, 1.0, 2.0], [1e-9, 1.5, math.pi - 1e-9]])
    for fn, c in constants.items():
        for arg in (theta, np.float64(1.2), 1.2):
            lead = fn(ZonalIndex(n=1, k=k), arg)
            assert np.shape(lead.amplitude) == np.shape(arg)
            assert np.all(lead.amplitude == c)
            np.testing.assert_array_equal(lead.value, c * np.cos(k * np.asarray(arg)))


def leading_amplitude_mp(kind, n, k, theta):
    # each form's defining product at 40 digits: the Legendre envelope
    # 4^L (1/2)_L (2 k sin theta)^(-L) times the form's own factor
    import mpmath as mp

    with mp.workdps(40):
        n, k, lam = mp.mpf(n), mp.mpf(k), mp.mpf(n - 1) / 2
        legendre = 4**lam * mp.rf(mp.mpf(1) / 2, lam) * (2 * k * mp.sin(theta)) ** -lam
        factor = {
            "legendre": 1,
            "projector": 2 * k ** (n - 1) / mp.factorial(n - 1) / (2 * mp.pi ** ((n + 1) / 2) / mp.gamma((n + 1) / 2)),
            "gegenbauer": k ** (n / 2 - 1) / mp.gamma(n / 2),
        }[kind]
        return float(legendre * factor)


def test_leading_forms_reach_every_finite_amplitude():
    # at theta = pi/2 each amplitude is a double although one factor of it is
    # not: (0.5/k)^L underflows at (104, 10^6), k^(n-1) overflows at
    # (60, 10^6), and 4^L (1/2)_L at n = 300.  Measured within 5e-14
    forms = {"legendre": legendre_leading, "projector": projector_leading, "gegenbauer": gegenbauer_leading}
    for kind, n, expected in (
        ("legendre", 104, 2.787e-228),
        ("projector", 60, 9.048e152),
        ("gegenbauer", 120, 4.599e14),
        ("gegenbauer", 300, 5.694e41),
    ):
        idx = ZonalIndex(n=n, k=10**6)
        amplitude = float(forms[kind](idx, math.pi / 2).amplitude)
        reference = leading_amplitude_mp(kind, n, 10**6, math.pi / 2)
        np.testing.assert_allclose(amplitude, reference, rtol=1e-12, err_msg=f"{kind} n={n}")
        np.testing.assert_allclose(amplitude, expected, rtol=1e-3)
    np.testing.assert_allclose(
        float(gegenbauer_leading(ZonalIndex(n=120, k=10**6), math.pi / 2).amplitude),
        2.0**59.5 / math.sqrt(math.pi * 10**6), rtol=1e-14,
    )
    # about 1e-592: not a double, so still refused
    with pytest.raises(ValueError):
        legendre_leading(ZonalIndex(n=300, k=10**6), math.pi / 2)


def test_leading_forms_match_mpmath_across_dimensions():
    # within L + 8 ulp up to n = 40, off the poles
    theta = np.array([0.3, 1.0, 2.5])
    forms = {"legendre": legendre_leading, "projector": projector_leading, "gegenbauer": gegenbauer_leading}
    for kind, fn in forms.items():
        for n in (2, 3, 4, 5, 7, 12, 40):
            for k in (3, 256, 10**6):
                amplitude = np.asarray(fn(ZonalIndex(n=n, k=k), theta).amplitude)
                reference = [leading_amplitude_mp(kind, n, k, t) for t in theta]
                np.testing.assert_allclose(amplitude, reference, rtol=(0.5 * (n - 1) + 8) * 2.3e-16,
                                           err_msg=f"{kind} n={n} k={k}")


def test_sign_structure_at_large_degree():
    # the projector leading form is the legendre one scaled by a positive
    # factor, so their oscillation signs agree across the window
    for n in (2, 3):
        for k in (64, 256):
            idx = ZonalIndex(n=n, k=k)
            theta = AngleWindow().nodes(k, 200)[0]
            proj = projector_leading(idx, theta)
            leg = legendre_leading(idx, theta)
            assert np.all(np.asarray(proj.amplitude) > 0.0)
            assert np.all(np.sign(proj.value) == np.sign(leg.value))
            scale = dim_eigenspace(idx) / vol_sphere(n)
            mask = np.abs(leg.value) > 1e-3 * np.asarray(leg.amplitude)
            assert np.all(
                np.sign(proj.value)[mask] == np.sign(scale * np.asarray(leg.value))[mask]
            )
