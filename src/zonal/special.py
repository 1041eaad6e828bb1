"""Zonal kernels on the n-sphere in the value-one normalization.

The central object is the degree-k zonal polynomial normalized to 1 at
argument 1.  It is evaluated by one method per regime: on the circle (n = 1)
by the closed form cos(k theta), for n >= 2 at high degree away from the
poles by its complete Darboux expansion where that is exact to rounding,
and everywhere else by scipy's compiled recurrence in that normalization.
Everything else in the package (asymptotic brackets, the projector kernel,
the geometric cross-checks) is expressed against it.  Only the recurrence
imports scipy (as does the range check, for binom near the overflow edge),
so the closed form and the expansion run on numpy alone.  All three run
over chunks of CHUNK angles on up to MAX_WORKERS threads, one per CPU the
process may use; each value depends on its own angle alone and each chunk
writes only its own slice, so the bytes do not depend on the thread count.
"""
from __future__ import annotations

import contextvars
import functools
import math
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "ZonalIndex",
    "legendre_normalized",
    "dim_eigenspace",
    "vol_sphere",
    "projector_kernel",
]

# arguments this far outside [-1, 1] are clamped, beyond is a domain error
ARG_SLACK = 1e-12
# least degree evaluated by the Darboux expansion.  On 2^17 default-window
# angles the two cost the same near k = 20-21 at n = 2, 4, 6, and the
# expansion takes 38-41% less time at 32 (2 vCPUs, one BLAS thread); odd n,
# whose series ends after (n-1)/2 terms, wins from lower degrees.  It stays
# 32 because lowering it would change the values at the degrees it moves
K_EXPANSION = 32
# most terms of the expansion summed at one angle
MAX_TERMS = 20
# angles per pass of the value-one evaluation: a dozen 128 kB temporaries
# fit a 2 MB L2 cache, the numpy calls a pass makes run 8 times on 2^17
# angles, not 32, and 2^17 angles make 8 chunks to share between threads.
# Per kernel benchmark task (2 vCPUs, 2 threads) 4096 / 8192 / 16384 /
# 32768 / 131072 angles took 30.9 / 26.1 / 23.7 / 26.5 / 42.6 ms, the last
# on one thread
CHUNK = 16384
# most threads one call runs its chunks on: each holds one chunk's
# temporaries, about 0.6 of 2^18 input angles' size, so a 2^18-angle call
# peaks near 3.5 input sizes at 4 threads and 4.7 at 6
# (test_expansion_memory_is_chunked allows 5)
MAX_WORKERS = 4
_EPS = np.finfo(float).eps
_SQRT_HALF = math.sqrt(0.5)
# 2^27 + 1, Dekker's splitting factor for doubles
_DEKKER = 134217729.0
# B_2j / (2j (2j - 1)), j = 1..6: Stirling's series for log Gamma
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)
_INV_SQRT_PI_128 = 0x906EBA8214DB688D71D48A7F6BFEC344  # floor(2^128 / sqrt(pi))


def _is_int(value) -> bool:
    # bool subclasses int, but True is not a dimension or a degree
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ZonalIndex:
    """Sphere dimension n >= 1 and polynomial degree k >= 0."""

    n: int
    k: int

    def __post_init__(self):
        if not _is_int(self.n) or self.n < 1:
            raise ValueError(f"ZonalIndex.n: expected integer >= 1, got {self.n!r}")
        if not _is_int(self.k) or self.k < 0:
            raise ValueError(f"ZonalIndex.k: expected integer >= 0, got {self.k!r}")


def _clamped(t):
    """t as a float array inside [-1, 1]: t itself, never written, when it lies there already."""
    arr = np.asarray(t, dtype=float)
    lo, hi = arr.min(initial=0.0), arr.max(initial=0.0)
    # min and max carry a NaN through, and NaN fails the comparison
    if not (lo >= -1.0 - ARG_SLACK and hi <= 1.0 + ARG_SLACK):
        worst = float(arr[np.unravel_index(np.argmax(np.abs(arr)), arr.shape)]) if arr.ndim else float(arr)
        raise ValueError(f"legendre argument is NaN or outside [-1, 1] beyond clamp tolerance: {worst!r}")
    return arr if -1.0 <= lo and hi <= 1.0 else np.clip(arr, -1.0, 1.0)


def _gamma_ratio(k: int, lam: float) -> float:
    """k! / Gamma(k + lam + 1) for k >= 13, to a few ulps at small lam.

    Stirling's series for log Gamma at k + 1 + lam and at k + 1, subtracted
    term by term.  scipy's ``poch(k + 1, lam)`` takes exp of an lgamma
    difference below 1e4 and is off by up to 4 k eps there.
    """
    z = k + 1.0
    log = (z - 0.5) * math.log1p(lam / z) + lam * (math.log(z + lam) - 1.0)
    for j, c in enumerate(_STIRLING, 1):
        log += c * ((z + lam) ** (1 - 2 * j) - z ** (1 - 2 * j))
    return math.exp(-log)


def _scaled_half_pochhammer(n: int) -> float:
    """4^L (1/2)_L, L = (n-1)/2, correctly rounded: (2m)!/m! at L = m, and
    2 4^m m!/sqrt(pi) at L = m + 1/2 with 1/sqrt(pi) to 128 bits."""
    if n >= 270:  # past DBL_MAX, refused before the factorials cost time
        raise OverflowError(f"4^L (1/2)_L overflows a double at n={n}")
    m, half = divmod(n - 1, 2)
    if half:
        return 2 * 4**m * math.factorial(m) * _INV_SQRT_PI_128 / 2**128
    return float(math.factorial(2 * m) // math.factorial(m))


class _Plan(NamedTuple):
    scale: float
    coef: list[float]
    cut: list[float]
    bound: float


def _darboux_plan(n: int, k: int) -> _Plan | None:
    """Scale, coefficients, term cutoffs and domain of the expansion at degree k.

    With L = (n-1)/2 and s = 2 sin(theta) (Szego 8.21.14, DLMF 18.15.10,
    divided by the value at 1),

        P = scale * sum_m a_m cos((k + m + L) theta - (m + L) pi/2) / s^(m + L),
        scale = 4^L (1/2)_L k! / Gamma(k + L + 1),
        a_m = (L)_m (1 - L)_m / (m! (k + L + 1)_m),

    so |a_m| / s^m is term m's size relative to the envelope scale / s^L.
    Term m >= 1 is summed where every term 1..m is above eps, that is at
    s < cut[m - 1], so the first term left out is below eps.  The domain is
    s >= sigma, written as |t| < bound, and None when it is empty: there the
    envelope is at most 1 (absolute error no larger than envelope-relative),
    and within MAX_TERMS terms one falls below eps with none before it
    above the leading term.  For odd n, a_m = 0 from m = L on and the sum
    is exact.
    """
    lam = 0.5 * (n - 1)
    coef, cut = [1.0], [math.inf]
    sigma, largest = math.inf, 0.0
    for m in range(1, MAX_TERMS + 1):
        coef.append(coef[-1] * (lam + m - 1) * (m - lam) / (m * (k + lam + m)))
        below_eps = (abs(coef[m]) / _EPS) ** (1.0 / m)
        cut.append(min(cut[-1], below_eps))
        sigma = min(sigma, max(below_eps, largest))
        largest = max(largest, abs(coef[m]) ** (1.0 / m))
    if sigma >= 2.0:
        return None
    # sigma >= |a_1| = L |L - 1| / (k + L + 1), so k > L^2 / 2 - 2L, where a degree
    # passing _check_range has L < 90 and a finite scale
    scale = _scaled_half_pochhammer(n) * _gamma_ratio(k, lam)
    sigma = max(sigma, scale ** (1.0 / lam))
    if sigma >= 2.0:
        return None
    # strict in |t| < bound, so |t| = 1 stays outside even when bound rounds to 1
    bound = math.sqrt(1.0 - 0.25 * sigma**2)
    return _Plan(scale, coef[:MAX_TERMS], cut[1:MAX_TERMS], bound)


def _darboux(n: int, k: int, x: np.ndarray, plan: _Plan) -> np.ndarray:
    """The expansion at values |t| = x inside its domain, x of at most CHUNK."""
    scale, coef, cut, _ = plan
    lam = 0.5 * (n - 1)
    sin = np.sqrt((1.0 - x) * (1.0 + x))
    s = 2.0 * sin
    phase = (k + lam) * np.arccos(x) - 0.5 * lam * math.pi
    u = scale * s**-lam
    lo = s.min()
    if cut[0] <= lo:
        # the leading term alone at every angle, as at n = 3 always
        u *= np.cos(phase)
        return u
    # u + iv = scale 2^m exp(i phase_m) / s^(m + L), so each term multiplies it by
    # the step factor 2 (1/2 - (i/2) cot theta) = 1 - i cot theta
    cot = x / sin
    v = u * np.sin(phase)
    u *= np.cos(phase)
    acc = u.copy()
    tmp, tmp2 = np.empty_like(x), np.empty_like(x)
    hi = s.max()
    for m in range(1, MAX_TERMS):
        if cut[m - 1] <= lo:
            break
        np.multiply(cot, v, out=tmp)
        np.multiply(cot, u, out=tmp2)
        v -= tmp2
        u += tmp
        np.multiply(u, coef[m] * 0.5**m, out=tmp)
        if cut[m - 1] < hi:
            tmp *= s < cut[m - 1]
        acc += tmp
    return acc


def _check_range(n: int, k: int) -> None:
    """Raise unless n <= 2^53, binom(k + n - 2, k) is a finite double and k <= 1e8 (n - 1) / 2.

    Past n = 2^53, L = (n - 1) / 2 is no longer an exact double, and from
    about 10^308 not a double at all.  Past either other limit scipy's loop
    returns NaN or rescales itself by 2 L / k.
    (N/r)^r <= binom(N, r) <= (e N/r)^r, N = k + n - 2, r = min(k, n - 2), settles
    degrees far from overflow; nearer, scipy's binom decides, off by about k eps.
    """
    if n > 2**53:
        raise ValueError("legendre dimension n is outside the evaluated range: "
                         "n <= 2^53, so that L = (n - 1) / 2 is an exact double")
    r = min(k, n - 2)
    low = r * (math.log(k + n - 2) - math.log(r)) if r else 0.0
    if low + r >= 709.0 and low <= 710.0:
        from scipy.special import binom

        low = 0.0 if math.isfinite(binom(k + n - 2.0, k)) else math.inf
    if low > 710.0 or (k and 0.5 * (n - 1) / k < 1e-8):
        raise ValueError(f"legendre degree k={k} on S^{n} is outside the evaluated range: "
                         "binom(k + n - 2, k) must be a finite double and k <= 1e8 (n - 1) / 2")


def _recurrence(n: int, k: int, x: np.ndarray) -> np.ndarray:
    """scipy's compiled value-one loop at x = |t|, imported on first use."""
    from scipy.special import binom, eval_gegenbauer

    return eval_gegenbauer(k, 0.5 * (n - 1), x) / binom(k + n - 2.0, k)


def _chebyshev(k: int, x: np.ndarray, out: np.ndarray) -> None:
    """T_k(x) = cos(k theta) at x = cos(theta) in [0, 1], written into out.

    The angle multiplied by k stays below pi/4, so its rounding costs at
    most half an ulp of a small number.  From x = sqrt(1/2) up, 1 - x is
    exact (Sterbenz) and theta = 2 asin(sqrt((1 - x)/2)); below it,
    k theta = k pi/2 - k asin(x), whose quarter turns k mod 4 select
    cos(ka), sin(ka), -cos(ka) or -sin(ka).  The product k * angle is split
    exactly into p + e (Dekker 1971), and cos(p + e) = cos p - e sin p,
    sin(p + e) = sin p + e cos p to rounding.
    """
    any_high = x.max() >= _SQRT_HALF
    if any_high:
        high = x >= _SQRT_HALF
        angle = np.arcsin(np.where(high, np.sqrt(0.5 * (1.0 - x)), x))
        np.multiply(angle, 2.0, out=angle, where=high)
    else:
        # no half angle to take, as on every default-window chunk (cos 1 < sqrt(1/2))
        angle = np.arcsin(x)
    p = float(k) * angle
    a_hi, a_lo = _split(angle)
    k_hi, k_lo = _split(float(k))
    e = ((k_hi * a_hi - p) + k_hi * a_lo + k_lo * a_hi) + k_lo * a_lo
    cos_p, sin_p = np.cos(p), np.sin(p)
    low = sin_p + e * cos_p if k % 2 else cos_p - e * sin_p
    if k % 4 >= 2:
        np.negative(low, out=out)
    else:
        out[...] = low
    if any_high:
        # cos(k theta) from sqrt(1/2) up, which is low before its sign at even k
        np.copyto(out, cos_p - e * sin_p if k % 2 else low, where=high)


def _split(a):
    """a = hi + lo, each half of at most 26 significant bits, so their products are exact."""
    big = _DEKKER * a
    hi = big - (big - a)
    return hi, a - hi


def _workers(chunks: int) -> int:
    """Threads for that many chunks: at most one per chunk and per CPU the process may use, and MAX_WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(chunks, cpus, MAX_WORKERS)


def _in_chunks(fn, *arrays: np.ndarray) -> np.ndarray:
    """fn(*chunks, out) over arrays of one shape, flattened, CHUNK values at a time.

    A chunk's temporaries stay in cache.  The chunks are split into one
    contiguous run per worker: the caller takes the first run and a thread
    each of the others.  fn writes only its own out, so the bytes do not
    depend on the worker count.  Once every thread has ended, the first
    exception in run order reaches the caller.
    """
    flats = [a.ravel() for a in arrays]
    flat = np.empty_like(flats[0])
    if flat.size <= CHUNK:
        # one chunk or none, on the caller alone
        if flat.size:
            fn(*flats, flat)
        return flat.reshape(arrays[0].shape)
    starts = range(0, flat.size, CHUNK)
    workers = _workers(len(starts))
    errors = [None] * workers

    def run(i):
        try:
            for lo in starts[len(starts) * i // workers:len(starts) * (i + 1) // workers]:
                fn(*(f[lo:lo + CHUNK] for f in flats), flat[lo:lo + CHUNK])
        except BaseException as exc:  # raised by the caller below
            errors[i] = exc

    # each thread runs in a copy of the caller's context, so numpy's error state holds there too
    threads = [threading.Thread(target=contextvars.copy_context().run, args=(run, i)) for i in range(1, workers)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return flat.reshape(arrays[0].shape)


def _value_one(n: int, k: int, t: np.ndarray) -> np.ndarray:
    """Values at clamped t for an int degree k, chunk by chunk."""
    if n == 1:
        if k > 2**53:
            raise ValueError(f"legendre degree k={k} on S^1 is outside the evaluated range: "
                             "k <= 2^53, so that float(k) is exact")
        method = functools.partial(_chebyshev, k)
    else:
        _check_range(n, k)
        plan = _darboux_plan(n, k) if k >= K_EXPANSION else None

        def method(xs, out):
            if plan is None:
                out[...] = _recurrence(n, k, xs)
            elif xs.max() < plan.bound:
                out[...] = _darboux(n, k, xs, plan)
            else:
                inside = xs < plan.bound
                if inside.any():
                    out[inside] = _darboux(n, k, xs[inside], plan)
                rest = ~inside
                out[rest] = _recurrence(n, k, xs[rest])

    def chunk(ts, out):
        xs = np.abs(ts)
        method(xs, out)
        # exact endpoints, whatever scipy's loops round to there
        np.copyto(out, 1.0, where=xs == 1.0)
        if k % 2:
            # an odd degree vanishes at 0, where the expansion leaves rounding
            np.copyto(out, 0.0, where=xs == 0.0)
            np.negative(out, out=out, where=ts < 0.0)

    return _in_chunks(chunk, t)


def legendre_normalized(idx: ZonalIndex, t):
    """Degree-k zonal polynomial on S^n at cos-angle t, normalized to 1 at t=1.

    Parameters
    ----------
    idx : ZonalIndex
        Sphere dimension and degree.  For n = 1, k <= 2^53, so that float(k)
        is exact.  For n >= 2, n <= 2^53, binom(k + n - 2, k) must be a
        finite double (n=100 up to k=52024, n=200 up to k=2574, n=400 up to
        k=687) and k <= 1e8 (n-1)/2.  Otherwise ValueError.
    t : array_like
        Points in [-1, 1]; values within 1e-12 outside are clamped, NaN is
        rejected.

    Returns
    -------
    float or ndarray
        Values in [-1, 1].  For n=1 this is the Chebyshev value cos(k acos t),
        for n=2 the classical Legendre polynomial.

    Notes
    -----
    Evaluates at |t| and applies the sign (-1)^k for t < 0, so parity is
    exact; P(1) = 1, P(-1) = (-1)^k and, for odd k, P(0) = 0 are pinned.
    Three methods, one per regime:

    * for n = 1, the closed form cos(k theta), with the angle kept below
      pi/4 and k times it split exactly, so its cost does not grow with k.
    * scipy's compiled integer-degree loop
      ``eval_gegenbauer(k, L, |t|) / binom(k + 2L - 1, k)`` with
      L = (n-1)/2.  It is the value-one ultraspherical recurrence in (t-1)
      form (a power series for |t| < 1e-5), times that binomial, which the
      division cancels to within an ulp.  It costs k steps in C per angle
      and serves n >= 2 at every degree below K_EXPANSION and at the angles
      near the poles.
    * for n >= 2 and k >= K_EXPANSION, the complete Darboux expansion in
      powers of 1 / (2 sin theta) on its domain theta_k <= theta <=
      pi - theta_k, with theta_k near 20/k for even n and 1/k to 2/k for
      n = 3, 5.  Each angle sums at most MAX_TERMS terms, stopping at the
      first below eps of the envelope (odd n: the (n-1)/2 terms of an
      exact sum, so n = 3 sums the leading term alone), so its cost does
      not grow with k.

    Each value depends on its own angle alone: the method, and the terms
    the expansion sums, are chosen per angle, so a value is the same bit
    for bit whether t holds that angle alone or among others.  The three
    methods therefore run over chunks of CHUNK angles on up to MAX_WORKERS
    threads, one per CPU the process may use, and the bytes do not depend
    on how many.

    Envelope-relative forward error against 40- to 50-digit references:
    the closed form stays below 0.5 k eps (k = 1 up to 2^53, near the pole
    and at the switch x = sqrt(1/2) too), and next to the pole below
    (1 + k theta) eps (k up to 10^8); the recurrence below 0.25 k eps
    in the loop and 4.2 k eps in the power series (up to k = 10^6); the
    expansion below 1.3 k eps (n = 2..20 up to k = 10^3, n = 2..11 up to
    10^4, n = 3 up to 10^6), the rounding of its phase (k + L) theta.
    """
    arr = _clamped(t)
    scalar = arr.ndim == 0
    out = _value_one(idx.n, idx.k, np.atleast_1d(arr))
    return float(out[0]) if scalar else out


def dim_eigenspace(idx: ZonalIndex) -> int:
    """Dimension of the degree-k spherical-harmonic eigenspace on S^n.

    Exact integer binom(k+n, n) - binom(k+n-2, n); the subtracted term is
    zero for k < 2.  Grows like 2 k^(n-1) / (n-1)!.
    """
    n, k = idx.n, idx.k
    lead = math.comb(k + n, n)
    tail = math.comb(k + n - 2, n) if k + n - 2 >= 0 else 0
    return lead - tail


def vol_sphere(m: int) -> float:
    """Riemannian volume of the unit m-sphere, 2 pi^((m+1)/2) / Gamma((m+1)/2)."""
    if not _is_int(m) or m < 0:
        raise ValueError(f"vol_sphere: expected integer dimension >= 0, got {m!r}")
    half = 0.5 * (m + 1)
    if m <= 300:
        # direct form keeps small dimensions exact (vol(S^0) == 2.0 bitwise)
        return 2.0 * math.pi**half / math.gamma(half)
    return math.exp(math.log(2.0) + half * math.log(math.pi) - math.lgamma(half))


def projector_kernel(idx: ZonalIndex, t):
    """Two-point kernel of the orthogonal projector onto the degree-k eigenspace.

    Value at cos-angle t is (N / vol(S^n)) * legendre_normalized(idx, t) with
    N the eigenspace dimension, so the diagonal t=1 equals N / vol(S^n).
    The scale overflows a double when n and k are both large (n=200 from
    k=668, n=300 from k=148, n=400 from k=21), and at every k from n=438,
    where vol(S^n) falls below 1 / DBL_MAX (to zero from n=455); there the
    call raises ValueError instead of returning inf.
    """
    try:
        scale = dim_eigenspace(idx) / vol_sphere(idx.n)
    except (OverflowError, ZeroDivisionError):
        scale = math.inf
    if not math.isfinite(scale):
        raise ValueError(f"projector_kernel: N / vol(S^n) overflows a double at n={idx.n}, k={idx.k}")
    return scale * legendre_normalized(idx, t)
