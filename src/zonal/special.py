"""Zonal kernels on the n-sphere in the value-one normalization.

The central object is the degree-k zonal polynomial normalized to 1 at
argument 1, evaluated by scipy's compiled recurrence in that normalization.
Everything else in the package (asymptotic brackets, the projector kernel,
the geometric cross-checks) is expressed against it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import binom, eval_chebyt, eval_gegenbauer

__all__ = [
    "ZonalIndex",
    "legendre_normalized",
    "legendre_sweep",
    "gegenbauer_norm_constant",
    "gegenbauer_jacobi",
    "dim_eigenspace",
    "vol_sphere",
    "projector_kernel",
]

# arguments this far outside [-1, 1] are clamped, beyond is a domain error
ARG_SLACK = 1e-12


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
    arr = np.asarray(t, dtype=float)
    # written so that NaN fails the range test too, in the same pass
    if not np.all(np.abs(arr) <= 1.0 + ARG_SLACK):
        worst = float(arr[np.unravel_index(np.argmax(np.abs(arr)), arr.shape)]) if arr.ndim else float(arr)
        raise ValueError(f"legendre argument is NaN or outside [-1, 1] beyond clamp tolerance: {worst!r}")
    return np.clip(arr, -1.0, 1.0)


def _value_one(n: int, k, t: np.ndarray) -> np.ndarray:
    """Values at clamped t for an int degree k or an integer array broadcast against t."""
    x = np.abs(t)
    if n == 1:
        vals = eval_chebyt(k, x)
    else:
        lam = 0.5 * (n - 1)
        kmax = int(np.max(k))
        # past either limit scipy returns NaN or rescales its loop by 2 lam / k
        if not math.isfinite(binom(kmax + n - 2.0, kmax)) or (kmax and lam / kmax < 1e-8):
            raise ValueError(f"legendre degree k={kmax} on S^{n} is outside the evaluated range: "
                             "binom(k + n - 2, k) must be a finite double and k <= 1e8 (n - 1) / 2")
        vals = eval_gegenbauer(k, lam, x)
        # scipy multiplied its value-one loop by this same expression
        vals /= binom(k + 2.0 * lam - 1.0, k)
    # exact endpoints, whatever scipy's loops round to there
    np.copyto(vals, 1.0, where=x == 1.0)
    return np.negative(vals, out=vals, where=(t < 0.0) & (np.asarray(k) % 2 == 1))


def legendre_normalized(idx: ZonalIndex, t):
    """Degree-k zonal polynomial on S^n at cos-angle t, normalized to 1 at t=1.

    Parameters
    ----------
    idx : ZonalIndex
        Sphere dimension and degree.  For n >= 2, binom(k + n - 2, k) must
        be a finite double (n=100 up to k=52024, n=200 up to k=2574, n=400
        up to k=687) and k <= 1e8 (n-1)/2; otherwise ValueError.
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
    Runs scipy's compiled integer-degree loops at |t|: ``eval_chebyt`` for
    n=1, else ``eval_gegenbauer(k, L, |t|) / binom(k + 2L - 1, k)`` with
    L = (n-1)/2.  scipy's loop is the value-one ultraspherical recurrence in
    (t-1) form (a power series for |t| < 1e-5), times that binomial, which
    the division cancels to within an ulp.  The sign (-1)^k for t < 0 makes
    parity exact (scipy's loop alone misses it by up to 3e-13 at k <= 300),
    and P(1) = 1, P(-1) = (-1)^k are pinned.  Cost is k steps in C per angle.
    Measured up to k = 10^6, the envelope-relative forward error is below
    0.25 k eps in the loop and 4.2 k eps in the power series.
    """
    arr = _clamped(t)
    scalar = arr.ndim == 0
    out = _value_one(idx.n, idx.k, np.atleast_1d(arr))
    return float(out[0]) if scalar else out


def legendre_sweep(n: int, kmax: int, t) -> np.ndarray:
    """All normalized zonal values for degrees 0..kmax, shape (kmax + 1,) + shape(t).

    Row j is the ``legendre_normalized`` call at degree j, bit for bit, so
    a sweep costs O(kmax^2) steps in C per angle (0.15 s at kmax=1000 on
    100 angles).
    """
    if kmax < 0:
        raise ValueError(f"kmax: expected >= 0, got {kmax!r}")
    arr = np.atleast_1d(_clamped(t))
    return _value_one(n, np.arange(kmax + 1).reshape((-1,) + (1,) * arr.ndim), arr)


def gegenbauer_norm_constant(idx: ZonalIndex) -> float:
    """Ratio tying the Jacobi-normalized polynomial to the value-one one.

    Equals Gamma(k + n/2) / (k! Gamma(n/2)), computed in log space so large
    degrees neither overflow nor lose the leading digits.  For n=2 it is
    exactly 1 for every k.
    """
    n, k = idx.n, idx.k
    return math.exp(math.lgamma(k + 0.5 * n) - math.lgamma(k + 1.0) - math.lgamma(0.5 * n))


def gegenbauer_jacobi(idx: ZonalIndex, t):
    """Jacobi-normalized ultraspherical value P_k^{(n/2-1, n/2-1)}(t).

    Evaluated as gegenbauer_norm_constant(idx) * legendre_normalized(idx, t);
    the two normalizations differ only by that degree-dependent constant.
    """
    return gegenbauer_norm_constant(idx) * legendre_normalized(idx, t)


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
