"""Zonal kernels on the n-sphere in the value-one normalization.

The central object is the degree-k zonal polynomial normalized to 1 at
argument 1, evaluated by a three-term recurrence written directly in that
normalization.  Everything else in the package (asymptotic brackets, the
projector kernel, the geometric cross-checks) is expressed against it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def _degrees(n: int, k: int, t: np.ndarray):
    """Yield the value-one values of degrees 0..k at t, endpoints not pinned.

    Each yielded array is new; the caller may keep or modify it.
    """
    lam = 0.5 * (n - 1)
    prev = np.ones_like(t)
    yield prev
    if k == 0:
        return
    cur = t.copy()
    yield cur
    for j in range(2, k + 1):
        denom = j + 2.0 * lam - 1.0
        prev, cur = cur, (2.0 * (j + lam - 1.0) * t * cur - (j - 1.0) * prev) / denom
        yield cur


def _pin_endpoints(values: np.ndarray, t: np.ndarray, degrees) -> None:
    """Set P_j(1) = 1 and P_j(-1) = (-1)^j exactly, in place.

    values has shape (len(degrees),) + t.shape.  The recurrence only reaches
    the endpoint values through rounded coefficients.
    """
    values[:, t == 1.0] = 1.0
    values[:, t == -1.0] = np.where(np.asarray(degrees) % 2 == 0, 1.0, -1.0)[:, None]


def legendre_normalized(idx: ZonalIndex, t):
    """Degree-k zonal polynomial on S^n at cos-angle t, normalized to 1 at t=1.

    Parameters
    ----------
    idx : ZonalIndex
        Sphere dimension and degree.
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
    Uses the ultraspherical recurrence with parameter (n-1)/2 rewritten for
    the value-one normalization,

        P_k(t) = (2(k + L - 1) t P_{k-1}(t) - (k - 1) P_{k-2}(t)) / (k + 2L - 1),

    with L = (n-1)/2.  Iterates stay inside [-1, 1], so there is no overflow
    for any degree this package targets (k up to 1e6).  The n=1 case reduces
    to the Chebyshev recurrence with no special handling.
    """
    arr = _clamped(t)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    for out in _degrees(idx.n, idx.k, arr):
        pass
    _pin_endpoints(out[None], arr, [idx.k])
    return float(out[0]) if scalar else out


def legendre_sweep(n: int, kmax: int, t) -> np.ndarray:
    """All normalized zonal values for degrees 0..kmax in one recurrence pass.

    Returns an array of shape (kmax + 1,) + shape(t).  One sweep costs the
    same as a single degree-kmax evaluation, which is what batch comparisons
    over many degrees want.
    """
    if kmax < 0:
        raise ValueError(f"kmax: expected >= 0, got {kmax!r}")
    arr = np.atleast_1d(_clamped(t))
    out = np.empty((kmax + 1,) + arr.shape, dtype=float)
    for j, values in enumerate(_degrees(n, kmax, arr)):
        out[j] = values
    _pin_endpoints(out, arr, np.arange(kmax + 1))
    return out


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
