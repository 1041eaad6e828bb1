"""High-degree leading asymptotics for the zonal kernels.

Each approximant is the product amplitude * cos(phase) with a common phase

    alpha(theta) = k theta + (theta/2 - pi/4)(n - 1),

valid on angle windows that exclude the poles.  The module also carries the
closed-form Gaussian coefficient of the scaling regime.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import special
from .special import ZonalIndex, _is_int, vol_sphere

__all__ = [
    "DELTA_MAX",
    "AngleWindow",
    "AsymptoticValue",
    "legendre_leading",
    "projector_leading",
    "gegenbauer_leading",
    "c_constant_leading",
    "gaussian_leading_coefficient",
]

DELTA_MAX = 1.0 / 6.0


@dataclass(frozen=True)
class AngleWindow:
    """Pole-avoiding window C k^(-delta) < theta < pi - C k^(-delta).

    delta = 0 freezes the window; any delta below 1/6 keeps every leading
    approximant uniformly valid as k grows.
    """

    c: float = 1.0
    delta: float = 0.0

    def __post_init__(self):
        if not (self.c > 0.0):
            raise ValueError(f"AngleWindow.c: expected > 0, got {self.c!r}")
        if not (0.0 <= self.delta < DELTA_MAX):
            raise ValueError(
                f"AngleWindow.delta: expected 0 <= delta < 1/6, got {self.delta!r}"
            )

    def bounds(self, k: int) -> tuple[float, float]:
        """Open-interval endpoints at degree k; raises if the window is empty."""
        if k < 1:
            raise ValueError(f"AngleWindow.bounds: expected degree k >= 1, got {k!r}")
        margin = self.c * float(k) ** (-self.delta)
        lo, hi = margin, math.pi - margin
        if not lo < hi:
            raise ValueError(
                f"AngleWindow.bounds: window empty at k={k} (c={self.c}, delta={self.delta})"
            )
        return lo, hi

    def nodes(self, k: int, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The midpoint grid of ``size`` angles strictly inside the window.

        Returns theta, cos(theta) and sin(theta), cached and read-only: one
        copy per (lo, hi, size), so at delta = 0 every degree shares it.
        """
        if not _is_int(size) or size < 1:
            raise ValueError(f"AngleWindow.nodes: expected integer size >= 1, got {size!r}")
        return _midpoint_nodes(*self.bounds(k), int(size))


# one 2^18-angle entry holds 6 MB; a sweep over degrees meets each window once
@functools.lru_cache(maxsize=1)
def _midpoint_nodes(lo: float, hi: float, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    step = (hi - lo) / size
    theta = lo + (np.arange(size) + 0.5) * step
    nodes = (theta, np.cos(theta), np.sin(theta))
    for arr in nodes:
        arr.flags.writeable = False
    return nodes


@dataclass(frozen=True)
class AsymptoticValue:
    """Leading approximant split as amplitude, phase, and their product amplitude * cos(phase)."""

    amplitude: np.ndarray | float
    phase: np.ndarray | float
    value: np.ndarray | float


def _checked_theta(theta):
    arr = np.asarray(theta, dtype=float)
    # min and max carry a NaN through, and NaN fails the comparison
    if not (arr.min(initial=1.0) > 0.0 and arr.max(initial=1.0) < math.pi):
        raise ValueError("theta: expected every angle strictly inside (0, pi)")
    return arr


def _checked_degree(idx: ZonalIndex) -> None:
    if idx.k < 1:
        raise ValueError(f"asymptotics need degree k >= 1, got k={idx.k}")


def _phase_alpha(idx: ZonalIndex, theta, out=None):
    """Common oscillation phase k theta + (theta/2 - pi/4)(n - 1), into ``out`` when given.

    At n = 1 this is k theta, bit for bit on finite angles, where the second
    term is +-0; an infinite angle gives +-inf there (NaN for k = 0), not NaN.
    """
    arr = np.asarray(theta, dtype=float)
    if idx.n == 1:
        return np.multiply(idx.k, arr, out=out)
    half = np.multiply(0.5, arr, out=out)
    half -= 0.25 * math.pi
    half *= idx.n - 1
    return np.add(idx.k * arr, half, out=out)


def _leading(idx: ZonalIndex, theta, form, sin=None, exact=None):
    """Leading form with amplitude c (b / sin theta)^L, L = (n-1)/2, for (c, b) = form(k, L).

    c is the amplitude at n = 1 and b holds every other constant.  For L > 0
    c joins b as c^(1/L), so the power forms the amplitude itself and no
    factor leaves the double range first; ValueError unless the amplitude
    at its largest is a normal positive double.  Amplitude, phase and value
    are formed in one pass over special's chunks.  ``sin``, when given, is
    np.sin(theta), as a caller holding it already passes it; without
    it the sine is formed over the same chunks and threads first.  With
    ``exact``, of theta's shape, the pass also forms the bracket error
    |exact - value| / amplitude and returns (AsymptoticValue, error).
    """
    _checked_degree(idx)
    arr = _checked_theta(theta)
    lam = 0.5 * (idx.n - 1)
    c, b = form(idx.k, lam)
    if lam:
        b *= c ** (1.0 / lam)
        sin = special._in_chunks(np.sin, arr) if sin is None else sin
        with np.errstate(over="ignore"):
            # b / sin at its largest: correctly rounded division falls as its divisor grows, and sin <= 1
            peak = (b / sin.min(initial=1.0)) ** lam
    else:
        # (b / sin theta)^0 = 1 at every angle, so the amplitude is c; theta stands in for the unread sine
        sin, peak = arr, c
    if not np.finfo(float).tiny <= peak < math.inf:
        raise ValueError(f"leading amplitude at n={idx.n}, k={idx.k} is not a finite positive double at full precision")

    def chunk(th, s, *rest):
        if exact is None:
            amp, phase, value = rest
        else:
            ex, amp, phase, value, rel = rest
        if lam:
            with np.errstate(over="ignore"):
                np.divide(b, s, out=amp)
                amp **= lam
        else:
            amp[...] = c
        _phase_alpha(idx, th, out=phase)
        np.cos(phase, out=value)
        value *= amp
        if exact is not None:
            np.subtract(ex, value, out=rel)
            np.abs(rel, out=rel)
            rel /= amp

    ins = (arr, sin) if exact is None else (arr, sin, exact)
    # a 0-d theta gives scalars, as numpy's own arithmetic does
    amp, phase, value, *rel = (out[()] for out in special._in_chunks(chunk, *ins, outs=len(ins) + 1))
    lead = AsymptoticValue(amplitude=amp, phase=phase, value=value)
    return lead if exact is None else (lead, rel[0])


def legendre_leading(idx: ZonalIndex, theta, *, _sin=None, _exact=None):
    """Leading high-degree form of the value-one zonal polynomial.

    amplitude = 4^L (1/2)_L (2 k sin theta)^(-L), L = (n-1)/2, the large-k limit
    of special._darboux_plan's scale; b = (2/k) ((1/2)_L)^(1/L) goes through
    lgamma, so it stays a double where 4^L (1/2)_L overflows (n >= 270).
    For n=1 this collapses to cos(k theta) exactly; for n=2 it is the
    classical sqrt(2 / (pi k sin theta)) envelope.  ``_sin`` and ``_exact``
    are private: the cached sin(theta) of ``AngleWindow.nodes`` and the
    exact values, passed by the harness, which then also receives the
    bracket error.
    """
    return _leading(idx, theta, lambda k, lam: (  # at n = 1 the log is 0 and b is unused
        1.0, 2.0 / k * math.exp((math.lgamma(lam + 0.5) - 0.5 * math.log(math.pi)) / (lam or 1.0))), _sin, _exact)


def projector_leading(idx: ZonalIndex, theta) -> AsymptoticValue:
    """Leading form of the eigenspace projector kernel at cos-angle theta.

    amplitude = (1/pi) (k / (2 pi sin theta))^((n-1)/2): by Legendre's
    duplication formula, the Legendre envelope times the leading eigenspace
    dimension 2 k^(n-1) / (n-1)! over vol(S^n).
    """
    return _leading(idx, theta, lambda k, lam: (1.0 / math.pi, k / (2.0 * math.pi)))


def gegenbauer_leading(idx: ZonalIndex, theta) -> AsymptoticValue:
    """Leading form in the Jacobi normalization.

    amplitude = (pi k)^(-1/2) (cos(theta/2) sin(theta/2))^(-(n-1)/2), which is
    the Legendre envelope times k^(n/2 - 1) / Gamma(n/2).
    """
    return _leading(idx, theta, lambda k, lam: (k**-0.5 / math.gamma(0.5), 2.0))


def c_constant_leading(idx: ZonalIndex) -> float:
    """Leading value of the push-forward norm constant.

    ((n-1)!/(2 sqrt(2)) * vol(S^n) vol(S^(n-1)))^(1/2) * (pi k)^(-(n-1)/4).
    """
    _checked_degree(idx)
    n, k = idx.n, idx.k
    base = math.factorial(n - 1) / (2.0 * math.sqrt(2.0)) * vol_sphere(n) * vol_sphere(n - 1)
    return math.sqrt(base) * (math.pi * k) ** (-0.25 * (n - 1))


def gaussian_leading_coefficient(n: int, theta) -> complex:
    """Closed form of the leading-coefficient Gaussian integral.

    (sqrt(2) pi)^(n-1) * sin(theta)^((n-1)/2) * exp(i (theta/2 - pi/4)(n-1)).
    """
    if not _is_int(n) or n < 1:
        raise ValueError(f"gaussian_leading_coefficient: expected n >= 1, got {n!r}")
    th = float(_checked_theta(theta))
    return (
        (math.sqrt(2.0) * math.pi) ** (n - 1)
        * math.sin(th) ** (0.5 * (n - 1))
        * complex(np.exp(1j * (0.5 * th - 0.25 * math.pi) * (n - 1)))
    )
