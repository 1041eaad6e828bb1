"""High-degree leading asymptotics for the zonal kernels.

Each approximant is the product amplitude * cos(phase) with a common phase

    alpha(theta) = k theta + (theta/2 - pi/4)(n - 1),

valid on angle windows that exclude the poles.  The module also carries the
closed-form Gaussian coefficient of the scaling regime, together with an
independent quadrature oracle for that coefficient.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

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
    "gaussian_coefficient_numeric",
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
        """The grid's angles theta, cos(theta) and sin(theta), cached and read-only.

        One copy per (lo, hi, size), so at delta = 0 every degree shares it.
        """
        size = _checked_size("nodes", size)
        return _midpoint_nodes(*self.bounds(k), size)

    def grid(self, k: int, size: int) -> np.ndarray:
        """Uniform midpoint grid of ``size`` angles strictly inside the window.

        The array is cached and read-only (see ``nodes``).
        """
        size = _checked_size("grid", size)
        return _midpoint_nodes(*self.bounds(k), size)[0]


def _checked_size(method: str, size) -> int:
    if not _is_int(size) or size < 1:
        raise ValueError(f"AngleWindow.{method}: expected integer size >= 1, got {size!r}")
    return int(size)


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
    """Leading approximant split as amplitude, phase, and their product."""

    amplitude: np.ndarray | float
    phase: np.ndarray | float
    value: np.ndarray | float = field(init=False)

    def __post_init__(self):
        amp, phase = self.amplitude, self.phase
        if (type(amp) is type(phase) is np.ndarray and amp.shape == phase.shape
                and amp.dtype == phase.dtype == np.float64 and amp.size > special.CHUNK):
            # the same product, chunk by chunk on special's worker threads
            value = special._in_chunks(_times_cos, amp, phase)
        else:
            value = amp * np.cos(phase)
        object.__setattr__(self, "value", value)


def _times_cos(amp, phase, out):
    np.cos(phase, out=out)
    np.multiply(amp, out, out=out)


def _checked_theta(theta):
    arr = np.asarray(theta, dtype=float)
    # min and max carry a NaN through, and NaN fails the comparison
    if not (arr.min(initial=1.0) > 0.0 and arr.max(initial=1.0) < math.pi):
        raise ValueError("theta: expected every angle strictly inside (0, pi)")
    return arr


def _checked_degree(idx: ZonalIndex) -> None:
    if idx.k < 1:
        raise ValueError(f"asymptotics need degree k >= 1, got k={idx.k}")


def _phase_alpha(idx: ZonalIndex, theta):
    """Common oscillation phase k theta + (theta/2 - pi/4)(n - 1).

    At n = 1 this is k theta, bit for bit on finite angles, where the second
    term is +-0; an infinite angle gives +-inf there (NaN for k = 0), not NaN.
    """
    arr = np.asarray(theta, dtype=float)
    if idx.n == 1:
        return idx.k * arr
    return idx.k * arr + (0.5 * arr - 0.25 * math.pi) * (idx.n - 1)


def _leading(idx: ZonalIndex, theta, form, sin=None) -> AsymptoticValue:
    """Leading form with amplitude c (b / sin theta)^L, L = (n-1)/2, for (c, b) = form(k, L).

    c is the amplitude at n = 1 and b holds every other constant.  For L > 0
    c joins b as c^(1/L), so the power forms the amplitude itself and no
    factor leaves the double range first; ValueError unless the amplitude
    at its largest is a normal positive double.  ``sin``, when given, is
    np.sin(theta), as a caller holding it already passes it.
    """
    _checked_degree(idx)
    arr = _checked_theta(theta)
    lam = 0.5 * (idx.n - 1)
    c, b = form(idx.k, lam)
    if lam:
        b *= c ** (1.0 / lam)
        with np.errstate(over="ignore"):
            amp = b / (np.sin(arr) if sin is None else sin)
            peak = amp.max(initial=b) ** lam
            # in place: each 2^17-angle temporary costs about as much as the arithmetic
            amp **= lam
    else:
        # (b / sin theta)^0 = 1 at every angle, so the amplitude is c
        amp, peak = c * np.ones_like(arr), c
    if not np.finfo(float).tiny <= peak < math.inf:
        raise ValueError(f"leading amplitude at n={idx.n}, k={idx.k} is not a finite positive double at full precision")
    return AsymptoticValue(amplitude=amp, phase=_phase_alpha(idx, arr))


def legendre_leading(idx: ZonalIndex, theta, *, _sin=None) -> AsymptoticValue:
    """Leading high-degree form of the value-one zonal polynomial.

    amplitude = 4^L (1/2)_L (2 k sin theta)^(-L), L = (n-1)/2, the large-k limit
    of special._darboux_plan's scale; b = (2/k) ((1/2)_L)^(1/L) goes through
    lgamma, so it stays a double where 4^L (1/2)_L overflows (n >= 270).
    For n=1 this collapses to cos(k theta) exactly; for n=2 it is the
    classical sqrt(2 / (pi k sin theta)) envelope.  ``_sin`` is private: the
    cached sin(theta) of ``AngleWindow.nodes``, passed by the harness.
    """
    return _leading(idx, theta, lambda k, lam: (  # at n = 1 the log is 0 and b is unused
        1.0, 2.0 / k * math.exp((math.lgamma(lam + 0.5) - 0.5 * math.log(math.pi)) / (lam or 1.0))), _sin)


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


# half-width of the truncated integration box; the Gaussian tail beyond it
# is below 1e-14 relative
_BOX = 8.0


def gaussian_coefficient_numeric(n: int, theta) -> complex:
    """Quadrature oracle for the leading-coefficient Gaussian integral.

    Integrates exp(-|b0|^2/2 - i b0.b1 - (1 + 2i cot theta)|b1|^2/2) over
    (b0, b1) in R^(n-1) x R^(n-1).  The integrand factorizes into n-1
    identical two-dimensional integrals, so one midpoint tensor rule on the
    box [-8, 8]^2 is evaluated and raised to the power n-1.  The node count
    per axis is 64 inflated with the chirp rate |cot theta|, which keeps the
    rule at discretization error below 1e-13 across (0.05, pi - 0.05); an
    angle outside that range raises before anything is allocated.
    """
    if not _is_int(n) or not 1 <= n <= 4:
        raise ValueError(f"gaussian_coefficient_numeric: supported n is 1..4, got {n!r}")
    th = float(_checked_theta(theta))
    if not 0.05 < th < math.pi - 0.05:
        raise ValueError(f"gaussian_coefficient_numeric: theta must lie in (0.05, pi - 0.05), got {th!r}")
    if n == 1:
        # zero-dimensional integral: empty product
        return complex(1.0)
    cot = 1.0 / math.tan(th)
    m = max(64, int(math.ceil(4.0 * _BOX * abs(cot) + 2.0 * _BOX)))
    m += m % 2
    x = np.linspace(-_BOX, _BOX, m, endpoint=False) + _BOX / m
    w = 2.0 * _BOX / m
    xx = x[:, None]
    yy = x[None, :]
    integrand = np.exp(-0.5 * xx**2 - 1j * xx * yy - 0.5 * (1.0 + 2j * cot) * yy**2)
    plane = w * w * integrand.sum()
    return complex(plane ** (n - 1))
