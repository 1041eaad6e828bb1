"""Geometry of the null quadric and its circle-bundle slices.

The complex cone {z : z.z = 0} in C^(n+1) meets the sphere of radius r in a
circle bundle X_r over projective quadric points; at radius sqrt(2) the
slice is exactly the set q + ip of orthonormal pairs (q, p) in R^(n+1).
This module samples those slices, builds L2-orthonormal bases of the
degree-k holomorphic sections by Monte Carlo, evaluates the associated
reproducing kernel, and pushes it forward along fibers to recover the
sphere eigenspace projector.  One build pass draws each block of rng.BLOCK
frames once for every requested degree and adds, for each degree, the
real Gram of each exponent-parity class of its monomials (the exact Gram
is zero between classes), so it holds one block of one degree's monomials
whatever the sample count: at n = 3 and k = 8 the build's traced peak is
about 15 MB.  An oracle call's peak is mostly the numpy and scipy.special
imports (scipy for the predicted projector values below degree 32; the
quadrature rules need numpy alone).
Each basis's error is measured exactly, against the closed-form inverse
Gram of the Szego kernel, and must stay below 1/2; the push-forward
constant c_k is the closed-form Gamma ratio of the paper's identity.
Neither draws samples.  All randomness flows through counter-based
substreams so results depend only on (seed, sample count).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from . import rng
from .quadrature import fiber_rule
from .special import ZonalIndex, vol_sphere

__all__ = [
    "ConeBasis",
    "sample_frame",
    "sphere_point",
    "build_cone_basis",
    "pushforward_kernel",
    "c_constant_numeric",
    "offdiagonal_decay_probe",
]

FRAME_TOL = 1e-12
POINT_TOL = 1e-9
# The geometric oracle's validated domain.  n: tests/oracles holds sphere
# rules for these dimensions alone.  k: tests/oracles.C_EXACT checks c_k up
# to this degree, tighter than _inverse_gram's exactness bound (n (n+1))^k < 2^53.
ORACLE_DIMENSIONS = (2, 3)
ORACLE_MAX_DEGREE = 12
# the angle between the two base points of the decay probe's pair
PROBE_ANGLE = 0.9


def _require_oracle_domain(label: str, n: int, ks=()) -> None:
    """ValueError naming the bound and its reason unless n and ks lie in the oracle's domain."""
    if n not in ORACLE_DIMENSIONS:
        raise ValueError(f"{label}: n = {n} is outside {ORACLE_DIMENSIONS}, "
                         "the dimensions tests/oracles has sphere rules for")
    if max(ks, default=0) > ORACLE_MAX_DEGREE:
        raise ValueError(f"{label}: degree {max(ks)} exceeds {ORACLE_MAX_DEGREE}, "
                         "the last degree at which tests/oracles.C_EXACT checks c_k")


def _cone_slice_mass(n: int) -> float:
    """Total mass of the unit cone slice under the normalized volume form.

    The radius-sqrt(2) slice is the orthonormal 2-frame manifold embedded in
    R^(2n+2); its Euclidean-induced Riemannian volume is sqrt(2) times the
    product of the base and fiber sphere volumes (the base direction moving
    along the fiber circle carries metric factor sqrt(2), as a direct
    computation at n=1 confirms: two circles of circumference 2 pi sqrt(2)).
    The form scales with degree 2n-1 in the radius r (``ConeBasis.prefactor``
    divides by that r^(2n-1)), and one global 1/(2 pi) normalizes the circle
    direction:

        mass(1) = 2^(-(n-1)) vol(S^n) vol(S^(n-1)) / (2 pi).

    Cross-check: the trace of the degree-k reproducing kernel forces the
    diagonal value N / mass(sqrt(2)), whose large-k form is
    (sqrt(2)/2^n) (k/pi)^(n-1) exactly when this mass is used.
    """
    return 2.0 ** (-(n - 1)) * (vol_sphere(n) * vol_sphere(n - 1)) / (2.0 * math.pi)


def _row_norms(x: np.ndarray) -> np.ndarray:
    # squares summed column by column, the order of numpy's row reduction below 8 columns
    return np.sqrt(sum(x[:, j] * x[:, j] for j in range(x.shape[1])))


def _orthonormalize(g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """Gram-Schmidt on paired rows, in place; True marks a degenerate row."""
    with np.errstate(divide="ignore", invalid="ignore"):
        nq = _row_norms(g1)
        proj = np.einsum("ij,ij->i", g1, g2) / nq**2
        ng2 = _row_norms(g2)
        g2 -= proj[:, None] * g1
        nw = _row_norms(g2)
        g1 /= nq[:, None]
        g2 /= nw[:, None]
    return (nq < 1e-12) | (nw < 1e-8 * ng2)


def _frame_block(n: int, count: int, gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """count Haar frames as arrays Q, P of shape (count, n+1).

    The two Gaussian draws are orthonormalized in place, all rows in one
    pass; callers draw one frame or one block of at most rng.BLOCK.
    """
    q = gen.standard_normal((count, n + 1))
    p = gen.standard_normal((count, n + 1))
    bad = np.flatnonzero(_orthonormalize(q, p))
    while len(bad):
        # measure-zero event; redrawing inside the block keeps determinism
        g1 = gen.standard_normal((len(bad), n + 1))
        g2 = gen.standard_normal((len(bad), n + 1))
        again = _orthonormalize(g1, g2)
        q[bad], p[bad] = g1, g2
        bad = bad[again]
    return q, p


def sample_frame(n: int, gen: np.random.Generator) -> np.ndarray:
    """One Haar-distributed orthonormal 2-frame (q, p) in R^(n+1), as its slice point q + ip."""
    if n < 1:
        raise ValueError(f"sample_frame: expected n >= 1, got {n!r}")
    q, p = _frame_block(n, 1, gen)
    return q[0] + 1j * p[0]


def sphere_point(n: int, gen: np.random.Generator) -> np.ndarray:
    """One uniform point on S^n; a draw of norm <= 1e-12 is drawn again."""
    if n < 0:
        # S^-1 is empty: every draw of no coordinates has norm 0
        raise ValueError(f"sphere_point: expected n >= 0, got {n!r}")
    while True:
        g = gen.standard_normal(n + 1)
        norm = float(np.linalg.norm(g))
        if norm > 1e-12:
            return g / norm


def _exponent_tuples(slots: int, total: int):
    """Exponent tuples of `slots` variables with sum `total`, one per multiset."""
    for combo in combinations_with_replacement(range(slots), total):
        expo = [0] * slots
        for slot in combo:
            expo[slot] += 1
        yield tuple(expo)


def _multinomial(expo) -> int:
    return math.factorial(sum(expo)) // math.prod(math.factorial(e) for e in expo)


def _monomial_basis(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples spanning degree k modulo the cone relation.

    The relation rewrites the squared first coordinate in terms of the rest,
    so tuples with first exponent 0 or 1 form a basis of the quotient; their
    count equals dim_eigenspace.  Tuples are returned in ascending
    lexicographic order.
    """
    if n < 1 or k < 0:
        raise ValueError(f"_monomial_basis: expected n >= 1 and k >= 0, got {(n, k)!r}")
    out = [(first, *rest) for first in (0, 1) if k >= first for rest in _exponent_tuples(n, k - first)]
    return tuple(sorted(out))


def _inverse_gram(n: int, k: int) -> np.ndarray:
    """Inverse of the unit-slice Gram of _monomial_basis(n, k), in closed form.

    The degree-k reproducing kernel is N_k / mass(1) (z . conj(w))^k, and
    (z . conj(w))^k is the sum over |g| = k of (k!/g!) z^g conj(w)^g.
    Rewriting z_0^2 = -(z_1^2 + ... + z_n^2) turns each z^g into an integer
    combination of the basis monomials, z^g = sum_a R[g, a] m_a(z), so the
    kernel is m(z)^T (N_k / mass(1)) R^T D R conj(m(w)) with D = diag(k!/g!),
    and a kernel m(z)^T A conj(m(w)) reproduces exactly when A is the
    inverse Gram.  Every partial sum of R^T D R is an integer of modulus at
    most (n (n+1))^k, so the float64 product is exact up to n = 3, k = 14
    and n = 2, k = 20.
    """
    exponents = _monomial_basis(n, k)
    column = {e: a for a, e in enumerate(exponents)}
    powers = list(_exponent_tuples(n + 1, k))
    reduce = np.zeros((len(powers), len(exponents)))
    for row, g in zip(reduce, powers):
        half, first = divmod(g[0], 2)
        # z_0^g0 = z_0^first (-1)^half (z_1^2 + ... + z_n^2)^half, expanded multinomially
        for b in _exponent_tuples(n, half):
            row[column[(first, *(gj + 2 * bj for gj, bj in zip(g[1:], b)))]] += (-1) ** half * _multinomial(b)
    weights = np.array([_multinomial(g) for g in powers], dtype=float)
    return (reduce.T * weights) @ reduce * (len(exponents) / _cone_slice_mass(n))


@functools.lru_cache(maxsize=32)
def _monomial_plan(families):
    """Each coordinate's top exponent over all families, and each family's walk in
    lexicographic order: (exponents, first coordinate changed from the last, row)."""
    tops = tuple(max(col) for col in zip(*(e for fam in families for e in fam)))
    walks = []
    for fam in families:
        order = sorted(range(len(fam)), key=fam.__getitem__)
        firsts = [0] + [[x == y for x, y in zip(fam[a], fam[b])].index(False)
                        for a, b in zip(order, order[1:])]
        walks.append(tuple((fam[row], first, row) for row, first in zip(order, firsts)))
    return tops, tuple(walks)


def _monomial_rows(z: np.ndarray, families):
    """Each family's raw monomial values in turn, C-ordered (len(family), M) for z of shape (M, n+1).

    Powers are formed once for all families.  Each monomial is the left-to-right
    product of its coordinates' powers, zero exponents skipped, reusing the prefix
    it shares with the one before it in lexicographic order.
    """
    tops, walks = _monomial_plan(families)
    m, ncoord = z.shape
    pows = []
    for j in range(ncoord):
        tbl = np.empty((tops[j] + 1, m), dtype=complex)
        tbl[0] = 1.0
        for e in range(1, tops[j] + 1):
            tbl[e] = tbl[e - 1] * z[:, j]
        pows.append(tbl)
    last = ncoord - 1
    prefix = [None] * last  # prefix[j]: the product of the powers of coordinates 0..j
    for walk in walks:
        out = np.empty((len(walk), m), dtype=complex)
        for expo, first, row in walk:
            for j in range(first, last):
                if j == 0:
                    prefix[0] = pows[0][expo[0]]
                else:
                    prefix[j] = prefix[j - 1] * pows[j][expo[j]] if expo[j] else prefix[j - 1]
            if expo[last]:
                # a distinct output buffer rounds as a fresh product, length-1 rows included
                np.multiply(prefix[last - 1], pows[last][expo[last]], out=out[row])
            else:
                out[row] = prefix[last - 1]
        yield out
        del out  # released before the next family's rows are formed


@dataclass(frozen=True)
class ConeBasis:
    """Monte Carlo orthonormal basis of degree-k sections on the unit slice.

    coeff is real, lower triangular and zero between monomials of different
    exponent parity; row a of coeff gives section a as a combination of the
    raw monomials, orthonormal for the normalized volume of the radius-1
    slice as estimated from `samples` Haar frames, each with its images
    under sign flips and conjugation.  gram_error is ||I - L^T G^-1 L||_2,
    with L = coeff^-1 the Cholesky factor of the sampled Gram and G^-1 the
    exact inverse Gram.  It bounds the sampled kernel's error rigorously:
    for any two linear functionals of the sections, such as point values or
    fiber integrals, with vectors u and v of section values, the sampled
    kernel u^T conj(v) lies within gram_error |u| |v| of the exact one.
    """

    n: int
    k: int
    exponents: tuple[tuple[int, ...], ...]
    coeff: np.ndarray
    samples: int
    gram_error: float

    @property
    def size(self) -> int:
        return len(self.exponents)

    def evaluate(self, z: np.ndarray) -> np.ndarray:
        """Orthonormal section values, shape (M, size) for z of shape (M, n+1)."""
        z = np.atleast_2d(np.asarray(z, dtype=complex))
        if z.shape[-1] != self.n + 1:
            raise ValueError(f"ConeBasis.evaluate: expected points in C^{self.n + 1}, "
                             f"got {z.shape[-1]} coordinates")
        (rows,) = _monomial_rows(z, (self.exponents,))
        # a real product on the rows seen as reals, real and imaginary parts interleaved
        return (self.coeff @ rows.view(float)).view(complex).T

    def prefactor(self, radius: float) -> float:
        """r^-(2k+2n-1), the kernel's scale on the radius-r slice relative to the unit one."""
        return float(radius) ** -(2 * self.k + 2 * self.n - 1)

    def kernel(self, x, y, radius: float):
        """Reproducing kernel r^-(2k+2n-1) sum_j s_j(x) conj(s_j(y)) on the radius-r slice.

        x and y are points of shape (n+1,) or (M, n+1) on that slice; one x
        broadcasts against many y, and two 1-D points give a complex scalar.
        Both sides are checked and evaluated in one stacked call.
        """
        if not (radius > 0.0):
            raise ValueError(f"ConeBasis.kernel: expected radius > 0, got {radius!r}")
        x = np.asarray(x, dtype=complex)
        y = np.asarray(y, dtype=complex)
        single = x.ndim == 1 and y.ndim == 1
        xs = np.atleast_2d(x)
        points = np.concatenate([xs, np.atleast_2d(y)])
        # both equations relative to r^2, so a point and its rescaling pass or fail together
        tol = POINT_TOL * radius * radius
        if np.any(np.abs(np.sum(points * points, axis=-1)) > tol):
            raise ValueError("ConeBasis.kernel x, y: point is not on the null cone (tol 1e-9 r^2)")
        if np.any(np.abs(np.sum(np.abs(points) ** 2, axis=-1) - radius * radius) > tol):
            raise ValueError(f"ConeBasis.kernel x, y: point is not on the radius-{radius:g} slice (tol 1e-9 r^2)")
        sx, sy = np.split(self.evaluate(points), [len(xs)])
        vals = self.prefactor(radius) * np.sum(sx * sy.conj(), axis=-1)
        return complex(vals[0]) if single else vals


def build_cone_basis(n: int, ks, samples: int, seed: int) -> tuple[ConeBasis, ...]:
    """Estimate the Gram of each degree's monomial basis on the unit slice and invert it.

    The Haar frame measure is unchanged by each sign flip z_j -> -z_j and by
    conjugation, so the exact Gram is real and zero between monomials of
    different exponent parity.  The build samples the measure averaged over
    those maps, which keeps the real part of each parity class's Gram alone.
    One pass draws Haar frames rng.BLOCK at a time (one substream per block),
    scaled to radius 1, for all degrees in ks, and holds one block of one
    degree's monomials at a time; each class's block Gram is one real
    product of its monomial rows, real and imaginary parts interleaved.
    gram_error, from each class Gram's Cholesky factor L, is the largest
    distance from 1 of an eigenvalue of L^T G^-1 L, G^-1 the closed-form
    inverse Gram (`_inverse_gram`).  That bound alone decides acceptance: a
    degree is refused when a class Gram is not positive definite or its
    gram_error reaches 1/2, where the bounds say nothing.  Below 1/2 the
    sampled Gram's condition number is under 3 times the exact one's, so an
    accepted L has pivots far from zero; it is inverted by forward
    substitution.  Raises ValueError for either refusal and for samples < 1.
    Returns one ConeBasis per degree in the order of ks; each is the same
    whatever the other degrees are.
    """
    families = [_monomial_basis(n, k) for k in ks]
    if not families:
        raise ValueError("build_cone_basis: ks is empty; need at least one degree")
    if samples < 1:
        raise ValueError(f"build_cone_basis: expected samples >= 1, got {samples!r}")
    # positions by exponent parity (e mod 2), each class in _monomial_basis order;
    # in class order, each class is a contiguous run of the monomial rows
    parities = [[tuple(e % 2 for e in expo) for expo in fam] for fam in families]
    classes = [[[i for i, c in enumerate(par) if c == key] for key in dict.fromkeys(par)] for par in parities]
    ordered = tuple(tuple(e[i] for idx in cls for i in idx) for e, cls in zip(families, classes))
    edges = [np.cumsum([0] + [len(idx) for idx in cls]) for cls in classes]

    def one_block(b: int) -> np.ndarray:
        gen = rng.substream(seed, rng.GRAM, b)
        q, p = _frame_block(n, min(rng.BLOCK, samples - b * rng.BLOCK), gen)
        z = (1.0 / math.sqrt(2.0)) * (q + 1j * p)
        grams = []
        rows = _monomial_rows(z, ordered)
        for cuts in edges:
            # C-ordered (N, M) values seen as (N, 2M) reals, so a row product is Re(a^H a)
            a = next(rows).view(float)
            grams += [(a[lo:hi] @ a[lo:hi].T).ravel() for lo, hi in zip(cuts, cuts[1:])]
            del a  # freed before the next degree's values, so that buffer is reused (a zip would hold it)
        return np.concatenate(grams)

    flat = rng.map_blocks(one_block, -(-samples // rng.BLOCK)) * (_cone_slice_mass(n) / samples)
    grams = iter(np.split(flat, np.cumsum([len(idx) ** 2 for cls in classes for idx in cls])[:-1]))

    bases = []
    for k, exponents, cls in zip(ks, families, classes):
        try:
            lows = [np.linalg.cholesky(next(grams).reshape(len(idx), len(idx))) for idx in cls]
        except np.linalg.LinAlgError as exc:
            raise ValueError(
                f"build_cone_basis: Gram at samples={samples} is not positive definite; increase samples"
            ) from exc
        inverse = _inverse_gram(n, k)
        error = max(np.abs(1.0 - np.linalg.eigvalsh(low.T @ inverse[np.ix_(idx, idx)] @ low)).max()
                    for idx, low in zip(cls, lows))
        if error >= 0.5:
            raise ValueError(f"build_cone_basis: gram_error {error:.3g} at k={k}, samples={samples} is at least "
                             "1/2, where its bounds exceed the values they bound; increase samples")
        # each class keeps _monomial_basis order, so coeff is lower triangular in it
        coeff = np.zeros((len(exponents), len(exponents)))
        for idx, low in zip(cls, lows):
            inv = np.eye(len(idx))
            for i in range(len(idx)):  # forward substitution: row i of L^-1 from the rows above it
                inv[i] = (inv[i] - low[i, :i] @ inv[:i]) / low[i, i]
            coeff[np.ix_(idx, idx)] = inv
        bases.append(ConeBasis(n, k, exponents, coeff, samples, gram_error=float(error)))
    return tuple(bases)


def _ordered_bases(bases, label: str) -> tuple[int, list[ConeBasis]]:
    """(n, the bases in increasing degree); ValueError if there are none, they
    mix sphere dimensions or they repeat a degree."""
    bases = sorted(bases, key=lambda b: b.k)
    dims = sorted({basis.n for basis in bases})
    if not dims:
        raise ValueError(f"{label}: need at least one basis")
    if len(dims) > 1:
        raise ValueError(f"{label}: bases mix sphere dimensions n = {' and '.join(map(str, dims))}")
    repeated = sorted({a.k for a, b in zip(bases, bases[1:]) if a.k == b.k})
    if repeated:
        raise ValueError(f"{label}: bases repeat degree k = {' and '.join(map(str, repeated))}")
    return dims[0], bases


def _pushforward_raw(basis: ConeBasis, q0: np.ndarray, q1: np.ndarray) -> tuple[complex, float]:
    """Complex double fiber integral plus its imaginary-noise allowance."""
    n, k = basis.n, basis.k
    _require_oracle_domain("pushforward_kernel", n)
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    for label, q in (("q0", q0), ("q1", q1)):
        if q.shape != (n + 1,) or abs(np.linalg.norm(q) - 1.0) > POINT_TOL:
            raise ValueError(f"pushforward_kernel: {label} must be a unit vector in R^{n + 1}")

    # each section has degree k in the fiber variable p
    qs = np.stack([q0, q1])
    nodes, w = fiber_rule(qs, k)
    s = basis.evaluate((qs[:, None, :] + 1j * nodes).reshape(-1, n + 1))
    fibers = w @ s.reshape(2, len(w), basis.size)
    prefactor = basis.prefactor(math.sqrt(2.0))  # the slice of q + ip
    raw = prefactor * complex(np.sum(fibers[0] * fibers[1].conj()))
    # the exact kernel pushes forward to a real value, and the sampled one
    # lies within gram_error times the fiber integrals' norms of it (see
    # ConeBasis); only an excess beyond that and rounding is a bug
    scale = prefactor * float(np.linalg.norm(fibers[0]) * np.linalg.norm(fibers[1]))
    allowance = 1e-8 * (1.0 + abs(raw.real)) + basis.gram_error * scale
    return raw, allowance


def pushforward_kernel(basis: ConeBasis, q0: np.ndarray, q1: np.ndarray) -> float:
    """Fiber-integrated kernel over the two cospheres above q0 and q1.

    Integrates the basis's kernel on the radius-sqrt(2) slice,
    kernel(q0 + ip, q1 + ip'), over p in the unit sphere of
    q0-perp and p' in the unit sphere of q1-perp with polynomial-exact
    product rules.  The result equals the sphere projector kernel at
    q0 . q1 times the squared push-forward norm constant.  Returns the real
    part; the imaginary part must stay within the basis's gram_error bound
    (rounding alone, for an exact basis) or the call raises.
    """
    raw, allowance = _pushforward_raw(basis, q0, q1)
    if abs(raw.imag) > allowance:
        raise RuntimeError(
            f"pushforward_kernel: imaginary residue {raw.imag:.3e} exceeds noise allowance"
        )
    return raw.real


def c_constant_numeric(idx: ZonalIndex) -> float:
    """Norm ratio of the fiber push-forward on a null power section.

    The push-forward of the quadric's degree-k Szego kernel is c_k^2 times
    the sphere projector, with

        c_k^2 = (n-1)! vol(S^n) vol(S^(n-1)) / (2 sqrt(2) pi^L)
                * Gamma(k+L) / Gamma(k+n-1),   L = (n-1)/2,

    evaluated here in log-Gamma.  It holds at every k >= 0, including the
    constant section k = 0, where `c_constant_leading` is undefined.  The
    tests check it against an independent product quadrature of both norms
    of (a . z)^k with a . a = 0 (tests/oracles.py), so n is limited to
    ORACLE_DIMENSIONS, the dimensions that quadrature covers.
    """
    n, k = idx.n, idx.k
    _require_oracle_domain("c_constant_numeric", n)
    half = 0.5 * (n - 1)
    base = math.factorial(n - 1) * (vol_sphere(n) * vol_sphere(n - 1)) / (2.0 * math.sqrt(2.0) * math.pi**half)
    return math.sqrt(base * math.exp(math.lgamma(k + half) - math.lgamma(k + n - 1)))


def _fubini_study_distance(z0: np.ndarray, z1: np.ndarray) -> float:
    """Projective distance between circle fibers through two slice points.

    For z0, z1 on the radius-sqrt(2) slice, where the caller builds them,
    this is the minimum over phases of |exp(-i g) z0 - z1| / sqrt(2), which
    closes to sqrt(2 - |<z0, z1>|).
    """
    return math.sqrt(max(2.0 - abs(complex(np.vdot(z0, z1))), 0.0))


def offdiagonal_decay_probe(bases: list[ConeBasis], seed: int) -> dict:
    """Normalized kernel magnitude at a fixed separated pair, per degree.

    The pair is drawn from the rng.PROBE substream of seed: a Haar frame
    (q, p) and a unit extension e orthogonal to both give the unit-slice
    points x = (q + ip)/sqrt(2) and x' = (cos(a) q + sin(a) e + ip)/sqrt(2),
    a = PROBE_ANGLE, sqrt(2) sin(a / 2) apart in projective distance
    (`_fubini_study_distance` of their sqrt(2) lifts).  For each degree-k
    basis, evaluates the sections at both points in one call, takes their
    2 x 2 Gram s s^H, and computes |K(x, x')| / sqrt(K(x, x) K(x', x')),
    which lies within gram_error (1 + value) / (1 - gram_error) of the
    exact kernel's, and flags values below the basis gram_error, where they
    are consistent with zero, as noise-floor entries.  Returns the oracle's
    decay section: the pair's `distance`, the degrees `ks` in increasing
    order, their `values` and `below_floor` flags, the fitted exponential
    `decay_rate` over the clean prefix before the first floor entry (None
    below two clean values), and whether that prefix is strictly decreasing
    (`monotone_until_floor`).  The bases must be non-empty, of distinct
    degrees and share one sphere dimension n >= 2 (`_ordered_bases`), as e
    needs a third direction.
    """
    n, bases = _ordered_bases(bases, "offdiagonal_decay_probe")
    if n < 2:
        raise ValueError(f"offdiagonal_decay_probe: extension direction needs n >= 2, got {n}")
    gen = rng.substream(seed, rng.PROBE, 0)
    q, p = _frame_block(n, 1, gen)
    q, p = q[0], p[0]
    while True:
        v = gen.normal(size=n + 1)
        v -= np.dot(v, q) * q + np.dot(v, p) * p
        norm = float(np.linalg.norm(v))
        if norm > FRAME_TOL:
            e = v / norm
            break
    scale = 1.0 / math.sqrt(2.0)
    x = scale * (q + 1j * p)
    x_prime = scale * (math.cos(PROBE_ANGLE) * q + math.sin(PROBE_ANGLE) * e + 1j * p)
    pair = np.array([x, x_prime], dtype=complex)
    dist = _fubini_study_distance(*(math.sqrt(2.0) * pair))

    ks, values, flags = [], [], []
    for basis in bases:
        s = basis.evaluate(pair)
        gram = s @ s.conj().T
        normalized = float(abs(gram[0, 1]) / math.sqrt(gram[0, 0].real * gram[1, 1].real))
        ks.append(basis.k)
        values.append(normalized)
        flags.append(normalized < basis.gram_error)

    first_floor = next((i for i, f in enumerate(flags) if f), len(flags))
    clean = values[:first_floor]
    monotone = all(b < a for a, b in zip(clean, clean[1:]))
    rate = None
    if len(clean) >= 2:
        rate = float(np.polyfit(np.array(ks[:first_floor], dtype=float), np.log(clean), 1)[0])
    return {"distance": dist, "ks": ks, "values": values, "below_floor": flags,
            "decay_rate": rate, "monotone_until_floor": monotone}
