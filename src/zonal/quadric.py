"""Geometry of the null quadric and its circle-bundle slices.

The complex cone {z : z.z = 0} in C^(n+1) meets the sphere of radius r in a
circle bundle X_r over projective quadric points; at radius sqrt(2) the
slice is exactly the set q + ip of orthonormal pairs (q, p) in R^(n+1).
This module samples those slices, builds L2-orthonormal bases of the
degree-k holomorphic sections by Monte Carlo, evaluates the associated
reproducing kernel, and pushes it forward along fibers to recover the
sphere eigenspace projector.  One build pass draws each block of frames
once for every requested degree and adds each degree's Gram by Hermitian
rank-k updates (zherk) over row slices of the block.  The check of the
Gram's standard error holds its frames as (q, p) and lifts and evaluates
them one row slice at a time, so neither holds more than one slice of
one degree's sections, whatever the sample count: at n = 3 and k = 8 the
build's traced peak is about 19 MB, 8 MB of it the check frames, and
`zonal oracle --n 3` peaks at about 84 MB, 60 MB of it numpy and scipy.
The push-forward constant c_k draws no samples: both of its norms are
exact product-quadrature integrals over the frames, summed in slices of
sphere nodes.  All randomness flows through counter-based substreams so
results depend only on (seed, sample count).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations_with_replacement

import numpy as np
from scipy.linalg import LinAlgError, blas, cholesky, solve_triangular

from . import rng
from .quadrature import complement_frame, fiber_rule, sphere_rule
from .special import ZonalIndex, vol_sphere

__all__ = [
    "FramePoint",
    "ConeBasis",
    "SzegoEvaluator",
    "DecayReport",
    "frame_volume",
    "cone_slice_mass",
    "sample_frame",
    "sphere_point",
    "monomial_basis",
    "build_cone_basis",
    "pushforward_kernel",
    "c_constant_numeric",
    "geodesic_lift",
    "s_plus_minus",
    "fubini_study_distance",
    "hlc_offset",
    "probe_pair",
    "offdiagonal_decay_probe",
]

FRAME_TOL = 1e-12
POINT_TOL = 1e-9
# relative floor for Cholesky pivots of the estimated Gram
PIVOT_FLOOR = 1e-8
# frames drawn by the independent check of the Gram's standard error
GRAM_CHECK_SAMPLES = 1 << 17
# check frames evaluated per slice; sets the check's memory, not its result
GRAM_CHECK_ROWS = 1 << 12
# block frames whose monomials are formed at a time; sets the build's memory,
# not its result.  Twice the check's slice: glibc's malloc returns free heap
# memory to the system once it exceeds twice the largest array it has
# unmapped so far, so with 4096-row build slices the check's per-slice
# arrays were returned and faulted back in every slice (about 10% of an
# n = 3 build)
GRAM_BUILD_ROWS = 1 << 13
# a block whose monomials take at most this many bytes is not sliced: at
# n = 2 and k <= 8 the extra calls cost about 3% of a build
WHOLE_BLOCK_BYTES = 5 << 20
# no slice is cut shorter than this: OpenBLAS sums zherk's inner dimension
# in 256-row chunks and halves a last chunk of 256 to 512 rows, so slices
# that start at multiples of 256 and leave no shorter remainder sum exactly
# as one call does, and numpy's matmul never meets a one-row slice
MIN_SLICE_ROWS = 256
# sphere nodes per slice of the c-constant's (sphere node, fiber node) grid
C_CONSTANT_NODES = 256


def _row_slices(count: int, rows: int) -> list[slice]:
    """Slices of `rows` rows covering range(count), in order.

    A remainder shorter than MIN_SLICE_ROWS joins the slice before it.
    """
    starts = list(range(0, count, rows))
    if len(starts) > 1 and count - starts[-1] < MIN_SLICE_ROWS:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [count])]


def frame_volume(n: int) -> float:
    """Volume of the orthonormal 2-frame manifold, vol(S^n) vol(S^(n-1))."""
    return vol_sphere(n) * vol_sphere(n - 1)


def cone_slice_mass(n: int, r: float = 1.0) -> float:
    """Total mass of the radius-r cone slice under the normalized volume form.

    The radius-sqrt(2) slice is the orthonormal 2-frame manifold embedded in
    R^(2n+2); its Euclidean-induced Riemannian volume is sqrt(2) times the
    product of the base and fiber sphere volumes (the base direction moving
    along the fiber circle carries metric factor sqrt(2), as a direct
    computation at n=1 confirms: two circles of circumference 2 pi sqrt(2)).
    The form scales with degree 2n-1 in r and one global 1/(2 pi) normalizes
    the circle direction:

        mass(r) = r^(2n-1) 2^(-(n-1)) vol(S^n) vol(S^(n-1)) / (2 pi).

    Cross-check: the trace of the degree-k reproducing kernel forces the
    diagonal value N / mass(sqrt(2)), whose large-k form is
    (sqrt(2)/2^n) (k/pi)^(n-1) exactly when this mass is used.
    """
    if not r > 0.0:
        raise ValueError(f"cone_slice_mass: expected radius > 0, got {r!r}")
    return float(r) ** (2 * n - 1) * 2.0 ** (-(n - 1)) * frame_volume(n) / (2.0 * math.pi)


@dataclass(frozen=True)
class FramePoint:
    """Orthonormal pair (q, p) in R^(n+1): a sphere point and a tangent."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if q.shape != p.shape or q.ndim != 1 or q.shape[0] < 2:
            raise ValueError("FramePoint: q and p must be equal-length vectors in R^(n+1), n >= 1")
        if abs(np.dot(q, q) - 1.0) > FRAME_TOL or abs(np.dot(p, p) - 1.0) > FRAME_TOL:
            raise ValueError("FramePoint: q and p must be unit vectors (tol 1e-12)")
        if abs(np.dot(q, p)) > FRAME_TOL:
            raise ValueError("FramePoint: q and p must be orthogonal (tol 1e-12)")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.q.shape[0] - 1

    def lift(self) -> np.ndarray:
        """Complex point q + ip on the radius-sqrt(2) slice."""
        return self.q + 1j * self.p


def _orthonormalize(g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """Gram-Schmidt on paired rows, in place; True marks a degenerate row."""
    with np.errstate(divide="ignore", invalid="ignore"):
        nq = np.linalg.norm(g1, axis=1)
        proj = np.einsum("ij,ij->i", g1, g2) / nq**2
        ng2 = np.linalg.norm(g2, axis=1)
        g2 -= proj[:, None] * g1
        nw = np.linalg.norm(g2, axis=1)
        g1 /= nq[:, None]
        g2 /= nw[:, None]
    return (nq < 1e-12) | (nw < 1e-8 * ng2)


def _frame_block(n: int, count: int, gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """count Haar frames as arrays Q, P of shape (count, n+1).

    The two Gaussian draws are orthonormalized in place, rng.BLOCK rows at a
    time; each row's arithmetic does not depend on the slicing.
    """
    q = gen.standard_normal((count, n + 1))
    p = gen.standard_normal((count, n + 1))
    bad = np.concatenate(
        [rows.start + np.flatnonzero(_orthonormalize(q[rows], p[rows])) for rows in _row_slices(count, rng.BLOCK)]
    )
    while len(bad):
        # measure-zero event; redrawing inside the block keeps determinism
        g1 = gen.standard_normal((len(bad), n + 1))
        g2 = gen.standard_normal((len(bad), n + 1))
        again = _orthonormalize(g1, g2)
        q[bad], p[bad] = g1, g2
        bad = bad[again]
    return q, p


def sample_frame(n: int, gen: np.random.Generator) -> FramePoint:
    """One Haar-distributed orthonormal 2-frame in R^(n+1)."""
    if n < 1:
        raise ValueError(f"sample_frame: expected n >= 1, got {n!r}")
    q, p = _frame_block(n, 1, gen)
    return FramePoint(q=q[0], p=p[0])


def sphere_point(n: int, gen: np.random.Generator) -> np.ndarray:
    """One uniform point on S^n; a draw of norm <= 1e-12 is drawn again."""
    while True:
        g = gen.standard_normal(n + 1)
        norm = float(np.linalg.norm(g))
        if norm > 1e-12:
            return g / norm


def monomial_basis(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples spanning degree k modulo the cone relation.

    The relation rewrites the squared first coordinate in terms of the rest,
    so tuples with first exponent 0 or 1 form a basis of the quotient; their
    count equals dim_eigenspace.  Tuples are returned in ascending
    lexicographic order.
    """
    if n < 1 or k < 0:
        raise ValueError(f"monomial_basis: expected n >= 1 and k >= 0, got {(n, k)!r}")
    out = []
    for first in (0, 1):
        rest = k - first
        if rest < 0:
            continue
        # multisets of n slots of total degree rest
        for combo in combinations_with_replacement(range(n), rest):
            expo = [0] * n
            for slot in combo:
                expo[slot] += 1
            out.append((first, *expo))
    return tuple(sorted(out))


def _monomial_matrix(z: np.ndarray, exponents) -> np.ndarray:
    """Raw monomial values, shape (M, len(exponents)) for z of shape (M, n+1)."""
    m, ncoord = z.shape
    maxe = [max(e[j] for e in exponents) for j in range(ncoord)]
    pows = []
    for j in range(ncoord):
        tbl = np.empty((maxe[j] + 1, m), dtype=complex)
        tbl[0] = 1.0
        for e in range(1, maxe[j] + 1):
            tbl[e] = tbl[e - 1] * z[:, j]
        pows.append(tbl)
    # one contiguous row per monomial; out-of-place products round as a plain product
    out = np.empty((len(exponents), m), dtype=complex)
    for i, expo in enumerate(exponents):
        acc = pows[0][expo[0]]
        for j in range(1, ncoord):
            if expo[j]:
                acc = acc * pows[j][expo[j]]
        out[i] = acc
    return out.T


@dataclass(frozen=True)
class ConeBasis:
    """Monte Carlo orthonormal basis of degree-k sections on the unit slice.

    coeff is lower triangular; row a of coeff gives section a as a
    combination of the raw monomials, orthonormal for the normalized volume
    of the radius-1 slice at the recorded sample count and seed.
    gram_stderr is the largest entrywise standard error of the
    orthonormalized family's empirical Gram at that sample count.
    """

    n: int
    k: int
    exponents: tuple[tuple[int, ...], ...]
    coeff: np.ndarray
    samples: int
    seed: int
    gram_stderr: float

    @property
    def size(self) -> int:
        return len(self.exponents)

    def evaluate(self, z: np.ndarray) -> np.ndarray:
        """Orthonormal section values, shape (M, size) for z of shape (M, n+1)."""
        z = np.atleast_2d(np.asarray(z, dtype=complex))
        return _monomial_matrix(z, self.exponents) @ self.coeff.T


def _block_gram(z: np.ndarray, exponents) -> np.ndarray:
    """Upper triangle of m^H m for the monomials m of one block of points.

    The monomials are formed GRAM_BUILD_ROWS rows at a time, or all at once
    if they take at most WHOLE_BLOCK_BYTES, and added by zherk with
    beta = 1.  On OpenBLAS the sum is the one-call zherk's, bit for bit
    (see MIN_SLICE_ROWS).
    """
    size = len(exponents)
    rows = len(z) if len(z) * size * 16 <= WHOLE_BLOCK_BYTES else GRAM_BUILD_ROWS
    gram = np.zeros((size, size), dtype=complex, order="F")
    for part in _row_slices(len(z), rows):
        # the monomial matrix is Fortran-ordered, so zherk forms a^H a without a copy
        gram = blas.zherk(1.0, _monomial_matrix(z[part], exponents), trans=2, beta=1.0, c=gram, overwrite_c=1)
    return gram


def _hermitian(upper: np.ndarray) -> np.ndarray:
    """Hermitian matrix whose upper triangle (diagonal included) is upper's."""
    return upper + np.triu(upper, 1).conj().T


def build_cone_basis(n: int, ks, samples: int, seed: int) -> tuple[ConeBasis, ...]:
    """Estimate the Gram of each degree's monomial basis on the unit slice and invert it.

    One pass draws Haar frames block by block (one substream per block) and
    scales the lifts down to radius 1.  For each degree in ks it forms the
    block's coset monomials and adds the upper triangle of their Gram by
    Hermitian rank-k updates (zherk), so each frame is drawn once for all
    degrees and one slice of one degree's monomials is held at a time.
    After the last block each Gram is scaled by the normalized slice
    volume, made Hermitian, and Cholesky-factorized with a relative pivot
    floor of 1e-8.
    Raises if a Gram is not safely positive definite, which is the
    too-few-samples signature.  Returns one ConeBasis per degree in the
    order of ks; each is the same whatever the other degrees are.
    """
    families = [monomial_basis(n, k) for k in ks]
    if not families:
        raise ValueError("build_cone_basis: ks is empty; need at least one degree")
    for exponents in families:
        if samples < 10 * len(exponents):
            raise ValueError(
                f"build_cone_basis: samples={samples} is below 10x basis size ({10 * len(exponents)}); increase samples"
            )
    mass = cone_slice_mass(n, 1.0)
    scale = 1.0 / math.sqrt(2.0)

    def one_block(b: int) -> np.ndarray:
        gen = rng.substream(seed, rng.GRAM, b)
        q, p = _frame_block(n, min(rng.BLOCK, samples - b * rng.BLOCK), gen)
        z = scale * (q + 1j * p)
        return np.concatenate([_block_gram(z, e).ravel() for e in families])

    flat = rng.map_blocks(one_block, -(-samples // rng.BLOCK)) * (mass / samples)
    grams = np.split(flat, np.cumsum([len(e) ** 2 for e in families])[:-1])
    check = _frame_block(n, min(samples, GRAM_CHECK_SAMPLES), rng.substream(seed, rng.GRAM_CHECK, 0))

    bases = []
    for k, exponents, upper in zip(ks, families, grams):
        nbasis = len(exponents)
        gram = _hermitian(upper.reshape(nbasis, nbasis))
        try:
            low = cholesky(gram, lower=True)
        except LinAlgError as exc:
            raise ValueError(
                f"build_cone_basis: Gram at samples={samples} is not positive definite; increase samples"
            ) from exc
        pivots = np.diag(low).real ** 2
        if pivots.min() < PIVOT_FLOOR * pivots.max():
            raise ValueError(
                f"build_cone_basis: Gram pivot ratio below {PIVOT_FLOOR:g} at samples={samples}; increase samples"
            )
        coeff = solve_triangular(low, np.eye(nbasis), lower=True)
        bases.append(ConeBasis(n, k, exponents, coeff, samples, seed, gram_stderr=0.0))
    stderrs = _gram_stderr(bases, mass, *check)
    return tuple(replace(b, gram_stderr=e) for b, e in zip(bases, stderrs))


def _gram_stderr(bases, mass: float, q: np.ndarray, p: np.ndarray) -> list[float]:
    """Largest entrywise stderr of each basis's orthonormalized empirical Gram.

    Estimates the population variance of the section products at the
    check frames (q, p), drawn by the build from a substream of their own
    and lifted to the unit slice, and scales it to each basis's sample
    count.  The frames are lifted GRAM_CHECK_ROWS at a time, and each
    basis's sections on the slice go into running sums, the first moment
    by zherk, so the check holds one slice of one basis's sections.
    """
    first = [np.zeros((b.size, b.size), dtype=complex) for b in bases]
    second = [np.zeros((b.size, b.size)) for b in bases]
    for start in range(0, len(q), GRAM_CHECK_ROWS):
        rows = slice(start, start + GRAM_CHECK_ROWS)
        z = (q[rows] + 1j * p[rows]) / math.sqrt(2.0)
        for basis, mom1, mom2 in zip(bases, first, second):
            s = basis.evaluate(z)
            # s.T is Fortran-ordered; its zherk is conj(s^H s), and only the modulus is used
            mom1 += blas.zherk(1.0, s.T)
            # |s|^2, squaring the imaginary parts in place: s is not used again
            sq = np.square(s.real)
            sq += np.square(s.imag, out=s.imag)
            # numpy's product, not dgemm or dsyrk, whose sums round differently
            mom2 += sq.T @ sq
            # freed before the next sections are evaluated, not when they are assigned
            del s, sq
    stderrs = []
    for basis, mom1, mom2 in zip(bases, first, second):
        mean = mass * _hermitian(mom1) / len(q)
        var = np.clip(mass**2 * mom2 / len(q) - np.abs(mean) ** 2, 0.0, None)
        stderrs.append(float(np.sqrt(var / basis.samples).max()))
    return stderrs


def _require_on_slice(z: np.ndarray, r: float, label: str) -> None:
    norms2 = np.sum(np.abs(z) ** 2, axis=-1)
    cone = np.abs(np.sum(z * z, axis=-1))
    if np.any(cone > POINT_TOL * np.maximum(1.0, norms2)):
        raise ValueError(f"{label}: point is not on the null cone (tol 1e-9)")
    if np.any(np.abs(np.sqrt(norms2) - r) > POINT_TOL):
        raise ValueError(f"{label}: point is not on the radius-{r:g} slice (tol 1e-9)")


@dataclass(frozen=True)
class SzegoEvaluator:
    """Reproducing kernel of the degree-k section space at a chosen radius.

    kernel(x, y) = r^-(2k+2n-1) sum_j s_j(x) conj(s_j(y)) with s_j the
    orthonormal sections of the underlying unit-slice basis.
    """

    basis: ConeBasis
    radius: float

    def __post_init__(self):
        if not (self.radius > 0.0):
            raise ValueError(f"SzegoEvaluator.radius: expected > 0, got {self.radius!r}")

    @property
    def prefactor(self) -> float:
        return float(self.radius) ** -(2 * self.basis.k + 2 * self.basis.n - 1)

    def kernel(self, x, y):
        x = np.asarray(x, dtype=complex)
        y = np.asarray(y, dtype=complex)
        single = x.ndim == 1 and y.ndim == 1
        xs = np.atleast_2d(x)
        ys = np.atleast_2d(y)
        _require_on_slice(xs, self.radius, "SzegoEvaluator.kernel x")
        _require_on_slice(ys, self.radius, "SzegoEvaluator.kernel y")
        sx = self.basis.evaluate(xs)
        sy = self.basis.evaluate(ys)
        vals = self.prefactor * np.sum(sx * sy.conj(), axis=-1)
        return complex(vals[0]) if single else vals


def _pushforward_raw(
    ev: SzegoEvaluator, q0: np.ndarray, q1: np.ndarray
) -> tuple[complex, float]:
    """Complex double fiber integral plus its imaginary-noise allowance."""
    basis = ev.basis
    n, k = basis.n, basis.k
    if n not in (2, 3):
        raise ValueError(f"pushforward_kernel: supported n is 2 or 3, got {n}")
    if abs(ev.radius - math.sqrt(2.0)) > 1e-12:
        raise ValueError("pushforward_kernel: evaluator must sit at radius sqrt(2)")
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
    raw = ev.prefactor * complex(np.sum(fibers[0] * fibers[1].conj()))
    # a Monte Carlo Gram leaves imaginary noise of order gram_stderr times
    # the fiber-integral magnitudes; only an excess beyond that is a bug
    scale = ev.prefactor * float(np.linalg.norm(fibers[0]) * np.linalg.norm(fibers[1]))
    allowance = 1e-8 * (1.0 + abs(raw.real)) + 10.0 * basis.size * basis.gram_stderr * scale
    return raw, allowance


def pushforward_kernel(ev: SzegoEvaluator, q0: np.ndarray, q1: np.ndarray) -> float:
    """Fiber-integrated kernel over the two cospheres above q0 and q1.

    Integrates kernel(q0 + ip, q1 + ip') over p in the unit sphere of
    q0-perp and p' in the unit sphere of q1-perp with polynomial-exact
    product rules.  The result equals the sphere projector kernel at
    q0 . q1 times the squared push-forward norm constant.  Returns the real
    part; the imaginary part must vanish up to the basis Gram noise
    (exactly, for a quadrature-exact basis) or the call raises.
    """
    raw, allowance = _pushforward_raw(ev, q0, q1)
    if abs(raw.imag) > allowance:
        raise RuntimeError(
            f"pushforward_kernel: imaginary residue {raw.imag:.3e} exceeds noise allowance"
        )
    return raw.real


# canonical null direction of the c-constant section
def _null_direction(n: int) -> np.ndarray:
    a = np.zeros(n + 1, dtype=complex)
    a[0] = 1.0
    a[1] = 1j
    return a


def c_constant_numeric(idx: ZonalIndex, *, null_vector: np.ndarray | None = None) -> float:
    """Norm ratio of the fiber push-forward on a null power section.

    The section is s(z) = (a . z)^k with a null (a . a = 0), by default
    a = e0 + i e1.  Both norms come from one product quadrature over the
    frames (q, p): sphere_rule(n, 2k) for q and the fiber rule of degree 2k
    for p, run over all q nodes at once.  The push-forward norm is the
    sphere integral of |fiber integral of s|^2; the section norm over the
    radius-sqrt(2) slice (normalized volume) is the frame integral of |s|^2,
    scaled by cone_slice_mass(n, sqrt(2)) / frame_volume(n).  Both
    integrands are polynomials of degree 2k in p, and integrating p out
    leaves a polynomial of degree at most 2k in q, so each rule has exactly
    its integrand's degree and the ratio is exact up to rounding.  It does
    not depend on the choice of a: rotations act transitively on null
    directions and the section scale cancels.
    """
    n, k = idx.n, idx.k
    if n not in (2, 3):
        raise ValueError(f"c_constant_numeric: supported n is 2 or 3, got {n}")

    if null_vector is None:
        a = _null_direction(n)
    else:
        a = np.asarray(null_vector, dtype=complex)
        if a.shape != (n + 1,):
            raise ValueError(f"c_constant_numeric: null_vector must have length {n + 1}")
        norm2 = float(np.linalg.norm(a)) ** 2
        if norm2 == 0.0 or abs(complex(np.sum(a * a))) > 1e-10 * norm2:
            raise ValueError("c_constant_numeric: null_vector must satisfy a . a = 0")

    nodes, weights = sphere_rule(n, 2 * k)
    sub_nodes, pw = sphere_rule(n - 1, 2 * k)
    # per sphere node: the fiber integral of s and that of |s|^2
    fiber = np.empty(len(nodes), dtype=complex)
    fiber_sq = np.empty(len(nodes))
    for part in _row_slices(len(nodes), C_CONSTANT_NODES):
        q = nodes[part]
        # a . p = (a @ frame(q)) . t at the fiber node p = frame(q) @ t, so the
        # (q node, fiber node) array of the p themselves is never formed
        vals = ((q @ a)[:, None] + 1j * ((a @ complement_frame(q)) @ sub_nodes.T)) ** k
        fiber[part] = vals @ pw
        fiber_sq[part] = (vals.real**2 + vals.imag**2) @ pw
    total = weights @ np.abs(fiber) ** 2
    section = weights @ fiber_sq
    denom = cone_slice_mass(n, math.sqrt(2.0)) * section / frame_volume(n)
    return math.sqrt(total / denom)


def geodesic_lift(frame: FramePoint, theta: float) -> np.ndarray:
    """Horizontal geodesic lift exp(-i theta) (q + ip) on the sqrt(2) slice."""
    return complex(np.exp(-1j * float(theta))) * frame.lift()


def s_plus_minus(v: np.ndarray) -> tuple[float, float]:
    """Both sheet heights -1 +- sqrt(1 - |v|^2) over an in-disk tangent v."""
    v = np.asarray(v, dtype=float)
    norm2 = float(np.dot(v.ravel(), v.ravel()))
    if norm2 > 1.0 + 1e-12:
        raise ValueError(f"s_plus_minus: |v| must be <= 1, got |v|^2 = {norm2!r}")
    root = math.sqrt(max(1.0 - norm2, 0.0))
    return -1.0 + root, -1.0 - root


def fubini_study_distance(z0: np.ndarray, z1: np.ndarray) -> float:
    """Projective distance between circle fibers through two slice points.

    For z0, z1 on the radius-sqrt(2) slice this is the minimum over phases
    of |exp(-i g) z0 - z1| / sqrt(2), which closes to sqrt(2 - |<z0, z1>|).
    """
    z0 = np.asarray(z0, dtype=complex)
    z1 = np.asarray(z1, dtype=complex)
    _require_on_slice(z0[None, :], math.sqrt(2.0), "fubini_study_distance z0")
    _require_on_slice(z1[None, :], math.sqrt(2.0), "fubini_study_distance z1")
    return math.sqrt(max(2.0 - abs(complex(np.vdot(z0, z1))), 0.0))


def hlc_offset(z: np.ndarray, theta: float, dp: np.ndarray) -> tuple[np.ndarray, float]:
    """Hermitian-orthogonal decomposition offset for a fiber perturbation.

    For z on the unit slice and a real tangent step dp with
    z + i exp(i theta) dp back on the unit slice, returns (h, beta) with
    beta = 1 - |dp|^2 / 2 and h = (z + i exp(i theta) dp) / beta - z.
    h is Hermitian-orthogonal to z and equals i exp(i theta) dp up to a
    second-order correction in |dp|.
    """
    z = np.asarray(z, dtype=complex)
    dp = np.asarray(dp, dtype=float)
    if z.shape != dp.shape:
        raise ValueError("hlc_offset: z and dp must have the same shape")
    _require_on_slice(z[None, :], 1.0, "hlc_offset z")
    target = z + 1j * complex(np.exp(1j * float(theta))) * dp
    _require_on_slice(target[None, :], 1.0, "hlc_offset z + i exp(i theta) dp")
    beta = 1.0 - 0.5 * float(np.dot(dp, dp))
    if beta <= 0.0:
        raise ValueError(f"hlc_offset: beta = {beta!r} is not positive; dp too large")
    return target / beta - z, beta


def probe_pair(n: int, seed: int, angle: float = 0.9) -> tuple[np.ndarray, np.ndarray]:
    """Separated unit-slice pair sharing a fiber direction, for decay probes.

    Draws a Haar frame (q, p) and a unit extension e orthogonal to both,
    then returns x = (q + ip)/sqrt(2) and x' = (cos(angle) q + sin(angle) e
    + ip)/sqrt(2).  The projective distance between the pair is
    sqrt(2) sin(angle / 2), about 0.615 at the default angle.
    """
    if n < 2:
        raise ValueError(f"probe_pair: extension direction needs n >= 2, got {n}")
    if not 0.0 < angle < math.pi:
        raise ValueError(f"probe_pair: angle must lie in (0, pi), got {angle!r}")
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
    x_prime = scale * (math.cos(angle) * q + math.sin(angle) * e + 1j * p)
    return x, x_prime


@dataclass(frozen=True)
class DecayReport:
    """Off-diagonal kernel decay across degrees at one fixed pair."""

    n: int
    distance: float
    ks: tuple[int, ...]
    values: tuple[float, ...]
    below_floor: tuple[bool, ...]
    decay_rate: float
    monotone_until_floor: bool
    superpolynomial: bool | None


def offdiagonal_decay_probe(
    bases: list[ConeBasis], x: np.ndarray, x_prime: np.ndarray, min_dist: float = 0.5
) -> DecayReport:
    """Normalized kernel magnitude at a fixed separated pair, per degree.

    For each degree-k basis (unit-slice evaluators), computes
    |K(x, x')| / sqrt(K(x, x) K(x', x')) and flags values below ten times
    the basis gram_stderr as noise-floor entries.  Reports the fitted
    exponential decay rate over the clean prefix, whether the clean prefix
    is strictly decreasing, and whether successive ratios shrink.
    """
    if not bases:
        raise ValueError("offdiagonal_decay_probe: need at least one basis")
    n = bases[0].n
    if any(b.n != n for b in bases):
        raise ValueError("offdiagonal_decay_probe: bases mix sphere dimensions")
    bases = sorted(bases, key=lambda b: b.k)
    x = np.asarray(x, dtype=complex)
    xp = np.asarray(x_prime, dtype=complex)
    _require_on_slice(x[None, :], 1.0, "offdiagonal_decay_probe x")
    _require_on_slice(xp[None, :], 1.0, "offdiagonal_decay_probe x_prime")
    # distance between the projective classes, via the sqrt(2)-scaled lifts
    dist = math.sqrt(max(2.0 - 2.0 * abs(complex(np.vdot(x, xp))), 0.0))
    if dist < min_dist:
        raise ValueError(
            f"offdiagonal_decay_probe: pair distance {dist:.3f} below minimum {min_dist:g}"
        )

    ks, values, flags = [], [], []
    for basis in bases:
        ev = SzegoEvaluator(basis=basis, radius=1.0)
        off = abs(ev.kernel(x, xp))
        d0 = ev.kernel(x, x).real
        d1 = ev.kernel(xp, xp).real
        normalized = off / math.sqrt(d0 * d1)
        ks.append(basis.k)
        values.append(normalized)
        flags.append(normalized < 10.0 * basis.gram_stderr)

    first_floor = next((i for i, f in enumerate(flags) if f), len(flags))
    clean = values[:first_floor]
    monotone = all(b < a for a, b in zip(clean, clean[1:]))
    if len(clean) >= 2:
        fit = np.polyfit(np.array(ks[:first_floor], dtype=float), np.log(clean), 1)
        rate = float(fit[0])
    else:
        rate = math.nan
    if len(clean) >= 3:
        ratios = [b / a for a, b in zip(clean, clean[1:])]
        superpoly = all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))
    else:
        superpoly = None
    return DecayReport(
        n=n,
        distance=dist,
        ks=tuple(ks),
        values=tuple(values),
        below_floor=tuple(flags),
        decay_rate=rate,
        monotone_until_floor=monotone,
        superpolynomial=superpoly,
    )
