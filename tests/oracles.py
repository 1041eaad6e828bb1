"""Independent quadrature oracle used by the test suite.

Everything here is computed from scratch with scipy Gauss-Legendre rules and
trapezoid circles, deliberately sharing no code with zonal.quadrature, so the
package's Monte Carlo and product-rule results can be checked against an
implementation with different seams.  Frozen constants at the bottom were
produced by this module and are asserted against fresh recomputation in the
tests, so silent drift on either side fails loudly.
"""
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.linalg import cholesky, solve_triangular
from scipy.special import roots_legendre

from zonal.quadric import ConeBasis, _monomial_basis

VOL_S1 = 2.0 * math.pi
VOL_S2 = 4.0 * math.pi
VOL_S3 = 2.0 * math.pi**2
VOL_S4 = 8.0 * math.pi**2 / 3.0
# fiber points per batch of fibered_batches
BATCH_POINTS = 1 << 13


def slice_mass(n: int, r: float = 1.0) -> float:
    """Normalized volume of the radius-r cone slice, derived independently.

    The frame manifold maps isometrically onto the sqrt(2) slice, where the
    in-sphere direction paired with the fiber direction is stretched by
    sqrt(2); scaling to radius r multiplies by (r / sqrt(2))^(2n - 1), and
    the fiber normalization divides by 2 pi.
    """
    # S^0 is two points: at n = 1 the slice is two circles
    vol_n = {1: VOL_S1, 2: VOL_S2, 3: VOL_S3, 4: VOL_S4}[n]
    vol_f = {1: 2.0, 2: VOL_S1, 3: VOL_S2, 4: VOL_S3}[n]
    vol_sqrt2 = math.sqrt(2.0) * vol_n * vol_f
    return vol_sqrt2 * (r / math.sqrt(2.0)) ** (2 * n - 1) / (2.0 * math.pi)


def complement(q: np.ndarray) -> np.ndarray:
    """Orthonormal bases of q-perp, rows, via QR factorizations.

    For q of shape (..., d) the bases have shape (..., d - 1, d).
    """
    q = np.asarray(q, dtype=float)
    d = q.shape[-1]
    stacked = np.concatenate([q[..., :, None], np.broadcast_to(np.eye(d), q.shape[:-1] + (d, d))], axis=-1)
    full = np.linalg.qr(stacked, mode="reduced")[0]
    return np.swapaxes(full[..., 1:d], -1, -2)


def circle_nodes(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid rule on the unit circle, exact below `count` in degree."""
    t = 2.0 * math.pi * np.arange(count) / count
    return np.column_stack([np.cos(t), np.sin(t)]), np.full(count, 2.0 * math.pi / count)


def sphere_nodes_s2(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Polar Gauss-Legendre x azimuth trapezoid rule on S^2, exact to degree."""
    m_polar = degree // 2 + 1
    m_azim = degree + 1
    x, w = roots_legendre(m_polar)
    t = 2.0 * math.pi * np.arange(m_azim) / m_azim
    sin_polar = np.sqrt(1.0 - x**2)
    nodes = np.empty((m_polar * m_azim, 3))
    weights = np.empty(m_polar * m_azim)
    i = 0
    for cos_p, sin_p, wp in zip(x, sin_polar, w):
        nodes[i : i + m_azim, 0] = sin_p * np.cos(t)
        nodes[i : i + m_azim, 1] = sin_p * np.sin(t)
        nodes[i : i + m_azim, 2] = cos_p
        weights[i : i + m_azim] = wp * 2.0 * math.pi / m_azim
        i += m_azim
    return nodes, weights


def sphere_nodes_s3(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Hopf-coordinate rule on S^3: Gauss-Legendre in sin^2(eta) x two circles.

    In coordinates (cos eta e^(i xi1), sin eta e^(i xi2)) the volume element
    is cos(eta) sin(eta) d eta d xi1 d xi2 = (1/2) dt d xi1 d xi2 with
    t = sin^2(eta), so surviving monomials are polynomials in t of half the
    sphere degree.
    """
    m_t = degree // 4 + 2
    m_xi = degree + 1
    x, w = roots_legendre(m_t)
    t = 0.5 * (x + 1.0)
    xi = 2.0 * math.pi * np.arange(m_xi) / m_xi
    cos_eta = np.sqrt(1.0 - t)
    sin_eta = np.sqrt(t)
    nodes = np.empty((m_t * m_xi * m_xi, 4))
    weights = np.empty(m_t * m_xi * m_xi)
    i = 0
    cell = (2.0 * math.pi / m_xi) ** 2
    for ce, se, wt in zip(cos_eta, sin_eta, w):
        for c1, s1 in zip(np.cos(xi), np.sin(xi)):
            nodes[i : i + m_xi, 0] = ce * c1
            nodes[i : i + m_xi, 1] = ce * s1
            nodes[i : i + m_xi, 2] = se * np.cos(xi)
            nodes[i : i + m_xi, 3] = se * np.sin(xi)
            weights[i : i + m_xi] = 0.25 * wt * cell
            i += m_xi
    return nodes, weights


def sphere_nodes(n: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    if n == 2:
        return sphere_nodes_s2(degree)
    if n == 3:
        return sphere_nodes_s3(degree)
    raise ValueError(f"oracle sphere rule supports n in (2, 3), got {n}")


def fiber_nodes(q: np.ndarray, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Rule on the unit sphere of q-perp, exact for polynomials to degree.

    For q of shape (..., d) the nodes have shape (..., F, d); the F weights
    are shared by every fiber.
    """
    basis = complement(q)
    inner, w = circle_nodes(degree + 1) if basis.shape[-2] == 2 else sphere_nodes_s2(degree)
    return inner @ basis, w


def fibered_batches(n: int, sphere_degree: int, fiber_degree: int):
    """Sphere nodes and weights with their fiber rules, BATCH_POINTS fiber points a batch.

    Yields (q, wq, pnodes, pweights): a batch of nodes q of the S^n rule of
    sphere_degree, their weights, and fiber_nodes(q, fiber_degree).
    """
    snodes, sweights = sphere_nodes(n, sphere_degree)
    batch = max(1, BATCH_POINTS // len(fiber_nodes(snodes[0], fiber_degree)[1]))
    for lo in range(0, len(sweights), batch):
        q = snodes[lo : lo + batch]
        yield (q, sweights[lo : lo + batch], *fiber_nodes(q, fiber_degree))


def eval_monomials(z: np.ndarray, exponents) -> np.ndarray:
    """Monomial values, one row per point, one column per exponent tuple."""
    z = np.asarray(z, dtype=complex)
    powers = {}
    out = np.empty((len(exponents), z.shape[0]), dtype=complex)
    for row, expo in zip(out, exponents):
        row[:] = 1.0
        for axis, power in enumerate(expo):
            if power:
                if (axis, power) not in powers:
                    powers[axis, power] = z[:, axis] ** power
                row *= powers[axis, power]
    return out.T


@lru_cache(maxsize=None)
def exact_gram(n: int, k: int) -> np.ndarray:
    """Quadrature-exact Gram of the coset monomials on the unit slice.

    Each entry integrates a polynomial of degree 2k in p, and the fiber
    integral leaves one of degree at most 2k in q, so both rules have
    degree 2k.
    """
    exponents = _monomial_basis(n, k)
    size = len(exponents)
    gram = np.zeros((size, size), dtype=complex)
    scale = 1.0 / math.sqrt(2.0)
    # all fibers of a batch of sphere nodes in one product
    for q, wq, pnodes, pweights in fibered_batches(n, 2 * k, 2 * k):
        vals = eval_monomials((scale * (q[:, None, :] + 1j * pnodes)).reshape(-1, n + 1), exponents)
        weights = np.outer(wq, pweights).ravel()
        gram += vals.conj().T @ (weights[:, None] * vals)
    vol_n = {2: VOL_S2, 3: VOL_S3}[n]
    vol_f = {2: VOL_S1, 3: VOL_S2}[n]
    gram *= slice_mass(n, 1.0) / (vol_n * vol_f)
    return 0.5 * (gram + gram.conj().T)


@lru_cache(maxsize=None)
def exact_cone_basis(n: int, k: int) -> ConeBasis:
    """ConeBasis whose coefficients come from the exact Gram, not Monte Carlo.

    The coefficients are real, as ConeBasis requires: the slice measure is
    unchanged by conjugation, so the exact Gram is real, and the quadrature
    leaves imaginary parts of rounding size alone.
    """
    gram = exact_gram(n, k)
    assert np.abs(gram.imag).max() <= 1e-15 * np.abs(gram).max()
    low = cholesky(gram.real, lower=True)
    coeff = solve_triangular(low, np.eye(gram.shape[0]), lower=True)
    return ConeBasis(
        n=n,
        k=k,
        exponents=_monomial_basis(n, k),
        coeff=coeff,
        samples=0,
        gram_error=0.0,
    )


def slice_draws(n: int, count: int, seed: int, chunk: int = 1 << 14):
    """count Haar points (q + ip)/sqrt(2) of the unit slice, chunk at a time.

    (q, p) is Gram-Schmidt on a pair of Gaussian vectors, drawn from numpy's
    default generator at `seed`, not from zonal.rng's substreams.
    """
    gen = np.random.default_rng(seed)
    for start in range(0, count, chunk):
        g1 = gen.standard_normal((min(chunk, count - start), n + 1))
        g2 = gen.standard_normal(g1.shape)
        q = g1 / np.linalg.norm(g1, axis=1)[:, None]
        w = g2 - np.einsum("ij,ij->i", q, g2)[:, None] * q
        yield (q + 1j * w / np.linalg.norm(w, axis=1)[:, None]) / math.sqrt(2.0)


def gram_stderr(basis: ConeBasis, seed: int, count: int = 1 << 17) -> float:
    """Largest entrywise standard error of a sampled basis's orthonormalized Gram.

    The statistical counterpart of the build's rigorous gram_error: the
    variance of the section products over `count` fresh Haar frames, drawn
    from numpy's default generator at `seed`, scaled to the basis's sample
    count.  It bounds typical entries, not every pair of points.
    """
    mass = slice_mass(basis.n, 1.0)
    first = np.zeros((basis.size, basis.size), dtype=complex)
    second = np.zeros((basis.size, basis.size))
    for z in slice_draws(basis.n, count, seed):
        s = basis.evaluate(z)
        first += s.conj().T @ s
        sq = np.abs(s) ** 2
        second += sq.T @ sq
    mean = mass * first / count
    var = np.clip(mass**2 * second / count - np.abs(mean) ** 2, 0.0, None)
    return float(np.sqrt(var / basis.samples).max())


@lru_cache(maxsize=None)
def exact_c_constant(n: int, k: int) -> float:
    """Push-forward norm ratio of (a . z)^k with a = e0 + i e1, no Monte Carlo."""
    a = np.zeros(n + 1, dtype=complex)
    a[0], a[1] = 1.0, 1j
    num = 0.0
    raw = 0.0
    for q, wq, pnodes, pweights in fibered_batches(n, 4 * k + 2, 2 * k):
        vals = ((q @ a)[:, None] + 1j * (pnodes @ a)) ** k
        num += float(wq @ np.abs(vals @ pweights) ** 2)
        raw += float(wq @ (np.abs(vals) ** 2 @ pweights))
    vol_n = {2: VOL_S2, 3: VOL_S3}[n]
    vol_f = {2: VOL_S1, 3: VOL_S2}[n]
    denom = slice_mass(n, math.sqrt(2.0)) * raw / (vol_n * vol_f)
    return math.sqrt(num / denom)


def sphere_volume(m: int) -> float:
    """vol(S^m) by the recursion vol(S^m) = 2 pi vol(S^(m-2)) / (m - 1)."""
    vol = 2.0 if m % 2 == 0 else 2.0 * math.pi
    for j in range(2 + m % 2, m + 1, 2):
        vol *= 2.0 * math.pi / (j - 1)
    return vol


def rational_c_constant(n: int, k: int) -> float:
    """Push-forward norm ratio of (a . z)^k, a = e0 + i e1, from a rational series.

    Over the unit sphere of q-perp, p . b has even moments
    (b . b)^j (1/2)_j / (n/2)_j, and with b the part of a orthogonal to q,
    b . b = -(a . q)^2.  The fiber mean of (a . (q + ip))^k is therefore
    gamma_k (a . q)^k with gamma_k = sum_j binom(k, 2j) (1/2)_j / (n/2)_j,
    summed here in fractions, and

        c_k^2 = 2^(-(2n-1)/2 - k) gamma_k vol(S^(n-1))^2 vol(S^n) / mass(1)
              = sqrt(2) pi 2^-k gamma_k vol(S^(n-1))

    with mass(1) as in slice_mass.  No quadrature and no Gamma function.
    """
    gamma, term = Fraction(0), Fraction(1)
    for j in range(k // 2 + 1):
        gamma += math.comb(k, 2 * j) * term
        term *= Fraction(2 * j + 1, n + 2 * j)
    return math.sqrt(math.sqrt(2.0) * math.pi * sphere_volume(n - 1) * float(gamma / 2**k))


def gegenbauer_norm_constant(idx) -> float:
    """Ratio r with Jacobi-normalized P_k^{(n/2-1, n/2-1)}(t) = r * legendre_normalized(idx, t).

    Equals Gamma(k + n/2) / (k! Gamma(n/2)), computed in log space so large
    degrees neither overflow nor lose the leading digits.  For n=2 it is
    exactly 1 for every k.
    """
    n, k = idx.n, idx.k
    return math.exp(math.lgamma(k + 0.5 * n) - math.lgamma(k + 1.0) - math.lgamma(0.5 * n))


def c_ratio_exact(n: int, k: int) -> float:
    """Closed form of c_k over its leading form, for k >= 1.

    c_k^2 is (n-1)! vol(S^n) vol(S^(n-1)) / (2 sqrt(2) pi^L) times
    Gamma(k+L) / Gamma(k+n-1), L = (n-1)/2, and the leading form replaces
    the Gamma ratio by its large-k value k^-L.  The ratio is therefore
    sqrt(k^L Gamma(k+L) / Gamma(k+n-1)) = 1 - (n-1)(3n-5)/(16 k) + O(k^-2):
    1 - 1/(16 k) at n=2, and exactly sqrt(k / (k+1)) at n=3.
    """
    half = 0.5 * (n - 1)
    return math.exp(0.5 * (half * math.log(k) + math.lgamma(k + half) - math.lgamma(k + n - 1)))


def decay_exact(angle: float, k: int) -> float:
    """Normalized kernel magnitude |K(x, x')| / sqrt(K(x, x) K(x', x')).

    The degree-k section space is spanned by (a . z)^k over null a, and the
    only kernel holomorphic of degree k in z, antiholomorphic in w and
    rotation invariant on the cone is a multiple of (z . conj(w))^k.  For the
    unit-slice pair x = (q + ip)/sqrt(2), x' = (cos(angle) q + sin(angle) e
    + ip)/sqrt(2), with (q, p, e) orthonormal, x . conj(x') is
    (1 + cos(angle)) / 2 and both diagonal values are equal.
    """
    return ((1.0 + math.cos(angle)) / 2.0) ** k


def szego_kernel_exact(n: int, k: int, z: np.ndarray, w: np.ndarray):
    """Degree-k reproducing kernel on the unit slice, N_k / mass(1) (z . conj(w))^k.

    The kernel is holomorphic of degree k in z, antiholomorphic in w and
    rotation invariant, and z . z = w . w = 0 on the cone, so it is a
    multiple of (z . conj(w))^k.  Its trace over the slice is the dimension
    N_k = binom(k+n, n) - binom(k+n-2, n) of the section space, and
    z . conj(z) = 1 on the unit slice fixes the multiple at N_k / mass(1).
    """
    dim = math.comb(k + n, n) - (math.comb(k + n - 2, n) if k >= 2 else 0)
    product = np.sum(np.asarray(z) * np.conj(np.asarray(w)), axis=-1)
    return dim / slice_mass(n, 1.0) * product**k


# Frozen outputs of exact_c_constant (full precision) at every degree the
# oracle CLI accepts.  Regenerating all of them takes about 3 s, the n = 3,
# k >= 5 entries nearly all of it; test_c_constant_oracle_reproduces_frozen_values
# recomputes the rest each run and compares.
C_EXACT = {
    (2, 0): 5.283508001182123,
    (2, 1): 3.7360043360892603,
    (2, 2): 3.2354746637021154,
    (2, 3): 2.953570762576816,
    (2, 4): 2.762812465288772,
    (2, 5): 2.6210340414652156,
    (2, 6): 2.5094490416509423,
    (2, 7): 2.418165603515515,
    (2, 8): 2.3413787776967947,
    (2, 9): 2.275411170060283,
    (2, 10): 2.2177964724458805,
    (2, 11): 2.166805829462722,
    (2, 12): 2.1211837551987136,
    (3, 0): 7.47200867217852,
    (3, 1): 5.283508001182123,
    (3, 2): 4.313966218269486,
    (3, 3): 3.736004336089291,
    (3, 4): 3.3415838638918247,
    (3, 5): 3.0504347667481273,
    (3, 6): 2.8241538201005376,
    (3, 7): 2.6417540005912756,
    (3, 8): 2.4906695573929154,
    (3, 9): 2.3628566100612183,
    (3, 10): 2.2528953814448003,
    (3, 11): 2.15698310913444,
    (3, 12): 2.0723623383275647,
}

# pushforward_kernel on exact bases at pinned sphere pairs
PUSH_PAIRS = {
    (2, 3): ((1.0, 0.0, 0.0), (3.0 / 13.0, 4.0 / 13.0, 12.0 / 13.0), -1.5328021971016041),
    (3, 2): ((1.0, 0.0, 0.0, 0.0), (0.2, 0.4, 0.4, 0.8), -2.375878784786796),
}
