import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular

from oracles import (
    C_EXACT,
    PUSH_PAIRS,
    c_ratio_exact,
    decay_exact,
    eval_monomials,
    exact_c_constant,
    exact_cone_basis,
    exact_gram,
    fiber_nodes,
    rational_c_constant,
    slice_draws,
    szego_kernel_exact,
)
from zonal import quadric, rng
from zonal.asymptotics import c_constant_leading
from zonal.quadric import (
    ConeBasis,
    _cone_slice_mass,
    _frame_block,
    _fubini_study_distance,
    _inverse_gram,
    _monomial_basis,
    _monomial_rows,
    _pushforward_raw,
    build_cone_basis,
    c_constant_numeric,
    offdiagonal_decay_probe,
    pushforward_kernel,
    sample_frame,
    sphere_point,
)
from zonal.special import ZonalIndex, dim_eigenspace, projector_kernel, vol_sphere

SQRT2 = math.sqrt(2.0)


def unit_slice_point(n: int, gen) -> np.ndarray:
    return sample_frame(n, gen) / SQRT2


# ---------------------------------------------------------------- mass and frames


def test_cone_slice_mass_values():
    np.testing.assert_allclose(_cone_slice_mass(2), 2.0 * math.pi, rtol=1e-14)
    np.testing.assert_allclose(_cone_slice_mass(3), math.pi**2, rtol=1e-14)
    for n in (2, 3):
        # the radius-r slice's mass is r^(2n-1) times the unit slice's
        np.testing.assert_allclose(
            SQRT2 ** (2 * n - 1) * _cone_slice_mass(n), SQRT2 * vol_sphere(n) * vol_sphere(n - 1) / (2.0 * math.pi),
            rtol=1e-13,
        )


def test_sample_frame_invariants():
    with pytest.raises(ValueError):
        sample_frame(0, np.random.default_rng(0))
    gen = np.random.default_rng(42)
    for n in (1, 2, 3, 5):
        for _ in range(50):
            z = sample_frame(n, gen)
            q, p = z.real, z.imag
            assert z.shape == (n + 1,)
            assert abs(np.dot(q, q) - 1.0) < 1e-12
            assert abs(np.dot(p, p) - 1.0) < 1e-12
            assert abs(np.dot(q, p)) < 1e-12
            assert abs(np.sum(z * z)) < 1e-12


def test_sample_frame_moments():
    # Haar frames: E[q] = 0 and E[q q^T] = I/(n+1); 4 sigma bands
    gen = np.random.default_rng(7)
    n, draws = 2, 4000
    qs = np.empty((draws, n + 1))
    for i in range(draws):
        qs[i] = sample_frame(n, gen).real
    assert np.abs(qs.mean(axis=0)).max() < 4.0 / math.sqrt(3.0 * draws)
    second = qs.T @ qs / draws
    assert np.abs(second - np.eye(n + 1) / (n + 1)).max() < 0.02


def test_sphere_point_uniform():
    gen = np.random.default_rng(3)
    pts = np.array([sphere_point(2, gen) for _ in range(2000)])
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    assert np.abs(pts.mean(axis=0)).max() < 4.0 / math.sqrt(3.0 * 2000)


def whole_array_frames(g1, g2):
    # one whole-array Gram-Schmidt pass, written independently of _frame_block
    nq = np.linalg.norm(g1, axis=1)
    w = g2 - (np.einsum("ij,ij->i", g1, g2) / nq**2)[:, None] * g1
    return g1 / nq[:, None], w / np.linalg.norm(w, axis=1)[:, None]


# one frame, a few, and several build blocks' worth, all orthonormalized in one
# pass; bitwise at 2 to 5 coordinates, where _frame_block's row norms add the
# squares in np.linalg.norm's order
@pytest.mark.parametrize("count", [1, 1000, 1 << 14, 2 << 14, (2 << 14) + 5, (3 << 14) + 300])
def test_frame_block_slices_match_whole_array(count):
    for n in (1, 2, 3, 4):
        q, p = _frame_block(n, count, np.random.default_rng(count))
        gen = np.random.default_rng(count)
        g1 = gen.standard_normal((count, n + 1))
        g2 = gen.standard_normal((count, n + 1))
        q_ref, p_ref = whole_array_frames(g1, g2)
        assert q.tobytes() == q_ref.tobytes(), n
        assert p.tobytes() == p_ref.tobytes(), n


@pytest.mark.filterwarnings("error")
def test_frame_block_redraws_degenerate_rows():
    # a zero first g1 row and a second g2 row parallel to its g1 are redrawn
    # from the same generator, in row order, until neither is degenerate
    g1 = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 2.0], [3.0, 0.0, 4.0]])
    g2 = np.array([[1.0, 0.0, 0.0], [2.0, 4.0, 4.0], [0.0, 1.0, 0.0]])
    first = [np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]), np.array([[1.0, 0.0, 0.0], [0.0, 5.0, 0.0]])]
    second = [np.array([[0.0, 3.0, 4.0]]), np.array([[1.0, 0.0, 0.0]])]
    draws = [g1, g2, *first, *second]

    class Stub:
        def standard_normal(self, size):
            out = draws.pop(0)
            assert out.shape == size
            return out.copy()

    q, p = _frame_block(2, 3, Stub())
    assert draws == []
    np.testing.assert_allclose(np.linalg.norm(q, axis=1), 1.0, atol=1e-15)
    np.testing.assert_allclose(np.linalg.norm(p, axis=1), 1.0, atol=1e-15)
    np.testing.assert_allclose(np.einsum("ij,ij->i", q, p), 0.0, atol=1e-15)
    np.testing.assert_array_equal(q, [[0.0, 0.6, 0.8], [1.0, 0.0, 0.0], [0.6, 0.0, 0.8]])
    np.testing.assert_array_equal(p, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])


def test_sphere_point_redraws_degenerate_draw():
    draws = [np.zeros(3), np.array([3.0, 0.0, 4.0])]

    class Stub:
        def standard_normal(self, size):
            assert size == 3
            return draws.pop(0)

    np.testing.assert_array_equal(sphere_point(2, Stub()), [0.6, 0.0, 0.8])
    assert draws == []
    # S^-1 is refused before any draw: a draw of no coordinates has norm 0 every time
    with pytest.raises(ValueError):
        sphere_point(-1, Stub())


# ---------------------------------------------------------------- monomial bases


def test_monomial_basis_small_cases():
    assert set(_monomial_basis(2, 1)) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert len(_monomial_basis(2, 2)) == 5
    assert len(_monomial_basis(3, 2)) == 9
    for e in _monomial_basis(2, 4):
        assert e[0] <= 1
        assert sum(e) == 4


def test_monomial_basis_counts_match_eigenspace():
    for n in (1, 2, 3, 4, 5):
        for k in (0, 1, 2, 3, 7, 12):
            assert len(_monomial_basis(n, k)) == dim_eigenspace(ZonalIndex(n=n, k=k))


def plain_monomials(z, exponents):
    # column by column: powers by repeated multiplication, factors left to right
    cols = []
    for expo in exponents:
        acc = None
        for j, e in enumerate(expo):
            power = np.ones(z.shape[0], dtype=complex)
            for _ in range(e):
                power = power * z[:, j]
            if acc is None:
                acc = power
            elif e:
                acc = acc * power
        cols.append(acc)
    return np.column_stack(cols)


def test_monomial_rows_match_plain_product():
    # several families in one call, mixed degrees and dimensions, one C-ordered
    # array per family; bitwise, including the length-1 rows where in-place
    # products round differently
    gen = np.random.default_rng(5)
    for n in (1, 2, 3, 4):
        families = [_monomial_basis(n, k) for k in (5, 0, 8, 1, 2)]
        for m in (1, 2, 3, 4097):
            z = (gen.standard_normal((m, n + 1)) + 1j * gen.standard_normal((m, n + 1))) / SQRT2
            outs = list(_monomial_rows(z, tuple(families)))
            assert len(outs) == len(families)
            for rows, exponents in zip(outs, families):
                assert rows.shape == (len(exponents), m) and rows.flags.c_contiguous
                assert rows.T.tobytes() == plain_monomials(z, exponents).tobytes()


def test_build_determinism():
    a = build_cone_basis(2, (2, 4), 30_000, seed=5)
    b = build_cone_basis(2, (2, 4), 30_000, seed=5)
    for x, y in zip(a, b):
        assert x.coeff.tobytes() == y.coeff.tobytes()
        assert x.gram_error == y.gram_error


def test_build_rejects_too_few_samples():
    with pytest.raises(ValueError, match=r"gram_error 0\.547 at k=2, samples=8 "):
        build_cone_basis(2, (2,), 8, seed=5)
    # every degree is judged by its own bound: the 17 sections at k=8 fail
    with pytest.raises(ValueError, match=r"gram_error 0\.635 at k=8, samples=40 "):
        build_cone_basis(2, (2, 8), 40, seed=5)
    # an empty degree list is named, not left to numpy's concatenate
    with pytest.raises(ValueError, match="ks is empty"):
        build_cone_basis(2, (), 30_000, seed=5)
    # 100 frames for the 81 sections at k=8 read gram_error 0.734 there,
    # where gram_error / (1 - gram_error) > 1 and its bounds say nothing
    assert build_cone_basis(3, (2, 4), 100, seed=1)[1].gram_error < 0.5
    with pytest.raises(ValueError, match=r"gram_error 0\.734 at k=8, samples=100 is at least 1/2"):
        build_cone_basis(3, (2, 4, 8), 100, seed=1)


def test_build_rejects_a_gram_that_is_not_positive_definite():
    # one frame and its sign-flip and conjugate images do not give the 9
    # sections at n = 3, k = 2 a positive definite Gram; Cholesky refuses it
    with pytest.raises(ValueError, match="Gram at samples=1 is not positive definite"):
        build_cone_basis(3, [2], 1, 0)


def test_build_accepts_by_the_bound_alone():
    # 49 frames for 5 sections is below a sample-count floor of 10 x N, yet
    # the bound reads 0.208 and admits the basis (8 frames read 0.547 and
    # are refused, in test_build_rejects_too_few_samples)
    (basis,) = build_cone_basis(2, (2,), 49, seed=5)
    assert round(basis.gram_error, 3) == 0.208


@pytest.mark.parametrize("samples", [0, -3])
def test_build_rejects_nonpositive_samples(samples):
    with pytest.raises(ValueError, match=rf"expected samples >= 1, got {samples}"):
        build_cone_basis(2, (2,), samples, seed=5)


def gram_error(low, n, k):
    # ||I - L^H G^-1 L|| for a Cholesky factor L, which the build takes class by class
    return np.abs(1.0 - np.linalg.eigvalsh(low.conj().T @ _inverse_gram(n, k) @ low)).max()


def test_build_matches_exact_gram(basis_cache):
    # orthonormality of the Monte Carlo basis under the true inner product:
    # coeff G coeff^H is the inverse of L^H G^-1 L, so its entries lie within
    # gram_error / (1 - gram_error) of the identity's
    for n, k in [(2, 2), (2, 4), (3, 2)]:
        basis = basis_cache.get(n, k)
        gram = exact_gram(n, k)
        dev = np.abs(basis.coeff @ gram @ basis.coeff.conj().T - np.eye(basis.size)).max()
        assert dev <= basis.gram_error / (1.0 - basis.gram_error) + 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_inverse_gram_matches_quadrature_oracle(n):
    # the closed form against the independent Gauss-Legendre and Hopf Gram
    for k in range(9):
        gram = exact_gram(n, k)
        np.testing.assert_allclose(_inverse_gram(n, k) @ gram, np.eye(len(gram)), rtol=0, atol=1e-12)
        # the exact basis's own Cholesky factor reads as exact
        assert gram_error(cholesky(gram, lower=True), n, k) <= 1e-12


def sampled_gram_errors(n, ks, count, seed):
    # gram_error of the Gram of `count` test-side Haar frames, one per degree
    families = [_monomial_basis(n, k) for k in ks]
    grams = [np.zeros((len(e), len(e)), dtype=complex) for e in families]
    for z in slice_draws(n, count, seed):
        for exponents, gram in zip(families, grams):
            vals = eval_monomials(z, exponents)
            gram += vals.conj().T @ vals
    mass = _cone_slice_mass(n)
    return [gram_error(cholesky(gram * (mass / count), lower=True), n, k) for k, gram in zip(ks, grams)]


@pytest.mark.parametrize("n", [1, 4])
def test_inverse_gram_against_sampled_gram(n):
    # where the quadrature oracle has no rule: two circles at n = 1, and
    # n = 4, against the Gram of 10^6 test-side Haar frames.  The error is
    # sampling noise of order sqrt(N / samples) for N sections: 0.1e-3 at
    # n = 1 and 3e-3 to 10e-3 at n = 4, k = 1..3, held below 4 sqrt(N)
    # x 1e-3.  It must also shrink from 10^4 frames, where a wrong closed
    # form would leave it at a floor
    ks = (1, 2, 3)
    few = sampled_gram_errors(n, ks, 10**4, seed=n)
    many = sampled_gram_errors(n, ks, 10**6, seed=n)
    for k, before, after in zip(ks, few, many):
        assert after <= 4e-3 * math.sqrt(len(_monomial_basis(n, k))), (k, after)
        assert after < before / 4.0, (k, before, after)


def same_parity(exponents):
    # True where two exponent tuples agree mod 2
    parity = np.array(exponents) % 2
    return (parity[:, None, :] == parity[None, :, :]).all(axis=-1)


def gram_frames(n, samples, seed):
    # the build's unit-slice frames, block by block
    full, tail = divmod(samples, rng.BLOCK)
    for b, size in enumerate([rng.BLOCK] * full + [tail] * bool(tail)):
        q, p = _frame_block(n, size, rng.substream(seed, rng.GRAM, b))
        yield (q + 1j * p) / SQRT2


def reference_build(n, k, samples, seed):
    # one degree per pass, its parity classes read off same_parity.  Each
    # class's Gram is summed block by block as the real product of its
    # monomial rows, real and imaginary parts interleaved (Re a^H a), the
    # build's own arithmetic: coeff entries far below the largest carry a
    # one-ulp change of the Gram as about 1e-12 of themselves, so a Gram
    # formed any other way could not be held to rtol 1e-12
    exponents = _monomial_basis(n, k)
    classes = [np.flatnonzero(row) for row in np.unique(same_parity(exponents), axis=0)]
    grams = [np.zeros((len(idx), len(idx))) for idx in classes]
    for z in gram_frames(n, samples, seed):
        (a,) = _monomial_rows(z, (exponents,))
        a = a.view(float)
        for idx, gram in zip(classes, grams):
            rows = a[idx]
            gram += rows @ rows.T
    low = np.zeros((len(exponents), len(exponents)))
    for idx, gram in zip(classes, grams):
        low[np.ix_(idx, idx)] = cholesky(gram * (_cone_slice_mass(n) / samples), lower=True)
    coeff = solve_triangular(low, np.eye(len(exponents)), lower=True)
    # ||I - L^T G^-1 L|| over all classes at once, with the quadrature oracle's G, not the closed form
    error = np.abs(1.0 - np.linalg.eigvalsh(low.T @ np.linalg.solve(exact_gram(n, k), low))).max()
    return coeff, error


@pytest.mark.parametrize("n", [2, 3])
def test_one_pass_build_equals_one_degree_builds(n):
    # 2 rng.BLOCK + 1 samples end in a one-row block, which adds like any other
    ks = (2, 4, 8)
    for samples in (40_000, 2 * rng.BLOCK + 1):
        together = build_cone_basis(n, ks, samples, seed=3)
        assert [b.k for b in together] == list(ks)
        for k, basis in zip(ks, together):
            (alone,) = build_cone_basis(n, (k,), samples, seed=3)
            assert basis.coeff.tobytes() == alone.coeff.tobytes()
            assert basis.gram_error == alone.gram_error
            coeff, error = reference_build(n, k, samples, seed=3)
            assert basis.coeff.dtype == float and not np.triu(basis.coeff, 1).any()
            np.testing.assert_allclose(basis.coeff, coeff, rtol=1e-12, err_msg=f"samples={samples}")
            np.testing.assert_allclose(basis.gram_error, error, rtol=1e-12, err_msg=f"samples={samples}")


@pytest.mark.parametrize("n, samples", [(2, 2 * rng.BLOCK + 1), (3, 1000)])
def test_build_gram_is_the_gram_of_each_frames_images(n, samples):
    # the Haar frame measure is unchanged by the 2^(n+1) coordinate sign
    # flips and by conjugation, so the build's Gram L L^T (L = coeff^-1) is
    # the plain complex Gram of every drawn frame's 2^(n+2) images; its
    # entries between parity classes, zero in L L^T, cancel to rounding
    ks = (2, 4, 8)
    frames = np.concatenate(list(gram_frames(n, samples, seed=4)))
    images = [w for signs in itertools.product((1.0, -1.0), repeat=n + 1)
              for w in (frames * signs, (frames * signs).conj())]
    for basis in build_cone_basis(n, ks, samples, seed=4):
        gram = np.zeros((basis.size, basis.size), dtype=complex)
        for w in images:
            a = eval_monomials(w, basis.exponents)
            gram += a.conj().T @ a
        gram *= _cone_slice_mass(n) / (samples * len(images))
        low = np.linalg.inv(basis.coeff)
        np.testing.assert_allclose(gram, low @ low.T, rtol=1e-12, atol=1e-15 * np.abs(gram).max(),
                                   err_msg=f"k={basis.k}")
    # the exact inverse Gram is real and zero between parity classes, so
    # gram_error may be taken class by class
    for k in range(13):
        inverse = _inverse_gram(n, k)
        assert inverse.dtype == float
        assert not inverse[~same_parity(_monomial_basis(n, k))].any(), k


def test_build_memory_does_not_grow_with_check_frames():
    # the build holds one rng.BLOCK (8192-row) block of one degree's
    # monomials: at k = 8 (81 sections) about 15 MB, 11 MB of it the
    # monomials, 4 MB their coordinate powers and 1 MB the block's frames and
    # lifts.  Blocks of 16384 rows formed whole read 30 MB
    for ks in ((2, 4, 8), (8,)):
        tracemalloc.start()
        try:
            build_cone_basis(3, ks, 200_000, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20, ks


def test_build_allocates_nothing_per_block_up_front(monkeypatch):
    # 10^13 samples are 1.2e9 blocks; a list of their sizes would be 9.8 GB
    class Refused(Exception):
        pass

    def refuse(fn, nblocks):
        assert nblocks == -(-10**13 // rng.BLOCK)
        raise Refused

    monkeypatch.setattr(rng, "map_blocks", refuse)
    tracemalloc.start()
    try:
        with pytest.raises(Refused):
            build_cone_basis(3, (2, 4, 8), 10**13, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------------------------------------- kernel identities


def test_kernel_validation(basis_cache):
    basis = basis_cache.get(2, 2)
    x = unit_slice_point(2, np.random.default_rng(0))
    with pytest.raises(ValueError, match="expected radius > 0"):
        basis.kernel(x, x, 0.0)
    assert basis.prefactor(1.0) == 1.0
    np.testing.assert_allclose(basis.prefactor(SQRT2), SQRT2 ** -(2 * 2 + 2 * 2 - 1), rtol=1e-15)
    with pytest.raises(ValueError):
        basis.kernel(np.array([1.0, 0.0, 0.0]), x, 1.0)


def test_kernel_hermitian_exact(basis_cache):
    basis = basis_cache.get(2, 3)
    gen = np.random.default_rng(11)
    for _ in range(20):
        x = unit_slice_point(2, gen)
        y = unit_slice_point(2, gen)
        val = basis.kernel(x, y, 1.0)
        assert abs(val - np.conj(basis.kernel(y, x, 1.0))) < 1e-13 * max(1.0, abs(val))


def test_kernel_parity_exact(basis_cache):
    for n, k in [(2, 2), (2, 3)]:
        basis = basis_cache.get(n, k)
        gen = np.random.default_rng(13)
        for _ in range(10):
            x = unit_slice_point(n, gen)
            y = unit_slice_point(n, gen)
            assert basis.kernel(-x, y, 1.0) == (-1.0) ** k * basis.kernel(x, y, 1.0)


def test_kernel_circle_equivariance(basis_cache):
    basis = basis_cache.get(2, 3)
    gen = np.random.default_rng(17)
    for _ in range(100):
        x = unit_slice_point(2, gen)
        y = unit_slice_point(2, gen)
        phase = gen.uniform(0.0, 2.0 * math.pi)
        lhs = basis.kernel(np.exp(1j * phase) * x, y, 1.0)
        rhs = np.exp(1j * basis.k * phase) * basis.kernel(x, y, 1.0)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_kernel_homogeneity(basis_cache):
    # radius-r kernel at scaled points is r^(1-2n) times the unit one
    for n, k in [(2, 3), (3, 2)]:
        basis = basis_cache.get(n, k)
        gen = np.random.default_rng(19)
        for _ in range(10):
            x = unit_slice_point(n, gen)
            y = unit_slice_point(n, gen)
            lhs = basis.kernel(SQRT2 * x, SQRT2 * y, SQRT2)
            rhs = SQRT2 ** (1 - 2 * n) * basis.kernel(x, y, 1.0)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_kernel_conjugation():
    # the section space is conjugation stable, so exact bases commute with it
    basis = exact_cone_basis(2, 3)
    gen = np.random.default_rng(23)
    for _ in range(20):
        x = unit_slice_point(2, gen)
        y = unit_slice_point(2, gen)
        val = basis.kernel(x, y, 1.0)
        np.testing.assert_allclose(
            basis.kernel(x.conj(), y.conj(), 1.0), np.conj(val), rtol=0, atol=5e-13 * max(1.0, abs(val))
        )


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", [1, 3, 6])
def test_kernel_matches_closed_form(n, k):
    # exact-quadrature basis against N_k / mass(1) (z . conj(w))^k, sharing no zonal code
    basis = exact_cone_basis(n, k)
    gen = np.random.default_rng(100 * n + k)
    x = np.array([unit_slice_point(n, gen) for _ in range(50)])
    y = np.array([unit_slice_point(n, gen) for _ in range(50)])
    diagonal = basis.size / _cone_slice_mass(n)
    err = np.abs(basis.kernel(x, y, 1.0) - szego_kernel_exact(n, k, x, y)).max() / diagonal
    assert err <= 1e-13


def test_kernel_conjugation_monte_carlo(basis_cache):
    # Monte Carlo bases obey it only to Gram noise: the sampled kernel lies
    # within gram_error |s(x)| |s(y)| of the exact one at each pair of points
    basis = basis_cache.get(2, 3)
    gen = np.random.default_rng(29)
    for _ in range(10):
        x = unit_slice_point(2, gen)
        y = unit_slice_point(2, gen)
        diff = abs(basis.kernel(x.conj(), y.conj(), 1.0) - np.conj(basis.kernel(x, y, 1.0)))
        sx, sy, sxc, syc = np.linalg.norm(basis.evaluate(np.array([x, y, x.conj(), y.conj()])), axis=1)
        assert diff <= basis.gram_error * (sx * sy + sxc * syc) + 1e-13


def test_diagonal_matches_dimension():
    # reproducing kernel diagonal is dim / mass on the sqrt(2) slice
    gen = np.random.default_rng(31)
    for n, k in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        basis = exact_cone_basis(n, k)
        expected = basis.size / (SQRT2 ** (2 * n - 1) * _cone_slice_mass(n))
        for _ in range(5):
            z = sample_frame(n, gen)
            np.testing.assert_allclose(basis.kernel(z, z, SQRT2).real, expected, rtol=1e-10)


# ---------------------------------------------------------------- push-forward


def test_pushforward_frozen_pairs():
    for (n, k), (q0, q1, expected) in PUSH_PAIRS.items():
        value = pushforward_kernel(exact_cone_basis(n, k), np.array(q0), np.array(q1))
        np.testing.assert_allclose(value, expected, rtol=1e-10)


def test_pushforward_matches_projector():
    gen = np.random.default_rng(41)
    for n, k in [(2, 2), (2, 3), (3, 2)]:
        basis = exact_cone_basis(n, k)
        c2 = C_EXACT[(n, k)] ** 2
        idx = ZonalIndex(n=n, k=k)
        for _ in range(5):
            q0 = sphere_point(n, gen)
            q1 = sphere_point(n, gen)
            value = pushforward_kernel(basis, q0, q1)
            expected = c2 * float(projector_kernel(idx, float(q0 @ q1)))
            np.testing.assert_allclose(value, expected, rtol=1e-9, atol=1e-12)


def test_pushforward_antipodal_parity():
    gen = np.random.default_rng(43)
    for n, k in [(2, 2), (2, 3)]:
        basis = exact_cone_basis(n, k)
        q0 = sphere_point(n, gen)
        q1 = sphere_point(n, gen)
        plus = pushforward_kernel(basis, q0, q1)
        minus = pushforward_kernel(basis, q0, -q1)
        np.testing.assert_allclose(minus, (-1.0) ** k * plus, rtol=1e-10)


def test_pushforward_imaginary_residue_tiny():
    basis = exact_cone_basis(2, 3)
    gen = np.random.default_rng(47)
    for _ in range(5):
        raw, _ = _pushforward_raw(basis, sphere_point(2, gen), sphere_point(2, gen))
        assert abs(raw.imag) < 1e-10 * (1.0 + abs(raw.real))


def test_pushforward_refuses_a_residue_past_its_allowance(basis_cache, monkeypatch):
    # a fiber rule whose first weight is scaled by 1.5 integrates the two
    # fibers unevenly, so the push-forward leaves the reals: its residue
    # reads -9.0e-2 against a 4.3e-2 allowance, and the call refuses
    basis = basis_cache.get(2, 4, seed=1)
    q0, q1 = np.array([1.0, 0.0, 0.0]), np.array([0.6, 0.8, 0.0])
    raw, _ = _pushforward_raw(basis, q0, q1)
    assert abs(raw.imag) < 1e-14 * (1.0 + abs(raw.real))
    rule = quadric.fiber_rule

    def uneven_rule(qs, k):
        nodes, weights = rule(qs, k)
        weights = weights.copy()
        weights[0] *= 1.5
        return nodes, weights

    monkeypatch.setattr(quadric, "fiber_rule", uneven_rule)
    raw, allowance = _pushforward_raw(basis, q0, q1)
    assert (round(raw.imag, 3), round(allowance, 3)) == (-0.090, 0.043)
    with pytest.raises(RuntimeError, match="imaginary residue -9.010e-02 exceeds noise allowance"):
        pushforward_kernel(basis, q0, q1)


def test_pushforward_fiber_rule_has_the_kernel_degree():
    # the kernel has degree k in each fiber variable, so the degree-k fiber
    # rule must match an independent double fiber integral of higher degree,
    # scaled by the basis's radius-sqrt(2) prefactor
    gen = np.random.default_rng(53)
    for n in (2, 3):
        for k in range(1, 9):
            basis = exact_cone_basis(n, k)
            q0 = sphere_point(n, gen)
            for q1 in (sphere_point(n, gen), sphere_point(n, gen), q0):
                raw, _ = _pushforward_raw(basis, q0, q1)
                fibers = []
                for q in (q0, q1):
                    nodes, weights = fiber_nodes(q, k + 4)
                    sections = eval_monomials(q + 1j * nodes, basis.exponents) @ basis.coeff.T
                    fibers.append(weights @ sections)
                ref = basis.prefactor(SQRT2) * complex(np.sum(fibers[0] * fibers[1].conj()))
                assert abs(raw - ref) <= 1e-13 * max(1.0, abs(ref)), (n, k, raw, ref)


def test_pushforward_validation(basis_cache):
    basis = exact_cone_basis(2, 2)
    e0 = np.array([1.0, 0.0, 0.0])
    e1 = np.array([0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        pushforward_kernel(basis, 2.0 * e0, e1)
    with pytest.raises(ValueError):
        pushforward_kernel(basis, np.array([1.0, 0.0, 0.0, 0.0]), e1)
    (n1,) = build_cone_basis(1, (2,), 1000, seed=1)
    with pytest.raises(ValueError):
        pushforward_kernel(n1, e0[:2], e1[:2])


# ---------------------------------------------------------------- norm constant


def test_c_constant_degree_zero_closed_form():
    # k=0 section is constant: ratio is sqrt(sqrt(2) pi vol(S^(n-1))) exactly
    for n in (2, 3):
        value = c_constant_numeric(ZonalIndex(n=n, k=0))
        np.testing.assert_allclose(value, math.sqrt(SQRT2 * math.pi * vol_sphere(n - 1)), rtol=1e-12)


def test_c_constant_matches_quadrature_oracle():
    for (n, k), expected in C_EXACT.items():
        value = c_constant_numeric(ZonalIndex(n=n, k=k))
        np.testing.assert_allclose(value, expected, rtol=1e-12, err_msg=f"n={n} k={k}")


def test_c_constant_oracle_reproduces_frozen_values():
    # the quadrature entries of C_EXACT that recompute in about 50 ms
    cheap = [(2, k) for k in range(13)] + [(3, k) for k in range(5)]
    for n, k in cheap:
        np.testing.assert_allclose(
            exact_c_constant(n, k), C_EXACT[(n, k)], rtol=1e-12, err_msg=f"n={n} k={k}"
        )


def test_c_constant_ratio_matches_gamma_closed_form():
    # the independent quadrature, not the package's closed form, against the
    # Gamma ratio: the paper's identity checked at every oracle degree
    for n in (2, 3):
        for k in range(1, 13):
            idx = ZonalIndex(n=n, k=k)
            ratio = C_EXACT[(n, k)] / c_constant_leading(idx)
            np.testing.assert_allclose(
                ratio, c_ratio_exact(n, k), rtol=1e-12, err_msg=f"n={n} k={k}"
            )


def test_rational_c_constant_matches_gamma_closed_form():
    # the rational series against the Gamma ratio beyond the quadrature
    # oracle's n = 2, 3: within 0.94e-15 k measured, for n = 2..11
    for n in range(2, 12):
        for k in range(1, 101):
            ratio = rational_c_constant(n, k) / c_constant_leading(ZonalIndex(n=n, k=k))
            np.testing.assert_allclose(ratio, c_ratio_exact(n, k), rtol=4e-15 * k, err_msg=f"n={n} k={k}")


def test_rational_c_constant_matches_package():
    # within 0.65e-15 max(k, 1) measured, the lgamma difference's rounding
    for n in (2, 3):
        for k in range(201):
            np.testing.assert_allclose(
                c_constant_numeric(ZonalIndex(n=n, k=k)), rational_c_constant(n, k),
                rtol=4e-15 * max(k, 1), err_msg=f"n={n} k={k}",
            )


def test_c_constant_validation():
    with pytest.raises(ValueError):
        c_constant_numeric(ZonalIndex(n=1, k=2))


# ---------------------------------------------------------------- slice geometry


def test_fubini_study_distance_basics():
    z = np.array([1.0, 1j, 0.0])
    assert _fubini_study_distance(z, z) == 0.0
    assert _fubini_study_distance(z, np.exp(1j * 0.8) * z) < 1e-7
    np.testing.assert_allclose(_fubini_study_distance(z, z.conj()), SQRT2, rtol=1e-12)


def test_decay_probe_pair():
    # the probe draws its pair from the seed alone, PROBE_ANGLE apart at the base
    bases = [exact_cone_basis(2, k) for k in (2, 3)]
    report = offdiagonal_decay_probe(bases, seed=77)
    assert offdiagonal_decay_probe(bases, seed=77) == report
    np.testing.assert_allclose(report["distance"], SQRT2 * math.sin(quadric.PROBE_ANGLE / 2), rtol=1e-12)
    # the extension direction needs a third coordinate beyond the frame
    n1 = ConeBasis(1, 2, ((0, 2), (1, 1)), np.eye(2), samples=0, gram_error=0.0)
    with pytest.raises(ValueError, match="extension direction needs n >= 2, got 1"):
        offdiagonal_decay_probe([n1], seed=0)


# ------------------------------------------------------- unique fiber geometry


def matched_fiber_pair(angle: float):
    q0 = np.array([1.0, 0.0, 0.0])
    q1 = np.array([math.cos(angle), math.sin(angle), 0.0])
    c = float(q0 @ q1)
    s = math.sqrt(1.0 - c * c)
    p0 = (q1 - c * q0) / s
    p1 = -s * q0 + c * p0
    return q0, q1, p0, p1


def test_unique_fiber_sign_combinations():
    # distance vanishes only when both fiber signs match
    q0, q1, p0, p1 = matched_fiber_pair(0.9)
    for s0, s1 in [(1, 1), (-1, -1)]:
        assert _fubini_study_distance(q0 + 1j * s0 * p0, q1 + 1j * s1 * p1) < 1e-12
    for s0, s1 in [(1, -1), (-1, 1)]:
        d = _fubini_study_distance(q0 + 1j * s0 * p0, q1 + 1j * s1 * p1)
        assert abs(d - SQRT2) < 1e-12


def test_unique_fiber_grid_scan():
    # over both full fiber circles the points meet at exactly two spots
    q0, q1, p0, p1 = matched_fiber_pair(0.9)
    w0 = np.cross(q0, p0)
    w1 = np.cross(q1, p1)
    steps = 72
    ang = np.arange(steps) * (2.0 * math.pi / steps)
    pa = np.cos(ang)[:, None] * p0 + np.sin(ang)[:, None] * w0
    pb = np.cos(ang)[:, None] * p1 + np.sin(ang)[:, None] * w1
    grid = np.empty((steps, steps))
    for i in range(steps):
        for j in range(steps):
            grid[i, j] = _fubini_study_distance(q0 + 1j * pa[i], q1 + 1j * pb[j])
    assert grid[0, 0] < 1e-12
    assert grid[steps // 2, steps // 2] < 1e-6
    mask = np.ones_like(grid, dtype=bool)
    for ci, cj in [(0, 0), (steps // 2, steps // 2)]:
        for di in range(-2, 3):
            for dj in range(-2, 3):
                mask[(ci + di) % steps, (cj + dj) % steps] = False
    assert grid[mask].min() > 0.12


# ---------------------------------------------------------------- decay probe


def test_decay_probe_trivial_pairs(monkeypatch):
    # at angle 0 the probe pairs a point with itself
    monkeypatch.setattr(quadric, "PROBE_ANGLE", 0.0)
    bases = [exact_cone_basis(2, k) for k in (2, 3, 4)]
    same = offdiagonal_decay_probe(bases, seed=77)
    np.testing.assert_allclose(same["values"], 1.0, rtol=1e-12)
    assert same["distance"] < 1e-7


def test_decay_probe_structure():
    bases = [exact_cone_basis(2, k) for k in (2, 3, 4, 5, 6, 7, 8)]
    report = offdiagonal_decay_probe(bases, seed=77)
    assert report["ks"] == [2, 3, 4, 5, 6, 7, 8]
    half = quadric.PROBE_ANGLE / 2
    np.testing.assert_allclose(report["distance"], SQRT2 * math.sin(half), rtol=1e-12)
    assert not any(report["below_floor"])
    assert report["monotone_until_floor"]
    # overlap |<x, x'>| = cos^2(PROBE_ANGLE / 2) drives exponential decay in k
    assert abs(report["decay_rate"] - 2.0 * math.log(math.cos(half))) < 0.01
    for a, b in zip(report["values"], report["values"][1:]):
        assert b < a


def test_decay_probe_errors():
    with pytest.raises(ValueError, match="need at least one basis"):
        offdiagonal_decay_probe([], seed=1)
    mixed = [exact_cone_basis(2, 2), exact_cone_basis(3, 2)]
    with pytest.raises(ValueError, match="mix sphere dimensions n = 2 and 3"):
        offdiagonal_decay_probe(mixed, seed=1)
    repeated = [exact_cone_basis(2, k) for k in (4, 2, 4, 2)]
    with pytest.raises(ValueError, match="bases repeat degree k = 2 and 4"):
        offdiagonal_decay_probe(repeated, seed=1)


@pytest.mark.parametrize("seed", [1, 77, 20250819])
@pytest.mark.parametrize("n,kmax", [(2, 12), (3, 8)])
def test_decay_probe_matches_closed_form(n, kmax, seed):
    # an exact basis leaves only rounding between the probe and |<x, x'>|^k
    bases = [exact_cone_basis(n, k) for k in range(1, kmax + 1)]
    report = offdiagonal_decay_probe(bases, seed)
    expected = [decay_exact(quadric.PROBE_ANGLE, k) for k in report["ks"]]
    np.testing.assert_allclose(report["values"], expected, rtol=1e-12, atol=0.0)


def test_points_must_match_the_basis_dimension():
    # an n = 3 basis lives on C^4; C^3 and C^5 pairs on their own slices are refused
    basis = exact_cone_basis(3, 2)
    gen = np.random.default_rng(1)
    for m in (2, 4):
        x, xp = unit_slice_point(m, gen), unit_slice_point(m, gen)
        with pytest.raises(ValueError, match="C\\^4"):
            basis.evaluate(x)
        with pytest.raises(ValueError, match="C\\^4"):
            basis.kernel(x, xp, 1.0)


@pytest.mark.parametrize("n", [2, 3])
def test_slice_check_does_not_depend_on_the_radius(n):
    # a point off the slice by a factor 1 + f has |z|^2 off by about 2 f r^2,
    # inside the 1e-9 r^2 tolerance at f = 4e-10 and outside it at 6e-10
    basis = exact_cone_basis(n, 1)
    gen = np.random.default_rng(1)
    x, xp = unit_slice_point(n, gen), unit_slice_point(n, gen)
    for factor, accepted in ((4e-10, True), (6e-10, False)):
        outcomes = []
        for r in (0.1, 1.0, SQRT2, 10.0):
            try:
                basis.kernel(r * (1.0 + factor) * x, r * xp, r)
                outcomes.append(True)
            except ValueError:
                outcomes.append(False)
        assert outcomes == [accepted] * 4, (factor, outcomes)


def test_kernel_against_many_points_matches_single_pairs():
    # one stacked evaluation of [x; ys] gives each pair's single-call value
    basis = exact_cone_basis(3, 8)
    gen = np.random.default_rng(5)
    for r in (1.0, SQRT2):
        x = r * unit_slice_point(3, gen)
        ys = np.array([r * unit_slice_point(3, gen) for _ in range(6)])
        values = basis.kernel(x, ys, r)
        assert values.shape == (6,)
        for y, value in zip(ys, values):
            single = basis.kernel(x, y, r)
            assert isinstance(single, complex)
            assert abs(value - single) <= 1e-14 * max(1.0, abs(single))
