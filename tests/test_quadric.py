import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular

from oracles import (
    C_EXACT,
    PUSH_PAIRS,
    c_ratio_exact,
    eval_monomials,
    exact_c_constant,
    exact_cone_basis,
    exact_gram,
    fiber_nodes,
    rational_c_constant,
    slice_draws,
    szego_kernel_exact,
)
from zonal import rng
from zonal.asymptotics import c_constant_leading
from zonal.quadric import (
    FramePoint,
    SzegoEvaluator,
    _frame_block,
    _inverse_gram,
    _monomial_matrix,
    _pushforward_raw,
    build_cone_basis,
    c_constant_numeric,
    cone_slice_mass,
    frame_volume,
    fubini_study_distance,
    geodesic_lift,
    hlc_offset,
    monomial_basis,
    offdiagonal_decay_probe,
    probe_pair,
    pushforward_kernel,
    s_plus_minus,
    sample_frame,
    sphere_point,
)
from zonal.special import ZonalIndex, dim_eigenspace, projector_kernel, vol_sphere

SQRT2 = math.sqrt(2.0)


def unit_slice_point(n: int, gen) -> np.ndarray:
    f = sample_frame(n, gen)
    return f.lift() / SQRT2


# ---------------------------------------------------------------- mass and frames


def test_cone_slice_mass_values():
    np.testing.assert_allclose(cone_slice_mass(2, 1.0), 2.0 * math.pi, rtol=1e-14)
    np.testing.assert_allclose(cone_slice_mass(3, 1.0), math.pi**2, rtol=1e-14)
    for n in (2, 3):
        np.testing.assert_allclose(
            cone_slice_mass(n, SQRT2), SQRT2 * frame_volume(n) / (2.0 * math.pi), rtol=1e-13
        )


def test_cone_slice_mass_homogeneity():
    for n in (1, 2, 3, 4):
        for r in (0.5, 1.7, SQRT2):
            np.testing.assert_allclose(
                cone_slice_mass(n, r), r ** (2 * n - 1) * cone_slice_mass(n, 1.0), rtol=1e-13
            )
    with pytest.raises(ValueError):
        cone_slice_mass(2, 0.0)
    with pytest.raises(ValueError):
        cone_slice_mass(2, math.nan)


def test_frame_volume():
    np.testing.assert_allclose(frame_volume(2), vol_sphere(2) * vol_sphere(1), rtol=1e-15)
    np.testing.assert_allclose(frame_volume(3), vol_sphere(3) * vol_sphere(2), rtol=1e-15)


def test_frame_point_validation():
    e0 = np.array([1.0, 0.0, 0.0])
    e1 = np.array([0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        FramePoint(q=2.0 * e0, p=e1)
    with pytest.raises(ValueError):
        FramePoint(q=e0, p=(e0 + e1) / SQRT2)
    with pytest.raises(ValueError):
        FramePoint(q=e0, p=np.array([0.0, 1.0]))
    f = FramePoint(q=e0, p=e1)
    assert f.n == 2
    z = f.lift()
    assert abs(np.sum(z * z)) < 1e-14
    np.testing.assert_allclose(np.sum(np.abs(z) ** 2), 2.0, rtol=1e-15)


def test_sample_frame_invariants():
    with pytest.raises(ValueError):
        sample_frame(0, np.random.default_rng(0))
    gen = np.random.default_rng(42)
    for n in (1, 2, 3, 5):
        for _ in range(50):
            f = sample_frame(n, gen)
            assert abs(np.dot(f.q, f.q) - 1.0) < 1e-12
            assert abs(np.dot(f.p, f.p) - 1.0) < 1e-12
            assert abs(np.dot(f.q, f.p)) < 1e-12
            z = f.lift()
            assert abs(np.sum(z * z)) < 1e-12


def test_sample_frame_moments():
    # Haar frames: E[q] = 0 and E[q q^T] = I/(n+1); 4 sigma bands
    gen = np.random.default_rng(7)
    n, draws = 2, 4000
    qs = np.empty((draws, n + 1))
    for i in range(draws):
        qs[i] = sample_frame(n, gen).q
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


# one frame, a few, and several build blocks' worth, all orthonormalized in one pass
@pytest.mark.parametrize("count", [1, 1000, 1 << 14, 2 << 14, (2 << 14) + 5, (3 << 14) + 300])
def test_frame_block_slices_match_whole_array(count):
    q, p = _frame_block(3, count, np.random.default_rng(count))
    gen = np.random.default_rng(count)
    g1 = gen.standard_normal((count, 4))
    g2 = gen.standard_normal((count, 4))
    q_ref, p_ref = whole_array_frames(g1, g2)
    assert q.tobytes() == q_ref.tobytes()
    assert p.tobytes() == p_ref.tobytes()


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


# ---------------------------------------------------------------- monomial bases


def test_monomial_basis_small_cases():
    assert set(monomial_basis(2, 1)) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert len(monomial_basis(2, 2)) == 5
    assert len(monomial_basis(3, 2)) == 9
    for e in monomial_basis(2, 4):
        assert e[0] <= 1
        assert sum(e) == 4


def test_monomial_basis_counts_match_eigenspace():
    for n in (1, 2, 3, 4, 5):
        for k in (0, 1, 2, 3, 7, 12):
            assert len(monomial_basis(n, k)) == dim_eigenspace(ZonalIndex(n=n, k=k))


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


def test_monomial_matrix_matches_plain_product():
    gen = np.random.default_rng(5)
    for n in (2, 3):
        exponents = monomial_basis(n, 8)
        for m in (1, 2, 3, 4097):
            z = (gen.standard_normal((m, n + 1)) + 1j * gen.standard_normal((m, n + 1))) / SQRT2
            out = _monomial_matrix(z, exponents)
            assert out.shape == (m, len(exponents))
            # bitwise, including the length-1 rows where in-place products round differently
            assert out.tobytes() == plain_monomials(z, exponents).tobytes()


def test_build_determinism():
    a = build_cone_basis(2, (2, 4), 30_000, seed=5)
    b = build_cone_basis(2, (2, 4), 30_000, seed=5)
    for x, y in zip(a, b):
        assert x.coeff.tobytes() == y.coeff.tobytes()
        assert x.gram_error == y.gram_error


def test_build_rejects_too_few_samples():
    with pytest.raises(ValueError, match=r"gram_error 0\.539 at k=2, samples=40 "):
        build_cone_basis(2, (2,), 40, seed=5)
    # every degree is judged by its own bound: the 17 sections at k=8 fail
    with pytest.raises(ValueError, match=r"gram_error 0\.778 at k=8, samples=100 "):
        build_cone_basis(2, (2, 8), 100, seed=5)
    # an empty degree list is named, not left to numpy's concatenate
    with pytest.raises(ValueError, match="ks is empty"):
        build_cone_basis(2, (), 30_000, seed=5)
    # 810 frames, 10 per section of the 81 at k=8, read gram_error 0.834
    # there, where gram_error / (1 - gram_error) > 1 and its bounds say nothing
    assert build_cone_basis(3, (2, 4), 810, seed=1)[1].gram_error < 0.5
    with pytest.raises(ValueError, match=r"gram_error 0\.834 at k=8, samples=810 is at least 1/2"):
        build_cone_basis(3, (2, 4, 8), 810, seed=1)


def test_build_accepts_by_the_bound_alone():
    # 49 frames for 5 sections is below a sample-count floor of 10 x N, yet
    # the bound reads 0.411 and admits the basis (40 frames read 0.539 and
    # are refused, in test_build_rejects_too_few_samples)
    (basis,) = build_cone_basis(2, (2,), 49, seed=5)
    assert round(basis.gram_error, 3) == 0.411


@pytest.mark.parametrize("samples", [0, -3])
def test_build_rejects_nonpositive_samples(samples):
    with pytest.raises(ValueError, match=rf"expected samples >= 1, got {samples}"):
        build_cone_basis(2, (2,), samples, seed=5)


def gram_error(low, n, k):
    # ||I - L^H G^-1 L|| for a Cholesky factor L, as the build computes it
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
    families = [monomial_basis(n, k) for k in ks]
    grams = [np.zeros((len(e), len(e)), dtype=complex) for e in families]
    for z in slice_draws(n, count, seed):
        for exponents, gram in zip(families, grams):
            vals = eval_monomials(z, exponents)
            gram += vals.conj().T @ vals
    mass = cone_slice_mass(n, 1.0)
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
        assert after <= 4e-3 * math.sqrt(len(monomial_basis(n, k))), (k, after)
        assert after < before / 4.0, (k, before, after)


def reference_build(n, k, samples, seed):
    # one degree per pass, each block's Gram as the full product a^H a
    exponents = monomial_basis(n, k)
    mass = cone_slice_mass(n, 1.0)
    full, tail = divmod(samples, rng.BLOCK)
    gram = np.zeros((len(exponents), len(exponents)), dtype=complex)
    for b, size in enumerate([rng.BLOCK] * full + [tail] * bool(tail)):
        q, p = _frame_block(n, size, rng.substream(seed, rng.GRAM, b))
        a = _monomial_matrix((q + 1j * p) / SQRT2, exponents)
        gram += a.conj().T @ a
    gram *= mass / samples
    low = cholesky(0.5 * (gram + gram.conj().T), lower=True)
    coeff = solve_triangular(low, np.eye(len(exponents)), lower=True)
    # ||I - L^H G^-1 L|| with the quadrature oracle's G, not the closed form
    error = np.abs(1.0 - np.linalg.eigvalsh(low.conj().T @ np.linalg.solve(exact_gram(n, k), low))).max()
    return coeff, error


@pytest.mark.parametrize("n", [2, 3])
def test_one_pass_build_equals_one_degree_builds(n):
    # 2 rng.BLOCK + 1 samples end in a one-row block, which zherk adds like any other
    ks = (2, 4, 8)
    for samples in (40_000, 2 * rng.BLOCK + 1):
        together = build_cone_basis(n, ks, samples, seed=3)
        assert [b.k for b in together] == list(ks)
        for k, basis in zip(ks, together):
            (alone,) = build_cone_basis(n, (k,), samples, seed=3)
            assert basis.coeff.tobytes() == alone.coeff.tobytes()
            assert basis.gram_error == alone.gram_error
            coeff, error = reference_build(n, k, samples, seed=3)
            np.testing.assert_allclose(basis.coeff, coeff, rtol=1e-12, err_msg=f"samples={samples}")
            np.testing.assert_allclose(basis.gram_error, error, rtol=1e-12, err_msg=f"samples={samples}")


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


def test_szego_evaluator_validation(basis_cache):
    basis = basis_cache.get(2, 2)
    with pytest.raises(ValueError):
        SzegoEvaluator(basis=basis, radius=0.0)
    ev = SzegoEvaluator(basis=basis, radius=1.0)
    assert ev.prefactor == 1.0
    ev2 = SzegoEvaluator(basis=basis, radius=SQRT2)
    np.testing.assert_allclose(ev2.prefactor, SQRT2 ** -(2 * 2 + 2 * 2 - 1), rtol=1e-15)
    with pytest.raises(ValueError):
        ev.kernel(np.array([1.0, 0.0, 0.0]), unit_slice_point(2, np.random.default_rng(0)))


def test_kernel_hermitian_exact(basis_cache):
    basis = basis_cache.get(2, 3)
    ev = SzegoEvaluator(basis=basis, radius=1.0)
    gen = np.random.default_rng(11)
    for _ in range(20):
        x = unit_slice_point(2, gen)
        y = unit_slice_point(2, gen)
        val = ev.kernel(x, y)
        assert abs(val - np.conj(ev.kernel(y, x))) < 1e-13 * max(1.0, abs(val))


def test_kernel_parity_exact(basis_cache):
    for n, k in [(2, 2), (2, 3)]:
        basis = basis_cache.get(n, k)
        ev = SzegoEvaluator(basis=basis, radius=1.0)
        gen = np.random.default_rng(13)
        for _ in range(10):
            x = unit_slice_point(n, gen)
            y = unit_slice_point(n, gen)
            assert ev.kernel(-x, y) == (-1.0) ** k * ev.kernel(x, y)


def test_kernel_circle_equivariance(basis_cache):
    basis = basis_cache.get(2, 3)
    ev = SzegoEvaluator(basis=basis, radius=1.0)
    gen = np.random.default_rng(17)
    for _ in range(100):
        x = unit_slice_point(2, gen)
        y = unit_slice_point(2, gen)
        phase = gen.uniform(0.0, 2.0 * math.pi)
        lhs = ev.kernel(np.exp(1j * phase) * x, y)
        rhs = np.exp(1j * basis.k * phase) * ev.kernel(x, y)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_kernel_homogeneity(basis_cache):
    # radius-r kernel at scaled points is r^(1-2n) times the unit one
    for n, k in [(2, 3), (3, 2)]:
        basis = basis_cache.get(n, k)
        unit = SzegoEvaluator(basis=basis, radius=1.0)
        scaled = SzegoEvaluator(basis=basis, radius=SQRT2)
        gen = np.random.default_rng(19)
        for _ in range(10):
            x = unit_slice_point(n, gen)
            y = unit_slice_point(n, gen)
            lhs = scaled.kernel(SQRT2 * x, SQRT2 * y)
            rhs = SQRT2 ** (1 - 2 * n) * unit.kernel(x, y)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_kernel_conjugation():
    # the section space is conjugation stable, so exact bases commute with it
    basis = exact_cone_basis(2, 3)
    ev = SzegoEvaluator(basis=basis, radius=1.0)
    gen = np.random.default_rng(23)
    for _ in range(20):
        x = unit_slice_point(2, gen)
        y = unit_slice_point(2, gen)
        val = ev.kernel(x, y)
        np.testing.assert_allclose(
            ev.kernel(x.conj(), y.conj()), np.conj(val), rtol=0, atol=5e-13 * max(1.0, abs(val))
        )


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", [1, 3, 6])
def test_kernel_matches_closed_form(n, k):
    # exact-quadrature basis against N_k / mass(1) (z . conj(w))^k, sharing no zonal code
    ev = SzegoEvaluator(basis=exact_cone_basis(n, k), radius=1.0)
    gen = np.random.default_rng(100 * n + k)
    x = np.array([unit_slice_point(n, gen) for _ in range(50)])
    y = np.array([unit_slice_point(n, gen) for _ in range(50)])
    diagonal = ev.basis.size / cone_slice_mass(n, 1.0)
    err = np.abs(ev.kernel(x, y) - szego_kernel_exact(n, k, x, y)).max() / diagonal
    assert err <= 1e-13


def test_kernel_conjugation_monte_carlo(basis_cache):
    # Monte Carlo bases obey it only to Gram noise: the sampled kernel lies
    # within gram_error |s(x)| |s(y)| of the exact one at each pair of points
    basis = basis_cache.get(2, 3)
    ev = SzegoEvaluator(basis=basis, radius=1.0)
    gen = np.random.default_rng(29)
    for _ in range(10):
        x = unit_slice_point(2, gen)
        y = unit_slice_point(2, gen)
        diff = abs(ev.kernel(x.conj(), y.conj()) - np.conj(ev.kernel(x, y)))
        sx, sy, sxc, syc = np.linalg.norm(basis.evaluate(np.array([x, y, x.conj(), y.conj()])), axis=1)
        assert diff <= basis.gram_error * (sx * sy + sxc * syc) + 1e-13


def test_diagonal_matches_dimension():
    # reproducing kernel diagonal is dim / mass on the sqrt(2) slice
    gen = np.random.default_rng(31)
    for n, k in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        basis = exact_cone_basis(n, k)
        ev = SzegoEvaluator(basis=basis, radius=SQRT2)
        expected = basis.size / cone_slice_mass(n, SQRT2)
        for _ in range(5):
            z = sample_frame(n, gen).lift()
            np.testing.assert_allclose(ev.kernel(z, z).real, expected, rtol=1e-10)


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


def test_pushforward_fiber_rule_has_the_kernel_degree():
    # the kernel has degree k in each fiber variable, so the degree-k fiber
    # rule must match an independent double fiber integral of higher degree,
    # scaled by the radius-sqrt(2) evaluator's prefactor
    gen = np.random.default_rng(53)
    for n in (2, 3):
        for k in range(1, 9):
            basis = exact_cone_basis(n, k)
            ev = SzegoEvaluator(basis=basis, radius=SQRT2)
            q0 = sphere_point(n, gen)
            for q1 in (sphere_point(n, gen), sphere_point(n, gen), q0):
                raw, _ = _pushforward_raw(basis, q0, q1)
                fibers = []
                for q in (q0, q1):
                    nodes, weights = fiber_nodes(q, k + 4)
                    sections = eval_monomials(q + 1j * nodes, basis.exponents) @ basis.coeff.T
                    fibers.append(weights @ sections)
                ref = ev.prefactor * complex(np.sum(fibers[0] * fibers[1].conj()))
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


def test_geodesic_lift():
    f = FramePoint(q=np.array([1.0, 0.0, 0.0]), p=np.array([0.0, 1.0, 0.0]))
    np.testing.assert_array_equal(geodesic_lift(f, 0.0), f.lift())
    theta = 0.7
    z = geodesic_lift(f, theta)
    np.testing.assert_allclose(z.real, math.cos(theta) * f.q + math.sin(theta) * f.p, rtol=1e-15)
    assert abs(np.sum(z * z)) < 1e-14
    np.testing.assert_allclose(np.sum(np.abs(z) ** 2), 2.0, rtol=1e-14)
    # the lift stays in the starting fiber
    assert fubini_study_distance(z, f.lift()) < 1e-7


def test_s_plus_minus():
    assert s_plus_minus(np.zeros(2)) == (0.0, -2.0)
    v = np.array([1.0, 0.0])
    np.testing.assert_allclose(s_plus_minus(v), (-1.0, -1.0), atol=1e-15)
    gen = np.random.default_rng(53)
    for _ in range(20):
        v = gen.uniform(-0.6, 0.6, size=3)
        sp, sm = s_plus_minus(v)
        np.testing.assert_allclose(sp * sm, float(v @ v), rtol=1e-12, atol=1e-15)
    with pytest.raises(ValueError):
        s_plus_minus(np.array([1.1, 0.0]))


def test_s_plus_minus_reconstructs_fiber_point():
    # p = (1 + s_plus) p0 + v is a unit vector back on the fiber sphere
    q = np.array([1.0, 0.0, 0.0, 0.0])
    p0 = np.array([0.0, 1.0, 0.0, 0.0])
    v = np.array([0.0, 0.0, 0.3, 0.4])
    sp, _ = s_plus_minus(v)
    p = (1.0 + sp) * p0 + v
    np.testing.assert_allclose(np.linalg.norm(p), 1.0, rtol=1e-14)
    assert abs(p @ q) < 1e-15
    np.testing.assert_allclose(sp, -1.0 + math.sqrt(0.75), rtol=1e-14)


def test_fubini_study_distance_basics():
    f = FramePoint(q=np.array([1.0, 0.0, 0.0]), p=np.array([0.0, 1.0, 0.0]))
    z = f.lift()
    assert fubini_study_distance(z, z) == 0.0
    assert fubini_study_distance(z, np.exp(1j * 0.8) * z) < 1e-7
    np.testing.assert_allclose(fubini_study_distance(z, z.conj()), SQRT2, rtol=1e-12)
    with pytest.raises(ValueError):
        fubini_study_distance(z / SQRT2, z)
    with pytest.raises(ValueError):
        fubini_study_distance(np.array([SQRT2, 0.0, 0.0], dtype=complex), z)


def test_hlc_offset_recipe():
    q = np.array([1.0, 0.0, 0.0])
    p = np.array([0.0, 1.0, 0.0])
    e = np.array([0.0, 0.0, 1.0])
    for theta in (0.0, 0.6):
        z = np.exp(1j * theta) * (q + 1j * p) / SQRT2
        phi = 0.8
        dp = ((math.cos(phi) - 1.0) * p + math.sin(phi) * e) / SQRT2
        h, beta = hlc_offset(z, theta, dp)
        np.testing.assert_allclose(beta, math.cos(phi / 2.0) ** 2, rtol=1e-12)
        assert abs(np.vdot(z, h)) < 1e-10
        # h equals i exp(i theta) dp to second order in |dp|
        err_full = np.linalg.norm(h - 1j * np.exp(1j * theta) * dp)
        dp_half = ((math.cos(phi / 2.0) - 1.0) * p + math.sin(phi / 2.0) * e) / SQRT2
        h2, _ = hlc_offset(z, theta, dp_half)
        err_half = np.linalg.norm(h2 - 1j * np.exp(1j * theta) * dp_half)
        assert 3.0 < err_full / err_half < 5.0


def test_hlc_offset_edges():
    q = np.array([1.0, 0.0, 0.0])
    p = np.array([0.0, 1.0, 0.0])
    e = np.array([0.0, 0.0, 1.0])
    z = (q + 1j * p) / SQRT2
    h, beta = hlc_offset(z, 0.3, np.zeros(3))
    assert beta == 1.0
    np.testing.assert_array_equal(h, np.zeros(3, dtype=complex))
    with pytest.raises(ValueError):
        # phi = pi lands on the antipodal fiber point where beta vanishes
        hlc_offset(z, 0.0, -SQRT2 * p)
    with pytest.raises(ValueError):
        hlc_offset(z, 0.0, np.array([0.1, 0.0, 0.0]))
    with pytest.raises(ValueError):
        hlc_offset(q + 1j * p, 0.0, np.zeros(3))
    with pytest.raises(ValueError):
        hlc_offset(z, 0.0, np.zeros(4))


def test_probe_pair():
    x, xp = probe_pair(2, seed=77)
    y, yp = probe_pair(2, seed=77)
    np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(xp, yp)
    for z in (x, xp):
        np.testing.assert_allclose(np.sum(np.abs(z) ** 2), 1.0, rtol=1e-13)
        assert abs(np.sum(z * z)) < 1e-13
    dist = math.sqrt(max(2.0 - 2.0 * abs(np.vdot(x, xp)), 0.0))
    np.testing.assert_allclose(dist, SQRT2 * math.sin(0.45), rtol=1e-12)
    with pytest.raises(ValueError):
        probe_pair(1, seed=0)
    with pytest.raises(ValueError):
        probe_pair(2, seed=0, angle=0.0)
    with pytest.raises(ValueError):
        probe_pair(2, seed=0, angle=math.pi)


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
        assert fubini_study_distance(q0 + 1j * s0 * p0, q1 + 1j * s1 * p1) < 1e-12
    for s0, s1 in [(1, -1), (-1, 1)]:
        d = fubini_study_distance(q0 + 1j * s0 * p0, q1 + 1j * s1 * p1)
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
            grid[i, j] = fubini_study_distance(q0 + 1j * pa[i], q1 + 1j * pb[j])
    assert grid[0, 0] < 1e-12
    assert grid[steps // 2, steps // 2] < 1e-6
    mask = np.ones_like(grid, dtype=bool)
    for ci, cj in [(0, 0), (steps // 2, steps // 2)]:
        for di in range(-2, 3):
            for dj in range(-2, 3):
                mask[(ci + di) % steps, (cj + dj) % steps] = False
    assert grid[mask].min() > 0.12


# ---------------------------------------------------------------- decay probe


def test_decay_probe_trivial_pairs():
    bases = [exact_cone_basis(2, k) for k in (2, 3, 4)]
    f = FramePoint(q=np.array([1.0, 0.0, 0.0]), p=np.array([0.0, 1.0, 0.0]))
    x = f.lift() / SQRT2
    same = offdiagonal_decay_probe(bases, x, x, min_dist=0.0)
    np.testing.assert_allclose(same.values, 1.0, rtol=1e-12)
    assert same.distance < 1e-7
    fiber = offdiagonal_decay_probe(bases, x, np.exp(1j * 0.9) * x, min_dist=0.0)
    np.testing.assert_allclose(fiber.values, 1.0, rtol=1e-12)


def test_decay_probe_structure():
    bases = [exact_cone_basis(2, k) for k in (2, 3, 4, 5, 6, 7, 8)]
    x, xp = probe_pair(2, seed=77)
    report = offdiagonal_decay_probe(bases, x, xp)
    assert report.ks == (2, 3, 4, 5, 6, 7, 8)
    np.testing.assert_allclose(report.distance, SQRT2 * math.sin(0.45), rtol=1e-12)
    assert not any(report.below_floor)
    assert report.monotone_until_floor
    assert report.superpolynomial is False
    # overlap |<x, x'>| = cos^2(0.45) drives exponential decay in k
    assert abs(report.decay_rate - 2.0 * math.log(math.cos(0.45))) < 0.01
    for a, b in zip(report.values, report.values[1:]):
        assert b < a


def test_decay_probe_errors(basis_cache):
    with pytest.raises(ValueError):
        offdiagonal_decay_probe([], *probe_pair(2, seed=1))
    mixed = [exact_cone_basis(2, 2), exact_cone_basis(3, 2)]
    with pytest.raises(ValueError):
        offdiagonal_decay_probe(mixed, *probe_pair(2, seed=1))
    close = probe_pair(2, seed=1, angle=0.3)
    with pytest.raises(ValueError):
        offdiagonal_decay_probe([exact_cone_basis(2, 2)], *close)
