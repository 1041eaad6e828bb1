import math

import numpy as np
import pytest
from scipy.special import beta, roots_jacobi

from zonal.quadrature import _complement_frame, _gauss_jacobi, fiber_rule, sphere_rule
from zonal.special import vol_sphere


def sphere_moment(m: int, alpha) -> float:
    # closed form for the surface integral of the monomial x^alpha over S^m
    if any(a % 2 for a in alpha):
        return 0.0
    beta = [(a + 1) / 2 for a in alpha]
    return 2.0 * math.prod(math.gamma(b) for b in beta) / math.gamma(sum(beta))


def test_sphere_rule_validation():
    with pytest.raises(ValueError):
        sphere_rule(-1, 4)
    with pytest.raises(ValueError):
        sphere_rule(2, -1)


def test_sphere_rule_zero_sphere():
    nodes, weights = sphere_rule(0, 7)
    np.testing.assert_array_equal(np.sort(nodes[:, 0]), [-1.0, 1.0])
    np.testing.assert_array_equal(weights, [1.0, 1.0])


def test_sphere_rule_weight_sums():
    for m in range(4):
        for degree in (0, 3, 10, 25):
            _, weights = sphere_rule(m, degree)
            np.testing.assert_allclose(weights.sum(), vol_sphere(m), rtol=1e-13)


def test_sphere_rule_nodes_unit():
    for m in (1, 2, 3):
        nodes, _ = sphere_rule(m, 12)
        np.testing.assert_allclose(np.linalg.norm(nodes, axis=1), 1.0, atol=1e-14)


def test_sphere_rule_even_moments():
    cases = [
        (1, (4, 2)),
        (1, (6, 0)),
        (2, (2, 2, 2)),
        (2, (4, 0, 2)),
        (3, (2, 2, 0, 2)),
        (3, (4, 0, 2, 0)),
    ]
    for m, alpha in cases:
        nodes, weights = sphere_rule(m, sum(alpha))
        numeric = weights @ np.prod(nodes ** np.asarray(alpha), axis=1)
        np.testing.assert_allclose(numeric, sphere_moment(m, alpha), rtol=1e-12)


def test_sphere_rule_odd_moments_vanish():
    for m, alpha in [(1, (3, 2)), (2, (1, 2, 2)), (3, (2, 1, 0, 2))]:
        nodes, weights = sphere_rule(m, sum(alpha))
        numeric = weights @ np.prod(nodes ** np.asarray(alpha), axis=1)
        assert abs(numeric) < 1e-12


def extended_gauss_weights(nodes, a):
    # Christoffel numbers mu0 / sum_{k < count} p_k(t)^2 of the orthonormal
    # recurrence, at the Gauss nodes polished by Newton's method on p_count,
    # all in extended precision.  scipy's roots_jacobi weights cannot serve:
    # they are off by up to 1.2e-12 themselves (a = 0, 36 nodes, against a
    # 40-digit eigendecomposition)
    count = len(nodes)
    j = np.arange(1, count + 1, dtype=np.longdouble)
    off = np.sqrt(j * (j + 2 * a) / ((2 * j + 2 * a - 1) * (2 * j + 2 * a + 1)))

    def recurrence(t):
        p_prev, p, dp_prev, dp = 0 * t, 1 + 0 * t, 0 * t, 0 * t
        total = 1 + 0 * t
        for k in range(count):
            lower = off[k - 1] if k else 0
            p_next = (t * p - lower * p_prev) / off[k]
            dp_next = (p + t * dp - lower * dp_prev) / off[k]
            p_prev, p, dp_prev, dp = p, p_next, dp, dp_next
            if k < count - 1:
                total += p * p
        return p, dp, total

    t = nodes.astype(np.longdouble)
    for _ in range(2):
        p, dp, _ = recurrence(t)
        t = t - p / dp
    return math.sqrt(math.pi) * math.gamma(a + 1) / math.gamma(a + 1.5) / recurrence(t)[2]


@pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 1.5, 2.0, 4.5])
def test_gauss_jacobi_rule_against_independent_references(a):
    # nodes against scipy's roots_jacobi, weights against extended-precision
    # Christoffel numbers, and the even moments against B(j + 1/2, a + 1)
    for count in range(1, 41):
        nodes, weights = _gauss_jacobi(count, a)
        ref_nodes = roots_jacobi(count, a, a)[0]
        np.testing.assert_allclose(nodes, ref_nodes, rtol=0, atol=1e-15, err_msg=f"count={count}")
        np.testing.assert_allclose(weights, extended_gauss_weights(ref_nodes, a).astype(float), rtol=1e-12,
                                   err_msg=f"count={count}")
        moments = [weights @ nodes ** (2 * j) for j in range(count)]
        np.testing.assert_allclose(moments, beta(np.arange(count) + 0.5, a + 1), rtol=1e-12, err_msg=f"count={count}")


def test_complement_frame_orthonormal():
    rng = np.random.default_rng(7)
    vectors = [np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0, 0.0])]
    for d in (2, 3, 4, 6):
        v = rng.standard_normal(d)
        vectors.append(v / np.linalg.norm(v))
    for q in vectors:
        frame = _complement_frame(q)
        d = q.shape[0]
        assert frame.shape == (d, d - 1)
        np.testing.assert_allclose(frame.T @ frame, np.eye(d - 1), atol=1e-13)
        np.testing.assert_allclose(frame.T @ q, 0.0, atol=1e-13)


def test_fiber_rule_dimension_check():
    with pytest.raises(ValueError):
        fiber_rule(np.array([1.0]), 4)


def test_fiber_rule_geometry():
    rng = np.random.default_rng(11)
    for d in (3, 4):
        q = rng.standard_normal(d)
        q /= np.linalg.norm(q)
        nodes, weights = fiber_rule(q, 10)
        np.testing.assert_allclose(weights.sum(), vol_sphere(d - 2), rtol=1e-13)
        np.testing.assert_allclose(np.linalg.norm(nodes, axis=1), 1.0, atol=1e-13)
        np.testing.assert_allclose(nodes @ q, 0.0, atol=1e-13)


def test_fiber_rule_second_moment():
    # integral of (a . p)^2 over the fiber sphere is vol/(d-1) * |a_perp|^2
    rng = np.random.default_rng(13)
    for d in (3, 4):
        q = rng.standard_normal(d)
        q /= np.linalg.norm(q)
        a = rng.standard_normal(d)
        nodes, weights = fiber_rule(q, 6)
        numeric = weights @ (nodes @ a) ** 2
        perp2 = a @ a - (a @ q) ** 2
        np.testing.assert_allclose(numeric, vol_sphere(d - 2) / (d - 1) * perp2, rtol=1e-12)


def test_stacked_frames_match_single_calls():
    # a (2, 3, d) stack of base points, axis signs of both kinds included
    rng = np.random.default_rng(17)
    for d in (3, 4):
        qs = rng.standard_normal((2, 3, d))
        qs[0, 0] = 0.0
        qs[0, 0, 0] = -1.0
        qs /= np.linalg.norm(qs, axis=-1, keepdims=True)
        frames = _complement_frame(qs)
        nodes, weights = fiber_rule(qs, 5)
        assert frames.shape == (2, 3, d, d - 1)
        assert nodes.shape == (2, 3, len(weights), d)
        np.testing.assert_allclose(
            np.swapaxes(frames, -1, -2) @ frames, np.broadcast_to(np.eye(d - 1), (2, 3, d - 1, d - 1)),
            atol=1e-13,
        )
        np.testing.assert_allclose(np.einsum("abfd,abd->abf", nodes, qs), 0.0, atol=1e-13)
        for i in range(2):
            for j in range(3):
                np.testing.assert_allclose(frames[i, j], _complement_frame(qs[i, j]), rtol=0, atol=1e-15)
                single, single_w = fiber_rule(qs[i, j], 5)
                assert single_w is weights
                np.testing.assert_allclose(nodes[i, j], single, rtol=0, atol=1e-15)


def test_sphere_rule_cached_read_only():
    # one shared copy per (m, degree); no caller may write into it
    for m in (0, 1, 2, 3):
        nodes, weights = sphere_rule(m, 9)
        again = sphere_rule(m, 9)
        assert again[0] is nodes and again[1] is weights
        for arr in (nodes, weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0
    q = np.array([0.6, 0.0, 0.8])
    _, weights = fiber_rule(q, 7)
    with pytest.raises(ValueError):
        weights[0] = 0.0
    with pytest.raises(ValueError):
        weights *= 2.0
    # the cached copy is still intact
    np.testing.assert_allclose(fiber_rule(q, 7)[1].sum(), vol_sphere(1), rtol=1e-13)
