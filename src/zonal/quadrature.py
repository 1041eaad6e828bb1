"""Polynomial-exact quadrature on spheres and on great-sphere fibers.

Rules are built recursively: the m-sphere splits into a polar coordinate
with Gauss-Jacobi weight (1 - t^2)^((m-2)/2) and an (m-1)-sphere, and the
circle uses equispaced angles, exact for trigonometric polynomials below
the node count; the polar rule comes from the Jacobi matrix's eigenvectors
(Golub and Welsch, Math. Comp. 1969).  Weights always sum to the Riemannian
volume.  Each sphere rule is built once per (m, degree) and shared read-only
by every caller.  Callers ask for exactly the degree of their integrand, and
one fiber rule call covers a whole stack of base points.
"""
from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["sphere_rule", "complement_frame", "fiber_rule"]


def _gauss_jacobi(count: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule of count nodes for the weight (1 - t^2)^a on [-1, 1], by Golub-Welsch."""
    j = np.arange(1.0, count)
    # the Jacobi matrix has a zero diagonal and this off-diagonal; eigh reads its lower triangle
    off = np.sqrt(j * (j + 2 * a) / ((2 * j + 2 * a - 1) * (2 * j + 2 * a + 1)))
    t, vec = np.linalg.eigh(np.diag(off, -1))
    w = math.sqrt(math.pi) * math.gamma(a + 1) / math.gamma(a + 1.5) * vec[0] ** 2
    return (t - t[::-1]) / 2, (w + w[::-1]) / 2  # exactly symmetric about 0, as scipy's roots_jacobi


@functools.lru_cache(maxsize=128)
def sphere_rule(m: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on S^m integrating polynomials of total degree <= degree.

    Returns (nodes, weights) with nodes of shape (M, m+1); weights sum to
    vol(S^m).  Both arrays are cached and read-only.
    """
    if m < 0:
        raise ValueError(f"sphere_rule: expected dimension >= 0, got {m!r}")
    if degree < 0:
        raise ValueError(f"sphere_rule: expected degree >= 0, got {degree!r}")
    if m == 0:
        nodes, weights = np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    elif m == 1:
        count = degree + 1
        # half-step offset keeps nodes away from the coordinate axes
        ang = (np.arange(count) + 0.5) * (2.0 * math.pi / count)
        nodes = np.column_stack([np.cos(ang), np.sin(ang)])
        weights = np.full(count, 2.0 * math.pi / count)
    else:
        npolar = (degree + 2) // 2
        t, tw = _gauss_jacobi(npolar, 0.5 * (m - 2))
        sub_nodes, sub_w = sphere_rule(m - 1, degree)
        sin_t = np.sqrt(np.clip(1.0 - t**2, 0.0, None))
        nodes = np.empty((npolar * len(sub_w), m + 1))
        nodes[:, 0] = np.repeat(t, len(sub_w))
        nodes[:, 1:] = np.repeat(sin_t, len(sub_w))[:, None] * np.tile(sub_nodes, (npolar, 1))
        weights = np.repeat(tw, len(sub_w)) * np.tile(sub_w, npolar)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def complement_frame(q: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the hyperplanes orthogonal to unit vectors q.

    For q of shape (..., d), columns of the returned (..., d, d-1) stack
    span each q-perp; built from the Householder reflection exchanging q
    with a signed coordinate axis.
    """
    q = np.asarray(q, dtype=float)
    d = q.shape[-1]
    u = q.copy()
    u[..., 0] += np.where(q[..., 0] >= 0.0, 1.0, -1.0)
    outer = u[..., :, None] * u[..., None, :]
    house = np.eye(d) - 2.0 * outer / np.sum(u * u, axis=-1)[..., None, None]
    return house[..., 1:]


def fiber_rule(q: np.ndarray, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature on the unit spheres of the hyperplanes orthogonal to q.

    For q of shape (..., d), nodes of shape (..., F, d) are vectors in the
    ambient space of q; the F weights, shared by every fiber, sum to
    vol(S^(d-2)) and are the cached, read-only weights of the sub-sphere
    rule.
    """
    q = np.asarray(q, dtype=float)
    d = q.shape[-1]
    if d < 2:
        raise ValueError("fiber_rule: ambient dimension must be at least 2")
    sub_nodes, weights = sphere_rule(d - 2, degree)
    return sub_nodes @ np.swapaxes(complement_frame(q), -1, -2), weights
