import numpy as np
import pytest

from tanhom.errors import ConfigError, DegeneratePoint
from tanhom.manifold import (
    CircleProduct,
    Sphere,
    manifold_from_config,
)


def test_sphere_projection_examples(s1):
    np.testing.assert_allclose(s1.project([2.0, 0.0]), [1.0, 0.0])
    np.testing.assert_allclose(s1.project([0.0, -3.0]), [0.0, -1.0])
    s2 = Sphere(3)
    np.testing.assert_allclose(
        s2.project([1.0, 1.0, 0.0]), [np.sqrt(0.5), np.sqrt(0.5), 0.0]
    )


def test_projection_idempotent(s1):
    p = s1.project([0.3, -0.7])
    np.testing.assert_allclose(s1.project(p), p, atol=1e-15)
    assert s1.distance(p) <= 1e-12


def test_projection_degenerate(s1):
    with pytest.raises(DegeneratePoint):
        s1.project([0.0, 0.0])
    with pytest.raises(DegeneratePoint):
        CircleProduct(2).project([1.0, 0.0, 0.0, 0.0])


def test_tangent_projector_examples(s1):
    np.testing.assert_allclose(
        s1.tangent_projector([1.0, 0.0]), [[0.0, 0.0], [0.0, 1.0]], atol=1e-15
    )
    np.testing.assert_allclose(
        s1.tangent_projector([0.0, 1.0]), [[1.0, 0.0], [0.0, 0.0]], atol=1e-15
    )
    np.testing.assert_allclose(
        Sphere(3).tangent_projector([0.0, 0.0, 1.0]), np.diag([1.0, 1.0, 0.0]), atol=1e-15
    )


def test_tangent_projector_rejects_off_manifold(s1):
    with pytest.raises(DegeneratePoint):
        s1.tangent_projector([1.0, 1e-3])


def test_project_columns(s1):
    s = np.array([1.0, 0.0])
    out = s1.project_columns(s, np.array([[3.0], [4.0]]))
    np.testing.assert_allclose(out, [[0.0], [4.0]], atol=1e-15)
    tangent = np.array([[0.0, 0.0], [2.0, -1.0]])
    np.testing.assert_allclose(s1.project_columns(s, tangent), tangent, atol=1e-15)
    np.testing.assert_allclose(
        s1.project_columns(s, np.zeros((2, 3))), np.zeros((2, 3)), atol=1e-15
    )


def test_tangent_basis_examples(s1):
    np.testing.assert_allclose(s1.tangent_basis([1.0, 0.0]), [[0.0, 1.0]], atol=1e-15)
    np.testing.assert_allclose(s1.tangent_basis([0.0, 1.0]), [[-1.0, 0.0]], atol=1e-15)
    np.testing.assert_allclose(
        Sphere(3).tangent_basis([0.0, 0.0, 1.0]),
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        atol=1e-15,
    )


def test_retract_examples(s1):
    s = np.array([1.0, 0.0])
    np.testing.assert_allclose(s1.retract(s, [0.0, 0.0]), s)
    np.testing.assert_allclose(
        s1.retract(s, [0.0, 1.0]), np.array([1.0, 1.0]) / np.sqrt(2.0)
    )


def test_retract_first_order(s1):
    # |retract(s, tv) - (s + tv)| = O(t^2) with a stable constant.
    s = np.array([0.0, 1.0])
    v = np.array([-1.0, 0.0])
    consts = []
    for t in (1e-2, 1e-3, 1e-4):
        gap = np.linalg.norm(s1.retract(s, t * v) - (s + t * v))
        consts.append(gap / t**2)
    consts = np.array(consts)
    assert np.all(consts < 1.0)
    assert consts.max() - consts.min() <= 0.1 * consts.max()


def test_cutoff_profile(s1):
    delta0 = 0.5
    assert s1.cutoff([0.0, 1.0], delta0) == 1.0
    assert s1.cutoff([0.0, 1.0 + delta0], delta0) == 0.0
    mid = s1.cutoff([0.0, 1.0 + 5.0 * delta0 / 8.0], delta0)
    assert 0.0 < mid < 1.0
    # Sampled Lipschitz constant stays below 8 / delta0.
    r = np.linspace(1.0, 1.0 + delta0, 4001)
    vals = np.array([s1.cutoff([0.0, ri], delta0) for ri in r])
    slopes = np.abs(np.diff(vals) / np.diff(r))
    assert slopes.max() <= 8.0 / delta0


@pytest.mark.parametrize("manifold", [Sphere(2), Sphere(3), CircleProduct(2)])
def test_projector_algebra(manifold):
    rng = np.random.default_rng(7)
    for _ in range(1000):
        s = manifold.random_point(rng)
        P = manifold.tangent_projector(s)
        assert np.linalg.norm(P @ P - P) <= 1e-12
        assert np.linalg.norm(P - P.T) <= 1e-12
        assert np.linalg.matrix_rank(P, tol=1e-9) == manifold.intrinsic_dim


@pytest.mark.parametrize("manifold", [Sphere(2), Sphere(3), CircleProduct(2)])
def test_basis_projector_consistency(manifold):
    rng = np.random.default_rng(11)
    for _ in range(200):
        s = manifold.random_point(rng)
        B = manifold.tangent_basis(s)
        P = manifold.tangent_projector(s)
        np.testing.assert_allclose(B @ B.T, np.eye(manifold.intrinsic_dim), atol=1e-12)
        assert np.linalg.norm(B.T @ B - P) <= 1e-12


@pytest.mark.parametrize("manifold", [Sphere(2), Sphere(3), CircleProduct(2)])
def test_projection_optimality(manifold):
    rng = np.random.default_rng(13)
    for _ in range(20):
        s = manifold.random_point(rng)
        x = s + rng.uniform(-0.3, 0.3, size=manifold.ambient_dim)
        p = manifold.project(x)
        base = np.linalg.norm(x - p)
        for _ in range(100):
            step = rng.standard_normal(manifold.intrinsic_dim) * rng.uniform(0, 0.5)
            other = manifold.retract(p, manifold.tangent_basis(p).T @ step)
            assert base <= np.linalg.norm(x - other) + 1e-12


def test_circle_product_structure():
    m = CircleProduct(2)
    assert m.ambient_dim == 4
    assert m.intrinsic_dim == 2
    s = m.project([2.0, 0.0, 0.0, -5.0])
    np.testing.assert_allclose(s, [1.0, 0.0, 0.0, -1.0])
    P = m.tangent_projector(s)
    assert np.linalg.norm(P[:2, 2:]) == 0.0  # block diagonal across factors
    B = m.tangent_basis(s)
    np.testing.assert_allclose(B[0], [0.0, 1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(B[1], [0.0, 0.0, 1.0, 0.0], atol=1e-15)


def test_tangent_coeff_roundtrip(s1):
    rng = np.random.default_rng(3)
    for _ in range(50):
        s = s1.random_point(rng)
        z = rng.standard_normal((1, 3))
        xi = s1.tangent_from_coeffs(s, z)
        np.testing.assert_allclose(s1.tangent_basis(s) @ xi, z, atol=1e-12)
        assert s1.tangency_residual(s, xi) <= 1e-12


def test_batch_helpers(s1):
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((10, 4, 2))
    proj = s1.project_batch(pts)
    np.testing.assert_allclose(np.linalg.norm(proj, axis=-1), 1.0, atol=1e-14)
    vecs = rng.standard_normal((10, 4, 2))
    tang = s1.tangent_project_batch(proj, vecs)
    assert np.max(np.abs(np.sum(tang * proj, axis=-1))) <= 1e-13


def test_manifold_from_config():
    m = manifold_from_config({"kind": "sphere", "d": 3})
    assert isinstance(m, Sphere) and m.ambient_dim == 3
    m = manifold_from_config({"kind": "circle_product", "k": 2})
    assert isinstance(m, CircleProduct)
    with pytest.raises(ConfigError):
        manifold_from_config({"kind": "sphere", "d": 2, "bogus": 1})
    with pytest.raises(ConfigError):
        manifold_from_config({"kind": "klein_bottle"})
