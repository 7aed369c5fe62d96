"""Concrete embedded manifolds with projection, tangent structure and retraction.

The catalog covers unit spheres S^{d-1} in R^d and products of circles
(S^1)^k in R^{2k}.  Both have closed-form nearest-point projections and
tangent projectors, which keeps every downstream solve free of root finding.
Points are plain numpy arrays in the ambient space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegeneratePoint, check_keys

# Tolerance for "this point lies on the manifold" checks: far above solver
# round-off, far below any discretization error we produce.
ON_MANIFOLD_TOL = 1e-9

# Below this ambient norm the nearest-point projection of a sphere factor is
# considered undefined.
_PROJECTION_TOL = 1e-12


def _as_point(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


class EmbeddedManifold:
    """Shared behavior for the manifold catalog.

    Subclasses provide ``project``, ``distance``, ``tangent_projector``,
    ``tangent_basis`` and the descriptor attributes ``kind``, ``ambient_dim``,
    ``intrinsic_dim``, ``tubular_radius``.  Instances are immutable value
    objects.
    """

    kind: str
    ambient_dim: int
    intrinsic_dim: int
    tubular_radius: float

    # -- constraint handling -------------------------------------------------

    def constraint_residual(self, s) -> float:
        """Distance of ``s`` from the manifold (0 for on-manifold points)."""
        return self.distance(s)

    def check_point(self, s, tol: float = ON_MANIFOLD_TOL) -> np.ndarray:
        s = _as_point(s)
        if s.shape != (self.ambient_dim,):
            raise DegeneratePoint(
                f"point has shape {s.shape}, expected ({self.ambient_dim},)"
            )
        res = self.constraint_residual(s)
        if not np.isfinite(res) or res > tol:
            raise DegeneratePoint(
                f"point violates the {self.kind} constraint by {res:.3e} (tol {tol:.0e})"
            )
        return s

    # -- tangent space helpers ----------------------------------------------

    def project_columns(self, s, xi) -> np.ndarray:
        """Apply the tangent projector at ``s`` to every column of ``xi``."""
        P = self.tangent_projector(s)
        xi = np.asarray(xi, dtype=float)
        return P @ xi

    def tangent_from_coeffs(self, s, coeffs) -> np.ndarray:
        """Assemble a d x N tangent matrix from (m, N) basis coefficients."""
        B = self.tangent_basis(s)
        coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
        return B.T @ coeffs

    def coeffs_of_tangent(self, s, xi) -> np.ndarray:
        """Coordinates of the columns of ``xi`` in the tangent basis at ``s``."""
        B = self.tangent_basis(s)
        return B @ np.asarray(xi, dtype=float)

    def tangency_residual(self, s, xi) -> float:
        """Largest per-column normal component of ``xi`` relative to column size."""
        xi = np.asarray(xi, dtype=float)
        normal = xi - self.project_columns(s, xi)
        col_norm = np.linalg.norm(normal, axis=0)
        col_scale = np.maximum(1.0, np.linalg.norm(xi, axis=0))
        return float(np.max(col_norm / col_scale)) if xi.size else 0.0

    # -- motion on the manifold ----------------------------------------------

    def retract(self, s, v) -> np.ndarray:
        """Nearest-point projection of ``s + v``; first-order exponential map."""
        s = _as_point(s)
        v = np.asarray(v, dtype=float)
        return self.project(s + v)

    def cutoff(self, s, delta0: float) -> float:
        """C^2 bump of the distance to the manifold.

        Equals 1 within distance ``delta0 / 2``, vanishes beyond
        ``3 * delta0 / 4``, and blends with a quintic polynomial in between.
        The Lipschitz constant is 7.5 / delta0 (below the guaranteed 8 / delta0).
        """
        if delta0 <= 0:
            raise ValueError("delta0 must be positive")
        dist = self.distance(_as_point(s))
        lo, hi = 0.5 * delta0, 0.75 * delta0
        if dist <= lo:
            return 1.0
        if dist >= hi:
            return 0.0
        u = (dist - lo) / (hi - lo)
        return 1.0 - (u * u * u * (10.0 + u * (-15.0 + 6.0 * u)))

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Sphere(EmbeddedManifold):
    """Unit sphere S^{d-1} embedded in R^d."""

    ambient_dim: int

    kind = "sphere"
    tubular_radius = 1.0

    def __post_init__(self):
        if self.ambient_dim < 2:
            raise ValueError("sphere needs ambient dimension >= 2")

    @property
    def intrinsic_dim(self) -> int:
        return self.ambient_dim - 1

    def distance(self, x) -> float:
        x = _as_point(x)
        return float(abs(np.linalg.norm(x) - 1.0))

    def project(self, x) -> np.ndarray:
        x = _as_point(x)
        r = np.linalg.norm(x)
        if r < _PROJECTION_TOL:
            raise DegeneratePoint("cannot project a near-zero vector onto the sphere")
        return x / r

    def tangent_projector(self, s) -> np.ndarray:
        s = self.check_point(s)
        return np.eye(self.ambient_dim) - np.outer(s, s)

    def tangent_basis(self, s) -> np.ndarray:
        s = self.check_point(s)
        if self.ambient_dim == 2:
            # Angular parametrization: at (cos t, sin t) the basis is (-sin t, cos t).
            return np.array([[-s[1], s[0]]])
        return _gram_schmidt_columns(self.tangent_projector(s), self.intrinsic_dim)

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        v = rng.standard_normal(self.ambient_dim)
        return self.project(v)

    # Batched variants over a trailing ambient axis, used by the convergence
    # experiment on the circle.

    def project_batch(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        norms = np.linalg.norm(points, axis=-1)
        if np.any(norms < _PROJECTION_TOL):
            raise DegeneratePoint("cannot project a near-zero vector onto the sphere")
        return points / norms[..., None]

    def tangent_project_batch(self, points: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        vectors = np.asarray(vectors, dtype=float)
        inner = np.sum(points * vectors, axis=-1, keepdims=True)
        return vectors - inner * points


@dataclass(frozen=True)
class CircleProduct(EmbeddedManifold):
    """Flat torus (S^1)^k embedded in R^{2k}, one circle per coordinate pair."""

    factors: int

    kind = "circle_product"
    tubular_radius = 1.0

    def __post_init__(self):
        if self.factors < 1:
            raise ValueError("circle product needs at least one factor")

    @property
    def ambient_dim(self) -> int:
        return 2 * self.factors

    @property
    def intrinsic_dim(self) -> int:
        return self.factors

    def _pairs(self, x) -> np.ndarray:
        return np.asarray(x, dtype=float).reshape(self.factors, 2)

    def distance(self, x) -> float:
        radii = np.linalg.norm(self._pairs(x), axis=1)
        return float(np.linalg.norm(radii - 1.0))

    def project(self, x) -> np.ndarray:
        pairs = self._pairs(x)
        radii = np.linalg.norm(pairs, axis=1)
        if np.any(radii < _PROJECTION_TOL):
            raise DegeneratePoint(
                "cannot project: some circle factor sits at the origin"
            )
        return (pairs / radii[:, None]).ravel()

    def tangent_projector(self, s) -> np.ndarray:
        s = self.check_point(s)
        P = np.zeros((self.ambient_dim, self.ambient_dim))
        for k in range(self.factors):
            x, y = s[2 * k], s[2 * k + 1]
            tau = np.array([-y, x])
            P[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = np.outer(tau, tau)
        return P

    def tangent_basis(self, s) -> np.ndarray:
        s = self.check_point(s)
        B = np.zeros((self.factors, self.ambient_dim))
        for k in range(self.factors):
            B[k, 2 * k] = -s[2 * k + 1]
            B[k, 2 * k + 1] = s[2 * k]
        return B

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        angles = rng.uniform(0.0, 2.0 * np.pi, size=self.factors)
        return np.stack([np.cos(angles), np.sin(angles)], axis=1).ravel()


def _gram_schmidt_columns(P: np.ndarray, m: int) -> np.ndarray:
    """Deterministic orthonormal basis of range(P) from the projector columns.

    Pivot on the largest remaining column norm, ties broken by lowest index.
    """
    cols = P.copy()
    basis = []
    for _ in range(m):
        norms = np.linalg.norm(cols, axis=0)
        pivot = int(np.argmax(norms))
        if norms[pivot] < 1e-12:
            raise DegeneratePoint("projector columns do not span the tangent space")
        b = cols[:, pivot] / norms[pivot]
        basis.append(b)
        cols = cols - np.outer(b, b @ cols)
    return np.array(basis)


def circle_point(theta: float) -> np.ndarray:
    """Point (cos theta, sin theta) on S^1."""
    return np.array([np.cos(theta), np.sin(theta)])


def circle_theta(points: np.ndarray) -> np.ndarray:
    """Angles of points on S^1, trailing axis of size 2."""
    points = np.asarray(points, dtype=float)
    return np.arctan2(points[..., 1], points[..., 0])


def manifold_from_config(cfg: dict) -> EmbeddedManifold:
    """Build a manifold from its JSON description, e.g. {"kind": "sphere", "d": 2}."""
    kind = check_keys(cfg, "manifold", {"kind"}, {"d", "k"})["kind"]
    if kind == "sphere":
        check_keys(cfg, "manifold", {"kind", "d"}, set())
        return Sphere(int(cfg["d"]))
    if kind == "circle_product":
        check_keys(cfg, "manifold", {"kind", "k"}, set())
        return CircleProduct(int(cfg["k"]))
    raise ConfigError(f"unknown manifold kind {kind!r}")
