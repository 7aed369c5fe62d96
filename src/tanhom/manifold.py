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

    Subclasses provide ``distances``, ``project``, ``tangent_projector``,
    ``tangent_basis``, ``tangent_bases``, ``kind``, ``ambient_dim``,
    ``intrinsic_dim`` and ``tubular_radius``.  The first three and ``cutoff``
    take a point (d,) or a stack (..., d), each stacked point with the bits it
    has alone; ``tangent_bases`` takes rows (B, d).  Immutable value objects.
    """

    kind: str
    ambient_dim: int
    intrinsic_dim: int
    tubular_radius: float

    # -- constraint handling -------------------------------------------------

    def distance(self, x) -> float:
        """Distance of ``x`` from the manifold (0 for on-manifold points)."""
        return float(self.distances(_as_point(x)))

    def check_point(self, s, tol: float = ON_MANIFOLD_TOL) -> np.ndarray:
        s = _as_point(s)
        if s.shape != (self.ambient_dim,):
            raise DegeneratePoint(
                f"point has shape {s.shape}, expected ({self.ambient_dim},)"
            )
        return self.check_points(s, tol)

    def check_points(self, points, tol: float = ON_MANIFOLD_TOL) -> np.ndarray:
        """``points`` (..., d) as floats; raise unless every one lies on the manifold.

        The test is ``not res <= tol``, so a non-finite point fails it.
        """
        points = _as_point(points)
        if points.shape[-1:] != (self.ambient_dim,):
            raise DegeneratePoint(f"points have shape {points.shape}, expected (..., {self.ambient_dim})")
        res = self.distances(points)
        if not np.all(res <= tol):
            at = np.unravel_index(np.argmin(res <= tol), np.shape(res))
            where = "".join(f" {i}" for i in at)
            raise DegeneratePoint(f"point{where} violates the {self.kind} constraint by {res[at]:.3e}")
        return points

    # -- tangent space helpers ----------------------------------------------

    def project_columns(self, s, xi) -> np.ndarray:
        """Apply the tangent projector at ``s`` to every column of ``xi``."""
        P = self.tangent_projector(s)
        xi = np.asarray(xi, dtype=float)
        return P @ xi

    def tangent_bases(self, points: np.ndarray) -> np.ndarray:
        """Tangent bases (B, m, d) at the rows of ``points`` (B, d), one ``tangent_basis`` each."""
        bases = [self.tangent_basis(s) for s in points]
        return np.array(bases).reshape(len(points), self.intrinsic_dim, self.ambient_dim)

    def tangent_from_coeffs(self, s, coeffs) -> np.ndarray:
        """Assemble a d x N tangent matrix from (m, N) basis coefficients."""
        B = self.tangent_basis(s)
        coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
        return B.T @ coeffs

    def tangency_residual(self, s, xi) -> float:
        """Largest per-column normal component of ``xi`` relative to column size."""
        s = self.check_point(s)
        return float(self.tangency_residuals(s[None], np.asarray(xi, dtype=float)[None])[0])

    def tangency_residuals(self, points, loads, bases=None) -> np.ndarray:
        """``tangency_residual`` of each row of ``points`` (B, d), ``loads`` (B, d, N); ``bases`` if known."""
        bases = self.tangent_bases(points) if bases is None else bases
        # The bases are orthonormal, so B^T B projects onto the tangent space.
        normal = loads - np.einsum("bmd,bme,ben->bdn", bases, bases, loads)
        scale = np.maximum(1.0, np.linalg.norm(loads, axis=1))
        return np.max(np.linalg.norm(normal, axis=1) / scale, axis=1, initial=0.0)

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
        lo, hi = 0.5 * delta0, 0.75 * delta0
        u = np.clip((self.distances(_as_point(s)) - lo) / (hi - lo), 0.0, 1.0)
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

    def distances(self, points) -> np.ndarray:
        return np.abs(_norms(points) - 1.0)

    def project(self, x) -> np.ndarray:
        x = _as_point(x)
        r = _norms(x)[..., None]
        if np.any(r < _PROJECTION_TOL):
            raise DegeneratePoint("cannot project a near-zero vector onto the sphere")
        return x / r

    def tangent_projector(self, s) -> np.ndarray:
        s = self.check_points(s)
        return np.eye(self.ambient_dim) - s[..., :, None] * s[..., None, :]

    def tangent_basis(self, s) -> np.ndarray:
        s = self.check_point(s)
        if self.ambient_dim == 2:
            return self.tangent_bases(s[None])[0]
        return _gram_schmidt_columns(self.tangent_projector(s), self.intrinsic_dim)

    def tangent_bases(self, points: np.ndarray) -> np.ndarray:
        if self.ambient_dim != 2:
            return super().tangent_bases(points)
        # Angular parametrization: at (cos t, sin t) the basis is (-sin t, cos t).
        return np.stack([-points[:, 1], points[:, 0]], axis=-1)[:, None, :]

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        v = rng.standard_normal(self.ambient_dim)
        return self.project(v)

    # ``project`` takes stacks; perfbench/spans.py still wraps this name.
    project_batch = project

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
        x = _as_point(x)
        return x.reshape(x.shape[:-1] + (self.factors, 2))

    def distances(self, points) -> np.ndarray:
        return _norms(np.linalg.norm(self._pairs(points), axis=-1) - 1.0)

    def project(self, x) -> np.ndarray:
        pairs = self._pairs(x)
        radii = np.linalg.norm(pairs, axis=-1)
        if np.any(radii < _PROJECTION_TOL):
            raise DegeneratePoint(
                "cannot project: some circle factor sits at the origin"
            )
        return (pairs / radii[..., None]).reshape(pairs.shape[:-2] + (-1,))

    def tangent_projector(self, s) -> np.ndarray:
        s = self.check_points(s)
        P = np.zeros(s.shape[:-1] + (self.ambient_dim, self.ambient_dim))
        for k in range(self.factors):
            tau = np.stack([-s[..., 2 * k + 1], s[..., 2 * k]], axis=-1)
            P[..., 2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = tau[..., :, None] * tau[..., None, :]
        return P

    def tangent_basis(self, s) -> np.ndarray:
        return self.tangent_bases(self.check_point(s)[None])[0]

    def tangent_bases(self, points: np.ndarray) -> np.ndarray:
        # Factor k spans (-y_k, x_k) in its own coordinate pair.
        k = np.arange(self.factors)
        bases = np.zeros((len(points), self.factors, self.ambient_dim))
        bases[:, k, 2 * k] = -points[:, 1::2]
        bases[:, k, 2 * k + 1] = points[:, 0::2]
        return bases

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        angles = rng.uniform(0.0, 2.0 * np.pi, size=self.factors)
        return np.stack([np.cos(angles), np.sin(angles)], axis=1).ravel()


def _norms(x) -> np.ndarray:
    """Euclidean norms along the last axis, each with the bits of ``np.linalg.norm`` of its vector."""
    x = _as_point(x)
    return np.sqrt(np.vecdot(x, x))


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
