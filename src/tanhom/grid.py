"""Uniform-grid multilinear (Q1) element machinery.

Fields are nodal arrays with leading channel axes; every operator below acts
on the trailing spatial axes.  Gradients are evaluated at element centers,
where they are exact for the multilinear reconstruction: along each axis the
center value of the derivative is the plain corner difference, averaged over
the remaining axes.  One-point quadrature at the centers keeps quadratic
energies exactly quadratic and never samples a coefficient discontinuity that
sits on a grid line.  ``UniformGrid.stiffness_inverse`` inverts the Hessian of
the unit-coefficient energy in closed form by a Fourier or sine transform; it
preconditions the cell solver and the angle descents.
"""

from __future__ import annotations

from functools import reduce

import numpy as np


def _diff(arr: np.ndarray, axis: int, h: float, periodic: bool) -> np.ndarray:
    if periodic:
        return (np.roll(arr, -1, axis=axis) - arr) / h
    lo = [slice(None)] * arr.ndim
    hi = [slice(None)] * arr.ndim
    lo[axis] = slice(None, -1)
    hi[axis] = slice(1, None)
    return (arr[tuple(hi)] - arr[tuple(lo)]) / h


def _avg(arr: np.ndarray, axis: int, periodic: bool) -> np.ndarray:
    if periodic:
        return 0.5 * (np.roll(arr, -1, axis=axis) + arr)
    lo = [slice(None)] * arr.ndim
    hi = [slice(None)] * arr.ndim
    lo[axis] = slice(None, -1)
    hi[axis] = slice(1, None)
    return 0.5 * (arr[tuple(hi)] + arr[tuple(lo)])


def _diff_adjoint(w: np.ndarray, axis: int, h: float, periodic: bool) -> np.ndarray:
    if periodic:
        return (np.roll(w, 1, axis=axis) - w) / h
    shape = list(w.shape)
    shape[axis] += 1
    out = np.zeros(shape, dtype=w.dtype)
    lo = [slice(None)] * w.ndim
    hi = [slice(None)] * w.ndim
    lo[axis] = slice(None, -1)
    hi[axis] = slice(1, None)
    out[tuple(hi)] += w / h
    out[tuple(lo)] -= w / h
    return out


def _avg_adjoint(w: np.ndarray, axis: int, periodic: bool) -> np.ndarray:
    if periodic:
        return 0.5 * (np.roll(w, 1, axis=axis) + w)
    shape = list(w.shape)
    shape[axis] += 1
    out = np.zeros(shape, dtype=w.dtype)
    lo = [slice(None)] * w.ndim
    hi = [slice(None)] * w.ndim
    lo[axis] = slice(None, -1)
    hi[axis] = slice(1, None)
    out[tuple(hi)] += 0.5 * w
    out[tuple(lo)] += 0.5 * w
    return out


def _dst1(values: np.ndarray, axis: int) -> np.ndarray:
    """Type-I sine transform by ``np.fft``: ``y_k = sum_j x_j sin(pi j k / (m + 1))``."""
    last = axis in (-1, values.ndim - 1)
    x = values if last else np.moveaxis(values, axis, -1)
    m = x.shape[-1]
    # The odd extension (0, x, 0, -reversed x) of period 2m + 2.
    odd = np.empty(x.shape[:-1] + (2 * m + 2,))
    odd[..., 0] = odd[..., m + 1] = 0.0
    odd[..., 1 : m + 1] = x
    np.negative(x[..., ::-1], out=odd[..., m + 2 :])
    y = -0.5 * np.fft.rfft(odd).imag[..., 1 : m + 1]
    return y if last else np.moveaxis(y, -1, axis)


class UniformGrid:
    """Tensor grid on (0, side)^ndim with spacing ``h`` and Q1 elements.

    ``periodic`` grids store one value per period and wrap; otherwise nodes
    include both edges.  ``channels`` leading axes are carried through all
    operators untouched.
    """

    def __init__(self, ndim: int, elements_per_side: int, h: float, periodic: bool):
        if ndim < 1:
            raise ValueError("grid dimension must be at least 1")
        if elements_per_side < 1:
            raise ValueError("need at least one element per side")
        self.ndim = ndim
        self.elements_per_side = elements_per_side
        self.h = float(h)
        self.periodic = bool(periodic)
        nodes = elements_per_side if periodic else elements_per_side + 1
        self.node_shape = (nodes,) * ndim
        self.element_shape = (elements_per_side,) * ndim
        self.n_elements = elements_per_side**ndim

    def centers(self) -> np.ndarray:
        """Element-center coordinates, shape (*element_shape, ndim)."""
        axis = (np.arange(self.elements_per_side) + 0.5) * self.h
        mesh = np.meshgrid(*([axis] * self.ndim), indexing="ij")
        return np.stack(mesh, axis=-1)

    def center_gradient(self, values: np.ndarray) -> np.ndarray:
        """Gradient at element centers: (*channels, *nodes) -> (*channels, ndim, *elements)."""
        lead = values.ndim - self.ndim
        out = []
        for k in range(self.ndim):
            g = values
            for j in range(self.ndim):
                axis = lead + j
                if j == k:
                    g = _diff(g, axis, self.h, self.periodic)
                else:
                    g = _avg(g, axis, self.periodic)
            out.append(g)
        return np.stack(out, axis=lead)

    def center_gradient_adjoint(self, weights: np.ndarray) -> np.ndarray:
        """Transpose of ``center_gradient``: (*channels, ndim, *elements) -> (*channels, *nodes)."""
        lead = weights.ndim - self.ndim - 1
        total = None
        for k in range(self.ndim):
            g = np.take(weights, k, axis=lead)
            for j in reversed(range(self.ndim)):
                axis = lead + j
                if j == k:
                    g = _diff_adjoint(g, axis, self.h, self.periodic)
                else:
                    g = _avg_adjoint(g, axis, self.periodic)
            total = g if total is None else total + g
        return total

    def center_value(self, values: np.ndarray) -> np.ndarray:
        """Mean of each element's corner values: (*channels, *nodes) -> (*channels, *elements)."""
        lead = values.ndim - self.ndim
        for j in range(self.ndim):
            values = _avg(values, lead + j, self.periodic)
        return values

    def center_value_adjoint(self, weights: np.ndarray) -> np.ndarray:
        """Transpose of ``center_value``: (*channels, *elements) -> (*channels, *nodes)."""
        lead = weights.ndim - self.ndim
        for j in reversed(range(self.ndim)):
            weights = _avg_adjoint(weights, lead + j, self.periodic)
        return weights

    def stiffness_inverse(self):
        """The map ``r -> H^+ r``, ``H`` the Hessian of ``mean |grad u|^2`` over the unknowns.

        Acts on the trailing ``ndim`` axes, so leading channel axes pass
        through.  The unknowns are all nodes of a periodic grid and the
        interior nodes of a zero-boundary one.  ``H = 2 / (n_elements h^2)
        sum_k T_k prod_{j != k} M_j`` for the 1D second difference ``T`` and
        corner average ``M`` of the center gradients.  Periodic grids are
        diagonalized by the Fourier transform, with symbol ``4 sin^2(w / 2)``
        for ``T`` and ``cos^2(w / 2)`` for ``M``; the pseudo-inverse is zero on
        the kernel of ``H`` (the constants, plus the checkerboard in 2D).
        Zero-boundary grids are diagonalized by the sine transform
        (eigenvalues ``4 sin^2(pi i / 2n)`` and ``cos^2(pi i / 2n)``,
        ``i = 1..n-1``), which applied twice multiplies by ``n / 2`` per axis.
        """
        n = self.elements_per_side
        scale = 2.0 / (self.n_elements * self.h**2)
        axes = range(self.ndim)
        if self.periodic:
            # Half angles w / 2 of the Fourier modes; the last axis keeps the rfft half.
            half_angles = [np.pi * np.fft.fftfreq(n)] * (self.ndim - 1)
            half_angles.append(np.pi * np.fft.rfftfreq(n))
        else:
            half_angles = [np.pi * np.arange(1, n) / (2 * n)] * self.ndim
        stiff = [4.0 * np.sin(w) ** 2 for w in half_angles]
        mass = [np.cos(w) ** 2 for w in half_angles]
        sym = sum(
            reduce(np.multiply.outer, [stiff[j] if j == k else mass[j] for j in axes])
            for k in axes
        )
        if not self.periodic:
            sym *= scale * (n / 2.0) ** self.ndim

            def sine(r):
                lead = r.ndim - self.ndim
                return reduce(lambda a, j: _dst1(a, lead + j), axes, r)

            return lambda r: sine(sine(r) / sym)

        sym *= scale
        kernel = sym <= 1e-12 * scale
        inv = np.where(kernel, 0.0, 1.0 / np.where(kernel, 1.0, sym))

        def apply(r):
            trailing = tuple(range(r.ndim - self.ndim, r.ndim))
            spectrum = np.fft.rfftn(r, axes=trailing)
            spectrum *= inv
            return np.fft.irfftn(spectrum, s=self.node_shape, axes=trailing)

        return apply

    def interior(self) -> tuple[slice, ...]:
        """Slices selecting interior nodes of a non-periodic grid."""
        if self.periodic:
            raise ValueError("periodic grids have no boundary")
        return (slice(1, -1),) * self.ndim

    def boundary_mask(self) -> np.ndarray:
        """Boolean node array, True on the boundary nodes of a non-periodic grid."""
        mask = np.ones(self.node_shape, dtype=bool)
        mask[self.interior()] = False
        return mask
