import dataclasses

import numpy as np
import pytest

from tanhom import cell, optim
from tanhom.cell import (
    CellBatch,
    CellBatchResult,
    CellProblemSpec,
    CorrectorField,
    _CellObjective,
    energy_of_field,
    energy_of_fields,
    read_corrector_csv,
    solve_cell,
    solve_cell_batch,
    solve_cell_unconstrained,
    tile_corrector,
    write_corrector_csv,
)
from tanhom.density import TfOptions, laminate_oracle
from tanhom.errors import DegeneratePoint, NotTangent, ShapeMismatch, UnsupportedBoundary
from tanhom.grid import UniformGrid
from tanhom.integrand import (
    Integrand,
    StepProfile,
    make_fbar,
    make_g_extension,
    make_isotropic_quadratic,
    make_laminate_quadratic,
    make_norm_linear,
)
from tanhom.manifold import CircleProduct, Sphere, circle_point
from tanhom.optim import cg_quadratic


FOUR_PHASE = StepProfile((0.25, 0.5, 0.75), (1.0, 3.0, 2.0, 5.0))
FOUR_PHASE_HARMONIC = 4.0 / (1.0 + 1.0 / 3.0 + 1.0 / 2.0 + 1.0 / 5.0)


def zero_corrector(spec, basis):
    """The zero corrector of ``spec`` in the rows of ``basis``."""
    shape = (basis.shape[0],) + spec.grid().node_shape
    return CorrectorField(np.zeros(shape), basis, spec.boundary, spec.t, spec.nodes_per_period)


def spec_for(s1, s, xi, **kw):
    kw.setdefault("t", 1)
    kw.setdefault("nodes_per_period", 8)
    kw.setdefault("boundary", "periodic")
    return CellProblemSpec(s1, s, xi, **kw)


def test_spec_validates_tangency(s1, laminate2, north):
    with pytest.raises(NotTangent):
        CellProblemSpec(s1, north, np.array([[0.0, 0.0], [1.0, 0.0]]))


@pytest.mark.parametrize("key, bad", [
    ("tol_grad", 0.0), ("tol_grad", np.inf), ("tol_grad", np.nan),
    ("huber_mu", -1.0), ("huber_mu", 0.0), ("huber_mu", np.inf), ("huber_mu", np.nan),
])
def test_solve_settings_must_be_positive_and_finite(s1, north, xi_harmonic, key, bad):
    # huber_mu = -1 used to grow the smoothing schedule without end; an infinite
    # tol_grad or huber_mu reported the zero corrector converged.
    with pytest.raises(ValueError, match=key):
        CellBatch(s1, [north], [xi_harmonic], **{key: bad})
    with pytest.raises(ValueError, match=key):
        TfOptions(**{key: bad})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_data_is_refused_before_any_solve(monkeypatch, s1, laminate1, bad):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran on non-finite data")

    monkeypatch.setattr(cell, "_run_solver", no_solve)
    east = np.array([1.0, 0.0])
    # A NaN tangency residual used to pass `res > tol`; the solve then returned NaN.
    with pytest.raises(NotTangent, match="not finite"):
        solve_cell(laminate1, CellProblemSpec(s1, east, [[bad], [0.0]]))
    with pytest.raises(DegeneratePoint):
        solve_cell(laminate1, CellProblemSpec(s1, [bad, 0.0], [[0.0], [1.0]]))
    points = np.array([east, [0.0, 1.0], east])
    loads = np.array([[[0.0], [1.0]], [[-2.0], [0.0]], [[0.0], [bad]]])
    with pytest.raises(NotTangent, match="row 2: load is not finite"):
        solve_cell_batch(laminate1, CellBatch(s1, points, loads))
    points[1, 0] = bad
    with pytest.raises(DegeneratePoint, match="point 1 violates"):
        CellBatch(s1, points, np.zeros((3, 2, 1)))


def test_batch_checks_match_the_per_point_checks(s1):
    rng = np.random.default_rng(11)
    points = np.array([circle_point(theta) for theta in rng.uniform(0.0, 2.0 * np.pi, 6)])
    loads = np.einsum("bmd,bmn->bdn", s1.tangent_bases(points), rng.standard_normal((6, 1, 2)))
    batch = CellBatch(s1, points, loads, t=2, boundary="periodic")
    for s, xi, basis in zip(points, loads, batch.bases):
        assert _bits(basis) == _bits(s1.tangent_basis(s))
        assert s1.tangency_residual(s, xi) <= 1e-12
    off = loads.copy()
    off[4, :, 1] += 1e-6 * points[4]  # a normal component the per-point check also refuses
    assert s1.tangency_residual(points[4], off[4]) > cell.TANGENT_TOL
    with pytest.raises(NotTangent, match="row 4"):
        CellBatch(s1, points, off)
    with pytest.raises(DegeneratePoint, match="point 0 violates"):
        CellBatch(s1, 1.5 * points, loads)
    with pytest.raises(ShapeMismatch):
        CellBatch(s1, points, loads[:5])
    with pytest.raises(ShapeMismatch):
        CellBatch(s1, points[:0], loads[:0])


def test_energy_of_zero_field(s1, laminate2, north, xi_harmonic):
    spec = spec_for(s1, north, xi_harmonic, nodes_per_period=8)
    phi0 = zero_corrector(spec, s1.tangent_basis(north))
    # Hand sum: half the element centers see weight 1, half weight 2.
    assert energy_of_field(laminate2, spec, phi0) == pytest.approx(1.5)

    iso = make_isotropic_quadratic(2, 2)
    spec0 = spec_for(s1, north, np.zeros((2, 2)))
    phi0 = zero_corrector(spec0, s1.tangent_basis(north))
    assert energy_of_field(iso, spec0, phi0) == 0.0


def test_energy_shape_mismatch(s1, laminate2, north, xi_harmonic):
    spec = spec_for(s1, north, xi_harmonic, nodes_per_period=8)
    other = spec_for(s1, north, xi_harmonic, nodes_per_period=16)
    phi = zero_corrector(other, s1.tangent_basis(north))
    with pytest.raises(ShapeMismatch):
        energy_of_field(laminate2, spec, phi)


def test_zero_corrector_for_constant_density(s1, north, xi_harmonic):
    iso = make_isotropic_quadratic(2, 2)
    for boundary in ("dirichlet0", "periodic"):
        spec = spec_for(s1, north, xi_harmonic, boundary=boundary)
        res = solve_cell(iso, spec)
        assert res.corrector.max_abs() <= 1e-10
        assert res.value == pytest.approx(1.0, abs=1e-14)
        assert res.converged


def test_laminate_closed_forms(s1, laminate2, north, xi_harmonic, xi_arithmetic):
    res = solve_cell(laminate2, spec_for(s1, north, xi_harmonic, nodes_per_period=64))
    assert res.value == pytest.approx(4.0 / 3.0, rel=0.02)
    res = solve_cell(laminate2, spec_for(s1, north, xi_arithmetic, nodes_per_period=64))
    assert res.value == pytest.approx(1.5, rel=0.02)


def test_solver_determinism(s1, laminate2, north, xi_harmonic):
    spec = spec_for(s1, north, xi_harmonic, nodes_per_period=16)
    r1 = solve_cell(laminate2, spec)
    r2 = solve_cell(laminate2, spec)
    assert r1.value == r2.value
    np.testing.assert_array_equal(r1.corrector.coeffs, r2.corrector.coeffs)


def test_cg_stops_on_nan_curvature():
    res = cg_quadratic(lambda v, rows: np.full_like(v, np.nan), np.ones((1, 3)), 1e-8, 50)
    assert res.iterations == 1
    assert not res.row_converged[0]
    np.testing.assert_array_equal(res.x, 0.0)


def test_cg_preconditioned_matches_plain():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((12, 12))
    H = a @ a.T + 12.0 * np.eye(12)
    g0 = rng.standard_normal((1, 12))
    target = 1e-10 * (1.0 + np.linalg.norm(g0))
    plain = cg_quadratic(lambda v, rows: v @ H, g0, target, 100)
    diag = 1.0 / np.diag(H)
    pre = cg_quadratic(lambda v, rows: v @ H, g0, target, 100, precondition=lambda v: diag * v)
    assert plain.row_converged[0] and pre.row_converged[0]
    np.testing.assert_allclose(pre.x, plain.x, atol=10 * target)
    grad_norm = pre.row_grad_norms[0]
    assert grad_norm == pytest.approx(np.linalg.norm(g0 + pre.x @ H), rel=1e-6, abs=1e-15)
    assert grad_norm <= target


def _kernel(grid: UniformGrid) -> list[np.ndarray]:
    """An orthonormal basis of the unit-coefficient stiffness kernel over the unknowns."""
    if not grid.periodic:
        return []
    modes = [np.ones(grid.node_shape)]
    if grid.ndim == 2 and grid.elements_per_side % 2 == 0:
        sign = (-1.0) ** np.arange(grid.elements_per_side)
        modes.append(np.multiply.outer(sign, sign))
    return [m / np.linalg.norm(m) for m in modes]


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "dirichlet0"])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["plain", "channels"])
def test_stiffness_inverse_inverts_the_stiffness(ndim, periodic, lead):
    n = 8
    grid = UniformGrid(ndim, n, 1.0 / n, periodic)
    unknowns = (...,) + (() if periodic else grid.interior())

    def stiffness(u):
        # Hessian of mean |grad u|^2 over the unknowns (all nodes, or the interior).
        full = np.zeros(lead + grid.node_shape)
        full[unknowns] = u
        out = 2.0 / grid.n_elements * grid.center_gradient_adjoint(grid.center_gradient(full))
        return out[unknowns]

    shape = lead + (grid.node_shape if periodic else (n - 1,) * ndim)
    v = np.random.default_rng(ndim + 2 * periodic).standard_normal(shape)
    axes = tuple(range(len(lead), v.ndim))
    for mode in _kernel(grid):
        v -= np.sum(v * mode, axis=axes, keepdims=True) * mode
    inverse = grid.stiffness_inverse()
    np.testing.assert_allclose(inverse(stiffness(v)), v, atol=1e-10)
    w = inverse(np.random.default_rng(7).standard_normal(shape))
    for mode in _kernel(grid):
        assert np.max(np.abs(np.sum(w * mode, axis=axes))) <= 1e-10


@pytest.mark.parametrize("boundary", ["periodic", "dirichlet0"])
def test_preconditioned_iterations_do_not_grow_with_n(s1, north, boundary):
    one = StepProfile.constant(1.0)
    two_phase = StepProfile((0.5,), (1.0, 2.0))
    for N, sizes in ((1, (16, 64, 512)), (2, (64,))):
        xi = np.zeros((2, N))
        xi[0, 0] = 1.0
        for n in sizes:
            spec = spec_for(s1, north, xi, nodes_per_period=n, boundary=boundary)
            res = solve_cell(make_laminate_quadratic(two_phase, one, N), spec)
            assert res.converged and res.iterations <= 2, (N, n)
    four = make_laminate_quadratic(FOUR_PHASE, one, 1)
    for n in (16, 64, 512):
        spec = spec_for(s1, north, np.array([[1.0], [0.0]]), nodes_per_period=n, boundary=boundary)
        res = solve_cell(four, spec)
        assert res.converged and res.iterations <= 4, n
        assert res.value == pytest.approx(FOUR_PHASE_HARMONIC, rel=1e-12)


@pytest.mark.parametrize("max_iters", [0, -3])
def test_max_iters_below_one_is_rejected(s1, north, xi_harmonic, max_iters):
    with pytest.raises(ValueError, match="max_iters"):
        spec_for(s1, north, xi_harmonic, max_iters=max_iters)
    with pytest.raises(ValueError, match="max_iters"):
        TfOptions(max_iters=max_iters)
    assert spec_for(s1, north, xi_harmonic, max_iters=1).max_iters == 1


def test_grid_boundary_mask():
    mask = UniformGrid(2, 3, 1.0, periodic=False).boundary_mask()
    expected = np.ones((4, 4), dtype=bool)
    expected[1:3, 1:3] = False
    np.testing.assert_array_equal(mask, expected)


def test_nonconvergence_flag(s1, north, xi_harmonic):
    # Four phases need 3 preconditioned iterations, so a cap of 2 stops short.
    f = make_laminate_quadratic(FOUR_PHASE, StepProfile.constant(1.0), 2)
    spec = spec_for(s1, north, xi_harmonic, nodes_per_period=32, max_iters=2)
    res = solve_cell(f, spec)
    assert not res.converged
    assert res.warning is not None
    assert res.value >= FOUR_PHASE_HARMONIC - 1e-12  # still an upper bound for the minimum
    uncapped = solve_cell(f, spec_for(s1, north, xi_harmonic, nodes_per_period=32))
    assert uncapped.converged and uncapped.warning is None


def test_tile_corrector(s1, laminate2, north, xi_harmonic):
    spec = spec_for(s1, north, xi_harmonic, boundary="dirichlet0", nodes_per_period=8)
    res = solve_cell(laminate2, spec)
    assert tile_corrector(res.corrector, 1) is res.corrector

    tiled = tile_corrector(res.corrector, 2)
    spec2 = spec_for(
        s1, north, xi_harmonic, t=2, boundary="dirichlet0", nodes_per_period=8
    )
    e1 = energy_of_field(laminate2, spec, res.corrector)
    e2 = energy_of_field(laminate2, spec2, tiled)
    assert abs(e1 - e2) <= 1e-12

    zero = zero_corrector(spec, s1.tangent_basis(north))
    assert tile_corrector(zero, 3).max_abs() == 0.0

    per = solve_cell(laminate2, spec_for(s1, north, xi_harmonic)).corrector
    with pytest.raises(UnsupportedBoundary):
        tile_corrector(per, 2)


def test_boundary_monotonicity(s1, laminate2, north, xi_harmonic):
    vals = {}
    for boundary in ("dirichlet0", "periodic"):
        spec = spec_for(s1, north, xi_harmonic, boundary=boundary, nodes_per_period=8)
        vals[boundary] = solve_cell(laminate2, spec).value
    assert vals["periodic"] <= vals["dirichlet0"] + 1e-10


def test_tiling_monotonicity(s1, laminate2, north, xi_harmonic):
    v = {}
    for t in (1, 2):
        spec = spec_for(
            s1, north, xi_harmonic, t=t, boundary="dirichlet0", nodes_per_period=8
        )
        v[t] = solve_cell(laminate2, spec).value
    assert v[2] <= v[1] + 1e-10


def test_mesh_convergence_monotone(s1, laminate2, north, xi_harmonic, profile_a, profile_b):
    oracle = laminate_oracle(profile_a, profile_b, north, xi_harmonic)
    errs = []
    for n in (8, 16, 32, 64):
        spec = spec_for(
            s1, north, xi_harmonic, boundary="dirichlet0", nodes_per_period=n
        )
        errs.append(abs(solve_cell(laminate2, spec).value - oracle))
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))


def test_corrector_lives_in_tangent_coordinates(s1, laminate2, north, xi_harmonic):
    res = solve_cell(laminate2, spec_for(s1, north, xi_harmonic))
    assert res.corrector.coeffs.shape[0] == s1.intrinsic_dim


def test_unconstrained_matches_constrained(s1, laminate2, north, xi_harmonic):
    fbar = make_fbar(laminate2, s1)
    spec = spec_for(s1, north, xi_harmonic, nodes_per_period=32, tol_grad=1e-10)
    vc = solve_cell(laminate2, spec).value
    ru = solve_cell_unconstrained(fbar, spec.batch)
    assert ru.coeffs.shape[1] == s1.ambient_dim
    assert abs(vc - ru.values[0]) / (1.0 + abs(vc)) <= 1e-6

    s45 = circle_point(0.7)
    xi45 = s1.tangent_from_coeffs(s45, np.array([[0.8, -1.2]]))
    spec45 = spec_for(s1, s45, xi45, nodes_per_period=32, tol_grad=1e-10)
    vc = solve_cell(laminate2, spec45).value
    vu = solve_cell_unconstrained(fbar, spec45.batch).values[0]
    assert abs(vc - vu) / (1.0 + abs(vc)) <= 1e-6


def test_unconstrained_isotropic(s1, north, xi_harmonic):
    iso = make_isotropic_quadratic(2, 2)
    fbar = make_fbar(iso, s1)
    spec = spec_for(s1, north, xi_harmonic, nodes_per_period=8)
    assert solve_cell_unconstrained(fbar, spec.batch).values[0] == pytest.approx(1.0, abs=1e-12)
    spec0 = spec_for(s1, north, np.zeros((2, 2)))
    assert solve_cell_unconstrained(fbar, spec0.batch).values[0] == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("boundary", ["dirichlet0", "periodic"])
@pytest.mark.parametrize("ndim", [1, 2])
def test_assembled_gradient_matches_fd(s1, boundary, ndim, profile_a, profile_b):
    f = make_laminate_quadratic(profile_a, profile_b, ndim)
    s = circle_point(0.4)
    xi = s1.tangent_from_coeffs(s, np.ones((1, ndim)) * 0.7)
    spec = CellProblemSpec(
        s1, s, xi, t=1, nodes_per_period=4, boundary=boundary
    )
    obj = _CellObjective(spec.batch, s1.tangent_basis(s), f)
    forms = (f.eval, f.grad_xi)
    rng = np.random.default_rng(42 + ndim)
    x = rng.standard_normal((1, obj.n_unknowns))
    _, g = obj.value_and_grad(forms, x)
    h = 1e-6
    gfd = np.zeros_like(g)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[0, i] = h
        gfd[0, i] = (
            obj.value_and_grad(forms, x + e)[0][0] - obj.value_and_grad(forms, x - e)[0][0]
        ) / (2 * h)
    assert np.linalg.norm(g - gfd) <= 1e-5 * max(np.linalg.norm(gfd), 1e-12)


def test_corrector_csv_roundtrip(tmp_path, s1, laminate2, north, xi_harmonic):
    res = solve_cell(laminate2, spec_for(s1, north, xi_harmonic, boundary="dirichlet0"))
    path = tmp_path / "corr.csv"
    write_corrector_csv(res.corrector, path)
    values = read_corrector_csv(path)
    np.testing.assert_allclose(values, res.corrector.coeffs, rtol=0, atol=0)


def test_dirichlet_corrector_boundary_zero(s1, laminate2, north, xi_harmonic):
    res = solve_cell(
        laminate2, spec_for(s1, north, xi_harmonic, boundary="dirichlet0")
    )
    coeffs = res.corrector.coeffs
    assert np.max(np.abs(coeffs[:, 0, :])) == 0.0
    assert np.max(np.abs(coeffs[:, -1, :])) == 0.0
    assert np.max(np.abs(coeffs[:, :, 0])) == 0.0
    assert np.max(np.abs(coeffs[:, :, -1])) == 0.0


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


def _assert_same_solve(batched, alone):
    assert _bits(batched.value) == _bits(alone.value)
    assert batched.iterations == alone.iterations
    assert batched.converged == alone.converged
    assert _bits(batched.grad_norm) == _bits(alone.grad_norm)
    assert _bits(batched.corrector.coeffs) == _bits(alone.corrector.coeffs)
    assert _bits(batched.corrector.basis) == _bits(alone.corrector.basis)


def _assert_same_rows(batched, alone):
    """Every array of two ``CellBatchResult``s agrees bit for bit."""
    for a in dataclasses.fields(CellBatchResult):
        assert _bits(getattr(batched, a.name)) == _bits(getattr(alone, a.name)), a.name


def _batch_of(specs):
    """The ``CellBatch`` of specs that share their settings."""
    spec = specs[0]
    return CellBatch(
        spec.manifold, [sp.s for sp in specs], [sp.xi for sp in specs], spec.t,
        spec.nodes_per_period, spec.boundary, spec.tol_grad, spec.max_iters, spec.huber_mu,
    )


def _assert_rows_match_lone_solves(f, batch, rows, specs):
    assert len(rows.values) == len(specs)
    for b, spec in enumerate(specs):
        alone = solve_cell(f, spec)
        assert _bits(rows.values[b]) == _bits(alone.value)
        assert rows.iterations[b] == alone.iterations
        assert rows.converged[b] == alone.converged
        assert _bits(rows.grad_norms[b]) == _bits(alone.grad_norm)
        assert _bits(rows.coeffs[b]) == _bits(alone.corrector.coeffs)
        assert _bits(batch.bases[b]) == _bits(alone.corrector.basis)


@pytest.mark.parametrize(
    "N, boundary, profile, max_iters",
    [
        (1, "periodic", None, None),
        (1, "dirichlet0", None, None),
        (2, "periodic", None, None),
        (2, "dirichlet0", None, None),
        (1, "periodic", FOUR_PHASE, 2),
    ],
    ids=["N1-periodic", "N1-dirichlet", "N2-periodic", "N2-dirichlet", "four-phase-capped"],
)
def test_solve_cell_batch_rows_match_lone_solves(s1, profile_a, N, boundary, profile, max_iters):
    f = make_laminate_quadratic(profile or profile_a, StepProfile.constant(1.0), N)
    rng = np.random.default_rng(7 + N)
    specs = []
    for theta in (0.0, 0.4, np.pi / 2, np.pi, 4.0):
        s = circle_point(theta)
        xi = s1.tangent_from_coeffs(s, rng.uniform(-2.0, 2.0, (1, N)))
        specs.append(spec_for(s1, s, xi, boundary=boundary, max_iters=max_iters))
    batch = _batch_of(specs)
    rows = solve_cell_batch(f, batch)
    _assert_rows_match_lone_solves(f, batch, rows, specs)
    if max_iters is not None:
        # At theta = 0 and pi the load misses the oscillating coefficient: those
        # rows stop at once while the capped rows run out of iterations.
        assert rows.converged.tolist() == [True, False, False, True, False]
        assert rows.iterations.tolist() == [0, 2, 2, 0, 2]


def test_solve_cell_batch_rejects_mixed_settings(s1, laminate1, laminate2, north, xi_harmonic):
    # One batch carries one set of settings; what can still disagree is the
    # load shape against the integrand, and an empty batch is refused.
    batch = _batch_of([spec_for(s1, north, xi_harmonic)] * 2)
    with pytest.raises(ShapeMismatch):
        solve_cell_batch(laminate1, batch)
    with pytest.raises(ShapeMismatch):
        energy_of_fields(laminate1, batch, np.zeros((2, 1, 8, 8)))
    with pytest.raises(ShapeMismatch):
        CellBatch(s1, np.zeros((0, 2)), np.zeros((0, 2, 2)))
    assert len(solve_cell_batch(laminate2, batch).values) == 2


def test_solve_cell_batch_splits_at_the_element_budget(monkeypatch, s1, laminate1):
    specs = []
    for theta in (0.3, 1.0, 2.5, 4.0, 5.5):
        s = circle_point(theta)
        specs.append(spec_for(s1, s, s1.tangent_from_coeffs(s, [[1.5]])))
    monkeypatch.setattr(cell, "BATCH_ELEMENTS", 2 * specs[0].grid().n_elements + 1)
    runs = []
    run_solver = cell._run_solver

    def counted(*args, **kwargs):
        rows = run_solver(*args, **kwargs)
        runs.append(len(rows.values))
        return rows

    monkeypatch.setattr(cell, "_run_solver", counted)
    batch = _batch_of(specs)
    rows = solve_cell_batch(laminate1, batch)
    assert runs == [2, 2, 1]
    runs.clear()
    _assert_rows_match_lone_solves(laminate1, batch, rows, specs)


def test_solve_cell_batch_non_quadratic_rows_match_lone_solves(s1, profile_a):
    f = make_norm_linear(profile_a, 1)
    specs = []
    for theta, coeff in ((0.3, 1.0), (2.0, -0.5), (4.5, 0.0)):
        s = circle_point(theta)
        xi = s1.tangent_from_coeffs(s, [[coeff]])
        specs.append(spec_for(s1, s, xi, tol_grad=1e-6, huber_mu=1e-2))
    batch = _batch_of(specs)
    _assert_rows_match_lone_solves(f, batch, solve_cell_batch(f, batch), specs)


@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize("boundary", ["periodic", "dirichlet0"])
def test_non_quadratic_rows_match_batches_of_one(monkeypatch, s1, profile_a, boundary, t):
    # A cap of 6 iterations per stage stops the row at |z| = 2 beside rows
    # that converge early (|z| = 0.07 and 0.03) and a zero load that starts
    # converged, in one descent per smoothing stage.
    descents = []
    lbfgs = cell.lbfgs

    def counted(value_and_grad, x0, *args):
        descents.append(len(x0))
        return lbfgs(value_and_grad, x0, *args)

    monkeypatch.setattr(cell, "lbfgs", counted)
    f = make_norm_linear(profile_a, 1)
    specs = []
    for theta, coeff in ((5.5, 2.0), (1.1, 0.07), (4.5, 0.0), (2.0, 0.03)):
        s = circle_point(theta)
        xi = s1.tangent_from_coeffs(s, [[coeff]])
        specs.append(
            spec_for(s1, s, xi, t=t, boundary=boundary, tol_grad=1e-6, max_iters=6, huber_mu=1e-2)
        )
    batch = _batch_of(specs)
    rows = solve_cell_batch(f, batch)
    assert descents == [4, 4, 4]  # huber_mu 1e-2: stages at mu = 1 and 0.1, then the final one
    assert rows.solver_converged.tolist() == [False, True, True, True]
    assert rows.iterations[2] == 0 and rows.iterations[0] > max(rows.iterations[1:])
    _assert_rows_match_lone_solves(f, batch, rows, specs)


@pytest.mark.parametrize("boundary", ["dirichlet0", "periodic"])
@pytest.mark.parametrize("case", ["laminate1", "laminate2", "sphere3", "torus", "cutoff"])
def test_unconstrained_rows_match_lone_solves(monkeypatch, s1, laminate1, laminate2, profile_a, case, boundary):
    f, M = {
        "laminate1": (laminate1, s1),
        "laminate2": (laminate2, s1),
        "sphere3": (make_isotropic_quadratic(2, 3), Sphere(3)),
        "torus": (make_isotropic_quadratic(1, 4), CircleProduct(2)),
        "cutoff": (make_norm_linear(profile_a, 1), s1),
    }[case]
    ext = make_g_extension(f, M, 0.5) if f.p == 1 else make_fbar(f, M)
    rng = np.random.default_rng(4)
    points = [M.random_point(rng) for _ in range(3)]
    loads = [M.tangent_from_coeffs(s, rng.uniform(-2.0, 2.0, (M.intrinsic_dim, f.dims[0]))) for s in points]
    opts = TfOptions(t_list=(1,), n=8, boundary=boundary, tol_grad=1e-7, huber_mu=1e-2)
    batch = opts.cell_batch(M, points, loads, 1)
    monkeypatch.setattr(cell, "BATCH_ELEMENTS", 2 * batch.grid().n_elements)  # parts of 2 and 1 rows
    rows = solve_cell_unconstrained(ext, batch)
    assert rows.coeffs.shape[:2] == (3, M.ambient_dim) and rows.converged.all()
    for b in range(3):
        alone = solve_cell_unconstrained(ext, opts.cell_batch(M, points[b : b + 1], loads[b : b + 1], 1))
        for a in dataclasses.fields(CellBatchResult):
            assert _bits(getattr(rows, a.name)[b]) == _bits(getattr(alone, a.name)[0]), a.name


def test_linear_growth_seeded_pair_converges(s1, profile_a):
    # The first pair that `verify` draws with seed 613753789: |z| = 0.067 at
    # s = (-0.068, 0.998).  Without the stiffness preconditioner the constrained
    # L-BFGS solve stopped unconverged at gradient norm 1.41, 1.7e-2 off.
    rng = np.random.default_rng(613753789)
    s = s1.random_point(rng)
    xi = s1.tangent_from_coeffs(s, rng.uniform(-2.0, 2.0, (1, 1)))
    f = make_norm_linear(profile_a, 1)
    spec = spec_for(s1, s, xi, nodes_per_period=64, tol_grad=1e-6)
    constrained = solve_cell(f, spec)
    unconstrained = solve_cell_unconstrained(make_g_extension(f, s1, 0.5), spec.batch)
    assert constrained.converged and unconstrained.converged[0]
    assert abs(constrained.value - unconstrained.values[0]) / (1.0 + constrained.value) <= 1e-3


def test_energy_of_fields_matches_energy_of_field(s1, laminate2, north, xi_harmonic, xi_arithmetic):
    specs = [spec_for(s1, north, xi_harmonic), spec_for(s1, north, xi_arithmetic)]
    fields = [solve_cell(laminate2, spec).corrector for spec in specs]
    batch = _batch_of(specs)
    batched = energy_of_fields(laminate2, batch, np.stack([phi.coeffs for phi in fields]))
    alone = [energy_of_field(laminate2, spec, phi) for spec, phi in zip(specs, fields)]
    assert _bits(batched) == _bits(alone)
    ambient = solve_cell_unconstrained(make_fbar(laminate2, s1), specs[0].batch).coeffs[0]
    with pytest.raises(ShapeMismatch):  # ambient coordinates in the tangent bases
        energy_of_fields(laminate2, batch, np.stack([ambient] * 2))


@pytest.mark.parametrize("n", [16, 17, 256, 4097, 65536])
@pytest.mark.parametrize("batch", [1, 3, 32])
def test_vecdot_rows_equal_row_dot_products(n, batch):
    # cg_quadratic takes every row's dot product and norm in one np.vecdot and
    # relies on these bits; a numpy or BLAS change that moved them would move
    # artifact bytes.
    rng = np.random.default_rng(n + batch)
    a, c = rng.standard_normal((2, batch, n)) * rng.uniform(0.1, 10.0, (2, batch, 1))
    rows = np.arange(batch)[::2]
    for dots, sel in ((np.vecdot(a, c), np.arange(batch)), (np.vecdot(a[rows], c[rows]), rows)):
        assert _bits(dots) == _bits([a[b] @ c[b] for b in sel])
    norms = np.sqrt(np.vecdot(a, a))
    assert _bits(norms) == _bits([np.linalg.norm(row) for row in a])


def test_cg_batch_freezes_finished_rows(monkeypatch):
    monkeypatch.setattr(optim, "RECOMPUTE_EVERY", 3)
    rng = np.random.default_rng(5)
    a = rng.standard_normal((12, 12))
    H = a @ a.T + 12.0 * np.eye(12)
    q = np.linalg.qr(rng.standard_normal((12, 12)))[0]
    diag = 1.0 / np.diag(H)
    # Rows: runs to max_iters (stiff), zero load (stops at iteration 0),
    # loses curvature (indefinite), converges early.
    hessians = [(q * np.logspace(0, 4, 12)) @ q.T, H, np.diag([1.0] * 11 + [-3.0]), H]
    g0 = np.stack([rng.standard_normal(12), np.zeros(12), [1.0] * 11 + [0.3], rng.standard_normal(12)])

    def recording(hessians, calls):
        """The Hessian of row ``b`` is ``hessians[b]``; each call appends its row indices and points."""

        def apply_hessian(V, rows):
            calls.append([(int(b), _bits(v)) for b, v in zip(rows, V)])
            return np.stack([hessians[b] @ v for b, v in zip(rows, V)])

        return apply_hessian

    def precondition(v):
        return diag * v

    calls = []
    target = 1e-12 * (1.0 + np.sqrt(np.vecdot(g0, g0)))
    res = cg_quadratic(recording(hessians, calls), g0, target, 16, precondition=precondition)
    assert res.row_iterations.tolist() == [16, 0, 2, 12]
    assert res.row_converged.tolist() == [False, True, False, True]
    for b in range(len(g0)):
        lone_calls = []
        lone = recording(hessians[b : b + 1], lone_calls)
        alone = cg_quadratic(lone, g0[b : b + 1], target[b], 16, precondition=precondition)
        # Row b is passed at exactly the points of its lone solve, in order:
        # never once it has stopped.
        seen = [x for call in calls for row, x in call if row == b]
        assert seen == [x for call in lone_calls for _, x in call]
        assert _bits(res.x[b]) == _bits(alone.x[0])
        assert res.row_iterations[b] == alone.row_iterations[0]
        assert _bits(res.row_grad_norms[b]) == _bits(alone.row_grad_norms[0])
        assert res.row_converged[b] == alone.row_converged[0]
    # Iteration k passes exactly the rows still running, in batch order, once
    # for the direction and, every third iteration, once more for the residual.
    running = [[b for b in range(len(g0)) if res.row_iterations[b] >= k] for k in range(1, 17)]
    expected = [rows for k, rows in enumerate(running, 1) for _ in range(1 + (k % 3 == 0))]
    assert [[b for b, _ in call] for call in calls] == expected
    assert res.row_grad_norms[1] == 0.0
    # The row that lost curvature keeps the iterate and residual it had.
    assert res.row_grad_norms[2] == pytest.approx(np.linalg.norm(g0[2] + hessians[2] @ res.x[2]))
    # The zero-load row keeps the zero start: +0.0 rather than -0.0.
    assert _bits(res.x[1]) == _bits(np.zeros(12))
    assert isinstance(res.iterations, int) and res.iterations == 16 + 2 + 12


def test_cg_rows_take_one_target_each():
    rng = np.random.default_rng(8)
    q = np.linalg.qr(rng.standard_normal((12, 12)))[0]
    H = (q * np.logspace(0, 3, 12)) @ q.T
    g0 = np.stack([rng.standard_normal(12)] * 2)

    def apply_hessian(v, rows):  # row by row: a matrix product may round each row differently
        return np.stack([H @ row for row in v])

    res = cg_quadratic(apply_hessian, g0, np.array([1e-2, 1e-10]), 100)
    loose = cg_quadratic(apply_hessian, g0[:1], 1e-2, 100)
    tight = cg_quadratic(apply_hessian, g0[:1], 1e-10, 100)
    assert res.row_iterations.tolist() == [loose.iterations, tight.iterations]
    assert loose.iterations < tight.iterations
    assert res.row_converged.all()
    assert _bits(res.x) == _bits(np.concatenate([loose.x, tight.x]))
    assert _bits(res.row_grad_norms) == _bits([loose.row_grad_norms[0], tight.row_grad_norms[0]])


def test_non_quadratic_parts_sample_the_density_once(monkeypatch, s1, profile_a):
    # At the default huber_mu every part runs five smoothing stages; each
    # stage used to build its own objective and sample the coefficients again.
    assert len(cell._continuation_schedule(CellBatch.huber_mu)) == 5
    f = make_norm_linear(profile_a, 1)
    specs = []
    for theta, coeff in ((0.3, 1.0), (2.0, -0.5), (4.5, 0.25)):
        s = circle_point(theta)
        specs.append(spec_for(s1, s, s1.tangent_from_coeffs(s, [[coeff]]), tol_grad=1e-6))
    monkeypatch.setattr(cell, "BATCH_ELEMENTS", 2 * specs[0].grid().n_elements)
    samples = []
    sample = Integrand.sample

    def counted(self, y):
        samples.append(len(y))
        return sample(self, y)

    monkeypatch.setattr(Integrand, "sample", counted)
    rows = solve_cell_batch(f, _batch_of(specs))
    assert len(samples) == 2  # parts of two rows and one row
    assert rows.converged.all()


def _bare(f):
    """``f`` rebuilt from its bare (y, xi) callables: its sample is the raw points."""
    return dataclasses.replace(f, coefficients=None)


@pytest.mark.parametrize("boundary", ["dirichlet0", "periodic"])
@pytest.mark.parametrize("kind", ["laminate", "norm_linear"])
def test_objective_grad_equals_value_and_grad(s1, profile_a, boundary, kind):
    if kind == "laminate":
        f = make_laminate_quadratic(FOUR_PHASE, profile_a, 2)
        forms = (f.eval, f.grad_xi)
    else:
        f = make_norm_linear(FOUR_PHASE, 2)
        forms = f.solver_forms(1e-2)
    specs, bases = [], []
    for theta in (0.4, 2.0):
        s = circle_point(theta)
        specs.append(spec_for(s1, s, s1.tangent_from_coeffs(s, [[0.7, -1.2]]), boundary=boundary))
        bases.append(s1.tangent_basis(s))
    loads = np.stack([spec.xi for spec in specs])
    rng = np.random.default_rng(3)
    for rows in (2, 1):
        obj = _CellObjective(specs[0].batch, np.stack(bases[:rows]), f, loads[:rows])
        x = rng.standard_normal((obj.batch, obj.n_unknowns))
        assert np.array_equal(obj.grad(forms, x), obj.value_and_grad(forms, x)[1])


def _zero_gradient_cases(s1, profile_a):
    """(label, batch, bases, density, forms, points) of the zero-corrector gradient test.

    Every batch has a row whose tangent basis is negative, with a -0.0 load
    entry, a row at a generic negative basis and an all -0.0 load row.
    """
    s2 = Sphere(3)
    circle = np.array([[-1.0, 0.0], circle_point(3 * np.pi / 4), circle_point(2.0)])
    sphere = np.array([[0.0, -0.6, -0.8], [-0.48, 0.6, -0.64], [0.0, 0.0, -1.0]])
    cases = []
    for boundary in ("periodic", "dirichlet0"):
        for N in (1, 2):
            coeffs = np.array([[[1.5, 0.7]], [[-0.4, 1.2]], [[0.0, 0.0]]])[:, :, :N]
            loads = np.einsum("bmd,bmn->bdn", s1.tangent_bases(circle), coeffs)
            loads[0, 0] = -0.0  # tangent (-0.0, -1) at (-1, 0): the normal row is zero
            loads[2] = -0.0
            batch = CellBatch(s1, circle, loads, nodes_per_period=16, boundary=boundary)
            f = make_laminate_quadratic(FOUR_PHASE, profile_a, N)
            forms = f.solver_forms(1e-4)
            cases.append((f"laminate-N{N}-{boundary}", batch, batch.bases, f, forms, None))
            if N == 1:
                linear = make_norm_linear(FOUR_PHASE, 1)
                for mu in (1.0, 1e-2):
                    label = f"norm_linear-mu{mu}-{boundary}"
                    cases.append((label, batch, batch.bases, linear, linear.solver_forms(mu), None))
                fbar = make_fbar(f, s1)
                eye = np.broadcast_to(np.eye(2), (3, 2, 2))
                cases.append((f"fbar-{boundary}", batch, eye, fbar, fbar.solver_forms(1e-4), circle))
            # m = 2 on the 2-sphere, negative coefficients; a y-dependent density,
            # as a constant one has no gradient at the zero corrector
            coeffs = np.array([[[-1.0, 0.5]] * 2, [[0.3, -0.9]] * 2, [[0.0, 0.0]] * 2])[:, :, :N]
            bases = s2.tangent_bases(sphere)
            loads = np.einsum("bmd,bmn->bdn", bases, coeffs)
            loads[2] = -0.0
            batch = CellBatch(s2, sphere, loads, nodes_per_period=8, boundary=boundary)
            linear = make_norm_linear(FOUR_PHASE, N, 3)
            cases.append((f"norm_linear-m2-N{N}-{boundary}", batch, batch.bases, linear,
                          linear.solver_forms(1e-2), None))
    return cases


def test_load_gradient_equals_grad_at_zero_bit_for_bit(s1, profile_a):
    for label, batch, bases, f, forms, points in _zero_gradient_cases(s1, profile_a):
        assert np.any(batch.bases < 0.0), label
        zero_loads = batch.loads[batch.loads == 0.0]
        assert np.signbit(zero_loads).any(), label
        seen = []

        def gradient_seen(*args, _gr=forms[1]):
            seen.append(args[-1])
            return _gr(*args)

        recording = (forms[0], gradient_seen)
        obj = _CellObjective(batch, bases, f, batch.loads, points)
        expected = obj.grad(recording, np.zeros((obj.batch, obj.n_unknowns)))
        got = obj.load_gradient(recording)
        assert got.shape == expected.shape and _bits(got) == _bits(expected), label
        assert np.any(got != 0.0), label
        # The forms see the same ambient gradient, -0.0 loads read as +0.0, in a
        # read-only view whose new arrays are laid out planar, (b, d, N, *elements),
        # as the computed ambient gradient is on 2-D grids.
        computed, view = seen
        assert view.shape == computed.shape and _bits(view) == _bits(computed), label
        assert not np.signbit(view[view == 0.0]).any(), label
        assert not view.flags.writeable, label
        layouts = [np.moveaxis(np.empty_like(a), (-2, -1), (1, 2)) for a in (computed, view)]
        assert layouts[1].flags.c_contiguous, label
        assert layouts[0].flags.c_contiguous or batch.ndim == 1, label


def test_one_iteration_quadratic_solve_evaluates_two_field_gradients(monkeypatch, s1, profile_a):
    calls = []
    gradient = UniformGrid.center_gradient

    def counted(grid, values):
        calls.append(values.shape)
        return gradient(grid, values)

    monkeypatch.setattr(UniformGrid, "center_gradient", counted)
    laminate = make_laminate_quadratic(profile_a, StepProfile.constant(1.0), 2)
    s = circle_point(np.pi / 4)
    spec = spec_for(s1, s, s1.tangent_from_coeffs(s, [[1.5, 0.3]]), nodes_per_period=64)
    res = solve_cell(laminate, spec)
    assert res.converged and res.iterations == 1
    # One Hessian action and the exact energy; g0 is read from the load.
    assert len(calls) == 2


def test_sampled_solves_match_bare_callable_solves(s1, profile_a):
    s = circle_point(0.9)
    laminate = make_laminate_quadratic(FOUR_PHASE, profile_a, 2)
    spec = spec_for(s1, s, s1.tangent_from_coeffs(s, [[1.5, -0.4]]), nodes_per_period=64)
    linear = make_norm_linear(FOUR_PHASE, 1)
    linear_spec = spec_for(s1, s, s1.tangent_from_coeffs(s, [[0.8]]), tol_grad=1e-6, huber_mu=1e-2)
    fbar_spec = spec_for(s1, s, s1.tangent_from_coeffs(s, [[1.1]]), boundary="dirichlet0")
    one = make_laminate_quadratic(FOUR_PHASE, profile_a, 1)
    pairs = [
        (solve_cell(laminate, spec), solve_cell(_bare(laminate), spec)),
        (solve_cell(linear, linear_spec), solve_cell(_bare(linear), linear_spec)),
    ]
    for sampled, bare in pairs:
        assert sampled.converged and sampled.iterations > 0
        _assert_same_solve(sampled, bare)
    sampled = solve_cell_unconstrained(make_fbar(one, s1), fbar_spec.batch)
    assert sampled.converged[0] and sampled.iterations[0] > 0
    _assert_same_rows(sampled, solve_cell_unconstrained(make_fbar(_bare(one), s1), fbar_spec.batch))


def test_profile_lookups_do_not_grow_with_iterations(monkeypatch, s1, profile_b):
    lookups = []
    lookup = StepProfile.__call__

    def counted(profile, y):
        lookups.append(profile)
        return lookup(profile, y)

    monkeypatch.setattr(StepProfile, "__call__", counted)
    laminate = make_laminate_quadratic(FOUR_PHASE, profile_b, 1)
    values = []

    def counted_eval(y, xi):
        values.append(y)
        return laminate.eval(y, xi)

    f = dataclasses.replace(laminate, eval=counted_eval)
    s = circle_point(0.3)
    iterations = []
    for tol_grad in (1e-2, 1e-12):
        lookups.clear()
        values.clear()
        spec = spec_for(s1, s, s1.tangent_from_coeffs(s, [[1.0]]), nodes_per_period=32, tol_grad=tol_grad)
        res = solve_cell(f, spec)
        iterations.append(res.iterations)
        assert res.converged
        assert lookups.count(FOUR_PHASE) == 1 and lookups.count(profile_b) == 1
        # Conjugate gradients evaluate gradients only; the density once, for the reported value.
        assert len(values) == 1
    assert iterations[0] < iterations[1] and iterations[1] >= 3
