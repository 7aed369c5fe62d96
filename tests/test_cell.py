import numpy as np
import pytest

from tanhom.cell import (
    CellProblemSpec,
    CorrectorField,
    _CellObjective,
    energy_of_field,
    read_corrector_csv,
    solve_cell,
    solve_cell_unconstrained,
    tile_corrector,
    write_corrector_csv,
    zero_corrector,
)
from tanhom.density import laminate_oracle
from tanhom.errors import NotTangent, ShapeMismatch, UnsupportedBoundary
from tanhom.grid import UniformGrid
from tanhom.integrand import make_fbar, make_isotropic_quadratic, make_laminate_quadratic
from tanhom.manifold import Sphere, circle_point
from tanhom.optim import cg_quadratic


def spec_for(s1, s, xi, **kw):
    kw.setdefault("t", 1)
    kw.setdefault("nodes_per_period", 8)
    kw.setdefault("boundary", "periodic")
    return CellProblemSpec(s1, s, xi, **kw)


def test_spec_validates_tangency(s1, laminate2, north):
    with pytest.raises(NotTangent):
        CellProblemSpec(s1, north, np.array([[0.0, 0.0], [1.0, 0.0]]))


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
    res = cg_quadratic(lambda v: np.full_like(v, np.nan), np.ones(3), 1e-8, 50)
    assert res.iterations == 1
    assert not res.converged
    np.testing.assert_array_equal(res.x, 0.0)


def test_grid_boundary_mask():
    mask = UniformGrid(2, 3, 1.0, periodic=False).boundary_mask()
    expected = np.ones((4, 4), dtype=bool)
    expected[1:3, 1:3] = False
    np.testing.assert_array_equal(mask, expected)


def test_nonconvergence_flag(s1, laminate2, north, xi_harmonic):
    spec = spec_for(s1, north, xi_harmonic, nodes_per_period=32, max_iters=2)
    res = solve_cell(laminate2, spec)
    assert not res.converged
    assert res.warning is not None
    assert res.value >= 4.0 / 3.0 - 1e-12  # still an upper bound for the minimum


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
    ru = solve_cell_unconstrained(fbar, spec)
    assert ru.corrector.coeffs.shape[0] == s1.ambient_dim
    assert abs(vc - ru.value) / (1.0 + abs(vc)) <= 1e-6

    s45 = circle_point(0.7)
    xi45 = s1.tangent_from_coeffs(s45, np.array([[0.8, -1.2]]))
    spec45 = spec_for(s1, s45, xi45, nodes_per_period=32, tol_grad=1e-10)
    vc = solve_cell(laminate2, spec45).value
    vu = solve_cell_unconstrained(fbar, spec45).value
    assert abs(vc - vu) / (1.0 + abs(vc)) <= 1e-6


def test_unconstrained_isotropic(s1, north, xi_harmonic):
    iso = make_isotropic_quadratic(2, 2)
    fbar = make_fbar(iso, s1)
    spec = spec_for(s1, north, xi_harmonic, nodes_per_period=8)
    assert solve_cell_unconstrained(fbar, spec).value == pytest.approx(1.0, abs=1e-12)
    spec0 = spec_for(s1, north, np.zeros((2, 2)))
    assert solve_cell_unconstrained(fbar, spec0).value == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("boundary", ["dirichlet0", "periodic"])
@pytest.mark.parametrize("ndim", [1, 2])
def test_assembled_gradient_matches_fd(s1, boundary, ndim, profile_a, profile_b):
    f = make_laminate_quadratic(profile_a, profile_b, ndim)
    s = circle_point(0.4)
    xi = s1.tangent_from_coeffs(s, np.ones((1, ndim)) * 0.7)
    spec = CellProblemSpec(
        s1, s, xi, t=1, nodes_per_period=4, boundary=boundary
    )
    obj = _CellObjective(spec, s1.tangent_basis(s), f.eval, f.grad_xi)
    rng = np.random.default_rng(42 + ndim)
    x = rng.standard_normal(obj.n_unknowns)
    _, g = obj.value_and_grad(x)
    h = 1e-6
    gfd = np.zeros_like(g)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        gfd[i] = (obj.value(x + e) - obj.value(x - e)) / (2 * h)
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
