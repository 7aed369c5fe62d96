import json
from dataclasses import replace

import numpy as np
import pytest

from tanhom import density
from tanhom.cell import solve_cell_batch, solve_cell_unconstrained
from tanhom.density import (
    CoefficientLattice,
    DensityTable,
    TfOptions,
    build_density_table,
    check_growth_lipschitz,
    check_tangential_quasiconvexity,
    laminate_oracle,
    tf_hom,
    tf_hom_batch,
    verify_equivalence_fbar,
)
from tanhom.artifacts import read_csv
from tanhom.errors import GrowthViolation, MalformedArtifact, NotTangent
from tanhom.grid import UniformGrid
from tanhom.integrand import (
    Integrand,
    StepProfile,
    make_fbar,
    make_isotropic_quadratic,
    make_laminate_quadratic,
    make_norm_linear,
)
from tanhom.manifold import CircleProduct, Sphere, circle_point

PERIODIC_1 = TfOptions(t_list=(1,), n=16, boundary="periodic")
# Four phases: preconditioned CG needs 3 iterations here, so a cap of 2 bites.
FOUR_PHASE = StepProfile((0.25, 0.5, 0.75), (1.0, 3.0, 2.0, 5.0))


def test_laminate_oracle_values(profile_a, profile_b, north, xi_harmonic, xi_arithmetic):
    assert laminate_oracle(profile_a, profile_b, north, xi_harmonic) == pytest.approx(
        4.0 / 3.0
    )
    assert laminate_oracle(profile_a, profile_b, north, xi_arithmetic) == pytest.approx(1.5)
    # At (1, 0) the weight reduces to b = 1: both means are 1, value = |xi|^2.
    east = np.array([1.0, 0.0])
    xi = np.array([[0.0, 0.0], [1.0, 2.0]])
    assert laminate_oracle(profile_a, profile_b, east, xi) == pytest.approx(5.0)
    assert laminate_oracle(profile_a, profile_b, north, np.zeros((2, 2))) == 0.0
    with pytest.raises(NotTangent):
        laminate_oracle(profile_a, profile_b, north, np.array([[0.0], [1.0]]))


def test_tf_hom_flat_trace_constant(s1, north):
    iso = make_isotropic_quadratic(2, 2)
    xi = s1.tangent_from_coeffs(north, np.array([[1.0, 0.0]]))
    res = tf_hom(iso, s1, north, xi, TfOptions(t_list=(1, 2), n=4))
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.rel_change <= 1e-12
    assert res.converged and res.solver_converged


def test_tf_hom_laminate(s1, laminate2, north, xi_harmonic):
    res = tf_hom(laminate2, s1, north, xi_harmonic, PERIODIC_1)
    assert res.value == pytest.approx(4.0 / 3.0, rel=1e-10)
    assert res.converged


def test_tf_hom_diagonal_angle(s1, laminate2):
    s45 = np.array([np.sqrt(0.5), np.sqrt(0.5)])
    xi = s1.tangent_from_coeffs(s45, np.array([[1.0, 0.0]]))
    res = tf_hom(laminate2, s1, s45, xi, PERIODIC_1)
    assert res.value == pytest.approx(1.2, rel=1e-10)


def test_tf_hom_unconverged_flag(s1, laminate2, north, xi_harmonic):
    # Zero-boundary values drop visibly from t=1 to t=2, beyond a tiny rel_tol.
    res = tf_hom(
        laminate2,
        s1,
        north,
        xi_harmonic,
        TfOptions(t_list=(1, 2), n=8, boundary="dirichlet0", rel_tol=1e-12),
    )
    assert not res.converged
    assert res.trace[1].value <= res.trace[0].value + 1e-10


def test_equivalence_report(s1, laminate2, north, xi_harmonic):
    samples = [(north, xi_harmonic)]
    rep = verify_equivalence_fbar(
        laminate2, s1, samples, TfOptions(t_list=(1,), n=32, boundary="periodic", tol_grad=1e-10)
    )
    assert rep.extension == "tangent_projection"
    assert rep.max_rel_gap <= 1e-6


def test_equivalence_solves_largest_cube_once(monkeypatch, s1, laminate2, north, xi_harmonic):
    calls = []

    def counted(ext, spec):
        calls.append(spec.t)
        return solve_cell_unconstrained(ext, spec)

    monkeypatch.setattr(density, "solve_cell_unconstrained", counted)
    opts = TfOptions(t_list=(1, 2), n=8, boundary="periodic")
    rep = verify_equivalence_fbar(laminate2, s1, [(north, xi_harmonic)], opts)
    assert calls == [2]
    direct = solve_cell_unconstrained(make_fbar(laminate2, s1), opts.cell_spec(s1, north, xi_harmonic, 2))
    assert rep.entries[0].unconstrained == direct.value
    assert rep.max_rel_gap <= 1e-6


def test_equivalence_linear_growth(s1):
    c = StepProfile((0.5,), (1.0, 2.0))
    f = make_norm_linear(c, 1, 2)
    s = np.array([0.0, 1.0])
    xi = s1.tangent_from_coeffs(s, np.array([[1.0]]))
    opts = TfOptions(t_list=(1,), n=32, boundary="periodic", tol_grad=1e-6, huber_mu=1e-4)
    rep = verify_equivalence_fbar(f, s1, [(s, xi)], opts)
    assert rep.extension == "ambient_cutoff"
    assert rep.max_rel_gap <= 1e-3
    # The linear-growth reference: gradient mass concentrates where c is
    # cheapest, so the homogenized value is min(c) |z|.
    assert rep.entries[0].constrained == pytest.approx(1.0, abs=2e-3)


def test_quasiconvexity_zero_trial_exact(s1, laminate2, north, xi_harmonic):
    rep = check_tangential_quasiconvexity(
        laminate2, s1, north, xi_harmonic, trial_count=3, seed=5, opts=PERIODIC_1
    )
    assert rep.residuals[0] == 0.0
    assert rep.passed


def test_quasiconvexity_constant_convex(s1, north):
    iso = make_isotropic_quadratic(2, 2)
    xi = s1.tangent_from_coeffs(north, np.array([[1.0, -0.5]]))
    rep = check_tangential_quasiconvexity(
        iso, s1, north, xi, trial_count=10, seed=6, opts=TfOptions(t_list=(1,), n=4)
    )
    assert rep.max_residual <= 1e-8


def test_growth_lipschitz_laminate(s1, laminate2):
    rep = check_growth_lipschitz(laminate2, s1, 20, seed=7, opts=PERIODIC_1)
    assert rep.sandwich_lower_margin <= 1e-12
    assert rep.sandwich_upper_margin <= 1e-12
    assert 0.0 < rep.fitted_constant <= 2.0 * laminate2.beta


def test_growth_violation_detected(s1):
    overstated = Integrand(
        eval=lambda y, xi: np.sum(np.asarray(xi) ** 2, axis=(-2, -1)),
        grad_xi=lambda y, xi: 2.0 * np.asarray(xi),
        p=2,
        alpha=2.0,
        beta=2.0,
        dims=(1, 2),
        quadratic=True,
    )
    with pytest.raises(GrowthViolation):
        check_growth_lipschitz(overstated, s1, 5, seed=8, opts=TfOptions(t_list=(1,), n=4))


def test_growth_lipschitz_rejects_nan(s1, nan_density):
    with pytest.raises(GrowthViolation):
        check_growth_lipschitz(nan_density, s1, 2, seed=8, opts=TfOptions(t_list=(1,), n=4))


def test_nan_value_is_not_converged(tmp_path, s1, nan_density, north):
    opts = TfOptions(t_list=(1,), n=4, boundary="periodic")
    res = tf_hom(nan_density, s1, north, s1.tangent_from_coeffs(north, [[1.0]]), opts)
    assert np.isnan(res.value)
    assert not res.converged and not res.solver_converged
    table = build_density_table(nan_density, s1, 2, CoefficientLattice(-1.0, 1.0, 2), opts)
    table.save(tmp_path / "table.csv", tmp_path / "table.json")
    rows = (tmp_path / "table.csv").read_text().splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["0"] * 4


def test_growth_samples_nested(s1, laminate2):
    small = check_growth_lipschitz(laminate2, s1, 10, seed=9, opts=PERIODIC_1)
    big = check_growth_lipschitz(laminate2, s1, 20, seed=9, opts=PERIODIC_1)
    np.testing.assert_allclose(big.ratios[: len(small.ratios)], small.ratios)


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


def _trace_bits(res):
    return [(e.t, _bits(e.value), e.iterations, e.converged) for e in res.trace]


def _assert_same_tf_hom(batched, alone):
    assert _bits(batched.value) == _bits(alone.value)
    assert _trace_bits(batched) == _trace_bits(alone)
    assert _bits(batched.rel_change) == _bits(alone.rel_change)
    assert batched.converged == alone.converged
    assert batched.solver_converged == alone.solver_converged


@pytest.mark.parametrize("boundary", ["periodic", "dirichlet0"])
@pytest.mark.parametrize("N", [1, 2])
def test_tf_hom_batch_rows_match_lone_tf_hom(s1, profile_a, profile_b, N, boundary):
    f = make_laminate_quadratic(profile_a, profile_b, N)
    opts = TfOptions(t_list=(1, 2), n=8, boundary=boundary)
    rng = np.random.default_rng(17 + N)
    # Mixed base points, one repeated, and a zero load.
    points = [circle_point(theta) for theta in (0.0, 0.4, np.pi / 2, 4.0, 0.4)]
    loads = [s1.tangent_from_coeffs(s, rng.uniform(-2.0, 2.0, (1, N))) for s in points]
    loads[-1] = np.zeros((2, N))
    batch = tf_hom_batch(f, s1, points, loads, opts)
    assert len(batch) == len(points)
    for s, xi, res in zip(points, loads, batch):
        _assert_same_tf_hom(res, tf_hom(f, s1, s, xi, opts))


def test_tf_hom_batch_non_quadratic_and_empty(s1, profile_a):
    f = make_norm_linear(profile_a, 1)
    opts = TfOptions(t_list=(1, 2), n=8, boundary="periodic", tol_grad=1e-6, huber_mu=1e-2)
    points = [circle_point(0.3), circle_point(2.5), circle_point(0.3)]
    loads = [s1.tangent_from_coeffs(s, [[c]]) for s, c in zip(points, (0.8, -1.5, 0.0))]
    batch = tf_hom_batch(f, s1, points, loads, opts)
    for s, xi, res in zip(points, loads, batch):
        _assert_same_tf_hom(res, tf_hom(f, s1, s, xi, opts))
    assert tf_hom_batch(f, s1, [], [], opts) == []
    with pytest.raises(ValueError):
        tf_hom_batch(f, s1, points, loads[:2], opts)


def _quasiconvexity_by_gradient(f, M, s, xi, trial_count, seed, opts, trial_grid=4):
    """(reference, residuals) of the quasiconvexity check from one ``tf_hom`` per
    gradient, the trial fields drawn one trial at a time."""
    basis = M.tangent_basis(s)
    grid = UniformGrid(xi.shape[1], trial_grid, 1.0 / trial_grid, periodic=False)
    interior = (slice(None),) + grid.interior()
    rng = np.random.default_rng(seed)
    reference = tf_hom(f, M, s, xi, opts).value
    residuals = []
    for trial in range(trial_count):
        V = np.zeros((M.intrinsic_dim,) + grid.node_shape)
        if trial > 0:
            V[interior] = rng.uniform(-1.0, 1.0, size=V[interior].shape)
        amb = xi + np.einsum("md,mn...->...dn", basis, grid.center_gradient(V))
        values = [tf_hom(f, M, s, load, opts).value for load in amb.reshape(-1, *xi.shape)]
        residuals.append(reference - float(np.mean(values)))
    return reference, np.array(residuals)


@pytest.mark.parametrize(
    "N, theta, coeffs, opts",
    [
        (2, np.pi / 2, [[1.0, -0.5]], PERIODIC_1),
        (1, 0.7, [[1.3]], TfOptions(t_list=(1, 2), n=8, boundary="dirichlet0")),
    ],
    ids=["N2-periodic", "N1-dirichlet-t12"],
)
def test_quasiconvexity_matches_gradient_loop(s1, profile_a, profile_b, N, theta, coeffs, opts):
    f = make_laminate_quadratic(profile_a, profile_b, N)
    s = circle_point(theta)
    xi = s1.tangent_from_coeffs(s, np.array(coeffs))
    rep = check_tangential_quasiconvexity(f, s1, s, xi, trial_count=6, seed=3, opts=opts)
    reference, residuals = _quasiconvexity_by_gradient(f, s1, s, xi, 6, 3, opts)
    assert _bits(rep.reference) == _bits(reference)
    assert _bits(rep.residuals) == _bits(residuals)
    assert rep.residuals[0] == 0.0


def _growth_by_gradient(f, M, sample_count, seed, opts, coeff_radius=5.0):
    """(ratios, lower margin, upper margin) of the growth check from one ``tf_hom``
    per gradient, in draw order; raises ``GrowthViolation`` at the first escape."""
    rng = np.random.default_rng(seed)
    shape = (M.intrinsic_dim, f.dims[0])
    ratios, lower, upper = [], -np.inf, -np.inf
    for _ in range(sample_count):
        s = M.random_point(rng)
        z = rng.standard_normal(shape)
        z *= rng.uniform(0.0, coeff_radius) / max(float(np.linalg.norm(z)), 1e-12)
        direction = rng.standard_normal(shape)
        direction /= max(float(np.linalg.norm(direction)), 1e-12)
        z2 = z + 10.0 ** rng.uniform(-3.0, np.log10(2.0)) * direction
        pair = [M.tangent_from_coeffs(s, z), M.tangent_from_coeffs(s, z2)]
        values, norms = [], []
        for xi in pair:
            v = tf_hom(f, M, s, xi, opts).value
            n = float(np.linalg.norm(xi))
            lo, hi = f.alpha * n**f.p - v, v - f.beta * (1.0 + n**f.p)
            if not (lo <= 0.0 and hi <= 0.0):
                raise GrowthViolation("escaped", sample=(s, xi))
            lower, upper = max(lower, lo), max(upper, hi)
            values.append(v)
            norms.append(n)
        denom = (1.0 + norms[0] ** (f.p - 1.0) + norms[1] ** (f.p - 1.0))
        ratios.append(abs(values[0] - values[1]) / (denom * float(np.linalg.norm(pair[0] - pair[1]))))
    return np.array(ratios), lower, upper


@pytest.mark.parametrize(
    "N, opts",
    [(2, PERIODIC_1), (1, TfOptions(t_list=(1, 2), n=8, boundary="dirichlet0"))],
    ids=["N2-periodic", "N1-dirichlet-t12"],
)
def test_growth_lipschitz_matches_gradient_loop(s1, profile_a, profile_b, N, opts):
    f = make_laminate_quadratic(profile_a, profile_b, N)
    rep = check_growth_lipschitz(f, s1, 8, seed=21, opts=opts)
    ratios, lower, upper = _growth_by_gradient(f, s1, 8, 21, opts)
    assert _bits(rep.ratios) == _bits(ratios)
    assert _bits(rep.fitted_constant) == _bits(np.max(ratios))
    assert _bits([rep.sandwich_lower_margin, rep.sandwich_upper_margin]) == _bits([lower, upper])
    # Nested samples: a shorter run is a prefix of a longer one, bit for bit.
    short = check_growth_lipschitz(f, s1, 5, seed=21, opts=opts)
    assert _bits(short.ratios) == _bits(rep.ratios[:5])


def test_growth_violation_names_first_escaping_sample(s1):
    # Declared beta = 1 under 1.5 |xi|^2: only samples with |xi|^2 > 2 escape.
    # With this seed and radius the first to escape is the second load of pair 4.
    steep = Integrand(
        eval=lambda y, xi: 1.5 * np.sum(np.asarray(xi) ** 2, axis=(-2, -1)),
        grad_xi=lambda y, xi: 3.0 * np.asarray(xi),
        p=2,
        alpha=1.0,
        beta=1.0,
        dims=(1, 2),
        quadratic=True,
    )
    opts = TfOptions(t_list=(1,), n=4, boundary="periodic")
    with pytest.raises(GrowthViolation) as expected:
        _growth_by_gradient(steep, s1, 10, 25, opts, coeff_radius=1.6)
    with pytest.raises(GrowthViolation) as raised:
        check_growth_lipschitz(steep, s1, 10, seed=25, opts=opts, coeff_radius=1.6)
    assert [_bits(a) for a in raised.value.sample] == [_bits(a) for a in expected.value.sample]


def test_equivalence_matches_gradient_loop(s1, laminate2):
    opts = TfOptions(t_list=(1, 2), n=8, boundary="periodic")
    rng = np.random.default_rng(5)
    samples = []
    for _ in range(3):
        s = s1.random_point(rng)
        samples.append((s, s1.tangent_from_coeffs(s, rng.uniform(-2.0, 2.0, (1, 2)))))
    rep = verify_equivalence_fbar(laminate2, s1, iter(samples), opts)
    fbar = make_fbar(laminate2, s1)
    for (s, xi), entry in zip(samples, rep.entries, strict=True):
        constrained = tf_hom(laminate2, s1, s, xi, opts).value
        unconstrained = solve_cell_unconstrained(fbar, opts.cell_spec(s1, s, xi, 2)).value
        assert _bits([entry.constrained, entry.unconstrained]) == _bits([constrained, unconstrained])
        assert entry.rel_gap == abs(constrained - unconstrained) / (1.0 + abs(constrained))


def test_build_density_table_single_entry(s1, laminate1, north):
    table = build_density_table(
        laminate1, s1, 1, CoefficientLattice(1.0, 1.0, 1), PERIODIC_1
    )
    assert table.values.shape == (1, 1)
    xi = s1.tangent_from_coeffs(circle_point(0.0), np.array([[1.0]]))
    direct = tf_hom(laminate1, s1, circle_point(0.0), xi, PERIODIC_1)
    assert table.values[0, 0] == pytest.approx(direct.value)


def test_build_density_table_empty_lattice(s1, laminate1):
    table = build_density_table(
        laminate1, s1, 4, CoefficientLattice(-1.0, 1.0, 0), PERIODIC_1
    )
    assert table.values.shape == (4, 0)
    ok, _, _ = table.check_sandwich()
    assert ok


def test_build_density_table_oracle_sweep(s1, laminate1, profile_a, profile_b):
    table = build_density_table(
        laminate1, s1, 8, CoefficientLattice(-2.0, 2.0, 5), PERIODIC_1
    )
    worst = 0.0
    for i, theta in enumerate(table.thetas):
        s = circle_point(theta)
        for j, z in enumerate(table.coeff_axes[0]):
            xi = s1.tangent_from_coeffs(s, np.array([[z]]))
            oracle = laminate_oracle(profile_a, profile_b, s, xi)
            worst = max(worst, abs(table.values[i, j] - oracle) / (1.0 + oracle))
    assert worst <= 0.02
    ok, lo, hi = table.check_sandwich()
    assert ok


def test_build_density_table_requires_circle(laminate1):
    with pytest.raises(ValueError):
        build_density_table(laminate1, CircleProduct(1), 2, CoefficientLattice(-1, 1, 3))


def diagonal_laminate() -> Integrand:
    """Weight a(y_0 + y_1) |xi|^2 on two columns: layers across the diagonal
    couple the columns, so the effective tensor has off-diagonal entries."""
    a = StepProfile((0.3,), (1.0, 3.0))

    def ev(y, xi):
        y = np.asarray(y, dtype=float)
        return a(y[..., 0] + y[..., 1]) * np.sum(np.asarray(xi) ** 2, axis=(-2, -1))

    def gr(y, xi):
        y = np.asarray(y, dtype=float)
        return 2.0 * a(y[..., 0] + y[..., 1])[..., None, None] * np.asarray(xi)

    return Integrand(eval=ev, grad_xi=gr, p=2, alpha=1.0, beta=3.0, dims=(2, 2), quadratic=True)


@pytest.mark.parametrize(
    "f, opts, lattice",
    [
        (make_laminate_quadratic(StepProfile((0.5,), (1.0, 2.0)), StepProfile.constant(1.0), 1),
         PERIODIC_1, CoefficientLattice(-2.0, 2.0, 9)),
        (make_laminate_quadratic(StepProfile((0.25, 0.625), (1.0, 3.0, 1.5)),
                                 StepProfile((0.5,), (2.0, 1.0)), 2),
         TfOptions(t_list=(1,), n=8, boundary="periodic"), CoefficientLattice(-2.0, 1.5, 5)),
        (make_isotropic_quadratic(2, 2),
         TfOptions(t_list=(1,), n=4, boundary="periodic"), CoefficientLattice(-1.0, 2.0, 4)),
        (make_laminate_quadratic(StepProfile((0.25, 0.625), (1.0, 3.0, 1.5)),
                                 StepProfile((0.5,), (2.0, 1.0)), 2),
         TfOptions(t_list=(1, 2), n=8, boundary="dirichlet0"), CoefficientLattice(-2.0, 1.5, 4)),
        (diagonal_laminate(),
         TfOptions(t_list=(1,), n=8, boundary="periodic"), CoefficientLattice(-1.0, 2.0, 4)),
        (make_laminate_quadratic(FOUR_PHASE, StepProfile.constant(1.0), 1),
         TfOptions(t_list=(1,), n=16, boundary="periodic", max_iters=2),
         CoefficientLattice(-2.0, 2.0, 9)),
    ],
    ids=[
        "laminate-N1",
        "laminate-N2",
        "isotropic-N2",
        "laminate-N2-dirichlet-t12",
        "diagonal-N2",
        "laminate-N1-unconverged",
    ],
)
def test_quadratic_table_matches_tf_hom(s1, f, opts, lattice):
    table = build_density_table(f, s1, 5, lattice, opts)
    if opts.max_iters == 2:  # the capped solve must leave entries for the flags to mark
        assert not table.converged.all()
    for i in (0, 2, 3):
        s = circle_point(table.thetas[i])
        for idx in np.ndindex(table.values.shape[1:]):
            coeffs = np.array([[table.coeff_axes[c][idx[c]] for c in range(len(idx))]])
            direct = tf_hom(f, s1, s, s1.tangent_from_coeffs(s, coeffs), opts)
            entry = (i,) + idx
            assert table.values[entry] == pytest.approx(direct.value, rel=1e-12, abs=1e-300)
            assert table.rel_changes[entry] == pytest.approx(direct.rel_change, rel=1e-9, abs=1e-15)
            assert table.converged[entry] == (direct.converged and direct.solver_converged)


def test_quadratic_table_solves_one_corrector_per_column(monkeypatch, s1, laminate2):
    batches = []

    def counted(f, batch):
        batches.append((batch.t, len(batch)))
        return solve_cell_batch(f, batch)

    monkeypatch.setattr(density, "solve_cell_batch", counted)
    opts = TfOptions(t_list=(1, 2), n=4, boundary="periodic")
    table = build_density_table(laminate2, s1, 3, CoefficientLattice(-1.0, 1.0, 3), opts)
    # One batched solve per cube size, each of s_count * N column loads.
    assert batches == [(1, 3 * 2), (2, 3 * 2)]
    assert table.values.shape == (3, 3, 3) and table.converged.all()


def test_quadratic_table_fails_whole_angle(s1):
    def ev(y, xi):
        xi = np.asarray(xi)
        # Raises only at theta = 3 pi / 2, where the unit column load is (1, 0).
        if np.any(xi[..., 0, 0] > 0.9):
            raise RuntimeError("synthetic failure")
        return np.sum(xi * xi, axis=(-2, -1))

    f = Integrand(
        eval=ev, grad_xi=lambda y, xi: 2.0 * np.asarray(xi), p=2, alpha=1.0, beta=1.0,
        dims=(1, 2), quadratic=True,
    )
    opts = TfOptions(t_list=(1,), n=4, boundary="periodic")
    table = build_density_table(f, s1, 4, CoefficientLattice(-1.0, 1.0, 3), opts)
    assert table.entry_errors == ["angle theta_index=3: synthetic failure"]
    assert np.isnan(table.values[3]).all() and not table.converged[3].any()
    np.testing.assert_allclose(table.values[:3], np.tile([1.0, 0.0, 1.0], (3, 1)), atol=1e-15)
    assert table.converged[:3].all()
    assert table.failed_entries == table.values[3].size

    broken = replace(f, eval=lambda y, xi: ev(y, np.abs(xi) + 1.0))
    table = build_density_table(broken, s1, 4, CoefficientLattice(-1.0, 1.0, 3), opts)
    assert len(table.entry_errors) == 4
    assert table.failed_entries == table.values.size and not table.converged.any()


def test_fully_failed_table_saves_and_round_trips(tmp_path, s1):
    def broken(y, xi):
        raise RuntimeError("synthetic failure")

    f = Integrand(
        eval=broken, grad_xi=lambda y, xi: 2.0 * np.asarray(xi), p=2, alpha=1.0, beta=1.0,
        dims=(1, 2), quadratic=True,
    )
    opts = TfOptions(t_list=(1,), n=4, boundary="periodic")
    table = build_density_table(f, s1, 3, CoefficientLattice(-1.0, 1.0, 3), opts)
    assert len(table.entry_errors) == 3 and np.isnan(table.rel_changes).all()
    # The suite turns RuntimeWarnings into errors, so an all-NaN reduction fails here.
    first = (tmp_path / "a.csv", tmp_path / "a.json")
    table.save(*first)
    assert np.isnan(json.loads(first[1].read_text())["max_rel_change"])
    again = (tmp_path / "b.csv", tmp_path / "b.json")
    DensityTable.load(*first).save(*again)
    assert first[0].read_bytes() == again[0].read_bytes()
    assert first[1].read_bytes() == again[1].read_bytes()


def test_build_density_table_records_failures(s1):
    def broken(y, xi):
        raise RuntimeError("synthetic failure")

    bad = Integrand(eval=broken, p=2, alpha=1.0, beta=1.0, dims=(1, 2), quadratic=False)
    table = build_density_table(bad, s1, 2, CoefficientLattice(-1, 1, 2), PERIODIC_1)
    assert np.all(~np.isfinite(table.values))
    assert len(table.entry_errors) == 4
    assert not table.converged.any()


def test_trace_monotone_dirichlet(s1, laminate2, north, xi_harmonic):
    res = tf_hom(
        laminate2, s1, north, xi_harmonic,
        TfOptions(t_list=(1, 2), n=8, boundary="dirichlet0"),
    )
    values = res.values
    assert values[1] <= values[0] + 1e-10


def test_flat_trace_on_two_sphere():
    # On a two-dimensional tangent space single-cell exactness is not a
    # theorem; probe that the trace of a convex anisotropic density stays
    # flat in the cube size instead of assuming it.
    sphere = Sphere(3)
    prof = StepProfile((0.5,), (1.0, 2.0))

    def ev(y, xi):
        y = np.asarray(y, dtype=float)
        xi = np.asarray(xi, dtype=float)
        return (
            prof(y[..., 0]) * np.sum(xi[..., 0, :] ** 2, axis=-1)
            + np.sum(xi[..., 1, :] ** 2, axis=-1)
            + np.sum(xi[..., 2, :] ** 2, axis=-1)
        )

    def gr(y, xi):
        y = np.asarray(y, dtype=float)
        xi = np.asarray(xi, dtype=float)
        out = 2.0 * xi.copy()
        out[..., 0, :] *= prof(y[..., 0])[..., None]
        return out

    f = Integrand(
        eval=ev, grad_xi=gr, p=2, alpha=1.0, beta=2.0, dims=(1, 3), quadratic=True
    )
    s = sphere.project([1.0, 1.0, 1.0])
    xi = sphere.tangent_from_coeffs(s, np.array([[0.7], [-0.4]]))
    res = tf_hom(f, sphere, s, xi, TfOptions(t_list=(1, 2), n=8, boundary="periodic"))
    assert res.converged
    assert res.rel_change <= 5e-3


def test_frame_invariance_isotropic(s1):
    iso = make_isotropic_quadratic(1, 2)
    vals = []
    for theta in np.linspace(0, 2 * np.pi, 8, endpoint=False):
        s = circle_point(theta)
        xi = s1.tangent_from_coeffs(s, np.array([[1.0]]))
        vals.append(tf_hom(iso, s1, s, xi, TfOptions(t_list=(1,), n=8)).value)
    assert np.max(np.abs(np.asarray(vals) - 1.0)) <= 1e-8


def test_table_interpolation(s1, laminate1):
    table = build_density_table(
        laminate1, s1, 16, CoefficientLattice(-2.0, 2.0, 9), PERIODIC_1
    )
    # Exact at lattice points.
    v = table.interpolate(table.thetas[3], np.array([table.coeff_axes[0][2]]))
    assert v == pytest.approx(table.values[3, 2])
    # Midpoint interpolation of a convex-in-z profile overestimates.
    zmid = 0.5 * (table.coeff_axes[0][4] + table.coeff_axes[0][5])
    vmid = table.interpolate(table.thetas[0], np.array([zmid]))
    s = circle_point(table.thetas[0])
    oracle = laminate_oracle(
        StepProfile((0.5,), (1.0, 2.0)), StepProfile.constant(1.0),
        s, s1.tangent_from_coeffs(s, np.array([[zmid]])),
    )
    assert vmid >= oracle - 1e-12
    # Angle periodicity: theta and theta + 2 pi agree.
    v1 = table.interpolate(0.3, np.array([0.7]))
    v2 = table.interpolate(0.3 + 2 * np.pi, np.array([0.7]))
    assert v1 == pytest.approx(v2)
    # Coefficients beyond the table clamp to its edge.
    assert table.interpolate(0.0, np.array([5.0])) == table.interpolate(0.0, np.array([2.0]))


def test_table_interpolation_skips_zero_weight_corners(s1, laminate1):
    table = build_density_table(laminate1, s1, 8, CoefficientLattice(-1.0, 1.0, 3), PERIODIC_1)
    table.values[5, 0] = np.nan
    v = table.interpolate(table.thetas[4], np.array([-1.0]))
    assert v == table.values[4, 0]
    # A lookup that weighs the NaN entry still returns NaN.
    assert np.isnan(table.interpolate(0.5 * (table.thetas[4] + table.thetas[5]), np.array([-1.0])))


def test_table_save_load_roundtrip(tmp_path, s1, laminate1):
    table = build_density_table(
        laminate1, s1, 4, CoefficientLattice(-1.0, 1.0, 3), PERIODIC_1
    )
    csv_path = tmp_path / "table.csv"
    json_path = tmp_path / "table.json"
    table.save(csv_path, json_path)
    loaded = DensityTable.load(csv_path, json_path)
    np.testing.assert_allclose(loaded.values, table.values)
    np.testing.assert_array_equal(loaded.converged, table.converged)
    assert loaded.p == table.p and loaded.alpha == table.alpha

    # Re-serialization is byte-identical, metadata and tensor included.
    csv2 = tmp_path / "table2.csv"
    json2 = tmp_path / "table2.json"
    loaded.save(csv2, json2)
    assert csv_path.read_bytes() == csv2.read_bytes()
    assert json_path.read_bytes() == json2.read_bytes()
    np.testing.assert_array_equal(loaded.tensor, table.tensor)


def test_table_tensor_reproduces_csv_values(tmp_path, s1, laminate2):
    table = build_density_table(laminate2, s1, 8, CoefficientLattice(-2.0, 2.0, 5), PERIODIC_1)
    table.save(tmp_path / "table.csv", tmp_path / "table.json")
    _, rows = read_csv(tmp_path / "table.csv")
    per_angle = rows.shape[0] // len(table.thetas)
    theta = np.repeat(table.thetas, per_angle)
    value, _, _ = table.quadratic_form(theta, rows[:, 2:4])
    assert np.all(np.abs(value - rows[:, 4]) <= 1e-12 * (1.0 + np.abs(rows[:, 4])))


@pytest.mark.parametrize("damage", ["truncated", "reordered", "no_tensor", "off_tensor"])
def test_table_load_rejects_malformed_rows(tmp_path, s1, laminate1, damage):
    table = build_density_table(
        laminate1, s1, 4, CoefficientLattice(-1.0, 1.0, 3), PERIODIC_1
    )
    csv_path = tmp_path / "table.csv"
    json_path = tmp_path / "table.json"
    table.save(csv_path, json_path)
    header, *rows = csv_path.read_text().splitlines()
    if damage == "truncated":
        rows = rows[:-3]
    elif damage == "reordered":
        rows[1], rows[5] = rows[5], rows[1]
    elif damage == "no_tensor":
        meta = json.loads(json_path.read_text())
        del meta["tensor"]
        json_path.write_text(json.dumps(meta))
    else:  # a value 1e-9 off the tensor's quadratic form
        cells = rows[2].split(",")
        cells[-2] = repr(float(cells[-2]) * (1.0 + 1e-9))
        rows[2] = ",".join(cells)
    csv_path.write_text("\n".join([header, *rows]) + "\n")
    with pytest.raises(MalformedArtifact):
        DensityTable.load(csv_path, json_path)


def test_table_resave_keeps_max_rel_change(tmp_path, s1, laminate2):
    opts = TfOptions(t_list=(1, 2), n=8, boundary="dirichlet0")
    table = build_density_table(laminate2, s1, 4, CoefficientLattice(-2.0, 2.0, 5), opts)
    first = (tmp_path / "table.csv", tmp_path / "table.json")
    again = (tmp_path / "table2.csv", tmp_path / "table2.json")
    table.save(*first)
    DensityTable.load(*first).save(*again)
    saved = json.loads(first[1].read_text())["max_rel_change"]
    assert saved > 1e-3  # the cube sizes disagree: a dropped value would show
    assert json.loads(again[1].read_text())["max_rel_change"] == saved
    assert first[0].read_bytes() == again[0].read_bytes()
    assert json.loads(first[1].read_text()) == json.loads(again[1].read_text())


def test_quadratic_table_empty_lattice_solves_nothing(monkeypatch, s1, laminate2):
    calls = []

    def counted(f, batch):
        calls.append(len(batch))
        return solve_cell_batch(f, batch)

    monkeypatch.setattr(density, "solve_cell_batch", counted)
    opts = TfOptions(t_list=(1, 2), n=4, boundary="periodic")
    table = build_density_table(laminate2, s1, 4, CoefficientLattice(-1.0, 1.0, 0), opts)
    assert calls == []
    assert table.values.shape == (4, 0, 0)


def test_sandwich_allows_rounding(s1, laminate1):
    # The 32-angle x 81-coefficient laminate table of the benchmark's `gamma`
    # workload: entry (theta = 0, z = -1.4375) is alpha z^2 = 2.06640625 up
    # to one ulp below.
    table = build_density_table(laminate1, s1, 32, CoefficientLattice(-2.5, 2.5, 81), PERIODIC_1)
    ok, lo, hi = table.check_sandwich()
    assert ok
    assert lo <= 1e-12 and hi <= 0.0


@pytest.mark.parametrize("damage", ["below", "nan", "inf"])
def test_sandwich_rejects_violations(s1, laminate1, damage):
    table = build_density_table(laminate1, s1, 8, CoefficientLattice(-2.0, 2.0, 5), PERIODIC_1)
    assert table.check_sandwich()[0]
    z = table.coeff_axes[0][1]
    table.values[3, 1] = {
        "below": table.alpha * z**2 - 1e-6,
        "nan": np.nan,
        "inf": np.inf,
    }[damage]
    ok, lo, _ = table.check_sandwich()
    assert not ok
    if damage == "below":
        assert lo == pytest.approx(1e-6, rel=1e-6)
