import numpy as np
import pytest

from tanhom.errors import (
    ConfigError,
    HypothesisViolated,
    InvalidProfile,
    UnsupportedGrowth,
)
from tanhom.integrand import (
    CoefficientSample,
    Integrand,
    StepProfile,
    finite_difference_grad,
    integrand_from_config,
    make_fbar,
    make_g_extension,
    make_isotropic_quadratic,
    make_laminate_quadratic,
    make_norm_linear,
    verify_extension_bounds,
    verify_hypotheses,
)
from tanhom.manifold import CircleProduct, Sphere


def test_step_profile_basic():
    p = StepProfile((0.5,), (1.0, 2.0))
    assert p(0.25) == 1.0
    assert p(0.75) == 2.0
    assert p(1.25) == 1.0  # 1-periodic
    assert p(-0.25) == 2.0
    assert p.integral() == pytest.approx(1.5)
    assert p.reciprocal_integral() == pytest.approx(0.75)
    np.testing.assert_allclose(p(np.array([0.1, 0.6])), [1.0, 2.0])


def test_step_profile_validation():
    with pytest.raises(InvalidProfile):
        StepProfile((0.5,), (1.0, -2.0))
    with pytest.raises(InvalidProfile):
        StepProfile((0.5, 0.4), (1.0, 2.0, 3.0))
    with pytest.raises(InvalidProfile):
        StepProfile((0.0,), (1.0, 2.0))
    with pytest.raises(InvalidProfile):
        StepProfile((0.5,), (1.0,))


def test_laminate_examples(profile_a, profile_b):
    iso = make_laminate_quadratic(StepProfile.constant(1.0), StepProfile.constant(1.0), 2)
    rng = np.random.default_rng(0)
    y = rng.uniform(0, 1, size=(5, 2))
    xi = rng.standard_normal((5, 2, 2))
    np.testing.assert_allclose(iso.eval(y, xi), np.sum(xi**2, axis=(1, 2)))

    f = make_laminate_quadratic(profile_a, profile_b, 2)
    xi_unit = np.zeros((2, 2))
    xi_unit[0, 0] = 1.0
    assert f.eval(np.array([0.75, 0.3]), xi_unit) == pytest.approx(2.0)
    assert f.eval(np.array([0.75, 0.3]), np.zeros((2, 2))) == 0.0
    assert f.alpha == 1.0 and f.beta == 2.0 and f.quadratic


def test_finite_difference_grad(laminate2):
    rng = np.random.default_rng(1)
    y = rng.uniform(0, 1, size=2)
    xi = rng.standard_normal((2, 2))
    fd = finite_difference_grad(laminate2, y, xi, h=1e-4)
    exact = laminate2.grad_xi(y, xi)
    assert np.max(np.abs(fd - exact)) <= 1e-6

    const = Integrand(eval=lambda y, xi: np.ones(np.shape(xi)[:-2]) * 3.0,
                      p=2, alpha=1e-9, beta=3.0, dims=(2, 2))
    np.testing.assert_allclose(finite_difference_grad(const, y, xi), 0.0, atol=1e-9)

    iso = make_isotropic_quadratic(2, 2)
    np.testing.assert_allclose(finite_difference_grad(iso, y, xi), 2 * xi, atol=1e-8)


def test_fbar_restriction_and_penalty(laminate2, s1):
    fbar = make_fbar(laminate2, s1)
    y = np.array([0.3, 0.8])
    s = np.array([0.0, 1.0])
    tangent = np.array([[1.0, -2.0], [0.0, 0.0]])
    assert fbar.eval(y, s, tangent) == pytest.approx(laminate2.eval(y, tangent))
    normal = np.array([[0.0, 0.0], [2.0, 1.0]])  # purely normal at (0, 1)
    assert fbar.eval(y, s, normal) == pytest.approx(
        laminate2.eval(y, np.zeros((2, 2))) + np.sum(normal**2)
    )
    assert fbar.eval(y, s, np.zeros((2, 2))) == pytest.approx(0.0)
    assert fbar.quadratic


def test_fbar_consistency_sample(laminate2, s1):
    fbar = make_fbar(laminate2, s1)
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        s = s1.random_point(rng)
        xi = s1.tangent_from_coeffs(s, rng.standard_normal((1, 2)) * 3.0)
        y = rng.uniform(0, 1, size=2)
        worst = max(worst, abs(fbar.eval(y, s, xi) - laminate2.eval(y, xi)))
    assert worst <= 1e-12


def test_fbar_growth_sample(laminate2, s1):
    fbar = make_fbar(laminate2, s1)
    rng = np.random.default_rng(3)
    for _ in range(500):
        s = s1.random_point(rng)
        xi = rng.standard_normal((2, 2)) * rng.uniform(0, 10)
        v = float(fbar.eval(rng.uniform(0, 1, size=2), s, xi))
        norm_p = np.sum(xi**2)
        assert fbar.alpha * norm_p <= v + 1e-12
        assert v <= fbar.beta * (1.0 + norm_p) + 1e-12


def test_fbar_gradient_matches_fd(laminate2, s1):
    fbar = make_fbar(laminate2, s1)
    rng = np.random.default_rng(4)
    s = s1.random_point(rng)
    y = rng.uniform(0, 1, size=2)
    xi = rng.standard_normal((2, 2))
    g = fbar.grad_xi(y, s, xi)
    h = 1e-6
    for a in range(2):
        for j in range(2):
            bump = np.zeros((2, 2))
            bump[a, j] = h
            fd = (fbar.eval(y, s, xi + bump) - fbar.eval(y, s, xi - bump)) / (2 * h)
            assert abs(fd - g[a, j]) <= 1e-6


def test_g_extension_requires_linear_growth(laminate2, s1):
    with pytest.raises(UnsupportedGrowth):
        make_g_extension(laminate2, s1)


def test_g_extension_values(s1):
    c = StepProfile((0.5,), (1.0, 2.0))
    f = make_norm_linear(c, 1, 2)
    g = make_g_extension(f, s1, 0.5)
    y = np.array([0.25])
    s = np.array([0.0, 1.0])
    xi = s1.tangent_basis(s).T.copy()  # tangent column
    assert g.eval(y, s, xi) == pytest.approx(f.eval(y, xi))
    far = np.array([5.0, 0.0])
    assert g.eval(y, far, xi) == pytest.approx(f.eval(y, np.zeros((2, 1))) + 1.0)
    assert g.eval(y, s, np.zeros((2, 1))) == pytest.approx(f.eval(y, np.zeros((2, 1))))
    assert g.s_lipschitz is not None and g.xi_lipschitz == pytest.approx(
        f.lipschitz_L + 1.0
    )


def test_g_extension_sampled_bounds(s1):
    c = StepProfile((0.25, 0.75), (2.0, 1.0, 3.0))
    f = make_norm_linear(c, 2, 2)
    g = make_g_extension(f, s1, 0.5)
    report = verify_extension_bounds(g, 10000, seed=9)
    assert report.periodicity_residual <= 1e-12  # restriction residual slot


def _extension_bounds_by_sample(ext, sample_count, seed):
    """(restriction, growth lo, growth hi, Lipschitz) margins of
    ``verify_extension_bounds``, one sample and one evaluation at a time."""
    M, (N, d) = ext.manifold, ext.dims
    rng = np.random.default_rng(seed)
    restriction = lo = hi = lip_s = lip_xi = 0.0
    for _ in range(sample_count):
        y = rng.uniform(0.0, 1.0, size=N)
        s = M.random_point(rng)
        xi_t = M.tangent_from_coeffs(s, rng.uniform(-3.0, 3.0, size=(M.intrinsic_dim, N)))
        restriction = max(restriction, abs(float(ext.eval(y, s, xi_t)) - float(ext.base.eval(y, xi_t))))
        xi = rng.standard_normal((d, N)) * rng.uniform(0.0, 5.0)
        v = float(ext.eval(y, s, xi))
        xi_p = float(np.sum(xi * xi) ** (ext.p / 2.0))
        lo, hi = max(lo, ext.alpha * xi_p - v), max(hi, v - ext.beta * (1.0 + xi_p))
        if ext.s_lipschitz is not None:
            s2 = s + rng.standard_normal(d) * rng.uniform(0.0, 0.5)
            dv = abs(float(ext.eval(y, s2, xi)) - v)
            lip_s = max(lip_s, dv - ext.s_lipschitz * np.linalg.norm(s2 - s) * np.sqrt(np.sum(xi * xi)))
        if ext.xi_lipschitz is not None:
            xi2 = xi + rng.standard_normal((d, N)) * rng.uniform(0.0, 2.0)
            dv = abs(float(ext.eval(y, s, xi2)) - v)
            lip_xi = max(lip_xi, dv - ext.xi_lipschitz * np.linalg.norm(xi2 - xi))
    return restriction, lo, hi, max(lip_s, lip_xi)


@pytest.mark.parametrize("M", [Sphere(2), Sphere(3), CircleProduct(2)], ids=str)
@pytest.mark.parametrize("kind", ["g", "fbar"])
def test_extension_bounds_match_sample_by_sample(M, kind):
    c = StepProfile((0.25, 0.75), (2.0, 1.0, 3.0))
    if kind == "g":
        ext = make_g_extension(make_norm_linear(c, 2, M.ambient_dim), M, 0.5)
    else:
        ext = make_fbar(make_isotropic_quadratic(2, M.ambient_dim), M)
    report = verify_extension_bounds(ext, 300, seed=5)
    batched = (
        report.periodicity_residual,
        report.coercivity_margin,
        report.growth_margin,
        report.lipschitz_margin,
    )
    assert np.array(batched).tobytes() == np.array(_extension_bounds_by_sample(ext, 300, 5)).tobytes()


def test_extension_forms_take_stacked_base_points(s1):
    rng = np.random.default_rng(8)
    f = make_norm_linear(StepProfile((0.5,), (1.0, 2.0)), 1)
    s = rng.standard_normal((40, 2)) * rng.uniform(0.0, 1.5, (40, 1))  # some outside the cutoff
    y = rng.uniform(0.0, 1.0, (40, 1))
    xi = rng.standard_normal((40, 2, 1))
    fbar = make_fbar(make_isotropic_quadratic(1, 2), s1)
    for ext, points in ((make_g_extension(f, s1, 0.5), s), (fbar, s1.project(s))):
        alone = [ext.eval(y[k], points[k], xi[k]) for k in range(40)]
        assert ext.eval(y, points, xi).tobytes() == np.array(alone).tobytes()


def test_verify_hypotheses_pass(laminate2):
    report = verify_hypotheses(laminate2, 1000, seed=1)
    assert report.periodicity_residual <= 1e-12
    assert report.coercivity_margin <= 1e-12
    assert report.growth_margin <= 1e-12


def test_declared_constants_large_sample(laminate2):
    # 1e4 draws with |xi| up to 10 against the declared growth constants.
    report = verify_hypotheses(laminate2, 10000, seed=21)
    assert report.coercivity_margin <= 1e-12
    assert report.growth_margin <= 1e-12


def test_verify_hypotheses_norm_linear():
    f = make_norm_linear(StepProfile((0.5,), (1.0, 2.0)), 1, 2)
    report = verify_hypotheses(f, 2000, seed=2)
    assert report.lipschitz_margin is not None
    assert report.lipschitz_margin <= 1e-9


def test_verify_hypotheses_overstated_alpha():
    bogus = Integrand(
        eval=lambda y, xi: np.sum(np.asarray(xi) ** 2, axis=(-2, -1)),
        p=2,
        alpha=2.0,
        beta=2.0,
        dims=(1, 2),
    )
    with pytest.raises(HypothesisViolated) as err:
        verify_hypotheses(bogus, 500, seed=3)
    assert err.value.sample is not None


def test_verify_hypotheses_rejects_nan(nan_density):
    # Every `>` test against NaN is False; a NaN density must still fail.
    with pytest.raises(HypothesisViolated, match="non-finite"):
        verify_hypotheses(nan_density, 50, seed=4)


def test_verify_extension_bounds_rejects_nan(s1, nan_density):
    with pytest.raises(HypothesisViolated, match="non-finite"):
        verify_extension_bounds(make_fbar(nan_density, s1), 20, seed=4)


def test_integrand_validation():
    with pytest.raises(ValueError):
        Integrand(eval=lambda y, xi: 0.0, p=1, alpha=1.0, beta=1.0, dims=(1, 2))
    with pytest.raises(UnsupportedGrowth):
        Integrand(eval=lambda y, xi: 0.0, p=0.5, alpha=1.0, beta=1.0, dims=(1, 2))
    with pytest.raises(ValueError):
        Integrand(eval=lambda y, xi: 0.0, p=2, alpha=2.0, beta=1.0, dims=(1, 2))


def test_integrand_from_config():
    f = integrand_from_config(
        {
            "kind": "laminate",
            "a": {"breaks": [0.5], "values": [1, 2]},
            "b": {"values": [1]},
            "N": 2,
        }
    )
    assert f.dims == (2, 2) and f.p == 2
    f = integrand_from_config({"kind": "isotropic_quadratic", "N": 1, "d": 3})
    assert f.dims == (1, 3)
    f = integrand_from_config({"kind": "norm_linear", "c": {"values": [2]}, "N": 1})
    assert f.p == 1 and f.lipschitz_L == 2.0
    with pytest.raises(ConfigError):
        integrand_from_config({"kind": "laminate", "a": {"values": [1]}, "b": {"values": [1]}, "N": 1, "junk": 0})
    with pytest.raises(ConfigError):
        integrand_from_config({"kind": "mystery"})


def test_smoothed_forms_bias():
    c = StepProfile.constant(1.0)
    f = make_norm_linear(c, 1, 2)
    ev, gr = f.solver_forms(1e-3)
    xi = np.array([[3.0], [4.0]])
    y = np.zeros(1)
    assert f.eval(y, xi) == pytest.approx(5.0)
    assert 0.0 <= f.eval(y, xi) - ev(y, xi) <= 5e-4  # huber bias at most mu/2
    np.testing.assert_allclose(gr(y, xi), f.grad_xi(y, xi), atol=1e-12)


def _forms(kind):
    """(integrand, its forms, leading arguments after y) of one shipped kind."""
    s1 = Sphere(2)
    c = StepProfile((0.3, 0.7), (1.0, 2.5, 1.5))
    laminate = make_laminate_quadratic(StepProfile((0.25, 0.5), (1.0, 3.0, 2.0)), c, 2)
    linear = make_norm_linear(c, 2)
    s = np.array([0.6, 0.8])
    f = {
        "laminate": laminate,
        "isotropic": make_isotropic_quadratic(2, 2),
        "norm_linear": linear,
        "fbar-laminate": make_fbar(laminate, s1),
        "fbar-norm_linear": make_fbar(linear, s1),
        "g_extension-on": make_g_extension(linear, s1, 0.5),
        "g_extension-cutoff": make_g_extension(linear, s1, 0.5),
    }[kind]
    lead = () if isinstance(f, Integrand) else ((1.2 * s,) if kind.endswith("cutoff") else (s,))
    forms = [f.eval, f.grad_xi]
    if f.smoothed is not None:
        forms += [*f.smoothed(1e-2), *f.smoothed(1.0)]
    return f, forms, lead


@pytest.mark.parametrize(
    "kind",
    [
        "laminate", "isotropic", "norm_linear", "fbar-laminate", "fbar-norm_linear",
        "g_extension-on", "g_extension-cutoff",
    ],
)
def test_sampled_forms_equal_raw_forms(kind):
    f, forms, lead = _forms(kind)
    rng = np.random.default_rng(11)
    # Element centers of a grid and a batch of two fields over them, as the cell solver passes.
    y = rng.uniform(-1.0, 2.0, size=(6, 5, 2))
    xi = rng.standard_normal((2, 6, 5, 2, 2))
    xi[0, 0, 0] = 0.0  # the kink of the linear-growth norms
    sample = f.sample(y)
    assert isinstance(sample, CoefficientSample) == (kind != "isotropic")
    assert np.array_equal(np.asarray(sample), y)
    for form in forms:
        assert np.array_equal(form(sample, *lead, xi), form(y, *lead, xi))


def test_sample_of_another_integrand_reads_its_points():
    c = StepProfile((0.5,), (1.0, 2.0))
    laminate = make_laminate_quadratic(c, StepProfile.constant(3.0), 1)
    linear = make_norm_linear(StepProfile((0.25,), (4.0, 1.0)), 1)
    y = np.random.default_rng(2).uniform(0.0, 1.0, size=(7, 1))
    xi = np.random.default_rng(3).standard_normal((7, 2, 1))
    assert np.array_equal(laminate.eval(linear.sample(y), xi), laminate.eval(y, xi))
    bare = Integrand(eval=lambda y, xi: np.asarray(y)[..., 0], p=2, alpha=1.0, beta=1.0, dims=(1, 2))
    assert bare.sample(y) is y
    assert np.array_equal(bare.eval(laminate.sample(y), xi), y[..., 0])
