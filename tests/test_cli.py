import copy
import ctypes
import dataclasses
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tanhom import cli, gamma
from tanhom.cell import read_corrector_csv
from tanhom.config import TF_KEYS, RunConfig, VerifySection, parse_run_config
from tanhom.density import CoefficientLattice, TfOptions, build_density_table
from tanhom.errors import ConfigError
from tanhom.gamma import read_field_csv
from tanhom.integrand import Integrand, make_laminate_quadratic, make_isotropic_quadratic
from tanhom.manifold import Sphere

LAMINATE = {
    "kind": "laminate",
    "a": {"breaks": [0.5], "values": [1, 2]},
    "b": {"values": [1]},
    "N": 2,
}
SPHERE = {"kind": "sphere", "d": 2}


def run_cli(tmp_path, config, name="run.json", extra=()):
    cfg_path = tmp_path / name
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    return cli.main(["--config", str(cfg_path), "--out", str(out), *extra]), out


def test_cell_command_laminate(tmp_path):
    config = {
        "command": "cell",
        "manifold": SPHERE,
        "integrand": LAMINATE,
        "cell": {
            "s": {"theta": np.pi / 2},
            "xi_coeffs": [[-1.0, 0.0]],
            "n": 64,
            "boundary": "periodic",
        },
    }
    code, out = run_cli(tmp_path, config)
    assert code == 0
    result = json.loads((out / "cell_result.json").read_text())
    assert result["converged"]
    assert abs(result["value"] - 4.0 / 3.0) <= 0.02 * (4.0 / 3.0)
    values = read_corrector_csv(out / "corrector.csv")
    assert values.shape[0] == 1  # one tangent coordinate on the circle


def test_cell_command_constant_density(tmp_path):
    config = {
        "command": "cell",
        "manifold": SPHERE,
        "integrand": {"kind": "isotropic_quadratic", "N": 2, "d": 2},
        "cell": {"s": {"theta": 0.0}, "xi_coeffs": [[1.0, 0.0]], "n": 8},
    }
    code, out = run_cli(tmp_path, config)
    assert code == 0
    result = json.loads((out / "cell_result.json").read_text())
    assert result["value"] == pytest.approx(1.0, abs=1e-12)


def test_malformed_json(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text('{"command": "cell", ')
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    assert "malformed JSON" in capsys.readouterr().err


def test_unknown_key_named(tmp_path, capsys):
    config = {
        "command": "cell",
        "manifold": SPHERE,
        "integrand": LAMINATE,
        "cell": {"s": {"theta": 0.0}, "xi_coeffs": [[1.0, 0.0]], "bogus_knob": 3},
    }
    code, _ = run_cli(tmp_path, config)
    assert code == 1
    assert "bogus_knob" in capsys.readouterr().err


def test_density_command(tmp_path):
    config = {
        "command": "density",
        "manifold": SPHERE,
        "integrand": {**LAMINATE, "N": 1},
        "density": {"s_count": 1, "lattice": {"min": 1.0, "max": 1.0, "count": 1}, "n": 8},
    }
    code, out = run_cli(tmp_path, config)
    assert code == 0
    rows = (out / "density_table.csv").read_text().strip().split("\n")
    assert len(rows) == 2  # header plus the single entry
    meta = json.loads((out / "density_table.json").read_text())
    assert meta["s_count"] == 1


def test_density_unwritable_output(tmp_path):
    config = {
        "command": "density",
        "manifold": SPHERE,
        "integrand": {**LAMINATE, "N": 1},
        "density": {"s_count": 1, "lattice": {"min": 0, "max": 1, "count": 2}},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    code = cli.main(["--config", str(cfg_path), "--out", str(blocker)])
    assert code == 1


def test_verify_command_pass(tmp_path):
    config = {
        "command": "verify",
        "seed": 11,
        "manifold": SPHERE,
        "integrand": {**LAMINATE, "N": 1},
        "verify": {
            "suites": ["hypotheses", "equivalence", "quasiconvexity", "growth_lipschitz"],
            "sample_count": 200,
            "pair_count": 8,
            "trial_count": 4,
            "sample_points": 2,
            "n": 8,
        },
    }
    code, out = run_cli(tmp_path, config)
    assert code == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert all(entry["passed"] for entry in report.values())


@pytest.mark.parametrize("N", [1, 2])
def test_verify_growth_isotropic_passes(tmp_path, N):
    # |xi|^2 sits on its lower growth bound, so its cell values land a last
    # digit outside it; the check allows for rounding, as the table check does.
    config = {
        "command": "verify",
        "manifold": SPHERE,
        "integrand": {"kind": "isotropic_quadratic", "N": N, "d": 2},
        "verify": {"suites": ["growth_lipschitz"], "n": 8},
    }
    code, out = run_cli(tmp_path, config)
    assert code == 0
    assert json.loads((out / "verify_report.json").read_text())["growth_lipschitz"]["passed"]


def test_verify_linear_growth_equivalence(tmp_path):
    # Seed 613753789 draws a pair at |z| = 0.067 whose constrained solve used to
    # stall unpreconditioned (gap 1.7e-2 against the 1e-3 tolerance, exit 4).
    config = {
        "command": "verify",
        "seed": 613753789,
        "manifold": SPHERE,
        "integrand": {"kind": "norm_linear", "c": {"breaks": [0.5], "values": [1, 2]}, "N": 1},
        "verify": {"suites": ["equivalence"], "sample_points": 8, "n": 64, "tol_grad": 1e-6},
    }
    code, out = run_cli(tmp_path, config)
    assert code == 0
    assert json.loads((out / "verify_report.json").read_text())["equivalence"]["passed"]


def test_verify_empty_suites(tmp_path, capsys):
    config = {
        "command": "verify",
        "manifold": SPHERE,
        "integrand": {**LAMINATE, "N": 1},
        "verify": {"suites": []},
    }
    code, _ = run_cli(tmp_path, config)
    assert code == 1


def test_verify_misdeclared_alpha_exits_4(tmp_path):
    overstated = Integrand(
        eval=lambda y, xi: np.sum(np.asarray(xi) ** 2, axis=(-2, -1)),
        grad_xi=lambda y, xi: 2.0 * np.asarray(xi),
        p=2,
        alpha=2.0,
        beta=2.0,
        dims=(1, 2),
        quadratic=True,
    )
    cfg = RunConfig(
        command="verify",
        manifold=Sphere(2),
        integrand=overstated,
        seed=0,
        section=VerifySection(
            suites=("hypotheses", "growth_lipschitz"),
            sample_count=100,
            pair_count=4,
            trial_count=2,
            sample_points=1,
            options=TfOptions(t_list=(1,), n=4, boundary="periodic"),
        ),
    )
    assert cli.cmd_verify(cfg, tmp_path, verbose=False) == 4


def test_gamma_command_and_determinism(tmp_path):
    config = {
        "command": "gamma",
        "seed": 2,
        "manifold": SPHERE,
        "integrand": {**LAMINATE, "N": 1},
        "gamma": {
            "dim": 1,
            "mesh_nodes": 65,
            "epsilons": [0.25, 0.125],
            "table": {"s_count": 16, "lattice": {"min": -2.5, "max": 2.5, "count": 21}, "n": 8},
            "optimizer": {"max_iters": 20000},
        },
    }
    code, out = run_cli(tmp_path, config)
    assert code == 0
    report = json.loads((out / "gamma_report.json").read_text())
    assert len(report["gaps"]) == 2
    assert report["warnings"] == []
    gaps1 = (out / "gamma_gaps.csv").read_bytes()
    report1 = (out / "gamma_report.json").read_bytes()

    code2, out2 = run_cli(tmp_path, config, name="again.json")
    assert code2 == 0
    assert (out2 / "gamma_gaps.csv").read_bytes() == gaps1
    # The report carries the iteration counts, so it pins the descent path too.
    assert (out2 / "gamma_report.json").read_bytes() == report1


def test_gamma_single_epsilon_trivial(tmp_path):
    # A y-independent density has nothing to homogenize: the gap collapses to
    # interpolation and optimizer noise.
    config = {
        "command": "gamma",
        "manifold": SPHERE,
        "integrand": {"kind": "isotropic_quadratic", "N": 1, "d": 2},
        "gamma": {
            "dim": 1,
            "mesh_nodes": 65,
            "epsilons": [1.0],
            "table": {"s_count": 8, "lattice": {"min": -2.5, "max": 2.5, "count": 81}, "n": 4},
            "run_dp": False,
        },
    }
    code, out = run_cli(tmp_path, config)
    assert code == 0
    report = json.loads((out / "gamma_report.json").read_text())
    assert report["gaps"][0] <= 2e-3


@pytest.mark.parametrize("factor", [np.nan, 0.5], ids=["nan", "half"])
def test_gamma_missed_certificate_warns_and_exits_2(tmp_path, monkeypatch, factor):
    # A certificate off the homogenized minimum, or NaN, must be flagged.
    certificate = gamma.dp_minimize_hom
    monkeypatch.setattr(gamma, "dp_minimize_hom", lambda *args: factor * certificate(*args))
    config = {
        "command": "gamma",
        "manifold": SPHERE,
        "integrand": {**LAMINATE, "N": 1},
        "gamma": {
            "dim": 1,
            "mesh_nodes": 33,
            "epsilons": [0.25],
            "table": {"s_count": 8, "n": 8},
        },
    }
    code, out = run_cli(tmp_path, config)
    assert code == 2
    warnings = json.loads((out / "gamma_report.json").read_text())["warnings"]
    assert len(warnings) == 1 and "geodesic certificate" in warnings[0]


def test_gamma_non_quadratic_exits_1_before_solving(tmp_path, monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(cli, "build_density_table", no_solve)
    monkeypatch.setattr(gamma, "minimize_f_eps_sweep", no_solve)
    config = {
        "command": "gamma",
        "manifold": SPHERE,
        "integrand": {"kind": "norm_linear", "c": {"values": [1]}, "N": 1, "d": 2},
        "gamma": {
            "dim": 1,
            "mesh_nodes": 33,
            "epsilons": [0.25],
            "table": {"s_count": 8, "lattice": {"min": -2.5, "max": 2.5, "count": 21}, "n": 4},
        },
    }
    code, out = run_cli(tmp_path, config)
    assert code == 1
    assert "not quadratic" in capsys.readouterr().err
    assert not (out / "gamma_report.json").exists()


def test_gamma_table_roundtrip_via_path(tmp_path):
    density_cfg = {
        "command": "density",
        "manifold": SPHERE,
        "integrand": {**LAMINATE, "N": 1},
        "density": {"s_count": 16, "lattice": {"min": -2.5, "max": 2.5, "count": 21}, "n": 8},
    }
    code, out = run_cli(tmp_path, density_cfg, name="density.json")
    assert code == 0
    (tmp_path / "table.csv").write_bytes((out / "density_table.csv").read_bytes())
    (tmp_path / "table.json").write_bytes((out / "density_table.json").read_bytes())

    gamma_cfg = {
        "command": "gamma",
        "manifold": SPHERE,
        "integrand": {**LAMINATE, "N": 1},
        "gamma": {
            "dim": 1,
            "mesh_nodes": 65,
            "epsilons": [0.25],
            "table": {"path": "table"},
            "run_dp": False,
        },
    }
    code, out = run_cli(tmp_path, gamma_cfg, name="gamma.json")
    assert code == 0


def test_gamma_dump_fields_minimizes_once(tmp_path, monkeypatch):
    calls = {"f_eps_sweep": 0, "f_hom": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        gamma, "minimize_f_eps_sweep", counted("f_eps_sweep", gamma.minimize_f_eps_sweep)
    )
    monkeypatch.setattr(gamma, "minimize_f_hom", counted("f_hom", gamma.minimize_f_hom))
    config = {
        "command": "gamma",
        "manifold": SPHERE,
        "integrand": {"kind": "isotropic_quadratic", "N": 1, "d": 2},
        "gamma": {
            "dim": 1,
            "mesh_nodes": 33,
            "epsilons": [0.5, 0.25],
            "table": {"s_count": 8, "lattice": {"min": -2.5, "max": 2.5, "count": 21}, "n": 4},
            "run_dp": False,
            "dump_fields": True,
        },
    }
    code, out = run_cli(tmp_path, config)
    assert code == 0
    # Both period sizes are the rows of one sweep.
    assert calls == {"f_eps_sweep": 1, "f_hom": 1}
    for name in ("field_eps_2.csv", "field_eps_4.csv", "field_hom.csv"):
        assert read_field_csv(out / name).shape == (2, 33)


def test_gamma_partial_table_exits_3(tmp_path):
    f = make_isotropic_quadratic(1, 2)
    opts = TfOptions(t_list=(1,), n=4, boundary="periodic")
    table = build_density_table(f, Sphere(2), 8, CoefficientLattice(-2.5, 2.5, 21), opts)
    table.values[5, 0] = np.nan  # an angle the descent never visits
    table.save(tmp_path / "table.csv", tmp_path / "table.json")
    config = {
        "command": "gamma",
        "manifold": SPHERE,
        "integrand": {"kind": "isotropic_quadratic", "N": 1, "d": 2},
        "gamma": {
            "dim": 1,
            "mesh_nodes": 33,
            "epsilons": [0.25],
            "table": {"path": "table"},
            "run_dp": False,
        },
    }
    code, out = run_cli(tmp_path, config)
    assert code == 3
    report = json.loads((out / "gamma_report.json").read_text())
    assert any("1 failed entries" in w for w in report["warnings"])


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda meta: meta.pop("p"), "no 'p' key"),
        (lambda meta: meta.update(s_count="8"), "'s_count': expected an integer"),
        (None, "malformed JSON"),
    ],
    ids=["no-p", "string-s_count", "not-json"],
)
def test_gamma_malformed_table_metadata_exits_1(tmp_path, capsys, damage, message):
    # These used to end in a KeyError or JSONDecodeError traceback, or (s_count "8") run.
    f = make_isotropic_quadratic(1, 2)
    opts = TfOptions(t_list=(1,), n=4, boundary="periodic")
    table = build_density_table(f, Sphere(2), 8, CoefficientLattice(-2.5, 2.5, 21), opts)
    table.save(tmp_path / "table.csv", tmp_path / "table.json")
    meta_path = tmp_path / "table.json"
    if damage is None:
        meta_path.write_text(meta_path.read_text()[:-5])
    else:
        meta = json.loads(meta_path.read_text())
        damage(meta)
        meta_path.write_text(json.dumps(meta))
    config = {
        "command": "gamma",
        "manifold": SPHERE,
        "integrand": {"kind": "isotropic_quadratic", "N": 1, "d": 2},
        "gamma": {"dim": 1, "mesh_nodes": 33, "epsilons": [0.25], "table": {"path": "table"}},
    }
    code, out = run_cli(tmp_path, config)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "table.json" in err and message in err
    assert not (out / "gamma_report.json").exists()


def test_parse_run_config_rejects_mismatched_section():
    with pytest.raises(ConfigError):
        parse_run_config(
            {
                "command": "cell",
                "manifold": SPHERE,
                "integrand": LAMINATE,
                "density": {"s_count": 1, "lattice": {"min": 0, "max": 1, "count": 2}},
            }
        )
    with pytest.raises(ConfigError):
        parse_run_config({"command": "teleport", "manifold": SPHERE, "integrand": LAMINATE})


def test_workers_key_rejected():
    config = {
        "command": "cell",
        "manifold": SPHERE,
        "integrand": LAMINATE,
        "workers": 2,
        "cell": {"s": {"theta": 0.0}, "xi_coeffs": [[1.0, 0.0]]},
    }
    with pytest.raises(ConfigError, match="workers"):
        parse_run_config(config)


# Section of each command with only its required keys.
MINIMAL_SECTIONS = {
    "cell": {"s": {"theta": 0.0}, "xi_coeffs": [[1.0]]},
    "density": {"s_count": 1, "lattice": {"min": 0, "max": 1, "count": 2}},
    "verify": {"suites": ["hypotheses"]},
    "gamma": {"epsilons": [0.25]},
}
REMOVED_KEYS = [
    ("cell", "solver"),
    ("density", "solver"),
    ("verify", "solver"),
    ("gamma", "table.solver"),
    ("gamma", "optimizer.step_rule"),
    ("gamma", "optimizer.init_step"),
    ("gamma", "optimizer.stall_iters"),
    ("gamma", "optimizer.armijo_c"),
    ("gamma", "optimizer.max_backtracks"),
    ("gamma", "dp_margin"),
    ("gamma", "dp_elements"),
    ("gamma", "dp_theta_count"),
    ("gamma", "dp_band"),
    ("gamma", "huber_mu"),
    ("verify", "coeff_radius"),
    ("verify", "delta0"),
    ("verify", "equivalence_tol"),
]


@pytest.mark.parametrize("command, key", REMOVED_KEYS)
def test_removed_key_rejected(command, key):
    section = copy.deepcopy(MINIMAL_SECTIONS[command])
    *parents, name = key.split(".")
    target = section
    for parent in parents:
        target = target.setdefault(parent, {})
    target[name] = 1
    config = {
        "command": command,
        "manifold": SPHERE,
        "integrand": {**LAMINATE, "N": 1},
        command: section,
    }
    with pytest.raises(ConfigError, match=f"{command}.{key}"):
        parse_run_config(config)


def test_tf_keys_are_the_tf_options_fields():
    assert set(TF_KEYS) == {f.name for f in dataclasses.fields(TfOptions)}


SPHERE_3 = {"kind": "sphere", "d": 3}
ISOTROPIC_3 = {"kind": "isotropic_quadratic", "N": 1, "d": 3}
# An integrand of each test manifold's ambient dimension, by the sphere's d.
ON_MANIFOLD = {2: {**LAMINATE, "N": 1}, 3: ISOTROPIC_3}
# Each case: command, manifold, section, and the key path its error starts with;
# its id names the command and the position.
INVALID_VALUES = [
    ("gamma", SPHERE, {"epsilons": [0.3]}, "gamma"),
    ("density", SPHERE, {"s_count": 4, "lattice": {"min": 1.0, "max": -1.0, "count": 3}}, "density.lattice"),
    ("cell", SPHERE, {"s": {"theta": 0.0}, "xi_coeffs": [[1.0]], "n": 1}, "cell"),
    ("density", SPHERE, {"s_count": 0, "lattice": {"min": -1.0, "max": 1.0, "count": 3}}, "density"),
    ("gamma", SPHERE, {"epsilons": [0.5], "table": {"s_count": 0}}, "gamma.table"),
    ("cell", SPHERE, {"s": {"theta": "north"}, "xi_coeffs": [[1.0]]}, "cell.s.theta"),
    ("density", SPHERE, {"s_count": 4, "lattice": {"min": -1.0, "max": 1.0, "count": 2.5}},
     "density.lattice.count"),
    ("cell", SPHERE, {"s": {"theta": 0.0}, "xi_coeffs": [[1.0]], "n": float("inf")}, "cell.n"),
    # Density tables live on the circle only.
    ("density", SPHERE_3, {"s_count": 4, "lattice": {"min": -1.0, "max": 1.0, "count": 3}}, "density"),
    # A string is not iterated: "1" used to run as the epsilons (1.0,).
    ("gamma", SPHERE, {"epsilons": "1"}, "gamma.epsilons"),
    # JSON strings, booleans and numbers are refused where bool(), float() or
    # str() would take them: "false" used to run the certificate, "no" to dump
    # the fields, "1.0" and true to run at 1 rad, and "hypotheses" to be split
    # into characters.
    ("gamma", SPHERE, {"epsilons": [0.25], "run_dp": "false"}, "gamma.run_dp"),
    ("gamma", SPHERE, {"epsilons": [0.25], "dump_fields": "no"}, "gamma.dump_fields"),
    ("gamma", SPHERE, {"epsilons": [0.25], "theta1": "1.0"}, "gamma.theta1"),
    ("gamma", SPHERE, {"epsilons": [0.25], "theta0": True}, "gamma.theta0"),
    ("gamma", SPHERE, {"epsilons": ["0.25"]}, "gamma.epsilons"),
    ("gamma", SPHERE, {"epsilons": [0.25], "optimizer": {"tol": "1e-6"}}, "gamma.optimizer.tol"),
    ("gamma", SPHERE, {"epsilons": [0.25], "table": {"path": 7}}, "gamma.table.path"),
    ("gamma", SPHERE, {"epsilons": [0.25], "table": {"huber_mu": True}}, "gamma.table.huber_mu"),
    ("cell", SPHERE, {"s": {"theta": True}, "xi_coeffs": [[1.0]]}, "cell.s.theta"),
    ("cell", SPHERE, {"s": {"theta": 0.0}, "xi_coeffs": [[1.0]], "tol_grad": "1e-3"}, "cell.tol_grad"),
    ("cell", SPHERE, {"s": {"theta": 0.0}, "xi_coeffs": [[1.0]], "boundary": 1}, "cell.boundary"),
    ("density", SPHERE, {"s_count": 4, "lattice": {"min": "-1", "max": 1.0, "count": 3}},
     "density.lattice.min"),
    ("density", SPHERE, {**MINIMAL_SECTIONS["density"], "rel_tol": "0.1"}, "density.rel_tol"),
    ("verify", SPHERE, {"suites": "hypotheses"}, "verify.suites"),
    ("verify", SPHERE, {"suites": ["hypotheses", 3]}, "verify.suites"),
]


@pytest.mark.parametrize(
    "command, manifold, section, key",
    INVALID_VALUES,
    ids=[f"{command}-section{k}" for k, (command, *_) in enumerate(INVALID_VALUES)],
)
def test_invalid_values_exit_1_before_solving(
    tmp_path, capsys, monkeypatch, command, manifold, section, key
):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve started before the config was validated")

    monkeypatch.setattr(cli, "build_density_table", no_solve)
    monkeypatch.setattr(cli, "solve_cell", no_solve)
    config = {
        "command": command,
        "manifold": manifold,
        "integrand": ON_MANIFOLD[manifold["d"]],
        command: section,
    }
    code, _ = run_cli(tmp_path, config)
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {key}: ")


# Each case: command, manifold, integrand, and the key its error names.
INVALID_MODEL_VALUES = [
    ("density", SPHERE, {**LAMINATE, "N": "2"}, "integrand.N"),
    ("density", SPHERE, {**LAMINATE, "N": 2.5}, "integrand.N"),
    ("cell", SPHERE, {**LAMINATE, "N": True}, "integrand.N"),
    ("density", SPHERE, {**LAMINATE, "N": 0}, "integrand"),
    ("cell", SPHERE, {"kind": "norm_linear", "c": {"values": [1]}, "N": 0}, "integrand"),
    ("cell", {"kind": "sphere", "d": 2.5}, {**LAMINATE, "N": 1}, "manifold.d"),
    ("cell", SPHERE_3, {**ISOTROPIC_3, "d": "3"}, "integrand.d"),
    ("cell", {"kind": "circle_product", "k": 0}, {**LAMINATE, "N": 1}, "manifold.k"),
    ("cell", {"kind": "sphere", "d": 1}, {**LAMINATE, "N": 1}, "manifold.d"),
    ("density", SPHERE, {**LAMINATE, "a": {"breaks": [0.5], "values": [1, float("nan")]}}, "integrand.a"),
    ("density", SPHERE, {**LAMINATE, "b": {"values": 3}}, "integrand.b"),
    # A profile's breaks and values are JSON lists of numbers; a string used to
    # be iterated ("12" ran as the values (1.0, 2.0)).
    ("cell", SPHERE, {**LAMINATE, "a": {"breaks": [0.5], "values": "12"}}, "integrand.a"),
    ("density", SPHERE, {**LAMINATE, "a": {"breaks": "5", "values": [1, 2]}}, "integrand.a"),
    ("cell", SPHERE, {**LAMINATE, "a": {"breaks": [0.5], "values": ["1", "2"]}}, "integrand.a"),
    ("cell", SPHERE, {**LAMINATE, "b": {"values": {"0": 1}}}, "integrand.b"),
    ("cell", SPHERE, {**LAMINATE, "b": {"breaks": 0.5, "values": [1, 2]}}, "integrand.b"),
    ("density", SPHERE, {**LAMINATE, "b": {"values": [True]}}, "integrand.b"),
    ("cell", SPHERE, {"kind": "norm_linear", "c": {"values": "3"}}, "integrand.c"),
    ("cell", SPHERE, {"kind": "norm_linear", "c": {"values": 3}}, "integrand.c"),
    ("density", SPHERE, {"kind": "norm_linear", "c": {"breaks": {"at": 0.5}, "values": [1, 2]}},
     "integrand.c"),
]


@pytest.mark.parametrize(
    "command, manifold, integrand, key",
    INVALID_MODEL_VALUES,
    ids=[f"{key}-case{k}" for k, (*_, key) in enumerate(INVALID_MODEL_VALUES)],
)
def test_invalid_integrand_or_manifold_exits_1_naming_the_key(
    tmp_path, capsys, monkeypatch, command, manifold, integrand, key
):
    # These used to run as N = 2, 2 or 1 and d = 2, or end in a traceback.
    def no_solve(*args, **kwargs):
        raise AssertionError("solve started before the config was validated")

    monkeypatch.setattr(cli, "build_density_table", no_solve)
    monkeypatch.setattr(cli, "solve_cell", no_solve)
    config = {
        "command": command,
        "manifold": manifold,
        "integrand": integrand,
        command: MINIMAL_SECTIONS[command],
    }
    code, out = run_cli(tmp_path, config)
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {key}: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, section",
    [
        ("cell", {"s": {"theta": 0.0}, "xi_coeffs": [[1.0]], "max_iters": 0}),
        ("cell", {"s": {"theta": 0.0}, "xi_coeffs": [[1.0]], "max_iters": -3}),
        ("density", {"s_count": 4, "lattice": {"min": -1.0, "max": 1.0, "count": 3},
                     "max_iters": 0}),
    ],
)
def test_max_iters_below_one_exits_1(tmp_path, capsys, monkeypatch, command, section):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve started before the config was validated")

    monkeypatch.setattr(cli, "build_density_table", no_solve)
    monkeypatch.setattr(cli, "solve_cell", no_solve)
    config = {
        "command": command,
        "manifold": SPHERE,
        "integrand": {**LAMINATE, "N": 1},
        command: section,
    }
    code, _ = run_cli(tmp_path, config)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command}") and "max_iters" in err


CELL_LOAD = {"s": {"theta": 0.0}, "xi_coeffs": [[1.0]]}


@pytest.mark.parametrize(
    "command, section, key",
    [
        ("cell", {**CELL_LOAD, "huber_mu": -1.0}, "huber_mu"),
        ("cell", {**CELL_LOAD, "huber_mu": 0.0}, "huber_mu"),
        ("cell", {**CELL_LOAD, "huber_mu": float("inf")}, "huber_mu"),
        ("cell", {**CELL_LOAD, "tol_grad": float("inf")}, "tol_grad"),
        ("cell", {**CELL_LOAD, "tol_grad": float("nan")}, "tol_grad"),
        ("verify", {"suites": ["equivalence"], "tol_grad": float("nan")}, "tol_grad"),
        ("density", {**MINIMAL_SECTIONS["density"], "huber_mu": float("inf")}, "huber_mu"),
        ("gamma", {"epsilons": [0.25], "optimizer": {"tol": float("inf")}}, "tol"),
        ("gamma", {"epsilons": [0.25], "optimizer": {"tol": float("nan")}}, "tol"),
        ("gamma", {"epsilons": [0.25], "optimizer": {"tol": 0.0}}, "tol"),
        ("gamma", {"epsilons": [0.25], "optimizer": {"max_iters": 0}}, "max_iters"),
        ("gamma", {"epsilons": [1e12]}, "epsilon"),
        ("gamma", {"epsilons": [float("inf")]}, "epsilon"),
        ("density", {"s_count": 1, "lattice": {"min": float("nan"), "max": 1, "count": 2}}, "lattice"),
        ("density", {"s_count": 1, "lattice": {"min": 0, "max": float("inf"), "count": 2}}, "lattice"),
        ("density", {**MINIMAL_SECTIONS["density"], "rel_tol": float("nan")}, "rel_tol"),
        ("gamma", {"epsilons": [0.25], "theta0": float("nan")}, "theta0"),
        ("gamma", {"epsilons": [0.25], "theta1": float("inf")}, "theta1"),
        # With nothing sampled these suites used to pass, or end in a traceback.
        ("verify", {"suites": ["hypotheses"], "sample_count": 0}, "sample_count"),
        ("verify", {"suites": ["equivalence"], "sample_points": 0}, "sample_points"),
        ("verify", {"suites": ["quasiconvexity"], "trial_count": 0}, "trial_count"),
        ("verify", {"suites": ["growth_lipschitz"], "pair_count": 0}, "pair_count"),
    ],
)
def test_out_of_range_settings_exit_1_naming_the_key(tmp_path, capsys, monkeypatch, command, section, key):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve started before the config was validated")

    for name in ("build_density_table", "solve_cell", "verify_equivalence_fbar", "run_gamma_experiment"):
        monkeypatch.setattr(cli, name, no_solve)
    config = {
        "command": command,
        "manifold": SPHERE,
        "integrand": {**LAMINATE, "N": 1},
        command: section,
    }
    code, _ = run_cli(tmp_path, config)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command}") and key in err


@pytest.mark.parametrize(
    "command, manifold, integrand, section",
    [
        ("density", SPHERE, ISOTROPIC_3, MINIMAL_SECTIONS["density"]),
        ("verify", SPHERE_3, {**LAMINATE, "N": 1}, {"suites": ["hypotheses", "equivalence"]}),
    ],
)
def test_integrand_off_the_manifold_dimension_exits_1(
    tmp_path, capsys, monkeypatch, command, manifold, integrand, section
):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve started before the config was validated")

    for name in ("build_density_table", "verify_hypotheses", "verify_equivalence_fbar"):
        monkeypatch.setattr(cli, name, no_solve)
    config = {"command": command, "manifold": manifold, "integrand": integrand, command: section}
    code, out = run_cli(tmp_path, config)
    assert code == 1
    assert capsys.readouterr().err.startswith("error: integrand: d = ")
    assert not out.exists()


def test_point_off_the_manifold_names_its_key(tmp_path, capsys):
    # 5e-8 off the circle: beyond the on-manifold tolerance every cell solve checks.
    config = {
        "command": "cell",
        "manifold": SPHERE,
        "integrand": {**LAMINATE, "N": 1},
        "cell": {"s": {"point": [1.0 + 5e-8, 0.0]}, "xi_coeffs": [[1.0]]},
    }
    with pytest.raises(ConfigError, match=r"^cell\.s\.point: point violates the sphere constraint"):
        parse_run_config(config)
    code, _ = run_cli(tmp_path, config)
    assert code == 1
    assert capsys.readouterr().err.startswith("error: cell.s.point")


@pytest.mark.parametrize("seed", ["seven", 1.5, True])
def test_non_integer_seed_exits_1(tmp_path, capsys, seed):
    config = {
        "command": "verify",
        "seed": seed,
        "manifold": SPHERE,
        "integrand": {**LAMINATE, "N": 1},
        "verify": {"suites": ["hypotheses"], "sample_count": 5},
    }
    code, _ = run_cli(tmp_path, config)
    assert code == 1
    assert capsys.readouterr().err.startswith("error: seed")


def test_readme_gamma_example_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    cfg = parse_run_config(json.loads(example))
    assert cfg.command == "gamma"


def test_seed_flag_overrides_config(tmp_path):
    config = {
        "command": "verify",
        "seed": 5,
        "manifold": SPHERE,
        "integrand": {**LAMINATE, "N": 1},
        "verify": {"suites": ["hypotheses"], "sample_count": 50},
    }
    code, _ = run_cli(tmp_path, config, extra=("--seed", "99"))
    assert code == 0


def test_nonconvergence_exit_code(tmp_path):
    # Four phases need 3 preconditioned iterations, so a cap of 2 stops short.
    cell = {
        "s": {"theta": np.pi / 2},
        "xi_coeffs": [[-1.0, 0.0]],
        "n": 32,
        "boundary": "periodic",
    }
    config = {
        "command": "cell",
        "manifold": SPHERE,
        "integrand": {**LAMINATE, "a": {"breaks": [0.25, 0.5, 0.75], "values": [1, 3, 2, 5]}},
        "cell": {**cell, "max_iters": 2},
    }
    code, out = run_cli(tmp_path, config)
    assert code == 2
    result = json.loads((out / "cell_result.json").read_text())
    assert not result["converged"]
    assert result["warning"]

    code, out = run_cli(tmp_path, {**config, "cell": cell})
    assert code == 0
    assert json.loads((out / "cell_result.json").read_text())["converged"]


def test_cell_artifact_path_that_cannot_be_created_exits_1(tmp_path, capsys):
    config = {
        "command": "cell",
        "manifold": SPHERE,
        "integrand": {"kind": "isotropic_quadratic", "N": 1, "d": 2},
        "cell": {"s": {"theta": 0.0}, "xi_coeffs": [[1.0]], "n": 8},
    }
    blocker = tmp_path / "out" / "corrector.csv"
    blocker.mkdir(parents=True)
    (blocker / "kept").write_text("a directory stands at the artifact path")
    code, _ = run_cli(tmp_path, config)
    assert code == 1
    assert "corrector.csv" in capsys.readouterr().err
    assert (blocker / "kept").is_file()


class _FakeLibc:
    """Stands in for ``ctypes.CDLL(None)``; logs each load and ``mallopt`` call."""

    log: list = []

    def __init__(self, name):
        assert name is None
        self.log.append("load")

    def mallopt(self, param, value):
        self.log.append((param, value))
        return 1


@pytest.fixture
def fresh_heap_policy():
    cli._keep_freed_heap.cache_clear()
    yield
    cli._keep_freed_heap.cache_clear()


def test_heap_policy_applied_once_per_process(tmp_path, monkeypatch, fresh_heap_policy):
    import ctypes.util

    def no_find_library(name):
        raise AssertionError("find_library spawns ldconfig; the policy must not call it")

    monkeypatch.setattr(ctypes.util, "find_library", no_find_library)
    monkeypatch.setattr(cli.ctypes, "CDLL", _FakeLibc)
    monkeypatch.setattr(_FakeLibc, "log", [])
    missing = str(tmp_path / "missing.json")
    for _ in range(2):
        assert cli.main(["--config", missing, "--out", str(tmp_path)]) == 1
    # One load, then M_MMAP_THRESHOLD = 32 MiB and M_TRIM_THRESHOLD = 64 MiB.
    assert _FakeLibc.log == ["load", (-3, 32 << 20), (-1, 64 << 20)]


class _NoMallopt:
    def __init__(self, name):
        pass


def _cdll_fails(name):
    raise OSError("no C library")


def _cdll_rejects_none(name):
    raise TypeError("expected str, bytes or os.PathLike object, not NoneType")


@pytest.mark.parametrize("cdll", [_NoMallopt, _cdll_fails, _cdll_rejects_none],
                         ids=["no-mallopt", "oserror", "typeerror"])
def test_heap_policy_without_mallopt_changes_nothing(tmp_path, monkeypatch, fresh_heap_policy, cdll):
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    config = {
        "command": "cell",
        "manifold": SPHERE,
        "integrand": {"kind": "isotropic_quadratic", "N": 2, "d": 2},
        "cell": {"s": {"theta": 0.0}, "xi_coeffs": [[1.0, 0.0]], "n": 8},
    }
    code, out = run_cli(tmp_path, config)
    assert code == 0
    assert json.loads((out / "cell_result.json").read_text())["converged"]


HEAP_PROBE = """
import resource
import numpy as np
from tanhom import cli
from tanhom.cell import CellProblemSpec, solve_cell
from tanhom.integrand import StepProfile, make_laminate_quadratic
from tanhom.manifold import Sphere

cli._keep_freed_heap()
f = make_laminate_quadratic(StepProfile((0.5,), (1.0, 2.0)), StepProfile.constant(1.0), 2)
S = Sphere(2)
s = np.array([np.sqrt(0.5), np.sqrt(0.5)])
spec = CellProblemSpec(S, s, S.tangent_from_coeffs(s, [[1.5, 0.5]]),
                       nodes_per_period=128, boundary="periodic")
assert solve_cell(f, spec).converged
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert solve_cell(f, spec).converged
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _has_glibc_mallopt() -> bool:
    try:
        return platform.libc_ver()[0] == "glibc" and hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_glibc_mallopt(), reason="the heap policy needs glibc's mallopt")
def test_heap_policy_keeps_second_2d_solve_free_of_page_faults():
    # Minor page faults of the second n = 128 laminate solve (16 384 elements),
    # glibc 2.36, numpy 2.4.6: 0 with the policy, 416 without it (the probe
    # with its `cli._keep_freed_heap()` line removed), in three runs each.
    src = Path(cli.__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    done = subprocess.run(
        [sys.executable, "-c", HEAP_PROBE], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert int(done.stdout) <= 128
