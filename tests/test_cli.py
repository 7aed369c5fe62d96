import copy
import dataclasses
import json
import re
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
            coeff_radius=3.0,
            equivalence_tol=None,
            delta0=0.5,
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
    monkeypatch.setattr(gamma, "minimize_f_eps", no_solve)
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
    calls = {"f_eps": 0, "f_hom": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(gamma, "minimize_f_eps", counted("f_eps", gamma.minimize_f_eps))
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
    assert calls == {"f_eps": 2, "f_hom": 1}
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


@pytest.mark.parametrize(
    "command, section",
    [
        ("gamma", {"epsilons": [0.3]}),
        ("density", {"s_count": 4, "lattice": {"min": 1.0, "max": -1.0, "count": 3}}),
        ("cell", {"s": {"theta": 0.0}, "xi_coeffs": [[1.0]], "n": 1}),
        ("density", {"s_count": 0, "lattice": {"min": -1.0, "max": 1.0, "count": 3}}),
        ("gamma", {"epsilons": [0.5], "table": {"s_count": 0}}),
        ("cell", {"s": {"theta": "north"}, "xi_coeffs": [[1.0]]}),
        ("density", {"s_count": 4, "lattice": {"min": -1.0, "max": 1.0, "count": 2.5}}),
        ("cell", {"s": {"theta": 0.0}, "xi_coeffs": [[1.0]], "n": float("inf")}),
    ],
)
def test_invalid_values_exit_1_before_solving(tmp_path, capsys, monkeypatch, command, section):
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
    assert capsys.readouterr().err.startswith(f"error: {command}")


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
    config = {
        "command": "cell",
        "manifold": SPHERE,
        "integrand": LAMINATE,
        "cell": {
            "s": {"theta": np.pi / 2},
            "xi_coeffs": [[-1.0, 0.0]],
            "n": 32,
            "boundary": "periodic",
            "max_iters": 2,
        },
    }
    code, out = run_cli(tmp_path, config)
    assert code == 2
    result = json.loads((out / "cell_result.json").read_text())
    assert not result["converged"]
    assert result["warning"]
