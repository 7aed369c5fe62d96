"""Seeded workloads of the tanhom benchmark.

Each workload turns the benchmark seed into JSON run configs, lists the CLI
invocations of one repeat, and gates the artifacts of a repeat against
references that do not come from the code path under test: the closed-form
laminate value (``laminate_oracle``) and the DP certificate of `gamma`.  Tolerances are
the acceptance suite's; none is stricter.

Seeds draw inputs from a symmetry class of the acceptance suite's laminate
(profile ``a`` = 1 on [0, 1/2), 2 on [1/2, 1); ``b`` = 1): a cyclic shift of
``a`` by a seeded multiple of 1/16, mirror-equivalent base points and
coefficient signs.  Each seed gives other configs and other artifact bytes,
but the same amount of solver work, so the run-to-run spread measures the
machine and the program rather than the draw.  Breakpoints on multiples of
1/16 are resolved exactly by every cell grid used here (n = 16 and 256 per
period), so cell values match the closed form to solver tolerance.

`gamma` takes no input from the seed: its Barzilai-Borwein descent is
chaotic, so even an exactly symmetric variant of the input moves its
iteration count by about 25 %.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tanhom.density import laminate_oracle
from tanhom.integrand import StepProfile
from tanhom.manifold import Sphere

CIRCLE = {"kind": "sphere", "d": 2}
S1 = Sphere(2)

# Acceptance-suite tolerances (tests/test_acceptance.py and the CLI default).
ORACLE_REL_TOL = 5e-3  # criterion 1 at the finest grid
DP_REL_TOL = 0.01  # criterion 8: DP certificate vs homogenized minimum
FINAL_GAP_REL_TOL = 0.05  # criterion 8: finest gap vs homogenized minimum

# Profile `a` of the acceptance suite on 16 cells; criteria 2 and 8 use it too.
PROFILE_A_CELLS = np.array([1.0] * 8 + [2.0] * 8)

# Density table grid shared by `table` and the table `gamma` loads.
TABLE_S_COUNT = 32
TABLE_LATTICE = {"min": -2.5, "max": 2.5, "count": 81}
TABLE_ENTRIES = TABLE_S_COUNT * TABLE_LATTICE["count"]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_config(path: Path, config: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return path


def cells_profile(cells) -> dict:
    """Profile config of a step function given by its values on 16 equal cells."""
    breaks, values = [], [float(cells[0])]
    for j in range(1, len(cells)):
        if cells[j] != cells[j - 1]:
            breaks.append(j / len(cells))
            values.append(float(cells[j]))
    return {"breaks": breaks, "values": values}


def profile(cfg: dict) -> StepProfile:
    return StepProfile(tuple(cfg.get("breaks", ())), tuple(cfg["values"]))


def laminate(N: int, shift: int = 0) -> dict:
    """Acceptance laminate with profile ``a`` shifted by ``shift``/16 of a period."""
    return {
        "kind": "laminate",
        "a": cells_profile(np.roll(PROFILE_A_CELLS, shift)),
        "b": {"values": [1.0]},
        "N": N,
    }


def rel_error(value, reference):
    """Error measure of acceptance criterion 1: |v - ref| / (1 + |ref|)."""
    return np.abs(value - reference) / (1.0 + np.abs(reference))


def density_config(integrand: dict) -> dict:
    return {
        "command": "density",
        "manifold": CIRCLE,
        "integrand": integrand,
        "density": {
            "s_count": TABLE_S_COUNT,
            "lattice": TABLE_LATTICE,
            "t_list": [1],
            "n": 16,
            "boundary": "periodic",
        },
    }


def table_entry_failures(out: Path, integrand: dict, check_oracle: bool) -> int:
    """Count entries of a saved table that are missing, misplaced, non-finite,
    unconverged or (with ``check_oracle``) off the closed form.

    Checks ``density_table.json`` and every row of ``density_table.csv``
    against the grid the config asked for.  ``DensityTable.load`` would fill a
    truncated file with NaN, and would take reordered rows at their position,
    without an error; here each lost, surplus or moved row fails.
    """
    thetas = 2.0 * np.pi * np.arange(TABLE_S_COUNT) / TABLE_S_COUNT
    z = np.linspace(TABLE_LATTICE["min"], TABLE_LATTICE["max"], TABLE_LATTICE["count"])
    meta = json.loads((out / "density_table.json").read_text())
    axes = meta["coeff_axes"]
    if not (
        meta["s_count"] == TABLE_S_COUNT
        and len(axes) == 1
        and len(axes[0]) == z.size
        and np.allclose(axes[0], z, rtol=0.0, atol=1e-12)
    ):
        return TABLE_ENTRIES
    with open(out / "density_table.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    data = np.array(rows[:TABLE_ENTRIES], dtype=float).reshape(-1, 5)
    n = len(data)
    grid = np.column_stack(
        [np.repeat(np.cos(thetas), z.size), np.repeat(np.sin(thetas), z.size), np.tile(z, thetas.size)]
    )[:n]
    ok = np.all(np.abs(data[:, :3] - grid) <= 1e-12, axis=1)
    ok &= np.isfinite(data[:, 3]) & (data[:, 4] == 1.0)
    if check_oracle:
        # The N = 1 laminate value is the unit-coefficient value times z^2.
        a, b = profile(integrand["a"]), profile(integrand["b"])
        unit = [
            laminate_oracle(a, b, s, S1.tangent_from_coeffs(s, [[1.0]]))
            for s in np.column_stack([np.cos(thetas), np.sin(thetas)])
        ]
        ok &= rel_error(data[:, 3], np.repeat(unit, z.size)[:n] * grid[:, 2] ** 2) <= ORACLE_REL_TOL
    return TABLE_ENTRIES - int(np.count_nonzero(ok)) + max(len(rows) - TABLE_ENTRIES, 0)


@dataclass
class Invocation:
    """One CLI call: its arguments, output directory, item count and, where the
    closed form applies, the reference value of its single item."""

    config: Path
    out: Path
    items: int
    reference: float | None = None

    @property
    def argv(self) -> list[str]:
        return ["--config", str(self.config), "--out", str(self.out)]


class Workload:
    """A seeded set of CLI invocations with gates and deterministic artifacts.

    ``prepare`` writes the configs (and any input the timed phase reads);
    ``gate`` returns the failed item count of one invocation that exited 0;
    ``artifacts`` names the files whose bytes must repeat exactly.
    """

    name: str
    why: str
    artifacts: tuple[str, ...]

    def __init__(self):
        self.invocations: list[Invocation] = []
        self.setup_records: list[dict] = []

    def prepare(self, rng: np.random.Generator, work: Path, run_cli) -> None:
        raise NotImplementedError

    def gate(self, inv: Invocation) -> int:
        raise NotImplementedError

    def digests(self, inv: Invocation) -> dict[str, str]:
        return {f"{inv.out.name}/{a}": sha256(inv.out / a) for a in self.artifacts}

    @property
    def items(self) -> int:
        return sum(inv.items for inv in self.invocations)


class TableWorkload(Workload):
    name = "table"
    why = (
        "thousands of 16-element periodic CG cell solves; per-call overhead in "
        "cell/optim/grid dominates (density write path)"
    )
    artifacts = ("density_table.csv",)

    def prepare(self, rng, work, run_cli):
        self.integrand = laminate(1, int(rng.integers(16)))
        cfg = write_config(work / "table.json", density_config(self.integrand))
        self.invocations = [Invocation(cfg, work / "table_out", TABLE_ENTRIES)]

    def gate(self, inv):
        return table_entry_failures(inv.out, self.integrand, check_oracle=True)


class GammaWorkload(Workload):
    name = "gamma"
    why = (
        "1D projected descent on 257 nodes through a loaded table; density read "
        "path (DensityTable.load, interpolate) dominates"
    )
    artifacts = ("gamma_gaps.csv",)

    def prepare(self, rng, work, run_cli):
        """Build and save the table with the `density` command, then check it.

        The integrity check runs before `gamma` may load the table:
        ``DensityTable.load`` NaN-fills a truncated CSV without an error.
        """
        integrand = laminate(1)
        tdir = work / "gamma_table"
        cfg = write_config(tdir / "density.json", density_config(integrand))
        rc = run_cli(["--config", str(cfg), "--out", str(tdir)])
        record = {"density_exit_code": rc}
        try:
            record["table_bad_entries"] = bad = table_entry_failures(
                tdir, integrand, check_oracle=False
            )
            record["density_table.csv"] = sha256(tdir / "density_table.csv")
        except (OSError, ValueError, KeyError) as exc:
            record["table_error"] = repr(exc)
            bad = TABLE_ENTRIES
        self.setup_records.append(record)
        self.table_ok = rc == 0 and bad == 0
        gamma_cfg = {
            "command": "gamma",
            "manifold": CIRCLE,
            "integrand": integrand,
            "gamma": {
                "dim": 1,
                "mesh_nodes": 257,
                "theta0": 0.0,
                "theta1": math.pi / 2.0,
                "epsilons": [1 / 8, 1 / 16, 1 / 32],
                "run_dp": True,
                "table": {"path": "density_table"},
            },
        }
        cfg = write_config(tdir / "gamma.json", gamma_cfg)
        # Items: one minimization per epsilon plus the homogenized one.
        self.invocations = [Invocation(cfg, work / "gamma_out", 4)]

    def gate(self, inv):
        if not self.table_ok:
            return inv.items
        report = json.loads((inv.out / "gamma_report.json").read_text())
        failed = sum(
            1
            for e, ok in zip(report["eps_energies"], report["eps_converged"])
            if not (ok and math.isfinite(e))
        )
        hom, dp = report["hom_energy"], report["dp_energy"]
        hom_ok = report["hom_converged"] and math.isfinite(hom) and hom > 0.0
        if not (hom_ok and dp is not None and abs(dp - hom) <= DP_REL_TOL * hom):
            failed += 1
        # The finest oscillating run carries the final-gap gate.
        elif not report["gaps"][-1] <= FINAL_GAP_REL_TOL * hom:
            failed += 1
        return failed


class Cell2dWorkload(Workload):
    name = "cell-2d"
    why = (
        "2D periodic cell solve on 65 536 elements plus the corrector CSV; the only "
        "large grid arrays, so grid/integrand kernels dominate"
    )
    artifacts = ("corrector.csv",)
    CALLS = 2

    def prepare(self, rng, work, run_cli):
        integrand = laminate(2, int(rng.integers(16)))
        self.invocations = []
        for k in range(self.CALLS):
            # Every quadrant's diagonal gives the laminate weight the same contrast,
            # and the corrector sees only the first coefficient.
            theta = math.pi / 4.0 + math.pi / 2.0 * int(rng.integers(4))
            coeffs = [[1.5 * float(rng.choice([-1.0, 1.0])), float(rng.uniform(-2.0, 2.0))]]
            cfg = write_config(
                work / f"cell_{k}.json",
                {
                    "command": "cell",
                    "manifold": CIRCLE,
                    "integrand": integrand,
                    "cell": {
                        "s": {"theta": theta},
                        "xi_coeffs": coeffs,
                        "n": 256,
                        "boundary": "periodic",
                    },
                },
            )
            s = np.array([math.cos(theta), math.sin(theta)])
            oracle = laminate_oracle(
                profile(integrand["a"]),
                profile(integrand["b"]),
                s,
                S1.tangent_from_coeffs(s, coeffs),
            )
            self.invocations.append(Invocation(cfg, work / f"cell_out_{k}", 1, oracle))

    def gate(self, inv):
        result = json.loads((inv.out / "cell_result.json").read_text())
        value = result["value"]
        ok = result["converged"] and math.isfinite(value)
        return 0 if ok and rel_error(value, inv.reference) <= ORACLE_REL_TOL else 1


WORKLOADS = {
    w.name: w for w in (TableWorkload, GammaWorkload, Cell2dWorkload)
}
