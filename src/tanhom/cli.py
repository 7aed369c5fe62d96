"""Batch front-end: JSON config in, CSV/JSON artifacts out.

Exit codes: 0 success, 1 configuration error (malformed config or invalid
values) or I/O error, 2 a solver failed to converge or a 1D homogenized
minimum missed its geodesic certificate, 3 partial results (some entries of
the density table, built or loaded, failed), 4 a verification suite failed.
Identical config and seed produce byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from .artifacts import fmt, read_json, write_columns, write_json
from .cell import solve_cell, write_corrector_csv
from .config import GammaSection, RunConfig, parse_run_config
from .density import (
    DensityTable,
    build_density_table,
    check_growth_lipschitz,
    check_tangential_quasiconvexity,
    verify_equivalence_fbar,
)
from .errors import HypothesisViolated, TanhomError
from .gamma import run_gamma_experiment, write_field_csv
from .integrand import verify_hypotheses


# glibc's mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# glibc's own 64-bit ceiling for its dynamic mmap threshold
# (DEFAULT_MMAP_THRESHOLD_MAX): arrays below it, every grid array of a cell
# solve included, come from the heap, not from a fresh mapping that is
# unmapped again when it is freed.
_MMAP_THRESHOLD = 32 * 1024 * 1024
# Twice the mmap threshold, the pairing glibc's dynamic rule keeps: freed
# temporaries at the top of the heap stay mapped for the next evaluation
# instead of being trimmed and faulted back in.
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD


@functools.cache
def _keep_freed_heap() -> None:
    """Keep freed memory in the process, once per process (glibc only).

    By default glibc maps every large numpy temporary afresh and unmaps or
    trims it when it is freed, so each cell-solve evaluation page-faults its
    arrays back in.  Fixed thresholds end that.  Where ``mallopt`` is missing
    (macOS, Windows) or fails, nothing changes; musl's ``mallopt`` is a no-op.
    ``CDLL(None)`` looks the symbol up in the running process:
    ``ctypes.util.find_library`` would spawn ``ldconfig`` on every call.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    except (OSError, AttributeError, TypeError):
        pass


def _log(verbose: bool, message: str) -> None:
    if verbose:
        print(message, file=sys.stderr)


def cmd_cell(cfg: RunConfig, out: Path, verbose: bool) -> int:
    spec = cfg.section
    _log(verbose, f"solving cell problem on (0,{spec.t})^{spec.ndim} at n={spec.nodes_per_period}")
    result = solve_cell(cfg.integrand, spec)
    write_corrector_csv(result.corrector, out / "corrector.csv")
    write_json(
        out / "cell_result.json",
        {
            "value": result.value,
            "iterations": result.iterations,
            "converged": result.converged,
            "grad_norm": result.grad_norm,
            "warning": result.warning,
            "t": spec.t,
            "nodes_per_period": spec.nodes_per_period,
            "boundary": spec.boundary,
            "s": [float(v) for v in spec.s],
            "xi": [[float(v) for v in row] for row in spec.xi],
        },
    )
    print(f"cell value: {fmt(result.value)} (converged={result.converged})")
    return 0 if result.converged else 2


def cmd_density(cfg: RunConfig, out: Path, verbose: bool) -> int:
    sec = cfg.section
    _log(
        verbose,
        f"building density table: {sec.s_count} angles x {sec.lattice.count} coefficients per column",
    )
    table = build_density_table(
        cfg.integrand,
        cfg.manifold,
        sec.s_count,
        sec.lattice,
        sec.options,
    )
    table.save(out / "density_table.csv", out / "density_table.json")
    failures = table.failed_entries
    print(
        f"density table: {table.values.size} entries, {failures} failed, "
        f"sandwich ok: {table.check_sandwich()[0]}"
    )
    return 3 if failures else 0


def cmd_verify(cfg: RunConfig, out: Path, verbose: bool) -> int:
    sec = cfg.section
    f, M = cfg.integrand, cfg.manifold
    rng = np.random.default_rng(cfg.seed)
    lines: list[tuple[str, bool, str]] = []

    def sample_pairs(count):
        pairs = []
        for _ in range(count):
            s = M.random_point(rng)
            coeffs = rng.uniform(-2.0, 2.0, size=(M.intrinsic_dim, f.dims[0]))
            pairs.append((s, M.tangent_from_coeffs(s, coeffs)))
        return pairs

    for suite in sec.suites:
        _log(verbose, f"running suite {suite}")
        try:
            if suite == "hypotheses":
                residual = verify_hypotheses(f, sec.sample_count, cfg.seed).periodicity_residual
                ok, detail = True, f"worst periodicity residual {residual:.2e}"
            elif suite == "equivalence":
                tol = 1e-3 if f.p == 1 else 1e-6
                gap = verify_equivalence_fbar(f, M, sample_pairs(sec.sample_points), sec.options).max_rel_gap
                ok, detail = gap <= tol, f"max relative gap {gap:.2e} (tol {tol:.0e})"
            elif suite == "quasiconvexity":
                reports = [
                    check_tangential_quasiconvexity(f, M, s, xi, sec.trial_count, cfg.seed, sec.options)
                    for s, xi in sample_pairs(sec.sample_points)
                ]
                worst = max([-np.inf] + [report.max_residual for report in reports])
                ok, detail = all(report.passed for report in reports), f"max residual {worst:.2e}"
            else:
                report = check_growth_lipschitz(f, M, sec.pair_count, cfg.seed, sec.options)
                ok, detail = True, f"fitted Lipschitz constant {report.fitted_constant:.4g}"
        except HypothesisViolated as exc:
            ok, detail = False, str(exc)
        lines.append((suite, ok, detail))

    width = max(len(s) for s, _, _ in lines)
    all_ok = True
    for suite, ok, detail in lines:
        all_ok = all_ok and ok
        print(f"{suite:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
    write_json(
        out / "verify_report.json",
        {suite: {"passed": ok, "detail": detail} for suite, ok, detail in lines},
    )
    return 0 if all_ok else 4


def _gamma_table(cfg: RunConfig, sec: GammaSection, config_dir: Path, verbose: bool) -> DensityTable:
    if sec.table_path is not None:
        base = Path(sec.table_path)
        if not base.is_absolute():
            base = config_dir / base
        _log(verbose, f"loading density table from {base}.csv/.json")
        return DensityTable.load(f"{base}.csv", f"{base}.json")
    _log(
        verbose,
        f"building density table: {sec.table_s_count} angles x {sec.table_lattice.count} coefficients",
    )
    return build_density_table(
        cfg.integrand,
        cfg.manifold,
        sec.table_s_count,
        sec.table_lattice,
        sec.table_options,
    )


def cmd_gamma(cfg: RunConfig, out: Path, verbose: bool, config_dir: Path) -> int:
    sec = cfg.section
    table = _gamma_table(cfg, sec, config_dir, verbose)
    experiment = dataclasses.replace(sec.experiment, table=table)
    _log(verbose, f"running {len(experiment.epsilons)} oscillating minimizations plus the homogenized one")
    report = run_gamma_experiment(experiment)
    failed = table.failed_entries
    if failed:
        report.warnings.append(f"density table has {failed} failed entries")
    write_json(out / "gamma_report.json", report.to_dict())
    write_columns(out / "gamma_gaps.csv", ["epsilon", "gap"], [report.epsilons, report.gaps])
    if sec.dump_fields:
        for eps, field in zip(report.epsilons, report.eps_fields):
            write_field_csv(field, out / f"field_eps_{round(1 / eps)}.csv")
        write_field_csv(report.hom_field, out / "field_hom.csv")
    print(
        f"gamma experiment: hom energy {fmt(report.hom_energy)}, "
        f"final gap {fmt(report.final_gap)}, trend {report.trend_fraction:.2f}"
    )
    if failed:
        return 3
    ok = all(report.eps_converged) and report.hom_converged and not report.certificate_missed
    return 0 if ok else 2


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = argparse.ArgumentParser(
        prog="tanhom",
        description="tangential homogenization runs driven by a JSON config",
    )
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", default=".", help="output directory (created if missing)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--verbose", action="store_true", help="progress on stderr")
    args = parser.parse_args(argv)

    try:
        cfg = parse_run_config(read_json(args.config))
        if args.seed is not None:
            cfg.seed = args.seed

        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.touch()
        probe.unlink()

        config_dir = Path(args.config).resolve().parent
        if cfg.command == "cell":
            return cmd_cell(cfg, out, args.verbose)
        if cfg.command == "density":
            return cmd_density(cfg, out, args.verbose)
        if cfg.command == "verify":
            return cmd_verify(cfg, out, args.verbose)
        return cmd_gamma(cfg, out, args.verbose, config_dir)
    except (OSError, TanhomError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
