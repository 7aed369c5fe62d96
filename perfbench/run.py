"""Benchmark of the tanhom CLI: seeded workloads, correctness gates, layer traces.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one process calls ``tanhom.cli.main`` in-process as a closed
loop: the next invocation starts only after the previous one has returned.
Runs are serial: ``HOMOG_WORKERS`` is removed from the environment, no
``--workers`` is passed, and BLAS thread pools are pinned to one thread.

Set-up is importing tanhom (timed in ``IMPORT_REPEATS`` fresh interpreters)
plus config generation and, for ``gamma``, building and checking its
density table (run ``SETUP_REPEATS`` times in-process); ``setup_s`` is the
sum of the two medians.  The timed phase then repeats the
workload's invocations until ``--seconds`` have passed (at least
``MIN_REPEATS`` times).  Every repeat is gated for correctness and its
artifacts must be byte-identical to the first repeat's.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half with span wrappers installed over every tanhom layer,
and reports the per-layer metrics plus the tracing overhead.  The last line of
standard output is one JSON object; a fuller report, and the spans of a
traced run, are written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Set before numpy loads its BLAS; the import-timing interpreters inherit them.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("HOMOG_WORKERS", None)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

IMPORT_REPEATS = 7
SETUP_REPEATS = 3
MIN_REPEATS = 2

END_TO_END = {"wall_s": "s", "items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def import_program():
    """Import tanhom from this checkout's sources, never from an installed copy."""
    package = SRC / "tanhom"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no tanhom sources at {package}")
    sys.path.insert(0, str(SRC))
    import tanhom.cli

    if Path(tanhom.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported tanhom from {tanhom.__file__}, not {package}")
    return tanhom.cli


IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import tanhom.cli; print(time.perf_counter() - t)"
)


def time_imports() -> list[float]:
    """Seconds to import tanhom (numpy included) in fresh interpreters."""
    return [
        float(
            subprocess.run(
                [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                capture_output=True, text=True, check=True, timeout=120,
            ).stdout
        )
        for _ in range(IMPORT_REPEATS)
    ]


def call_cli(cli, argv) -> int | None:
    """One invocation; the CLI's own stdout is swallowed.  None means it raised."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except Exception as exc:  # an item failure, reported and counted
            print(f"perfbench: tanhom raised {exc!r}", file=sys.stderr)
            return None


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def environment(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "HOMOG_WORKERS": os.environ.get("HOMOG_WORKERS"),
    }


class Timed:
    """Runs repeats of a workload's invocations and gates each one."""

    def __init__(self, workload, cli):
        self.wl = workload
        self.cli = cli
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.mismatches: list[str] = []
        self.tracer = None

    def repeat(self) -> None:
        """One pass over the invocations; spans cover the calls, not the gates."""
        wall = cpu = 0.0
        codes = []
        if self.tracer is not None:
            self.tracer.rec.run_id = len(self.walls)
            self.tracer.install()
        try:
            for inv in self.wl.invocations:
                shutil.rmtree(inv.out, ignore_errors=True)
                t0, c0 = time.perf_counter(), time.process_time()
                codes.append(call_cli(self.cli, inv.argv))
                wall += time.perf_counter() - t0
                cpu += time.process_time() - c0
        finally:
            if self.tracer is not None:
                self.tracer.restore()
        self.walls.append(wall)
        self.cpus.append(cpu)
        for inv, code in zip(self.wl.invocations, codes):
            self.attempted += inv.items
            self.failed += self.check(inv, code)

    def check(self, inv, code) -> int:
        """Failed items of one invocation: non-zero exit, gate, or changed bytes."""
        if code != 0:
            return inv.items
        try:
            failed = min(self.wl.gate(inv), inv.items)
            for key, digest in self.wl.digests(inv).items():
                if self.digests.setdefault(key, digest) != digest:
                    self.mismatches.append(key)
                    failed = inv.items
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            print(f"perfbench: unreadable artifact in {inv.out}: {exc!r}", file=sys.stderr)
            failed = inv.items
        return failed

    def run_for(self, seconds: float, min_repeats: int) -> list[float]:
        """Repeat for ``seconds`` (at least ``min_repeats`` times); return their walls."""
        begin, first = time.perf_counter(), len(self.walls)
        while len(self.walls) - first < min_repeats or time.perf_counter() - begin < seconds:
            self.repeat()
        return self.walls[first:]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_program()
    import numpy as np

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    import_times = time_imports()

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_times = []
        for k in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl = WORKLOADS[args.workload]()
            wl.prepare(np.random.default_rng(args.seed), work / f"setup{k}", lambda a: call_cli(cli, a))
            setup_times.append(time.perf_counter() - t0)
            if k:
                shutil.rmtree(work / f"setup{k - 1}", ignore_errors=True)
        setup_s = statistics.median(import_times) + statistics.median(setup_times)

        timed = Timed(wl, cli)
        report = {"workload": wl.name, "why": wl.why, "environment": environment(args.seed)}
        if args.trace:
            metrics, units = traced_phase(timed, args, report)
        else:
            wall = statistics.median(timed.run_for(args.seconds, MIN_REPEATS))
            metrics = {
                "wall_s": wall,
                "items_per_s": wl.items / wall,
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Set-up repeats with one seed must also produce the same bytes.
    setup_digests = [
        {k: v for k, v in rec.items() if k.endswith(".csv")} for rec in wl.setup_records
    ]
    if any(d != setup_digests[0] for d in setup_digests):
        timed.mismatches.append("setup")
        timed.failed = timed.attempted

    report.update(
        {
            "items_per_repeat": wl.items,
            "import_s": import_times,
            "setup_repeats_s": setup_times,
            "setup_records": wl.setup_records,
            "wall_s": quartiles(timed.walls),
            "repeat_wall_s": timed.walls,
            "repeat_cpu_s": timed.cpus,
            "attempted": timed.attempted,
            "failed": timed.failed,
            "fail_ratio": timed.failed / timed.attempted,
            "artifact_sha256": timed.digests,
            "determinism_mismatches": timed.mismatches,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
    )
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"report-{stem}.json").write_text(json.dumps(report, indent=2) + "\n")

    env = report["environment"]
    print(
        f"# {wl.name} seed={args.seed} nproc={env['nproc']} cpu={env['cpu']!r} "
        f"python={env['python']} numpy={env['numpy']} blas={env['blas']} "
        f"threads={env['blas_threads']['OMP_NUM_THREADS']} HOMOG_WORKERS=unset"
    )
    w = report["wall_s"]
    print(
        f"# repeats n={w['n']} wall_s median={w['median']:.6g} q1={w['q1']:.6g} "
        f"q3={w['q3']:.6g}; setup repeats {', '.join(f'{t:.4g}' for t in setup_times)} s"
    )
    print(
        f"# fail_ratio={report['fail_ratio']:.6g} ({timed.failed}/{timed.attempted}) "
        f"determinism mismatches={timed.mismatches or 'none'}"
    )
    for key, digest in sorted(timed.digests.items()):
        print(f"# sha256 {key} {digest}")
    for k, digests in enumerate(setup_digests):
        for key, digest in sorted(digests.items()):
            print(f"# sha256 setup{k}/{key} {digest}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": timed.failed == 0 and not timed.mismatches,
                "attempted": timed.attempted,
                "failed": timed.failed,
                "metrics": report["metrics"],
            }
        )
    )
    return 0


def traced_phase(timed: Timed, args, report: dict):
    """Half the time untraced, half traced; per-layer metrics of the traced half."""
    from spans import PER_LAYER, Recorder, Tracer, layer_metrics

    untraced = timed.run_for(args.seconds / 2.0, 1)
    rec = Recorder()
    timed.tracer = Tracer(rec)
    traced = timed.run_for(args.seconds / 2.0, 1)
    timed.tracer = None
    metrics = layer_metrics(rec, len(traced))
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    report["untraced_wall_s"] = quartiles(untraced)
    report["traced_wall_s"] = quartiles(traced)
    OUT.mkdir(exist_ok=True)
    rec.save(OUT / f"spans-{args.workload}.npz")
    return {name: metrics[name] for name in PER_LAYER}, PER_LAYER


if __name__ == "__main__":
    sys.exit(main())
