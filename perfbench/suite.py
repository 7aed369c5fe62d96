"""Run the benchmark over several seeds per workload and summarize the spread.

    python3 perfbench/suite.py                       # every workload in BENCHMARK.json, seeds 1-10
    python3 perfbench/suite.py --workloads table --seeds 1-5
    python3 perfbench/suite.py --trace               # per-layer metrics instead
    python3 perfbench/suite.py --save perfbench/baseline.json
    python3 perfbench/suite.py --compare perfbench/baseline.json

Each run is its own process (``run.py``), one after the other, so runs never
share a core.  For every end-to-end metric the summary gives the median, the
quartiles of ``statistics.quantiles(values, n=4)``, the spread (q3 - q1) /
median against the metric's bound, and, with ``--compare``, the change of the
median against a saved summary in the metric's worse direction.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    stats = quartiles(values)
    stats["spread"] = (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else 0.0
    return stats


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--save", type=Path, help="write the summary as JSON")
    parser.add_argument("--compare", type=Path, help="summary JSON to compare medians with")
    args = parser.parse_args(argv)

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    seeds = parse_seeds(args.seeds)
    baseline = json.loads(args.compare.read_text())["workloads"] if args.compare else {}
    summary = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            runs.append(result)
            shown = ", ".join(
                f"{name}={m['value']:.5g}" for name, m in list(result["metrics"].items())[:4]
            )
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {"attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
                 "correct": all(r["correct"] for r in runs), "metrics": {}}
        ok = ok and entry["correct"]
        print(f"== {workload}: fail_ratio {entry['fail_ratio']:.4g} ({failed}/{attempted})")
        for m in metrics:
            stats = summarize([r["metrics"][m["name"]]["value"] for r in runs])
            stats["unit"] = m["unit"]
            entry["metrics"][m["name"]] = stats
            line = (f"   {m['name']:38s} {stats['median']:.6g} {m['unit']} "
                    f"[q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, n {stats['n']}] "
                    f"spread {stats['spread']:.3f}")
            if "bound" in m:
                steady = stats["spread"] <= m["bound"] / 3.0
                line += f" (bound {m['bound']}{'' if steady else ', NOT below a third'})"
            old = baseline.get(workload, {}).get("metrics", {}).get(m["name"])
            if old and old["median"] and "better" in m:
                change = stats["median"] / old["median"] - 1.0
                worse = change if m["better"] == "lower" else -change
                line += f" worse by {worse:+.3f} vs saved"
                if "bound" in m and worse > m["bound"]:
                    line += " REGRESSION"
                    ok = False
            print(line, flush=True)
        summary[workload] = entry

    if args.save:
        args.save.write_text(json.dumps(
            {"seeds": seeds, "seconds": args.seconds, "trace": args.trace, "workloads": summary},
            indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
