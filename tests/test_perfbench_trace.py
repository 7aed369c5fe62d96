"""Guard for the benchmark's span tracer.

``perfbench/spans.py`` wraps functions and methods of the package by name.
Installing it on the current code and restoring it checks that every name it
wraps still exists, so a deleted name fails here instead of breaking
``perfbench/run.py --trace 1``.  A traced CLI run also exercises the counters
the wrappers read off call results, such as ``out.iterations``.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    """Every name bound in a tanhom module or on a tanhom class, with its object."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "tanhom" or name.startswith("tanhom.")):
            continue
        for key, value in vars(mod).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__.startswith("tanhom"):
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = member
    return out


def test_tracer_installs_and_restores():
    spans = load_spans()
    before = bindings()
    tracer = spans.Tracer(spans.Recorder())
    try:
        tracer.install()
        wrapped = {key for key, value in bindings().items() if before.get(key) is not value}
    finally:
        tracer.restore()
    assert {"minimize_f_eps", "minimize_f_hom", "dp_minimize_hom", "interpolate"} <= {
        key[-1] for key in wrapped
    }
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracer_records_a_gamma_run(tmp_path):
    import tanhom.cli

    config = {
        "command": "gamma",
        "manifold": {"kind": "sphere", "d": 2},
        "integrand": {
            "kind": "laminate",
            "a": {"breaks": [0.5], "values": [1, 2]},
            "b": {"values": [1]},
            "N": 1,
        },
        "gamma": {
            "dim": 1,
            "mesh_nodes": 33,
            "epsilons": [0.25],
            "run_dp": True,
            "table": {"s_count": 8, "n": 8},
        },
    }
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps(config))
    spans = load_spans()
    rec = spans.Recorder()
    tracer = spans.Tracer(rec)
    try:
        tracer.install()
        code = tanhom.cli.main(["--config", str(path), "--out", str(tmp_path / "out")])
    finally:
        tracer.restore()
    assert code == 0
    assert {"gamma.dp", "gamma.f_hom"} <= {rec.names[i] for i in rec.name_id}
    metrics = spans.layer_metrics(rec, 1)
    assert metrics["gamma.f_hom.iterations"] > 0
    assert all(math.isfinite(value) for value in metrics.values())
