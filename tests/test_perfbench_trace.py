"""Guard for the benchmark's span tracer.

``perfbench/spans.py`` wraps functions and methods of the package by name.
Installing it on the current code and restoring it checks that every name it
wraps still exists, so a deleted name fails here instead of breaking
``perfbench/run.py --trace 1``.
"""

import importlib.util
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
