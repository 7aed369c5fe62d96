"""Span tracing of the tanhom package from outside it.

``Tracer`` wraps public functions and methods of every tanhom module and
records one span per call: name, start, end, parent span and run id (the
repeat index).  Spans stay in memory in flat arrays and are written out once
the run ends.  Counters (grid elements, solver iterations, evaluation points)
are taken at the same wrappers from arguments and results.

Wrappers are installed at every name callers look up: the package binds many
functions with ``from .x import y``, so a function is replaced in every
tanhom module namespace that holds it, and methods are replaced on the class
that defines them.  ``restore`` puts every original back.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

import tanhom.cell
import tanhom.cli
import tanhom.config
import tanhom.density
import tanhom.gamma
import tanhom.grid
import tanhom.integrand
import tanhom.manifold
import tanhom.optim

LAYERS = ("manifold", "integrand", "grid", "optim", "cell", "density", "gamma", "config", "cli")
# Layers with a ``layer.<name>.self_s`` total.  config and cli have one span
# each, reported as ``config.parse_s`` and ``cli.self_s``; the cli.main span
# covers the whole timed call, so ``cli.self_s`` is also what no layer covers.
LAYER_TOTALS = LAYERS[:-2]


class Recorder:
    """In-memory span store plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("i")
        self.current = -1
        self.run_id = 0
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` recording a span ``name`` per call; ``count(counts, args, out)``
        runs after a successful call."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        rec = self
        name_ids, starts, ends, parents, runs = (
            self.name_id, self.start, self.end, self.parent, self.run,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            parent = rec.current
            name_ids.append(nid)
            parents.append(parent)
            runs.append(rec.run_id)
            ends.append(0.0)
            rec.current = idx
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                rec.current = parent
            if count is not None:
                count(rec.counts, args, out)
            return out

        return wrapper

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "run": np.frombuffer(self.run, dtype=np.int32),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


# -- counters taken at the wrappers ---------------------------------------------


def _batch_points(xi) -> int:
    shape = np.shape(xi)
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


def _count_eval(counts, args, out):
    counts["integrand.eval.points"] += _batch_points(args[-1])


def _count_grid(counts, args, out):
    counts["grid.elements"] += args[0].n_elements
    counts["grid.bytes"] += args[1].nbytes + out.nbytes


def _count_cg(counts, args, out):
    counts["optim.cg.iterations"] += out.iterations


def _count_cell(counts, args, out):
    counts["cell.solve.iterations"] += out.iterations


def _count_interpolate(counts, args, out):
    counts["density.interpolate.points"] += int(np.size(out[0] if isinstance(out, tuple) else out))


def _count_gamma(prefix):
    def count(counts, args, out):
        counts[f"{prefix}.iterations"] += out.iterations
        counts["gamma.clamp_count"] += out.clamp_count

    return count


class Tracer:
    """Installs span wrappers over the tanhom package and removes them again."""

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self._patches: list[tuple[object, str, object]] = []

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def function(self, module, attr, replacement):
        """Replace ``module.attr`` in every tanhom namespace that binds it."""
        original = getattr(module, attr)
        wrapped = replacement(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "tanhom" or name.startswith("tanhom.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def span_function(self, module, attr, name, count=None):
        self.function(module, attr, lambda fn: self.rec.wrap(name, fn, count))

    def span_method(self, cls, attr, name, count=None):
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            self._set(cls, attr, classmethod(self.rec.wrap(name, original.__func__, count)))
        else:
            self._set(cls, attr, self.rec.wrap(name, original, count))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- integrands are closures held by frozen dataclasses ----------------------

    def _traced_forms(self, ev, gr):
        ev = self.rec.wrap("integrand.eval", ev, _count_eval)
        gr = gr if gr is None else self.rec.wrap("integrand.grad", gr)
        return ev, gr

    def _traced_integrand(self, obj):
        ev, gr = self._traced_forms(obj.eval, obj.grad_xi)
        smoothed = obj.smoothed
        if smoothed is not None:
            base = smoothed

            def smoothed(mu):
                return self._traced_forms(*base(mu))

        return dataclasses.replace(obj, eval=ev, grad_xi=gr, smoothed=smoothed)

    def _factory(self, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            return self._traced_integrand(factory(*args, **kwargs))

        return make

    def install(self) -> None:
        m = tanhom
        for factory in ("make_isotropic_quadratic", "make_laminate_quadratic", "make_norm_linear"):
            self.function(m.integrand, factory, self._factory)

        S, E = m.manifold.Sphere, m.manifold.EmbeddedManifold
        self.span_method(S, "project_batch", "manifold.project_batch")
        self.span_method(S, "tangent_project_batch", "manifold.tangent_project_batch")
        self.span_method(S, "tangent_basis", "manifold.tangent_basis")
        self.span_method(E, "tangent_from_coeffs", "manifold.tangent_from_coeffs")
        self.span_method(E, "check_point", "manifold.checks")
        self.span_method(E, "tangency_residual", "manifold.checks")

        G = m.grid.UniformGrid
        self.span_method(G, "center_gradient", "grid.center_gradient", _count_grid)
        self.span_method(G, "center_gradient_adjoint", "grid.adjoint", _count_grid)
        self.span_method(G, "centers", "grid.centers")

        self.span_function(m.optim, "cg_quadratic", "optim.cg", _count_cg)

        self.span_method(m.cell.CellProblemSpec, "__post_init__", "cell.spec")
        self.span_method(m.cell._CellObjective, "value_and_grad", "cell.objective")
        self.span_function(m.cell, "solve_cell", "cell.solve", _count_cell)
        self.span_function(m.cell, "energy_of_field", "cell.energy")
        self.span_function(m.cell, "write_corrector_csv", "cell.csv_write")

        D = m.density.DensityTable
        self.span_function(m.density, "tf_hom", "density.tf_hom")
        self.span_function(m.density, "build_density_table", "density.build_table")
        self.span_method(D, "interpolate", "density.interpolate", _count_interpolate)
        self.span_method(D, "save", "density.table_save")
        self.span_method(D, "load", "density.table_load")
        self.span_method(D, "check_sandwich", "density.check_sandwich")

        self.span_function(m.gamma, "run_gamma_experiment", "gamma.experiment")
        self.span_function(m.gamma, "minimize_f_eps", "gamma.f_eps", _count_gamma("gamma.f_eps"))
        self.span_function(m.gamma, "minimize_f_hom", "gamma.f_hom", _count_gamma("gamma.f_hom"))
        self.span_function(m.gamma, "dp_minimize_hom", "gamma.dp")

        self.span_function(m.config, "parse_run_config", "config.parse")
        self.span_function(m.cli, "main", "cli.main")


# -- per-layer metrics ------------------------------------------------------------

# name -> unit, in report order.
PER_LAYER = {
    "grid.center_gradient.calls": "count",
    "grid.center_gradient.self_s": "s",
    "grid.adjoint.calls": "count",
    "grid.adjoint.self_s": "s",
    "grid.elements_per_call": "count",
    "grid.bytes_computed": "B",
    "integrand.eval.calls": "count",
    "integrand.eval.points": "count",
    "integrand.eval.self_s": "s",
    "integrand.grad.calls": "count",
    "integrand.grad.self_s": "s",
    "optim.cg.calls": "count",
    "optim.cg.iterations": "count",
    "optim.cg.self_s": "s",
    "cell.solve.calls": "count",
    "cell.solve.self_s": "s",
    "cell.solve_ms_p50": "ms",
    "cell.solve_ms_p90": "ms",
    "cell.ms_per_iter": "ms",
    "cell.objective.calls": "count",
    "cell.objective.self_s": "s",
    "cell.spec.self_s": "s",
    "cell.csv_write_s": "s",
    "density.tf_hom.calls": "count",
    "density.tf_hom.self_s": "s",
    "density.build_table.self_s": "s",
    "density.table_save_s": "s",
    "density.table_load_s": "s",
    "density.interpolate.calls": "count",
    "density.interpolate.points": "count",
    "density.interpolate.self_s": "s",
    "gamma.f_eps.wall_s": "s",
    "gamma.f_eps.iterations": "count",
    "gamma.f_hom.wall_s": "s",
    "gamma.f_hom.iterations": "count",
    "gamma.interp_per_iter": "ratio",
    "gamma.dp.wall_s": "s",
    "gamma.clamp_count": "count",
    "manifold.project_batch.calls": "count",
    "manifold.project_batch.self_s": "s",
    "manifold.tangent_project_batch.self_s": "s",
    "manifold.tangent_basis.calls": "count",
    "config.parse_s": "s",
    "cli.self_s": "s",
    **{f"layer.{layer}.self_s": "s" for layer in LAYER_TOTALS},
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}


def layer_metrics(rec: Recorder, repeats: int) -> dict[str, float]:
    """Per-repeat layer metrics from the recorded spans and counters.

    Self time is a span's duration minus the durations of its direct
    children; layer totals sum the self times of the layer's spans, so with
    ``config.parse_s`` and ``cli.self_s`` they add up to the traced wall time.
    """
    cols = rec.arrays()
    nid, parent = cols["name_id"], cols["parent"]
    dur = cols["end"] - cols["start"]
    child = np.zeros_like(dur)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    own = dur - child
    n = len(rec.names)
    calls = np.bincount(nid, minlength=n)
    self_s = np.bincount(nid, weights=own, minlength=n)
    incl_s = np.bincount(nid, weights=dur, minlength=n)
    ids = {name: i for i, name in enumerate(rec.names)}

    def c(name):
        return float(calls[ids[name]]) / repeats if name in ids else 0.0

    def s(name):
        return float(self_s[ids[name]]) / repeats if name in ids else 0.0

    def incl(name):
        return float(incl_s[ids[name]]) / repeats if name in ids else 0.0

    def k(name):
        return float(rec.counts[name]) / repeats

    def ratio(a, b):
        return a / b if b else 0.0

    def children_of(parent_name, child_name):
        if parent_name not in ids or child_name not in ids:
            return 0.0
        mask = nested & (nid == ids[child_name])
        return float(np.count_nonzero(nid[parent[mask]] == ids[parent_name])) / repeats

    solve_ms = 1e3 * dur[nid == ids["cell.solve"]] if "cell.solve" in ids else np.zeros(0)
    grid_calls = c("grid.center_gradient") + c("grid.adjoint")
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, i in ids.items():
        layer_self[name.split(".")[0]] += float(self_s[i]) / repeats

    out = {
        "grid.center_gradient.calls": c("grid.center_gradient"),
        "grid.center_gradient.self_s": s("grid.center_gradient"),
        "grid.adjoint.calls": c("grid.adjoint"),
        "grid.adjoint.self_s": s("grid.adjoint"),
        "grid.elements_per_call": ratio(k("grid.elements"), grid_calls),
        "grid.bytes_computed": k("grid.bytes"),
        "integrand.eval.calls": c("integrand.eval"),
        "integrand.eval.points": k("integrand.eval.points"),
        "integrand.eval.self_s": s("integrand.eval"),
        "integrand.grad.calls": c("integrand.grad"),
        "integrand.grad.self_s": s("integrand.grad"),
        "optim.cg.calls": c("optim.cg"),
        "optim.cg.iterations": k("optim.cg.iterations"),
        "optim.cg.self_s": s("optim.cg"),
        "cell.solve.calls": c("cell.solve"),
        "cell.solve.self_s": s("cell.solve"),
        "cell.solve_ms_p50": float(np.percentile(solve_ms, 50)) if solve_ms.size else 0.0,
        "cell.solve_ms_p90": float(np.percentile(solve_ms, 90)) if solve_ms.size else 0.0,
        "cell.ms_per_iter": 1e3 * ratio(incl("cell.solve"), k("cell.solve.iterations")),
        "cell.objective.calls": c("cell.objective"),
        "cell.objective.self_s": s("cell.objective"),
        "cell.spec.self_s": s("cell.spec"),
        "cell.csv_write_s": incl("cell.csv_write"),
        "density.tf_hom.calls": c("density.tf_hom"),
        "density.tf_hom.self_s": s("density.tf_hom"),
        "density.build_table.self_s": s("density.build_table"),
        "density.table_save_s": incl("density.table_save"),
        "density.table_load_s": incl("density.table_load"),
        "density.interpolate.calls": c("density.interpolate"),
        "density.interpolate.points": k("density.interpolate.points"),
        "density.interpolate.self_s": s("density.interpolate"),
        "gamma.f_eps.wall_s": incl("gamma.f_eps"),
        "gamma.f_eps.iterations": k("gamma.f_eps.iterations"),
        "gamma.f_hom.wall_s": incl("gamma.f_hom"),
        "gamma.f_hom.iterations": k("gamma.f_hom.iterations"),
        "gamma.interp_per_iter": ratio(
            children_of("gamma.f_hom", "density.interpolate"), k("gamma.f_hom.iterations")
        ),
        "gamma.dp.wall_s": incl("gamma.dp"),
        "gamma.clamp_count": k("gamma.clamp_count"),
        "manifold.project_batch.calls": c("manifold.project_batch"),
        "manifold.project_batch.self_s": s("manifold.project_batch"),
        "manifold.tangent_project_batch.self_s": s("manifold.tangent_project_batch"),
        "manifold.tangent_basis.calls": c("manifold.tangent_basis"),
        "config.parse_s": incl("config.parse"),
        "cli.self_s": s("cli.main"),
        **{f"layer.{layer}.self_s": layer_self[layer] for layer in LAYER_TOTALS},
        "trace.spans": len(nid) / repeats,
    }
    return out
