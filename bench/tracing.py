"""Layer spans for the traced benchmark run, recorded from outside critsep.

Each layer entry point is wrapped and the wrapper is bound in every critsep
namespace that holds the original object.  ``solver`` and ``cli`` import
their callees by name, so patching only the defining module would miss the
calls that matter; the search by identity finds every binding.  Methods of
``geometry.ReducedGrid`` are patched on the class.  Everything is restored
when the ``Tracer`` context exits.

A span is ``(id, parent id, operation id, name, start, end)``.  Spans are
kept in memory and written out by ``write_spans``; counts, inclusive time
and self time (inclusive time minus the time covered by child spans) are
accumulated as spans close.

With ``spans=False`` only the solver entry points are wrapped, and only to
tally their iteration counts; that is the mode the end-to-end passes use.
"""

import importlib
import time
from collections import defaultdict

MODULES = ("geometry", "functional", "solver", "separation", "scalar", "cli")

# span name -> (defining module, attribute, class or None)
LAYERS = {
    "geometry.solve_h1": ("geometry", "solve_h1", "ReducedGrid"),
    "geometry.apply_h1": ("geometry", "apply_h1", "ReducedGrid"),
    "geometry.h1_form": ("geometry", "h1_form", None),
    "geometry.integrate": ("geometry", "integrate", None),
    "functional.pair_integrals": ("functional", "pair_integrals", None),
    "functional.nehari_project": ("functional", "nehari_project", None),
    "functional.tangent_gradient_full": ("functional", "tangent_gradient_full", None),
    "functional.scaling_grid_start": ("functional", "_scaling_grid_start", None),
    "solver.minimize_nehari": ("solver", "minimize_nehari", None),
    "solver.minimize_limit": ("solver", "minimize_limit", None),
    "solver.pair_newton_direction": ("solver", "_pair_newton_direction", None),
    "solver.limit_newton_direction": ("solver", "_limit_newton_direction", None),
    "solver.solve_banded": ("solver", "solve_banded", None),
    "separation.sweep_lambda": ("separation", "sweep_lambda", None),
    "separation.interface_locate": ("separation", "interface_locate", None),
    "scalar.sync_solve": ("scalar", "sync_solve", None),
    "scalar.sync_brute_cells": ("scalar", "sync_brute_cells", None),
    "scalar.plane_critical_points": ("scalar", "plane_critical_points", None),
    "cli.cmd_solve": ("cli", "cmd_solve", None),
    "cli.cmd_sweep": ("cli", "cmd_sweep", None),
    "cli.cmd_sync_threshold": ("cli", "cmd_sync_threshold", None),
    "cli.cmd_verify": ("cli", "cmd_verify", None),
}
SOLVERS = ("solver.minimize_nehari", "solver.minimize_limit")

# per-layer metric -> unit; every traced run reports all of them
PER_LAYER_UNITS = {
    **{f"geometry.{f}.{k}": u
       for f in ("solve_h1", "h1_form", "apply_h1", "integrate")
       for k, u in (("calls", "count"), ("s", "s"))},
    **{f"functional.{f}.{k}": u
       for f in ("pair_integrals", "nehari_project", "tangent_gradient_full")
       for k, u in (("calls", "count"), ("s", "s"))},
    "functional.nehari_project.fallbacks": "count",
    "functional.nehari_project.fallback_frac": "ratio",
    "functional.nehari_project.failures": "count",
    "solver.minimize_nehari.s": "s",
    "solver.minimize_limit.s": "s",
    "solver.newton_step.calls": "count",
    "solver.newton_step.s": "s",
    "solver.banded_solve.calls": "count",
    "solver.projections_per_iter": "count/iter",
    "solver.s_per_iter": "s/iter",
    "separation.sweep_lambda.self_s": "s",
    "separation.interface_locate.calls": "count",
    "scalar.sync_solve.calls": "count",
    "scalar.sync_solve.s": "s",
    "scalar.sync_brute_cells.s": "s",
    "scalar.plane_critical_points.s": "s",
    "cli.cmd.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

# Which workloads must show a nonzero value for a layer metric: the layer is
# predicted to move an end-to-end metric there, so a zero means the wrapper
# no longer reaches it.  Failure counts are left out: zero is a valid value.
EXPECT_NONZERO = {
    "continuation": [
        "geometry.solve_h1.calls", "geometry.h1_form.calls",
        "geometry.apply_h1.calls", "geometry.integrate.calls",
        "solver.minimize_nehari.s", "solver.minimize_limit.s",
        "solver.newton_step.calls", "solver.banded_solve.calls",
        "separation.sweep_lambda.self_s", "separation.interface_locate.calls",
        "cli.cmd.self_s", "cli.bytes_written",
    ],
    "cold-fine": [
        "functional.pair_integrals.calls", "functional.nehari_project.calls",
        "functional.tangent_gradient_full.calls",
        "functional.nehari_project.fallbacks",
        "functional.nehari_project.fallback_frac",
        "solver.minimize_nehari.s", "solver.newton_step.calls",
        "solver.banded_solve.calls", "cli.cmd.self_s", "cli.bytes_written",
    ],
    "deep-segregation": [
        "functional.pair_integrals.calls", "functional.nehari_project.calls",
        "functional.tangent_gradient_full.calls",
        "solver.projections_per_iter", "solver.s_per_iter",
        "separation.sweep_lambda.self_s", "separation.interface_locate.calls",
        "cli.cmd.self_s", "cli.bytes_written",
    ],
    "scalar": [
        "scalar.sync_solve.calls", "scalar.sync_solve.s",
        "scalar.sync_brute_cells.s", "scalar.plane_critical_points.s",
        "cli.cmd.self_s", "cli.bytes_written",
    ],
}


class Tracer:
    """Context manager that wraps the layer entry points of critsep."""

    def __init__(self, spans=True):
        self.spans_on = spans
        self.missing = []
        self._patches = []
        self.reset()

    def reset(self):
        """Clear everything recorded so far (patches stay in place)."""
        self.op = 0
        self.iterations = defaultdict(int)
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.raised = defaultdict(int)
        self.projections_in_solver = 0
        self.spans = []
        self._stack = []

    # -- patching -------------------------------------------------------
    def __enter__(self):
        mods = {m: importlib.import_module(f"critsep.{m}") for m in MODULES}
        namespaces = [importlib.import_module("critsep"), *mods.values()]
        names = LAYERS if self.spans_on else {n: LAYERS[n] for n in SOLVERS}
        for name, (mod, attr, cls) in names.items():
            owner = getattr(mods[mod], cls) if cls else mods[mod]
            original = owner.__dict__.get(attr) if cls else getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            if cls:
                self._bind(owner, attr, original, wrapper)
                continue
            for m in namespaces:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._bind(m, key, original, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def _bind(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        if not self.spans_on:
            def tally(*args, **kwargs):
                res = fn(*args, **kwargs)
                self.iterations[name] += res.iterations
                return res
            return tally

        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return traced

    # -- spans ----------------------------------------------------------
    def _call(self, name, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id in call order
        frame = [name, 0.0, span_id]  # name, time covered by children, id
        stack.append(frame)
        if name == "functional.nehari_project" and any(
            f[0] == "solver.minimize_nehari" for f in stack
        ):
            self.projections_in_solver += 1
        t0 = time.perf_counter()
        try:
            res = fn(*args, **kwargs)
        except BaseException:
            self.raised[name] += 1
            raise
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            self.calls[name] += 1
            self.incl[name] += dur
            self.self_time[name] += dur - frame[1]
            if parent is not None:
                parent[1] += dur
            self.spans[span_id] = (span_id, parent[2] if parent else -1,
                                   self.op, name, t0, t1)
        if name in SOLVERS:
            self.iterations[name] += res.iterations
        return res

    def write_spans(self, path):
        """Write the spans as CSV: id,parent,op,name,start_s,end_s."""
        with open(path, "w") as fh:
            fh.write("id,parent,op,name,start_s,end_s\n")
            for span in self.spans:
                fh.write("%d,%d,%d,%s,%.9f,%.9f\n" % span)

    # -- metrics --------------------------------------------------------
    def total_iterations(self):
        return sum(self.iterations.values())

    def layer_metrics(self):
        """Per-layer metrics of everything recorded since the last reset."""
        c, s = self.calls, self.incl
        out = {}
        for f in ("solve_h1", "h1_form", "apply_h1", "integrate"):
            out[f"geometry.{f}.calls"] = c[f"geometry.{f}"]
            out[f"geometry.{f}.s"] = s[f"geometry.{f}"]
        for f in ("pair_integrals", "nehari_project", "tangent_gradient_full"):
            out[f"functional.{f}.calls"] = c[f"functional.{f}"]
            out[f"functional.{f}.s"] = s[f"functional.{f}"]
        projections = c["functional.nehari_project"]
        fallbacks = c["functional.scaling_grid_start"]
        out["functional.nehari_project.fallbacks"] = fallbacks
        out["functional.nehari_project.fallback_frac"] = (
            fallbacks / projections if projections else 0.0)
        out["functional.nehari_project.failures"] = self.raised["functional.nehari_project"]
        newton = ("solver.pair_newton_direction", "solver.limit_newton_direction")
        iters = self.iterations["solver.minimize_nehari"]
        out["solver.minimize_nehari.s"] = s["solver.minimize_nehari"]
        out["solver.minimize_limit.s"] = s["solver.minimize_limit"]
        out["solver.newton_step.calls"] = sum(c[n] for n in newton)
        out["solver.newton_step.s"] = sum(s[n] for n in newton)
        out["solver.banded_solve.calls"] = c["solver.solve_banded"]
        out["solver.projections_per_iter"] = (
            self.projections_in_solver / iters if iters else 0.0)
        out["solver.s_per_iter"] = s["solver.minimize_nehari"] / iters if iters else 0.0
        out["separation.sweep_lambda.self_s"] = self.self_time["separation.sweep_lambda"]
        out["separation.interface_locate.calls"] = c["separation.interface_locate"]
        out["scalar.sync_solve.calls"] = c["scalar.sync_solve"]
        out["scalar.sync_solve.s"] = s["scalar.sync_solve"]
        out["scalar.sync_brute_cells.s"] = s["scalar.sync_brute_cells"]
        out["scalar.plane_critical_points.s"] = s["scalar.plane_critical_points"]
        out["cli.cmd.self_s"] = sum(
            v for k, v in self.self_time.items() if k.startswith("cli.cmd_"))
        out["trace.spans"] = len(self.spans)
        return out
