"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps the public entry points of each corneropt module, the model
callbacks of a :class:`ProblemInstance`, and SciPy's LP and NNLS solvers.
Every wrapped call opens a span on a stack; on exit the span's duration is
added to its parent's child time, so a span's self time is its duration
minus the time of the spans nested in it.  Aggregates per span name (calls,
inclusive seconds, self seconds) and named event counts are kept for the
per-layer metrics.  Spans of the layer entry points are also kept as records
``(name, start, end, parent, op)``; the high-frequency leaves (model
callbacks, retraction evaluations, LP and NNLS solves) are aggregated only.

Nothing under ``src/`` changes: all wrapping is done by re-binding module,
class and instance attributes for the length of a traced pass and restoring
them afterwards.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import sys
from collections import Counter
from time import perf_counter

# Span names whose records are not kept (aggregates only): they run once per
# model evaluation, tens of thousands of times per solve.
LEAVES = ("problem.f", "problem.g", "geometry.retract", "highs.linprog",
          "nnls.nnls")


class Tracer:
    """Span stack plus per-name aggregates for one traced pass."""

    def __init__(self):
        self.names: list = []
        self._index: dict = {}
        self.calls: list = []
        self.total: list = []
        self.self_time: list = []
        self.events: Counter = Counter()
        self.records: list = []
        self.stack: list = []
        self.active = False
        self.op_id = -1
        self._next_span = 0

    def index(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = len(self.names)
            self._index[name] = idx
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return idx

    # -- per-op bracketing ---------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        # root frame: [child seconds, span id, name index]
        self.stack = [[0.0, -1, -1]]
        self.active = True

    def end_op(self) -> None:
        self.active = False
        self.stack = []

    # -- wrapping --------------------------------------------------------------

    def wrap(self, fn, name: str, on_enter=None, on_result=None, on_error=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``on_enter(parent_name_index, args, kwargs)`` runs before the call,
        ``on_result(result, args, kwargs)`` after a normal return and
        ``on_error(exc, args, kwargs)`` after an exception (which is
        re-raised).  Outside an op the wrapper only forwards the call.
        """
        idx = self.index(name)
        keep = name not in LEAVES
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1]
            if on_enter is not None:
                on_enter(parent[2], args, kwargs)
            span_id = tracer._next_span
            tracer._next_span += 1
            frame = [0.0, span_id, idx]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(frame, parent, start, idx, keep)
                if on_error is not None:
                    on_error(exc, args, kwargs)
                raise
            tracer._close(frame, parent, start, idx, keep)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, frame, parent, start, idx, keep):
        end = perf_counter()
        self.stack.pop()
        dur = end - start
        self.calls[idx] += 1
        self.total[idx] += dur
        self.self_time[idx] += dur - frame[0]
        parent[0] += dur
        if keep:
            self.records.append((idx, start, end, parent[1], self.op_id))

    # -- summaries -------------------------------------------------------------

    def count_snapshot(self) -> dict:
        """Every deterministic count of the pass (no timings)."""
        out = {f"calls:{n}": c for n, c in zip(self.names, self.calls) if c}
        out.update({f"event:{k}": v for k, v in self.events.items() if v})
        return out

    def n_calls(self, name: str) -> int:
        idx = self._index.get(name)
        return 0 if idx is None else self.calls[idx]

    def total_s(self, name: str) -> float:
        idx = self._index.get(name)
        return 0.0 if idx is None else self.total[idx]

    def self_s(self, name: str) -> float:
        idx = self._index.get(name)
        return 0.0 if idx is None else self.self_time[idx]

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(t for n, t in zip(self.names, self.self_time)
                   if n.startswith(prefix))

    def span_dump(self) -> dict:
        """Span records and aggregates, for writing out after the run."""
        t0 = self.records[0][1] if self.records else 0.0
        return {
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [[self.names[i], round(s - t0, 9), round(e - t0, 9), p, op]
                      for (i, s, e, p, op) in self.records],
            "aggregates": {n: {"calls": c, "total_s": t, "self_s": s}
                           for n, c, t, s in zip(self.names, self.calls,
                                                 self.total, self.self_time) if c},
            "events": dict(self.events),
        }


def _caller_module() -> str:
    # frame 0: this helper, 1: on_enter, 2: wrapper, 3: the caller
    name = sys._getframe(3).f_globals.get("__name__", "?")
    return name.rsplit(".", 1)[-1]


class Instrumentation:
    """Installs the tracer's wrappers into corneropt and SciPy; undoes them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._patches: list = []
        self._problems: dict = {}
        self.missing: list = []

    def __enter__(self):
        self._install()
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._problems.clear()
        return False

    # -- patch helpers ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _function(self, module, attr, name, **hooks):
        """Wrap a module-level function everywhere corneropt has bound it."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapped = self.tracer.wrap(original, name, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "corneropt"
                                   or mod_name.startswith("corneropt.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def _method(self, cls, attr, name, **hooks):
        """Wrap a method defined on ``cls`` itself (not inherited)."""
        original = cls.__dict__.get(attr)
        if original is None or not inspect.isfunction(original):
            return
        self._set(cls, attr, self.tracer.wrap(original, name, **hooks))

    def _subclass_methods(self, module, base, attr, name):
        found = False
        for cls in vars(module).values():
            if inspect.isclass(cls) and issubclass(cls, base) \
                    and attr in cls.__dict__:
                self._method(cls, attr, name)
                found = True
        if not found:
            self.missing.append(f"{module.__name__}.{base.__name__}.{attr}")

    # -- what gets traced ------------------------------------------------------

    def _install(self):
        import scipy.optimize

        from corneropt import (cli, cones, corners, firstorder, geometry,
                               problem, secondorder, solver)

        tr = self.tracer
        ev = tr.events

        # SciPy back ends, keyed by the calling corneropt module.
        def lp_enter(_parent, _args, _kwargs):
            ev["lp." + _caller_module()] += 1

        def nnls_enter(_parent, _args, _kwargs):
            ev["nnls." + _caller_module()] += 1

        self._set(scipy.optimize, "linprog",
                  tr.wrap(scipy.optimize.linprog, "highs.linprog",
                          on_enter=lp_enter))
        self._set(scipy.optimize, "nnls",
                  tr.wrap(scipy.optimize.nnls, "nnls.nnls", on_enter=nnls_enter))

        # solver
        def solve_result(result, _args, _kwargs):
            ev["solver.iterations"] += len(result.iterations)

        def ls_result(step, _args, _kwargs):
            ev["ls.calls"] += 1
            ev["ls.halvings"] += int(round(-math.log2(step)))
            if step == 1.0:
                ev["ls.first_accept"] += 1

        def ls_error(exc, args, kwargs):
            opts = kwargs.get("opts", args[2] if len(args) > 2 else None)
            ev["ls.calls"] += 1
            ev["ls.halvings"] += int(getattr(opts, "max_halvings", 0))

        self._function(solver, "solve", "solver.solve", on_result=solve_result)
        self._function(solver, "solve_qp_active_set", "solver.qp")
        self._function(solver, "merit_and_linesearch", "solver.linesearch",
                       on_result=ls_result, on_error=ls_error)

        # first order
        for attr in ("check_transversality", "check_mfcq", "check_zkrcq",
                     "check_licq", "cq_report", "solve_kkt",
                     "stationarity_residual", "multiplier_set_probe",
                     "chart_switch_residual", "cone_membership_agreement",
                     "classical_report"):
            self._function(firstorder, attr, f"firstorder.{attr}")

        # second order
        def hessian_result(form, _args, _kwargs):
            ev["hessian." + str(form.source)] += 1

        for attr in ("build_pullback", "critical_cone", "invariance_check",
                     "transition_second_derivative", "second_order_consistent",
                     "sosc_check", "sonc_check"):
            self._function(secondorder, attr, f"secondorder.{attr}")
        self._function(secondorder, "lagrangian_hessian",
                       "secondorder.lagrangian_hessian", on_result=hessian_result)

        # cone algebra
        for attr in ("matrix_rank", "null_space", "nnls_mixed", "polar_contains",
                     "face", "implicit_equalities", "canonicalize", "span_basis",
                     "lineality_basis", "extreme_rays", "sample_cone",
                     "transport_cone", "linearizing_cone"):
            self._function(cones, attr, f"cones.{attr}")

        # geometry: chart and retraction builders, retraction evaluation,
        # finite-difference Jacobians and chart transitions
        self._subclass_methods(geometry, geometry.Manifold, "chart",
                               "geometry.chart")
        self._subclass_methods(geometry, geometry.Manifold, "retraction",
                               "geometry.retraction")
        self._subclass_methods(geometry, geometry.Manifold, "project",
                               "geometry.project")
        self._method(geometry.Retraction, "__call__", "geometry.retract")
        for attr in ("fd_jacobian_of", "transition_jacobian", "push_tangent",
                     "push_covector", "axiom_check"):
            self._function(geometry, attr, f"geometry.{attr}")

        # corner sets
        for attr in ("adapted_chart", "linearizing_map", "solver_reference",
                     "project"):
            self._subclass_methods(corners, corners.CornerSet, attr,
                                   f"corners.{attr}")
        for attr in ("corner_index", "inner_tangent_cone", "tangent_space_basis",
                     "zero_tangent_space", "validate", "check_adapted"):
            self._function(corners, attr, f"corners.{attr}")

        # problem instances
        for attr in ("chart_pair", "constraint_jacobian", "objective_gradient"):
            self._method(problem.ProblemInstance, attr, f"problem.{attr}")

        # command line: the model a command builds gets traced callbacks
        build = cli.RunConfig.build
        traced_build = tr.wrap(build, "models.build")
        self._set(cli.RunConfig, "build",
                  lambda config: self.problem(traced_build(config)))
        self._function(cli, "main", "cli.main")

    def problem(self, prob):
        """``prob`` with its objective and constraint callbacks counted."""
        key = id(prob)
        cached = self._problems.get(key)
        if cached is not None and cached[0] is prob:
            return cached[1]
        tr = self.tracer
        solve_idx = tr.index("solver.solve")

        def f_enter(parent, _args, _kwargs):
            if parent == solve_idx:
                tr.events["solver.self_f_evals"] += 1

        traced = dataclasses.replace(
            prob,
            objective=tr.wrap(prob.objective, "problem.f", on_enter=f_enter),
            constraint=tr.wrap(prob.constraint, "problem.g"))
        self._problems[key] = (prob, traced)
        return traced
