"""Spans around the library's public functions, recorded from outside.

The tracer wraps a function at every module binding that refers to it, so a
call made through ``otikin.solver.min_cost_plan`` and one made through
``otikin.lp.min_cost_plan`` both land in the same span. A name that no longer
exists is skipped. A call made while a span of the same name is open records
no span of its own, so nested LP entry points count once, at the outermost
LP call. Spans stay in memory until ``dump`` writes them.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

from stats import self_time, share

NAME, START, END, PARENT, OP, ATTRS = range(6)


def _uniform_equal(a, b) -> bool:
    """The library's dispatch rule for the assignment fast path."""
    if a.size != b.size:
        return False
    u = 1.0 / a.size
    return bool(abs(a - u).max() <= 1e-12 and abs(b - u).max() <= 1e-12)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _lp_probe(args, kwargs, result):
    cost = _arg(args, kwargs, 0, "cost")
    a = _arg(args, kwargs, 1, "a").ravel()
    b = _arg(args, kwargs, 2, "b").ravel()
    return {"cells": int(cost.shape[0] * cost.shape[1]), "assignment": _uniform_equal(a, b)}


def _fixed_probe(args, kwargs, result):
    return {"optimised": False}


def _solve_probe(args, kwargs, result):
    attrs = {"optimised": True, "iterations": int(getattr(result, "iterations", 0))}
    if hasattr(result, "budget_exhausted"):
        attrs["budget_exhausted"] = bool(result.budget_exhausted)
    traces = getattr(result, "alt_traces", None)
    if traces:
        # A start "wins" when its last iterate reaches the returned cost: the
        # share of starts that do is the multistart's useful-work ratio.
        best = float(result.cost_sq)
        finals = [t[-1] for t in traces if t]
        attrs["starts"] = len(traces)
        attrs["winning_starts"] = sum(
            1 for v in finals if abs(v - best) <= 1e-12 * max(1.0, abs(best))
        )
    return attrs


def _oracle_probe(args, kwargs, result):
    return {"vertices": int(getattr(result, "iterations", 0))}


def _build_probe(args, kwargs, result):
    return {"splines": len(result.splines)}


def _injectivity_probe(args, kwargs, result):
    ens = _arg(args, kwargs, 0, "e")
    n = len(ens.splines)
    pairs = n * (n - 1) // 2
    return {"pairs": pairs, "violated": bool(result.violated)}


def _integrate_probe(args, kwargs, result):
    states = result.states
    return {"particle_steps": int((states.shape[0] - 1) * states.shape[1])}


# (module, attribute, span name, probe). Every binding of the same function
# object in any loaded ``otikin`` module is wrapped, not only this one.
TARGETS = [
    ("otikin.lp", "transportation_simplex", "lp", _lp_probe),
    ("otikin.lp", "min_cost_plan", "lp", _lp_probe),
    ("otikin.measures", "plan_moments", "measures.plan_moments", None),
    ("otikin.measures", "load_measure", "measures.load", None),
    ("otikin.measures", "measure_to_csv", "measures.serialize", None),
    ("otikin.measures", "measure_to_json", "measures.serialize", None),
    ("otikin.solver", "pairwise_tilde_dT_sq", "solver.cost_matrix", None),
    ("otikin.solver", "solve_d", "solver.solve", _solve_probe),
    ("otikin.solver", "solve_tilde_d", "solver.solve", _solve_probe),
    ("otikin.solver", "solve_fixed_T", "solver.solve", _fixed_probe),
    ("otikin.solver", "brute_force_oracle", "solver.oracle", _oracle_probe),
    ("otikin.dynamics", "build_dynamical_plan", "dynamics.build", _build_probe),
    ("otikin.dynamics", "monge_mather_check", "dynamics.injectivity", _injectivity_probe),
    ("otikin.dynamics", "vlasov_integrate", "dynamics.integrate", _integrate_probe),
    ("otikin.dynamics", "interpolate_at", "dynamics.interpolate", None),
    ("otikin.cli", "main", "cli.main", None),
    ("otikin.cli", "canonical_json", "cli.canonical_json", None),
]


class Tracer:
    """Wrappers for the loaded targets; ``install`` and ``uninstall`` swap them in and out."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._wrappers: list[tuple[object, object]] = []
        self._undo: list[tuple[object, str, object]] = []
        for module_name, attr, span, probe in TARGETS:
            # A module nobody imported is never called into.
            orig = getattr(sys.modules.get(module_name), attr, None)
            if callable(orig) and all(orig is not o for o, _ in self._wrappers):
                self._wrappers.append((orig, self._wrap(span, orig, probe)))

    def _wrap(self, name, fn, probe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][NAME] == name:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[END] = clock()
                stack.pop()
                rec[ATTRS] = {"failed": True}
                raise
            rec[END] = clock()
            stack.pop()
            if probe is not None:
                try:
                    rec[ATTRS] = probe(args, kwargs, result)
                except (AttributeError, TypeError, IndexError):
                    pass  # the result no longer has the field; count nothing
            return result

        return traced

    def install(self) -> None:
        by_id = {id(orig): w for orig, w in self._wrappers}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "otikin" or mod_name.startswith("otikin.")):
                continue
            for key, val in list(vars(mod).items()):
                w = by_id.get(id(val))
                if w is not None:
                    setattr(mod, key, w)
                    self._undo.append((mod, key, val))

    def uninstall(self) -> None:
        while self._undo:
            mod, key, val = self._undo.pop()
            setattr(mod, key, val)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {"name": s[NAME], "start": s[START], "end": s[END],
                         "parent": s[PARENT], "op": s[OP], "attrs": s[ATTRS]}
                    )
                    + "\n"
                )


def injectivity_grid() -> int:
    """Interior times per pair of the injectivity scan, if it has a grid.

    An exact scan without a grid minimises each pair once, so it counts 1.
    """
    from otikin.dynamics import monge_mather_check

    p = inspect.signature(monge_mather_check).parameters.get("grid_size")
    return int(p.default) if p is not None and isinstance(p.default, int) else 1


def layer_metrics(spans, n_ops: int) -> dict[str, float]:
    """Per-layer totals from the spans, divided by the number of traced ops."""
    children: dict[int, list[tuple[float, float]]] = {}
    named: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        named.setdefault(s[NAME], []).append(i)
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))

    def count(name):
        return len(named.get(name, ()))

    def busy(name):
        return sum(spans[i][END] - spans[i][START] for i in named.get(name, ()))

    def attr_sum(name, key):
        return sum((spans[i][ATTRS] or {}).get(key, 0) for i in named.get(name, ()))

    def self_sum(name):
        return sum(
            self_time(spans[i][START], spans[i][END], children.get(i, ()))
            for i in named.get(name, ())
        )

    def under(i, ancestor):
        while spans[i][PARENT] >= 0:
            i = spans[i][PARENT]
            if spans[i][NAME] == ancestor:
                return True
        return False

    solve_attrs = [spans[i][ATTRS] or {} for i in named.get("solver.solve", ())]
    optimised = [a for a in solve_attrs if a.get("optimised")]
    multistart = [a for a in optimised if "starts" in a]
    per = 1.0 / n_ops
    return {
        "measures.plan_moments.calls": count("measures.plan_moments") * per,
        "measures.plan_moments.busy_s": busy("measures.plan_moments") * per,
        "solver.cost_matrix.calls": count("solver.cost_matrix") * per,
        "solver.cost_matrix.busy_s": busy("solver.cost_matrix") * per,
        "lp.calls": count("lp") * per,
        "lp.busy_s": busy("lp") * per,
        "lp.cells": attr_sum("lp", "cells") * per,
        "lp.failed": attr_sum("lp", "failed") * per,
        "lp.assignment_share": share(attr_sum("lp", "assignment"), count("lp")),
        "solver.solves": count("solver.solve") * per,
        "solver.self_s": self_sum("solver.solve") * per,
        "solver.alt_iterations": share(sum(a["iterations"] for a in optimised), len(optimised)),
        "solver.lp_calls_per_solve": share(
            sum(under(i, "solver.solve") for i in named.get("lp", ())), count("solver.solve")
        ),
        "solver.budget_exhausted": share(
            sum(bool(a.get("budget_exhausted")) for a in optimised), len(optimised)
        ),
        "solver.winning_start_share": share(
            sum(a["winning_starts"] for a in multistart), sum(a["starts"] for a in multistart)
        ),
        "solver.oracle.busy_s": busy("solver.oracle") * per,
        "solver.oracle.vertices": attr_sum("solver.oracle", "vertices") * per,
        "solver.oracle.vertices_per_s": share(
            attr_sum("solver.oracle", "vertices"), busy("solver.oracle")
        ),
        "dynamics.injectivity.busy_s": busy("dynamics.injectivity") * per,
        "dynamics.injectivity.pair_times": attr_sum("dynamics.injectivity", "pairs")
        * injectivity_grid()
        * per,
        "dynamics.injectivity.violations": attr_sum("dynamics.injectivity", "violated") * per,
        "dynamics.build.busy_s": busy("dynamics.build") * per,
        "dynamics.build.splines": attr_sum("dynamics.build", "splines") * per,
        "dynamics.integrate.busy_s": busy("dynamics.integrate") * per,
        "dynamics.integrate.particle_steps": attr_sum("dynamics.integrate", "particle_steps")
        * per,
        "dynamics.interpolate.busy_s": busy("dynamics.interpolate") * per,
        "cli.self_s": self_sum("cli.main") * per,
        "cli.canonical_json.busy_s": busy("cli.canonical_json") * per,
        "measures.load.busy_s": busy("measures.load") * per,
        "measures.serialize.busy_s": busy("measures.serialize") * per,
    }
