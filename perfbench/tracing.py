"""Per-layer tracing by rebinding cellint's public functions to timing wrappers.

Each traced name is rebound in its defining module and in every cellint
module that imported it by name; methods are rebound on their class.  A
wrapper records the call as a span with its parent: per-point functions are
folded in memory into (name, parent) -> calls, total and child time, the
coarse ones are also kept as individual spans (name, start, end, parent,
job) and written out at the end.  Self time is total minus child time.
``uninstall`` puts every original object back; ``restored`` checks it.
A name that no longer exists is reported missing and its metrics read 0.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from pathlib import Path

# (layer, metric name, module, attribute, coarse): coarse spans are kept one by one
TARGETS = (
    ("cli", "cli.main", "cellint.cli", "main", True),
    ("formula_dsl", "formula_dsl.parse_expr", "cellint.formula_dsl", "parse_expr", False),
    ("formula_dsl", "formula_dsl.parse_poly", "cellint.formula_dsl", "parse_poly", False),
    ("formula_dsl", "formula_dsl.evaluate_fractional", "cellint.formula_dsl",
     "evaluate_fractional", False),
    ("oracle", "oracle.riemann_integrate", "cellint.oracle", "riemann_integrate", True),
    ("oracle", "oracle.eval_poly_mod", "cellint.oracle", "eval_poly_mod", False),
    ("oracle", "oracle.solution_histogram", "cellint.oracle", "solution_histogram", True),
    ("oracle", "oracle.count_solutions", "cellint.oracle", "count_solutions", True),
    ("polynomials", "polynomials.eval_int_terms", "cellint.polynomials", "eval_int_terms",
     False),
    ("polynomials", "polynomials.Polynomial.eval", "cellint.polynomials", "Polynomial.eval",
     False),
    ("padic_core", "padic_core.int_valuation", "cellint.padic_core", "int_valuation", False),
    ("padic_core", "padic_core.valuation", "cellint.padic_core", "valuation", False),
    ("padic_core", "padic_core.is_nth_power", "cellint.padic_core", "is_nth_power", False),
    ("padic_core", "padic_core.unit_coset_density", "cellint.padic_core",
     "unit_coset_density", False),
    ("rootval", "rootval.add", "cellint.rootval", "RootScaledValue.__add__", False),
    ("rootval", "rootval.mul", "cellint.rootval", "RootScaledValue.__mul__", False),
    ("cells", "cells.membership", "cellint.cells", "membership", False),
    ("cells", "cells.check_partition", "cellint.cells", "check_partition", True),
    ("cells", "cells.check_norm_description", "cellint.cells", "check_norm_description",
     True),
    ("qexp_sum", "qexp_sum.integrate_explicit_tower", "cellint.qexp_sum",
     "integrate_explicit_tower", True),
    ("qexp_sum", "qexp_sum.shell_sum", "cellint.qexp_sum", "shell_sum", False),
    ("qexp_sum", "qexp_sum.power_sum", "cellint.qexp_sum", "power_sum", False),
    ("expsums", "expsums.exp_sum", "cellint.expsums", "exp_sum", True),
    ("expsums", "expsums.decay_fit", "cellint.expsums", "decay_fit", True),
    ("expsums", "expsums.fourier_check", "cellint.expsums", "fourier_check", True),
)
# wrapping what oracle.compile_expr returns gives the per-point evaluator
EVALUATOR = ("oracle", "oracle.evaluator", "cellint.oracle", "compile_expr")
LAYERS = ("cli", "formula_dsl", "oracle", "polynomials", "padic_core", "rootval", "cells",
          "qexp_sum", "expsums")
TIMED = tuple(t[1] for t in TARGETS) + (EVALUATOR[1],)

# per-layer metrics beyond <name>.calls, <name>.self_s and <layer>.errors
DERIVED = (
    ("cli.exp_sum_calls_per_decay_job", "calls/job"),
    ("oracle.visit_ratio", "ratio"),
    ("oracle.ambiguous_ratio", "ratio"),
    ("padic_core.nth_power_cache.misses", "count"),
    ("padic_core.nth_power_cache.entries", "count"),
    ("cells.member_ratio", "ratio"),
    ("cells.ambiguous_ratio", "ratio"),
    ("expsums.points_enumerated", "count"),
    ("trace.overhead_s", "s"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in TIMED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.errors"] = "count"
    units.update(DERIVED)
    return units


def _resolve(module_name: str, attr: str):
    """(owner, attribute name, original) or None when the name is gone."""
    owner = sys.modules.get(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    original = (owner.__dict__ if isinstance(owner, type) else vars(owner)).get(leaf)
    return None if original is None else (owner, leaf, original)


class Tracer:
    def __init__(self, ci):
        self.ci = ci
        self.stack: list[list] = []  # frames [name, child seconds, span id]
        self.stats: dict[tuple[str, str | None], list] = {}  # [calls, total, child]
        self.spans: list[tuple] = []
        self.errors = {layer: 0 for layer in LAYERS}
        self._last_error: dict[str, BaseException] = {}
        self.counters = {"classes": 0, "ambiguous": 0, "members": 0, "cell_points": 0,
                         "cell_ambiguous": 0, "points_enumerated": 0,
                         "decay_exp_sums": 0}
        self.job = None
        self.job_kind = None
        self.missing: list[str] = []
        self._bound: list[tuple] = []  # (owner, attribute, original)
        self._compile_depth = 0

    # -- installing ----------------------------------------------------------------

    def _rebind(self, module_name: str, attr: str, make):
        found = _resolve(module_name, attr)
        if found is None:
            return False
        owner, leaf, original = found
        wrapper = make(original)
        if isinstance(owner, type):
            self._bound.append((owner, leaf, original))
            setattr(owner, leaf, wrapper)
            return True
        for name, module in list(sys.modules.items()):
            if name == "cellint" or name.startswith("cellint."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._bound.append((module, key, original))
                        setattr(module, key, wrapper)
        return True

    def install(self):
        for layer, name, module, attr, coarse in TARGETS:
            observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
            if not self._rebind(module, attr, lambda fn, a=(layer, name, coarse, observe):
                                self._wrap(fn, *a)):
                self.missing.append(name)
        if not self._rebind(EVALUATOR[2], EVALUATOR[3], self._wrap_compile):
            self.missing.append(EVALUATOR[1])

    def uninstall(self):
        for owner, key, original in reversed(self._bound):
            setattr(owner, key, original)

    def restored(self) -> bool:
        for owner, key, original in self._bound:
            current = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
            if current is not original:
                return False
        return True

    # -- wrappers ------------------------------------------------------------------

    def _wrap(self, fn, layer, name, coarse, observe):
        stack, stats, spans, clock = self.stack, self.stats, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0, len(spans) if coarse else None]
            if coarse:
                spans.append(None)  # filled in on exit, so ids follow start order
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as ex:
                self._error(layer, ex)
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                pname = None
                if parent is not None:
                    parent[1] += dur
                    pname = parent[0]
                st = stats.get((name, pname))
                if st is None:
                    st = stats[(name, pname)] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dur
                st[2] += frame[1]
                if coarse:
                    spans[frame[2]] = (name, t0, t1, None if parent is None else parent[2],
                                       self.job)
            if observe is not None:
                observe(fn, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_compile(self, fn):
        def compile_wrapper(*args, **kwargs):
            self._compile_depth += 1
            try:
                run = fn(*args, **kwargs)
            finally:
                self._compile_depth -= 1
            if self._compile_depth:
                return run  # a sub-expression: only the whole evaluator is timed
            return self._wrap(run, "oracle", EVALUATOR[1], False, None)

        compile_wrapper.__wrapped__ = fn
        return compile_wrapper

    def _error(self, layer: str, ex: BaseException):
        if self._last_error.get(layer) is not ex:  # count each exception once per layer
            self._last_error[layer] = ex
            self.errors[layer] += 1

    # -- observers: counts taken from arguments and results --------------------------

    def _observe_oracle_riemann_integrate(self, fn, args, kwargs, result):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        ctx, arity, level = (bound.arguments[k] for k in ("ctx", "arity", "level"))
        self.counters["classes"] += ctx.p ** (arity * level)
        self.counters["ambiguous"] += result.ambiguous_count

    def _observe_cells_membership(self, fn, args, kwargs, result):
        self.counters["members"] += bool(result[0])

    def _observe_cells_check_partition(self, fn, args, kwargs, result):
        self.counters["cell_points"] += result.points_tested
        self.counters["cell_ambiguous"] += result.ambiguous_points

    def _observe_cells_check_norm_description(self, fn, args, kwargs, result):
        self.counters["cell_points"] += result.points_checked
        self.counters["cell_ambiguous"] += result.ambiguous_points

    def _observe_expsums_exp_sum(self, fn, args, kwargs, result):
        if result.level > 0:
            self.counters["points_enumerated"] += result.p ** (result.level * result.n)
        if self.job_kind == "cli_decay":
            self.counters["decay_exp_sums"] += 1

    # -- jobs and results ------------------------------------------------------------

    def begin_setup(self):
        self.job, self.job_kind = "setup", None

    def begin_job(self, job: dict):
        self.job, self.job_kind = job["id"], job["kind"]

    def _totals(self, name: str) -> tuple[int, float]:
        calls, self_s = 0, 0.0
        for (n, _), (c, total, child) in self.stats.items():
            if n == name:
                calls += c
                self_s += total - child
        return calls, self_s

    def metrics(self, job_list: list[dict], overhead_s: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in TIMED:
            out[f"{name}.calls"], out[f"{name}.self_s"] = self._totals(name)
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer]
        c = self.counters

        def ratio(a, b):
            return a / b if b else 0.0

        decay_jobs = sum(1 for j in job_list if j["kind"] == "cli_decay")
        out["cli.exp_sum_calls_per_decay_job"] = ratio(c["decay_exp_sums"], decay_jobs)
        out["oracle.visit_ratio"] = ratio(out["oracle.evaluator.calls"], c["classes"])
        out["oracle.ambiguous_ratio"] = ratio(c["ambiguous"], c["classes"])
        cache = getattr(getattr(self.ci.padic_core, "_unit_nth_power_residues", None),
                        "cache_info", None)
        if cache is None:
            self.missing += ["padic_core.nth_power_cache.misses",
                             "padic_core.nth_power_cache.entries"]
            out["padic_core.nth_power_cache.misses"] = 0
            out["padic_core.nth_power_cache.entries"] = 0
        else:
            info = cache()
            out["padic_core.nth_power_cache.misses"] = info.misses
            out["padic_core.nth_power_cache.entries"] = info.currsize
        out["cells.member_ratio"] = ratio(c["members"], out["cells.membership.calls"])
        out["cells.ambiguous_ratio"] = ratio(c["cell_ambiguous"], c["cell_points"])
        out["expsums.points_enumerated"] = c["points_enumerated"]
        out["trace.overhead_s"] = overhead_s
        return out

    def write_spans(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"fields": ["name", "start", "end", "parent", "job"], "spans": self.spans,
               "aggregated": [[n, parent, c, total, child]
                              for (n, parent), (c, total, child) in self.stats.items()]}
        path.write_text(json.dumps(doc))
