"""Spans and work counters recorded from outside the library.

`Tracer.install` replaces each traced public function by a wrapper at every
place it is looked up: the library imports by name, so
`polarvar.polar.enumerate_minors` and `polarvar.matrices.enumerate_minors`
are separate bindings of one function and both are patched.  A span holds
name, start, end, parent span and unit; spans stay in memory until the pass
ends.  Counters are computed from call arguments and results only, so they
repeat exactly for the same inputs.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

from polarvar.groebner import BudgetExceededError
from polarvar.polar import MinorCapExceededError

_now = time.monotonic


def _terms(polys) -> int:
    return sum(len(f.terms) for f in polys)


def _count_gb(c, args, kwargs, G):
    I = args[0]
    c["gens_in"] += len(I.generators)
    c["terms_in"] += _terms(I.generators)
    c["basis_out"] += len(G.basis)
    c["terms_out"] += _terms(G.basis)
    c["max_degree_out"] = max(c["max_degree_out"],
                              max((g.total_degree() for g in G.basis), default=0))


def _count_smooth(c, args, kwargs, report):
    c["ok"] += report.ok


def _count_cell(c, args, kwargs, result):
    c["draws"] += result.redraws_used + 1
    c["draws_ok"] += result.status == "ok"


def _count_points(c, args, kwargs, result):
    F = args[0]
    if result.exhaustive:
        c["points_scanned"] += F[0].field.q ** F[0].n
    c["points_found"] += len(result.points)


# (module, attribute, metric prefix, counter on return, counted exception)
TARGETS = (
    ("polarvar.matrices", "enumerate_minors", "matrices.enumerate_minors", None, None),
    ("polarvar.matrices", "determinant_division_free",
     "matrices.determinant_division_free", None, None),
    ("polarvar.matrices", "ConstMatrix.rank", "matrices.ConstMatrix.rank", None, None),
    ("polarvar.groebner", "reduced_groebner_basis", "groebner.reduced_groebner_basis",
     _count_gb, (BudgetExceededError, "budget_errors")),
    ("polarvar.groebner", "dimension", "groebner.staircase", None, None),
    ("polarvar.groebner", "degree", "groebner.staircase", None, None),
    ("polarvar.groebner", "normal_form", "groebner.normal_form", None, None),
    ("polarvar.polar", "verify_smooth_complete_intersection",
     "polar.verify_smooth_complete_intersection", _count_smooth, None),
    ("polarvar.polar", "polar_ideal", "polar.polar_ideal", None, None),
    ("polarvar.polar", "delta_ideal", "polar.delta_ideal", None, None),
    ("polarvar.polar", "singular_locus_ideal", "polar.singular_locus_ideal", None,
     (MinorCapExceededError, "minor_cap_fallbacks")),
    ("polarvar.polar", "thom_boardman_class", "polar.thom_boardman_class", None, None),
    ("polarvar.experiment", "run_cell", "experiment.run_cell", _count_cell, None),
    ("polarvar.experiment", "sample_points_small_field",
     "experiment.sample_points_small_field", _count_points, None),
    ("polarvar.families", "verify_singular_witness",
     "families.verify_singular_witness", None, None),
    ("polarvar.families", "example2_chain", "families.example2_chain", None, None),
    ("polarvar.families", "degree_domination_check",
     "families.degree_domination_check", None, None),
    ("polarvar.poly", "evaluate", "poly.evaluate", None, None),
)

UNIT = "unit"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.unit = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_unit = -1
        self.counters: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def begin(self, idx: int) -> int:
        sid = len(self.start)
        self.name.append(idx)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.unit.append(self.current_unit)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(_now())
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = _now()
        if self.stack[-1] == sid:
            self.stack.pop()
        else:  # a generator closed out of order
            self.stack.remove(sid)

    def begin_unit(self, number: int) -> int:
        self.current_unit = number
        return self.begin(self._name_index(UNIT))

    # ------------------------------------------------------------- patching

    def _wrap(self, fn, metric, on_return, on_error):
        idx = self._name_index(metric)
        counters = self.counters[metric]
        begin, finish = self.begin, self.finish

        if metric == "matrices.enumerate_minors":
            def minors(*args, **kwargs):
                sid = begin(idx)
                count = terms = 0
                try:
                    for m in fn(*args, **kwargs):
                        count += 1
                        terms += len(m.terms)
                        yield m
                finally:
                    finish(sid)
                    counters["minors"] += count
                    counters["terms_out"] += terms
            return minors

        def wrapper(*args, **kwargs):
            sid = begin(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                finish(sid)
                if on_error is not None and isinstance(exc, on_error[0]):
                    counters[on_error[1]] += 1
                raise
            finish(sid)
            if on_return is not None:
                on_return(counters, args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        """Patch every binding of every target inside the polarvar package."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "polarvar" or name.startswith("polarvar."))]
        for module_name, attr, metric, on_return, on_error in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(getattr(cls, meth), metric,
                                              on_return, on_error))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, metric, on_return, on_error)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    # ---------------------------------------------------------- aggregation

    def layer_metrics(self) -> dict[str, float]:
        """calls and busy_s count outermost spans of a name (a dimension call
        inside degree is one staircase call); self_s is a span's time minus
        its direct children, summed over every span of the name."""
        n = len(self.start)
        child_time = [0.0] * n
        dur = [self.end[s] - self.start[s] for s in range(n)]
        for s in range(n):
            p = self.parent[s]
            if p >= 0:
                child_time[p] += dur[s]
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        top = 0.0
        for s in range(n):
            name = self.names[self.name[s]]
            self_s[name] += dur[s] - child_time[s]
            p = self.parent[s]
            if p < 0:
                top += dur[s]
            while p >= 0 and self.name[p] != self.name[s]:
                p = self.parent[p]
            if p < 0:
                calls[name] += 1
                busy[name] += dur[s]
        out: dict[str, float] = {"trace.top_spans_s": top, "trace.spans": n}
        for name in self.names:
            if name == UNIT:
                out["trace.unit_self_s"] = self_s[name]
                continue
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = self_s[name]
        for name, counters in self.counters.items():
            for key, value in counters.items():
                out[f"{name}.{key}"] = value
        return out

    def write_spans(self, path: str) -> None:
        """One tab-separated line per span: id, parent, unit, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tunit\tname\tstart\tend\n")
            names = self.names
            fh.writelines(
                f"{s}\t{self.parent[s]}\t{self.unit[s]}\t{names[self.name[s]]}\t"
                f"{self.start[s]:.9f}\t{self.end[s]:.9f}\n"
                for s in range(len(self.start)))
