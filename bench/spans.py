"""Span tracer that instruments moyalcalc from outside the package.

Each traced public function is replaced, for the duration of one traced run,
by a wrapper that records a span (name, start, end, parent) and, for a few
functions, a work count taken from the arguments and the result. The
package source is never edited: the wrappers are bound into every module
namespace that holds the original object, because modules such as
``connections`` and ``verify`` do ``from .elements import star`` and would
otherwise keep calling the unwrapped function.

Spans live in memory in flat arrays and are written out once the run ends.
Self times are derived from the spans: a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import time
from array import array

# (metric span name, module, attribute, work counter). The work counter maps
# (args, result) to up to two integers stored with the span.
FUNCTIONS = [
    ("elements.star", "elements", "star",
     lambda a, r: (len(a[0].terms) * len(a[1].terms), len(r.terms))),
    ("elements.commutator", "elements", "commutator", None),
    ("elements.pointwise", "elements", "pointwise", None),
    ("elements.serialize", "elements", "dump_element", None),
    ("elements.serialize", "elements", "load_element", None),
    ("expressions.parse", "expressions", "parse_expression",
     lambda a, r: (len(r.terms), 0)),
    ("expressions.format", "expressions", "format_element",
     lambda a, r: (len(a[0].terms), 0)),
    ("derivations.eta", "derivations", "eta", None),
    ("derivations.decompose", "derivations", "decompose_eta_combination", None),
    ("connections.covariant_coordinates", "connections", "covariant_coordinates", None),
    ("connections.curvature", "connections", "curvature", None),
    ("connections.curvature_generic", "connections", "curvature_generic", None),
    ("connections.gauge_transform", "connections", "gauge_transform", None),
    ("connections.action_density", "connections", "action_density", None),
    ("graded.bracket", "graded", "graded_bracket", None),
    ("graded.curvature", "graded", "graded_curvature", None),
    ("graded.curvature_generic", "graded", "graded_curvature_generic", None),
    ("graded.gauge_transform", "graded", "graded_gauge_transform", None),
    ("oneloop.ir_coefficient", "oneloop", "ir_coefficient", None),
    ("oneloop.bessel_m", "oneloop", "bessel_m", None),
    ("verify.core", "verify", "verify_core", None),
    ("verify.derivations", "verify", "verify_derivations", None),
    ("verify.connections", "verify", "verify_connections", None),
    ("verify.graded", "verify", "verify_graded", None),
    ("cli.main", "cli", "main", None),
    ("cli.verify", "cli", "_report_verify", None),
    ("cli.star", "cli", "_report_star", None),
    ("cli.curvature", "cli", "_report_curvature", None),
    ("cli.graded", "cli", "_report_graded", None),
    ("cli.oneloop", "cli", "_report_oneloop", None),
]

# (metric span name, module, class, methods). Nested calls of the same span
# name collapse into the outer span, so ``a - b`` (which runs ``-b`` and
# ``a + (-b)``) counts as one ring operation. ``MoyalElement * MoyalElement``
# is a star product, not a ring operation: it opens no ring span, and the
# ``star`` it calls is counted under ``elements.star``.
METHODS = [
    ("elements.ring", "elements", "MoyalElement",
     ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
      "__rmul__", "dag")),
    ("graded.mul", "graded", "GradedElement", ("__mul__", "__rmul__")),
    ("structure.construct", "structure", "SymplecticStructure", ("__post_init__",)),
]


class _IntegrateProxy:
    """Stands in for ``scipy.integrate`` inside ``oneloop`` with ``quad`` wrapped."""

    def __init__(self, module, quad):
        self._module = module
        self.quad = quad

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.work = array("q")
        self.out = array("q")
        self._stack = []
        self._undo = []

    def _intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self.work.append(0)
        self.out.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn, counter=None, collapse=False, skip=None):
        """Wrap ``fn`` in a span; ``skip(args)`` true calls ``fn`` without one."""
        nid = self._intern(name)
        stack, name_id = self._stack, self.name_id
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if (collapse and stack and name_id[stack[-1]] == nid) or (skip and skip(args)):
                return fn(*args, **kwargs)
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if counter is not None:
                self.work[idx], self.out[idx] = counter(args, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------
    def _rebind(self, original, replacement, modules):
        """Bind ``replacement`` wherever a module namespace or dict holds ``original``."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((setattr, mod, attr, original))
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = replacement
                            self._undo.append((dict.__setitem__, value, key, original))

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "moyalcalc" or n.startswith("moyalcalc."))]
        pkg = {n.rsplit(".", 1)[-1]: m for n, m in sys.modules.items()
               if n.startswith("moyalcalc.") and m is not None}
        for name, mod, attr, counter in FUNCTIONS:
            original = getattr(pkg[mod], attr)
            self._rebind(original, self.wrap(name, original, counter), modules)
        for name, mod, cls_name, methods in METHODS:
            cls = getattr(pkg[mod], cls_name)
            for meth in methods:
                original = cls.__dict__[meth]
                skip = None
                if name == "elements.ring" and meth in ("__mul__", "__rmul__"):
                    def skip(args, cls=cls):
                        return isinstance(args[1], cls)
                setattr(cls, meth, self.wrap(name, original, collapse=True, skip=skip))
                self._undo.append((setattr, cls, meth, original))
        oneloop = pkg["oneloop"]
        integrate = oneloop.integrate
        oneloop.integrate = _IntegrateProxy(
            integrate, self.wrap("oneloop.quad", integrate.quad))
        self._undo.append((setattr, oneloop, "integrate", integrate))

    def uninstall(self):
        while self._undo:
            setter, target, key, original = self._undo.pop()
            setter(target, key, original)

    # -- analysis --------------------------------------------------------
    def __len__(self):
        return len(self.start)

    def summary(self, root_name):
        """Per span name: calls, inclusive and self seconds, work sums,
        over the spans below the root spans called ``root_name``."""
        n = len(self.start)
        child = [0] * n
        root = [0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            root[i] = i if p < 0 else root[p]
            if p >= 0:
                child[p] += end[i] - start[i]
        want = self._name_ids.get(root_name)
        out = {}
        for i in range(n):
            if self.name_id[root[i]] != want:
                continue
            rec = out.setdefault(self.names[self.name_id[i]],
                                 {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "work": 0, "out": 0})
            dur = end[i] - start[i]
            rec["calls"] += 1
            rec["incl_s"] += dur * 1e-9
            rec["self_s"] += (dur - child[i]) * 1e-9
            rec["work"] += self.work[i]
            rec["out"] += self.out[i]
        return out

    def write(self, path):
        """Write every span as one CSV line: id, parent, name, start_ns, end_ns, work, out."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns,work,out\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i},{self.parent[i]},{names[self.name_id[i]]},"
                         f"{self.start[i]},{self.end[i]},{self.work[i]},{self.out[i]}\n")


def layer_metrics(workload, checks):
    """The per-layer metrics from the summaries of the workload and check roots."""
    def get(name, field):
        return workload.get(name, {}).get(field, 0)

    star_self = get("elements.star", "self_s")
    m = {
        "elements.star.calls": (get("elements.star", "calls"), "count"),
        "elements.star.pairs": (get("elements.star", "work"), "count"),
        "elements.star.out_terms": (get("elements.star", "out"), "count"),
        "elements.star.self_s": (star_self, "s"),
        "elements.star.pairs_per_s": (
            get("elements.star", "work") / star_self if star_self else 0.0, "1/s"),
    }
    for name in ("elements.commutator", "elements.ring"):
        m[name + ".calls"] = (get(name, "calls"), "count")
        m[name + ".self_s"] = (get(name, "self_s"), "s")
    m["elements.pointwise.self_s"] = (get("elements.pointwise", "self_s"), "s")
    # serialisation runs only in the benchmark's own round-trip check, which
    # lies outside the timed sequence, so it is read from the check root
    m["elements.serialize.self_s"] = (
        checks.get("elements.serialize", {}).get("self_s", 0.0), "s")
    for name in ("expressions.parse", "expressions.format"):
        m[name + ".calls"] = (get(name, "calls"), "count")
        m[name + ".terms"] = (get(name, "work"), "count")
        m[name + ".self_s"] = (get(name, "self_s"), "s")
    for name in ("derivations.eta", "derivations.decompose", "oneloop.ir_coefficient",
                 "oneloop.quad"):
        m[name + ".calls"] = (get(name, "calls"), "count")
        m[name + ".self_s"] = (get(name, "self_s"), "s")
    m["connections.covariant_coordinates.calls"] = (
        get("connections.covariant_coordinates", "calls"), "count")
    for name in ("connections.curvature", "connections.curvature_generic",
                 "connections.gauge_transform", "connections.action_density",
                 "graded.curvature", "graded.curvature_generic", "graded.gauge_transform"):
        m[name + ".self_s"] = (get(name, "self_s"), "s")
    m["graded.mul.calls"] = (get("graded.mul", "calls"), "count")
    m["graded.bracket.calls"] = (get("graded.bracket", "calls"), "count")
    m["oneloop.bessel_m.calls"] = (get("oneloop.bessel_m", "calls"), "count")
    m["structure.constructions"] = (get("structure.construct", "calls"), "count")
    for suite in ("core", "derivations", "connections", "graded"):
        m[f"verify.{suite}.incl_s"] = (get(f"verify.{suite}", "incl_s"), "s")
    for cmd in ("verify", "star", "curvature", "graded", "oneloop"):
        m[f"cli.{cmd}.calls"] = (get(f"cli.{cmd}", "calls"), "count")
    m["cli.self_s"] = (sum(rec["self_s"] for name, rec in workload.items()
                           if name.startswith("cli.")), "s")
    return m
