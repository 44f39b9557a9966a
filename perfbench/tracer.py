"""Span tracer that wraps bgcs's module-level functions from outside the package.

`Tracer.install()` replaces every function defined in a bgcs module with a
timing wrapper and patches that wrapper into every bgcs namespace that
holds the original, so names bound by `from .coherent import _f_series_vec`
in `pathint` are traced too.  `uninstall()` restores the originals.  The
wrappers call through unchanged, so a traced pass must produce the same
report bytes as an untraced one; the harness checks that.

Public functions get spans; private helpers only where they are a hot
path of their own (PRIVATE_SPANS), so that a function's self time includes
the helpers that implement it.  Each call records a span (id, parent id,
name, start, end, whether it raised) in memory.  Self time is a span's
duration minus the time its direct child spans cover.  Hot leaves in
COUNT_ONLY are only counted: a span would cost more than their own work,
and that cost would land on their callers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass

import numpy as np

from harness import Check

MODULES = ("specfun", "quadrature", "coherent", "fock", "measure", "mc", "pathint", "cli")
PRIVATE_SPANS = frozenset({"coherent._f_series_vec", "measure._basis_monomials",
                           "measure._halfline_bessel_factor", "pathint._conv_table",
                           "pathint._kernel_quadrature", "quadrature._refine_trapezoid"})
COUNT_ONLY = frozenset({"specfun.log_gamma"})
METHODS = {"mc.RunningMoments": ("add", "merge")}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _sliced_samples(args, kwargs, result):
    params = result.params
    if params.get("backend") != "montecarlo":
        return {}
    return {"mc_samples": params["budget"],
            "nonfinite": params["nonfinite_count"]}


# extra work counters read from a traced call's arguments or result
COUNTERS = {
    "coherent._f_series_vec": lambda a, kw, r: {"lanes": int(np.size(_arg(a, kw, 1, "s")))},
    "measure.draw_labels": lambda a, kw, r: {"samples": int(_arg(a, kw, 1, "count"))},
    "quadrature._refine_trapezoid": lambda a, kw, r: {"evals": int(r[2])},
    "mc.RunningMoments.add": lambda a, kw, r: {"values": int(np.size(_arg(a, kw, 1, "values")))},
    "pathint.sliced_trace": _sliced_samples,
}


def _traced_functions(short, module):
    """(attribute name, function) for the public functions, lru-cached ones
    included, defined in `module` itself, plus its PRIVATE_SPANS."""
    for attr, obj in vars(module).items():
        target = getattr(obj, "__wrapped__", obj)
        if not (inspect.isfunction(target) and target.__module__ == module.__name__):
            continue
        if not attr.startswith("_") or f"{short}.{attr}" in PRIVATE_SPANS:
            yield attr, obj


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.reset()
        self._patches = []

    def reset(self):
        self.spans = []  # (id, parent id, name, start, end, raised)
        self.counts = {}  # calls of COUNT_ONLY functions
        self.counters = {}
        self._stack = []
        self._next_id = 0

    # --- installation --------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: importlib.import_module(f"bgcs.{name}") for name in MODULES}
        wrapped = {}
        for short, module in modules.items():
            for attr, fn in _traced_functions(short, module):
                wrapped[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        namespaces = [importlib.import_module("bgcs"), *modules.values()]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, wrapped[id(obj)][1])
        for qual, names in METHODS.items():
            short, cls_name = qual.split(".")
            cls = getattr(modules[short], cls_name)
            for name in names:
                fn = vars(cls)[name]
                self._patches.append((cls, name, fn))
                setattr(cls, name, self._wrap(f"{qual}.{name}", fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # --- spans ---------------------------------------------------------------

    def _wrap(self, name, fn):
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[name] = self.counts.get(name, 0) + 1
                return fn(*args, **kwargs)
            return counted

        counter = COUNTERS.get(name)
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id += 1
            stack.append(span_id)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end, raised))
                if counter is not None and not raised:
                    for key, value in counter(args, kwargs, result).items():
                        full = f"{name}.{key}"
                        self.counters[full] = self.counters.get(full, 0) + value

        return traced

    def root(self, check):
        """The check wrapped in a root span, the parent of every span under it."""
        return Check(check.name, self._wrap("perfbench.check", check.run))

    def summary(self):
        return Summary(self.spans, self.counts, self.counters)


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self: float = 0.0
    errors: int = 0
    entries: int = 0  # calls from outside the function's own module
    entry_errors: int = 0


def _module(name):
    return name.partition(".")[0]


class Summary:
    """Per-function aggregates of a span list, computed once it is complete."""

    def __init__(self, spans, counts=None, counters=None):
        self.counts = counts or {}
        self.counters = counters or {}
        module_of = {span_id: _module(name) for span_id, _, name, *_ in spans}
        child_time = {}
        for _, parent, _, start, end, _ in spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        self.stats = {}
        for span_id, parent, name, start, end, raised in spans:
            st = self.stats.setdefault(name, Stat())
            st.calls += 1
            st.total += end - start
            st.self += end - start - child_time.get(span_id, 0.0)
            st.errors += raised
            if parent is None or module_of[parent] != _module(name):
                st.entries += 1
                st.entry_errors += raised

    def calls(self, name):
        return self.stats[name].calls if name in self.stats else self.counts.get(name, 0)

    def self_s(self, name):
        return self.stats[name].self if name in self.stats else 0.0

    def module_self_s(self, module):
        return sum(st.self for name, st in self.stats.items() if _module(name) == module)

    def module_entries(self, module):
        """(calls into `module` from other modules, how many of them raised)."""
        picked = [st for name, st in self.stats.items() if _module(name) == module]
        return sum(st.entries for st in picked), sum(st.entry_errors for st in picked)

    def counter(self, name):
        return self.counters.get(name, 0)


def layer_metrics(t):
    """Per-module metrics from the Summary of one traced pass, as
    name -> (value, unit).  A layer the workload never enters reads 0."""

    def per(count, seconds, scale=1.0):
        return scale * count / seconds if seconds > 0 else 0.0

    bk_calls, bk_self = t.calls("specfun.bessel_k"), t.self_s("specfun.bessel_k")
    quad_calls, quad_errors = t.module_entries("quadrature")
    lanes, fsv_self = t.counter("coherent._f_series_vec.lanes"), t.self_s("coherent._f_series_vec")
    samples, dl_self = t.counter("measure.draw_labels.samples"), t.self_s("measure.draw_labels")
    mc_samples = t.counter("pathint.sliced_trace.mc_samples")
    return {
        "specfun.bessel_k.calls": (bk_calls, "count"),
        "specfun.bessel_k.self_s": (bk_self, "s"),
        "specfun.bessel_k.us_per_call": (per(bk_self, bk_calls, 1e6), "us"),
        "specfun.log_gamma.calls": (t.calls("specfun.log_gamma"), "count"),
        "quadrature.calls": (quad_calls, "count"),
        "quadrature.evals": (t.counter("quadrature._refine_trapezoid.evals"), "count"),
        "quadrature.self_s": (t.module_self_s("quadrature"), "s"),
        "quadrature.errors": (quad_errors, "count"),
        "coherent.f_series_vec.calls": (t.calls("coherent._f_series_vec"), "count"),
        "coherent.f_series_vec.lanes": (lanes, "count"),
        "coherent.f_series_vec.self_s": (fsv_self, "s"),
        "coherent.f_series_vec.lanes_per_s": (per(lanes, fsv_self), "1/s"),
        "coherent.coefficient.calls": (t.calls("coherent.coefficient"), "count"),
        "coherent.state_vector.self_s": (t.self_s("coherent.state_vector"), "s"),
        "fock.rep_space.calls": (t.calls("fock.rep_space"), "count"),
        "fock.rep_space.self_s": (t.self_s("fock.rep_space"), "s"),
        "fock.generator_matrix.calls": (t.calls("fock.generator_matrix"), "count"),
        "fock.generator_matrix.self_s": (t.self_s("fock.generator_matrix"), "s"),
        "fock.commutator_residual.self_s": (t.self_s("fock.commutator_residual"), "s"),
        "measure.draw_labels.samples": (samples, "count"),
        "measure.draw_labels.self_s": (dl_self, "s"),
        "measure.draw_labels.samples_per_s": (per(samples, dl_self), "1/s"),
        "measure.basis_monomials.self_s": (t.self_s("measure._basis_monomials"), "s"),
        "measure.resolution_check.self_s": (t.self_s("measure.resolution_check"), "s"),
        "measure.radial_cdf.self_s": (t.self_s("measure.radial_cdf"), "s"),
        "mc.running_moments.values": (t.counter("mc.RunningMoments.add.values"), "count"),
        "mc.running_moments.self_s": (t.self_s("mc.RunningMoments.add")
                                      + t.self_s("mc.RunningMoments.merge"), "s"),
        "mc.spawn_rngs.calls": (t.calls("mc.spawn_rngs"), "count"),
        "pathint.conv_table.self_s": (t.self_s("pathint._conv_table"), "s"),
        "pathint.transfer_eigenvalues.self_s": (t.self_s("pathint.transfer_eigenvalues"), "s"),
        "pathint.kernel_quadrature.self_s": (t.self_s("pathint._kernel_quadrature"), "s"),
        "pathint.sliced_trace.self_s": (t.self_s("pathint.sliced_trace"), "s"),
        "pathint.sliced_mc.nonfinite_frac": (
            per(t.counter("pathint.sliced_trace.nonfinite"), mc_samples), "frac"),
        "cli.main.calls": (t.calls("cli.main"), "count"),
        "cli.main.self_s": (t.module_self_s("cli"), "s"),
    }
