"""Span tracing of the library, from outside it.

:func:`install` wraps the public functions of ``numerics``, ``pdt``,
``bell``, ``photocount``, ``homodyne``, ``entangle``, ``channel`` and
``cli`` in place -- every module binding of a wrapped function, and the
methods on the transmittance-law classes -- and :func:`remove` puts the
originals back.  Wrappers pass arguments and results through untouched,
so traced values are bit-identical to untraced ones.

Spans live in memory in flat arrays (name, start, end, parent, call id,
evaluation count, law index, flags) and are written out when the run ends.
A span's self time is its duration minus the durations of its direct
children, each child subtracted once.  The callables that ``integrate``
and ``integrate2`` receive are wrapped too: one span per integrand
invocation (a "panel") carrying its abscissa count.  The callable a
physics module hands to ``average`` / ``expectation`` becomes a
``<module>.integrand`` span.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array

import numpy as np

# Function spans, by module.
FUNCTIONS = {
    "bell": ("bell_parameter", "bell_sweep"),
    "photocount": (
        "count_distribution_fock",
        "count_distribution_coherent",
        "mandel_out",
        "sub_poisson_bound",
    ),
    "homodyne": ("squeeze_out", "postselect_sweep", "noisy_variance"),
    "entangle": (
        "dgcz_out_closed",
        "dgcz_out_correlated",
        "preservation_domain",
        "dgcz_certifier",
        "simon_certifier",
    ),
    "channel": ("transform_two_mode", "attenuate_moment", "characteristic_out"),
    "cli": ("run",),
}
INTEGRATORS = ("integrate", "integrate2")
LAW_METHODS = ("moment", "density", "survival", "expectation", "truncate", "average", "t_moment")
_EVAL_METHODS = ("density", "survival")
_CALLABLE_METHODS = ("expectation", "average")

_NESTED = 1  # an enclosing span has the same name
_LAYER_NESTED = 2  # an enclosing span belongs to the same module
_ERROR = 4  # the integrator raised QuadratureAccuracyError


class Tracer:
    """In-memory span recorder; single-threaded."""

    def __init__(self):
        self.names = []
        self._layers = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.call = array("i")
        self.evals = array("q")
        self.law = array("i")
        self.flags = array("b")
        self.stack = []
        self.call_id = -1
        self._laws = {}
        self._law_of_id = {}
        self._snapshot = (0, 0)

    def _name_id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            self._layers.append(name.split(".", 1)[0])
        return i

    def law_index(self, obj):
        """Index of ``obj``'s law; equal (hashable) laws share an index."""
        entry = self._law_of_id.get(id(obj))
        if entry is not None and entry[0] is obj:
            return entry[1]
        try:
            index = self._laws.setdefault(obj, len(self._laws))
        except TypeError:
            index = len(self._laws) + len(self._law_of_id) + 1_000_000
        self._law_of_id[id(obj)] = (obj, index)
        return index

    def open(self, name, evals=0, law=-1):
        nid = self._name_id(name)
        layer = self._layers[nid]
        flags = 0
        for j in self.stack:
            other = self.name[j]
            if other == nid:
                flags |= _NESTED
            if self._layers[other] == layer:
                flags |= _LAYER_NESTED
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.call.append(self.call_id)
        self.evals.append(evals)
        self.law.append(law)
        self.flags.append(flags)
        self.end.append(math.nan)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def mark_error(self, i):
        self.flags[i] |= _ERROR

    def parent_layer(self):
        """Module of the innermost open span, or None."""
        if not self.stack:
            return None
        return self._layers[self.name[self.stack[-1]]]

    # ---- per-call bookkeeping --------------------------------------------

    def begin_call(self, call_id):
        self.call_id = call_id
        self._snapshot = (len(self.start), len(self.stack))

    def rollback(self):
        """Drop every span of the current call (it ran out of budget)."""
        n, depth = self._snapshot
        for arr in (self.name, self.start, self.end, self.parent, self.call,
                    self.evals, self.law, self.flags):
            del arr[n:]
        del self.stack[depth:]

    # ---- output ----------------------------------------------------------

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "call": np.frombuffer(self.call, dtype=np.int32).copy(),
            "evals": np.frombuffer(self.evals, dtype=np.int64).copy(),
            "law": np.frombuffer(self.law, dtype=np.int32).copy(),
            "flags": np.frombuffer(self.flags, dtype=np.int8).copy(),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names, dtype=str), **self.arrays())


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _integrand_wrapper(tracer, name, f):
    @functools.wraps(f)
    def traced_integrand(*xs):
        i = tracer.open(name, evals=np.broadcast(*xs).size)
        try:
            return f(*xs)
        finally:
            tracer.close(i)

    return traced_integrand


def _wrap_integrator(tracer, name, fn, error_type):
    panel = name + ".integrand"

    @functools.wraps(fn)
    def traced(f, *args, **kwargs):
        i = tracer.open(name)
        try:
            return fn(_integrand_wrapper(tracer, panel, f), *args, **kwargs)
        except error_type:
            tracer.mark_error(i)
            raise
        finally:
            tracer.close(i)

    return traced


def _wrap_function(tracer, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)

    return traced


def _wrap_method(tracer, method, fn):
    name = "pdt." + method

    @functools.wraps(fn)
    def traced(self, *args, **kwargs):
        span = name
        if method == "expectation":
            span = name + (".atoms" if self.atoms is not None else ".quad")
        evals = int(np.size(args[0])) if method in _EVAL_METHODS and args else 0
        if method in _CALLABLE_METHODS and args:
            caller = tracer.parent_layer()
            if caller not in (None, "pdt", "numerics"):
                args = (_integrand_wrapper(tracer, caller + ".integrand", args[0]),) + args[1:]
        i = tracer.open(span, evals=evals, law=tracer.law_index(self))
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.close(i)

    return traced


def _library_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "turbulight" or n.startswith("turbulight."))]


def _rebind(patches, modules, original, replacement):
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                patches.append((module, attr, original))
                setattr(module, attr, replacement)


def install(tracer):
    """Wrap the library in place; returns the patch list for :func:`remove`."""
    import turbulight.cli  # noqa: F401  (cli is wrapped too)
    from turbulight import numerics, pdt

    modules = _library_modules()
    patches = []
    for fname in INTEGRATORS:
        original = getattr(numerics, fname)
        wrapped = _wrap_integrator(
            tracer, f"numerics.{fname}", original, numerics.QuadratureAccuracyError
        )
        _rebind(patches, modules, original, wrapped)
    for mname, fnames in FUNCTIONS.items():
        module = sys.modules[f"turbulight.{mname}"]
        for fname in fnames:
            original = getattr(module, fname)
            _rebind(patches, modules, original, _wrap_function(tracer, f"{mname}.{fname}", original))
    for cls in vars(pdt).values():
        if not (isinstance(cls, type) and cls.__module__ == pdt.__name__):
            continue
        for method in LAW_METHODS:
            original = cls.__dict__.get(method)
            if callable(original):
                patches.append((cls, method, original))
                setattr(cls, method, _wrap_method(tracer, method, original))
    return patches


def remove(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# span arithmetic and per-layer metrics
# ---------------------------------------------------------------------------


def self_times(start, end, parent):
    """Duration minus the summed durations of direct children."""
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - child


def layer_metrics(names, spans):
    """Per-layer counts and times from one run's spans."""
    names = list(names)
    nid = spans["name"]
    dur = spans["end"] - spans["start"]
    own = self_times(spans["start"], spans["end"], spans["parent"])
    flags = spans["flags"]
    outer = (flags & _NESTED) == 0
    layer_outer = (flags & _LAYER_NESTED) == 0

    def mask(*wanted):
        ids = [names.index(w) for w in wanted if w in names]
        return np.isin(nid, ids)

    def count(*wanted):
        return int(mask(*wanted).sum())

    def inclusive(*wanted):
        return float(dur[mask(*wanted) & outer].sum())

    out = {}
    for fname in INTEGRATORS:
        key = f"numerics.{fname}"
        m = mask(key)
        panels = mask(key + ".integrand")
        out[f"{key}.calls"] = int(m.sum())
        out[f"{key}.panels"] = int(panels.sum())
        out[f"{key}.evals"] = int(spans["evals"][panels].sum())
        out[f"{key}.self_s"] = float(own[m].sum())
        out[f"{key}.errors"] = int(((flags & _ERROR) != 0)[m].sum())
    for method in ("density", "survival"):
        key = f"pdt.{method}"
        out[f"{key}.calls"] = count(key)
        out[f"{key}.evals"] = int(spans["evals"][mask(key)].sum())
        out[f"{key}.s"] = inclusive(key)
    for method in ("moment", "average", "t_moment", "truncate"):
        key = f"pdt.{method}"
        out[f"{key}.calls"] = count(key)
        out[f"{key}.s"] = inclusive(key)
    out["pdt.expectation.atoms_calls"] = count("pdt.expectation.atoms")
    out["pdt.expectation.quad_calls"] = count("pdt.expectation.quad")
    out["pdt.law_reuse_frac"] = law_reuse(names, spans)
    out["bell.bell_parameter.calls"] = count("bell.bell_parameter")
    out["bell.bell_parameter.s"] = inclusive("bell.bell_parameter")
    out["bell.bell_sweep.self_s"] = float(own[mask("bell.bell_sweep")].sum())
    out["bell.integrand_s"] = inclusive("bell.integrand")
    counts = ("photocount.count_distribution_fock", "photocount.count_distribution_coherent")
    closed = ("photocount.mandel_out", "photocount.sub_poisson_bound")
    out["photocount.count_distribution.calls"] = count(*counts)
    out["photocount.count_distribution.s"] = inclusive(*counts)
    out["photocount.integrand_s"] = inclusive("photocount.integrand")
    out["photocount.closed_form.calls"] = count(*closed)
    out["photocount.closed_form.s"] = inclusive(*closed)
    for module in ("homodyne", "entangle", "channel"):
        m = mask(*(f"{module}.{f}" for f in FUNCTIONS[module]))
        out[f"{module}.calls"] = int(m.sum())
        out[f"{module}.s"] = float(dur[m & layer_outer].sum())
    out["cli.run.self_s"] = float(own[mask("cli.run")].sum())
    return out


def law_reuse(names, spans):
    """Share of outermost pdt calls whose law was used by an earlier one."""
    pdt_ids = [i for i, n in enumerate(names) if n.startswith("pdt.")]
    outer = np.isin(spans["name"], pdt_ids) & ((spans["flags"] & _LAYER_NESTED) == 0)
    laws = spans["law"][outer]
    if laws.size == 0:
        return 0.0
    _, first = np.unique(laws, return_index=True)
    return float(1.0 - first.size / laws.size)


def merge_metrics(parts):
    """Sum per-layer metrics of several processes; re-derive the ratio."""
    total = {}
    for part in parts:
        for key, value in part.items():
            total[key] = total.get(key, 0) + value
    if parts:
        total["pdt.law_reuse_frac"] = float(np.mean([p["pdt.law_reuse_frac"] for p in parts]))
    return total
