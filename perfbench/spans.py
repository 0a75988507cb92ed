"""Span tracer for the traced run.

Wraps, from outside the package, every public function of the seven modules
and the `conditional`, `log_weight` and `support_iter` methods of every
`Model` subclass.  Each call records a span (name, start, end, parent span,
operation id) into flat in-memory columns; `metrics()` derives the per-layer
numbers from them and `save()` writes them out.  Methods of other classes are
not wrapped, so their time counts toward the layer that called them.
"""

from __future__ import annotations

import inspect
import time
import tracemalloc
from array import array

import numpy as np

LAYERS = ("ordercore", "models", "dynamics", "exact", "analysis", "cli",
          "fileio")
MODEL_METHODS = ("conditional", "log_weight", "support_iter")
KERNEL_BUILDERS = ("glauber_kernel", "site_glauber_kernel", "freeze_kernel",
                   "star_glauber_kernel", "site_star_glauber_kernel")
CHECKS = ("check_detailed_balance", "check_stochastic_monotonicity",
          "check_monotone_system", "check_mc_leq")
SAMPLERS = {"glauber_run": "glauber", "censored_glauber": "censored",
            "simulate_algorithm": "simulate", "field_dynamics_step": "field"}
ANALYSIS_PARTS = {"coupling": ("coupling_independence",),
                  "stability": ("marginal_stability",),
                  "influence": ("influence_matrix", "sinf_norm",
                                "max_sinf_norm"),
                  "ei": ("ei_witness",)}


def _modules():
    import glauberlab
    from glauberlab import (analysis, cli, dynamics, exact, fileio, models,
                            ordercore)
    mods = {"ordercore": ordercore, "models": models, "dynamics": dynamics,
            "exact": exact, "analysis": analysis, "cli": cli, "fileio": fileio}
    return glauberlab, mods


def _replace(fn, wrapped, namespaces, patches):
    """Point every name bound to fn in the namespaces at wrapped."""
    for ns in namespaces:
        for key, val in list(vars(ns).items()):
            if val is fn:
                patches.append((ns, key, fn))
                setattr(ns, key, wrapped)


def _restore(patches):
    while patches:
        owner, attr, fn = patches.pop()
        setattr(owner, attr, fn)


def _model_classes(models):
    out, todo = [], [models.Model]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


class Tracer:
    """Records spans while installed; `op` tags spans with an operation id."""

    def __init__(self):
        self.names, self._ids = [], {}
        self.nid, self.parent, self.opid = array("i"), array("i"), array("i")
        self.start, self.end = array("q"), array("q")
        self.stack = [-1]
        self.op = -1
        self.counts = {"ordercore.up_sets.count": 0, "exact.support.states": 0,
                       "exact.mixing.steps": 0, "dynamics.log_entries": 0,
                       "fileio.bytes_written": 0, "models.support.yielded": 0,
                       "censored.log_entries": 0}
        self.steps = dict.fromkeys(SAMPLERS.values(), 0)
        self._patches = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name, fn, hook=None):
        nid = self._name_id(name)
        nids, parents, opids = self.nid, self.parent, self.opid
        starts, ends = self.start, self.end
        stack = self.stack
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(starts)
            nids.append(nid)
            parents.append(stack[-1])
            opids.append(tracer.op)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, out)
            return out

        return wrapper

    def _wrap_generator(self, name, fn):
        """Span from the first item to exhaustion; counts items yielded."""
        nid = self._name_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(tracer.start)
            tracer.nid.append(nid)
            tracer.parent.append(tracer.stack[-1])
            tracer.opid.append(tracer.op)
            tracer.end.append(0)
            tracer.stack.append(sid)
            tracer.start.append(time.perf_counter_ns())
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                tracer.end[sid] = time.perf_counter_ns()
                tracer.stack.remove(sid)
                tracer.counts["models.support.yielded"] += n

        return wrapper

    # -- counters read from return values --------------------------------

    def _hooks(self):
        c, steps = self.counts, self.steps

        def add(key, f):
            def hook(args, kwargs, out):
                c[key] += f(args, out)
            return hook

        def sampler(kind):
            def hook(args, kwargs, out):
                run = out[0] if kind == "simulate" else out
                steps[kind] += run.steps
                c["dynamics.log_entries"] += len(run.log)
                if kind == "censored":
                    c["censored.log_entries"] += len(run.log)
            return hook

        def field_step(args, kwargs, out):
            steps["field"] += 1

        hooks = {
            "ordercore.enumerate_up_sets":
                add("ordercore.up_sets.count", lambda a, out: len(out)),
            "exact.enumerate_support":
                add("exact.support.states", lambda a, out: out.size),
            "exact.exact_mixing_time":
                add("exact.mixing.steps", lambda a, out: out),
            "fileio.atomic_write":
                add("fileio.bytes_written", lambda a, out: len(a[1].encode())),
            "dynamics.field_dynamics_step": field_step,
        }
        for fn, kind in SAMPLERS.items():
            if kind != "field":
                hooks[f"dynamics.{fn}"] = sampler(kind)
        return hooks

    # -- installation ----------------------------------------------------

    def install(self):
        pkg, mods = _modules()
        hooks = self._hooks()
        namespaces = [pkg] + list(mods.values())
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                _replace(fn, self._wrap(name, fn, hooks.get(name)),
                         namespaces, self._patches)
        for cls in _model_classes(mods["models"]):
            for meth in MODEL_METHODS:
                fn = cls.__dict__.get(meth)
                if fn is None:
                    continue
                name = f"models.{cls.__name__}.{meth}"
                wrapped = (self._wrap_generator(name, fn)
                           if inspect.isgeneratorfunction(fn)
                           else self._wrap(name, fn))
                self._patches.append((cls, meth, fn))
                setattr(cls, meth, wrapped)

    def remove(self):
        _restore(self._patches)

    # -- results ---------------------------------------------------------

    def columns(self):
        return {"name": np.frombuffer(self.nid, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "op": np.frombuffer(self.opid, dtype=np.int32),
                "start_ns": np.frombuffer(self.start, dtype=np.int64),
                "end_ns": np.frombuffer(self.end, dtype=np.int64)}

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.columns())

    def metrics(self):
        """Per-layer numbers, in seconds unless the name says otherwise."""
        col = self.columns()
        k = len(self.names)
        nid, parent = col["name"], col["parent"]
        dur = (col["end_ns"] - col["start_ns"]).astype(float) * 1e-9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_by = np.bincount(nid, weights=dur - child, minlength=k)
        incl_by = np.bincount(nid, weights=dur, minlength=k)
        calls_by = np.bincount(nid, minlength=k)

        def pick(pred):
            return [i for i, nm in enumerate(self.names) if pred(nm)]

        def self_s(pred):
            return float(sum(self_by[i] for i in pick(pred)))

        def calls(pred):
            return int(sum(calls_by[i] for i in pick(pred)))

        def func(*names):
            full = {f"{layer}.{n}" for n in names for layer in LAYERS}
            return lambda nm: nm in full

        def layer(name):
            return lambda nm: nm.split(".")[0] == name

        def method(meth):
            return lambda nm: nm.startswith("models.") and nm.endswith("." + meth)

        # candidates tried by support_iter: log_weight spans directly under it
        is_lw = np.isin(nid, pick(method("log_weight")))
        under_iter = np.zeros(len(dur), dtype=bool)
        under_iter[has_parent] = np.isin(nid[parent[has_parent]],
                                         pick(method("support_iter")))
        candidates = int(np.count_nonzero(is_lw & under_iter))
        c = self.counts
        out = {
            "ordercore.self_s": self_s(layer("ordercore")),
            "ordercore.dominance.calls": calls(func("stochastic_dominance")),
            "ordercore.dominance.self_s": self_s(func("stochastic_dominance")),
            "ordercore.up_sets.count": c["ordercore.up_sets.count"],
            "ordercore.up_sets.self_s": self_s(func("enumerate_up_sets")),
            "exact.fd_kernel.self_s": self_s(func("fd_kernel")),
            "exact.mixing.self_s": self_s(func("exact_mixing_time",
                                               "tilted_mixing_time")),
            "exact.mixing.steps": c["exact.mixing.steps"],
            "exact.kernel_build.calls": calls(func(*KERNEL_BUILDERS)),
            "exact.kernel_build.self_s": self_s(func(*KERNEL_BUILDERS)),
            "exact.propagate.self_s": self_s(func("propagate")),
            "exact.checks.self_s": self_s(func(*CHECKS)),
            "exact.support.states": c["exact.support.states"],
            "exact.self_s": self_s(layer("exact")),
            "models.conditional.calls": calls(method("conditional")),
            "models.log_weight.calls": calls(method("log_weight")),
            "models.self_s": self_s(layer("models")),
            "models.support.yield_ratio":
                c["models.support.yielded"] / candidates if candidates else 0.0,
        }
        for fn, kind in SAMPLERS.items():
            incl = float(sum(incl_by[i] for i in pick(func(fn))))
            n = self.steps[kind]
            out[f"dynamics.{kind}.us_per_step"] = incl / n * 1e6 if n else 0.0
        n = self.steps["censored"]
        out["dynamics.censored.update_ratio"] = (
            c["censored.log_entries"] / n if n else 0.0)
        out["dynamics.log_entries"] = c["dynamics.log_entries"]
        out["analysis.self_s"] = self_s(layer("analysis"))
        for part, fns in ANALYSIS_PARTS.items():
            out[f"analysis.{part}.self_s"] = self_s(func(*fns))
        out["cli.self_s"] = self_s(layer("cli"))
        out["fileio.write_s"] = float(sum(
            incl_by[i] for i in pick(func("atomic_write"))))
        out["fileio.bytes_written"] = c["fileio.bytes_written"]
        out["trace.spans"] = len(dur)
        return out


class SamplerMemory:
    """tracemalloc peak during sampler calls: tracing runs only inside each
    call, so the peak counts what the call allocated."""

    def __init__(self):
        self.peak = 0
        self._patches = []

    def install(self):
        pkg, mods = _modules()
        dyn = mods["dynamics"]
        for fn_name in SAMPLERS:
            fn = getattr(dyn, fn_name)

            def wrapper(*args, _fn=fn, **kwargs):
                tracemalloc.start()
                try:
                    return _fn(*args, **kwargs)
                finally:
                    self.peak = max(self.peak,
                                    tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()

            _replace(fn, wrapper, [pkg] + list(mods.values()), self._patches)

    def remove(self):
        _restore(self._patches)
