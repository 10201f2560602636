"""Span tracing from outside the package.

``Tracer.install`` replaces every public module-level function of each
layer (the modules listed in ``LAYERS``) by a wrapper that records a span,
at every place in the package where the function is bound: its own module
and each module that imported it by name.  Calls made through those names,
including calls inside the defining module, pass through the wrapper.
Calls through other references (a function stored in a table or passed as
an argument) and method calls are charged to the caller's span.

The ODE stepper classes that ``mayleonard.flow`` binds are replaced by
subclasses that count accepted steps, rejected attempts and right-hand-side
evaluations, and time ``step`` and ``dense_output``.

Spans are kept in memory as parallel arrays (name, start, end, parent) and
written out by ``save`` when the run ends.  ``uninstall`` restores every
original binding, so traced and untraced calls can alternate in one process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array

import numpy as np

LAYERS = ("params", "returnmap", "singular", "diagnostics", "flow", "cli",
          "config", "_io")


class SolverCounters:
    def __init__(self):
        self.steps = 0
        self.rejected = 0
        self.nfev = 0
        self.step_s = 0.0
        self.dense_output_s = 0.0


def counting_solver(base, counters: SolverCounters):
    """A subclass of a scipy ``OdeSolver`` that reports into ``counters``."""
    perf = time.perf_counter
    # an explicit Runge-Kutta attempt evaluates the right-hand side n_stages
    # times (the last stage doubles as the next step's first), accepted or not
    stages = getattr(base, "n_stages", None)

    class Counted(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            counters.nfev += self.nfev

        def step(self):
            before = self.nfev
            t0 = perf()
            msg = super().step()
            counters.step_s += perf() - t0
            spent = self.nfev - before
            counters.nfev += spent
            if self.status != "failed":
                counters.steps += 1
                if stages:
                    counters.rejected += spent // stages - 1
            return msg

        def dense_output(self):
            t0 = perf()
            sol = super().dense_output()
            counters.dense_output_s += perf() - t0
            return sol

    Counted.__name__ = Counted.__qualname__ = base.__name__
    return Counted


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.solver = SolverCounters()
        self._patches = []          # (module, attribute, original, replacement)
        self._build()

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, qualname, func):
        nid = len(self.names)
        self.names.append(qualname)
        fn_add, parent_add = self.fn.append, self.parent.append
        start_add, end_add = self.start.append, self.end.append
        end, stack, perf = self.end, self._stack, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid = len(end)
            fn_add(nid)
            parent_add(stack[-1])
            end_add(0.0)
            stack.append(sid)
            start_add(perf())
            try:
                return func(*args, **kwargs)
            finally:
                end[sid] = perf()
                stack.pop()

        return traced

    def _build(self):
        from scipy.integrate import OdeSolver

        pkg = self.package.__name__
        modules = [self.package] + [
            importlib.import_module(f"{pkg}.{info.name}")
            for info in pkgutil.iter_modules(self.package.__path__)]
        replacement = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{pkg}.{layer}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")
                        and not inspect.isgeneratorfunction(obj)):
                    replacement[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        flow = importlib.import_module(f"{pkg}.flow")
        for name, obj in vars(flow).items():
            if inspect.isclass(obj) and issubclass(obj, OdeSolver) and obj is not OdeSolver:
                self._patches.append((flow, name, obj, counting_solver(obj, self.solver)))
        for mod in modules:
            for name, obj in vars(mod).items():
                hit = replacement.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, name, obj, hit[1]))

    def install(self):
        for mod, name, _, new in self._patches:
            setattr(mod, name, new)

    def uninstall(self):
        for mod, name, old, _ in self._patches:
            setattr(mod, name, old)

    # -- results -----------------------------------------------------------

    def arrays(self):
        fn = np.frombuffer(self.fn, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        return fn, parent, dur

    def summary(self) -> dict:
        """Calls, inclusive and self seconds per function and per layer.

        A span's self time is its duration minus the durations of the spans
        it directly caused.
        """
        fn, parent, dur = self.arrays()
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        self_s = dur - covered
        k = len(self.names)
        calls = np.bincount(fn, minlength=k)
        incl = np.bincount(fn, weights=dur, minlength=k)
        selfs = np.bincount(fn, weights=self_s, minlength=k)
        functions = {name: {"calls": int(calls[i]), "incl_s": float(incl[i]),
                            "self_s": float(selfs[i])}
                     for i, name in enumerate(self.names)}
        layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for name, rec in functions.items():
            layer = layers[name.split(".", 1)[0]]
            layer["calls"] += rec["calls"]
            layer["self_s"] += rec["self_s"]
        return {"functions": functions, "layers": layers, "spans": int(len(dur))}

    def save(self, path):
        fn, parent, dur = self.arrays()
        np.savez(path, names=np.array(self.names), fn=fn, parent=parent,
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))
