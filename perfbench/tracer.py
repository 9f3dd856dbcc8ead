"""Span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark's own files: ``install`` replaces each
public function of the pumpsim layers with a wrapper at every place a
pumpsim module looks the name up (``pumpsim.analysis.simulate`` as well as
``pumpsim.dynamics.simulate``), and public methods on the classes the layers
define.  Nothing inside the package is edited.

A span is (name, start, end, parent, run id).  Spans are kept in memory in
flat arrays until ``summary`` reduces them; a span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import inspect
import math
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("model", "dynamics", "analysis", "isolation", "scenario", "cli")


def _simulate_facts(args, kwargs, result, facts):
    config = args[0] if args else kwargs["config"]
    steps = int(round(config.t_total / config.dt))
    warm = min(int(math.ceil(config.warmup / config.dt - 1e-9)), steps)
    facts["dynamics.steps"] += steps
    facts["dynamics.measured_steps"] += steps - warm
    facts["dynamics.samples_out"] += len(result.t)


def _to_csv_facts(args, kwargs, result, facts):
    path = args[1] if len(args) > 1 else kwargs["path"]
    facts["dynamics.to_csv.bytes"] += os.path.getsize(path)


def _pulse_metrics_facts(args, kwargs, result, facts):
    trace = args[0] if args else kwargs["trace"]
    facts["analysis.pulse_metrics.samples"] += len(trace.t)


def _fit_facts(args, kwargs, result, facts):
    facts["analysis.fit_eps_opt.evaluations"] += result.evaluations


# Counts that only the arguments or the result of a call reveal.
FACT_HOOKS = {
    "dynamics.simulate": _simulate_facts,
    "dynamics.to_csv": _to_csv_facts,
    "analysis.pulse_metrics": _pulse_metrics_facts,
    "analysis.fit_eps_opt": _fit_facts,
}


def _targets(package):
    """(span name, owner, attribute, original) for every traced callable."""
    modules = [package] + [sys.modules[f"{package.__name__}.{layer}"]
                           for layer in LAYERS]
    found = {}
    for layer in LAYERS:
        module = sys.modules[f"{package.__name__}.{layer}"]
        for attr, obj in vars(module).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found[obj] = f"{layer}.{attr}"
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for meth, fn in vars(obj).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        name = f"{layer}.{meth}"
                        if name in found.values():
                            raise RuntimeError(f"span name {name} is ambiguous")
                        found[fn] = name
                        yield name, obj, meth, fn
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in found:
                yield found[obj], module, attr, obj


class Tracer:
    """Records spans around pumpsim's public functions while installed."""

    def __init__(self, package, clock=time.perf_counter):
        self._clock = clock
        self._targets = list(_targets(package))
        self._names = sorted({name for name, *_ in self._targets})
        self._ids = {name: k for k, name in enumerate(self._names)}
        self._wrappers = {}
        for name, _, _, fn in self._targets:
            if fn not in self._wrappers:
                self._wrappers[fn] = self._wrap(fn, self._ids[name],
                                                FACT_HOOKS.get(name))
        self.run_id = 0
        self.reset()

    def reset(self) -> None:
        """Drop every recorded span and count."""
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("q")
        self.run = array("i")
        self.facts = defaultdict(int)
        self._stack = [-1]

    def _wrap(self, fn, name_id, hook):
        clock = self._clock
        tracer = self

        def span(*args, **kwargs):
            idx = len(tracer.start)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.name.append(name_id)
            tracer.parent.append(tracer._stack[-1])
            tracer.run.append(tracer.run_id)
            tracer._stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                tracer.start[idx] = t0
                tracer._stack.pop()
            if hook is not None:
                hook(args, kwargs, result, tracer.facts)
            return result

        span.__wrapped__ = fn
        return span

    def install(self) -> None:
        for _, owner, attr, fn in self._targets:
            setattr(owner, attr, self._wrappers[fn])

    def uninstall(self) -> None:
        for _, owner, attr, fn in self._targets:
            setattr(owner, attr, fn)

    def summary(self) -> dict:
        """Per span name: calls, self time and total time; plus per layer
        self time, simulations nested under fit_eps_opt and pump_sweep, and the
        recorded counts."""
        count = len(self.start)
        start = np.frombuffer(self.start, dtype=np.float64, count=count)
        end = np.frombuffer(self.end, dtype=np.float64, count=count)
        name = np.frombuffer(self.name, dtype=np.int32, count=count)
        parent = np.frombuffer(self.parent, dtype=np.int64, count=count)
        dur = end - start
        covered = np.zeros(count)
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        self_time = dur - covered
        n_names = len(self._names)
        calls = np.bincount(name, minlength=n_names)
        self_s = np.bincount(name, weights=self_time, minlength=n_names)
        total_s = np.bincount(name, weights=dur, minlength=n_names)
        spans = {
            n: {"calls": int(calls[k]), "self_s": float(self_s[k]),
                "total_s": float(total_s[k])}
            for k, n in enumerate(self._names)
        }
        layers = {layer: 0.0 for layer in LAYERS}
        for n, figures in spans.items():
            layers[n.split(".", 1)[0]] += figures["self_s"]
        return {
            "spans": spans,
            "layers": layers,
            "nested_simulations": self._nested_simulations(name, parent),
            "facts": dict(self.facts),
        }

    def _nested_simulations(self, name, parent) -> dict:
        """Simulations run inside each analysis.* span, by that span's name."""
        out = defaultdict(int)
        for idx in np.flatnonzero(name == self._ids["dynamics.simulate"]):
            p = parent[idx]
            while p >= 0:
                n = self._names[name[p]]
                if n in ("analysis.fit_eps_opt", "analysis.pump_sweep"):
                    out[n] += 1
                    break
                p = parent[p]
        return dict(out)
