"""Spans around the package's public functions, installed from outside.

``Tracer.installed()`` rebinds every module attribute of the ``omitlab``
package that holds a traced function (``cli`` does ``from .sweep import
spectrum_sweep``, so one function can have several bindings) and restores
them on exit. A name the package no longer defines is reported as absent
instead of failing the run, so the benchmark outlives refactors that delete
or move functions. No private ``_`` function is wrapped.

A span records its invocation id, its parent, its name and its start and end
on ``time.perf_counter``. Spans opened on a worker thread of the program's
own pool take as parent the innermost span open on the installing thread.
Self time is a span's duration minus the union of its children's intervals,
so children that overlap on worker threads are not counted twice.
"""

import gzip
import importlib
import itertools
import json
import sys
import threading
from contextlib import contextmanager
from time import perf_counter

import numpy as np

SPANS = (
    "cli.main",
    "model.config_fingerprint", "model.effective_params",
    "model.derive_constants", "util.fingerprint_dict",
    "steadystate.solve_steady", "steadystate.steady_state_self_consistent",
    "response.probe_response",
    "delay.tau_g_analytic", "delay.group_delay", "delay.unwrap_phase",
    "delay.delay_map",
    "sweep.spectrum_sweep", "sweep.find_dips", "sweep.sweep_2d",
    "sweep.spectrum_csv", "sweep.map_csv", "sweep.delay_map_csv",
    "util.render_csv", "util.atomic_write", "util.parallel_map",
    "svgplot.line_svg", "svgplot.heatmap_svg",
    "oracle.integrate", "oracle.demodulate",
)
PACKAGE = "omitlab"
IVP_MODULE = "scipy.integrate"


class Counts:
    """Counts taken at the span boundaries, summed over traced calls."""

    def __init__(self):
        self.steady_calls = 0
        self.distinct_configs = 0
        self.bistable = 0
        self.probe_calls = 0
        self.probe_points = 0
        self.csv_rows = 0
        self.written_bytes = 0
        self.svg_bytes = 0
        self.rhs_evals = 0
        self.samples = 0
        self.unreadable = set()
        self._configs = set()

    def new_invocation(self):
        self._configs = set()

    def steady(self, args, kwargs, result):
        self.steady_calls += 1
        cfg = args[0] if args else kwargs.get("cfg")
        if cfg not in self._configs:
            self._configs.add(cfg)
            self.distinct_configs += 1

    def self_consistent(self, args, kwargs, result):
        self.bistable += len(result) == 3

    def probe(self, args, kwargs, result):
        delta = args[1] if len(args) > 1 else kwargs.get("delta")
        self.probe_calls += 1
        self.probe_points += int(np.size(delta))

    def csv(self, args, kwargs, result):
        self.csv_rows += len(args[1] if len(args) > 1 else kwargs["rows"])

    def write(self, args, kwargs, result):
        text = args[1] if len(args) > 1 else kwargs["text"]
        self.written_bytes += len(text.encode())

    def svg(self, args, kwargs, result):
        self.svg_bytes += len(result.encode())

    def ode(self, args, kwargs, result):
        self.rhs_evals += int(result.nfev)
        self.samples += len(result.t)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counts()
        self.absent = []
        self.invocations = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._main_stack = None
        self._invocation = 0
        self._targets = self._resolve()

    def _resolve(self):
        """(span name or None, function, counter) for each traced name."""
        c = self.counts
        counters = {
            "steadystate.solve_steady": c.steady,
            "steadystate.steady_state_self_consistent": c.self_consistent,
            "response.probe_response": c.probe,
            "util.render_csv": c.csv,
            "util.atomic_write": c.write,
            "svgplot.line_svg": c.svg,
            "svgplot.heatmap_svg": c.svg,
        }
        targets = []
        for name in SPANS:
            module, func = name.split(".")
            try:
                fn = getattr(importlib.import_module(f"{PACKAGE}.{module}"), func)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            targets.append((name, fn, counters.get(name)))
        # nfev and len(t) of every integration, read from the result of
        # solve_ivp at each of its bindings: omitlab.oracle's, and scipy's
        # own in case the package comes to import it inside a function
        ivp = getattr(sys.modules.get(f"{PACKAGE}.oracle"), "solve_ivp", None)
        ivp = ivp or getattr(sys.modules.get(IVP_MODULE), "solve_ivp", None)
        if ivp is None:
            self.absent.append("oracle.solve_ivp")
        else:
            targets.append((None, ivp, c.ode))
        return targets

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, counter):
        spans = self.spans
        ids = self._ids

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._count(counter, args, kwargs, result)
            return result

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else None
            span_id = next(ids)
            stack.append(span_id)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((self._invocation, span_id, parent, name, t0, t1))
            if counter is not None:
                self._count(counter, args, kwargs, result)
            return result

        return counted if name is None else traced

    def _count(self, counter, args, kwargs, result):
        # the program's pool calls in from several threads; a changed
        # signature or result type loses the count, not the run
        with self._count_lock:
            try:
                counter(args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError):
                self.counts.unreadable.add(counter.__name__)

    @contextmanager
    def installed(self):
        """Trace one invocation: wrappers are bound only inside the block."""
        self.invocations += 1
        self._invocation = self.invocations
        self.counts.new_invocation()
        self._main_stack = self._stack()
        modules = [m for k, m in list(sys.modules.items()) if m is not None
                   and (k in (PACKAGE, IVP_MODULE) or k.startswith(PACKAGE + "."))]
        saved = []
        for name, fn, counter in self._targets:
            wrapper = self._wrap(name, fn, counter)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        saved.append((m, attr, value))
                        setattr(m, attr, wrapper)
        try:
            yield
        finally:
            for m, attr, value in saved:
                setattr(m, attr, value)

    def self_times(self):
        """{span name: (calls, total self seconds)}."""
        children = {}
        for inv, sid, parent, name, t0, t1 in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((t0, t1))
        out = {}
        for inv, sid, parent, name, t0, t1 in self.spans:
            covered, end = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (t1 - t0) - covered)
        return out

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for inv, sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"invocation": inv, "id": sid,
                                     "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")
