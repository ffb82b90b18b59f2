"""In-memory spans and counts around freebrown's layers, for the traced run.

The tracer replaces module-level functions by wrappers at runtime, including
the copies other modules imported by name (``integrate_adaptive`` in
``additive`` and ``multiplicative``) and ``numpy.linalg.eigvals`` as the
samplers call it; no source file of freebrown changes. Each span holds a
name, a start, an end and the index of its parent span. The benchmark pins
freebrown to one thread, so one stack gives every span its parent.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np

#: busy time (".s"): sum of the outermost spans of the group in a job
BUSY = {
    "additive.v_t_array.s": ("additive.v_t_array",),
    "additive.rows.s": ("additive.density_w_array", "additive.psi_t_array"),
    "additive.total_mass.s": ("additive.total_mass",),
    "additive.scalar.s": ("additive.v_t", "additive.psi_t", "additive.density_w"),
    "multiplicative.r_t_array.s": ("multiplicative.r_t_array",),
    "multiplicative.total_mass.s": ("multiplicative.total_mass",),
    "multiplicative.scalar.s": (
        "multiplicative.phi_of_theta",
        "multiplicative.density_w_theta",
        "multiplicative.mult_law_density",
    ),
    "rmt.expm.s": ("rmt.expm",),
    "rmt.eigvals.s": ("rmt.eigvals",),
    "rmt.additive_matrix.s": ("rmt.additive_matrix",),
    "rmt.compare_marginal.s": ("rmt.compare_marginal",),
    "rmt.load_spectrum.s": ("rmt.load_spectrum",),
}
#: self time (".self_s"): the span minus its direct child spans
SELF = {
    "additive.profile.self_s": "additive.additive_profile",
    "multiplicative.profile.self_s": "multiplicative.multiplicative_profile",
    "quadrature.self_s": "quadrature.integrate_adaptive",
    "rmt.multiplicative_flow.self_s": "rmt.multiplicative_flow",
    "cli.main.self_s": "cli.main",
}
#: counts per job, kept by the wrappers (cli.bytes_written by the runner)
COUNTS = (
    "additive.v_t_array.points",
    "multiplicative.r_t_array.points",
    "multiplicative.f_limit_at_circle.calls",
    "quadrature.integrate_adaptive.calls",
    "quadrature.nodes",
    "rmt.expm.calls",
)

SPANNED = [
    # (module, attribute, span name, count name, count of the call's work)
    ("cli", "main", "cli.main", None, None),
    ("additive", "additive_profile", "additive.additive_profile", None, None),
    ("additive", "v_t_array", "additive.v_t_array", "additive.v_t_array.points", lambda a: np.size(a[2])),
    ("additive", "density_w_array", "additive.density_w_array", None, None),
    ("additive", "psi_t_array", "additive.psi_t_array", None, None),
    ("additive", "total_mass", "additive.total_mass", None, None),
    ("additive", "v_t", "additive.v_t", None, None),
    ("additive", "psi_t", "additive.psi_t", None, None),
    ("additive", "density_w", "additive.density_w", None, None),
    ("multiplicative", "multiplicative_profile", "multiplicative.multiplicative_profile", None, None),
    ("multiplicative", "r_t_array", "multiplicative.r_t_array", "multiplicative.r_t_array.points",
     lambda a: np.size(a[2])),
    ("multiplicative", "total_mass", "multiplicative.total_mass", None, None),
    ("multiplicative", "phi_of_theta", "multiplicative.phi_of_theta", None, None),
    ("multiplicative", "density_w_theta", "multiplicative.density_w_theta", None, None),
    ("multiplicative", "mult_law_density", "multiplicative.mult_law_density", None, None),
    ("rmt", "expm", "rmt.expm", "rmt.expm.calls", lambda a: 1),
    ("rmt", "multiplicative_flow", "rmt.multiplicative_flow", None, None),
    ("rmt", "additive_matrix", "rmt.additive_matrix", None, None),
    ("rmt", "compare_marginal", "rmt.compare_marginal", None, None),
    ("rmt", "load_spectrum", "rmt.load_spectrum", None, None),
]
#: called thousands of times inside profiles; counted, not spanned, so its
#: time stays with the caller (arc-endpoint bisection or the r_t solve)
COUNTED = [("multiplicative", "f_limit_at_circle", "multiplicative.f_limit_at_circle.calls")]
QUADRATURE_SITES = ("quadrature", "additive", "multiplicative")


class Tracer:
    """Spans ``[name, start, end, parent]`` and counters, kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)
        self._patches = []

    # -- wrappers --------------------------------------------------------------

    def _open(self, name):
        span = [name, time.perf_counter(), None, self.stack[-1] if self.stack else None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self.stack.pop()

    def _spanned(self, fn, name, count_name=None, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_name is not None:
                self.counts[count_name] += int(count(args))
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return wrapper

    def _counted(self, fn, count_name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[count_name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _quadrature(self, fn):
        """integrate_adaptive with its integrand spanned and its abscissas
        counted, so that the quadrature's self time excludes the integrand."""

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            def integrand(x):
                self.counts["quadrature.nodes"] += int(np.size(x))
                span = self._open("quadrature.integrand")
                try:
                    return f(x)
                finally:
                    self._close(span)

            self.counts["quadrature.integrate_adaptive.calls"] += 1
            span = self._open("quadrature.integrate_adaptive")
            try:
                return fn(integrand, *args, **kwargs)
            finally:
                self._close(span)

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        import importlib

        mod = {m: importlib.import_module(f"freebrown.{m}")
               for m in ("cli", "additive", "multiplicative", "quadrature", "rmt")}
        for m, attr, name, count_name, count in SPANNED:
            self._patch(mod[m], attr, self._spanned(getattr(mod[m], attr), name, count_name, count))
        for m, attr, count_name in COUNTED:
            self._patch(mod[m], attr, self._counted(getattr(mod[m], attr), count_name))
        for m in QUADRATURE_SITES:
            self._patch(mod[m], "integrate_adaptive", self._quadrature(mod[m].integrate_adaptive))
        self._patch(np.linalg, "eigvals", self._spanned(np.linalg.eigvals, "rmt.eigvals"))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- per-job metrics -----------------------------------------------------------

    def job_metrics(self, first, last, counts_before):
        """Per-layer metrics of the job whose spans are ``spans[first:last]``."""
        spans = self.spans
        group_of = {}
        for metric, names in BUSY.items():
            for n in names:
                group_of[n] = metric
        child_time = defaultdict(float)
        for i in range(first, last):
            name, start, end, parent = spans[i]
            if parent is not None:
                child_time[parent] += end - start
        out = {m: 0.0 for m in list(BUSY) + list(SELF)}
        self_of = {v: k for k, v in SELF.items()}
        for i in range(first, last):
            name, start, end, parent = spans[i]
            metric = group_of.get(name)
            if metric is not None and not self._inside_group(parent, metric, group_of):
                out[metric] += end - start
            if name in self_of:
                out[self_of[name]] += (end - start) - child_time[i]
        for c in COUNTS:
            out[c] = self.counts[c] - counts_before.get(c, 0)
        return out

    def _inside_group(self, parent, metric, group_of):
        while parent is not None:
            if group_of.get(self.spans[parent][0]) == metric:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans],
                fh,
            )
