"""Outside-in layer tracing: time calls into gaugeset's public functions.

Nothing under ``src/`` is edited.  ``Tracer.install`` rebinds the attributes
that callers look up (a module-level function in every gaugeset module that
binds it, or a method on its class) to timing wrappers, and ``restore`` puts
the originals back.  Corpus evaluators are timed through copies of the
registry specs handed out by a rebound ``corpus_get``.

Spans are aggregated as they close, per layer name: calls, self time (span
duration minus its child spans) and layer-specific counts.  Counter work
(sizes, partition digests) runs after the span closes and is charged to
``Tracer.bookkeeping_s``, not to the enclosing span, so that

    sum(self_s) + bookkeeping_s + harness gap == traced pass wall time

holds when every span nests properly; run.py checks that identity for every
traced pass.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import sys
import time

import numpy as np


class LayerStat:
    __slots__ = ("calls", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counts = {}

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n


def _size(x):
    return int(np.size(x))


class Tracer:
    """Span aggregation plus the rebinding that feeds it."""

    def __init__(self):
        self.stats = {}
        self.bookkeeping_s = 0.0
        self.root_s = 0.0
        self._stack = []
        self._undo = []
        self._builds = set()
        self._specs = {}

    def stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = LayerStat()
        return st

    # -- spans -------------------------------------------------------------

    def wrap(self, name, fn, count=None):
        """Wrap ``fn`` so each call is a span named ``name``.

        ``count(stat, args, kwargs, result)`` records layer counts after the
        span closes; its cost goes to bookkeeping, outside every span.
        """
        stack = self._stack
        clock = time.perf_counter
        st = self.stat(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            t1 = None
            try:
                return_value = fn(*args, **kwargs)
                t1 = clock()
                if count is not None:
                    count(st, args, kwargs, return_value)
                return return_value
            finally:
                t2 = clock()
                if t1 is None:  # fn raised; no counts to record
                    t1 = t2
                stack.pop()
                st.calls += 1
                st.self_s += (t1 - t0) - frame[0]
                tracer.bookkeeping_s += t2 - t1
                if stack:
                    stack[-1][0] += t2 - t0
                else:
                    tracer.root_s += t2 - t0

        return traced

    # -- rebinding ---------------------------------------------------------

    def _rebind_function(self, module, attr, name, count=None):
        """Replace ``module.attr`` wherever a gaugeset module binds it."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gaugeset" or mod_name.startswith("gaugeset.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original))

    def _rebind_method(self, cls, attr, name, count=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, count))
        self._undo.append((cls, attr, original))

    def install(self):
        from gaugeset import convex_sets, corpus, decomposition, integrators, partitions

        self._install_corpus(corpus)
        self._rebind_function(partitions, "cousin_build", "partitions.cousin_build",
                              self._count_cousin)
        self._rebind_function(partitions, "measurable_partition",
                              "partitions.measurable_partition",
                              lambda st, a, k, r: st.add("pieces", r.n_pieces))
        self._rebind_method(partitions.MeasurablePartition, "refines", "partitions.refines")
        self._rebind_method(partitions.Gauge, "__call__", "partitions.gauge_call",
                            lambda st, a, k, r: st.add("points", _size(a[1])))
        for fn in INTEGRATOR_FUNCTIONS:
            self._rebind_function(integrators, fn, f"integrators.{fn}")
        self._rebind_method(convex_sets.Primitive, "__init__", "convex_sets.primitive_build",
                            lambda st, a, k, r: st.add("cells", _size(a[2])))
        for cls in (convex_sets.Primitive, convex_sets.ExactIntervalMap):
            self._rebind_method(cls, "query_batch", "convex_sets.query_batch",
                                lambda st, a, k, r: st.add("intervals", _size(a[1])))
        for fn in ("verify_decomposition", "subtract_selection"):
            self._rebind_function(decomposition, fn, f"decomposition.{fn}")

    def _install_corpus(self, corpus):
        original = corpus.corpus_get
        count = lambda st, a, k, r: st.add("points", _size(a[0]))

        def corpus_get(name, params=None):
            spec = original(name, params)
            timed = self._specs.get(spec.name)
            if timed is None:
                ev = self.wrap("corpus.eval_support", spec.eval_support, count)
                timed = self._specs[spec.name] = dataclasses.replace(spec, eval_support=ev)
            return timed

        corpus.corpus_get = corpus_get
        self._undo.append((corpus, "corpus_get", original))

    def _count_cousin(self, st, args, kwargs, P):
        # a repeat is a build whose cells and tags (hence gauge and tag
        # order, as far as the result shows) match one already built
        st.add("cells", len(P))
        key = hashlib.blake2b(P.a.tobytes() + P.t.tobytes(), digest_size=16).digest()
        if key in self._builds:
            st.add("repeat_calls", 1)
        self._builds.add(key)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


INTEGRATOR_FUNCTIONS = (
    "henstock_integrate",
    "mcshane_integrate",
    "directional_profile",
    "scalar_hk",
    "birkhoff_integrate",
    "vh_check",
    "variational_measure_estimate",
    "build_primitive",
)
