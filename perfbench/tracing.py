"""Spans around the public entry points of pencilred, kept in memory.

A ``Tracer`` replaces an entry point at every module attribute that is bound
to it, which is where its callers look it up: ``pencilred.reduce.lll_gram``
is seen by ``shortest_vector`` and ``pencilred.equidist.lll_gram`` by
``sample_pencils``.  ``restore()`` puts every original back.  A span records
its name, start, end, the span that caused it and the benchmark item it
belongs to; a layer's self time is its span minus its direct child spans.
"""

import functools
import sys
import time

# (span name, defining module, attribute).  certified_roots lives in the
# `roots` helper module but is counted under `forms`.
ENTRY_POINTS = (
    ("pencil.invariant_form", "pencilred.pencil", "invariant_form"),
    ("forms.certified_roots", "pencilred.roots", "certified_roots"),
    ("forms.real_root_count", "pencilred.forms", "real_root_count"),
    ("forms.mahler_measure_with_error", "pencilred.forms",
     "mahler_measure_with_error"),
    ("forms.discriminant", "pencilred.forms", "discriminant"),
    ("forms.is_irreducible", "pencilred.forms", "is_irreducible"),
    ("covariant.simultaneous_diagonalize", "pencilred.covariant",
     "simultaneous_diagonalize"),
    ("covariant.reduction_covariant", "pencilred.covariant",
     "reduction_covariant"),
    ("covariant.gram_det_with_error", "pencilred.covariant",
     "gram_det_with_error"),
    ("reduce.rationalize_gram", "pencilred.reduce", "rationalize_gram"),
    ("reduce.lll_gram", "pencilred.reduce", "lll_gram"),
    ("reduce.shortest_vector", "pencilred.reduce", "shortest_vector"),
    ("reduce.iwasawa_coordinates", "pencilred.reduce", "iwasawa_coordinates"),
    ("reduce.lll_reduce", "pencilred.reduce", "lll_reduce"),
    ("reduce.cusp_membership", "pencilred.reduce", "cusp_membership"),
    ("orbits.integralize", "pencilred.orbits", "integralize"),
    ("orbits.pencil_from_datum", "pencilred.orbits", "pencil_from_datum"),
    ("orbits.datum_from_divisor", "pencilred.orbits", "datum_from_divisor"),
    ("orbits.norm_of_one_formula", "pencilred.orbits", "norm_of_one_formula"),
    ("heights.family_membership", "pencilred.heights", "family_membership"),
    ("heights.prop_bound_check", "pencilred.heights", "prop_bound_check"),
    ("heights.vector_length_bound_check", "pencilred.heights",
     "vector_length_bound_check"),
    ("equidist.sample_pencils", "pencilred.equidist", "sample_pencils"),
    ("cli.main", "pencilred.cli", "main"),
)


class Tracer:
    """Install with ``with Tracer(observe) as t:``; spans land in t.spans as
    [name, start, end, parent index, item].  `observe(name, args, kwargs,
    result, error)` sees every traced call as it returns."""

    def __init__(self, observe=None):
        self.observe = observe
        self.spans = []
        self.item = None
        self._stack = []
        self._patched = []          # (module, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(span)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if self.observe is not None:
                    self.observe(name, args, kwargs, result, error)
        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "pencilred"
                                         or key.startswith("pencilred."))]
        for name, home, attr in ENTRY_POINTS:
            original = getattr(sys.modules.get(home), attr, None)
            if original is None:
                continue            # entry point gone: its span stays empty
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, value))
                        setattr(module, key, wrapper)
        return self

    def restore(self):
        while self._patched:
            module, key, value = self._patched.pop()
            setattr(module, key, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()


def self_times(spans):
    """{name: (calls, total self seconds)} over all spans."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = {}
    for (name, t0, t1, _, _), c in zip(spans, child):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (t1 - t0) - c)
    return out
