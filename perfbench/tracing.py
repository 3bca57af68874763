"""Spans and counters recorded around the calls into each bernint layer.

`install(tracer)` rebinds the layer boundaries of the already imported
bernint modules to wrappers that open a span on entry and close it on exit.
Nothing inside the package is changed on disk and nothing is traced until
`install` runs, so untraced runs execute the package exactly as shipped.

A span is (name, start, end, parent, request).  A layer's self time is its
spans' duration minus the part covered by wrapped child spans.  Counts that
come from call arguments (kernel cells, convolution multiplies) or from the
package's own caches are exact and repeat across runs with the same inputs.

`BernoulliCache.number` is called millions of times on cached entries; a
call that finds its entry cached is only counted, and a span is opened only
for calls that grow the table.

A boundary that is missing (removed or renamed by a later change) is listed
in `Tracer.absent` and its metrics are left out instead of failing the run.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array


class Tracer:
    """In-memory span store plus per-layer call counts, self times and counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.request = array("l")
        self.request_id = -1
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.absent: set[str] = set()

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def open(self, name: str) -> None:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._stack.append([i, 0.0])
        self.start.append(time.perf_counter())

    def close(self) -> None:
        t = time.perf_counter()
        i, covered = self._stack.pop()
        self.end[i] = t
        dur = t - self.start[i]
        name = self.names[self.name_id[i]]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - covered
        if self._stack:
            self._stack[-1][1] += dur

    def raw(self) -> dict:
        """Counts and self times, in a form that sums across processes."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
            "absent": sorted(self.absent),
        }

    def spans(self) -> dict:
        return {
            "names": self.names,
            "spans": [
                [self.name_id[i], self.start[i], self.end[i], self.parent[i], self.request[i]]
                for i in range(len(self.start))
            ],
        }


def merge_raw(parts: list[dict]) -> dict:
    out: dict = {"calls": {}, "self_s": {}, "counters": {}, "absent": set()}
    for part in parts:
        for key in ("calls", "self_s", "counters"):
            for name, value in part[key].items():
                out[key][name] = out[key].get(name, 0) + value
        out["absent"].update(part["absent"])
    out["absent"] = sorted(out["absent"])
    return out


def _spanned(tracer: Tracer, name: str, fn, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = before(*args, **kwargs) if before else None
        tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close()
            if after:
                after(state)

    return wrapper


def _rebind(original, wrapper) -> None:
    """Point every loaded bernint module's reference to `original` at `wrapper`."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "bernint" and not mod_name.startswith("bernint."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


# Layer name -> public functions of bernint.integrals under it.  The formulas
# do not call one another, so their spans never nest.
_INTEGRAL_LAYERS = {
    "integrals.closed_form": ("closed_form_integral",),
    "integrals.formulas": (
        "two_factor_formula",
        "norlund_value",
        "three_factor_formula",
        "three_factor_at_one",
        "four_factor_at_one",
        "four_factor_even_sum",
    ),
}
_VERIFY_LAYERS = {"verify.oracle": "verify_oracle", "verify.carlitz4": "verify_carlitz4"}


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the imported bernint package."""
    import bernint.bernoulli as bernoulli
    import bernint.integrals as integrals
    import bernint.kernels as kernels

    def wrap_function(module, attr, name, before=None, after=None):
        fn = getattr(module, attr, None)
        if fn is None:
            tracer.absent.add(name)
            return
        _rebind(fn, _spanned(tracer, name, fn, before, after))

    def count_cells(ks, *tables):
        tracer.count("kernels.closed_form_sum.cells", math.prod(k + 1 for k in ks[:-1]))

    def count_mults(a, b):
        tracer.count("kernels.convolve.mults", len(a) * len(b))

    wrap_function(kernels, "closed_form_sum", "kernels.closed_form_sum", count_cells)
    wrap_function(kernels, "convolve", "kernels.convolve", count_mults)

    tables_at = getattr(integrals, "_tables_at", None)
    zero_table = getattr(integrals, "_zero_table", None)
    if isinstance(tables_at, dict) and zero_table is not None:
        # the same fast-path test _scaled_tables makes before it grows anything
        def tables_lookup(upper, n, cache):
            t = tables_at.get(upper)
            hit = t is not None and len(t[0]) > n and len(zero_table[0]) > n
            tracer.count("integrals.tables.hits" if hit else "integrals.tables.misses")
    else:
        tables_lookup = None
        tracer.absent.update(("integrals.tables.hit_ratio", "integrals.tables.misses"))
    wrap_function(integrals, "_scaled_tables", "integrals.tables", tables_lookup)

    oracle_poly = getattr(integrals, "_oracle_poly_cached", None)
    if oracle_poly is not None and hasattr(oracle_poly, "cache_info"):
        def info_before(ks, cache):
            return oracle_poly.cache_info()

        def info_after(before):
            now = oracle_poly.cache_info()
            tracer.count("integrals.oracle_build.hits", now.hits - before.hits)
            tracer.count("integrals.oracle_build.misses", now.misses - before.misses)

        wrap_function(integrals, "_oracle_poly_cached", "integrals.oracle_build",
                      info_before, info_after)
    else:
        wrap_function(integrals, "_oracle_poly_cached", "integrals.oracle_build")
        tracer.absent.update(("integrals.oracle_build.hit_ratio", "integrals.oracle_build.misses"))

    for name, attrs in _INTEGRAL_LAYERS.items():
        for attr in attrs:
            wrap_function(integrals, attr, name)

    wrap_function(bernoulli, "bernoulli_polynomial", "bernoulli.polynomial")

    poly = getattr(bernoulli, "Polynomial", None)
    if poly is not None and "__call__" in vars(poly):
        poly.__call__ = _spanned(tracer, "bernoulli.poly_eval", vars(poly)["__call__"])
    else:
        tracer.absent.add("bernoulli.poly_eval")

    cache_cls = getattr(bernoulli, "BernoulliCache", None)
    if cache_cls is not None and "number" in vars(cache_cls) and "__len__" in vars(cache_cls):
        number = vars(cache_cls)["number"]

        @functools.wraps(number)
        def counted_number(self, k):
            tracer.count("bernoulli.number.calls")
            size = len(self)
            if k < size:
                return number(self, k)
            tracer.open("bernoulli.number")
            try:
                return number(self, k)
            finally:
                tracer.close()
                tracer.count("bernoulli.number.grown", len(self) - size)

        cache_cls.number = counted_number
    else:
        tracer.absent.add("bernoulli.number")

    verify = sys.modules.get("bernint.verify")
    if verify is not None:
        for name, attr in _VERIFY_LAYERS.items():
            wrap_function(verify, attr, name)


def table_entries(tracer: Tracer) -> None:
    """Count the entries the scaled-table cache holds now."""
    integrals = sys.modules.get("bernint.integrals")
    tables_at = getattr(integrals, "_tables_at", None)
    zero_table = getattr(integrals, "_zero_table", None)
    if not isinstance(tables_at, dict) or zero_table is None:
        tracer.absent.add("integrals.tables.entries")
        return
    entries = sum(len(t[0]) for t in tables_at.values()) + len(zero_table[0])
    tracer.count("integrals.tables.entries", entries)
