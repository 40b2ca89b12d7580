"""Layer tracing from outside the package: patch public entry points, aggregate spans.

Every traced entry point becomes a span.  A span's self time is its
duration minus the time of the traced spans it called, so a layer's
self time never double-counts the layers below it.  Spans are folded
into per-name aggregates (calls and self seconds) as they
close, which bounds memory even at the scalar layer, and the aggregates
stay in memory until ``metrics()`` is read at the end of the run.

Methods are patched on their class.  A module function is patched in
every ``supergrr`` module that holds it by name (``modulidim.chi_super``
as well as ``grr.chi_super``), so calls through any import path are
seen.  ``uninstall`` restores every original.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

# (span name, defining module, class name or None, attributes)
SPANS = (
    ("superscalar.mul", "superscalar", "SuperScalar", ("__mul__", "__rmul__")),
    ("superscalar.add", "superscalar", "SuperScalar", ("__add__", "__radd__")),
    ("superscalar.invert", "superscalar", "SuperScalar", ("invert",)),
    ("chowring.ring_mul", "chowring", "GradedElement", ("ring_mul",)),
    ("chowring.series_invert", "chowring", "GradedElement", ("series_invert",)),
    ("chowring.exp_nilpotent", "chowring", "GradedElement", ("exp_nilpotent",)),
    ("superbundle.ch", "superbundle", "SuperBundle", ("chern_character",)),
    ("superbundle.c", "superbundle", "SuperBundle", ("chern_total",)),
    ("superbundle.td", "superbundle", "SuperBundle", ("todd",)),
    ("ktheory.star_product", "ktheory", None, ("star_product",)),
    ("ktheory.ch_twisted", "ktheory", None, ("ch_twisted",)),
    ("ktheory.j_map", "ktheory", None, ("j_map",)),
    ("ktheory.sigma1_normal", "ktheory", None, ("sigma1_normal",)),
    ("grr.chi_super", "grr", None, ("chi_super",)),
    ("grr.rr_oracle", "grr", None, ("rr_oracle",)),
    ("grr.gr_module", "grr", None, ("gr_module",)),
    ("modulidim.evaluate_request", "modulidim", None, ("evaluate_request",)),
    ("modulidim.vdim_assembled", "modulidim", None, ("vdim_assembled",)),
    ("modulidim.vdim_closed", "modulidim", None, ("vdim_closed",)),
    ("cli.main", "cli", None, ("main",)),
)

# counted constructions and validations: no span, the time stays with the caller
COUNTS = (
    ("chowring.elements_built", "chowring", "GradedElement", "__post_init__"),
    ("superbundle.bundles_built", "superbundle", "SuperBundle", "__post_init__"),
    ("superbundle.roots_validated", "superbundle", None, "_validate_root"),
)


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, self seconds]
        self.spans: dict[str, list] = {name: [0, 0.0] for name, *_ in SPANS}
        self.counts: Counter = Counter()
        self.normal_data: set = set()
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn, before=None):
        entry = self.spans[name]
        stack = self._stack

        def traced(*args, **kwargs):
            if before is not None:
                before(*args)
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                entry[0] += 1
                entry[1] += elapsed - children

        return traced

    def _count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _mul_operands(self, a, b) -> None:
        # b may be an int or a Fraction, which the method coerces; both
        # carry a denominator
        b_soul = getattr(b, "soul", 0)
        b_body = getattr(b, "body", b)
        counts = self.counts
        if not a.soul or not b_soul:
            counts["superscalar.mul.soul_free"] += 1
        if (
            a.body.denominator != 1
            or a.soul.denominator != 1
            or b_body.denominator != 1
            or b_soul.denominator != 1
        ):
            counts["superscalar.mul.fractional"] += 1

    def _ring_mul_products(self, a, b) -> None:
        # the coefficient products the convolution performs: nonzero pairs
        # whose degrees stay within the top degree
        top = a.model.top_degree
        rhs = b.coeffs
        self.counts["chowring.coeff_products"] += sum(
            1
            for i, x in enumerate(a.coeffs)
            if x
            for j in range(top - i + 1)
            if rhs[j]
        )

    def _sigma1_input(self, nd) -> None:
        self.normal_data.add(nd)

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        before = {
            "superscalar.mul": self._mul_operands,
            "chowring.ring_mul": self._ring_mul_products,
            "ktheory.sigma1_normal": self._sigma1_input,
        }
        for name, module, cls, attrs in SPANS:
            for attr in attrs:
                self._patch(module, cls, attr, lambda fn, n=name: self._span(n, fn, before.get(n)))
        for name, module, cls, attr in COUNTS:
            self._patch(module, cls, attr, lambda fn, n=name: self._count(n, fn))

    def _patch(self, module: str, cls: str | None, attr: str, make) -> None:
        # an entry point a later version no longer has is left out, and
        # its metrics read 0: e.g. no roots validated once roots are plain degrees
        home = sys.modules.get(f"supergrr.{module}")
        if cls is not None:
            klass = getattr(home, cls, None)
            if klass is not None and attr in vars(klass):
                self._set(klass, attr, make(vars(klass)[attr]))
            return
        original = getattr(home, attr, None)
        if original is None:
            return
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "supergrr" or mod_name.startswith("supergrr."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics by name; ratios read 0 when their denominator is 0."""
        spans, counts = self.spans, self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        mul_calls = spans["superscalar.mul"][0]
        out = {
            "superscalar.mul.calls": mul_calls,
            "superscalar.add.calls": spans["superscalar.add"][0],
            "superscalar.invert.calls": spans["superscalar.invert"][0],
            "superscalar.self_s": sum(
                spans[n][1] for n in ("superscalar.mul", "superscalar.add", "superscalar.invert")
            ),
            "superscalar.mul.soul_free_ratio": ratio(counts["superscalar.mul.soul_free"], mul_calls),
            "superscalar.mul.fractional_ratio": ratio(counts["superscalar.mul.fractional"], mul_calls),
        }
        for name in (
            "chowring.ring_mul",
            "chowring.series_invert",
            "chowring.exp_nilpotent",
            "superbundle.ch",
            "superbundle.c",
            "superbundle.td",
            "ktheory.star_product",
            "ktheory.ch_twisted",
            "grr.chi_super",
            "grr.rr_oracle",
            "grr.gr_module",
            "modulidim.evaluate_request",
            "modulidim.vdim_assembled",
        ):
            out[f"{name}.calls"] = spans[name][0]
            out[f"{name}.self_s"] = spans[name][1]
        for name in ("chowring.coeff_products", "chowring.elements_built",
                     "superbundle.bundles_built", "superbundle.roots_validated"):
            out[name] = counts[name]
        sigma1_calls = spans["ktheory.sigma1_normal"][0]
        out["ktheory.j_map.calls"] = spans["ktheory.j_map"][0]
        out["ktheory.sigma1_normal.calls"] = sigma1_calls
        out["ktheory.sigma1_reuse_ratio"] = ratio(len(self.normal_data), sigma1_calls)
        out["modulidim.vdim_closed.self_s"] = spans["modulidim.vdim_closed"][1]
        out["cli.main.self_s"] = spans["cli.main"][1]
        return out
