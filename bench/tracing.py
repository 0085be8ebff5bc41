"""Spans around calls into the library's layers, recorded from outside.

``Tracer.install`` replaces each public function listed in ``POINTS`` at
the names its callers look up (``recurquot.quotient.laurent_gcd`` rather
than ``recurquot.groupring.laurent_gcd``, because ``quotient`` imported
the name).  The replacement records a span (name, start, end, parent)
and a few counters, then calls the original.  ``uninstall`` puts the
originals back.  The library's sources are not touched.
"""

from __future__ import annotations

import importlib
import time
from fractions import Fraction

# (span name, places the name is looked up: "module:attr" or "module:Class.attr")
POINTS = (
    ("groupring.laurent_gcd", ("recurquot.quotient:laurent_gcd",)),
    ("groupring.laurent_divide", ("recurquot.quotient:laurent_divide",)),
    ("groupring.to_group_ring", ("recurquot.quotient:to_group_ring",)),
    ("groupring.from_group_ring", ("recurquot.quotient:from_group_ring",)),
    ("multiplicative.compute_basis",
     ("recurquot.quotient:compute_basis", "recurquot.cli:compute_basis")),
    ("multiplicative.torsion_status", ("recurquot.multiplicative:torsion_status",)),
    ("multiplicative.express", ("recurquot.multiplicative:MultiplicativeBasis.express",)),
    ("linalg.row_hnf", ("recurquot.multiplicative:row_hnf",)),
    ("linalg.left_kernel", ("recurquot.multiplicative:left_kernel",)),
    ("linalg.hnf_express", ("recurquot.multiplicative:hnf_express",)),
    ("factorization.factor_rational",
     ("recurquot.multiplicative:factor_rational", "recurquot.heights:factor_rational")),
    ("factorization.factor_int", ("recurquot.factorization:factor_int",)),
    ("factorization.euler_phi", ("recurquot.integrality:euler_phi",)),
    ("quotient.hadamard_quotient", ("recurquot.quotient:hadamard_quotient",)),
    ("quotient.polynomial_clearance", ("recurquot.quotient:polynomial_clearance",)),
    ("quotient.cross_quotient", ("recurquot.quotient:cross_quotient",)),
    ("quotient.solve_on_sections", ("recurquot.quotient:solve_on_sections",)),
    ("quotient.solve_with_torsion_fallback",
     ("recurquot.quotient:solve_with_torsion_fallback",
      "recurquot.cli:solve_with_torsion_fallback")),
    ("recurrences.mul", ("recurquot.recurrences:LinearRecurrence.__mul__",)),
    ("recurrences.eq", ("recurquot.recurrences:LinearRecurrence.__eq__",)),
    ("recurrences.evaluate", ("recurquot.recurrences:LinearRecurrence.evaluate",)),
    ("recurrences.zero_set", ("recurquot.recurrences:zero_set", "recurquot.cli:zero_set")),
    ("integrality.search",
     ("recurquot.integrality:integrality_search", "recurquot.cli:integrality_search")),
    ("integrality.obstruction_scan",
     ("recurquot.integrality:obstruction_scan", "recurquot.cli:obstruction_scan")),
    ("heights.decay_check", ("recurquot.heights:decay_check", "recurquot.cli:decay_check")),
    ("heights.s_membership", ("recurquot.heights:s_membership",)),
    ("parsing.parse_spec", ("recurquot.cli:parse_spec",)),
    ("parsing.render_spec", ("recurquot.cli:render_spec",)),
    ("cli.main", ("recurquot.cli:main",)),
)


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    if isinstance(x, int):
        return abs(x).bit_length()
    return 0


def _resolve(place: str):
    module_name, _, attr = place.partition(":")
    owner = importlib.import_module(module_name)
    while "." in attr:
        head, _, attr = attr.partition(".")
        owner = getattr(owner, head)
    return owner, attr


class Tracer:
    """Span recorder for one worker; spans are taken per operation."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []
        self._limit_error: type | tuple = ()  # FactorizationLimit once installed

    def take(self) -> tuple[list[tuple], dict[str, int]]:
        spans = [tuple(s) for s in self.spans]
        counters = self.counters
        self.spans, self.stack, self.counters = [], [], {}
        return spans, counters

    def _count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _observe(self, name: str, args, result) -> None:
        if name == "groupring.laurent_divide" and result is not None:
            self._count("groupring.divide_exact")
        elif name.startswith("factorization.") and args:
            bits = _bits(args[0])
            if bits > self.counters.get("factorization.max_input_bits", 0):
                self.counters["factorization.max_input_bits"] = bits
            if name == "factorization.euler_phi":
                self._count("integrality.totient_candidates")
        elif name == "integrality.search":
            self._count("integrality.cells", args[2] * args[3])
            self._count("integrality.hits", len(result))

    def _wrap(self, name: str, original):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(tracer.spans)
            span = [name, clock(), 0.0, tracer.stack[-1] if tracer.stack else -1]
            tracer.spans.append(span)
            tracer.stack.append(index)
            try:
                result = original(*args, **kwargs)
            except tracer._limit_error:
                if name == "factorization.factor_int":
                    tracer._count("factorization.limit_errors")
                raise
            finally:
                span[2] = clock()
                tracer.stack.pop()
            tracer._observe(name, args, result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            return
        from recurquot.errors import FactorizationLimit

        self._limit_error = FactorizationLimit
        for name, places in POINTS:
            for place in places:
                owner, attr = _resolve(place)
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(calls: dict, self_s: dict, counters: dict, ops: int) -> dict:
    """Per-layer metrics as {name: (value, unit)}, counts and times per operation.

    ``calls[n]`` counts spans named n and ``self_s[n]`` sums their self time.
    """
    per_op = 1.0 / max(ops, 1)

    def c(*names):
        return sum(calls.get(n, 0) for n in names) * per_op

    def s(*names):
        return sum(self_s.get(n, 0.0) for n in names) * per_op

    divides = calls.get("groupring.laurent_divide", 0)
    factor_names = (
        "factorization.factor_rational",
        "factorization.factor_int",
        "factorization.euler_phi",
    )
    quotient_names = tuple(n for n, _ in POINTS if n.startswith("quotient."))
    return {
        "groupring.gcd_calls": (c("groupring.laurent_gcd"), "count/op"),
        "groupring.gcd_self_s": (s("groupring.laurent_gcd"), "s/op"),
        "groupring.divide_calls": (c("groupring.laurent_divide"), "count/op"),
        "groupring.divide_self_s": (s("groupring.laurent_divide"), "s/op"),
        "groupring.divide_exact_ratio": (
            counters.get("groupring.divide_exact", 0) / divides if divides else 0.0,
            "ratio",
        ),
        "groupring.convert_self_s": (
            s("groupring.to_group_ring", "groupring.from_group_ring"), "s/op"),
        "multiplicative.basis_calls": (c("multiplicative.compute_basis"), "count/op"),
        "multiplicative.express_calls": (c("multiplicative.express"), "count/op"),
        "multiplicative.self_s": (
            s("multiplicative.compute_basis", "multiplicative.torsion_status",
              "multiplicative.express"), "s/op"),
        "linalg.calls": (c("linalg.row_hnf", "linalg.left_kernel", "linalg.hnf_express"),
                         "count/op"),
        "linalg.self_s": (s("linalg.row_hnf", "linalg.left_kernel", "linalg.hnf_express"),
                          "s/op"),
        "factorization.calls": (c(*factor_names), "count/op"),
        "factorization.self_s": (s(*factor_names), "s/op"),
        "factorization.max_input_bits": (
            counters.get("factorization.max_input_bits", 0), "bits"),
        "factorization.limit_errors": (
            counters.get("factorization.limit_errors", 0) * per_op, "count/op"),
        "quotient.solve_calls": (
            c("quotient.hadamard_quotient", "quotient.polynomial_clearance",
              "quotient.cross_quotient"), "count/op"),
        "quotient.self_s": (s(*quotient_names), "s/op"),
        "recurrences.mul_calls": (c("recurrences.mul", "recurrences.eq"), "count/op"),
        "recurrences.mul_self_s": (s("recurrences.mul", "recurrences.eq"), "s/op"),
        "recurrences.evaluate_calls": (c("recurrences.evaluate"), "count/op"),
        "recurrences.evaluate_self_s": (s("recurrences.evaluate"), "s/op"),
        "recurrences.zero_set_self_s": (s("recurrences.zero_set"), "s/op"),
        "integrality.search_self_s": (s("integrality.search"), "s/op"),
        "integrality.cells": (counters.get("integrality.cells", 0) * per_op, "count/op"),
        "integrality.totient_candidates": (
            counters.get("integrality.totient_candidates", 0) * per_op, "count/op"),
        "integrality.hits": (counters.get("integrality.hits", 0) * per_op, "count/op"),
        "integrality.obstruction_self_s": (s("integrality.obstruction_scan"), "s/op"),
        "heights.decay_self_s": (s("heights.decay_check"), "s/op"),
        "heights.s_membership_calls": (c("heights.s_membership"), "count/op"),
        "parsing.self_s": (s("parsing.parse_spec", "parsing.render_spec"), "s/op"),
        "cli.main_self_s": (s("cli.main"), "s/op"),
    }
