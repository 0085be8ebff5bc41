"""The process that runs library operations for the benchmark.

The parent sends messages over a pipe:

* ``("load", ops)``: build library inputs from plain closed forms;
* ``("trace",)``: install the span wrappers;
* ``("op", index)``: run one operation under the per-op cap;
* ``("stop",)``: exit.

Each operation replies ``(status, seconds, output, spans, counters,
peak_rss_kb, reference)``: the worker's resident high-water mark, and the
time of the reference task when one ran just before the operation (at
most REFERENCE_EVERY_S after the last), else None.
``output`` is plain data (tuples, ints, Fractions, strings), so the
parent's oracles never touch library objects.  A SIGALRM at the cap
interrupts pure-Python work; the parent kills the process if one long
big-integer operation outlasts the cap by the grace period.
"""

from __future__ import annotations

import io
import math
import resource
import signal
import sys
import time
from fractions import Fraction

import closedform as cf

REFERENCE_EVERY_S = 0.05


class OpTimeout(BaseException):
    """Raised by the alarm; a BaseException so no library handler eats it."""


def _alarm(signum, frame):
    raise OpTimeout()


def reference_task() -> int:
    """A fixed piece of pure-Python rational and dictionary work.

    It uses no library code.  Timed next to the operations, it measures
    how fast the host runs Python at that moment (a shared host's speed
    swings by half within seconds), so timings can be scaled to a fixed
    reference speed.
    """
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i * 7919 % 1013, i + 1) * Fraction(3, 2) ** (i % 13)
    table: dict = {}
    for i in range(3000):
        key = (i % 37, i % 11)
        table[key] = table.get(key, 0) + i * i
    return acc.numerator % 1000 + len(table)


def time_reference(times: int) -> list[float]:
    out = []
    for _ in range(times):
        started = time.perf_counter()
        reference_task()
        out.append(time.perf_counter() - started)
    return out


class Library:
    """Builds inputs and calls the library through its module attributes."""

    def __init__(self):
        import recurquot.cli as cli
        import recurquot.heights as heights
        import recurquot.integrality as integrality
        import recurquot.places as places
        import recurquot.polys as polys
        import recurquot.quotient as quotient
        import recurquot.recurrences as recurrences

        self.cli = cli
        self.heights = heights
        self.integrality = integrality
        self.places = places
        self.polys = polys
        self.quotient = quotient
        self.recurrences = recurrences

    def rec(self, closed_form):
        return self.recurrences.from_closed_form(
            [(root, self.polys.UniPoly(list(coeffs))) for root, coeffs in closed_form]
        )

    def build(self, kind: str, p: dict):
        """A zero-argument call for one operation; inputs are built here."""
        q, integ, heights = self.quotient, self.integrality, self.heights
        if kind == "cli":
            argv = list(p["argv"])
            main = self.cli
            def call():
                out = io.StringIO()
                code = main.main(argv, out=out)
                return code, out.getvalue()
            return call
        u = self.rec(p["u"]) if "u" in p else None
        v = self.rec(p["v"]) if "v" in p else None
        if kind == "clearance":
            return lambda: q.polynomial_clearance(u, v)
        if kind == "cross":
            return lambda: q.cross_quotient(u, v)
        if kind == "hadamard":
            return lambda: q.hadamard_quotient(u, v)
        if kind == "torsion":
            return lambda: q.solve_with_torsion_fallback(u, v, "hadamard", decimate=True)
        if kind == "search":
            if p["policy"][0] == "fixed":
                policy = integ.FixedDenominator(p["policy"][1])
            else:
                policy = integ.PolynomialDenominatorBound(p["policy"][1])
            return lambda: integ.integrality_search(
                u, v, p["m_max"], p["n_max"], policy, totient=p["totient"]
            )
        if kind == "obstruct":
            return lambda: integ.obstruction_scan(u, v, p["progression"], p["prime"])
        if kind == "decay":
            place = self.places.Place.parse(p["place"])
            return lambda: heights.decay_check(v, place, p["lo"], p["hi"])
        if kind == "zeros":
            return lambda: self.recurrences.zero_set(u, p["bound"])
        raise ValueError(f"unknown operation kind {kind!r}")

    def plain(self, x):
        """Library results as plain data for the parent's oracles."""
        rec, q = self.recurrences, self.quotient
        if x is None or isinstance(x, (bool, int, str)):
            return x
        if isinstance(x, tuple) and len(x) == 2 and isinstance(x[1], str):
            return x  # (exit code, CLI output)
        if isinstance(x, rec.LinearRecurrence):
            return ("rec", tuple((r, tuple(c.coeffs)) for r, c in x.terms))
        if isinstance(x, rec.MultiRecurrence):
            return ("multi", tuple(
                (a, b, tuple(sorted(c.terms.items()))) for a, b, c in x.terms
            ))
        if isinstance(x, q.QuotientCertificate):
            return ("certificate", tuple(x.clearing_poly.coeffs), self.plain(x.quotient),
                    self.plain(x.v_over_p), x.min_denominator)
        if isinstance(x, q.NoClearance):
            witness = None
            if x.witness is not None:
                # The witness as a closed form: X^d T^e is n^d times the
                # root prod(g_i^e_i) to the n.
                generators = x.witness.basis.generators
                witness = cf.canonical(
                    (math.prod((Fraction(g) ** e for g, e in zip(generators, te)),
                               start=Fraction(1)), [0] * d + [c])
                    for (d, te), c in x.witness.terms.items())
            return ("refusal", x.reason, witness)
        if isinstance(x, list) and x and isinstance(x[0], q.SectionResult):
            return ("sections", tuple(
                (s.modulus, s.offsets,
                 s.outcome if isinstance(s.outcome, str) else self.plain(s.outcome))
                for s in x
            ))
        if isinstance(x, list):
            return ("hits", tuple((h.m, h.n, h.d) for h in x))
        if isinstance(x, self.integrality.ObstructionReport):
            return ("obstruction", x.certified, x.period, x.failing_side, x.failing_index)
        if isinstance(x, self.heights.DecayReport):
            return ("decay", tuple(x.max_ratio.coeffs.items()), x.argmax_n,
                    len(x.samples), x.skipped_zeros)
        if isinstance(x, rec.ZeroSetReport):
            return ("zeros", x.progressions, x.sporadic, x.complete)
        raise TypeError(f"no plain form for {type(x).__name__}")


def serve(conn, src_dir: str, memory_limit: int, cap_s: float) -> None:
    """Worker main loop; ``python3 bench/worker.py`` runs it (see the end)."""
    resource.setrlimit(resource.RLIMIT_AS, (memory_limit, memory_limit))
    sys.path.insert(0, src_dir)
    from tracing import Tracer

    lib = Library()
    tracer = Tracer()
    calls = []
    last_reference = 0.0
    while True:
        try:
            message = conn.recv()
        except EOFError:  # the parent has gone
            break
        if message[0] == "stop":
            break
        if message[0] == "load":
            calls = [lib.build(kind, payload) for kind, payload in message[1]]
            conn.send(("ready",))
        elif message[0] == "trace":
            tracer.install()
            conn.send(("ready",))
        elif message[0] == "op":
            reference = None
            if time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
                reference = time_reference(1)[0]
                last_reference = time.perf_counter()
            conn.send(_run(calls[message[1]], lib, tracer, cap_s) + (reference,))
    conn.close()


def _run(call, lib, tracer, cap_s):
    status, output, ended = "ok", None, None
    signal.signal(signal.SIGALRM, _alarm)
    started = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, cap_s)
            result = call()
            ended = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        status = "timeout"
    except MemoryError:
        status = "memory"
    except Exception as exc:  # a raise is a failed operation, reported by name
        status, output = "error", f"{type(exc).__name__}: {exc}"[:500]
    else:
        try:
            output = lib.plain(result)
        except MemoryError:
            status = "memory"
    elapsed = (ended if ended is not None else time.perf_counter()) - started
    spans, counters = tracer.take()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return status, elapsed, output, spans, counters, peak_rss_kb


if __name__ == "__main__":
    # python3 bench/worker.py FD SRC_DIR MEMORY_LIMIT CAP_S, FD being this
    # process's end of a multiprocessing pipe.
    from multiprocessing.connection import Connection

    fd, src, limit, cap = sys.argv[1:]
    serve(Connection(int(fd)), src, int(limit), float(cap))
