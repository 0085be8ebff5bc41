"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import itertools
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import closedform as cf  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import Library, _run  # noqa: E402


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.inner", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("b.inner", 6.0, 6.5, 3),
        ("b.inner", 7.0, 8.0, 3),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 2.5, 0.5, 1.0]


def test_layer_metrics_are_per_operation():
    calls = {"groupring.laurent_gcd": 6, "groupring.laurent_divide": 4}
    self_s = {"groupring.laurent_gcd": 3.0, "groupring.laurent_divide": 1.0}
    counters = {"groupring.divide_exact": 3, "factorization.max_input_bits": 70}
    metrics = tracing.layer_metrics(calls, self_s, counters, ops=2)
    assert metrics["groupring.gcd_calls"] == (3.0, "count/op")
    assert metrics["groupring.gcd_self_s"] == (1.5, "s/op")
    assert metrics["groupring.divide_exact_ratio"] == (0.75, "ratio")
    assert metrics["factorization.max_input_bits"] == (70, "bits")


def _sample_ops(per_kind=3):
    """A few cheap operations of every kind in every workload's first round.

    Clearance cases count as two kinds, by whether b has a single root.
    The quotient-ladder round lists its body rungs before its cliff rungs,
    and index-scan's capped totient rung is left out.
    """
    ops = []
    for name in workloads.WORKLOADS:
        taken: dict = {}
        for op in next(workloads.rounds(name, 7)):
            kind = op[2][0]
            if kind == "clearance":
                kind = (kind, len(op[2][3]) == 1)
            if op[2][:5] == ("search", 3, 2, 1, 24) or taken.get(kind, 0) == per_kind:
                continue
            taken[kind] = taken.get(kind, 0) + 1
            ops.append(op)
    return ops


def test_traced_and_untraced_outputs_are_identical():
    lib = Library()
    tracer = tracing.Tracer()
    ops = _sample_ops()
    calls = [lib.build(kind, payload) for kind, payload, _ in ops]
    untraced = [_run(call, lib, tracer, 30.0) for call in calls]
    originals = {place: getattr(*tracing._resolve(place))
                 for _, places in tracing.POINTS for place in places}
    tracer.install()
    try:
        traced = [_run(call, lib, tracer, 30.0) for call in calls]
    finally:
        tracer.uninstall()
    for place, original in originals.items():
        assert getattr(*tracing._resolve(place)) is original
    for (kind, _, expect), a, b in zip(ops, untraced, traced):
        assert a[0] == b[0] == "ok", (kind, a[2], b[2])
        assert a[2] == b[2], kind
        assert workloads.check(expect, a[2]), kind
        assert a[3] == [] and b[3], kind  # spans only when traced


def test_cap_interrupts_a_long_operation():
    def spin():
        while True:
            pass

    started = time.perf_counter()
    status, *_ = _run(spin, Library(), tracing.Tracer(), 0.05)
    assert status == "timeout"
    assert time.perf_counter() - started < 1.0


def test_a_worker_killed_at_the_cap_is_reaped_with_its_peak_rss(monkeypatch):
    # The parent gives up 0.5 s into an operation that takes seconds,
    # before the worker's own alarm fires: as when one big-integer
    # operation outlasts the alarm.
    monkeypatch.setattr(run, "GRACE_S", 0.5 - run.CAP_S)
    ops = [op for op in next(workloads.rounds("index-scan", 7))
           if op[2][:5] == ("search", 3, 2, 1, 24)]
    client = run.WorkerClient()
    client.load(ops)
    try:
        killed = client.process.pid
        status, latency, _, _, _, rss_kb, _ = client.run(0)
        assert client.process.pid != killed
    finally:
        client.close()
    assert status == "timeout" and latency == run.CAP_S
    assert rss_kb > 10_000


def test_oracles_reject_wrong_answers():
    lib = Library()
    ops = _sample_ops(per_kind=6)
    rejected = set()
    for kind, payload, expect in ops:
        out = lib.plain(lib.build(kind, payload)())
        assert workloads.check(expect, out)
        wrong = _corrupt(out)
        if wrong is not None:
            assert not workloads.check(expect, wrong), (expect[0], out, wrong)
            rejected.add(expect[0])
    assert rejected >= {"clearance", "coprime", "cross", "quotient", "refusal",
                        "search", "obstruct", "decay", "zeros", "cli"}


def _corrupt(out):
    """A plausible wrong answer of the same shape, or None."""
    one = Fraction(1)
    if out is None:
        return ("rec", ((Fraction(2), (one,)),))
    tag = out[0]
    if tag == "rec":
        root, coeffs = out[1][0]
        return ("rec", ((root, (coeffs[0] + 1,) + coeffs[1:]),) + out[1][1:])
    if tag == "certificate":
        return (tag, out[1][:-1] + (Fraction(2),), *out[2:])
    if tag == "refusal" and out[2] is None:
        return (tag, "other-reason", None)
    if tag == "refusal":
        return (tag, out[1], cf.multiply(out[2], ((one, (one,)), (Fraction(7), (one,)))))
    if tag == "hits":
        return (tag, out[1][1:]) if out[1] else (tag, ((1, 1, 1),))
    if tag == "obstruction":
        return (tag, not out[1], *out[2:])
    if tag == "decay":
        return (tag, out[1], (out[2] or 0) + 1, *out[3:])
    if tag == "zeros":
        return (tag, out[1], out[2] + (10**6,), out[3])
    if isinstance(tag, int):
        return (tag, out[1] + " ")
    return None


def test_refusal_oracle_rejects_a_gcd_that_misses_the_common_factor(monkeypatch):
    import recurquot.quotient as quotient
    from recurquot.groupring import GroupRingElement

    def unit_gcd(f, g):
        return GroupRingElement(f.basis, {(0, (0,) * f.basis.rank): Fraction(1)})

    lib = Library()
    cases = [op for op in next(workloads.rounds("quotient-ladder", 7))
             if op[2][0] == "clearance" and len(op[2][3]) > 1][:8]
    honest = [lib.plain(lib.build(kind, payload)()) for kind, payload, _ in cases]
    monkeypatch.setattr(quotient, "laurent_gcd", unit_gcd)
    for (kind, payload, expect), out in zip(cases, honest):
        assert workloads.check(expect, out)
        assert not workloads.check(expect, lib.plain(lib.build(kind, payload)()))


def test_certificates_are_due_when_the_divisor_has_one_root():
    lib = Library()
    cases = [op for op in next(workloads.rounds("quotient-ladder", 7))
             if op[2][0] == "clearance" and len(op[2][3]) == 1]
    assert cases
    for kind, payload, expect in cases[:4]:
        out = lib.plain(lib.build(kind, payload)())
        assert out[0] == "certificate" and workloads.check(expect, out)
        refusal = ("refusal", "divisor-not-polynomial", cf.canonical(
            [(Fraction(2), [Fraction(1)]), (Fraction(3), [Fraction(1)])]))
        assert not workloads.check(expect, refusal)


def test_exact_division_of_closed_forms():
    f = cf.canonical([(Fraction(2), [1, 1]), (Fraction(1, 3), [2])])
    g = cf.canonical([(Fraction(5), [-1]), (Fraction(1), [0, 3])])
    assert cf.divide(cf.multiply(f, g), g) == f
    assert cf.divide(cf.add(cf.multiply(f, g), ((Fraction(7), (Fraction(1),)),)), g) is None
    assert cf.divide(f, g) is None


def test_inputs_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        a = list(itertools.islice(workloads.rounds(name, 5), 2))
        b = list(itertools.islice(workloads.rounds(name, 5), 2))
        c = list(itertools.islice(workloads.rounds(name, 6), 2))
        assert a == b
        assert name == "cli-cold" or a != c


def test_closed_form_arithmetic_matches_pointwise_values():
    f = cf.canonical([(Fraction(2), [1, 1]), (Fraction(-3), [2])])
    g = cf.canonical([(Fraction(1, 2), [0, 0, 1]), (Fraction(5), [-1])])
    product = cf.multiply(f, g)
    for n in range(8):
        assert cf.evaluate(product, n) == cf.evaluate(f, n) * cf.evaluate(g, n)
    for q, r in ((2, 0), (2, 1), (3, 2)):
        section = cf.decimate(f, q, r)
        assert all(cf.evaluate(section, k) == cf.evaluate(f, q * k + r) for k in range(6))
