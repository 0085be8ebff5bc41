import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurquot import multiplicative, quotient
from recurquot.errors import DivisorZero, FactorizationLimit, InputError, TorsionGroup
from recurquot.polys import UniPoly
from recurquot.quotient import (
    NoClearance,
    QuotientCertificate,
    SectionResult,
    cross_quotient,
    hadamard_quotient,
    polynomial_clearance,
    solve_on_sections,
    solve_with_torsion_fallback,
)
from recurquot.recurrences import (
    LinearRecurrence,
    constant,
    from_closed_form,
    geometric,
    polynomial,
)

F = Fraction


def mersenne(base=2):
    return from_closed_form([(F(base), F(1)), (F(1), F(-1))])


def test_hadamard_exact_division():
    u = mersenne(4)
    v = mersenne(2)
    q = hadamard_quotient(u, v)
    assert q == from_closed_form([(F(2), F(1)), (F(1), F(1))])
    for n in range(1, 8):
        assert q.evaluate(n) == u.evaluate(n) / v.evaluate(n)


def test_hadamard_higher_power():
    u = mersenne(8)
    v = mersenne(2)
    q = hadamard_quotient(u, v)
    assert q == from_closed_form([(F(4), F(1)), (F(2), F(1)), (F(1), F(1))])


def test_hadamard_refuses_coprime():
    u = from_closed_form([(F(2), F(1)), (F(1), F(1))])
    v = mersenne(2)
    assert hadamard_quotient(u, v) is None


def test_hadamard_zero_numerator():
    assert hadamard_quotient(LinearRecurrence(()), mersenne()).is_zero


def test_hadamard_zero_divisor():
    with pytest.raises(DivisorZero):
        hadamard_quotient(mersenne(), LinearRecurrence(()))


def test_hadamard_rational_coefficients():
    v = geometric(3, F(2, 5))
    u = geometric(6, F(4, 5))
    q = hadamard_quotient(u, v)
    assert q == geometric(2, F(2))


def test_hadamard_torsion_raises():
    u = from_closed_form([(F(2), F(1)), (F(-2), F(1))])
    with pytest.raises(TorsionGroup):
        hadamard_quotient(u, geometric(2))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from([F(2), F(3), F(5, 2)]),
                       st.integers(min_value=-3, max_value=3).filter(bool)),
             min_size=1, max_size=2),
    st.lists(st.tuples(st.sampled_from([F(2), F(3), F(5, 2)]),
                       st.integers(min_value=-3, max_value=3).filter(bool)),
             min_size=1, max_size=2),
)
def test_hadamard_recovers_constructed_factor(q_terms, v_terms):
    q = from_closed_form([(r, F(c)) for r, c in q_terms])
    v = from_closed_form([(r, F(c)) for r, c in v_terms])
    if q.is_zero or v.is_zero:
        return
    u = q * v
    got = hadamard_quotient(u, v)
    assert got == q


def test_clearance_polynomial_divisor():
    u = geometric(5)
    v = polynomial([F(0), F(1), F(1)])
    out = polynomial_clearance(u, v)
    assert isinstance(out, QuotientCertificate)
    assert out.clearing_poly == UniPoly([F(0), F(1), F(1)])
    assert out.quotient == u
    assert out.v_over_p == constant(1)
    assert out.min_denominator == 1


def test_clearance_shared_factor():
    # V = (n + 1) * (2^n - 1), U = 3^n * (2^n - 1): the common factor
    # cancels and the leftover n + 1 is clearable.
    shared = mersenne(2)
    u = geometric(3) * shared
    v = polynomial([F(1), F(1)]) * shared
    out = polynomial_clearance(u, v)
    assert isinstance(out, QuotientCertificate)
    assert out.clearing_poly == UniPoly([F(1), F(1)])
    assert out.quotient == geometric(3)
    for n in range(1, 7):
        p_n = out.clearing_poly(F(n))
        assert p_n * u.evaluate(n) == out.quotient.evaluate(n) * v.evaluate(n)


def test_clearance_refusal_names_witness():
    u = geometric(3)
    v = mersenne(2)
    out = polynomial_clearance(u, v)
    assert isinstance(out, NoClearance)
    assert out.reason == "divisor-not-polynomial"
    assert out.witness is not None
    assert not out.witness.is_polynomial
    assert "T1 - 1" in out.witness.render()


def test_clearance_certificate_identity_everywhere():
    u = mersenne(4) * polynomial([F(3)])
    v = mersenne(2) * polynomial([F(0), F(1)])
    out = polynomial_clearance(u, v)
    assert isinstance(out, QuotientCertificate)
    for n in range(1, 9):
        if v.evaluate(n) == 0:
            continue
        lhs = out.clearing_poly(F(n)) * u.evaluate(n) / v.evaluate(n)
        assert lhs == out.quotient.evaluate(n)
        assert v.evaluate(n) / out.clearing_poly(F(n)) == out.v_over_p.evaluate(n)


def test_clearance_min_denominator():
    u = geometric(2, F(1, 3))
    v = geometric(2)
    out = polynomial_clearance(u, v)
    assert isinstance(out, QuotientCertificate)
    assert out.quotient == constant(F(1, 3))
    assert out.min_denominator == 3


def test_cross_single_root_certificate():
    u = mersenne(3)
    v = from_closed_form([(F(2), UniPoly([F(0), F(2)]))])
    out = cross_quotient(u, v)
    assert isinstance(out, QuotientCertificate)
    assert out.clearing_poly == UniPoly([F(0), F(1)])
    assert out.v_over_p == geometric(2, F(2))
    for m in range(1, 5):
        for n in range(1, 5):
            lhs = out.clearing_poly(F(n)) * u.evaluate(m) / v.evaluate(n)
            assert lhs == out.quotient.evaluate(m, n)


def test_cross_multiple_roots_refused():
    out = cross_quotient(mersenne(3), mersenne(2))
    assert isinstance(out, NoClearance)
    assert out.reason == "multiple-roots"
    assert "finitely many" in out.detail


def test_cross_torsion_still_checked():
    with pytest.raises(TorsionGroup):
        cross_quotient(geometric(-2), geometric(2))


def test_sections_split_torsion():
    u = from_closed_form([(F(2), F(1)), (F(-2), F(1))])
    v = geometric(2)
    results = solve_on_sections(u, v, "hadamard")
    assert [r.offsets for r in results] == [(0,), (1,)]
    even, odd = results
    assert even.outcome == constant(2)
    assert odd.outcome.is_zero


def test_sections_divisor_vanishes():
    u = geometric(4)
    v = from_closed_form([(F(2), F(1)), (F(-2), F(1))])
    results = solve_on_sections(u, v, "hadamard")
    assert results[1].outcome == "divisor-vanishes"
    assert results[0].outcome == geometric(4, F(1, 2))


def test_sections_cross_offsets():
    results = solve_on_sections(geometric(3), geometric(2), "cross")
    assert [r.offsets for r in results] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(isinstance(r.outcome, QuotientCertificate) for r in results)


def test_fallback_passthrough():
    out = solve_with_torsion_fallback(mersenne(4), mersenne(2), "hadamard")
    assert out == from_closed_form([(F(2), F(1)), (F(1), F(1))])


def test_fallback_decimates_on_torsion():
    u = from_closed_form([(F(2), F(1)), (F(-2), F(1))])
    v = geometric(2)
    with pytest.raises(TorsionGroup):
        solve_with_torsion_fallback(u, v, "hadamard")
    results = solve_with_torsion_fallback(u, v, "hadamard", decimate=True)
    assert isinstance(results, list)
    assert all(isinstance(r, SectionResult) for r in results)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from([F(2), F(3), F(1, 2)]),
                       st.integers(min_value=-2, max_value=2).filter(bool)),
             min_size=1, max_size=2),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=3)
    .filter(lambda c: any(c)),
)
def test_clearance_identity_property(v_terms, p_coeffs):
    # U = V * polynomial guarantees clearance with P dividing that polynomial.
    v = from_closed_form([(r, F(c)) for r, c in v_terms])
    if v.is_zero:
        return
    p = polynomial([F(c) for c in p_coeffs])
    u = v * p
    out = polynomial_clearance(u, v)
    assert isinstance(out, QuotientCertificate)
    for n in range(1, 6):
        if v.evaluate(n) == 0:
            continue
        assert (
            out.clearing_poly(F(n)) * u.evaluate(n) / v.evaluate(n)
            == out.quotient.evaluate(n)
        )


# Under -O every assert is gone; the multiply-back check must still run.
_WRONG_DIVIDE = """
import sys
import recurquot.quotient as quotient
from recurquot.errors import VerificationFailed
from recurquot.recurrences import from_closed_form

if not sys.flags.optimize:
    raise SystemExit("not running under -O")
real_divide = quotient.laurent_divide
# Doubles the true quotient: 2*2^n + 2 for (4^n - 1)/(2^n - 1).
quotient.laurent_divide = lambda f, g: real_divide(f, g) * 2
try:
    quotient.hadamard_quotient(
        from_closed_form([(4, 1), (1, -1)]), from_closed_form([(2, 1), (1, -1)])
    )
except VerificationFailed as exc:
    print("VerificationFailed:", exc)
else:
    print("wrong quotient returned unchecked")
"""


def test_wrong_quotient_is_caught_under_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_DIVIDE],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("VerificationFailed:"), result.stdout


# The clearance certificate is re-checked as recurrences: P*U == Q*V and
# V == P*(V/P).  "all" doubles every quotient, so Q is wrong; "v_over_p"
# doubles only the division by P.  U = 2^n - 1, V = n*(2^n - 1), P = X.
_WRONG_CLEARANCE = """
import sys
import recurquot.quotient as quotient
from recurquot.errors import VerificationFailed
from recurquot.recurrences import from_closed_form

if not sys.flags.optimize:
    raise SystemExit("not running under -O")
mode = sys.argv[1]
real_divide = quotient.laurent_divide

def wrong_divide(f, g):
    q = real_divide(f, g)
    by_p = g.is_polynomial and not g.is_unit
    if q is None or (mode == "v_over_p" and not by_p):
        return q
    return q * 2

quotient.laurent_divide = wrong_divide
try:
    quotient.polynomial_clearance(
        from_closed_form([(2, 1), (1, -1)]), from_closed_form([(2, [0, 1]), (1, [0, -1])])
    )
except VerificationFailed as exc:
    print("VerificationFailed:", exc)
else:
    print("wrong certificate returned unchecked")
"""


@pytest.mark.parametrize("mode", ["all", "v_over_p"])
def test_wrong_clearance_is_caught_under_optimize(mode):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_CLEARANCE, mode],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("VerificationFailed:"), result.stdout


def test_clearance_case_of_the_optimize_test():
    u = mersenne()
    v = from_closed_form([(F(2), UniPoly([F(0), F(1)])), (F(1), UniPoly([F(0), F(-1)]))])
    out = polynomial_clearance(u, v)
    assert isinstance(out, QuotientCertificate)
    assert out.clearing_poly == UniPoly([F(0), F(1)])
    assert out.quotient == constant(1) and out.v_over_p == u


def test_each_root_is_factored_once_per_solve(monkeypatch):
    calls = []
    converting = []
    real_factor = multiplicative.factor_rational
    real_to_group_ring = quotient.to_group_ring

    def factor_rational(x, limit=None):
        calls.append((x, bool(converting)))
        return real_factor(x, limit)

    def to_group_ring(rec, basis):
        converting.append(rec)
        try:
            return real_to_group_ring(rec, basis)
        finally:
            converting.pop()

    monkeypatch.setattr(multiplicative, "factor_rational", factor_rational)
    monkeypatch.setattr(quotient, "to_group_ring", to_group_ring)
    u = from_closed_form([(F(10), F(1)), (F(6), F(-1)), (F(5), F(-3)), (F(3), F(3))])
    v = from_closed_form([(F(2), F(1)), (F(1), F(-1))])
    assert isinstance(polynomial_clearance(u, v), NoClearance)
    assert sorted(x for x, _ in calls) == sorted(u.roots + v.roots)
    assert not any(in_conversion for _, in_conversion in calls)


def test_caller_limit_reaches_every_factorization():
    # 2^89 - 1 is a prime above the default cap: the conversion to the group
    # ring used to factor it again under that cap and ignore the caller's.
    p = 2**89 - 1
    u = from_closed_form([(F(2 * p), F(1)), (F(2), F(-1))])
    v = from_closed_form([(F(p), F(1)), (F(1), F(-1))])
    assert hadamard_quotient(u, v, limit=2**90) == geometric(2)
    with pytest.raises(FactorizationLimit):
        hadamard_quotient(u, v)


def test_unknown_mode_names_the_valid_ones():
    for call in (solve_with_torsion_fallback, solve_on_sections):
        with pytest.raises(InputError, match="hadamard, clearance, cross"):
            call(mersenne(4), mersenne(), "quotient")


def test_section_solver_is_looked_up_per_call(monkeypatch):
    seen = []
    real = quotient.hadamard_quotient

    def traced(u, v, limit=None):
        seen.append((u, v))
        return real(u, v, limit)

    monkeypatch.setattr(quotient, "hadamard_quotient", traced)
    # 2^n + (-2)^n over 2^n: torsion, so the direct call fails and two sections run.
    u = from_closed_form([(F(2), F(1)), (F(-2), F(1))])
    results = solve_with_torsion_fallback(u, geometric(2), "hadamard", decimate=True)
    assert [r.outcome for r in results] == [constant(2), LinearRecurrence(())]
    assert len(seen) == 3
