"""End-to-end acceptance checks for the quotient machinery.

Each test drives one headline behaviour at a fixed time budget and
prints a single ``CRITERION k: PASS/FAIL`` line, so a verbose pytest
run doubles as a release checklist.  Two of the checks assert
statements that are stronger than what actually holds; inline comments
give concrete counterexamples, and companion tests at the bottom pin
the attainable forms.  The strong versions stay as written so the gap
is loud instead of papered over.

The interpolation oracle used to cross-check refusals is deliberately
primitive: plain Gaussian elimination over Fraction on consecutive
sample values, sharing no code with the group-ring solver.
"""

import json
import random
import time
from fractions import Fraction
from io import StringIO
from pathlib import Path

from recurquot.cli import main
from recurquot.factorization import euler_phi, factor_rational
from recurquot.groupring import laurent_gcd, to_group_ring
from recurquot.heights import (
    HyperplaneForm,
    LogSum,
    SIntegerSpec,
    SMembership,
    decay_check,
    product_formula_check,
    s_membership,
    vector_height,
    weil_function,
    weil_height,
)
from recurquot.integrality import FixedDenominator, SearchHit, integrality_search, obstruction_scan
from recurquot.places import Place
from recurquot.polys import UniPoly
from recurquot.quotient import (
    QuotientCertificate,
    combined_basis,
    hadamard_quotient,
    polynomial_clearance,
)
from recurquot.recurrences import (
    LinearRecurrence,
    constant,
    from_closed_form,
    geometric,
    polynomial,
    zero_set,
)

F = Fraction
DATA = Path(__file__).parent / "data"


def mersenne(base) -> LinearRecurrence:
    return from_closed_form([(F(base), F(1)), (F(1), F(-1))])


def _verdict(k: int, label: str, started: float, budget: float, ok: bool) -> str:
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < budget
    line = f"CRITERION {k}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s) - {label}"
    print(line)
    return line


# -- independent interpolation oracle ----------------------------------------


def _solve_exact(rows, rhs):
    """One solution of rows * c = rhs over Fraction, or None."""
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    width = len(rows[0])
    pivots = []
    rank = 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = m[rank][col]
        m[rank] = [x / inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(m):
            break
    if any(row[width] != 0 for row in m[rank:]):
        return None
    solution = [F(0)] * width
    for i, col in enumerate(pivots):
        solution[col] = m[i][width]
    return solution


def fit_relation(values, max_order):
    """Coefficients of a linear relation fitting every consecutive window.

    Tries orders 1..max_order and demands w[i+k] = sum c_j w[i+j] for
    all i; returns the first relation found or None.  Free variables
    are set to zero, then the candidate is re-verified on every window.
    """
    for k in range(1, max_order + 1):
        rows = [values[i : i + k] for i in range(len(values) - k)]
        rhs = [values[i + k] for i in range(len(values) - k)]
        sol = _solve_exact(rows, rhs)
        if sol is None:
            continue
        if all(
            sum(c * w for c, w in zip(sol, values[i : i + k])) == values[i + k]
            for i in range(len(values) - k)
        ):
            return sol
    return None


def quotient_samples(u, v, count):
    """count consecutive values of U(n)/V(n), restarting after any V zero."""
    values = []
    n = 1
    while len(values) < count:
        assert n < 40 * count + 40, "could not find a zero-free window"
        vn = v.evaluate(n)
        if vn == 0:
            values = []
        else:
            values.append(u.evaluate(n) / vn)
        n += 1
    return values


# -- the nine criteria --------------------------------------------------------


def test_criterion_1_polynomial_clearance_exact():
    t0 = time.perf_counter()
    cert = polynomial_clearance(geometric(5), polynomial([F(0), F(1), F(1)]))
    ok = (
        isinstance(cert, QuotientCertificate)
        and cert.clearing_poly == UniPoly([F(0), F(1), F(1)])
        and cert.quotient == geometric(5)
        and cert.v_over_p == constant(1)
        and cert.min_denominator == 1
    )
    line = _verdict(1, "clearance of 5^n by n(n+1)", t0, 1.0, ok)
    assert ok, line


def test_criterion_2_hadamard_quotient_and_refusal():
    t0 = time.perf_counter()
    quo = hadamard_quotient(mersenne(4), mersenne(2))
    expected = from_closed_form([(F(2), F(1)), (F(1), F(1))])
    ok = quo == expected
    ok = ok and all(
        quo.evaluate(n) * mersenne(2).evaluate(n) == mersenne(4).evaluate(n)
        for n in range(1, 51)
    )
    refused = hadamard_quotient(mersenne(3), mersenne(2))
    ok = ok and refused is None
    # Pointwise confirmation of the refusal: no relation of small order
    # fits the sample quotients (3^n - 1)/(2^n - 1).
    samples = quotient_samples(mersenne(3), mersenne(2), 24)
    ok = ok and fit_relation(samples, 6) is None
    line = _verdict(2, "(4^n-1)/(2^n-1) = 2^n+1, (3^n-1)/(2^n-1) refused", t0, 1.0, ok)
    assert ok, line


def test_criterion_3_totient_search_and_obstruction():
    t0 = time.perf_counter()
    u = from_closed_form([(F(3), F(1)), (F(1), F(-1))])  # 3^m - 1, index m
    v = mersenne(2)  # 2^n - 1, index n

    hits = integrality_search(u, v, 1, 13, FixedDenominator(1), totient=True)
    ok = True
    for n in (3, 5, 7, 9, 11, 13):
        m = euler_phi(2**n - 1)
        ok = ok and SearchHit(m, n, 1) in hits
        # Independent confirmation by raw integer divisibility.
        ok = ok and (3**m - 1) % (2**n - 1) == 0

    grid = integrality_search(u, v, 500, 20, FixedDenominator(1))
    ok = ok and not [hit for hit in grid if hit.n % 2 == 0]

    report = obstruction_scan(u, v, (2, 0), 3)
    ok = ok and report.certified and report.verdict == "certified"
    line = _verdict(3, "totient hits for odd n, 3-adic obstruction for even n", t0, 30.0, ok)
    assert ok, line


def test_criterion_4_zero_sets_with_completeness():
    t0 = time.perf_counter()
    torsion = from_closed_form([(F(2), F(1)), (F(-2), F(1))])
    report = zero_set(torsion, 50)
    ok = (
        report.progressions == ((2, 1),)
        and report.sporadic == ()
        and report.complete
    )
    mixed = from_closed_form([(F(2), F(1)), (F(1), UniPoly([F(0), F(-2)]))])
    zero_report = zero_set(mixed, 100)
    ok = (
        ok
        and zero_report.progressions == ()
        and zero_report.sporadic == (1, 2)
        and zero_report.complete
    )
    line = _verdict(4, "zero sets of 2^n+(-2)^n and 2^n-2n, complete", t0, 1.0, ok)
    assert ok, line


def test_criterion_5_decay_ratio_exact_maximum():
    t0 = time.perf_counter()
    report = decay_check(mersenne(2), Place.finite(3), 100, 1000)
    # 3^4 || 2^108 - 1 on this range, so the peak is (4/108) log 3.
    ok = (
        report.max_ratio == LogSum({3: F(4, 108)})
        and report.max_ratio == LogSum({3: F(1, 27)})
        and report.argmax_n == 108
        and report.max_ratio.to_float() < 0.05
    )
    line = _verdict(5, "3-adic decay of 2^n-1 peaks at (1/27) log 3, n=108", t0, 5.0, ok)
    assert ok, line


ROOT_POOL = [F(2), F(3), F(5), F(7), F(1, 2), F(3, 2), F(5, 2), F(4), F(9), F(5, 3)]


def _random_recurrence(rng, max_terms, max_degree):
    pairs = []
    for root in rng.sample(ROOT_POOL, rng.randint(1, max_terms)):
        degree = rng.randint(0, max_degree)
        coeffs = [F(rng.randint(-3, 3)) for _ in range(degree + 1)]
        if all(c == 0 for c in coeffs):
            coeffs[-1] = F(rng.choice([-2, -1, 1, 2]))
        pairs.append((root, UniPoly(coeffs)))
    rec = from_closed_form(pairs)
    return rec if not rec.is_zero else geometric(rng.choice(ROOT_POOL))


def _coprime_pair(rng):
    """(u, v) with trivial group-ring gcd and v not a unit, so v never divides u."""
    while True:
        v_roots = rng.sample(ROOT_POOL, 2)
        v = from_closed_form(
            [(r, F(rng.choice([-2, -1, 1, 2, 3]))) for r in v_roots]
        )
        u = _random_recurrence(rng, 2, 1)
        basis = combined_basis(u, v)
        k = len(u.cleared_terms)
        gcd = laurent_gcd(to_group_ring(u, basis, basis.expressions[:k]),
                          to_group_ring(v, basis, basis.expressions[k:]))
        (x_degree, _), *rest = gcd.terms  # a unit is one monomial q * T^a without X
        if not rest and x_degree == 0:
            return u, v


def test_criterion_6_random_quotients_and_refusals():
    t0 = time.perf_counter()
    rng = random.Random(60609)
    ok = True

    for _ in range(500):
        q = _random_recurrence(rng, 2, 1)
        v = _random_recurrence(rng, 2, 1)
        recovered = hadamard_quotient(q * v, v)
        ok = ok and recovered == q
    positive_done = ok

    for _ in range(500):
        u, v = _coprime_pair(rng)
        verdict = hadamard_quotient(u, v)
        ok = ok and verdict is None
        bound = u.order
        samples = quotient_samples(u, v, 4 * bound)
        ok = ok and fit_relation(samples, bound) is None

    line = _verdict(6, "500 exact recoveries, 500 cross-checked refusals", t0, 60.0, ok)
    assert ok and positive_done, line


def _root_and_coefficient_primes(*recs) -> SIntegerSpec:
    """S = every prime dividing a root or a coefficient of the inputs."""
    primes = set()
    for rec in recs:
        for root, coeff in rec.terms:
            primes |= set(factor_rational(root).primes())
            for c in coeff.coeffs:
                if c != 0:
                    primes |= set(factor_rational(c).primes())
    return SIntegerSpec(primes)


def test_criterion_7_certificates_give_s_integers():
    t0 = time.perf_counter()
    u1, v1 = geometric(5), polynomial([F(0), F(1), F(1)])
    cert1 = polynomial_clearance(u1, v1)
    s1 = _root_and_coefficient_primes(
        u1, v1, polynomial(cert1.clearing_poly.coeffs)
    )

    u2, v2 = mersenne(4), mersenne(2)
    quo2 = hadamard_quotient(u2, v2)  # a certificate with P = 1
    s2 = _root_and_coefficient_primes(u2, v2)

    failures = [] if quo2 is not None else [("hadamard", 0, None)]
    for n in range(1, 51):
        if v1.evaluate(n) != 0:
            value = cert1.min_denominator * u1.evaluate(n) / v1.evaluate(n)
            if s_membership(value, s1) is SMembership.NEITHER:
                failures.append(("clearance", n, value))
        value = u2.evaluate(n) / v2.evaluate(n)
        if s_membership(value, s2) is SMembership.NEITHER:
            failures.append(("hadamard", n, value))
    # The unscaled claim is false for the clearance certificate:
    # U/V = 25/6 at n = 2 while S = {5}.  Only the P-scaled quotient
    # min_denominator * P(n) * U(n)/V(n) stays in the subring; see
    # test_scaled_clearance_quotient_stays_in_subring below.
    ok = not failures
    line = _verdict(7, "min_denominator * U/V lands in O_S for n <= 50", t0, 5.0, ok)
    assert ok, line + f" first failures: {failures[:3]}"


def test_criterion_8_heights_product_formula_and_proximity():
    t0 = time.perf_counter()
    rng = random.Random(41017)
    ok = all(
        product_formula_check(
            F(rng.randint(-10**6, 10**6) or 1, rng.randint(1, 10**6))
        )
        == 1
        for _ in range(1000)
    )
    ok = ok and weil_height(F(3, 2)) == LogSum({3: F(1)})

    violations = []
    for _ in range(200):
        dim = rng.randint(2, 3)
        while True:
            coeffs = [F(rng.randint(-5, 5)) for _ in range(dim)]
            xs = [F(rng.randint(-5, 5)) for _ in range(dim)]
            if any(coeffs) and any(xs) and sum(a * x for a, x in zip(coeffs, xs)):
                break
        form = HyperplaneForm(tuple(coeffs))
        pool = sorted(
            {p for value in (*xs, *coeffs, form(xs)) if value for p in factor_rational(value).primes()}
        )
        place = rng.choice([Place.finite(p) for p in pool] + [Place.archimedean()])
        lam = weil_function(form, xs, place)
        if lam < LogSum.zero():
            violations.append((tuple(coeffs), tuple(xs), place, lam))
    # Non-negativity holds at finite places only; at the archimedean
    # place L = x0 + x1 at (1, 1) already gives -log 2.  The finite
    # and global forms are pinned in the companion tests below.
    ok = ok and not violations
    line = _verdict(8, "product formula, h(3/2) = log 3, proximity >= 0", t0, 5.0, ok)
    assert ok, line + f" first violations: {violations[:2]}"


def test_criterion_9_decimation_coherence_and_torsion_recovery(tmp_path):
    t0 = time.perf_counter()
    rng = random.Random(90210)
    pool = ROOT_POOL + [F(-2), F(-3), F(-1, 2), F(-3, 2)]
    ok = True
    for _ in range(100):
        pairs = []
        for root in rng.sample(pool, rng.randint(1, 3)):
            coeffs = [F(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
            if all(c == 0 for c in coeffs):
                coeffs[-1] = F(1)
            pairs.append((root, UniPoly(coeffs)))
        u = from_closed_form(pairs)
        for q in range(1, 5):
            for r in range(q):
                section = u.decimate(q, r)
                ok = ok and all(
                    section.evaluate(n) == u.evaluate(q * n + r) for n in range(31)
                )

    pow2 = tmp_path / "pow2.json"
    pow2.write_text(json.dumps({"var": "N", "closed_form": [{"root": "2", "coeff": "1"}]}))
    torsion_spec = str(DATA / "torsion.json")
    rejected = main(["quotient", torsion_spec, str(pow2), "--mode", "hadamard"], out=StringIO())
    buffer = StringIO()
    recovered = main(
        ["quotient", torsion_spec, str(pow2), "--mode", "hadamard", "--decimate"],
        out=buffer,
    )
    ok = ok and rejected == 2 and recovered == 0 and "sections" in buffer.getvalue()
    line = _verdict(9, "decimate(u,q,r)(n) = u(qn+r); torsion solved on sections", t0, 10.0, ok)
    assert ok, line


# -- attainable forms of the two strong claims --------------------------------


def test_scaled_clearance_quotient_stays_in_subring():
    """min_denominator * P(n) * U(n)/V(n) is an S-integer for all n."""
    u, v = geometric(5), polynomial([F(0), F(1), F(1)])
    cert = polynomial_clearance(u, v)
    s = _root_and_coefficient_primes(u, v, polynomial(cert.clearing_poly.coeffs))
    for n in range(1, 401):
        if v.evaluate(n) == 0:
            continue
        scaled = cert.min_denominator * cert.clearing_poly(F(n)) * u.evaluate(n) / v.evaluate(n)
        assert s_membership(scaled, s) is not SMembership.NEITHER
        assert scaled == cert.quotient.evaluate(n) * cert.min_denominator


def test_proximity_nonnegative_at_finite_places_and_global_identity():
    """Finite-place proximity is >= 0; summed over all places it is h(x) + h(L)."""
    rng = random.Random(8128)
    for _ in range(200):
        dim = rng.randint(2, 3)
        while True:
            coeffs = [F(rng.randint(-5, 5)) for _ in range(dim)]
            xs = [F(rng.randint(-5, 5)) for _ in range(dim)]
            if any(coeffs) and any(xs) and sum(a * x for a, x in zip(coeffs, xs)):
                break
        form = HyperplaneForm(tuple(coeffs))
        pool = sorted(
            {p for value in (*xs, *coeffs, form(xs)) if value for p in factor_rational(value).primes()}
        )
        total = LogSum.zero()
        for place in [Place.finite(p) for p in pool] + [Place.archimedean()]:
            lam = weil_function(form, xs, place)
            if not place.is_archimedean:
                assert lam >= LogSum.zero()
            total = total + lam
        assert total == vector_height(xs) + vector_height(form.coefficients)
