"""The four workloads: seeded inputs, grouped in rounds, and their oracles.

An operation is ``(kind, payload, expect)``.  The worker receives only
``kind`` and ``payload`` (plain closed forms and integers); ``expect``
stays in the parent, where ``check`` compares the worker's plain output
against it with code from ``closedform`` and integer arithmetic only.

A round is one stratified draw: every rung or operation kind of the
workload in fixed proportions, with fresh inputs from the seed.  Runs
measure whole rounds, so every run sees the same mix.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import closedform as cf

F = Fraction
GENERATORS = (2, 3, 5)


@functools.cache
def root_pool(rank: int, negative: bool = False) -> list[Fraction]:
    """Products of the first ``rank`` generators with exponents -1..2."""
    pool = set()
    for exps in itertools.product(range(-1, 3), repeat=rank):
        x = F(1)
        for g, e in zip(GENERATORS, exps):
            x *= F(g) ** e
        pool.add(x)
        if negative:
            pool.add(-x)
    return sorted(pool)


def random_form(rng, pool, terms: int, degree: int):
    pairs = []
    for root in rng.sample(pool, terms):
        coeffs = [F(rng.randint(-3, 3)) for _ in range(rng.randint(0, degree) + 1)]
        if coeffs[-1] == 0:
            coeffs[-1] = F(rng.choice((-2, -1, 1, 2)))
        pairs.append((root, coeffs))
    return cf.canonical(pairs)


def mersenne(a: int):
    """a^n - 1."""
    return cf.canonical([(F(a), [F(1)]), (F(1), [F(-1)])])


# -- quotient-ladder ---------------------------------------------------------

# (root-group rank, terms, degree).  The Laurent gcd has a heavy tail at
# the cliff rungs: at this commit about 3% of (3, 2, 2) cases and a quarter
# of (2, 3, 1) cases run past the cap (some for minutes), while every
# body-rung case takes under 0.1 s.  Two (3, 2, 2) cases and one (2, 3, 1)
# case run in every round: enough for capped cases in nearly every run,
# few enough that capped time stays a small part of the run and p95 falls
# on completed cases.
BODY_RUNGS = ((1, 3, 1), (1, 3, 2), (2, 2, 1), (3, 2, 1))
CLIFF_RUNGS = ((3, 2, 2), (2, 3, 1))


def _ladder_round(rng) -> list:
    # A quarter of the body cases divide by b with a single root, where a
    # certificate is due; with several roots, b / gcd(a, b) almost never
    # has a single root and a refusal is due.
    ops = [_clearance_case(rng, rung, single)
           for single in (False,) * 12 + (True,) * 4 for rung in BODY_RUNGS]
    for _ in range(8):
        pool = root_pool(rng.randint(1, 3))
        u = random_form(rng, pool, 2, 1)
        single = rng.random() < 0.5
        v = random_form(rng, pool, 1 if single else 2, 2)
        ops.append(("cross", {"u": u, "v": v},
                    ("cross", "certificate" if single else "multiple-roots", u, v)))
    for _ in range(8):
        pool = root_pool(rng.randint(1, 3))
        u = random_form(rng, pool, 1, 2)
        beta, gamma = rng.sample(pool, 2)
        v = cf.canonical([(beta, [F(rng.choice((-2, -1, 1, 3)))]),
                          (gamma, [F(rng.choice((-3, -1, 1, 2)))])])
        ops.append(("clearance", {"u": u, "v": v}, ("coprime", u, v)))
    ops += [_clearance_case(rng, rung, False) for rung in CLIFF_RUNGS[:1] * 2 + CLIFF_RUNGS[1:]]
    return ops


def _clearance_case(rng, rung, single: bool):
    rank, terms, degree = rung
    pool = root_pool(rank)
    a, c = (random_form(rng, pool, terms, degree) for _ in range(2))
    b = random_form(rng, pool, 1 if single else terms, degree)
    u, v = cf.multiply(a, c), cf.multiply(b, c)
    return ("clearance", {"u": u, "v": v}, ("clearance", u, v, b))


# -- hadamard-batch ------------------------------------------------------------

def _hadamard_round(rng) -> list:
    pool = root_pool(3)
    signed = root_pool(3, negative=True)
    ops = []
    for _ in range(100):
        q = random_form(rng, pool, rng.randint(1, 4), 2)
        v = random_form(rng, pool, rng.randint(1, 4), 2)
        ops.append(("hadamard", {"u": cf.multiply(q, v), "v": v}, ("quotient", q)))
    for _ in range(60):
        q = random_form(rng, pool, rng.randint(1, 4), 2)
        v = random_form(rng, pool, rng.randint(2, 4), 2)
        # A unit perturbation: v divides q*v + w iff v divides w, and a
        # non-unit v never divides a unit.
        w = cf.canonical([(rng.choice(pool), [F(rng.choice((-3, -2, -1, 1, 2, 3)))])])
        u = cf.add(cf.multiply(q, v), w)
        ops.append(("hadamard", {"u": u, "v": v}, ("refusal",)))
    for _ in range(40):
        q = random_form(rng, signed, rng.randint(1, 4), 2)
        v = random_form(rng, signed, rng.randint(2, 4), 2)
        ops.append(("torsion", {"u": cf.multiply(q, v), "v": v}, ("torsion", q, v)))
    rng.shuffle(ops)
    return ops


# -- index-scan -------------------------------------------------------------------

# Totient ladder on (3^m - 1)/(2^n - 1): the n_max = 24 rung evaluates
# 3^phi(2^23 - 1), a number of 13 million bits, and takes about 5 s at this
# commit; the n_max = 20 rung takes about 0.1 s.
TOTIENT_RUNGS = (8, 12, 16, 20, 24)
PRIMES = [p for p in range(101, 400) if all(p % d for d in range(2, int(p**0.5) + 1))]
CERTIFIED_PRIMES = [p for p in PRIMES if 211 <= p <= 263]


def _order(x: int, p: int) -> int:
    k, y = 1, x % p
    while y != 1:
        y = y * x % p
        k += 1
    return k


def _index_round(rng) -> list:
    # Sizes are drawn from narrow bands: the costliest kinds set p95, so
    # their cost must not hinge on one draw.
    ops = []
    for policy in (("fixed", 1), ("fixed", 2), ("fixed", 6), ("poly", 1), ("poly", 2),
                   ("poly", 3)) * 4:
        a, b = rng.choice((3, 5, 6, 7, 10, 11)), rng.choice((2, 3, 4))
        m_max, n_max = rng.randint(200, 300), rng.randint(16, 24)
        ops.append(("search",
                    {"u": mersenne(a), "v": mersenne(b), "m_max": m_max, "n_max": n_max,
                     "policy": policy, "totient": False},
                    ("search", a, b, m_max, n_max, policy, False)))
    # The capped top rung runs once and the others twice, so that capped
    # time stays a minority of the run.
    for n_max in TOTIENT_RUNGS[:-1] * 2 + TOTIENT_RUNGS[-1:]:
        ops.append(("search",
                    {"u": mersenne(3), "v": mersenne(2), "m_max": 1, "n_max": n_max,
                     "policy": ("fixed", 1), "totient": True},
                    ("search", 3, 2, 1, n_max, ("fixed", 1), True)))
    for certified in (True, False) * 10:
        # p | a makes U(m) = a^m - 1 a unit mod p: the scan covers a full
        # period of p * (p - 1) indices.  Otherwise it stops at the first
        # m with p | U(m).
        if certified:
            p = rng.choice(CERTIFIED_PRIMES)
            a = p * rng.randint(1, 4)
        else:
            p, a = rng.choice(PRIMES), rng.choice((3, 5, 6, 7))
        progression = (_order(2, p), 0)
        ops.append(("obstruct",
                    {"u": mersenne(a), "v": mersenne(2), "progression": progression,
                     "prime": p},
                    ("obstruct", a, 2, p, progression)))
    for _ in range(16):
        # Odd p only: the lifting-the-exponent oracle below needs it.
        b, p = rng.choice(((2, 3), (2, 5), (2, 7), (3, 5), (3, 7), (5, 3), (10, 3), (10, 7)))
        lo = rng.randint(100, 200)
        hi = lo + rng.randint(600, 900)
        ops.append(("decay", {"v": mersenne(b), "place": str(p), "lo": lo, "hi": hi},
                    ("decay", b, p, lo, hi)))
    for _ in range(10):
        # Factoring b^n - 1 stays under the default limit: 3^61 - 1 has a
        # prime factor above 2^64, so b = 3 stops at n = 60.
        b = rng.choice((2, 3))
        lo = rng.randint(2, 10)
        hi = lo + 40 if b == 2 else min(60, lo + 40)
        v = cf.canonical([(F(1), [F(1)]), (F(1, b), [F(-1)])])
        ops.append(("decay", {"v": v, "place": "inf", "lo": lo, "hi": hi},
                    ("decay-inf", b, lo, hi)))
    for _ in range(16):
        a = rng.choice((2, 3, 5, 7))
        kind = rng.randint(0, 2)
        if kind == 0:
            sign = rng.choice((1, -1))
            scale = F(rng.choice((1, 2, 3)))
            u = cf.canonical([(F(a), [scale]), (F(-a), [sign * scale])])
        elif kind == 1:
            k = rng.randint(1, 3)
            u = cf.canonical([(F(a), [F(1)]), (F(1), [F(0), -F(a) ** k / k])])
        else:
            c = rng.choice([x for x in (2, 3, 5, 7) if x != a])
            u = cf.canonical([(F(a), [F(1)]), (F(c), [F(-1)])])
        bound = rng.randint(40, 200)
        ops.append(("zeros", {"u": u, "bound": bound}, ("zeros", u, bound)))
    rng.shuffle(ops)
    return ops


# -- cli-cold ------------------------------------------------------------------------

# Every subcommand with a golden output: (golden file, argv, exit code).
GOLDEN_CASES = (
    ("eval_mersenne.json", ["eval", "@mersenne2.json", "--from", "0", "--to", "5", "--json"], 0),
    ("eval_mersenne.txt", ["eval", "@mersenne2.json", "--from", "0", "--to", "5"], 0),
    ("quotient_hadamard.json", ["quotient", "@mersenne4.json", "@mersenne2.json", "--json"], 0),
    ("quotient_clearance.json", ["quotient", "@power5.json", "@poly_nn.json",
                                 "--mode", "clearance", "--json"], 0),
    ("quotient_clearance.txt", ["quotient", "@power5.json", "@poly_nn.json",
                                "--mode", "clearance"], 0),
    ("quotient_cross.json", ["quotient", "@power3m.json", "@linear2.json",
                             "--mode", "cross", "--json"], 0),
    ("quotient_refusal.json", ["quotient", "@power3m.json", "@mersenne2.json",
                               "--mode", "clearance", "--json"], 1),
    ("quotient_decimated.json", ["quotient", "@torsion.json", "@mersenne2.json",
                                 "--decimate", "--json"], 1),
    ("zeros_torsion.json", ["zeros", "@torsion.json", "--bound", "40", "--json"], 0),
    ("search_fixed.json", ["search", "@mersenne3m.json", "@mersenne2.json", "--m-max", "8",
                           "--n-max", "4", "--d-policy", "fixed:1", "--json"], 0),
    ("obstruct_certified.json", ["obstruct", "@power3m.json", "@mersenne2.json",
                                 "--progression", "3,0", "--prime", "7", "--json"], 0),
    ("basis.json", ["basis", "@mersenne4.json", "@mersenne2.json", "--json"], 0),
    ("heights_scalar.json", ["heights", "3/2", "--json"], 0),
    ("decay_check.json", ["decay-check", "@mersenne2.json", "--place", "3",
                          "--from", "100", "--to", "120", "--json"], 0),
    ("decimate_even.json", ["decimate", "@torsion.json", "-q", "2", "-r", "0", "--json"], 0),
)
DATA_DIR = Path("tests/data")
GOLDEN_DIR = Path("tests/golden")


def _cli_round(rng) -> list:
    ops = []
    for golden, argv, code in GOLDEN_CASES:
        argv = [str(DATA_DIR / a[1:]) if a.startswith("@") else a for a in argv]
        text = (GOLDEN_DIR / golden).read_text(encoding="utf-8")
        ops.append(("cli", {"argv": argv}, ("cli", text, code)))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "quotient-ladder": _ladder_round,
    "hadamard-batch": _hadamard_round,
    "index-scan": _index_round,
    "cli-cold": _cli_round,
}


def rounds(workload: str, seed: int):
    """The workload's rounds, generated one at a time from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    build = WORKLOADS[workload]
    while True:
        yield build(rng)


# -- oracles ---------------------------------------------------------------------------

SAMPLE_N = (0, 1, 2, 3, 5, 8, 13, 21)


def _forms_equal(out, form) -> bool:
    return out is not None and out[0] == "rec" and cf.canonical(out[1]) == cf.canonical(form)


def _multi_eval(terms, m: int, n: int) -> Fraction:
    total = F(0)
    for a, b, poly in terms:
        total += sum(c * F(m) ** i * F(n) ** j for (i, j), c in poly) * a**m * b**n
    return total


def _refusal_ok(out, b, unit_gcd: bool) -> bool:
    """A clearance refusal whose witness w is a factor of b with two roots.

    u = a*c and v = b*c, so v / gcd(u, v) divides b: a witness that does
    not divide b kept part of the common factor.  When gcd(a, b) is a
    unit, b / w is a polynomial times a single root.
    """
    if out[0] != "refusal" or out[1] != "divisor-not-polynomial" or out[2] is None:
        return False
    witness = out[2]
    if len(witness) < 2:
        return False
    cofactor = cf.divide(b, witness)
    return cofactor is not None and (len(cofactor) == 1 or not unit_gcd)


def _certificate_ok(out, u, v, cross: bool) -> bool:
    _, p, quotient, v_over_p, min_den = out
    if not p or p[-1] != 1:
        return False
    den = 1
    if quotient[0] == "rec":
        coeffs = [c for _, cs in quotient[1] for c in cs]
    else:
        coeffs = [c for _, _, poly in quotient[1] for _, c in poly]
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    if den != min_den:
        return False
    for n in SAMPLE_N:
        pn, vn = cf.poly_eval(p, n), cf.evaluate(v, n)
        if vn != pn * cf.evaluate(v_over_p[1], n):
            return False
        if cross:
            for m in (1, 2, 5):
                if pn * cf.evaluate(u, m) != _multi_eval(quotient[1], m, n) * vn:
                    return False
        elif pn * cf.evaluate(u, n) != cf.evaluate(quotient[1], n) * vn:
            return False
    return True


def _phi(n: int) -> int:
    out, m, d = n, n, 2
    while d * d <= m:
        if m % d == 0:
            out = out // d * (d - 1)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out = out // m * (m - 1)
    return out


def _expected_hits(a, b, m_max, n_max, policy, totient) -> tuple[set, bool]:
    """The grid's hits by integer divisibility, and whether every
    totient candidate that Euler's theorem promises is among them."""
    kind, k = policy

    def accepted(d, n):
        return k % d == 0 if kind == "fixed" else d <= n**k

    hits, euler = set(), True
    for n in range(1, n_max + 1):
        vn = b**n - 1
        for m in range(1, m_max + 1):
            d = vn // math.gcd(a**m - 1, vn)
            if accepted(d, n):
                hits.add((m, n, d))
        if totient:
            m = _phi(vn)
            d = vn // math.gcd((pow(a, m, vn) - 1) % vn, vn)
            if accepted(d, n):
                hits.add((m, n, d))
            if math.gcd(a, vn) == 1:
                euler = euler and (m, n, 1) in hits
    return hits, euler


def _valuation(x: int, p: int) -> int:
    k = 0
    while x % p == 0:
        x //= p
        k += 1
    return k


def _decay_ok(out, b, p, lo, hi) -> bool:
    # Lifting the exponent: v_p(b^n - 1) = v_p(b^ord - 1) + v_p(n) when ord | n.
    order = _order(b, p)
    base = _valuation(b**order - 1, p)
    best, best_n, count = None, None, 0
    for n in range(lo, hi + 1):
        if n % order:
            continue
        ratio = F(base + _valuation(n, p), n)
        count += 1
        if best is None or ratio > best:
            best, best_n = ratio, n
    return out == ("decay", ((p, best),), best_n, count, ())


def _decay_inf_ok(out, b, lo, hi) -> bool:
    # |V(n)| = 1 - b^-n < 1 everywhere and log(1/|V(n)|)/n falls with n.
    if out[0] != "decay" or out[2] != lo or out[3] != hi - lo + 1 or out[4] != ():
        return False
    value = F(1)
    for prime, c in out[1]:
        exponent = c * lo
        if exponent.denominator != 1:
            return False
        value *= F(prime) ** int(exponent)
    return value == F(b**lo, b**lo - 1)


def _obstruct_ok(out, a, b, p, progression) -> bool:
    q, r = progression
    period = p * (p - 1)
    first = r if r >= 1 else q
    failing = None
    for n in range(first, first + q * period, q):
        if (pow(b, n, p) - 1) % p:
            failing = ("divisor", n)
            break
    if failing is None:
        for m in range(1, period + 1):
            if (pow(a, m, p) - 1) % p == 0:
                failing = ("numerator", m)
                break
    if failing is None:
        return out == ("obstruction", True, period, None, None)
    return out == ("obstruction", False, period, *failing)


def _zeros_ok(out, u, bound) -> bool:
    _, progressions, sporadic, complete = out
    zeros = {n for n in range(bound + 1) if cf.evaluate(u, n) == 0}
    covered = {n for n in range(bound + 1) if any(n % q == r for q, r in progressions)}
    return complete and zeros == covered | set(sporadic) and not covered & set(sporadic)


# Kinds whose every case completes at this commit: an exception from one
# is a wrong answer, not an ordinary failure.
MUST_NOT_RAISE = frozenset(
    ("quotient", "refusal", "torsion", "cli", "search", "obstruct", "decay", "decay-inf",
     "zeros"))


def check(expect, out) -> bool:
    """True when a completed operation's output passes its oracle."""
    kind = expect[0]
    if kind == "clearance":
        _, u, v, b = expect
        if out[0] == "certificate":
            return _certificate_ok(out, u, v, cross=False)
        # A b with one root leaves b / gcd(a, b) a unit: no refusal is due.
        return len(b) > 1 and _refusal_ok(out, b, unit_gcd=False)
    if kind == "coprime":
        return _refusal_ok(out, expect[2], unit_gcd=True)
    if kind == "cross":
        if expect[1] == "certificate":
            return out[0] == "certificate" and _certificate_ok(out, expect[2], expect[3], True)
        return out[0] == "refusal" and out[1] == "multiple-roots"
    if kind == "quotient":
        return _forms_equal(out, expect[1])
    if kind == "refusal":
        return out is None
    if kind == "torsion":
        q, v = expect[1], expect[2]
        if out is not None and out[0] == "rec":
            return _forms_equal(out, q)
        if out is None or out[0] != "sections" or len(out[1]) != 2:
            return False
        for r, (modulus, offsets, outcome) in enumerate(out[1]):
            if modulus != 2 or offsets != (r,):
                return False
            if not cf.decimate(v, 2, r):
                if outcome != "divisor-vanishes":
                    return False
            elif not _forms_equal(outcome, cf.decimate(q, 2, r)):
                return False
        return True
    if kind == "search":
        _, a, b, m_max, n_max, policy, totient = expect
        hits, euler = _expected_hits(a, b, m_max, n_max, policy, totient)
        return euler and out == ("hits", tuple(sorted(hits, key=lambda h: (h[1], h[0], h[2]))))
    if kind == "obstruct":
        return _obstruct_ok(out, *expect[1:])
    if kind == "decay":
        return _decay_ok(out, *expect[1:])
    if kind == "decay-inf":
        return _decay_inf_ok(out, *expect[1:])
    if kind == "zeros":
        return _zeros_ok(out, expect[1], expect[2])
    if kind == "cli":
        return out == (expect[2], expect[1])
    raise ValueError(f"no oracle for {kind!r}")
