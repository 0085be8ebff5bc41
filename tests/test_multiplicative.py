import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurquot.errors import RootNotInGroup, TorsionGroup, ZeroInput
from recurquot.multiplicative import (
    compute_basis,
    exponent_table,
    torsion_status,
)

F = Fraction

rationals = st.builds(
    F,
    st.integers(min_value=-60, max_value=60).filter(lambda n: n != 0),
    st.integers(min_value=1, max_value=60),
)


def test_exponent_table():
    primes, vectors = exponent_table((F(6), F(-5, 4)))
    assert primes == (2, 3, 5)
    assert vectors[0].sign_bit == 0
    assert vectors[0].exponents == (1, 1, 0)
    assert vectors[1].sign_bit == 1
    assert vectors[1].exponents == (-2, 0, 1)


def test_exponent_table_rejects_zero():
    with pytest.raises(ZeroInput):
        exponent_table((F(0),))


def test_torsion_status_witness():
    vals = (F(2), F(-2))
    witness = torsion_status(vals)
    assert witness is not None
    prod = F(1)
    for v, e in zip(vals, witness):
        prod *= v**e
    assert prod == -1


def test_torsion_status_free():
    assert torsion_status((F(2), F(3), F(-5))) is None
    assert torsion_status((F(-1),)) == (1,)


def test_compute_basis_collapses_powers():
    basis = compute_basis((F(4), F(8)))
    assert basis.generators == (F(2),)
    assert basis.expressions == ((2,), (3,))


def test_compute_basis_canonical_under_reordering():
    a = compute_basis((F(2), F(6)))
    b = compute_basis((F(6), F(2)))
    assert a.generators == b.generators
    assert a.same_group(b)


def test_compute_basis_negative_generator():
    basis = compute_basis((F(-2),))
    assert basis.generators == (F(-2),)
    assert basis.generator_signs == (-1,)
    assert basis.reconstruct((3,)) == F(-8)


def test_compute_basis_torsion_raises():
    with pytest.raises(TorsionGroup) as info:
        compute_basis((F(2), F(-2)))
    prod = F(1)
    for v, e in zip(info.value.roots, info.value.exponents):
        prod *= v**e
    assert prod == -1


def test_express_members_and_strangers():
    basis = compute_basis((F(2), F(3)))
    assert basis.reconstruct(basis.express(F(12))) == F(12)
    with pytest.raises(RootNotInGroup):
        basis.express(F(5))
    with pytest.raises(RootNotInGroup):
        basis.express(F(-2))


def test_express_sign_aware():
    basis = compute_basis((F(-2), F(3)))
    exps = basis.express(F(-8))
    assert basis.reconstruct(exps) == F(-8)
    with pytest.raises(RootNotInGroup):
        basis.express(F(8))


@settings(max_examples=60)
@given(st.lists(rationals, min_size=1, max_size=4),
       st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4))
def test_express_round_trip(values, powers):
    try:
        basis = compute_basis(tuple(values))
    except TorsionGroup:
        prod = F(1)
        witness = torsion_status(tuple(values))
        for v, e in zip(values, witness):
            prod *= F(v) ** e
        assert prod == -1
        return
    x = F(1)
    for v, e in zip(values, powers):
        x *= F(v) ** e
    exps = basis.express(x)
    assert basis.reconstruct(exps) == x


def test_express_reads_stored_expressions_of_its_values():
    basis = compute_basis((F(12), F(-18)))
    for x, e in zip(basis.values, basis.expressions):
        assert basis.express(x) == e


# Under -O every assert is gone; the basis checks must still run.  "escape"
# loses an input's lattice expression, "shifted" corrupts every expression
# (caught at construction), "express" corrupts one for a value outside the
# basis, and "sign" flips a generator's sign behind the bookkeeping.
_BROKEN_BASIS = """
import dataclasses
import sys
from fractions import Fraction
import recurquot.multiplicative as mult
from recurquot.errors import VerificationFailed

if not sys.flags.optimize:
    raise SystemExit("not running under -O")
mode = sys.argv[1]
real_express = mult.hnf_express

def shifted(h, target):
    coeffs = real_express(h, target)
    return [coeffs[0] + 1] + coeffs[1:]

try:
    if mode == "escape":
        mult.hnf_express = lambda h, target: None
        mult.compute_basis((2, 3))
    elif mode == "shifted":
        mult.hnf_express = shifted
        mult.compute_basis((2, 3))
    elif mode == "express":
        basis = mult.compute_basis((2, 3))
        mult.hnf_express = shifted
        basis.express(12)
    else:
        basis = mult.compute_basis((2, 3))
        flipped = dataclasses.replace(basis, generators=(Fraction(-2), Fraction(3)))
        flipped.express(6)
except VerificationFailed as exc:
    print("VerificationFailed:", exc)
else:
    print("broken basis went unchecked")
"""


@pytest.mark.parametrize("mode", ["escape", "shifted", "express", "sign"])
def test_broken_basis_is_caught_under_optimize(mode):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_BASIS, mode],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("VerificationFailed:"), result.stdout
