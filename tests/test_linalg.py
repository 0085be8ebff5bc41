import random
import time
from fractions import Fraction

import basis_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from optimized import assert_caught_under_optimize
from recurquot.linalg import (
    hnf_express,
    left_kernel,
    row_hnf,
    solve_rational,
)

int_rows = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
    min_size=1, max_size=5,
)


def mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_row_hnf_known():
    assert row_hnf([[4, 6], [2, 4]]) == [[2, 0], [0, 2]]


def test_row_hnf_rank_deficient():
    assert row_hnf([[2, 4, 6], [1, 2, 3], [0, 0, 0]]) == [[1, 2, 3]]


@st.composite
def hnf_inputs(draw):
    """Up to 20 rows of 1 to 5 columns, with repeated and zero rows, as
    the sign pivot and the basis feed ``row_hnf``."""
    m = draw(st.integers(min_value=1, max_value=5))
    rows = draw(st.lists(
        st.one_of(st.lists(st.integers(min_value=-9, max_value=9), min_size=m, max_size=m),
                  st.just([0] * m)),
        min_size=1, max_size=16,
    ))
    repeats = draw(st.lists(st.sampled_from(rows), max_size=4))
    return draw(st.permutations([list(r) for r in rows + repeats]))


@settings(max_examples=200, deadline=None)
@given(hnf_inputs())
def test_row_hnf_shape_and_lattice_property(rows):
    h = row_hnf(rows)
    # Same lattice: every input row lies in the span of H, and the
    # transform oracle reaches the same H from the rows.
    assert all(hnf_express(h, r) is not None for r in rows)
    oracle_h, u = basis_oracle.row_hnf(rows)
    assert mat_mul(u, rows)[: len(oracle_h)] == oracle_h == h
    pivots = []
    for r in h:
        j = next(i for i, c in enumerate(r) if c != 0)
        assert r[j] > 0
        pivots.append(j)
        for above in h[: len(pivots) - 1]:
            assert 0 <= above[j] < r[j]
    assert pivots == sorted(pivots)


def test_left_kernel_known():
    k = left_kernel([[1, 0], [0, 1], [1, 1]])
    assert k == [[1, 1, -1]]


def test_left_kernel_trivial():
    assert left_kernel([[1, 0], [0, 1]]) == []


@given(int_rows)
def test_left_kernel_property(rows):
    for z in left_kernel(rows):
        combo = [sum(zi * r[j] for zi, r in zip(z, rows)) for j in range(len(rows[0]))]
        assert all(c == 0 for c in combo)
        assert any(zi != 0 for zi in z)


@given(int_rows)
def test_left_kernel_matches_transform_oracle(rows):
    assert left_kernel(rows) == basis_oracle.left_kernel(rows)


def test_left_kernel_of_many_rows_matches_transform_oracle():
    # The rows of a torsion witness over 256 signed roots: 4 prime columns
    # and the sign.  Inserted in the given order, [rows | I] grows entries
    # of hundreds of thousands of bits and takes minutes; the oracle takes
    # about 0.3 s on a 2-vCPU Xeon.
    rng = random.Random(5)
    rows = [[rng.randint(-2, 2) for _ in range(4)] + [rng.randint(0, 1)] for _ in range(256)]
    started = time.perf_counter()
    kernel = left_kernel(rows)
    assert time.perf_counter() - started < 5
    assert kernel == basis_oracle.left_kernel(rows)


def test_hnf_express():
    h = row_hnf([[2, 0], [0, 3]])
    assert hnf_express(h, [4, 3]) == [2, 1]
    assert hnf_express(h, [1, 0]) is None


def test_hnf_express_prefix_rows():
    h = row_hnf([[1, 2, 0], [0, 4, 1]])
    coeffs = hnf_express(h, [3, 10, 1])
    assert coeffs is not None
    target = [
        sum(c * r[j] for c, r in zip(coeffs, h)) for j in range(3)
    ]
    assert target == [3, 10, 1]


def test_solve_rational():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    x = solve_rational(m, [Fraction(5), Fraction(10)])
    assert x == [Fraction(1), Fraction(3)]


@given(
    st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=4),
    st.lists(st.integers(min_value=-6, max_value=6), min_size=2, max_size=2),
)
def test_solve_rational_property(entries, xs):
    m = [
        [Fraction(entries[0]), Fraction(entries[1])],
        [Fraction(entries[2]), Fraction(entries[3])],
    ]
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if det == 0:
        return
    x = [Fraction(v) for v in xs]
    rhs = [m[0][0] * x[0] + m[0][1] * x[1], m[1][0] * x[0] + m[1][1] * x[1]]
    assert solve_rational(m, rhs) == x


# Under -O the old assert on the row lengths was gone, and zip cut the
# longer rows down to the first row's length.
_RAGGED_ROWS = """
import sys
from recurquot.errors import InputError
from recurquot.linalg import row_hnf

if not sys.flags.optimize:
    raise SystemExit("not running under -O")
for rows in ([[2, 0], [1, 1, 1]], [[2, 0, 1], [1, 1]]):
    try:
        print("returned", row_hnf(rows))
    except InputError as exc:
        print("InputError:", exc)
"""


def test_row_hnf_checks_row_lengths_under_optimize():
    assert_caught_under_optimize(_RAGGED_ROWS, count=2, error="InputError")
