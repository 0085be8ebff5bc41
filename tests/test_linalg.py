from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

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
    h, u = row_hnf([[4, 6], [2, 4]])
    assert h == [[2, 0], [0, 2]]
    assert mat_mul(u, [[4, 6], [2, 4]]) == [[2, 0], [0, 2]]


def test_row_hnf_rank_deficient():
    rows = [[2, 4, 6], [1, 2, 3], [0, 0, 0]]
    h, u = row_hnf(rows)
    assert h == [[1, 2, 3]]
    full = mat_mul(u, rows)
    assert full[0] == [1, 2, 3]
    assert full[1] == [0, 0, 0]
    assert full[2] == [0, 0, 0]


@given(int_rows)
def test_row_hnf_transform_property(rows):
    h, u = row_hnf(rows)
    product = mat_mul(u, rows)
    assert product[: len(h)] == h
    assert all(all(c == 0 for c in r) for r in product[len(h) :])
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


def test_hnf_express():
    h, _ = row_hnf([[2, 0], [0, 3]])
    assert hnf_express(h, [4, 3]) == [2, 1]
    assert hnf_express(h, [1, 0]) is None


def test_hnf_express_prefix_rows():
    h, _ = row_hnf([[1, 2, 0], [0, 4, 1]])
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
