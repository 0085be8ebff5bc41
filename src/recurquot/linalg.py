"""Exact integer lattice algorithms (HNF, kernels) and rational solves."""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError, VerificationFailed


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b == g == gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def row_hnf(rows: list[list[int]]) -> list[list[int]]:
    """Row Hermite normal form: the non-zero rows of the HNF of ``rows``.

    Pivots are positive, pivot columns strictly increase, and entries
    above a pivot are reduced into [0, pivot), so the result depends
    only on the lattice the rows span.  Rows are inserted one at a time
    into an echelon keyed by pivot column: where a row meets a pivot p
    at entry x, it subtracts (x / p) times the pivot row if p divides x,
    and otherwise both rows take one unimodular 2 x 2 step, with
    s*p + t*x = g = gcd(p, x), to (s*pivot + t*row, (x/g)*pivot -
    (p/g)*row).  Either way the row leaves that column with a zero there.
    The pivots are then made positive and the entries above them reduced.
    """
    m = len(rows[0]) if rows else 0
    echelon: dict[int, list[int]] = {}
    for row in rows:
        if len(row) != m:
            raise InputError(f"every row must have length {m}, as the first does")
        row = list(map(int, row))
        col = 0
        while True:
            while col < m and not row[col]:
                col += 1
            if col == m:
                break
            pivot = echelon.get(col)
            if pivot is None:
                echelon[col] = row
                break
            p, x = pivot[col], row[col]
            q, r = divmod(x, p)
            if r:
                g, s, t = _xgcd(p, x)
                a, b = x // g, p // g
                echelon[col] = [s * y + t * z for y, z in zip(pivot, row)]
                row = [a * y - b * z for y, z in zip(pivot, row)]
            else:
                row = [z - q * y for y, z in zip(pivot, row)]
            col += 1
    columns = sorted(echelon)
    h = [echelon[col] for col in columns]
    for i, col in enumerate(columns):
        if h[i][col] < 0:
            h[i] = [-y for y in h[i]]
        piv = h[i]
        for j in range(i):
            q = h[j][col] // piv[col]
            if q:
                h[j] = [y - q * z for y, z in zip(h[j], piv)]
    return h


def left_kernel(rows: list[list[int]]) -> list[list[int]]:
    """Basis (HNF-canonical) of {z in Z^k : z * rows == 0}.

    The HNF of [rows | I] spans {(z * rows, z)}; its rows that start
    with m zeros are exactly the kernel's HNF.  ``row_hnf`` gets the
    rows last first.  Each pivot row a row meets in the first m columns
    is then made of rows inserted before it, whose identity columns lie
    right of its own, so past those m steps the row lands on its own
    identity column.  In the given order a row would run down a chain of
    the kernel rows placed before it, and the entries would grow with
    every step: about 760,000 bits at 128 rows of 5 columns.
    """
    m = len(rows[0]) if rows else 0
    k = len(rows)
    h = row_hnf([list(rows[i]) + [int(i == j) for j in range(k)] for i in reversed(range(k))])
    return [r[m:] for r in h if not any(r[:m])]


def hnf_express(h: list[list[int]], target: list[int]) -> list[int] | None:
    """Integer row x with x * H == target, or None.  H must be HNF rows."""
    residue = list(map(int, target))
    coeffs = []
    piv_col = 0
    for row in h:
        # Pivot columns strictly increase down the rows, and a row is 0
        # left of its pivot.
        while row[piv_col] == 0:
            piv_col += 1
        q, r = divmod(residue[piv_col], row[piv_col])
        if r != 0:
            return None
        coeffs.append(q)
        if q:
            residue = [x - q * y for x, y in zip(residue, row)]
    if any(residue):
        return None
    return coeffs


def solve_rational(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Unique solution of a square system that is non-singular by construction."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            raise VerificationFailed("singular system")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [a[i][n] for i in range(n)]
