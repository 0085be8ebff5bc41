"""Exact integer lattice algorithms (HNF, kernels) and rational solves."""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError, VerificationFailed


def row_hnf(rows: list[list[int]]) -> list[list[int]]:
    """Row Hermite normal form: the non-zero rows of the HNF of ``rows``.

    Pivots are positive, pivot columns strictly increase, and entries
    above a pivot are reduced into [0, pivot), so the result depends
    only on the lattice the rows span.
    """
    k = len(rows)
    m = len(rows[0]) if rows else 0
    a = [list(map(int, r)) for r in rows]
    if any(len(r) != m for r in a):
        raise InputError(f"every row must have length {m}, as the first does")
    rank = 0
    for col in range(m):
        pivot_row = None
        while True:
            live = [i for i in range(rank, k) if a[i][col] != 0]
            if not live:
                break
            if len(live) == 1:
                pivot_row = live[0]
                break
            live.sort(key=lambda i: abs(a[i][col]))
            base = a[live[0]]
            for i in live[1:]:
                q = a[i][col] // base[col]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], base)]
        if pivot_row is None:
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        if a[rank][col] < 0:
            a[rank] = [-x for x in a[rank]]
        piv = a[rank]
        for i in range(rank):
            q = a[i][col] // piv[col]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], piv)]
        rank += 1
    return a[:rank]


def left_kernel(rows: list[list[int]]) -> list[list[int]]:
    """Basis (HNF-canonical) of {z in Z^k : z * rows == 0}.

    The HNF of [rows | I] spans {(z * rows, z)}; its rows that start
    with m zeros are exactly the kernel's HNF.
    """
    m = len(rows[0]) if rows else 0
    k = len(rows)
    h = row_hnf([list(r) + [int(i == j) for j in range(k)] for i, r in enumerate(rows)])
    return [r[m:] for r in h if not any(r[:m])]


def hnf_express(h: list[list[int]], target: list[int]) -> list[int] | None:
    """Integer row x with x * H == target, or None.  H must be HNF rows."""
    if not h:
        return [] if all(v == 0 for v in target) else None
    m = len(h[0])
    residue = list(map(int, target))
    coeffs = []
    piv_col = 0
    for row in h:
        # Pivot columns strictly increase down the rows.
        while row[piv_col] == 0:
            piv_col += 1
        q, r = divmod(residue[piv_col], row[piv_col])
        if r != 0:
            return None
        coeffs.append(q)
        if q:
            for j in range(piv_col, m):
                residue[j] -= q * row[j]
    if any(v != 0 for v in residue):
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
