"""Exact integer lattice algorithms (HNF, kernels) and rational solves."""

from __future__ import annotations

from fractions import Fraction


def row_hnf(rows: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row Hermite normal form with transform.

    Returns (H, U) where H is the list of non-zero HNF rows (pivots
    positive, strictly increasing pivot columns, entries above a pivot
    reduced into [0, pivot)) and U is a k x k unimodular matrix with
    U * rows == H padded with zero rows.
    """
    k = len(rows)
    m = len(rows[0]) if rows else 0
    a = [list(map(int, r)) for r in rows]
    for r in a:
        assert len(r) == m
    u = [[int(i == j) for j in range(k)] for i in range(k)]
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
            base = live[0]
            for i in live[1:]:
                q = a[i][col] // a[base][col]
                if q:
                    for j in range(m):
                        a[i][j] -= q * a[base][j]
                    for j in range(k):
                        u[i][j] -= q * u[base][j]
        if pivot_row is None:
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        u[rank], u[pivot_row] = u[pivot_row], u[rank]
        if a[rank][col] < 0:
            a[rank] = [-x for x in a[rank]]
            u[rank] = [-x for x in u[rank]]
        piv = a[rank][col]
        for i in range(rank):
            q = a[i][col] // piv
            if q:
                for j in range(m):
                    a[i][j] -= q * a[rank][j]
                for j in range(k):
                    u[i][j] -= q * u[rank][j]
        rank += 1
    return [a[i] for i in range(rank)], u


def left_kernel(rows: list[list[int]]) -> list[list[int]]:
    """Basis (HNF-canonical) of {z in Z^k : z * rows == 0}."""
    h, u = row_hnf(rows)
    rank = len(h)
    kernel_rows = u[rank:]
    if not kernel_rows:
        return []
    canon, _ = row_hnf(kernel_rows)
    return canon


def hnf_express(h: list[list[int]], target: list[int]) -> list[int] | None:
    """Integer row x with x * H == target, or None.  H must be HNF rows."""
    if not h:
        return [] if all(v == 0 for v in target) else None
    m = len(h[0])
    residue = list(map(int, target))
    coeffs = []
    for row in h:
        piv_col = next(j for j in range(m) if row[j] != 0)
        q, r = divmod(residue[piv_col], row[piv_col])
        if r != 0:
            return None
        coeffs.append(q)
        if q:
            for j in range(m):
                residue[j] -= q * row[j]
    if any(v != 0 for v in residue):
        return None
    return coeffs


def solve_rational(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Unique solution of a square exact system; asserts non-singularity."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        assert piv is not None, "singular system"
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [a[i][n] for i in range(n)]
