"""Exact linear algebra over Z_L via integer diagonalization.

solve_congruences reduces A x = b (mod L) to diagonal form with tracked column
operations, solves each scalar congruence d*y = c (mod L) by gcd, and maps the
solution back.  All arithmetic is on Python ints; nothing is approximate.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

__all__ = ["solve_congruences"]


def solve_congruences(
    a: Sequence[Sequence[int]], rhs: Sequence[int], modulus: int
) -> list[int] | None:
    """One solution x of A x = rhs (mod modulus), or None if infeasible.

    A may be any shape, including zero rows/columns; entries and the returned
    solution are reduced mod ``modulus``.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if any(len(row) != ncols for row in a):
        raise ValueError("ragged matrix")
    if len(rhs) != nrows:
        raise ValueError("rhs length mismatch")
    if modulus == 1:
        return [0] * ncols
    L = modulus
    A = [[v % L for v in row] for row in a]
    b = [v % L for v in rhs]
    V = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def row_sub(i: int, q: int, k: int) -> None:
        Ai, Ak = A[i], A[k]
        for j in range(ncols):
            Ai[j] = (Ai[j] - q * Ak[j]) % L
        b[i] = (b[i] - q * b[k]) % L

    def col_sub(j: int, q: int, k: int) -> None:
        for row in A:
            row[j] = (row[j] - q * row[k]) % L
        for row in V:
            row[j] = (row[j] - q * row[k]) % L

    def swap_rows(i: int, k: int) -> None:
        A[i], A[k] = A[k], A[i]
        b[i], b[k] = b[k], b[i]

    def swap_cols(j: int, k: int) -> None:
        for row in A:
            row[j], row[k] = row[k], row[j]
        for row in V:
            row[j], row[k] = row[k], row[j]

    rank_bound = min(nrows, ncols)
    k = 0
    while k < rank_bound:
        pivot = None
        for i in range(k, nrows):
            for j in range(k, ncols):
                v = A[i][j]
                if v and (pivot is None or v < A[pivot[0]][pivot[1]]):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot != (k, k):
            swap_rows(pivot[0], k)
            swap_cols(pivot[1], k)
        while True:
            p = A[k][k]
            off = next((i for i in range(nrows) if i != k and A[i][k]), None)
            if off is not None:
                row_sub(off, A[off][k] // p, k)
                if A[off][k]:  # remainder became the new, smaller pivot
                    swap_rows(off, k)
                continue
            off = next((j for j in range(ncols) if j != k and A[k][j]), None)
            if off is not None:
                col_sub(off, A[k][off] // p, k)
                if A[k][off]:
                    swap_cols(off, k)
                continue
            break
        k += 1

    # diagonal solve: A is now diag(d_0..d_{k-1}) with everything else zero
    y = [0] * ncols
    for i in range(nrows):
        d = A[i][i] if i < ncols else 0
        c = b[i]
        g = gcd(d, L)
        if c % g:
            return None
        if d and i < ncols:
            Lg = L // g
            y[i] = (c // g) * pow((d // g) % Lg, -1, Lg) % Lg if Lg > 1 else 0

    x = [sum(V[i][j] * y[j] for j in range(ncols)) % L for i in range(ncols)]
    for row, want in zip(a, rhs):  # exactness check against the original system
        got = sum(v * xi for v, xi in zip(row, x)) % L
        if got != want % L:
            raise AssertionError("internal solver error: solution fails the original system")
    return x
