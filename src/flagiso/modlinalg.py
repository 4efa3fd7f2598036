"""Exact linear algebra over Z_L via integer diagonalization.

_diagonalize brings A to U A V = D (mod L), D diagonal, by row and column
operations whose pivot choices depend on A and L alone, and keeps the row
transform U (sparse rows) and the column transform V; it keeps no memo, as
its one reuser, cocycles._corrector_system, keeps the record.  A solve reads
U b: A x = b has a solution exactly when every row of U b past the pivots is
0 and gcd(d_r, L) divides each pivot value (U b)_r, and the solution is
x = V y with y read off the pivot values alone.  All arithmetic is on Python
ints.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import NamedTuple, Sequence

__all__ = ["solve_congruences"]


class _Diagonal(NamedTuple):
    """A diagonalized system: U A V = diag(d_0..d_{rank-1}, 0, ...) mod L."""

    u: tuple[tuple[tuple[int, int], ...], ...]  # row r of U as (i, U[r][i]), nonzero, ascending
    steps: tuple[tuple[int, int, int], ...]  # (gcd(d_i, L), (d_i/g)^-1 mod L/g, L/g) by pivot
    v: tuple[tuple[int, ...], ...]  # the column transform V


def solve_congruences(
    a: Sequence[Sequence[int]], rhs: Sequence[int], modulus: int
) -> list[int] | None:
    """One solution x of A x = rhs (mod modulus), or None if infeasible.

    A may be any shape, including zero rows/columns; entries and the returned
    solution are reduced mod ``modulus``.  A right-hand side that is 0 mod
    ``modulus`` (every one is, mod 1) gets x = 0, which is what U b = 0
    yields, with no diagonalization; the exactness check holds for x = 0
    without being run.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if any(len(row) != ncols for row in a):
        raise ValueError("ragged matrix")
    if len(rhs) != nrows:
        raise ValueError("rhs length mismatch")
    L = modulus
    if not any(v % L for v in rhs):
        return [0] * ncols
    x = _solve(_diagonalize(a, L), rhs, L)
    # exactness check against the original system
    if x is not None and any(sum(map(mul, row, x)) % L != want % L for row, want in zip(a, rhs)):
        raise AssertionError("internal solver error: solution fails the original system")
    return x


def _solve(diag: _Diagonal, rhs: Sequence[int], L: int) -> list[int] | None:
    """The x that diag yields for A x = rhs (mod L), read off U rhs, or None
    if infeasible; unchecked."""
    rank = len(diag.steps)
    ub = []  # U rhs; plain loops, as a comprehension per row of U costs more than its few terms
    for row in diag.u:
        c = 0
        for i, q in row:
            c += q * rhs[i]
        ub.append(c % L)
    if any(ub[rank:]):
        return None
    y = []
    for c, (g, inv, Lg) in zip(ub, diag.steps):
        if c % g:
            return None
        y.append((c // g) * inv % Lg)
    return [sum(map(mul, row, y)) % L for row in diag.v]


def _diagonalize(a: Sequence[Sequence[int]], L: int) -> _Diagonal:
    """Diagonalize A mod L (L >= 2) by row and column operations, keeping U and V.

    Pivot k is the least nonzero entry of the untouched block, the first one in
    row-major order on ties; its row and column are then cleared by Euclid steps.
    Rows and columns before k are zero off the diagonal throughout, so every
    scan starts past k and no operation needs to touch them in A.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    A = [[v % L for v in row] for row in a]
    V = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    U = [{i: 1} for i in range(nrows)]  # by row: {column: nonzero entry}

    def row_sub(i: int, q: int, k: int) -> None:
        A[i] = [(x - q * y) % L for x, y in zip(A[i], A[k])]
        row = U[i]
        for j, c in U[k].items():
            if v := (row.get(j, 0) - q * c) % L:
                row[j] = v
            else:
                row.pop(j, None)

    def col_sub(j: int, q: int, k: int) -> None:
        for row in A[k:]:
            row[j] = (row[j] - q * row[k]) % L
        for row in V:
            row[j] = (row[j] - q * row[k]) % L

    def swap_rows(i: int, k: int) -> None:
        A[i], A[k] = A[k], A[i]
        U[i], U[k] = U[k], U[i]

    def swap_cols(j: int, k: int) -> None:
        for row in A[k:]:
            row[j], row[k] = row[k], row[j]
        for row in V:
            row[j], row[k] = row[k], row[j]

    rank_bound = min(nrows, ncols)
    k = 0
    while k < rank_bound:
        pivot, least = None, L
        for i in range(k, nrows):
            nonzero = [v for v in A[i][k:] if v]
            if nonzero and (m := min(nonzero)) < least:
                pivot, least = (i, A[i].index(m, k)), m
                if m == 1:  # nothing later is smaller
                    break
        if pivot is None:
            break
        if pivot[0] != k:
            swap_rows(pivot[0], k)
        if pivot[1] != k:
            swap_cols(pivot[1], k)
        # rows k+1..off-1 are clear in column k and later row operations keep
        # them so: the scan resumes at `off` until a column swap brings a new column k
        off = k + 1
        while True:
            p = A[k][k]
            while off < nrows and not A[off][k]:
                off += 1
            if off < nrows:
                q = A[off][k] // p
                if q:
                    row_sub(off, q, k)
                if A[off][k]:  # remainder became the new, smaller pivot
                    swap_rows(off, k)
                continue
            j = next((j for j in range(k + 1, ncols) if A[k][j]), None)
            if j is not None:
                col_sub(j, A[k][j] // p, k)
                if A[k][j]:
                    swap_cols(j, k)
                    off = k + 1
                continue
            break
        k += 1

    steps = []
    for i in range(k):
        d = A[i][i]
        g = gcd(d, L)
        Lg = L // g
        steps.append((g, pow(d // g, -1, Lg) if Lg > 1 else 0, Lg))
    u = tuple(tuple(sorted(row.items())) for row in U)
    return _Diagonal(u, tuple(steps), tuple(map(tuple, V)))
