"""Exact linear algebra over Z_L via integer diagonalization.

solve_congruences reduces A x = b (mod L) to diagonal form with tracked column
operations, solves each scalar congruence d*y = c (mod L) by gcd, and maps the
solution back.  All arithmetic is on Python ints; nothing is approximate.

Every pivot choice and every row and column operation depends on A and L
alone, never on b.  So each (A, L) is diagonalized once: the row operations
are logged as they act on b, and a later solve with the same matrix replays
the log on its own right-hand side.  _replay is that replay, unchecked.

The log composes into one row transform U with U A V diagonal.  A x = b
has a solution exactly when gcd(d_r, L) divides each pivot value (U b)_r
and every other row of U b is 0, and the solution is V y with y read off
the pivot values alone.  _pivot_rows gives the pivot rows of U, sparse, so
a caller that solves many right-hand sides reads each pivot value off a
few entries of b and checks its x against the law A encodes.  Only an x
that fails that check needs the full replay, the fallback that tells an
infeasible system (None) from a solver error (an x that still fails).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import mul
from typing import NamedTuple, Sequence

__all__ = ["solve_congruences"]


class _Diagonal(NamedTuple):
    """A diagonalized system: U A V = diag(d_0..d_{rank-1}, 0, ...) mod L."""

    ops: tuple[tuple[int, int, int | None], ...]  # (i, k, q): b_i -= q b_k; q None: swap
    steps: tuple[tuple[int, int, int], ...]  # (gcd(d_i, L), (d_i/g)^-1 mod L/g, L/g) by pivot
    v: tuple[tuple[int, ...], ...]  # the column transform V


def solve_congruences(
    a: Sequence[Sequence[int]], rhs: Sequence[int], modulus: int
) -> list[int] | None:
    """One solution x of A x = rhs (mod modulus), or None if infeasible.

    A may be any shape, including zero rows/columns; entries and the returned
    solution are reduced mod ``modulus``.  A right-hand side that is 0 mod
    ``modulus`` (every one is, mod 1) gets x = 0, which is what the replay
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
    x = _replay(_diagonalize(tuple(map(tuple, a)), L), rhs, L)
    # exactness check against the original system
    if x is not None and any(sum(map(mul, row, x)) % L != want % L for row, want in zip(a, rhs)):
        raise AssertionError("internal solver error: solution fails the original system")
    return x


def _replay(diag: _Diagonal, rhs: Sequence[int], L: int) -> list[int] | None:
    """The x that diag's log yields for A x = rhs (mod L), or None if infeasible; unchecked."""
    b = [v % L for v in rhs]
    for i, k, q in diag.ops:
        if q is None:
            b[i], b[k] = b[k], b[i]
        else:
            b[i] = (b[i] - q * b[k]) % L
    # diagonal solve: d_i y_i = b_i for each pivot, and 0 = b_i on every other row
    rank = len(diag.steps)
    if any(b[rank:]):
        return None
    y = []
    for c, (g, inv, Lg) in zip(b, diag.steps):
        if c % g:
            return None
        y.append((c // g) * inv % Lg)
    return [sum(map(mul, row, y)) % L for row in diag.v]


def _pivot_rows(diag: _Diagonal, nrows: int, L: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row r of the row transform U that diag's log composes, for each pivot r,
    as its nonzero entries (i, U[r][i]) ascending in i: (U b)[r] is the sum of
    U[r][i] * b[i] (mod L), the value the replay of b leaves in row r.

    U starts as the identity on nrows rows and takes each logged operation.
    The pivot value then fixes y_r, so when A x = b is feasible, x = V y
    reads b only at these entries."""
    u = [{i: 1} for i in range(nrows)]
    for i, k, q in diag.ops:
        if q is None:
            u[i], u[k] = u[k], u[i]
            continue
        row = u[i]
        for j, c in u[k].items():
            if v := (row.get(j, 0) - q * c) % L:
                row[j] = v
            else:
                row.pop(j, None)
    return tuple(tuple(sorted(u[r].items())) for r in range(len(diag.steps)))


@lru_cache(maxsize=64)
def _diagonalize(a: tuple[tuple[int, ...], ...], L: int) -> _Diagonal:
    """Diagonalize A mod L (L >= 2) by row and column operations, logging the row ones.

    Pivot k is the least nonzero entry of the untouched block, the first one in
    row-major order on ties; its row and column are then cleared by Euclid steps.
    Rows and columns before k are zero off the diagonal throughout, so every
    scan starts past k and no operation needs to touch them in A.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    A = [[v % L for v in row] for row in a]
    V = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    ops: list[tuple[int, int, int | None]] = []

    def row_sub(i: int, q: int, k: int) -> None:
        A[i] = [(x - q * y) % L for x, y in zip(A[i], A[k])]
        ops.append((i, k, q))

    def col_sub(j: int, q: int, k: int) -> None:
        for row in A[k:]:
            row[j] = (row[j] - q * row[k]) % L
        for row in V:
            row[j] = (row[j] - q * row[k]) % L

    def swap_rows(i: int, k: int) -> None:
        A[i], A[k] = A[k], A[i]
        ops.append((i, k, None))

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
    return _Diagonal(tuple(ops), tuple(steps), tuple(map(tuple, V)))
