import itertools
import operator
import random
from math import gcd

import pytest
from conftest import solve_congruences_by_elimination
from hypothesis import given, settings
from hypothesis import strategies as st

import flagiso.algebras
import flagiso.cocycles
import flagiso.iso
import flagiso.modlinalg
from flagiso import solve_congruences

# -- oracle ------------------------------------------------------------------


def feasible_by_brute(a, rhs, modulus):
    """Search the whole solution space; fine for the tiny systems below."""
    if not a:
        return ()
    n = len(a[0])
    for xs in itertools.product(range(modulus), repeat=n):
        if all(
            sum(ai * xi for ai, xi in zip(row, xs)) % modulus == r % modulus
            for row, r in zip(a, rhs)
        ):
            return xs
    return None


# -- specific systems ----------------------------------------------------------


def test_single_unsolvable():
    # 2x = 1 (mod 4) has no solution: lhs is always even
    assert solve_congruences([[2]], [1], 4) is None


def test_single_solvable():
    sol = solve_congruences([[2]], [2], 4)
    assert sol is not None
    assert (2 * sol[0]) % 4 == 2


def test_zero_rhs_gives_zero_solution():
    # the solver must pick the trivial solution when the rhs vanishes
    a = [[1, 2], [3, 4], [5, 6]]
    assert solve_congruences(a, [0, 0, 0], 6) == [0, 0]


def test_empty_system():
    assert solve_congruences([], [], 5) == []


def test_modulus_one_always_solvable():
    sol = solve_congruences([[0, 0]], [0], 1)
    assert sol is not None and len(sol) == 2


def test_inconsistent_pair():
    # x = 0 and x = 1 cannot both hold
    assert solve_congruences([[1], [1]], [0, 1], 3) is None


def test_rectangular_system():
    a = [[1, 1, 0], [0, 1, 1]]
    sol = solve_congruences(a, [3, 1], 4)
    assert sol is not None
    for row, r in zip(a, [3, 1]):
        assert sum(c * x for c, x in zip(row, sol)) % 4 == r


# -- randomized agreement with the brute-force oracle ----------------------------


def test_agreement_with_brute_force():
    rng = random.Random(20260821)
    for _ in range(250):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        modulus = rng.choice([2, 3, 4, 6])
        a = [[rng.randrange(modulus) for _ in range(cols)] for _ in range(rows)]
        rhs = [rng.randrange(modulus) for _ in range(rows)]
        got = solve_congruences(a, rhs, modulus)
        want = feasible_by_brute(a, rhs, modulus)
        if want is None:
            assert got is None, (a, rhs, modulus)
        else:
            assert got is not None, (a, rhs, modulus)
            for row, r in zip(a, rhs):
                assert sum(c * x for c, x in zip(row, got)) % modulus == r % modulus


# -- argument validation ----------------------------------------------------------


def test_ragged_matrix_rejected():
    with pytest.raises(ValueError):
        solve_congruences([[1, 2], [3]], [0, 0], 4)


def test_rhs_length_mismatch_rejected():
    with pytest.raises(ValueError):
        solve_congruences([[1]], [0, 0], 4)


def test_bad_modulus_rejected():
    with pytest.raises(ValueError):
        solve_congruences([[1]], [0], 0)


@pytest.mark.parametrize(
    "a, rhs, modulus",
    [([[1, 2], [3]], [4, -8], 4), ([[1]], [4, 8], 4), ([[1]], [8], -4)],
    ids=["ragged", "rhs-length", "negative-modulus"],
)
def test_zero_rhs_is_checked_like_any_other(a, rhs, modulus):
    """A right-hand side that is 0 mod the modulus skips the elimination, not the
    checks: the three tests above pass a literal zero, these pass multiples."""
    with pytest.raises(ValueError):
        solve_congruences(a, rhs, modulus)


def test_zero_rhs_diagonalizes_nothing():
    """x = 0 solves A x = 0: it is what U b = 0 would yield, and no system is
    diagonalized for it."""
    diagonalize = flagiso.modlinalg._diagonalize
    before = diagonalize.cache_info()
    a = [[3, 5, 1], [2, 0, 7]]
    assert solve_congruences(a, [0, 0], 6) == [0, 0, 0]
    assert solve_congruences(a, [12, -6], 6) == [0, 0, 0]
    assert solve_congruences(a, [1, 2], 1) == [0, 0, 0]
    after = diagonalize.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    assert solve_congruences_by_elimination(a, [12, -6], 6) == [0, 0, 0]


# -- the memoized diagonalization against elimination from scratch -----------------


@st.composite
def systems(draw):
    """A matrix with 0-12 rows, 0-8 columns and entries of either sign, a modulus
    of 1-12, and three right-hand sides: zero, one in the image, one at random."""
    modulus = draw(st.integers(1, 12))
    nrows = draw(st.integers(0, 12))
    ncols = draw(st.integers(0, 8)) if nrows else 0
    entry = st.integers(-2 * modulus, 2 * modulus)
    a = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                      min_size=nrows, max_size=nrows))
    x0 = draw(st.lists(entry, min_size=ncols, max_size=ncols))
    image = [sum(c * x for c, x in zip(row, x0)) for row in a]
    noise = draw(st.lists(entry, min_size=nrows, max_size=nrows))
    return a, [[0] * nrows, image, noise], modulus


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(systems())
def test_memoized_solves_match_elimination_from_scratch(system):
    """The first solve diagonalizes, later ones reuse it: both give the oracle's x."""
    a, rhss, modulus = system
    flagiso.modlinalg._diagonalize.cache_clear()
    for repeat in range(2):
        for rhs in rhss:
            want = solve_congruences_by_elimination(a, rhs, modulus)
            assert solve_congruences(a, rhs, modulus) == want, (repeat, a, rhs, modulus)


def test_memo_keeps_copies_of_the_matrix():
    a = [[2, 4, 1], [6, 3, 0], [1, 1, 1]]
    rhs = [1, 2, 3]
    assert solve_congruences(a, rhs, 8) == solve_congruences_by_elimination(a, rhs, 8)
    a[0][2] = 0
    a[1][:] = [4, 4, 4]
    assert solve_congruences(a, rhs, 8) == solve_congruences_by_elimination(a, rhs, 8)


def test_returned_solutions_are_fresh_lists():
    a, rhs = [[1, 2], [3, 5]], [4, 1]
    first = solve_congruences(a, rhs, 7)
    want = list(first)
    first[:] = [6, 6]
    assert solve_congruences(a, rhs, 7) == want
    assert solve_congruences(a, rhs, 7) is not solve_congruences(a, rhs, 7)


def test_exactness_check_guards_memo_hits(monkeypatch):
    """A corrupted diagonalization from the memo is caught, not returned."""
    a, rhs = [[1, 1], [0, 1]], [1, 1]
    assert solve_congruences(a, rhs, 5) == [0, 1]
    diagonalize = flagiso.modlinalg._diagonalize
    hits = diagonalize.cache_info().hits

    def corrupted(key, modulus):
        diag = diagonalize(key, modulus)
        return diag._replace(v=tuple((0,) * len(row) for row in diag.v))

    monkeypatch.setattr(flagiso.modlinalg, "_diagonalize", corrupted)
    with pytest.raises(AssertionError, match="^internal solver error"):
        solve_congruences(a, rhs, 5)
    assert diagonalize.cache_info().hits == hits + 1


def test_memos_are_bounded():
    """One memo per structure: (shape, support), (support, modulus),
    (matrix, modulus) and the division's coset action, each bounded."""
    for cache in (
        flagiso.algebras._layout,
        flagiso.cocycles._corrector_system,
        flagiso.modlinalg._diagonalize,
        flagiso.iso._coset_action,
    ):
        assert cache.cache_info().maxsize is not None


# -- the record itself: U A V = D, and U b decides feasibility -----------------------


@st.composite
def degenerate_systems(draw, max_rows=8, max_cols=6, max_modulus=12):
    """A matrix mod a modulus of 2..max_modulus (composite ones included) whose
    rows may be zero or sums of multiples of earlier rows and whose columns may
    be zero, so rank deficiency is common, and one right-hand side drawn at
    random (rarely feasible on such matrices) next to one in the image."""
    modulus = draw(st.integers(2, max_modulus))
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(0, max_cols)) if nrows else 0
    entry = st.integers(-2 * modulus, 2 * modulus)
    zero_cols = draw(st.sets(st.integers(0, ncols - 1))) if ncols else set()
    a = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["free", "zero", "combination"] if a else ["free", "zero"]))
        if kind == "zero":
            row = [0] * ncols
        elif kind == "combination":
            i, j = draw(st.integers(0, len(a) - 1)), draw(st.integers(0, len(a) - 1))
            p, q = draw(entry), draw(entry)
            row = [p * x + q * y for x, y in zip(a[i], a[j])]
        else:
            row = draw(st.lists(entry, min_size=ncols, max_size=ncols))
        a.append([0 if c in zero_cols else v for c, v in enumerate(row)])
    x0 = draw(st.lists(entry, min_size=ncols, max_size=ncols))
    image = [sum(map(operator.mul, row, x0)) for row in a]
    noise = draw(st.lists(entry, min_size=nrows, max_size=nrows))
    return a, [image, noise], modulus


def record_of(a, modulus):
    """The memoized record of A mod modulus, with U as a dense matrix."""
    diag = flagiso.modlinalg._diagonalize(tuple(map(tuple, a)), modulus)
    dense = [[0] * len(a) for _ in a]
    for row, terms in zip(dense, diag.u):
        for i, q in terms:
            row[i] = q
    return diag, dense


def times(rows, cols, modulus):
    return [[sum(map(operator.mul, row, col)) % modulus for col in zip(*cols)] for row in rows]


def certificates(diag, dense_u, a, rhs, modulus):
    """The y that U offers for A x = rhs being infeasible: each row of U past
    the rank, and (L/g) times each pivot row, kept when y A = 0 and y rhs != 0."""
    rank = len(diag.steps)
    ys = dense_u[rank:]
    ys += [[modulus // g * q for q in row] for row, (g, _, _) in zip(dense_u, diag.steps)]
    return [
        y
        for y in ys
        if not any(times([y], a, modulus)[0]) and sum(map(operator.mul, y, rhs)) % modulus
    ]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(degenerate_systems())
def test_the_record_diagonalizes(system):
    """U A V = D (mod L): U's rows are sparse and ascending, every entry of
    U A V off the diagonal or past the rank is 0, and each pivot d_r matches its
    step (gcd(d_r, L), (d_r/g)^-1 mod L/g, L/g)."""
    a, _, modulus = system
    diag, dense_u = record_of(a, modulus)
    assert len(diag.u) == len(a)
    for terms in diag.u:
        assert [i for i, _ in terms] == sorted({i for i, _ in terms})
        assert all(0 < q < modulus for _, q in terms)
    d = times(times(dense_u, a, modulus), diag.v, modulus)
    rank = len(diag.steps)
    for r, row in enumerate(d):
        for c, v in enumerate(row):
            if r != c or r >= rank:
                assert v == 0, (r, c, a, modulus)
    for r, (g, inv, Lg) in enumerate(diag.steps):
        pivot = d[r][r]
        assert pivot and g == gcd(pivot, modulus) and Lg == modulus // g
        assert (pivot // g) * inv % Lg == 1 % Lg


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(degenerate_systems(max_rows=3, max_cols=3, max_modulus=6))
def test_u_b_decides_feasibility_as_brute_force_does(system):
    """On small systems, A x = b is feasible exactly when every row of U b past
    the rank vanishes and g_r divides each pivot value (U b)_r."""
    a, rhss, modulus = system
    diag, dense_u = record_of(a, modulus)
    rank = len(diag.steps)
    for rhs in rhss:
        ub = [sum(map(operator.mul, row, rhs)) % modulus for row in dense_u]
        pivots_divide = all(c % g == 0 for c, (g, _, _) in zip(ub, diag.steps))
        feasible = not any(ub[rank:]) and pivots_divide
        assert feasible == (feasible_by_brute(a, rhs, modulus) is not None), (a, rhs, modulus)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(degenerate_systems())
def test_every_infeasible_system_has_a_certificate_in_u(system):
    """For every infeasible b some y, a row of U past the rank or (L/g) times a
    pivot row, has y A = 0 and y b != 0 (mod L); a feasible b has none, as
    y b = y A x = 0 then."""
    a, rhss, modulus = system
    diag, dense_u = record_of(a, modulus)
    for rhs in rhss:
        infeasible = solve_congruences_by_elimination(a, rhs, modulus) is None
        assert bool(certificates(diag, dense_u, a, rhs, modulus)) == infeasible, (a, rhs, modulus)
