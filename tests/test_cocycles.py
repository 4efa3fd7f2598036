import itertools
from unittest import mock

import pytest
from conftest import all_cocycles_by_brute, corrector_by_brute, is_corrector_by_pairs, z2_bilinear

import flagiso.cocycles
from flagiso import (
    Cocycle,
    Corrector,
    InvalidInput,
    Subgroup,
    build_abelian,
    cohomologous,
    is_corrector,
    pauli,
    subgroup_closure,
    transport,
    trivial_cocycle,
    validate_cocycle,
)

# -- oracles -----------------------------------------------------------------


def coords(grp, i):
    return tuple(int(c) for c in grp.name_of(i).strip("()").split(","))


def full_subgroup(grp):
    return Subgroup(grp, tuple(grp.elements()))


def klein_pauli_table():
    """sigma((i1,j1),(i2,j2)) = j1*i2 mod 2, straight from the commutation rule."""
    grp = build_abelian([2, 2])
    members = tuple(grp.elements())
    tbl = [
        [coords(grp, a)[1] * coords(grp, b)[0] % 2 for b in members] for a in members
    ]
    return grp, tbl


# the anticommutation table on the four-group, frozen from the formula above
KLEIN_PAULI = [[0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 0, 0], [0, 0, 1, 1]]


# -- cocycle validation --------------------------------------------------------


def test_pauli_table_matches_frozen_and_brute_identity():
    grp, tbl = klein_pauli_table()
    assert tbl == KLEIN_PAULI
    order = 2
    members = tuple(grp.elements())
    # independent check of the cocycle identity on all 64 triples
    for a in members:
        for b in members:
            for c in members:
                lhs = (tbl[a][b] + tbl[grp.mul(a, b)][c]) % order
                rhs = (tbl[b][c] + tbl[a][grp.mul(b, c)]) % order
                assert lhs == rhs, (a, b, c)
    coc = validate_cocycle(full_subgroup(grp), order, tbl)
    assert coc.values == tuple(tuple(r) for r in KLEIN_PAULI)
    u, v = grp.elem_by_name("(1,0)").index, grp.elem_by_name("(0,1)").index
    assert coc.val(u, v) == 0
    assert coc.val(v, u) == 1


def test_validate_rejects_broken_identity():
    grp, tbl = klein_pauli_table()
    tbl[1][1] ^= 1  # flip one interior entry; normalization is untouched
    with pytest.raises(InvalidInput) as ei:
        validate_cocycle(full_subgroup(grp), 2, tbl)
    assert ei.value.code == "cocycle-identity"
    assert "triple" in str(ei.value)


def test_validate_rejects_a_failure_led_by_the_second_generator_only():
    """Over the Klein four-group, generated by (0,1) and then (1,0), every
    triple led by (0,1) keeps the identity and one led by (1,0) breaks it:
    both generators' triples are checked, and the first failing triple is named."""
    grp = build_abelian([2, 2])
    sub = full_subgroup(grp)
    assert [grp.name_of(x) for x in sub.generators] == ["(0,1)", "(1,0)"]
    tbl = [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 1]]
    with pytest.raises(InvalidInput) as ei:
        validate_cocycle(sub, 2, tbl)
    assert ei.value.code == "cocycle-identity"
    assert str(ei.value) == "cocycle identity fails at triple ((1,0),(0,1),(1,0))"


def test_validate_rejects_unnormalized():
    grp, tbl = klein_pauli_table()
    tbl[0][1] = 1
    with pytest.raises(InvalidInput) as ei:
        validate_cocycle(full_subgroup(grp), 2, tbl)
    assert ei.value.code == "cocycle-not-normalized"


def test_validate_rejects_bad_shape():
    sub = full_subgroup(build_abelian([2]))
    with pytest.raises(InvalidInput) as ei:
        validate_cocycle(sub, 2, [[0, 0]])
    assert ei.value.code == "cocycle-shape"
    with pytest.raises(InvalidInput) as ei:
        validate_cocycle(sub, 2, [[0, 0], [0, True]])
    assert ei.value.code == "cocycle-shape"
    with pytest.raises(InvalidInput) as ei:
        validate_cocycle(sub, 0, [[0, 0], [0, 0]])
    assert ei.value.code == "cocycle-shape"


def test_cocycle_on_proper_subgroup_uses_parent_indices():
    z4 = build_abelian([4])
    sub = subgroup_closure(z4, [2])
    coc = validate_cocycle(sub, 2, [[0, 0], [0, 1]])
    assert coc.val(2, 2) == 1
    with pytest.raises(KeyError):
        coc.val(1, 1)  # not in the support


def test_trivial_cocycle():
    sub = full_subgroup(build_abelian([3]))
    coc = trivial_cocycle(sub, 4)
    assert all(v == 0 for row in coc.values for v in row)
    assert coc.order == 4


# -- correctors ----------------------------------------------------------------


def test_corrector_from_map_and_inverse():
    sub = full_subgroup(build_abelian([2]))
    mu = Corrector.from_map(sub, 4, {0: 0, 1: 3})
    assert mu.exp_of(1) == 3
    via_fn = Corrector.from_map(sub, 4, lambda h: 3 * h)
    assert via_fn == mu
    # exponents are reduced mod the order, so negating them gives the inverse
    assert Corrector(sub, 4, tuple(-v for v in mu.exps)).exp_of(1) == 1
    with pytest.raises(InvalidInput):
        Corrector(sub, 2, (0,))


def test_a_corrector_that_moves_the_identity_breaks_the_law():
    """mu(e) = mu(e)^2 forces mu(e) = 1.  On a trivial support no generator
    row reads mu(e), so the law's own check of it is the one that refuses."""
    for grp in (build_abelian([2]), build_abelian([3])):
        sub = Subgroup(grp, (grp.identity,))
        sigma = trivial_cocycle(sub, 2)
        assert is_corrector(Corrector(sub, 2, (0,)), sigma, sigma)
        assert not is_corrector(Corrector(sub, 2, (1,)), sigma, sigma)


def test_cohomologous_self_gives_identity_corrector():
    grp, tbl = klein_pauli_table()
    coc = validate_cocycle(full_subgroup(grp), 2, tbl)
    mu = cohomologous(coc, coc)
    assert mu is not None
    assert all(v == 0 for v in mu.exps)


def test_coboundary_twist_is_cohomologous():
    grp, tbl = klein_pauli_table()
    sub = full_subgroup(grp)
    sigma = validate_cocycle(sub, 2, tbl)
    u = {0: 0, 1: 1, 2: 1, 3: 0}
    twisted = [
        [(sigma.val(a, b) + u[a] + u[b] - u[grp.mul(a, b)]) % 2 for b in sub.members]
        for a in sub.members
    ]
    tau = validate_cocycle(sub, 2, twisted)
    mu = cohomologous(sigma, tau)
    assert mu is not None
    assert is_corrector_by_pairs(mu, sigma, tau)
    assert corrector_by_brute(sigma, tau) is not None


def test_pauli_not_cohomologous_to_trivial():
    grp, tbl = klein_pauli_table()
    sub = full_subgroup(grp)
    sigma = validate_cocycle(sub, 2, tbl)
    tau = trivial_cocycle(sub, 2)
    # oracle first: no exponent vector satisfies the law
    assert corrector_by_brute(sigma, tau) is None
    assert cohomologous(sigma, tau) is None


def test_cohomologous_across_root_orders():
    sub = full_subgroup(build_abelian([2]))
    sigma = trivial_cocycle(sub, 2)
    minus = validate_cocycle(sub, 4, [[0, 0], [0, 2]])  # x_a^2 = -1
    eye = validate_cocycle(sub, 4, [[0, 0], [0, 1]])  # x_a^2 = i
    mu = cohomologous(sigma, minus)
    assert mu is not None and mu.order == 4
    assert mu.exp_of(1) in (1, 3)  # 2u = -2 (mod 4)
    assert cohomologous(sigma, eye) is None  # 2u = -1 (mod 4) has no solution
    assert corrector_by_brute(sigma, eye) is None


def test_cohomologous_rejects_support_mismatch():
    a = trivial_cocycle(full_subgroup(build_abelian([2])), 2)
    b = trivial_cocycle(full_subgroup(build_abelian([3])), 2)
    with pytest.raises(InvalidInput) as ei:
        cohomologous(a, b)
    assert ei.value.code == "support-mismatch"


# -- one cached system per support and modulus --------------------------------


def clock_and_shift_twists():
    """The Z3 x Z3 clock-and-shift cocycle and two twists of it by coboundaries."""
    sigma = pauli(3, build_abelian([3, 3]), ["(1,0)", "(0,1)"]).cocycle
    mul = sigma.support.mul_table

    def twist(u):
        return [
            [v + u[x] + u[y] - u[mul[x][y]] for y, v in enumerate(row)]
            for x, row in enumerate(sigma.values)
        ]

    return sigma, *(
        validate_cocycle(sigma.support, 3, twist(u))
        for u in ((0, 1, 2, 0, 1, 1, 2, 0, 2), (0, 0, 1, 2, 2, 0, 1, 1, 0))
    )


def spied(name):
    """A spy on the binding cohomologous calls by ``name``, counting calls."""
    return mock.patch(f"flagiso.cocycles.{name}", wraps=getattr(flagiso.cocycles, name))


def test_one_diagonalization_serves_every_right_hand_side():
    """Solves on one support and modulus read one cached diagonalization: after
    the first, no solve diagonalizes."""
    sigma, tau, rho = clock_and_shift_twists()
    system = flagiso.cocycles._corrector_system
    system.cache_clear()
    with spied("_diagonalize") as eliminated:
        assert is_corrector_by_pairs(cohomologous(sigma, tau), sigma, tau)
        assert eliminated.call_count == 1
        trivial = trivial_cocycle(sigma.support, 3)
        for s, t in ((sigma, rho), (rho, tau), (tau, sigma), (sigma, trivial), (trivial, rho)):
            mu = cohomologous(s, t)
            assert (mu is None) == (trivial in (s, t))
            assert mu is None or is_corrector_by_pairs(mu, s, t)
    assert eliminated.call_count == 1
    assert (system.cache_info().hits, system.cache_info().misses) == (5, 1)


def test_each_elimination_is_a_corrector_system_miss():
    """Over several supports and moduli, cohomologous diagonalizes once per
    miss of the per-(support, modulus) system cache, and a warm pass of the
    same solves diagonalizes nothing."""
    sigma, tau, rho = clock_and_shift_twists()
    sextic = validate_cocycle(sigma.support, 6, [[2 * v for v in row] for row in tau.values])
    grp, tbl = klein_pauli_table()
    klein = validate_cocycle(full_subgroup(grp), 2, tbl)
    flat = trivial_cocycle(klein.support, 2)
    quartic = validate_cocycle(klein.support, 4, [[2 * v for v in row] for row in tbl])
    pairs = [
        (sigma, tau), (rho, sigma), (sigma, sextic), (klein, flat), (flat, quartic), (quartic, klein)
    ]
    system = flagiso.cocycles._corrector_system
    system.cache_clear()
    with spied("_diagonalize") as eliminated:
        cold = [cohomologous(s, t) for s, t in pairs]
        assert eliminated.call_count == system.cache_info().misses == 4
        assert [cohomologous(s, t) for s, t in pairs] == cold
    assert eliminated.call_count == 4
    for mu, (s, t) in zip(cold, pairs):
        assert mu is None or is_corrector_by_pairs(mu, s, t)


def test_identical_cocycles_build_no_system():
    """Identical cocycles, and a pair whose right-hand side is 0 mod lcm (here
    sigma in mu_3 and in mu_6), get u = 0 with no system looked up or built."""
    sigma = clock_and_shift_twists()[0]
    copy = Cocycle(sigma.support, sigma.order, sigma.values)
    doubled = validate_cocycle(sigma.support, 6, [[2 * v for v in row] for row in sigma.values])
    with spied("_corrector_system") as looked_up, spied("_diagonalize") as eliminated:
        for tau in (sigma, copy):
            assert cohomologous(sigma, tau) == Corrector(sigma.support, 3, (0,) * 9)
        assert cohomologous(sigma, doubled) == Corrector(sigma.support, 6, (0,) * 9)
        assert cohomologous(doubled, sigma) == Corrector(sigma.support, 6, (0,) * 9)
    assert looked_up.call_count == eliminated.call_count == 0


def test_the_law_decides_u_zero_across_two_root_orders():
    """A Z2^6 bilinear cocycle in mu_2 and the same table embedded in mu_4 get
    u = 0 from the corrector law read at u = 0, with no system looked up."""
    sub, table = z2_bilinear(6)
    sigma = validate_cocycle(sub, 2, table)
    embedded = validate_cocycle(sub, 4, [[2 * v for v in row] for row in table])
    with spied("_corrector_system") as looked_up, spied("_keeps_law") as law:
        for s, t in ((sigma, embedded), (embedded, sigma)):
            assert cohomologous(s, t) == Corrector(sub, 4, (0,) * 64)
    assert looked_up.call_count == 0
    assert [call.args[0] for call in law.call_args_list] == [[0] * 64] * 2


def test_corrector_law_guards_cached_systems(monkeypatch):
    """A corrupted system taken from the cache is caught, not returned."""
    sigma, tau, _ = clock_and_shift_twists()
    assert is_corrector_by_pairs(cohomologous(sigma, tau), sigma, tau)
    system = flagiso.cocycles._corrector_system
    hits = system.cache_info().hits

    def corrupted(sub, modulus):
        cached = system(sub, modulus)
        diag = cached.diag
        return cached._replace(diag=diag._replace(v=tuple((0,) * len(row) for row in diag.v)))

    monkeypatch.setattr(flagiso.cocycles, "_corrector_system", corrupted)
    with pytest.raises(AssertionError, match="^internal solver error"):
        cohomologous(sigma, tau)
    assert system.cache_info().hits == hits + 1


def test_every_solve_reads_u_rhs_once(monkeypatch):
    """A solve reads U rhs once (_solve), feasible or not: when a row past the
    pivots is nonzero and when a pivot value is not divisible alike; identical
    cocycles read it not at all."""
    sigma, tau, rho = clock_and_shift_twists()
    solve = flagiso.cocycles._solve
    calls = []

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(flagiso.cocycles, "_solve", counting)
    for s, t in ((sigma, tau), (tau, rho), (rho, sigma)):
        assert is_corrector_by_pairs(cohomologous(s, t), s, t)
    assert len(calls) == 3
    # mod 3 every pivot divides, so only the nonzero rows past them tell
    assert cohomologous(sigma, trivial_cocycle(sigma.support, 3)) is None
    assert len(calls) == 4
    # 2u = -1 (mod 4): the one pivot value is odd
    sub = full_subgroup(build_abelian([2]))
    assert cohomologous(trivial_cocycle(sub, 2), validate_cocycle(sub, 4, [[0, 0], [0, 1]])) is None
    assert len(calls) == 5
    assert cohomologous(sigma, sigma) == Corrector(sigma.support, 3, (0,) * 9)
    assert len(calls) == 5


def test_is_corrector_detects_violations():
    grp, tbl = klein_pauli_table()
    sub = full_subgroup(grp)
    sigma = validate_cocycle(sub, 2, tbl)
    tau = trivial_cocycle(sub, 2)
    for combo in itertools.product(range(2), repeat=3):
        mu = Corrector(sub, 2, (0, *combo))
        assert not is_corrector(mu, sigma, tau)
    assert is_corrector(Corrector(sub, 2, (0, 0, 0, 0)), sigma, sigma)
    other = Corrector(full_subgroup(build_abelian([4])), 2, (0, 0, 0, 0))
    assert not is_corrector(other, sigma, sigma)


def test_engine_agrees_with_brute_on_small_supports():
    for factors in ([2], [3], [4]):
        grp = build_abelian(factors)
        sub = full_subgroup(grp)
        cocycles = all_cocycles_by_brute(sub, 2)
        for s in cocycles:
            for t in cocycles:
                got = cohomologous(s, t)
                want = corrector_by_brute(s, t)
                assert (got is None) == (want is None), (factors, s.values, t.values)
                if got is not None:
                    assert is_corrector_by_pairs(got, s, t)


# -- transport -------------------------------------------------------------------


def test_transport_between_order_two_subgroups():
    z4 = build_abelian([4])
    sub1 = subgroup_closure(z4, [2])
    z2 = build_abelian([2])
    sub2 = full_subgroup(z2)
    sigma = validate_cocycle(sub1, 2, [[0, 0], [0, 1]])
    moved = transport(sigma, {0: 0, 2: 1}, sub2)
    assert moved.support is sub2
    assert moved.values == ((0, 0), (0, 1))
    back = transport(moved, {0: 0, 1: 2}, sub1)
    assert back.values == sigma.values


def test_transport_composes():
    grp, tbl = klein_pauli_table()
    sub = full_subgroup(grp)
    sigma = validate_cocycle(sub, 2, tbl)
    alpha = {0: 0, 1: 2, 2: 1, 3: 3}  # swap the two generators
    beta = {0: 0, 1: 1, 2: 3, 3: 2}
    once = transport(transport(sigma, alpha, sub), beta, sub)
    combined = transport(sigma, {h: beta[alpha[h]] for h in sub.members}, sub)
    assert once.values == combined.values


def test_transport_rejects_bad_maps():
    z2 = full_subgroup(build_abelian([2]))
    z4 = build_abelian([4])
    z4full = full_subgroup(z4)
    sigma = trivial_cocycle(z4full, 2)
    with pytest.raises(InvalidInput) as ei:
        transport(sigma, {0: 0, 1: 1}, z4full)  # domain too small
    assert ei.value.code == "bad-isomorphism"
    with pytest.raises(InvalidInput) as ei:
        transport(sigma, {0: 0, 1: 1, 2: 1, 3: 3}, z4full)  # not onto
    assert ei.value.code == "bad-isomorphism"
    with pytest.raises(InvalidInput) as ei:
        transport(sigma, {0: 0, 1: 1, 2: 3, 3: 2}, z4full)  # not a homomorphism
    assert ei.value.code == "bad-isomorphism"
    with pytest.raises(InvalidInput) as ei:
        transport(trivial_cocycle(z2, 2), {0: 0, 1: 1}, z4full)  # wrong target size
    assert ei.value.code == "bad-isomorphism"
