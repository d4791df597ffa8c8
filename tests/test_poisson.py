"""Poisson structure from bracket tables: axioms, splits, evaluation."""

import random
from fractions import Fraction

import pytest

from superw.algebras import load_algebra
from superw.poisson import (
    BracketTable,
    PoissonAlgebra,
    evaluate,
    linear_split,
)
from superw.supercore import EVEN, ODD, Algebra, Variable
from superw.wslice import slice_setup

ALGEBRAS = ("sl2", "gl11", "osp12", "sl21")


def get_ctx(name):
    return slice_setup(load_algebra(name))


def rand_series(rng, alg, nterms=3, parity=None):
    ids = [v for v in alg.variables if not v.hbar]
    out = alg.zero()
    for _ in range(nterms * 3):
        t = alg.const(Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)))
        for v in ids:
            e = rng.randrange(0, 3 if v.parity == EVEN else 2)
            for _ in range(e):
                t = t * alg.gen(v.name)
        if t.is_zero():
            continue
        if parity is not None and t.parity() != parity:
            continue
        out = out + t
        if len(out.terms) >= nterms:
            break
    return out


# -- table storage rules ------------------------------------------------


def _toy_universe():
    return Algebra([
        Variable(0, "p", EVEN, weight=1),
        Variable(1, "q", EVEN, weight=1),
        Variable(2, "t1", ODD, weight=1),
        Variable(3, "t2", ODD, weight=1),
    ])


def test_table_storage_rules():
    alg = _toy_universe()
    with pytest.raises(ValueError):
        BracketTable(alg, {(1, 0): alg.one()})
    with pytest.raises(ValueError):
        BracketTable(alg, {(0, 0): alg.one()})  # even self-bracket
    with pytest.raises(ValueError):
        BracketTable(alg, {(0, 2): alg.one()})  # even/odd entry must be odd
    # odd diagonal is allowed
    BracketTable(alg, {(2, 2): alg.one()})


def test_entry_symmetry_convention():
    alg = _toy_universe()
    t = BracketTable(alg, {(0, 1): alg.one(), (2, 3): alg.one()})
    # even-even flips sign under swap, odd-odd does not
    assert t.entry(1, 0) == -alg.one()
    assert t.entry(3, 2) == alg.one()
    assert t.entry(0, 1) == alg.one()
    assert t.entry(0, 3).is_zero()


def test_antisymmetry_random():
    rng = random.Random(7)
    for name in ALGEBRAS:
        P = get_ctx(name).poisson
        alg = P.alg
        for _ in range(12):
            a = rand_series(rng, alg, parity=rng.choice((EVEN, ODD)))
            b = rand_series(rng, alg, parity=rng.choice((EVEN, ODD)))
            if a.is_zero() or b.is_zero():
                continue
            sign = -1 if (a.parity() == ODD and b.parity() == ODD) else 1
            assert P.bracket(a, b) == sign * -P.bracket(b, a)


def test_leibniz_random():
    rng = random.Random(17)
    for name in ALGEBRAS:
        P = get_ctx(name).poisson
        alg = P.alg
        for _ in range(12):
            a = rand_series(rng, alg, parity=rng.choice((EVEN, ODD)))
            b = rand_series(rng, alg, parity=rng.choice((EVEN, ODD)))
            c = rand_series(rng, alg)
            if a.is_zero() or b.is_zero():
                continue
            sign = -1 if (a.parity() == ODD and b.parity() == ODD) else 1
            lhs = P.bracket(a, b * c)
            rhs = P.bracket(a, b) * c + sign * b * P.bracket(a, c)
            assert lhs == rhs


def test_jacobi_generators_all_catalog():
    for name in ALGEBRAS:
        P = get_ctx(name).poisson
        assert P.check_jacobi() == []


def test_jacobi_random_triples():
    rng = random.Random(29)
    for name in ALGEBRAS:
        P = get_ctx(name).poisson
        alg = P.alg
        for _ in range(10):
            abc = [rand_series(rng, alg, parity=rng.choice((EVEN, ODD)))
                   for _ in range(3)]
            if any(s.is_zero() for s in abc):
                continue
            assert P.jacobiator(*abc).is_zero()


def test_jacobi_detects_corruption():
    # sl(2) with [e,h] deliberately rescaled: jacobiator(e,h,f) = -h != 0
    alg = Algebra([
        Variable(0, "e", EVEN, weight=4),
        Variable(1, "h", EVEN, weight=2),
        Variable(2, "f", EVEN, weight=0),
    ])
    t = BracketTable(alg, {
        (0, 1): -alg.gen("e"),  # should be -2e
        (0, 2): alg.gen("h"),
        (1, 2): -2 * alg.gen("f"),
    })
    P = PoissonAlgebra(alg, t)
    bad = P.check_jacobi()
    assert bad != []


def test_bracket_weights_catalog():
    for name in ALGEBRAS:
        P = get_ctx(name).poisson
        assert P.bracket_weight == -2
        assert P.check_weights() == []


def test_bracket_interval_discipline():
    # table entries with constant terms make a bracket drop two orders
    P = get_ctx("sl2").poisson
    alg = P.alg
    assert P.table.drop == 2
    a = rand_series(random.Random(1), alg, parity=EVEN).truncate(5)
    b = rand_series(random.Random(2), alg, parity=EVEN).truncate(5)
    br = P.bracket(a, b)
    assert br.order == 3
    # explicit cap overrides the interval bookkeeping
    assert P.bracket(a, b, order=7).order == 7
    # exact inputs stay exact
    ea, eb = alg.gen(alg.variables[0].name), alg.gen(alg.variables[1].name)
    assert P.bracket(ea, eb).order is None


def test_evaluate():
    alg = _toy_universe()
    p, q, t1 = alg.gen("p"), alg.gen("q"), alg.gen("t1")
    s = 2 * p * p * q + q - 3
    assert evaluate(s, {0: 1, 1: 2}) == 2 * 2 + 2 - 3
    assert evaluate(s) == -3
    # odd monomials die at any point
    assert evaluate(t1 * q, {1: 5}) == 0
    with pytest.raises(ValueError):
        evaluate(s, {2: 1})


# -- linear splits ------------------------------------------------------


def test_linear_split_sl2():
    ctx = get_ctx("sl2")
    P = ctx.poisson
    gens = [P.alg.gen(v.name) for v in P.alg.variables if not v.hbar]
    sp = linear_split(P, gens)
    assert len(sp.even_pairs) == 1
    assert sp.odd_pairs == [] and sp.selfs == []
    assert len(sp.radical) == 1
    # the pairing of each flat pair is exactly one at the base point
    u, v = sp.even_pairs[0]
    assert evaluate(P.bracket(u, v)) == 1


def test_linear_split_osp12():
    ctx = get_ctx("osp12")
    P = ctx.poisson
    gens = [P.alg.gen(v.name) for v in P.alg.variables if not v.hbar]
    sp = linear_split(P, gens)
    assert len(sp.even_pairs) == 1
    assert len(sp.selfs) == 1
    assert len(sp.radical) == 2
    th = sp.selfs[0]
    assert evaluate(P.bracket(th, th)) == 1


def test_linear_split_seeded():
    ctx = get_ctx("sl2")
    P = ctx.poisson
    mbar = ctx.m_gens()
    sp = linear_split(P, [P.alg.gen(v.name) for v in P.alg.variables if not v.hbar],
                      seeds=list(mbar))
    assert len(sp.even_pairs) == 1
    assert sp.even_pairs[0][0] == mbar[0]
    # seeded and unseeded runs agree on sizes here
    assert len(sp.radical) == 1


def test_linear_split_seed_without_partner():
    ctx = get_ctx("sl2")
    P = ctx.poisson
    gens = [P.alg.gen(v.name) for v in P.alg.variables if not v.hbar]
    # the top-weight generator pairs with nothing at the origin
    top = max((v for v in P.alg.variables if not v.hbar),
              key=lambda v: v.weight)
    with pytest.raises(ValueError):
        linear_split(P, gens, seeds=[P.alg.gen(top.name)])


def test_linear_split_nonisotropic_seed():
    alg = Algebra([Variable(0, "a", ODD), Variable(1, "b", ODD)])
    t = BracketTable(alg, {(0, 0): alg.const(2), (0, 1): alg.one()})
    P = PoissonAlgebra(alg, t)
    with pytest.raises(ValueError):
        linear_split(P, [alg.gen("a"), alg.gen("b")], seeds=[alg.gen("a")])


def test_linear_split_irrational_self_pairing():
    alg = Algebra([Variable(0, "a", ODD)])
    t = BracketTable(alg, {(0, 0): alg.const(3)})
    P = PoissonAlgebra(alg, t)
    with pytest.raises(ValueError):
        linear_split(P, [alg.gen("a")])


def test_linear_split_mixed_parity_rejected():
    alg = _toy_universe()
    P = PoissonAlgebra(alg, BracketTable(alg, {(0, 1): alg.one()}))
    with pytest.raises(ValueError):
        linear_split(P, [alg.gen("p") + alg.gen("t1")])


def test_alt_split_picks_other_partner():
    # two candidate partners: alt switches which one is consumed
    alg = Algebra([
        Variable(0, "u", EVEN), Variable(1, "v1", EVEN), Variable(2, "v2", EVEN),
    ])
    t = BracketTable(alg, {(0, 1): alg.one(), (0, 2): alg.one()})
    P = PoissonAlgebra(alg, t)
    gens = [alg.gen("u"), alg.gen("v1"), alg.gen("v2")]
    lo = linear_split(P, gens)
    hi = linear_split(P, gens, alt=True)
    assert lo.even_pairs[0][1] == alg.gen("v1")
    assert hi.even_pairs[0][1] == alg.gen("v2")
