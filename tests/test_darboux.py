"""Classical normalization: pair flattening, projections, full charts."""

import random
from fractions import Fraction

import pytest

from superw.algebras import load_algebra
from superw.darboux import (
    ChartEntry,
    DarbouxError,
    PoissonBackend,
    equivariant_darboux,
    even_project,
    odd_pair_flatten,
    odd_self_project,
)
from superw.poisson import BracketTable, PoissonAlgebra, linear_split
from superw.supercore import EVEN, ODD, Algebra, Variable
from superw.wslice import slice_setup

ALGEBRAS = ("sl2", "gl11", "osp12", "sl21")


def curved_pair():
    """Flat-at-the-origin even pair with a curvature term: {x,y} = 1 + x."""
    alg = Algebra([
        Variable(0, "x", EVEN, weight=1),
        Variable(1, "y", EVEN, weight=1),
        Variable(2, "z", EVEN, weight=2),
    ])
    t = BracketTable(alg, {(0, 1): alg.one() + alg.gen("x")})
    return alg, PoissonAlgebra(alg, t)


def curved_odd():
    alg = Algebra([
        Variable(0, "t1", ODD, weight=1),
        Variable(1, "t2", ODD, weight=1),
        Variable(2, "x", EVEN, weight=2),
    ])
    t = BracketTable(alg, {
        (0, 1): alg.one() + alg.gen("x"),
    })
    return alg, PoissonAlgebra(alg, t)


def test_even_correct_geometric_series():
    alg, P = curved_pair()
    x, y = alg.gen("x"), alg.gen("y")
    order, cap = 5, 9  # certification order plus guard, as the chart builder does
    g = PoissonBackend(P, order, cap - order).even_correct(x.truncate(cap),
                                                           y.truncate(cap))
    # {x, y*s(x)} = (1+x) s(x), so s must be the alternating geometric series
    s = alg.one() - x + x * x - x ** 3 + x ** 4
    assert g.truncate(order) == (y * s).truncate(order)
    assert (P.bracket(x.truncate(cap), g, order=cap) - 1).truncate(order).is_zero()


def test_even_correct_rejects_unnormalized():
    alg, P = curved_pair()
    with pytest.raises(DarbouxError):
        # constant bracket 2 instead of 1
        PoissonBackend(P, 5, 4).even_correct(alg.gen("x"), 2 * alg.gen("y"))


def test_even_project_kills_brackets():
    alg, P = curved_pair()
    x, y, z = alg.gen("x"), alg.gen("y"), alg.gen("z")
    B = PoissonBackend(P, 2, 4)
    f = x.truncate(B.cap)
    g = B.even_correct(f, y.truncate(B.cap))
    rng = random.Random(3)
    for _ in range(10):
        a = alg.zero()
        for _ in range(4):
            t = alg.const(rng.randrange(-4, 5))
            for v in (x, y, z):
                for _ in range(rng.randrange(0, 3)):
                    t = t * v
            a = a + t
        p = even_project(B, f, g, a)
        assert P.bracket(f, p, order=2).is_zero()
        assert P.bracket(g, p, order=2).is_zero()
        # projecting twice changes nothing through the certified order
        again = even_project(B, f, g, p)
        assert (again - p).truncate(2).is_zero()


def test_odd_self_normalize():
    alg = Algebra([
        Variable(0, "th", ODD, weight=1),
        Variable(1, "x", EVEN, weight=2),
    ])
    t = BracketTable(alg, {(0, 0): alg.one() + alg.gen("x")})
    P = PoissonAlgebra(alg, t)
    order, cap = 4, 8
    th = PoissonBackend(P, order, cap - order).odd_self_normalize(
        alg.gen("th").truncate(cap))
    assert (P.bracket(th, th, order=cap) - 1).truncate(order).is_zero()
    # the (1+x)^(-1/2) scaling shows up in the x-coefficient
    mono = ((0, 1), (1, 1))
    assert th.coeff(mono) == Fraction(-1, 2)


def test_odd_pair_flatten():
    alg, P = curved_odd()
    order, cap = 4, 8
    f, g = odd_pair_flatten(PoissonBackend(P, order, cap - order),
                            alg.gen("t1").truncate(cap), alg.gen("t2").truncate(cap))
    assert P.bracket(f, f, order=cap).truncate(order).is_zero()
    assert P.bracket(g, g, order=cap).truncate(order).is_zero()
    assert (P.bracket(f, g, order=cap) - 1).truncate(order).is_zero()


def test_odd_split_project():
    alg = Algebra([
        Variable(0, "th", ODD, weight=1),
        Variable(1, "x", EVEN, weight=2),
    ])
    t = BracketTable(alg, {(0, 0): alg.one()})
    P = PoissonAlgebra(alg, t)
    th, x = alg.gen("th"), alg.gen("x")
    a = x + th * x * 3
    b0, b1 = odd_self_project(PoissonBackend(P, 4, 4), th, a)
    assert b0.truncate(4) == x.truncate(4)
    assert b1.truncate(4) == (3 * x).truncate(4)
    assert (b0 + th * b1 - a).truncate(4).is_zero()


def test_full_charts_catalog():
    # seeded around the shift directions, as the W-algebra pipeline does
    expected_kinds = {
        "sl2": [],
        "gl11": [],
        "osp12": ["self"],
        "sl21": ["odd"],
    }
    for name in ALGEBRAS:
        ctx = slice_setup(load_algebra(name))
        chart = equivariant_darboux(ctx.poisson, 4, seeds=ctx.m_gens())
        rep = chart.verify()
        assert rep["ok"], (name, rep["failures"])
        assert rep["weight_homogeneous"]
        kinds = sorted(e.kind for e in chart.entries if e.kind != "even")
        assert kinds == expected_kinds[name], name
        # every shift direction is consumed by a flat pair
        npairs = sum(1 for e in chart.entries if e.kind in ("even", "odd"))
        assert npairs == len(ctx.m_gens())


def test_full_flatten_unseeded_sl2():
    ctx = slice_setup(load_algebra("sl2"))
    chart = equivariant_darboux(ctx.poisson, 4)
    assert chart.verify()["ok"]
    assert len(chart.center_gens) == 1
    # the surviving generator is the Casimir direction: weight 4
    assert chart.center_gens[0].weights() == [4]


def test_chart_via_subspace():
    ctx = slice_setup(load_algebra("osp12"))
    P = ctx.poisson
    plan = linear_split(P, [P.alg.gen(v.name) for v in P.alg.variables
                            if not v.hbar])
    chart = equivariant_darboux(P, 3, plan=plan)
    assert chart.verify()["ok"]
    dims = (2 * len(plan.even_pairs), 2 * len(plan.odd_pairs) + len(plan.selfs))
    assert dims == (2, 1)


def test_verify_flags_corruption():
    ctx = slice_setup(load_algebra("sl2"))
    chart = equivariant_darboux(ctx.poisson, 4, seeds=ctx.m_gens())
    assert chart.verify()["ok"]
    e = chart.entries[0]
    bad = ChartEntry(e.kind, e.a + e.a * e.a, e.b)
    chart.entries[0] = bad
    assert not chart.verify()["ok"]


def test_projection_consistency_random():
    # chart projections commute with the certified bracket data
    ctx = slice_setup(load_algebra("osp12"))
    chart = equivariant_darboux(ctx.poisson, 3, seeds=ctx.m_gens())
    P = ctx.poisson
    alg = P.alg
    rng = random.Random(8)
    names = [v.name for v in alg.variables if not v.hbar]
    for _ in range(6):
        a = alg.zero()
        for _ in range(3):
            t = alg.const(rng.randrange(-3, 4))
            for nm in names:
                if rng.random() < 0.4:
                    t = t * alg.gen(nm)
            a = a + t
        p = chart.project(a.truncate(chart.cap))
        for v in chart.chart_vars():
            assert P.bracket(v, p, order=chart.order).is_zero()
