"""Classical normalization: pair flattening, projections, full charts."""

import copy
import random
from fractions import Fraction
from math import factorial

import pytest

from superw import darboux
from superw.algebras import load_algebra
from superw.darboux import (
    DEFAULT_GUARD,
    ChartEntry,
    DarbouxError,
    PoissonBackend,
    certify,
    clean_mod,
    equivariant_darboux,
    even_correct,
    even_project,
    odd_pair_flatten,
    odd_self_normalize,
    odd_self_project,
)
from superw.poisson import BracketTable, PoissonAlgebra, linear_split
from superw.starprod import StarAlgebra, StarBackend, quantum_darboux
from superw.supercore import EVEN, ODD, Algebra, Series, Variable
from superw.wslice import slice_setup
from test_supercore import make_algebra, rand_series

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


def odd_pair_algebra(hbar=False):
    """Odd t1, t2 and even x, with an hbar variable for a star product when
    ``hbar`` is set."""
    variables = [
        Variable(0, "t1", ODD, weight=1),
        Variable(1, "t2", ODD, weight=1),
        Variable(2, "x", EVEN, weight=2),
    ]
    if hbar:
        variables.append(Variable(3, "hb", EVEN, weight=1, hbar=True))
    return Algebra(variables)


def curved_odd(hbar=False):
    """An odd pair with flat self brackets and {t1,t2} = 1 + x."""
    alg = odd_pair_algebra(hbar)
    t = BracketTable(alg, {
        (0, 1): alg.one() + alg.gen("x"),
    })
    return alg, PoissonAlgebra(alg, t)


def test_even_correct_geometric_series():
    alg, P = curved_pair()
    x, y = alg.gen("x"), alg.gen("y")
    order, cap = 5, 9  # certification order plus guard, as the chart builder does
    g = even_correct(PoissonBackend(P, order, cap - order), x.truncate(cap),
                     y.truncate(cap))
    # {x, y*s(x)} = (1+x) s(x), so s must be the alternating geometric series
    s = alg.one() - x + x * x - x * x * x + x * x * x * x
    assert g.truncate(order) == (y * s).truncate(order)
    assert (P.bracket(x.truncate(cap), g, order=cap) - alg.one()).truncate(order).is_zero()


def test_even_correct_rejects_unnormalized():
    alg, P = curved_pair()
    with pytest.raises(DarbouxError):
        # constant bracket 2 instead of 1
        even_correct(PoissonBackend(P, 5, 4), alg.gen("x"), alg.gen("y") * 2)


def test_even_project_kills_brackets():
    alg, P = curved_pair()
    x, y, z = alg.gen("x"), alg.gen("y"), alg.gen("z")
    B = PoissonBackend(P, 2, 4)
    f = x.truncate(B.cap)
    g = even_correct(B, f, y.truncate(B.cap))
    rng = random.Random(3)
    for _ in range(10):
        a = alg.zero()
        for _ in range(4):
            t = alg.one() * rng.randrange(-4, 5)
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
    th = odd_self_normalize(PoissonBackend(P, order, cap - order),
                            alg.gen("th").truncate(cap))
    assert (P.bracket(th, th, order=cap) - alg.one()).truncate(order).is_zero()
    # the (1+x)^(-1/2) scaling shows up in the x-coefficient
    mono = alg.monomial({0: 1, 1: 1})
    assert th.coeff(mono) == Fraction(-1, 2)


def test_odd_pair_flatten():
    alg, P = curved_odd()
    order, cap = 4, 8
    f, g = odd_pair_flatten(PoissonBackend(P, order, cap - order),
                            alg.gen("t1").truncate(cap), alg.gen("t2").truncate(cap))
    assert P.bracket(f, f, order=cap).truncate(order).is_zero()
    assert P.bracket(g, g, order=cap).truncate(order).is_zero()
    assert (P.bracket(f, g, order=cap) - alg.one()).truncate(order).is_zero()


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
    assert b1.truncate(4) == (x * 3).truncate(4)
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
        # one centralizer generator per direction of g^e
        assert len(chart.center_gens) == len(ctx.grading.ge_basis)


def test_full_flatten_unseeded_sl2():
    ctx = slice_setup(load_algebra("sl2"))
    # no default builds a chart around directions the caller did not name
    with pytest.raises(TypeError, match="needs seeds or a plan"):
        equivariant_darboux(ctx.poisson, 4)
    chart = equivariant_darboux(ctx.poisson, 4, seeds=ctx.m_gens())
    assert chart.verify()["ok"]
    assert len(chart.center_gens) == 1
    # the surviving generator is the Casimir direction: weight 4
    assert chart.center_gens[0].weights() == [4]


def test_chart_via_subspace():
    ctx = slice_setup(load_algebra("osp12"))
    P = ctx.poisson
    plan = linear_split(P, [P.alg.gen(v.name) for v in P.alg.variables
                            if not v.hbar], ctx.m_gens())
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
            t = alg.one() * rng.randrange(-3, 4)
            for nm in names:
                if rng.random() < 0.4:
                    t = t * alg.gen(nm)
            a = a + t
        p = chart.project(a.truncate(chart.cap))
        for v in chart.chart_vars():
            assert P.bracket(v, p, order=chart.order).is_zero()


# -- the truncated certificate against an untruncated reference ---------


def _untruncated_residuals(chart):
    """(tag, i, j, residual) for every certified pair, with every bracket
    computed in full, so that no monomial pair is skipped."""
    B = chart.backend
    full = B.S.commutator if B.kind == "quantum" else B.P.bracket
    vs = [Series(v.alg, v.terms) for v in chart.chart_vars()]
    # the flat model from each variable's entry, the entry's kind and the
    # variable's position in it: the unit between the two members of a pair
    # and on a self entry's square, 0 everywhere else
    place = [(k, e.kind, pos) for k, e in enumerate(chart.entries)
             for pos in range(len(e.variables()))]
    out = []
    for i in range(len(vs)):
        for j in range(i, len(vs)):
            (ki, kind, pi), (kj, _, pj) = place[i], place[j]
            unit = ki == kj and (kind == "self" or pi != pj)
            r = full(vs[i], vs[j], order=None)
            if unit:
                r = r - B.unit
            out.append(("chart", i, j, r))
    for k, c in enumerate(chart.center_gens):
        c = Series(c.alg, c.terms)
        for i, v in enumerate(vs):
            out.append(("center", i, k, full(v, c, order=None)))
    return out


def _reference(residuals, level):
    """The (ok, failures) of the untruncated residuals read through level."""
    failures = [(tag, i, j, r.eff_deg()) for tag, i, j, r in residuals
                if r.eff_deg() is not None and r.eff_deg() <= level]
    return not failures, failures


def replace(chart, **changes):
    """A shallow copy of ``chart``, of its class, with ``changes`` set."""
    out = copy.copy(chart)
    vars(out).update(changes)
    return out


def _certificate(chart, level):
    rep = replace(chart, order=level).verify()
    return rep["ok"], rep["failures"]


def _charts(ctx, order):
    cc = ctx.classical_chart(order)
    qc = quantum_darboux(ctx.star, cc)
    return cc, qc


@pytest.mark.parametrize("alt", (False, True))
@pytest.mark.parametrize("name", ALGEBRAS)
def test_truncated_certificate_matches_untruncated(name, alt):
    # one level past the chart order some charts do have residuals, so the
    # failure tuples (eff_deg included) are compared on nonempty lists too
    ctx = slice_setup(load_algebra(name), alt=alt)
    for order in range(7):
        for chart in _charts(ctx, order):
            residuals = _untruncated_residuals(chart)
            for level in (chart.order, chart.order + 1):
                assert _certificate(chart, level) == _reference(residuals, level), (
                    order, chart.backend.kind, level)


@pytest.mark.parametrize("name", ("sl2", "osp12", "sl21"))
def test_planted_fault_at_the_order_boundary(name):
    # hbar is central for both brackets, so multiplying a chart variable by
    # 1 + hbar^p adds exactly hbar^p times the unit to the brackets where
    # the flat model has the unit: a residual at completion order p plus the
    # order of the unit (0 classically, 2 for hbar^2)
    ctx = slice_setup(load_algebra(name))
    order = 3
    for chart in _charts(ctx, order):
        lift = chart.backend.unit.eff_deg()
        i = 0
        for k, e in enumerate(chart.entries):
            partner = i if e.kind == "self" else i + 1
            for p, ok in ((order - lift, False), (order + 1 - lift, True)):
                entries = list(chart.entries)
                entries[k] = ChartEntry(e.kind, e.a + e.a.mul_hbar(p), e.b)
                bad = replace(chart, entries=entries)
                got = _certificate(bad, order)
                assert got == _reference(_untruncated_residuals(bad), order)
                assert got == (ok, [] if ok else [("chart", i, partner, order)])
            if e.kind == "even" and chart.center_gens:
                # a center generator picking up hbar^p times the partner of
                # e.a fails exactly against e.a
                for p, ok in ((order - lift, False), (order + 1 - lift, True)):
                    centers = list(chart.center_gens)
                    centers[0] = centers[0] + e.b.mul_hbar(p)
                    bad = replace(chart, center_gens=centers)
                    got = _certificate(bad, order)
                    assert got == _reference(_untruncated_residuals(bad), order)
                    assert got == (ok, [] if ok else [("center", i, 0, order)])
            i += len(e.variables())


# -- the engine's normalizations against the per-backend originals ------
#
# Before the even correction and the odd self-normalization moved into the
# engine, each backend carried its own.  They are kept here verbatim (with
# ``self`` the backend) as references for the engine functions, together
# with the closed form the classical one-shot normalization multiplies by.


def inv_sqrt_series(B, t):
    """(1+t)^(-1/2) through the cap of B, with powers in B's product.

    t must be even with deg(t) >= 1.  Example: for t = x this starts
    1 - x/2 + 3*x^2/8 - ...
    """
    if t.parity() not in (None, EVEN):
        raise ValueError("inv_sqrt_series needs an even argument")
    out = B.alg.one(B.cap)
    if t.is_zero():
        return out
    d = t.eff_deg()
    if d < 1:
        raise ValueError("inv_sqrt_series needs deg(t) >= 1")
    power = B.alg.one(B.cap)
    coef = Fraction(1)
    k = 0
    while (k + 1) * d <= B.cap:
        k += 1
        power = B.mul(power, t)
        if power.is_zero():
            break
        coef *= Fraction(-(2 * k - 1), 2 * k)  # binom(-1/2, k) ratio
        out = out + power * coef
    return out


def series_backend(alg, cap):
    """The classical chart-engine backend at ``cap``; the (1+t)^(-1/2)
    series only uses its product."""
    return PoissonBackend(PoissonAlgebra(alg, BracketTable(alg, {})), cap, 0)


def test_inv_sqrt_series_oracle():
    alg = make_algebra()
    y = alg.gen("y")
    # (1+y)^(-1/2) = 1 - y/2 + 3y^2/8 - 5y^3/16 + 35y^4/128 - ...
    s = inv_sqrt_series(series_backend(alg, 4), y)
    m = lambda k: alg.monomial({1: k})
    assert s.coeff(m(0)) == 1
    assert s.coeff(m(1)) == Fraction(-1, 2)
    assert s.coeff(m(2)) == Fraction(3, 8)
    assert s.coeff(m(3)) == Fraction(-5, 16)
    assert s.coeff(m(4)) == Fraction(35, 128)


def test_inv_sqrt_series_property():
    alg = make_algebra()
    rng = random.Random(19)
    for _ in range(15):
        t = rand_series(rng, alg, nterms=3, maxexp=2, parity=EVEN)
        if t.is_zero() or t.parity() != EVEN:
            continue
        cap = 6
        r = inv_sqrt_series(series_backend(alg, cap), t)
        check = (r * r * (alg.one() + t)).truncate(cap)
        assert check == alg.one(cap)
    with pytest.raises(ValueError):
        inv_sqrt_series(series_backend(alg, 3), alg.gen("th"))


def _classical_even_correct(self, f, g):
    """Correct g so that {f, g} = 1 through the certification order.

    f is even and untouched; g must already satisfy {f,g} = 1 + (higher).
    Each pass subtracts sum_i (-1)^i/i! g^i ad_f^(i-1)(t) for the current
    defect t, which kills t exactly and leaves a remainder of at least
    twice its order.
    """
    cap = self.cap
    f = f.truncate(cap)
    g = g.truncate(cap)
    t = self.bracket(f, g) - self.alg.one()
    if t.constant_term():
        raise DarbouxError("even pair is not normalized at the point")
    prev = -1
    while not clean_mod(t, self.order):
        d = t.eff_deg()
        if d <= prev:
            raise DarbouxError(f"even correction stalled at residual order {d}")
        prev = d
        delta = self.alg.zero(cap)
        u = t
        gp = self.alg.one(cap)
        coef = Fraction(1)
        for i in range(1, cap + 1):
            gp = gp * g
            if gp.is_zero():
                break
            coef *= Fraction(-1, i)
            delta = delta + gp * u * coef
            u = self.bracket(f, u)
        g = g + delta
        t = self.bracket(f, g) - self.alg.one()
    return g


def _classical_odd_self_normalize(self, th):
    """Scale an odd element with {th, th} = 1 + (higher) to {th, th} = 1.

    The defect t commutes with th (a consequence of the graded Jacobi
    identity), so multiplying by (1+t)^(-1/2) works in one step.
    """
    th = th.truncate(self.cap)
    t = self.bracket(th, th) - self.alg.one()
    if t.constant_term():
        raise DarbouxError("odd direction is not unit-paired at the point")
    if t.is_zero():
        return th
    out = inv_sqrt_series(self, t) * th
    if not clean_mod(self.bracket(out, out) - self.alg.one(), self.order):
        raise DarbouxError("odd self-normalization failed")
    return out


def _quantum_even_correct(self, f, g):
    """Correct g so the star commutator [f, g] is exactly hbar^2.

    The defect is removed hbar-level by hbar-level; each level reduces to a
    classical equation {f0, X} = -r solved by the telescoping primitive
    X = -sum (-1)^k/(k+1)! g0^(k+1) ad_f0^k(r).
    """
    cap, alg = self.cap, self.alg
    f = f.truncate(cap)
    g = g.truncate(cap)
    f0 = f.hbar_levels().get(0, alg.zero(cap))
    g0 = g.hbar_levels().get(0, alg.zero(cap))
    r = self.bracket(f, g) - self.unit
    prev = None
    while not clean_mod(r, self.order):
        levels = r.hbar_levels()
        s = min(lv for lv, comp in levels.items() if not comp.is_zero())
        if s < 2:
            raise DarbouxError("commutator defect below hbar^2")
        rs = levels[s]
        key = (s, rs.eff_deg())
        if prev is not None and key <= prev:
            raise DarbouxError(
                f"even correction stalled at hbar^{s}, residual order {key[1]}")
        prev = key
        x = alg.zero(cap)
        u = rs
        gp = alg.one(cap)
        coef = Fraction(-1)
        for k in range(cap + 1):
            gp = gp * g0
            if gp.is_zero():
                break
            x = x + gp * u * coef
            u = self.P.bracket(f0, u, order=cap)
            coef *= Fraction(-1, k + 2)
        g = g + x.mul_hbar(s - 2).truncate(cap)
        r = self.bracket(f, g) - self.unit
    return g


def _quantum_odd_self_normalize(self, th):
    """Scale an odd element so that [th, th] = 2 th*th is exactly hbar^2.

    Each pass replaces th by th - th*rho/2, where rho is the defect
    divided by hbar^2.
    """
    th = th.truncate(self.cap)
    prev = -1
    while True:
        r = self.bracket(th, th) - self.unit
        if clean_mod(r, self.order):
            return th
        d = r.eff_deg()
        if d <= prev:
            raise DarbouxError(
                f"odd self-normalization stalled at residual order {d}")
        prev = d
        th = th - self.mul(th, self.div(r)) * Fraction(1, 2)


def _same_terms(a, b):
    """Equal term for term (the cap a series carries is not compared)."""
    return a.terms == b.terms


@pytest.mark.parametrize("alt", (False, True))
@pytest.mark.parametrize("name", ALGEBRAS)
def test_engine_normalizations_match_backend_references(name, alt, monkeypatch):
    calls = []

    def recording(fn):
        def run(B, *vs):
            out = fn(B, *vs)
            calls.append((fn, B, vs, out))
            return out
        return run

    monkeypatch.setattr(darboux, "even_correct", recording(even_correct))
    monkeypatch.setattr(darboux, "odd_self_normalize",
                        recording(odd_self_normalize))
    ctx = slice_setup(load_algebra(name), alt=alt)
    for order in range(7):
        _charts(ctx, order)
    # gl11 has no triple, so no shift directions and no chart entries
    assert {fn.__name__ for fn, *_ in calls} == {
        "sl2": {"even_correct"},
        "gl11": set(),
        "osp12": {"even_correct", "odd_self_normalize"},
        "sl21": {"even_correct"},
    }[name]
    for fn, B, vs, out in calls:
        where = (B.kind, B.order, fn.__name__)
        if fn is even_correct:
            ref = (_quantum_even_correct if B.kind == "quantum"
                   else _classical_even_correct)
            assert _same_terms(out, ref(B, *vs)), where
            continue
        # the chart's self entries arrive normalized; scaling by the central
        # 1 + hbar^2 makes both normalizations do work
        scaled = vs[0] + vs[0].mul_hbar(2)
        for th, got in ((vs[0], out), (scaled, odd_self_normalize(B, scaled))):
            assert _same_terms(got, _quantum_odd_self_normalize(B, th)), where
            if B.kind == "classical":
                one_shot = _classical_odd_self_normalize(B, th)
                assert (got - one_shot).truncate(B.order).is_zero(), where


# -- the factored even projector against the double sum -----------------
#
# Before ``even_project`` ran one pass as two one-variable Taylor sums, the
# pass was the double sum below, kept as the reference with the pass cap
# the package once had; the package now stops by its stall rule alone.

PROJECT_PASSES = 10


def _double_sum_even_project(B, f, g, a):
    """Part of ``a`` commuting with an even chart pair.

    One pass applies sum (-1)^j/(i!j!) f^i g^j D_g^i D_f^j, where D_x is the
    bracket with x divided by the unit; with exact flat relations this is a
    projector, so a few passes push the residual brackets beyond the
    certification order.
    """
    cap, order = B.cap, B.order
    a = a.truncate(cap)
    prev = -1
    for attempt in range(PROJECT_PASSES):
        rf, rg = B.bracket(f, a), B.bracket(g, a)
        if clean_mod(rf, order) and clean_mod(rg, order):
            return a
        if attempt == PROJECT_PASSES - 1:
            break
        d = min(x for x in (rf.eff_deg(), rg.eff_deg()) if x is not None)
        if d <= prev:
            raise DarbouxError(f"even projection stalled at residual order {d}")
        prev = d
        out = B.alg.zero(cap)
        u = a
        gj = B.alg.one(cap)
        for j in range(cap + 1):
            if j:
                gj = B.mul(gj, g)
                if gj.is_zero():
                    break
                u = B.div(B.bracket(f, u))
            v = u
            fi_gj = gj
            for i in range(cap + 1 - j):
                if i:
                    fi_gj = B.mul(f, fi_gj)
                    if fi_gj.is_zero():
                        break
                    v = B.div(B.bracket(g, v))
                c = Fraction((-1) ** j, factorial(i) * factorial(j))
                out = out + B.mul(fi_gj, v) * c
        a = out
    raise DarbouxError(f"even projection did not converge in {PROJECT_PASSES} passes")


def _random_polynomial(rng, alg, nterms, max_deg=3):
    """Monomials of degree <= max_deg in the variables, each times up to
    hbar^2 when the universe has hbar, with small rational coefficients;
    a drawn term of the other parity than the sum so far is dropped, so the
    star commutator takes the result."""
    names = [v.name for v in alg.variables if not v.hbar]
    out = alg.zero()
    for _ in range(nterms):
        t = alg.one() * Fraction(rng.choice((-1, 1)) * rng.randrange(1, 9),
                                 rng.choice((1, 2, 3)))
        for _ in range(rng.randrange(max_deg + 1)):
            t = t * alg.gen(rng.choice(names))
        if alg.hbar_id is not None:
            t = t.mul_hbar(rng.randrange(3))
        if out.is_zero() or t.parity() in (None, out.parity()):
            out = out + t
    return out


def _assert_projections_match(B, f, g, rng, count):
    """Project ``count`` random polynomials both ways; return how many the
    projection changed through the certified order."""
    moved = 0
    for _ in range(count):
        a = _random_polynomial(rng, B.alg, rng.randrange(2, 6))
        got = even_project(B, f, g, a)
        want = _double_sum_even_project(B, f, g, a)
        assert (got - want).truncate(B.order).is_zero(), (B.kind, B.order)
        moved += not (got - a).truncate(B.order).is_zero()
    return moved


@pytest.mark.parametrize("alt", (False, True))
@pytest.mark.parametrize("name", ALGEBRAS)
def test_even_project_matches_double_sum(name, alt):
    ctx = slice_setup(load_algebra(name), alt=alt)
    rng = random.Random("even-project:%s:%s" % (name, alt))
    moved = {"classical": 0, "quantum": 0}
    for order in (2, 3, 4):
        for chart in _charts(ctx, order):
            for e in chart.entries:
                if e.kind == "even":
                    moved[chart.backend.kind] += _assert_projections_match(
                        chart.backend, e.a, e.b, rng, 4)
    # gl11 has no triple, so no chart entries; elsewhere both backends must
    # have run projection passes for the comparison to mean anything
    assert all(moved.values()) == (name != "gl11"), moved



# -- projection residuals at the certified order ---------------------------
#
# The projections test their residual brackets with ``clean_mod(., order)``
# only, so they compute them at the certified order rather than at the cap.
# That is exact: a bracket at an explicit order is the polynomial bracket
# read through that order, whatever cap its inputs carry.


@pytest.mark.parametrize("name", ALGEBRAS)
def test_brackets_at_the_order_truncate_the_capped_ones(name):
    ctx = slice_setup(load_algebra(name))
    rng = random.Random("residual-order:%s" % name)
    nonzero = 0
    for order in (2, 5):
        for chart in _charts(ctx, order):
            B = chart.backend
            vs = chart.chart_vars()
            others = list(chart.center_gens) + [
                _random_polynomial(rng, B.alg, 4).truncate(B.cap) for _ in range(3)]
            for x in vs:
                for c in vs + others:
                    got = B.bracket(x, c, B.order)
                    assert got == B.bracket(x, c).truncate(B.order), (
                        B.kind, order)
                    nonzero += not got.is_zero()
    # every algebra but gl11 has chart variables, so the comparison saw values
    assert bool(nonzero) == (name != "gl11")


def _twisted_odd(hbar=False):
    """An odd pair flat at the point, with curved self and cross brackets."""
    alg = odd_pair_algebra(hbar)
    x = alg.gen("x")
    t = BracketTable(alg, {(0, 1): alg.one() + x, (0, 0): x, (1, 1): x * x})
    return alg, PoissonAlgebra(alg, t)


def test_odd_pair_projection_through_a_curved_pair_fails():
    alg, P = _twisted_odd()
    B = PoissonBackend(P, 3, 4)
    t1, t2 = alg.gen("t1"), alg.gen("t2")
    # x brackets to zero with both, so it passes; t1 does not
    assert darboux.odd_pair_project(B, t1, t2, alg.gen("x"))[0] == alg.gen("x")
    with pytest.raises(DarbouxError, match="odd pair projection residual too large"):
        darboux.odd_pair_project(B, t1, t2, t1)


def test_odd_self_projection_through_a_curved_self_fails():
    alg = Algebra([
        Variable(0, "th", ODD, weight=1),
        Variable(1, "x", EVEN, weight=2),
    ])
    P = PoissonAlgebra(alg, BracketTable(alg, {(0, 0): alg.one() + alg.gen("x")}))
    B = PoissonBackend(P, 3, 4)
    th = alg.gen("th")
    assert odd_self_project(B, th, alg.gen("x"))[0] == alg.gen("x")
    with pytest.raises(DarbouxError, match="odd projection residual too large"):
        odd_self_project(B, th, th)

# -- the precision budget of the Taylor sums ------------------------------
#
# ``_taylor`` computes D_y^k a only through the order that x^k leaves below
# the cap.  The report digests cannot see a budget that is too short (its
# error lands above the certified order), so the charts are compared, series
# by series, with the ones built by the Taylor sum that keeps every bracket
# at the cap.


def _full_cap_taylor(B, x, y, a, sign):
    """sum_k sign^k/k! x^k D_y^k a with every bracket at the cap."""
    out = u = a
    xk = B.alg.one(B.cap)
    for k in range(1, B.cap + 1):
        u = B.div(B.bracket(y, u)) * Fraction(sign, k)
        if u.is_zero():
            break
        xk = B.mul(xk, x)
        if xk.is_zero():
            break
        out = out + B.mul(xk, u)
    return out


def _chart_series(ctx, order, guard):
    """(den, nums) of every chart variable and center generator of both
    charts."""
    cc = ctx.classical_chart(order, guard)
    qc = quantum_darboux(ctx.star, cc)
    return [(s.den, s.nums) for c in (cc, qc) for s in c.chart_vars() + c.center_gens]


@pytest.mark.parametrize("alt", (False, True))
@pytest.mark.parametrize("name", ALGEBRAS)
def test_taylor_budget_keeps_every_chart_series(name, alt, monkeypatch):
    ctx = slice_setup(load_algebra(name), alt=alt)
    for guard in (2, 3, 4):
        for order in range(1, 7):
            got = _chart_series(ctx, order, guard)
            with monkeypatch.context() as m:
                m.setattr(darboux, "_taylor", _full_cap_taylor)
                want = _chart_series(ctx, order, guard)
            assert got == want, (order, guard)


TAYLOR_CASES = {
    # {x, y} = 1 + x: the table drop is 2, so D_y lowers orders by 1
    "curved": (curved_pair, False),
    # curved self and cross brackets of an odd pair, both brackets
    "twisted": (_twisted_odd, False),
    "twisted-hbar": (_twisted_odd, True),
}


@pytest.mark.parametrize("case", sorted(TAYLOR_CASES))
def test_taylor_budget_matches_the_full_cap_sum(case):
    make, hbar = TAYLOR_CASES[case]
    alg, P = make(hbar) if hbar else make()
    u, v = (alg.gen(alg.variables[i].name) for i in (0, 1))
    rng = random.Random("taylor-budget:%s" % case)
    # the last pair has a constant in y, so its bound on the loss of D_y
    # exceeds eff(x) and every bracket stays at the cap; that y is even, so
    # the star commutator takes it for the odd pair too
    pairs = ((u, v), (v, u), (u + u * v, v), (u, u * v + alg.one()))
    for order in (1, 3, 5):
        for guard in (2, 4):
            B = (StarBackend(StarAlgebra(alg, P.table), P, order, guard) if hbar
                 else PoissonBackend(P, order, guard))
            for x, y in pairs:
                x, y = x.truncate(B.cap), y.truncate(B.cap)
                for _ in range(3):
                    a = _random_polynomial(rng, alg, rng.randrange(2, 6))
                    a = a.truncate(B.cap)
                    for sign in (-1, 1):
                        got = darboux._taylor(B, x, y, a, sign)
                        want = _full_cap_taylor(B, x, y, a, sign)
                        assert (got.den, got.nums) == (want.den, want.nums), (
                            order, guard, sign)


def test_even_project_matches_double_sum_curved_pair():
    alg, P = curved_pair()
    rng = random.Random("even-project:curved")
    for order in (2, 3, 5):
        B = PoissonBackend(P, order, 4)
        f = alg.gen("x").truncate(B.cap)
        g = even_correct(B, f, alg.gen("y").truncate(B.cap))
        assert _assert_projections_match(B, f, g, rng, 6)


# -- the odd-pair flattening against its earlier body ---------------------
#
# ``odd_pair_flatten`` once recomputed {g, g} after changing only f; that
# body is kept as the reference, with the pass cap the package once had and
# the package's Newton rescale.

FLATTEN_PASSES = 30


def _recomputing_odd_pair_flatten(B, f, g, passes=FLATTEN_PASSES):
    cap, order = B.cap, B.order
    f = f.truncate(cap)
    g = g.truncate(cap)
    prev = -1
    for _ in range(passes):
        aa = B.bracket(f, f)
        bb = B.bracket(g, g)
        q = B.bracket(f, g) - B.unit
        if q.constant_term():
            raise DarbouxError("odd pair is not normalized at the point")
        degs = [x for x in (aa.eff_deg(), bb.eff_deg(), q.eff_deg()) if x is not None]
        if not degs or min(degs) > order:
            return f, g
        d = min(degs)
        if d <= prev:
            raise DarbouxError(f"odd pair normalization stalled at residual order {d}")
        prev = d
        if not clean_mod(aa, order):
            f = f - B.mul(g, B.div(aa)) * Fraction(1, 2)
        bb = B.bracket(g, g)
        if not clean_mod(bb, order):
            g = g - B.mul(f, B.div(bb)) * Fraction(1, 2)
        q = B.bracket(f, g) - B.unit
        if not clean_mod(q, order):
            r = B.div(q)
            f = f - B.mul(f, r) * Fraction(1, 2)
            g = g - B.mul(g, r) * Fraction(1, 2)
    raise DarbouxError(f"odd pair normalization did not converge in {passes} passes")


@pytest.mark.parametrize("order", (4, 6))
def test_odd_pair_flatten_matches_recomputing_reference(order):
    alg, P = _twisted_odd()
    B = PoissonBackend(P, order, 4)
    f, g = alg.gen("t1"), alg.gen("t2")
    got = odd_pair_flatten(B, f, g)
    assert all(map(_same_terms, got, _recomputing_odd_pair_flatten(B, f, g)))
    # the pair takes more than two passes, so the reused {g, g} comes from
    # an f and g that earlier passes changed
    with pytest.raises(DarbouxError, match="did not converge in 2 passes"):
        _recomputing_odd_pair_flatten(B, f, g, passes=2)


ODD_PAIRS = {"twisted": _twisted_odd, "curved": curved_odd}


@pytest.mark.parametrize("guard", (2, 4))
@pytest.mark.parametrize("pair", sorted(ODD_PAIRS))
@pytest.mark.parametrize("kind", ("classical", "quantum"))
def test_odd_pair_flatten_exact_through_the_order(kind, pair, guard):
    # {t1,t2} = 1 + x, so from order 2 on the Newton rescale has work; the
    # twisted pair's curved self brackets give the corrections work too.  The
    # quantum backend runs the same loop with the star product, the star
    # commutator and the unit hbar^2.
    alg, P = ODD_PAIRS[pair](hbar=kind == "quantum")
    S = StarAlgebra(alg, P.table) if kind == "quantum" else None
    for order in range(1, 11):
        B = (PoissonBackend(P, order, guard) if S is None
             else StarBackend(S, P, order, guard))
        f, g = odd_pair_flatten(B, alg.gen("t1"), alg.gen("t2"))
        for got, want in ((B.bracket(f, f, order), alg.zero()),
                          (B.bracket(g, g, order), alg.zero()),
                          (B.bracket(f, g, order), B.unit)):
            assert clean_mod(got - want, order), order


# -- one certificate per chart ---------------------------------------------


@pytest.mark.parametrize("name", ALGEBRAS)
def test_chart_keeps_the_certificate_it_was_built_with(name):
    ctx = slice_setup(load_algebra(name))
    for order in (2, 5):
        for chart in _charts(ctx, order):
            assert chart.report == certify(chart), (chart.backend.kind, order)
            assert chart.report["ok"]



def test_star_division_labels_the_order_it_is_exact_through():
    # a star commutator through the cap is hbar^2 times a bracket exact only
    # through cap - 2, and the quotient's order label says so
    qc = slice_setup(load_algebra("sl21")).quantum_chart(4)
    B = qc.backend
    assert qc.cap == 8
    y = next(e for e in qc.entries if e.kind == "odd").a
    a = qc.center_gens[0]
    exact = B.div(B.S.commutator(y, a, order=10))
    q = B.div(B.bracket(y, a))
    assert q.order == 6
    assert q == exact.truncate(6)
    # the exact quotient has terms between cap - 2 and the cap
    assert exact.truncate(8) != exact.truncate(6)


# -- the odd-pair projection's last product -------------------------------
#
# ``odd_pair_project`` takes b00 = a - f b10 - g b01 - f(g b11).  Its
# earlier body formed (fg) b11; both backends' products are exact through
# the cap and lower no order, so the two agree on every chart series.


def _product_first_odd_pair_project(B, f, g, a):
    """``odd_pair_project`` with the earlier (fg) b11 product."""
    a = a.truncate(B.cap)
    adf = B.div(B.bracket(f, a))
    b11 = -B.div(B.bracket(g, adf))
    b01 = adf + B.mul(f, b11)
    b10 = B.div(B.bracket(g, a)) - B.mul(g, b11)
    b00 = a - B.mul(f, b10) - B.mul(g, b01) - B.mul(B.mul(f, g), b11)
    for x, b in ((f, b00), (g, b00), (f, b11), (g, b11)):
        if not clean_mod(B.bracket(x, b, B.order), B.order):
            raise DarbouxError("odd pair projection residual too large")
    return b00, b10, b01, b11


@pytest.mark.parametrize("name", ("sl2", "osp12", "sl21"))
def test_odd_pair_projection_keeps_every_chart_series(name, monkeypatch):
    ctx = slice_setup(load_algebra(name))
    calls = []

    def reference(*args):
        calls.append(args[0].kind)
        return _product_first_odd_pair_project(*args)

    for order in range(2, 7):
        got = _chart_series(ctx, order, DEFAULT_GUARD)
        with monkeypatch.context() as m:
            m.setattr(darboux, "odd_pair_project", reference)
            want = _chart_series(ctx, order, DEFAULT_GUARD)
        assert got == want, order
    # of the three, only sl21's charts have an odd pair
    assert set(calls) == ({"classical", "quantum"} if name == "sl21" else set())


def test_odd_pair_projection_matches_product_first_on_random_series():
    ctx = slice_setup(load_algebra("sl21"))
    rng = random.Random("odd-pair-project")
    nonzero = 0
    for order in (2, 4, 6):
        cc = ctx.classical_chart(order)
        for chart in (cc, quantum_darboux(ctx.star, cc)):
            B = chart.backend
            (f, g), = [e.variables() for e in chart.entries if e.kind == "odd"]
            for _ in range(4):
                a = _random_polynomial(rng, ctx.alg, rng.randrange(2, 8))
                got = darboux.odd_pair_project(B, f, g, a)
                want = _product_first_odd_pair_project(B, f, g, a)
                assert [(b.den, b.nums) for b in got] == [(b.den, b.nums) for b in want]
                nonzero += not got[3].is_zero()
    assert nonzero  # some b11 is not 0, so the last product is not trivially 0
