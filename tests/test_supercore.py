"""Core arithmetic: canonical monomials, Koszul signs, truncation, hbar."""

import random
from fractions import Fraction

import pytest

from superw.darboux import PoissonBackend, inv_sqrt_series
from superw.poisson import BracketTable, PoissonAlgebra
from superw.supercore import EVEN, ODD, Algebra, Series, Variable


def make_algebra(with_hbar=False):
    vs = [
        Variable(0, "x", EVEN, weight=2),
        Variable(1, "y", EVEN, weight=1),
        Variable(2, "th", ODD, weight=1),
        Variable(3, "xi", ODD, weight=3),
        Variable(4, "ps", ODD, weight=2),
    ]
    if with_hbar:
        vs.append(Variable(9, "hb", EVEN, weight=1, adic=False, hbar=True))
    return Algebra(vs)


def rand_series(rng, alg, nterms=4, maxexp=3, order=None, parity=None):
    """Random polynomial built from generator products (canonical by construction)."""
    out = alg.zero(order)
    for _ in range(nterms):
        t = alg.const(Fraction(rng.randrange(-8, 9), rng.randrange(1, 5)), order)
        for v in alg.variables:
            if v.hbar:
                continue
            e = rng.randrange(0, maxexp + 1 if v.parity == EVEN else 2)
            for _ in range(e):
                t = t * alg.gen(v.name, order)
        if parity is not None and not t.is_zero() and t.parity() != parity:
            continue
        out = out + t
    return out


def test_odd_square_vanishes():
    alg = make_algebra()
    th = alg.gen("th")
    assert (th * th).is_zero()
    s = alg.gen("x") + th
    # (x + th)^2 = x^2 + 2*x*th
    sq = s * s
    assert sq == alg.gen("x") ** 2 + 2 * alg.gen("x") * th


def test_koszul_sign():
    alg = make_algebra()
    th, xi = alg.gen("th"), alg.gen("xi")
    assert th * xi == -(xi * th)
    # even elements commute with everything
    x = alg.gen("x")
    assert x * th == th * x
    # sign is absorbed into canonical storage: (th*xi)*(ps) picks up
    # a consistent sign regardless of multiplication order
    ps = alg.gen("ps")
    assert (th * xi) * ps == th * (xi * ps)


def test_supercommutativity_random():
    alg = make_algebra()
    rng = random.Random(11)
    for _ in range(60):
        a = rand_series(rng, alg, parity=rng.choice((EVEN, ODD)))
        b = rand_series(rng, alg, parity=rng.choice((EVEN, ODD)))
        if a.is_zero() or b.is_zero():
            continue
        sign = -1 if (a.parity() == ODD and b.parity() == ODD) else 1
        assert a * b == sign * (b * a)


def test_ring_axioms_random():
    alg = make_algebra()
    rng = random.Random(23)
    for _ in range(40):
        a = rand_series(rng, alg)
        b = rand_series(rng, alg)
        c = rand_series(rng, alg)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + alg.zero() == a
        assert a * alg.one() == a
        assert (a - a).is_zero()


def test_pow_matches_repeated_product():
    alg = make_algebra()
    rng = random.Random(5)
    for _ in range(20):
        a = rand_series(rng, alg, nterms=3, maxexp=2)
        p = alg.one()
        for k in range(5):
            assert a ** k == p
            p = p * a


def test_parity_and_weight_bookkeeping():
    alg = make_algebra()
    x, y, th, xi = (alg.gen(n) for n in ("x", "y", "th", "xi"))
    assert x.parity() == EVEN and th.parity() == ODD
    assert (x + th).parity() == "mixed"
    assert alg.zero().parity() is None
    assert (x * th).parity() == ODD
    assert (th * xi).parity() == EVEN
    assert (x * y).weights() == [3]
    assert (x * x * th).weights() == [5]
    s = x + y * y  # both weight 2
    assert s.is_weight_homogeneous()
    comps = (x + th * xi).weight_components()
    assert sorted(comps) == [2, 4]
    assert comps[2] == x and comps[4] == th * xi


def test_weight_multiplicativity_random():
    alg = make_algebra()
    rng = random.Random(77)
    for _ in range(40):
        a = rand_series(rng, alg, nterms=2)
        b = rand_series(rng, alg, nterms=2)
        ab = a * b
        if ab.is_zero():
            continue
        wa, wb = set(a.weights()), set(b.weights())
        assert set(ab.weights()) <= {u + v for u in wa for v in wb}


def test_truncation_drops_high_order_terms():
    alg = make_algebra()
    x, y = alg.gen("x"), alg.gen("y")
    s = x + x * y + x * y * y * y
    t = s.truncate(2)
    assert t.order == 2
    assert t == x + x * y
    # truncating twice tightens to the minimum
    assert s.truncate(3).truncate(2).order == 2
    # exactness restored terms are NOT recovered
    assert t.truncate(None).terms == t.terms


def test_truncation_is_natural_random():
    alg = make_algebra()
    rng = random.Random(31)
    for _ in range(40):
        a = rand_series(rng, alg)
        b = rand_series(rng, alg)
        n = rng.randrange(0, 6)
        lhs = (a * b).truncate(n)
        rhs = (a.truncate(n) * b.truncate(n)).truncate(n)
        assert lhs == rhs
        assert (a + b).truncate(n) == a.truncate(n) + b.truncate(n)


def test_order_propagation():
    alg = make_algebra()
    x = alg.gen("x")
    a = x.truncate(3)
    b = x.truncate(5)
    assert (a + b).order == 3
    assert (a * b).order == 3
    assert (-a).order == 3
    exact = alg.gen("y")
    assert (a + exact).order == 3


def test_eff_counts_hbar():
    alg = make_algebra(with_hbar=True)
    x = alg.gen("x")
    h2 = alg.gen("hb") * alg.gen("hb")
    assert x.eff_deg() == 1
    assert h2.eff_deg() == 2
    assert (x * h2).eff_deg() == 3
    # a cap at 2 kills x*hb^2 but keeps hb^2
    s = (x * h2 + h2).truncate(2)
    assert s == h2.truncate(2)


def test_hbar_shift_roundtrip():
    alg = make_algebra(with_hbar=True)
    rng = random.Random(3)
    for _ in range(25):
        a = rand_series(rng, alg)
        k = rng.randrange(0, 4)
        assert a.mul_hbar(k).divide_hbar(k) == a
    x = alg.gen("x")
    with pytest.raises(ValueError):
        x.divide_hbar(1)
    with pytest.raises(ValueError):
        (x.mul_hbar(2) + x).divide_hbar(1)


def test_hbar_specialization():
    alg = make_algebra(with_hbar=True)
    x, y = alg.gen("x"), alg.gen("y")
    s = x + y.mul_hbar(2) + x.mul_hbar(1)
    assert s.set_hbar(0) == x
    assert s.set_hbar(1) == 2 * x + y
    levels = s.hbar_levels()
    assert sorted(levels) == [0, 1, 2]
    assert levels[0] == x and levels[1] == x and levels[2] == y
    with pytest.raises(ValueError):
        s.set_hbar(2)
    noh = make_algebra().gen("x")
    with pytest.raises(ValueError):
        noh.set_hbar(0)


def test_eff_component_and_filters():
    alg = make_algebra(with_hbar=True)
    x, y = alg.gen("x"), alg.gen("y")
    s = x + x * y + y.mul_hbar(2)
    assert s.eff_component(1) == x
    assert s.eff_component(2) == x * y
    assert s.eff_component(3) == y.mul_hbar(2)
    assert s.drop_below_eff(2) == x * y + y.mul_hbar(2)
    assert s.adic_filter(1) == x + y.mul_hbar(2)


def series_backend(alg, cap):
    """The classical chart-engine backend at ``cap``; the (1+t)^(-1/2)
    series only uses its product."""
    return PoissonBackend(PoissonAlgebra(alg, BracketTable(alg, {})), cap, 0)


def test_inv_sqrt_series_oracle():
    alg = make_algebra()
    y = alg.gen("y")
    # (1+y)^(-1/2) = 1 - y/2 + 3y^2/8 - 5y^3/16 + 35y^4/128 - ...
    s = inv_sqrt_series(series_backend(alg, 4), y)
    m = lambda k: tuple([(1, k)]) if k else ()
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


def test_monomial_rendering():
    alg = make_algebra()
    assert str(alg.one()) != ""
    assert alg.mono_str(()) == "1"
    x, y, th = alg.gen("x"), alg.gen("y"), alg.gen("th")
    mono = next(iter((x * y * y * th).terms))
    assert alg.mono_str(mono) == "x*y^2*th"


def test_universe_safety():
    a1 = make_algebra()
    a2 = make_algebra()
    with pytest.raises(ValueError):
        a1.gen("x") + a2.gen("x")
    with pytest.raises(ValueError):
        Algebra([Variable(0, "a"), Variable(0, "b")])
    with pytest.raises(ValueError):
        Algebra([Variable(0, "a"), Variable(1, "a")])
    with pytest.raises(ValueError):
        Algebra([Variable(0, "h1", hbar=True), Variable(1, "h2", hbar=True)])


def test_scalar_coercion_and_equality():
    alg = make_algebra()
    x = alg.gen("x")
    assert x * 2 == 2 * x
    assert x * Fraction(1, 2) + x * Fraction(1, 2) == x
    assert alg.const(3) == 3
    assert (x - x) == 0
    with pytest.raises(TypeError):
        hash(x)
