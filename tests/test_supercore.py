"""Core arithmetic: canonical monomials, Koszul signs, truncation, hbar."""

import inspect
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from superw import supercore
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
        vs.append(Variable(9, "hb", EVEN, weight=1, hbar=True))
    return Algebra(vs)


def eff_component(s, d):
    """The terms of s of completion order d, as a Series of the same order:
    the per-level slice that reference expansions compare against."""
    eff = s.alg.mono_eff
    return Series.over(s.alg, {m: v for m, v in s.nums.items() if eff(m) == d}, s.den, s.order)


def rand_series(rng, alg, nterms=4, maxexp=3, order=None, parity=None):
    """Random polynomial built from generator products (canonical by construction)."""
    out = alg.zero(order)
    for _ in range(nterms):
        t = alg.one(order) * Fraction(rng.randrange(-8, 9), rng.randrange(1, 5))
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
    assert sq == alg.gen("x") * alg.gen("x") + alg.gen("x") * th * 2


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
        assert a * b == (b * a) * sign


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
    assert s.set_hbar(1) == x * 2 + y
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
    assert eff_component(s, 1) == x
    assert eff_component(s, 2) == x * y
    assert eff_component(s, 3) == y.mul_hbar(2)


def test_monomial_rendering():
    alg = make_algebra()
    assert str(alg.one()) != ""
    assert alg.mono_str(alg.monomial({})) == "1"
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
    assert x * 2 == x + x
    assert x * Fraction(1, 2) + x * Fraction(1, 2) == x
    assert (x - x).is_zero()
    with pytest.raises(TypeError):
        hash(x)


def test_scalars_multiply_on_the_right_only():
    alg = make_algebra()
    s = alg.gen("x") + alg.gen("y")
    with pytest.raises(TypeError):
        s + 1
    with pytest.raises(TypeError):
        s - Fraction(1, 2)
    with pytest.raises(TypeError):
        2 * s
    with pytest.raises(TypeError):
        s ** 2
    # a comparison with a scalar raises too, rather than read False
    with pytest.raises(TypeError, match="cannot combine Series"):
        s == 0
    with pytest.raises(TypeError, match="cannot combine Series"):
        s != Fraction(1, 2)
    assert (s == None) is False  # noqa: E711 -- any other type is unequal
    half = s * Fraction(1, 2)
    assert half + half == s and half.den == 2


# -- integer numerators over one denominator ------------------------------


def _ref_series(rng, alg, nterms):
    """A random ``{mono: Fraction}`` mixing parities and hbar powers, as
    ``suite._random_series`` builds them, and its order."""
    ids = [v.ident for v in alg.variables]
    out = {}
    for _ in range(nterms):
        exps = {}
        for _ in range(rng.randrange(0, 4)):
            i = rng.choice(ids)
            if alg.by_id[i].parity == ODD and exps.get(i):
                continue
            exps[i] = exps.get(i, 0) + 1
        m = alg.monomial(exps)
        out[m] = out.get(m, 0) + Fraction(rng.randrange(-6, 7), rng.randrange(1, 7))
    return out, rng.choice((None, 1, 2, 3, 4))


def _ref_eff(alg, m):
    return sum(e for _, e in alg.mono_key(m))


def _ref_cut(alg, terms, order):
    """The nonzero terms, within ``order`` when it is not None."""
    return {m: c for m, c in terms.items()
            if c and (order is None or _ref_eff(alg, m) <= order)}


def _ref_join(a, b):
    return b if a is None else a if b is None else min(a, b)


def _ref_hbar(alg, m):
    """(the monomial without hbar, its hbar exponent)."""
    exps = dict(alg.mono_key(m))
    k = exps.pop(alg.hbar_id, 0)
    return alg.monomial(exps), k


def _assert_lowest(s, want, order):
    """s holds exactly ``want`` at ``order``, as integer numerators over one
    positive denominator in lowest terms."""
    assert type(s.den) is int and s.den > 0
    assert all(type(v) is int and v for v in s.nums.values())
    assert gcd(s.den, *s.nums.values()) == 1
    assert s.order == order
    assert dict(s.terms) == want
    assert all(type(c) is Fraction for c in s.terms.values())
    for m, c in want.items():
        assert s.coeff(m) == c


def test_integer_form_matches_fraction_reference():
    alg = make_algebra(with_hbar=True)
    hb = alg.hbar_id
    rng = random.Random(41)
    for _ in range(150):
        ta, oa = _ref_series(rng, alg, rng.randrange(0, 7))
        tb, ob = _ref_series(rng, alg, rng.randrange(0, 7))
        ta, tb = _ref_cut(alg, ta, oa), _ref_cut(alg, tb, ob)
        a, b = Series(alg, ta).truncate(oa), Series(alg, tb).truncate(ob)
        _assert_lowest(a, ta, oa)
        oj = _ref_join(oa, ob)

        plus = {m: ta.get(m, 0) + tb.get(m, 0) for m in set(ta) | set(tb)}
        minus = {m: ta.get(m, 0) - tb.get(m, 0) for m in set(ta) | set(tb)}
        _assert_lowest(a + b, _ref_cut(alg, plus, oj), oj)
        _assert_lowest(a - b, _ref_cut(alg, minus, oj), oj)
        _assert_lowest(-a, {m: -c for m, c in ta.items()}, oa)
        for c in (0, 1, -2, 3, Fraction(1, 2), Fraction(-4, 9), rng.randrange(1, 30)):
            _assert_lowest(a * c, _ref_cut(alg, {m: c * v for m, v in ta.items()}, None), oa)

        prod = {}
        for ma, ca in ta.items():
            for mb, cb in tb.items():
                r = alg.mono_mul(ma, mb)
                if r is not None:
                    prod[r[0]] = prod.get(r[0], 0) + r[1] * ca * cb
        _assert_lowest(a * b, _ref_cut(alg, prod, oj), oj)

        n = rng.randrange(0, 5)
        on = n if oa is None else min(n, oa)
        _assert_lowest(a.truncate(n), _ref_cut(alg, ta, on), on)
        _assert_lowest(a.truncate(None), ta, None)
        d = rng.randrange(0, 5)
        _assert_lowest(eff_component(a, d),
                       {m: c for m, c in ta.items() if _ref_eff(alg, m) == d}, oa)

        k = rng.randrange(1, 3)
        up = {alg.monomial({**dict(alg.mono_key(m)), hb: _ref_hbar(alg, m)[1] + k}): c
              for m, c in ta.items()}
        _assert_lowest(a.mul_hbar(k), _ref_cut(alg, up, oa), oa)
        divisible = {m: c for m, c in ta.items() if _ref_hbar(alg, m)[1] >= k}
        down = {alg.monomial({**dict(alg.mono_key(m)), hb: _ref_hbar(alg, m)[1] - k}): c
                for m, c in divisible.items()}
        _assert_lowest(Series(alg, divisible).truncate(oa).divide_hbar(k), down, oa)

        levels = {}
        for m, c in ta.items():
            rest, s = _ref_hbar(alg, m)
            levels.setdefault(s, {})[rest] = c
        got = a.hbar_levels()
        assert sorted(got) == sorted(levels)
        for s, want in levels.items():
            _assert_lowest(got[s], want, oa)
        for value in (0, 1):
            sub = {}
            for m, c in ta.items():
                rest, s = _ref_hbar(alg, m)
                if value or not s:
                    sub[rest] = sub.get(rest, 0) + c
            _assert_lowest(a.set_hbar(value), _ref_cut(alg, sub, None), None)


def test_no_fraction_in_the_integer_arithmetic():
    for fn in (supercore.pair_sum, Series.__add__, Series.__sub__, Series.__mul__,
               Series._plus, supercore._normal, supercore._lowest):
        assert "Fraction(" not in inspect.getsource(fn), fn.__name__
    src = Path(supercore.__file__).parent
    for path in sorted(src.glob("*.py")):
        assert "series_over" not in path.read_text(encoding="utf-8"), path.name
