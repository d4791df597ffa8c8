"""Star products, quantum charts, and the filtered/graded machinery."""

import random
from fractions import Fraction

import pytest

from superw.algebras import load_algebra
from superw.cli import _random_series
from superw.darboux import equivariant_darboux
from superw.starprod import (
    filtration_dims,
    quantum_darboux,
    rees_inverse,
    rees_map,
)
from superw.supercore import EVEN, ODD, Series
from superw.wslice import slice_setup

ALGEBRAS = ("sl2", "gl11", "osp12", "sl21")


def get_ctx(name):
    return slice_setup(load_algebra(name))


def enveloping_product(ctx, a, b):
    """a * b in U(g): the hbar^2 star product of exact inputs is a
    polynomial in hbar, and its value at hbar = 1 is the product in U(g)."""
    assert a.order is None and b.order is None, "U(g) products take exact input"
    return ctx.star.star(a, b).set_hbar(1)


def rand_series(rng, alg, nterms=3, parity=None, order=None):
    out = alg.zero(order)
    for _ in range(nterms * 3):
        t = alg.const(Fraction(rng.randrange(-5, 6), rng.randrange(1, 3)), order)
        for v in alg.variables:
            if v.hbar:
                continue
            for _ in range(rng.randrange(0, 3 if v.parity == EVEN else 2)):
                t = t * alg.gen(v.name, order)
        if t.is_zero():
            continue
        if parity is not None and t.parity() != parity:
            continue
        out = out + t
        if len(out.terms) >= nterms:
            break
    return out


def test_generator_associativity_catalog():
    # (x*y)*z == x*(y*z) exactly on every triple of generators
    for name in ALGEBRAS:
        S = get_ctx(name).star
        gens = [S.alg.gen(v.name) for v in S.alg.variables if not v.hbar]
        for x in gens:
            for y in gens:
                for z in gens:
                    assert S.star(S.star(x, y), z) == S.star(x, S.star(y, z))


def test_associativity_random():
    # star rewriting never lowers the completion order, so capped triple
    # products agree exactly through the cap
    rng = random.Random(101)
    cap = 7
    for name in ALGEBRAS:
        S = get_ctx(name).star
        for _ in range(6):
            a = rand_series(rng, S.alg)
            b = rand_series(rng, S.alg)
            c = rand_series(rng, S.alg)
            lhs = S.star(S.star(a, b, order=cap), c, order=cap)
            rhs = S.star(a, S.star(b, c, order=cap), order=cap)
            assert lhs == rhs


def test_commutator_is_hbar2_times_bracket_to_leading_order():
    rng = random.Random(55)
    for name in ALGEBRAS:
        ctx = get_ctx(name)
        S, P = ctx.star, ctx.poisson
        for _ in range(10):
            a = rand_series(rng, S.alg, parity=rng.choice((EVEN, ODD)))
            b = rand_series(rng, S.alg, parity=rng.choice((EVEN, ODD)))
            if a.is_zero() or b.is_zero():
                continue
            comm = S.commutator(a, b)
            semi = comm.divide_hbar(2).set_hbar(0)
            assert semi == P.bracket(a, b)


def test_dop_matches_bracket_for_linear_elements():
    ctx = get_ctx("sl2")
    S, P, alg = ctx.star, ctx.poisson, ctx.alg
    gens = [alg.gen(v.name) for v in alg.variables if not v.hbar]
    for x in gens:
        for y in gens:
            # for generators the star commutator has no higher corrections
            assert S.commutator(x, y).divide_hbar(2) == P.bracket(x, y)


def test_quantum_chart_catalog():
    for name in ALGEBRAS:
        ctx = get_ctx(name)
        cc = equivariant_darboux(ctx.poisson, 3, seeds=ctx.m_gens())
        qc = quantum_darboux(ctx.star, ctx.poisson, 3, seeds=ctx.m_gens(),
                             classical=cc)
        rep = qc.verify()
        assert rep["ok"], (name, rep["failures"])
        assert rep["weight_homogeneous"]


def test_quantum_chart_specializes_to_classical():
    for name in ("sl2", "osp12"):
        ctx = get_ctx(name)
        order = 4
        cc = equivariant_darboux(ctx.poisson, order, seeds=ctx.m_gens())
        qc = quantum_darboux(ctx.star, ctx.poisson, order, seeds=ctx.m_gens(),
                             classical=cc)
        pairs = list(zip(cc.chart_vars(), qc.chart_vars()))
        pairs += list(zip(cc.center_gens, qc.center_gens))
        assert pairs
        for c, q in pairs:
            assert (q.set_hbar(0) - c).truncate(order).is_zero()
            # corrections never touch the constant or bare-linear part
            d = q - c.truncate(q.order)
            for m in d.terms:
                exps = ctx.alg.mono_key(m)
                adeg = sum(e for i, e in exps if not ctx.alg.by_id[i].hbar)
                hdeg = sum(e for i, e in exps if ctx.alg.by_id[i].hbar)
                assert adeg + hdeg >= 2
                assert not (adeg == 1 and hdeg == 0)


def test_flat_commutation_relations():
    # the flattened pair of sl2 satisfies [f,g] = hbar^2 through the order
    ctx = get_ctx("sl2")
    qc = quantum_darboux(ctx.star, ctx.poisson, 4, seeds=ctx.m_gens())
    S = ctx.star
    (entry,) = [e for e in qc.entries if e.kind == "even"]
    f = Series(S.alg, entry.a.terms, None)
    g = Series(S.alg, entry.b.terms, None)
    h2 = S.alg.one().mul_hbar(2)
    assert (S.commutator(f, g, order=4) - h2).truncate(4).is_zero()
    for c in qc.center_gens:
        ce = Series(S.alg, c.terms, None)
        assert S.commutator(f, ce, order=4).truncate(4).is_zero()
        assert S.commutator(g, ce, order=4).truncate(4).is_zero()


def test_rees_roundtrip_random():
    rng = random.Random(31)
    ctx = get_ctx("sl21")
    for _ in range(20):
        a = rand_series(rng, ctx.alg, nterms=4)
        k = rng.randrange(0, 3)
        a = a.mul_hbar(k)
        assert rees_inverse(rees_map(a)) == a
    with pytest.raises(ValueError):
        rees_inverse(ctx.alg.gen("e"))


def test_rees_multiplicative_for_plain_product_only():
    ctx = get_ctx("sl2")
    S, alg = ctx.star, ctx.alg
    rng = random.Random(3)
    for _ in range(10):
        a = rand_series(rng, alg, nterms=2)
        b = rand_series(rng, alg, nterms=2)
        assert rees_map(a * b) == rees_map(a) * rees_map(b)
    # against the star product the tags shift on the correction terms;
    # take a reversed-order pair so the normal ordering produces one
    names = [v.name for v in alg.variables if not v.hbar]
    x = alg.gen(names[1])
    y = alg.gen(names[0])
    assert not (S.star(x, y) - x * y).is_zero()
    assert rees_map(S.star(x, y)) != S.star(rees_map(x), rees_map(y))


def test_filtration_dims_brute_force():
    rng = random.Random(13)
    for _ in range(20):
        evens = [rng.randrange(1, 4) for _ in range(rng.randrange(0, 3))]
        odds = [rng.randrange(1, 4) for _ in range(rng.randrange(0, 3))]
        n = rng.randrange(0, 7)
        got = filtration_dims(evens, odds, n)
        # brute force: count exponent vectors with bounded weight
        counts = [0] * (n + 1)

        def rec(i, w):
            if w > n:
                return
            if i == len(evens) + len(odds):
                counts[w] += 1
                return
            if i < len(evens):
                e = 0
                while w + e * evens[i] <= n:
                    rec(i + 1, w + e * evens[i])
                    e += 1
            else:
                rec(i + 1, w)
                rec(i + 1, w + odds[i - len(evens)])

        rec(0, 0)
        want = []
        tot = 0
        for k in range(n + 1):
            tot += counts[k]
            want.append(tot)
        assert got == want
    with pytest.raises(ValueError):
        filtration_dims([0], [], 3)


def test_star_and_commutator_at_an_order_truncate_the_exact_result():
    # an explicit order skips only monomial pairs whose star product lies
    # entirely above it, so nothing at or below the order may change
    rng = random.Random(29)
    for name in ALGEBRAS:
        S = get_ctx(name).star
        odd = any(v.parity == ODD for v in S.alg.variables)
        parities = (None, EVEN, ODD) if odd else (None, EVEN)
        for _ in range(4):
            a, b = (_random_series(rng, S.alg, 6, 4, 5,
                                   parity=rng.choice(parities),
                                   with_hbar=True) for _ in range(2))
            star, comm = S.star(a, b, order=None), S.commutator(a, b, order=None)
            for n in range(7):
                got = S.star(a, b, order=n)
                assert got == star.truncate(n) and got.order == n, (name, n)
                assert S.commutator(a, b, order=n) == comm.truncate(n), (name, n)
