"""End-to-end checks for both W-algebra routes over the bundled algebras.

The dimension tables, generator signatures and product coefficients frozen
below were computed once by enumerating normal monomials weight by weight
and solving the invariance conditions in exact rational arithmetic; the
tests require byte-exact agreement.
"""
import dataclasses
import itertools
import json
import random
from bisect import insort
from fractions import Fraction
from functools import lru_cache

import pytest

from superw import wslice
from superw.algebras import load_algebra
from superw.linalg import Echelon, nullspace, rref, solve
from superw.starprod import filtration_dims, quantum_darboux
from superw.supercore import EVEN, ODD, Series
from superw.wslice import (
    _monomials,
    _word_basis,
    clifford_factorization,
    compare_realizations,
    extract_even_subalgebra,
    m_degree,
    pbw_words,
    reduce_mod_chi,
    reduce_mod_mk,
    slice_setup,
    slice_walgebra,
    splitting_check,
    whittaker_walgebra,
    word_table,
)
from test_linalg import _assert_tagged_matches_fraction_elimination, _recording_tagged
from test_supermatrix import E12_TRIPLE, gl_json

# name -> (order, dims, generator (weight, parity) signature)
FROZEN = {
    "sl2": (8, [1, 1, 1, 1, 2, 2, 2, 2, 3], [(4, EVEN)]),
    "gl11": (4, [1, 1, 5, 5, 13], [(2, EVEN), (2, EVEN), (2, ODD), (2, ODD)]),
    "osp12": (6, [1, 2, 2, 3, 5, 6, 6], [(1, ODD), (3, ODD), (4, EVEN)]),
    "sl21": (6, [1, 1, 2, 4, 6, 8, 11],
             [(2, EVEN), (3, ODD), (3, ODD), (4, EVEN)]),
}


def _ctx(name, alt=False):
    # normalize the arguments so every caller shares one cached universe
    return _ctx_cached(name, bool(alt))


@lru_cache(maxsize=None)
def _ctx_cached(name, alt):
    return slice_setup(load_algebra(name), alt=alt)


@lru_cache(maxsize=None)
def _whittaker(name, order, alt=False):
    return whittaker_walgebra(_ctx(name, alt), order)


@lru_cache(maxsize=None)
def _slice(name, order, alt=False):
    return slice_walgebra(_ctx(name, alt), order)


def _sig(gens):
    return [(w, p) for w, p, _ in gens]


def test_whittaker_tables_match_frozen_oracles():
    for name, (order, dims, sig) in FROZEN.items():
        wh = _whittaker(name, order)
        assert wh.dims == dims, name
        assert wh.expected_dims == dims, name
        assert _sig(wh.gens) == sig, name
        assert wh.counts_ok and wh.dims_ok and wh.ok, name
        assert wh.missing == [], name


def test_whittaker_counts_agree_with_filtration_count():
    # the expected tables are exactly the graded sizes of a free
    # supercommutative algebra on the frozen generator signatures
    for name, (order, dims, sig) in FROZEN.items():
        even = sorted(w for w, p in sig if p == EVEN)
        odd = sorted(w for w, p in sig if p == ODD)
        assert filtration_dims(even, odd, order) == dims, name


def test_whittaker_generators_invariant_under_shift_directions():
    # the defining condition, checked directly: multiplying by any shift
    # generator and passing to the quotient must give zero exactly
    for name in FROZEN:
        ctx = _ctx(name)
        wh = _whittaker(name, min(FROZEN[name][0], 4))
        for w, p, s in wh.gens:
            assert s.order is None
            assert s.parity() == p
            for m in ctx.m_gens():
                assert reduce_mod_chi(ctx, ctx.ustar.star(m, s)).is_zero()


def test_slice_tables_match_frozen_oracles():
    for name, (order, dims, sig) in FROZEN.items():
        sl = _slice(name, order)
        assert sl.dims == dims, name
        assert _sig(sl.gens) == sig, name
        assert sl.invariance_ok and sl.products_ok and sl.ok, name
        assert sl.chart_report["ok"], name


def test_sl2_generator_series_both_routes():
    alg = _ctx("sl2").alg
    e, h = alg.gen("e"), alg.gen("h")
    want = e - h * Fraction(1, 2) + h * h * Fraction(1, 4)
    for res in (_whittaker("sl2", 8), _slice("sl2", 8)):
        w, p, s = res.gens[0]
        assert (w, p) == (4, EVEN)
        assert s == want


def test_sl2_product_table_is_plain_square():
    sl = _slice("sl2", 8)
    assert sl.products == {(0, 0): [(((0, 2),), Fraction(1))]}


def test_osp12_product_table_closes_on_generators():
    # Theta * Theta = 1/2 is the rank-one Clifford relation; the odd
    # weight-three generator squares to -1/8 minus the even generator
    sl = _slice("osp12", 6)
    assert sl.products == {
        (0, 0): [((), Fraction(1, 2))],
        (0, 1): [(((0, 1), (1, 1)), Fraction(1))],
        (0, 2): [(((0, 1), (2, 1)), Fraction(1))],
        (1, 1): [((), Fraction(-1, 8)), (((2, 1),), Fraction(-1))],
    }


def test_slice_low_order_reports_only_certified_generators():
    # the chart only pins corrections through the run order, so heavier
    # generators are withheld rather than reported with missing tails
    sl = _slice("sl2", 2)
    assert sl.dims == [1, 1, 1]
    assert sl.gens == [] and sl.products == {}
    assert sl.ok

    sl = _slice("osp12", 2)
    assert sl.dims == [1, 2, 2]
    assert _sig(sl.gens) == [(1, ODD)]
    assert sl.products == {(0, 0): [((), Fraction(1, 2))]}
    assert sl.ok


def test_compare_realizations_all_bundled():
    for name, (order, dims, sig) in FROZEN.items():
        cm = compare_realizations(
            _ctx(name), order,
            slice_result=_slice(name, order),
            whittaker_result=_whittaker(name, order),
        )
        assert cm.dims_equal and cm.counts_equal, name
        assert cm.invariance_ok and cm.span_ok and cm.blocks_ok, name
        assert cm.ok, name


def _perturbed(sl, idx, extra):
    """The slice result with ``extra`` added to generator ``idx``."""
    gens = list(sl.gens)
    w, p, s = gens[idx]
    gens[idx] = (w, p, s + extra)
    return dataclasses.replace(sl, gens=gens)


def test_compare_detects_noninvariant_perturbation():
    ctx = _ctx("sl2")
    h = ctx.alg.gen("h")
    cm = compare_realizations(ctx, 8, slice_result=_perturbed(_slice("sl2", 8), 0, h * h),
                              whittaker_result=_whittaker("sl2", 8))
    assert not cm.invariance_ok
    assert not cm.span_ok
    assert not cm.ok


def test_compare_tolerates_constant_shift():
    # adding a constant produces another valid generator of the same
    # weight, so the cross-check accepts it -- by design
    ctx = _ctx("sl2")
    cm = compare_realizations(ctx, 8,
                              slice_result=_perturbed(_slice("sl2", 8), 0, ctx.alg.one()),
                              whittaker_result=_whittaker("sl2", 8))
    assert cm.ok


def test_splitting_certificates():
    sp = splitting_check(_ctx("sl2"), 4, k=2)
    assert sp.ok and sp.checked == 16
    assert sp.coeff_failures == [] and sp.recon_failures == []

    sp = splitting_check(_ctx("osp12"), 4, k=2)
    assert sp.ok and sp.checked == 30
    assert sp.coeff_failures == [] and sp.recon_failures == []


def test_clifford_factorization_osp12():
    cf = clifford_factorization(_ctx("osp12"), 4)
    assert cf.signature == [[1, 1], [3, 1], [4, 0]]
    assert cf.dims == [1, 2, 2, 3, 5]
    assert cf.clifford_count == 1
    assert cf.sig_ok and cf.rank_ok and cf.even_vars_ok
    assert cf.standalone_match and cf.sub_compare_ok and cf.closure_ok
    assert cf.factor_sig_ok and cf.linear_span_ok and cf.ok


def test_clifford_factorization_sl21():
    cf = clifford_factorization(_ctx("sl21"), 4)
    assert cf.signature == [[1, 1], [1, 1], [2, 0], [3, 1], [3, 1], [4, 0]]
    assert cf.dims == [1, 3, 5, 9, 16]
    assert cf.clifford_count == 2
    assert cf.sig_ok and cf.rank_ok and cf.closure_ok and cf.ok


@pytest.mark.parametrize("order", (1, 2, 3, 4, 5))
def test_clifford_closure_stops_at_the_certified_order(order):
    # a product above the order, or a term past it, is beyond what the chart
    # certifies; expanding those made osp12's closure fail at orders 1 to 3
    cf = clifford_factorization(_ctx("osp12"), order)
    assert cf.closure_ok and cf.ok


def test_clifford_closure_catches_a_non_closing_generator(monkeypatch):
    seen = []
    closure_ok = wslice._closure_ok
    monkeypatch.setattr(wslice, "_closure_ok",
                        lambda *args: seen.append(args) or closure_ok(*args))
    ctx, order = _ctx("osp12"), 4
    assert clifford_factorization(ctx, order).closure_ok
    gen_words, weights, parities, _ = seen[0]
    n = len(weights)
    gens = [gen_words(tuple(int(k == i) for k in range(n))) for i in range(n)]
    cap = gens[0].order
    star = lambda a, b: ctx.star.star(a, b, order=cap)  # noqa: E731

    def closes(gens):
        table = word_table(gens, star, ctx.alg.one(cap))
        return closure_ok(table, [wslice._gen_weight(g) for g in gens],
                          [g.parity() for g in gens], order)

    assert closes(gens)
    # xm is odd of weight 1 and not central: xm * xm = hbar^2 (1/2 + f), and
    # f * hbar^2, of weight 2 <= order, is no combination of the words
    xm = ctx.alg.gen("xm", cap)
    assert not star(xm, xm).truncate(order).is_zero()
    assert not closes(gens + [xm])


def test_clifford_compares_even_part_at_the_requested_order(monkeypatch):
    orders = []

    def spy(ctx, n_max, *args, **kwargs):
        orders.append(n_max)
        return compare_realizations(ctx, n_max, *args, **kwargs)

    monkeypatch.setattr(wslice, "compare_realizations", spy)
    cf = clifford_factorization(_ctx("osp12"), 5)
    assert orders == [5]
    assert cf.sub_compare_ok and cf.ok


@pytest.mark.parametrize("name", ["osp12", "sl21"])
def test_clifford_builds_the_even_part_chart_once(monkeypatch, name):
    # the full chart, the even-flattened chart and the even part's own chart,
    # which both the standalone match and the route comparison read
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2])
        return quantum_darboux(*args, **kwargs)

    monkeypatch.setattr(wslice, "quantum_darboux", counting)
    assert clifford_factorization(_ctx(name), 5).ok
    assert calls == [5, 5, 5]


def test_even_subalgebra_extraction():
    sub = extract_even_subalgebra(load_algebra("sl21"))
    assert sub.names == ("e", "h", "z", "f")
    assert sub.parities == (EVEN,) * 4
    assert sub.has_triple()

    sub = extract_even_subalgebra(load_algebra("osp12"))
    assert sub.names == ("e", "h", "f")
    assert sub.has_triple()


def test_reduction_helpers():
    ctx = _ctx("sl2")
    alg = ctx.alg
    e, h, f = alg.gen("e"), alg.gen("h"), alg.gen("f")

    assert reduce_mod_chi(ctx, f).is_zero()
    assert reduce_mod_chi(ctx, e * f).is_zero()
    assert reduce_mod_chi(ctx, h) == h
    assert reduce_mod_chi(ctx, e + h * f) == e

    s = e + f + f * f
    degs = sorted(m_degree(ctx, m) for m in s.terms)
    assert degs == [0, 1, 2]
    assert reduce_mod_mk(ctx, s, 2) == e + f
    assert reduce_mod_mk(ctx, s, 1) == e


def test_alternate_lagrangian_same_tables():
    for name in ("osp12", "sl21"):
        a = _whittaker(name, 4)
        b = _whittaker(name, 4, alt=True)
        assert a.dims == b.dims, name
        assert a.new_counts == b.new_counts, name
    sa = _slice("osp12", 4)
    sb = _slice("osp12", 4, alt=True)
    assert sa.dims == sb.dims
    assert _sig(sa.gens) == _sig(sb.gens)


def _brute_words(weights, parities, wlimit, amax=None):
    top = max(wlimit, amax or 0)
    out = []
    for exps in itertools.product(range(top + 1), repeat=len(weights)):
        if sum(e * w for e, w in zip(exps, weights)) > wlimit:
            continue
        if any(e > 1 for e, p in zip(exps, parities) if p == ODD):
            continue
        if amax is not None and sum(exps) > amax:
            continue
        if amax is None and any(e for e, w in zip(exps, weights) if w == 0):
            continue
        out.append(exps)
    return out


def test_pbw_words_match_brute_force():
    cases = (
        ((1, 2, 3, 1), (EVEN, ODD, EVEN, ODD), 6, None),  # mixed parities
        ((0, 2, 1), (EVEN, EVEN, ODD), 5, None),  # weight 0 without amax
        ((0, 2, 1), (EVEN, EVEN, ODD), 5, 3),  # weight 0 bounded by amax
        ((1, 1, 2, 1), (EVEN, EVEN, EVEN, ODD), 6, 2),  # amax cuts words short
        ((0, 1), (ODD, EVEN), 3, 3),
        ((2, 3), (EVEN, EVEN), 0, None),
    )
    for weights, parities, wlimit, amax in cases:
        got = pbw_words(weights, parities, wlimit, amax)
        assert got == _brute_words(weights, parities, wlimit, amax), (weights, amax)
        assert got == sorted(set(got))
    assert pbw_words((0, 1), (EVEN, EVEN), 2) == [(0, 0), (0, 1), (0, 2)]
    assert pbw_words((1,), (EVEN,), -1) == []


def test_word_table_matches_naive_products_once_each():
    ctx = _ctx("sl21")
    qc = quantum_darboux(ctx.star, ctx.poisson, 4, seeds=ctx.m_gens())
    factors = [v for e in qc.entries if e.kind in ("even", "odd")
               for v in (e.a, e.b)]
    factors += list(qc.center_gens) + [e.a for e in qc.entries if e.kind == "self"]
    weights = [s.weights()[0] for s in factors]
    parities = [s.parity() for s in factors]
    words = pbw_words(weights, parities, 4, amax=4)
    assert 0 in weights and len(words) == 73

    calls = []

    def mul(a, b):
        calls.append((a, b))
        return ctx.star.star(a, b, order=qc.cap)

    grown = factors[:3]
    value = word_table(grown, mul, ctx.alg.one(qc.cap))
    short = [e[:3] for e in words if not any(e[3:])]
    for e in short:
        value(e)
    grown.extend(factors[3:])  # earlier words stay valid as the list grows
    for e in words + words:
        naive = ctx.alg.one(qc.cap)
        for f, x in zip(factors, e):
            for _ in range(x):
                naive = ctx.star.star(naive, f, order=qc.cap)
        assert (value(e) - naive).is_zero(), e
    # one product per nonempty word, however often and in whatever order asked
    assert len(calls) == len(words) - 1


# -- oracles for the incremental echelon ------------------------------------


def _rows_over(series, monos):
    return [[s.coeff(m) for m in monos] for s in series]


def _reference_whittaker(ctx, n_max):
    """The per-weight solve the incremental one replaces: a fresh nullspace
    per weight and parity, and a fresh rref of the generator products at
    every weight.  Returns (invariant_bases, dims, gens)."""
    alg = ctx.alg
    cands = _monomials(alg, ctx.complement_ids, n_max)
    mg = ctx.m_gens()

    def qmul(a, b):
        return reduce_mod_chi(ctx, ctx.ustar.star(a, b))

    images = {m: [qmul(g, alg.series({m: Fraction(1)})) for g in mg] for m in cands}
    bases, dims = {}, []
    for n in range(n_max + 1):
        bases[n] = {}
        for p in (EVEN, ODD):
            sub = [m for m in cands
                   if alg.mono_weight(m) <= n and alg.mono_parity(m) == p]
            imonos = sorted({mm for m in sub for im in images[m] for mm in im.terms},
                            key=alg.mono_key)
            rows = [[images[m][g].coeff(mm) for m in sub]
                    for g in range(len(mg)) for mm in imonos]
            null = nullspace(rows or [[Fraction(0)] * len(sub)], len(sub)) if sub else []
            bases[n][p] = (sub, null)
        dims.append(sum(len(bases[n][p][1]) for p in (EVEN, ODD)))

    gens = []
    for w in range(n_max + 1):
        prods = []
        for e in pbw_words([g[0] for g in gens], [g[1] for g in gens], w):
            s = alg.one()  # the word multiplied out in full, reduced once
            for (_, _, g), x in zip(gens, e):
                for _ in range(x):
                    s = ctx.ustar.star(s, g)
            prods.append(reduce_mod_chi(ctx, s))
        monos = sorted({m for s in prods for m in s.terms}
                       | {m for m in cands if alg.mono_weight(m) <= w}, key=alg.mono_key)
        red, piv = rref(_rows_over(prods, monos)) if prods else ([], [])
        basis = [dict(enumerate(red[k])) for k in range(len(piv))]
        for p in (EVEN, ODD):
            sub, null = bases[w][p]
            for vec in null:
                s = alg.series(dict(zip(sub, vec)))
                rem = [s.coeff(m) for m in monos]
                for row, q in sorted(zip(basis, piv), key=lambda t: t[1]):
                    if rem[q]:
                        c = rem[q]
                        rem = [a - c * row[k] for k, a in enumerate(rem)]
                if any(rem):
                    lead = next(k for k, c in enumerate(rem) if c)
                    row = {k: c / rem[lead] for k, c in enumerate(rem)}
                    gens.append((w, p, alg.series({monos[k]: c for k, c in row.items()})))
                    basis.append(row)
                    piv.append(lead)
    return bases, dims, gens


@pytest.mark.parametrize("name,order,alt", [
    ("sl2", 8, False), ("osp12", 6, False), ("sl21", 6, False),
    ("osp12", 6, True), ("sl21", 6, True),
])
def test_whittaker_matches_per_weight_reference(name, order, alt):
    wh = _whittaker(name, order, alt)
    bases, dims, gens = _reference_whittaker(_ctx(name, alt), order)
    for n in range(order + 1):
        for p in (EVEN, ODD):
            sub, null = bases[n][p]
            got = [[s.coeff(m) for m in sub]
                   for w, q, s in wh.invariants if w <= n and q == p]
            assert got == null, (n, p)
    assert wh.dims == dims == FROZEN[name][1][: order + 1]
    assert wh.gens == gens


def _slice_words(name, order):
    """The slice generators' weights, parities and PBW word values."""
    ctx = _ctx(name)
    gens = _slice(name, order).gens
    value = word_table([s for _, _, s in gens],
                       lambda a, b: reduce_mod_chi(ctx, ctx.ustar.star(a, b)),
                       ctx.alg.one())
    return [w for w, _, _ in gens], [p for _, p, _ in gens], value


@pytest.mark.parametrize("name,order", [("sl2", 8), ("osp12", 6), ("sl21", 6)])
def test_filtered_ranks_match_per_weight_rref(name, order):
    weights, parities, value = _slice_words(name, order)
    want = []
    for n in range(order + 1):
        vals = [value(e) for e in pbw_words(weights, parities, n)]
        want.append(len(rref(_rows_over(vals, sorted({m for v in vals for m in v.terms})))[1]))
    words, _, ranks = _word_basis(value, weights, parities, order)
    assert ranks == want == FROZEN[name][1][: order + 1]
    assert sorted(words) == pbw_words(weights, parities, order)


def test_slice_products_match_a_dense_solve_per_weight():
    # every product over the one word basis equals the dense solve over the
    # words of the product's weight, zeros left out, rows in word order
    order = 10
    weights, parities, value = _slice_words("sl21", order)
    products = _slice("sl21", order).products
    pairs = [(i, j) for i in range(len(weights)) for j in range(i, len(weights))
             if weights[i] + weights[j] <= order]
    assert sorted(products) == pairs
    for i, j in pairs:
        words = pbw_words(weights, parities, weights[i] + weights[j])
        vals = [value(e) for e in words]
        target = value(tuple((k == i) + (k == j) for k in range(len(weights))))
        monos = sorted({m for v in vals + [target] for m in v.terms})
        sol = solve([[v.coeff(m) for v in vals] for m in monos],
                    [target.coeff(m) for m in monos])
        assert products[(i, j)] == [(tuple((k, x) for k, x in enumerate(e) if x), c)
                                    for e, c in zip(words, sol) if c]


def test_a_product_only_in_the_span_of_heavier_words_fails(monkeypatch):
    # an odd generator's square is no PBW word; made equal to a word heavier
    # than the square, it lies in the word span but outside its filtration
    # piece, so the products check fails on it and on it alone
    order = 8
    base = _slice("sl21", order)
    weights = [w for w, _, _ in base.gens]
    parities = [p for _, p, _ in base.gens]
    i = parities.index(ODD)
    square = tuple(2 * (k == i) for k in range(len(weights)))
    heavy = pbw_words(weights, parities, order)[-1]
    assert sum(x * w for x, w in zip(heavy, weights)) > 2 * weights[i]
    assert (i, i) in base.products and base.products_ok

    def heavier_square(factors, mul, unit):
        value = word_table(factors, mul, unit)
        return lambda e: value(heavy if tuple(e) == square else e)

    monkeypatch.setattr(wslice, "word_table", heavier_square)
    got = slice_walgebra(_ctx("sl21"), order, qc=base.qc)
    assert not got.products_ok and not got.ok
    assert got.products == {k: v for k, v in base.products.items() if k != (i, i)}


def test_span_remainders_ignore_insertion_order_and_match_rref():
    ctx = _ctx("sl21")
    alg = ctx.alg
    rng = random.Random(11)
    monos = _monomials(alg, ctx.complement_ids, 4)[:10]

    def rand():
        return alg.series({m: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                           for m in rng.sample(monos, 4)})

    vecs = [rand() for _ in range(6)]
    vecs += [vecs[0] + vecs[1] * 2, vecs[2] - vecs[3] * Fraction(1, 3)]
    probes = [rand() for _ in range(6)] + [vecs[4] - vecs[5], alg.zero()]
    cols = sorted(monos)
    red, piv = rref(_rows_over(vecs, cols))
    for probe in probes:
        rem = [probe.coeff(m) for m in cols]
        for k, q in enumerate(piv):
            c = rem[q]
            rem = [a - c * b for a, b in zip(rem, red[k])]
        want = {cols[k]: c for k, c in enumerate(rem) if c}
        if want:
            lead = want[min(want)]
            want = {m: c / lead for m, c in want.items()}
        for _ in range(5):
            rng.shuffle(vecs)
            span = Echelon(v.terms for v in vecs)
            assert len(span) == len(piv) == 6
            assert sorted(span.rows) == span.pivots == [cols[q] for q in piv]
            assert span.add(probe.terms) == want
    assert not Echelon(v.terms for v in vecs).add((vecs[4] - vecs[5]).terms)


class _ReferenceSpan:
    """A growing echelon basis of series, rows keyed by monomial.

    Each row is a dict monomial -> Fraction whose smallest monomial, its
    pivot, has coefficient 1.  A series is reduced against the rows in pivot
    order; the remainder has no pivot in its support, so it depends only on
    the span and the monomial order, not on the order the rows came in.
    """

    def __init__(self, series=()):
        self.rows = {}  # pivot -> row
        self.pivots = []  # sorted
        for s in series:
            self.add(s)

    def __len__(self):
        return len(self.pivots)

    def add(self, s):
        """Reduce s; keep a nonzero remainder as a new row and return it
        (scaled to 1 on its pivot), or return {} when s lies in the span."""
        v = dict(s.terms)
        for p in self.pivots:
            c = v.get(p)
            if c:
                for m, x in self.rows[p].items():
                    y = v.get(m, 0) - c * x
                    if y:
                        v[m] = y
                    else:
                        del v[m]
        if v:
            p = min(v)
            inv = 1 / v[p]
            v = self.rows[p] = {m: x * inv for m, x in v.items()}
            insort(self.pivots, p)
        return v


class _MirroredEchelon(Echelon):
    """An Echelon that repeats every add on the Fraction reference span and
    checks that both give the same remainder and the same rank."""

    adds = 0

    def __init__(self, rows=()):
        self.reference = _ReferenceSpan()
        super().__init__(rows)

    def add(self, row):
        got = super().add(row)
        want = self.reference.add(Series(None, row))
        assert got == want
        assert len(self) == len(self.reference)
        assert sorted(self.rows) == self.reference.pivots
        _MirroredEchelon.adds += 1
        return got


@pytest.mark.parametrize("name,order", [
    ("sl2", 6), ("gl11", 6), ("osp12", 6), ("sl21", 6), ("gl21", 6),
])
def test_echelon_adds_match_the_fraction_span(monkeypatch, tmp_path, name, order):
    if name == "gl21":
        path = tmp_path / "gl21.json"
        path.write_text(json.dumps(gl_json(2, 1, E12_TRIPLE)), encoding="utf-8")
        name = str(path)
    # every rank, generator extraction and membership test of both routes,
    # and every kernel vector and product coefficient of their tagged
    # echelons: the two Whittaker kernels and the slice word basis
    tagged = []
    monkeypatch.setattr(wslice, "Echelon", _MirroredEchelon)
    monkeypatch.setattr(wslice, "TaggedEchelon", _recording_tagged(tagged))
    _MirroredEchelon.adds = 0
    cmp = compare_realizations(slice_setup(load_algebra(name)), order)
    assert cmp.ok
    assert _MirroredEchelon.adds >= 8
    assert len(tagged) == 3 and tagged[-1][0]
    for candidates, targets in tagged:
        _assert_tagged_matches_fraction_elimination(candidates, targets)
