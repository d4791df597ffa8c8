"""End-to-end checks for both W-algebra routes over the bundled algebras.

The dimension tables, generator signatures and product coefficients frozen
below were computed once by enumerating normal monomials weight by weight
and solving the invariance conditions in exact rational arithmetic; the
tests require byte-exact agreement.
"""
import contextlib
import copy
import inspect
import io
import itertools
import json
import random
from bisect import insort
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from superw import wslice
from superw.algebras import load_algebra
from superw.darboux import equivariant_darboux
from superw.linalg import Echelon, nullspace, rref, solve
from superw.cli import main
from superw.starprod import StarAlgebra, filtration_dims, quantum_darboux
from superw.supercore import EVEN, ODD, Series
from superw.wslice import (
    _monomials,
    _word_basis,
    clifford_factorization,
    compare_realizations,
    extract_even_subalgebra,
    pbw_words,
    reduce_mod_chi,
    slice_setup,
    slice_walgebra,
    splitting_check,
    whittaker_walgebra,
    word_table,
)
from test_linalg import _assert_tagged_matches_fraction_elimination, _recording_tagged
from test_starprod import enveloping_product
from test_supermatrix import E12_E34_TRIPLE, E12_TRIPLE, gl_json

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
                assert reduce_mod_chi(ctx, enveloping_product(ctx, m, s)).is_zero()


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


def _perturbed(ctx, sl, idx, extra):
    """The slice result with ``extra`` added to generator ``idx``, its
    invariance flag recomputed as ``slice_walgebra`` computes it."""
    gens = list(sl.gens)
    w, p, s = gens[idx]
    gens[idx] = (w, p, s + extra)
    invariant = wslice._m_invariant(ctx, [g for _, _, g in gens])
    return sl._replace(gens=gens, invariance_ok=invariant)


def test_compare_detects_noninvariant_perturbation():
    ctx = _ctx("sl2")
    h = ctx.alg.gen("h")
    cm = compare_realizations(ctx, 8, slice_result=_perturbed(ctx, _slice("sl2", 8), 0, h * h),
                              whittaker_result=_whittaker("sl2", 8))
    assert not cm.invariance_ok
    assert not cm.span_ok
    assert not cm.ok


def test_compare_tolerates_constant_shift():
    # adding a constant produces another valid generator of the same
    # weight, so the cross-check accepts it -- by design
    ctx = _ctx("sl2")
    cm = compare_realizations(ctx, 8,
                              slice_result=_perturbed(ctx, _slice("sl2", 8), 0, ctx.alg.one()),
                              whittaker_result=_whittaker("sl2", 8))
    assert cm.ok


def test_splitting_certificates():
    sp = splitting_check(_ctx("sl2"), 4, k=2)
    assert sp.ok and sp.checked == 16
    assert sp.coeff_failures == [] and sp.recon_failures == []

    sp = splitting_check(_ctx("osp12"), 4, k=2)
    assert sp.ok and sp.checked == 30
    assert sp.coeff_failures == [] and sp.recon_failures == []
    # no power below 1: U(g)·m_chi^0 is all of U(g)
    with pytest.raises(ValueError, match="at least 1"):
        splitting_check(_ctx("sl2"), 2, k=0)


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


def test_clifford_linear_span_check_compares_spans():
    # the full chart's flat odd pair of sl21 is (um, vp) to first order
    ctx, order = _ctx("sl21"), 4
    qc = ctx.quantum_chart(order)
    (pair,) = [e for e in qc.entries if e.kind == "odd"]

    def with_odd_pair(a, b):
        chart = copy.copy(qc)
        chart.entries = [e._replace(a=a, b=b) if e is pair else e
                         for e in qc.entries]
        return clifford_factorization(ctx, order, qc=chart)

    # another basis of the same span passes
    same = with_odd_pair(pair.a + pair.b, pair.b)
    assert same.linear_span_ok and same.ok
    # a pair that spans one direction keeps the signature but loses vp
    lost = with_odd_pair(pair.a, pair.a)
    assert lost.factor_sig_ok and not lost.linear_span_ok and not lost.ok


@pytest.mark.parametrize("name", ["osp12", "sl21"])
def test_clifford_builds_the_even_part_chart_once(monkeypatch, name):
    # the full chart, the even-flattened chart and the even part's own chart,
    # which both the standalone match and the route comparison read
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1].order)
        return quantum_darboux(*args, **kwargs)

    monkeypatch.setattr(wslice, "quantum_darboux", counting)
    assert clifford_factorization(_ctx(name), 5).ok
    assert calls == [5, 5, 5]


def test_quantum_chart_reads_order_and_guard_off_its_classical_chart():
    ctx = _ctx("sl21")
    cc = equivariant_darboux(ctx.poisson, 3, seeds=ctx.m_gens(), guard=2)
    qc = quantum_darboux(ctx.star, cc)
    assert (qc.order, qc.cap) == (3, 5)
    assert qc.report["ok"]
    assert list(inspect.signature(quantum_darboux).parameters) == ["S", "classical"]
    for fn in (slice_walgebra, compare_realizations, splitting_check,
               clifford_factorization):
        assert "guard" not in inspect.signature(fn).parameters, fn.__name__


@pytest.mark.parametrize("name", ["osp12", "sl21"])
def test_slice_route_builds_the_context_quantum_chart(name):
    ctx = _ctx(name)
    qc = ctx.quantum_chart(4)
    built = slice_walgebra(ctx, 4).qc
    assert (built.order, built.cap) == (qc.order, qc.cap)
    assert built.entries == qc.entries
    assert built.center_gens == qc.center_gens


def test_even_subalgebra_extraction():
    sub = extract_even_subalgebra(load_algebra("sl21"))
    assert sub.names == ("e", "h", "z", "f")
    assert sub.parities == (EVEN,) * 4
    assert sub.has_triple()

    sub = extract_even_subalgebra(load_algebra("osp12"))
    assert sub.names == ("e", "h", "f")
    assert sub.has_triple()


def _m_degree(ctx, mono):
    """The number of shift factors of a normal monomial."""
    return ctx.alg.mono_degree(mono, ctx.m_ids)


def _reduce_mod_mk(ctx, s, k):
    """s without its normal monomials of k or more shift factors: its class
    in U(g)/U(g)·m_chi^k, counted factor by factor, the oracle for
    ``QuotientModule`` with bound k and for ``Algebra.free_of``."""
    kept = {m: v for m, v in s.nums.items() if _m_degree(ctx, m) < k}
    return Series.over(ctx.alg, kept, s.den, s.order)


def test_reduction_helpers():
    ctx = _ctx("sl2")
    alg = ctx.alg
    e, h, f = alg.gen("e"), alg.gen("h"), alg.gen("f")

    assert reduce_mod_chi(ctx, f).is_zero()
    assert reduce_mod_chi(ctx, e * f).is_zero()
    assert reduce_mod_chi(ctx, h) == h
    assert reduce_mod_chi(ctx, e + h * f) == e

    s = e + f + f * f
    degs = sorted(_m_degree(ctx, m) for m in s.terms)
    assert degs == [0, 1, 2]
    assert _reduce_mod_mk(ctx, s, 2) == e + f
    assert _reduce_mod_mk(ctx, s, 1) == e
    for k, want in ((1, e), (2, e + f), (3, s)):
        assert Series.over(alg, alg.free_of(s.nums, ctx.m_ids, k), s.den) == want


def test_reduce_mod_chi_matches_the_shift_degree_count():
    # reduce_mod_chi tests each monomial against one mask of the shift
    # fields, and free_of with k > 1 sums those fields; _reduce_mod_mk
    # counts the shift factors of each monomial
    rng = random.Random(3)
    for name in ("sl2", "osp12", "sl21"):
        ctx = _ctx(name)
        alg = ctx.alg
        monos = _monomials(alg, [v.ident for v in alg.variables], 6, amax=3)
        shifted = [m for m in monos if _m_degree(ctx, m)]
        assert shifted and len(shifted) < len(monos)
        assert {_m_degree(ctx, m) for m in shifted} == {1, 2, 3}
        for _ in range(30):
            s = alg.series({m: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                            for m in rng.sample(monos, 6)}, order=rng.choice([None, 4]))
            got, want = reduce_mod_chi(ctx, s), _reduce_mod_mk(ctx, s, 1)
            assert got == want and got.order == want.order == s.order
            for k in (1, 2, 3, 4):
                kept = Series.over(alg, alg.free_of(s.nums, ctx.m_ids, k), s.den, s.order)
                assert kept == _reduce_mod_mk(ctx, s, k)


# -- the left action on Q_chi against the full product reduced once ----------


def _quotient_mul(ctx):
    """The exact enveloping product, reduced to the quotient: the oracle for
    ``QuotientModule.act`` and ``QuotientModule.mul``."""
    return lambda a, b: reduce_mod_chi(ctx, enveloping_product(ctx, a, b))


def _catalog_algebra(tmp_path, name, spec):
    """A bundled algebra, or gl(m|n) with a given triple for spec (m, n, triple)."""
    if spec is None:
        return load_algebra(name)
    path = tmp_path / (name + ".json")
    path.write_text(json.dumps(gl_json(*spec)), encoding="utf-8")
    return load_algebra(str(path))


@pytest.mark.parametrize("name,spec,order,pairs", [
    ("sl21", None, 12, 384), ("osp12", None, 12, 46), ("sl2", None, 20, 36),
    ("gl32", (3, 2, E12_TRIPLE), 6, 5240), ("gl22", (2, 2, E12_E34_TRIPLE), 6, 660),
])
def test_left_action_matches_the_reduced_product(tmp_path, name, spec, order, pairs):
    # every (shift generator, candidate) pair of the Whittaker rows: the
    # left-module recursion against the enveloping product reduced once
    ctx = slice_setup(_catalog_algebra(tmp_path, name, spec))
    alg = ctx.alg
    qmul = _quotient_mul(ctx)
    cands = _monomials(alg, ctx.complement_ids, order)
    seen = 0
    for g, gs in zip(sorted(ctx.m_ids), ctx.m_gens()):
        for m in cands:
            want = qmul(gs, Series.over(alg, {m: 1}))
            assert ctx.quotient.act(g, m) == (want.nums, want.den), alg.mono_str(m)
            seen += 1
    assert seen == pairs


@pytest.mark.parametrize("name", ["sl2", "osp12", "sl21"])
def test_m_invariant_matches_the_reduced_products(name):
    ctx = _ctx(name)
    alg = ctx.alg
    qmul = _quotient_mul(ctx)
    rng = random.Random(7)
    free = _monomials(alg, ctx.complement_ids, 6)
    every = _monomials(alg, [v.ident for v in alg.variables if not v.hbar], 4, amax=3)
    invariants = [s for _, _, s in _whittaker(name, 6).invariants]
    seen = set()
    for trial in range(40):
        # a combination of invariants, perturbed by a shift-free monomial
        # on every other trial
        s = alg.zero()
        for t in rng.sample(invariants, min(3, len(invariants))):
            s = s + t * Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        if trial % 2:
            s = s + alg.series({rng.choice(free): Fraction(rng.randint(1, 3))})
        want = all(qmul(gs, s).is_zero() for gs in ctx.m_gens())
        assert wslice._m_invariant(ctx, [s]) == want
        seen.add(want)
        # the image of any series, shift monomials included, is the image of
        # its class
        u = s + alg.series({m: Fraction(rng.randint(-3, 3)) for m in rng.sample(every, 4)})
        for gs in ctx.m_gens():
            assert ctx.quotient.mul(gs, u) == qmul(gs, u)
    assert seen == {True, False}


@pytest.mark.parametrize("name,spec,order,products", [
    ("sl2", None, 12, (3, 3)), ("osp12", None, 10, (8, 11)), ("sl21", None, 10, (27, 29)),
    ("gl32", (3, 2, E12_TRIPLE), 6, (335, 343)), ("gl22", (2, 2, E12_E34_TRIPLE), 6, (44, 46)),
])
def test_generator_words_match_the_reduced_product(monkeypatch, tmp_path, name, spec,
                                                   order, products):
    # every generator-word product of both routes, a generator times a
    # shorter word, against the enveloping product reduced once
    ctx = slice_setup(_catalog_algebra(tmp_path, name, spec))
    qmul = _quotient_mul(ctx)
    seen = []
    real = wslice.word_table

    def recording(factors, mul, unit):
        def checked(a, b):
            got = mul(a, b)
            assert got == qmul(a, b)
            seen.append((a, b))
            return got
        return real(factors, checked, unit)

    monkeypatch.setattr(wslice, "word_table", recording)
    assert whittaker_walgebra(ctx, order).ok
    whittaker = len(seen)
    assert slice_walgebra(ctx, order).ok
    assert (whittaker, len(seen) - whittaker) == products


@pytest.mark.parametrize("name,spec", [
    ("sl2", None), ("osp12", None), ("sl21", None), ("gl22", (2, 2, E12_E34_TRIPLE)),
])
def test_quotient_mul_matches_the_reduced_product_on_random_pairs(tmp_path, name, spec):
    # the left factor has shift variables, the right one shift monomials and
    # a constant: the left factor acts as written, the right one by its class
    ctx = slice_setup(_catalog_algebra(tmp_path, name, spec))
    alg = ctx.alg
    qmul = _quotient_mul(ctx)
    rng = random.Random(11)
    every = _monomials(alg, [v.ident for v in alg.variables if not v.hbar], 4, amax=3)[1:]
    shifted = [m for m in every if _m_degree(ctx, m)]

    def coeff():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))

    nonzero = 0
    for _ in range(25):
        s = alg.series({m: coeff() for m in rng.sample(every, 3) + rng.sample(shifted, 1)})
        t = alg.series({m: coeff() for m in rng.sample(every, 3) + rng.sample(shifted, 2)})
        t = t + alg.const(coeff())
        assert any(_m_degree(ctx, m) for m in s.nums) and t.constant_term()
        got = ctx.quotient.mul(s, t)
        assert got == qmul(s, t)
        nonzero += not got.is_zero()
    assert nonzero >= 5  # not only products that vanish in Q_chi


def _mod_m_squared(ctx):
    """A fresh Q_chi^(2) = U(g)/U(g)·m_chi^2 and its oracle: the exact
    enveloping product reduced once by the shift-factor count."""
    module = wslice.QuotientModule(ctx.alg, ctx.quotient.table, ctx.m_ids, 2)
    return module, lambda a, b: _reduce_mod_mk(ctx, enveloping_product(ctx, a, b), 2)


@pytest.mark.parametrize("name,spec,order,amax,pairs", [
    ("sl21", None, 8, 4, 1304), ("osp12", None, 8, 4, 215),
    ("gl22", (2, 2, E12_E34_TRIPLE), 4, 3, 3600),
])
def test_left_action_mod_m_squared_matches_the_reduced_product(tmp_path, name, spec, order,
                                                                amax, pairs):
    # every (variable, basis monomial) pair through the weight and degree
    # bounds: the basis of Q_chi^(2) keeps the monomials with one shift
    # factor, and an action that makes a second one gives 0
    ctx = slice_setup(_catalog_algebra(tmp_path, name, spec))
    alg = ctx.alg
    module, oracle = _mod_m_squared(ctx)
    ids = [v.ident for v in alg.variables if not v.hbar]
    basis = [m for m in _monomials(alg, ids, order, amax=amax) if _m_degree(ctx, m) < 2]
    assert any(_m_degree(ctx, m) == 1 for m in basis)
    seen, shifted = 0, 0
    for v in ids:
        for m in basis:
            want = oracle(alg.series({alg.gen_mono[v]: 1}), Series.over(alg, {m: 1}))
            assert module.act(v, m) == (want.nums, want.den), (v, alg.mono_str(m))
            seen += 1
            shifted += any(_m_degree(ctx, n) for n in want.nums)
    assert seen == pairs and shifted


@pytest.mark.parametrize("name,spec", [
    ("osp12", None), ("sl21", None), ("gl22", (2, 2, E12_E34_TRIPLE)),
])
def test_quotient_mul_mod_m_squared_matches_the_reduced_product(tmp_path, name, spec):
    # both factors have monomials with one and with two shift factors: the
    # left one acts as written, the right one by its class in Q_chi^(2)
    ctx = slice_setup(_catalog_algebra(tmp_path, name, spec))
    alg = ctx.alg
    module, oracle = _mod_m_squared(ctx)
    rng = random.Random(13)
    every = _monomials(alg, [v.ident for v in alg.variables if not v.hbar], 4, amax=3)[1:]
    once = [m for m in every if _m_degree(ctx, m) == 1]
    twice = [m for m in every if _m_degree(ctx, m) >= 2]

    def coeff():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))

    shifted = 0
    for _ in range(25):
        s = alg.series({m: coeff() for m in rng.sample(every, 2) + rng.sample(once, 1)
                        + rng.sample(twice, 1)})
        t = alg.series({m: coeff() for m in rng.sample(every, 3) + rng.sample(once, 2)
                        + rng.sample(twice, 1)})
        t = t + alg.const(coeff())
        got = module.mul(s, t)
        assert got == oracle(s, t)
        shifted += any(_m_degree(ctx, m) for m in got.nums)
    assert shifted >= 5  # not only what Q_chi would keep


class _SignlessModule(wslice.QuotientModule):
    """Q_chi^(k) with the odd-odd sign of v·x = ±x·v + [v, x] dropped when
    k = 2: a wrong module for the splitting check to catch."""

    def _act_sum(self, nums, v, sign=1):
        return super()._act_sum(nums, v, 1 if self.k == 2 else sign)  # +x·(v·m'), not minus


def _splitting_with_signless_lifts(monkeypatch, ctx, n_max):
    """``splitting_check(ctx, n_max)`` with ``_SignlessModule`` in place of
    ``QuotientModule``, and the modules it built."""
    built = []

    class Recorded(_SignlessModule):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(wslice, "QuotientModule", Recorded)
    return splitting_check(ctx, n_max, k=2), built


@pytest.mark.parametrize("name,spec,n_max", [
    ("sl21", None, 4), ("sl21", None, 5), ("gl21", (2, 1, E12_TRIPLE), 4),
])
def test_splitting_check_fails_with_a_wrong_sign_in_its_lifts(monkeypatch, tmp_path, name,
                                                              spec, n_max):
    # the lifts are formed in a module with k = 2 and nowhere else, so a
    # sign dropped there alone fails the reconstruction
    ctx = slice_setup(_catalog_algebra(tmp_path, name, spec))
    got, built = _splitting_with_signless_lifts(monkeypatch, ctx, n_max)
    assert [module.k for module in built] == [2]
    assert not got.ok and got.recon_failures and not got.coeff_failures


def test_osp12_lifts_swap_no_two_odd_factors(monkeypatch):
    # osp(1|2) has two odd variables, and its lifts never act with the
    # larger on a monomial that starts with the smaller, so the dropped sign
    # is never read there and the check still holds: the control above
    # needs sl(2|1) or gl(2|1)
    ctx = _ctx("osp12")
    alg = ctx.alg
    odd = {v.ident for v in alg.variables if v.parity}
    got, (module,) = _splitting_with_signless_lifts(monkeypatch, ctx, 4)
    assert got.ok and module._act_memo
    for v, m in module._act_memo:
        x = alg.split_first(m)[0] if m else None
        assert not (v in odd and x in odd and v > x), (v, alg.mono_str(m))


def test_readme_worked_session():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    session = readme.split("A small worked session:")[1].split("```python\n")[1]
    session = session.split("```")[0]
    ns = {}
    exec(session, ns)
    assert ns["wh"].dims == [1, 1, 1, 1, 2, 2, 2, 2, 3]
    assert str(ns["wh"].gens[0][2]) == "e - 1/2*h + 1/4*h^2"
    # the session shows what it computes
    assert "# [1, 1, 1, 1, 2, 2, 2, 2, 3]\n" in session
    assert "# e - 1/2*h + 1/4*h^2 " in session


def test_walgebra_both_checks_invariance_once(monkeypatch):
    # compare_realizations reads the slice result's flag instead of
    # multiplying the same generators again
    calls = []
    real = wslice._m_invariant

    def counted(ctx, series):
        calls.append(len(series))
        return real(ctx, series)

    monkeypatch.setattr(wslice, "_m_invariant", counted)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["walgebra", "--algebra", "sl21", "--order", "6",
                     "--method", "both"]) == 0
    report = json.loads(out.getvalue())
    assert calls == [4]
    assert report["slice"]["invariance_ok"] and report["compare"]["invariance_ok"]


def test_whittaker_rows_build_no_enveloping_product(monkeypatch):
    # the rows, the generator words and the invariance checks of both routes
    # all come from the left action on Q_chi, and the splitting check's lifts
    # from that on Q_chi^(2): no exact star product, the only kind that gives
    # a product in U(g); the charts' are truncated
    ctx = slice_setup(load_algebra("sl21"))
    qc = ctx.quantum_chart(6)
    calls = Counter()
    real = StarAlgebra.star

    def counted(self, f, g, order="auto"):
        exact = (f._join_order(g) if order == "auto" else order) is None
        calls["exact" if exact else "truncated"] += 1
        return real(self, f, g, order)

    monkeypatch.setattr(StarAlgebra, "star", counted)
    assert whittaker_walgebra(ctx, 12).ok
    assert calls["exact"] == 0
    assert slice_walgebra(ctx, 6, qc=qc).ok
    assert calls["exact"] == 0 and calls["truncated"] > 0  # the slice certificate
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["walgebra", "--algebra", "sl21", "--order", "6",
                     "--method", "both"]) == 0
    assert calls["exact"] == 0
    # the splitting check's hbar = 1 lifts multiply in Q_chi^(2), so no
    # exact star product is left anywhere; its chart words are truncated
    truncated = calls["truncated"]
    assert splitting_check(ctx, 4).ok
    assert calls["exact"] == 0 and calls["truncated"] > truncated


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


def _monomials_reference(alg, ids, wmax, amax=None):
    """``_monomials`` as it was: the monomials sorted by the Algebra's own
    (mono_weight, mono_key), each read back from its packed fields."""
    ids = sorted(ids)
    vs = [alg.by_id[i] for i in ids]
    words = pbw_words([v.weight for v in vs], [v.parity for v in vs], wmax, amax)
    out = [alg.monomial(dict(zip(ids, word))) for word in words]
    out.sort(key=lambda m: (alg.mono_weight(m), alg.mono_key(m)))
    return out


def test_monomials_sort_by_weight_then_mono_key(tmp_path):
    # the candidate order fixes the Whittaker kernel vectors, so the key
    # read off each word must give the same order as the monomials' own
    sl21 = _ctx("sl21")
    gl32 = slice_setup(_catalog_algebra(tmp_path, "gl32", (3, 2, E12_TRIPLE)))
    non_hbar = [v.ident for v in sl21.alg.variables if not v.hbar]
    for ctx, ids, wmax, amax, size in (
        (sl21, sl21.complement_ids, 12, None, 192),
        (sl21, non_hbar, 5, 5, 143),
        (gl32, gl32.complement_ids, 6, None, 1310),
    ):
        got = _monomials(ctx.alg, ids, wmax, amax)
        assert got == _monomials_reference(ctx.alg, ids, wmax, amax)
        assert len(got) == size


def test_word_table_matches_naive_products_once_each():
    ctx = _ctx("sl21")
    qc = ctx.quantum_chart(4)
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
    qmul = _quotient_mul(ctx)
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
                    s = enveloping_product(ctx, s, g)
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
    value = word_table([s for _, _, s in gens], _quotient_mul(ctx), ctx.alg.one())
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
    """An Echelon that repeats every row it is built from and every add on
    the Fraction reference span, and checks that both give the same
    remainder, the same stored rows and the same rank."""

    adds = 0

    def __init__(self, rows=()):
        rows = list(rows)
        self.reference = _ReferenceSpan(Series(None, row) for row in rows)
        super().__init__(rows)
        assert sorted(self.rows) == self.reference.pivots
        for p, row in self.rows.items():
            assert {k: Fraction(v, row[p]) for k, v in row.items()} == self.reference.rows[p]
        _MirroredEchelon.adds += len(rows)

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
