"""The Clifford factorization certificate of the W-superalgebra.

Flattening only the even shift directions leaves the odd ones as centralizer
generators, and the algebra they generate with the even centralizer should
factor as a Clifford part times the even-part W-algebra.  No command reports
this certificate, so no command imports the module; it is built on the
charts and routes of :mod:`superw.wslice`.
"""

from __future__ import annotations

from collections import namedtuple

from .algebras import extract_even_subalgebra
from .darboux import equivariant_darboux
from .linalg import Echelon, FilteredFamily, expand_filtered
from .poisson import linear_split
from .starprod import filtration_dims, quantum_darboux
from .supercore import EVEN, ODD, Algebra, Series
from .wslice import (
    SliceContext,
    _chart_wgens,
    _gen_weight,
    _hbar_padded,
    _word_basis,
    compare_realizations,
    pbw_words,
    slice_setup,
    slice_walgebra,
    whittaker_walgebra,
    word_table,
)

__all__ = ["CliffordResult", "clifford_factorization", "even_m_gens"]


def even_m_gens(ctx: SliceContext):
    """The even shift generators of ``ctx``, the seeds of the even-flattened chart."""
    return [g for g in ctx.m_gens() if g.parity() == EVEN]


def _transport(s: Series, dst: Algebra) -> Series:
    """Rewrite a series over another universe by matching variable names."""
    out = {}
    src = s.alg
    for m, v in s.nums.items():
        out[dst.monomial({dst.by_name[src.by_id[i].name].ident: e
                          for i, e in src.mono_key(m)})] = v
    return Series.over(dst, out, s.den, s.order)


def _closure_ok(gen_words, weights, parities, order):
    """Whether each product of two generators of weight w <= order expands
    over their words through the order, which bounds what the chart certifies."""
    families = {}
    for i in range(len(weights)):
        for j in range(i, len(weights)):
            w = weights[i] + weights[j]
            if w > order:
                continue
            if w not in families:
                _, cands = _hbar_padded(gen_words, weights, parities, w)
                families[w] = FilteredFamily(cands, order)
            p = gen_words(tuple((k == i) + (k == j) for k in range(len(weights))))
            if expand_filtered(p, families[w]) is None:
                return False
    return True


CliffordResult = namedtuple("CliffordResult", "signature expected_signature sig_ok dims "
                            "rank_ok even_vars_ok standalone_match sub_compare_ok "
                            "closure_ok clifford_count factor_sig_ok linear_span_ok ok")


def clifford_factorization(ctx: SliceContext, order: int, qc) -> CliffordResult:
    """Factor the even-flattened centralizer through Clifford and W parts;
    ``qc`` is the full quantum chart.

    Flattening only the even shift directions leaves every odd direction as a
    centralizer generator; the resulting algebra should (a) have the graded
    size of the even centralizer polynomials times the odd exterior algebra,
    (b) contain the even-part W-algebra through the identical even chart, and
    (c) be spanned by the full chart's flat odd coordinates together with the
    full W-algebra generators.
    """
    alg = ctx.alg
    cap = qc.cap

    # flatten only the even shift directions: form the seeded split, then
    # demote self-paired odd leftovers so they stay centralizer generators
    vectors = [alg.gen(v.name) for v in alg.variables if not v.hbar]
    plan = linear_split(ctx.poisson, vectors, seeds=even_m_gens(ctx))
    plan.radical = plan.selfs + plan.radical
    plan.selfs = []
    qc0 = quantum_darboux(ctx.star, equivariant_darboux(ctx.poisson, order, plan=plan))

    agens = _chart_wgens(qc0)
    aweights = [_gen_weight(g) for g in agens]
    aparities = [g.parity() for g in agens]
    asig = sorted(zip(aweights, aparities))

    sub = extract_even_subalgebra(ctx.data)
    sub_ctx = slice_setup(sub)
    ge0 = list(sub_ctx.grading.ge_weight_signature())
    odd_sig = [(ctx.grading.weights[i], ODD)
               for i in range(ctx.data.dim) if ctx.data.parities[i] == ODD]
    expected_sig = sorted(ge0 + odd_sig)
    sig_ok = asig == expected_sig

    ev = [w for w, p in asig if p == EVEN]
    od = [w for w, p in asig if p == ODD]
    dims = filtration_dims(ev, od, order)

    # (a) word independence through the working order
    agen_words = word_table(agens, lambda a, b: ctx.star.star(a, b, order=cap),
                       alg.one(cap))
    rank_ok = (_word_basis(agen_words, aweights, aparities, order)[2] == dims ==
               [len(pbw_words(aweights, aparities, n)) for n in range(order + 1)])

    # (b) the even-part W-algebra sits inside through the identical even chart
    even_entries = [e for e in qc0.entries if e.kind == "even"]
    even_centers = [g for g in qc0.center_gens if g.parity() == EVEN]
    even_vars_ok = True
    for s in [v for e in even_entries for v in e.variables()] + even_centers:
        for m in s.nums:
            for i, _ in alg.mono_key(m):
                v = alg.by_id[i]
                if not v.hbar and v.parity != EVEN:
                    even_vars_ok = False

    sub_sl = slice_walgebra(sub_ctx, order, sub_ctx.quantum_chart(order))

    def by_weight(gens):
        out = {}
        for g in gens:
            out.setdefault(_gen_weight(g), []).append(g)
        return out

    standalone_match = (by_weight(_transport(g, alg) for g in sub_sl.qc.center_gens)
                        == by_weight(even_centers))
    sub_compare_ok = compare_realizations(sub_ctx, order, sub_sl,
                                          whittaker_walgebra(sub_ctx, order)).ok

    closure_ok = _closure_ok(agen_words, aweights, aparities, order)

    # (c) flat odd coordinates + full W generators span the same thing
    clgens = [v for e in qc.entries if e.kind in ("odd", "self") for v in e.variables()]
    wfull = list(qc.center_gens)
    csig = sorted([(_gen_weight(g), g.parity()) for g in clgens + wfull])
    factor_sig_ok = csig == asig
    odd_m1 = [i for i in range(ctx.data.dim)
              if ctx.data.parities[i] == ODD and ctx.grading.grades[i] == -1]
    clifford_count = len(clgens)
    if clifford_count != len(odd_m1):
        factor_sig_ok = False

    lin = {i: alg.gen_mono[i] for i in alg.by_id if not alg.by_id[i].hbar}

    def linear_parts(gens):
        return [{i: g.nums.get(m, 0) for i, m in lin.items()} for g in gens]

    # two spans are equal when each has the rank of their union
    aparts, cparts = linear_parts(agens), linear_parts(clgens + wfull)
    linear_span_ok = (len(Echelon(aparts)) == len(Echelon(cparts))
                      == len(Echelon(aparts + cparts)))

    ok = (sig_ok and rank_ok and even_vars_ok and standalone_match and
          sub_compare_ok and closure_ok and factor_sig_ok and linear_span_ok)
    return CliffordResult(
        signature=[list(t) for t in asig],
        expected_signature=[list(t) for t in expected_sig],
        sig_ok=sig_ok, dims=dims, rank_ok=rank_ok,
        even_vars_ok=even_vars_ok, standalone_match=standalone_match,
        sub_compare_ok=sub_compare_ok, closure_ok=closure_ok,
        clifford_count=clifford_count, factor_sig_ok=factor_sig_ok,
        linear_span_ok=linear_span_ok, ok=ok,
    )
