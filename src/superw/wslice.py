"""Two constructions of the finite W-superalgebra and their cross-checks.

Route one ("whittaker") works in the enveloping algebra directly: shift the
generators by the character, order the shift directions last, and solve for
invariants degree by degree.  Route two ("slice") runs the quantum flattening
machinery around the shift directions and reads the invariants off as the
centralizer generators of the resulting chart.  Both land in the same quotient
module, so their generators, dimension tables and products can be compared
exactly -- that comparison is the point of this module.

Everything here is exact rational arithmetic.  Truncation only enters through
the chart construction, and the reduction arguments keep the reduced data
independent of the truncation order, which is what makes rerun-at-higher-order
comparisons meaningful.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .algebras import (
    AlgebraError,
    ChiData,
    GradingData,
    LieSuperData,
    _validate,
    build_chi,
    dynkin_grading,
)
from .darboux import equivariant_darboux
from .linalg import expand_filtered, nullspace, rref, solve, sparse_row
from .poisson import (
    BracketTable,
    PoissonAlgebra,
    SymplecticSubspace,
    linear_split,
)
from .supercore import EVEN, ODD, Algebra, Series, Variable
from .starprod import (
    StarAlgebra,
    filtration_dims,
    quantum_darboux,
    specialize_hbar,
)

__all__ = [
    "SliceContext",
    "slice_setup",
    "reduce_mod_chi",
    "reduce_mod_mk",
    "whittaker_walgebra",
    "slice_walgebra",
    "compare_realizations",
    "splitting_check",
    "clifford_factorization",
    "extract_even_subalgebra",
]

HBAR = "hb"


@dataclass
class SliceContext:
    """Shared universe for both W-algebra routes over one algebra."""

    data: LieSuperData
    grading: GradingData
    chi: ChiData
    alt: bool
    alg: Algebra
    table: BracketTable
    poisson: PoissonAlgebra
    star: StarAlgebra  # hbar-squared deformation
    ustar: StarAlgebra  # exact enveloping product
    orig_of: tuple  # universe id -> original basis index
    id_of: tuple  # original basis index -> universe id
    m_ids: frozenset
    complement_ids: tuple
    hbar_id: int

    def m_gens(self):
        return [self.alg.gen(self.data.names[self.orig_of[i]])
                for i in sorted(self.m_ids)]

    def even_m_gens(self):
        return [g for g in self.m_gens() if g.parity() == EVEN]

    def gen_of(self, orig_index):
        return self.alg.gen(self.data.names[orig_index])


def slice_setup(data: LieSuperData, alt: bool = False) -> SliceContext:
    """Build the character-shifted universe with shift directions ordered last.

    The variables are the shifted generators: same names, same brackets, but
    every bracket picks up the character of its value as a constant.  Putting
    the shift directions after everything else makes the normal form of the
    enveloping product compatible with the quotient: a normal monomial lies in
    the character ideal exactly when it touches a shift variable.
    """
    grading = dynkin_grading(data)
    chi = build_chi(data, grading, alt=alt)

    comp = [i for i in range(data.dim) if i not in chi.m_indices]
    orig_of = tuple(comp + list(chi.m_indices))
    id_of = [0] * data.dim
    for new, old in enumerate(orig_of):
        id_of[old] = new
    hbar_id = data.dim

    vs = []
    for new, old in enumerate(orig_of):
        w = grading.weights[old]
        if w < 0:
            raise AlgebraError(
                "%s: negative filtration weight on %s" % (data.name, data.names[old])
            )
        vs.append(Variable(new, data.names[old], data.parities[old], w))
    vs.append(Variable(hbar_id, HBAR, EVEN, 1, adic=False, hbar=True))
    alg = Algebra(vs)

    entries = {}
    for i in range(data.dim):
        for j in range(i, data.dim):
            a, b = orig_of[i], orig_of[j]
            row = data.pair_bracket(a, b)
            cst = sum((c * chi.chi[k] for k, c in enumerate(row) if c), Fraction(0))
            if not any(row) and not cst:
                continue
            s = alg.zero()
            for k, c in enumerate(row):
                if c:
                    s = s + alg.gen(data.names[k]) * c
            if cst:
                s = s + alg.const(cst)
            entries[(i, j)] = s
    table = BracketTable(alg, entries)
    poisson = PoissonAlgebra(alg, table, bracket_weight=-2)
    star = StarAlgebra(alg, table, hbar_mode="h2")
    ustar = StarAlgebra(alg, table, hbar_mode="unit")
    m_ids = frozenset(id_of[i] for i in chi.m_indices)
    comp_ids = tuple(id_of[i] for i in comp)
    return SliceContext(
        data=data, grading=grading, chi=chi, alt=alt, alg=alg, table=table,
        poisson=poisson, star=star, ustar=ustar, orig_of=orig_of,
        id_of=tuple(id_of), m_ids=m_ids, complement_ids=comp_ids,
        hbar_id=hbar_id,
    )


def _check_m_abelian(ctx: SliceContext):
    for a in ctx.chi.m_indices:
        for b in ctx.chi.m_indices:
            if any(ctx.data.pair_bracket(a, b)):
                raise AlgebraError(
                    "%s: shift directions do not commute; monomial reduction "
                    "would not be exact" % ctx.data.name
                )


def reduce_mod_chi(ctx: SliceContext, s: Series) -> Series:
    """Drop every normal monomial that touches a shift variable."""
    kept = {m: c for m, c in s.terms.items()
            if not any(i in ctx.m_ids for i, _ in m)}
    return ctx.alg.series(kept, s.order)


def m_degree(ctx: SliceContext, mono) -> int:
    return sum(e for i, e in mono if i in ctx.m_ids)


def reduce_mod_mk(ctx: SliceContext, s: Series, k: int) -> Series:
    """Drop normal monomials with at least k shift factors."""
    kept = {m: c for m, c in s.terms.items() if m_degree(ctx, m) < k}
    return ctx.alg.series(kept, s.order)


def _monomials(alg, ids, wmax, amax=None):
    """All normal monomials over ``ids`` with weight <= wmax (and total
    exponent <= amax when given), in a deterministic order."""
    ids = sorted(ids)
    out = []

    def rec(pos, mono, w, a):
        if pos == len(ids):
            out.append(tuple(mono))
            return
        i = ids[pos]
        v = alg.by_id[i]
        e = 0
        while True:
            if e:
                mono.append((i, e))
            rec(pos + 1, mono, w + e * v.weight, a + e)
            if e:
                mono.pop()
            e += 1
            if v.parity == ODD and e > 1:
                break
            if w + e * v.weight > wmax:
                break
            if amax is not None and a + e > amax:
                break
            if v.weight == 0 and amax is None:
                raise ValueError("weight-0 variable needs an exponent bound")
        return

    rec(0, [], 0, 0)
    out.sort(key=lambda m: (alg.mono_weight(m), m))
    return out


def _coords(series_list):
    """Dense coordinate rows over the union of support monomials."""
    monos = sorted({m for s in series_list for m in s.terms})
    rows = [[s.coeff(m) for m in monos] for s in series_list]
    return monos, rows


def _row_reduce_basis(rows):
    """Echelon basis of the row span: sparse rows (dict col -> Fraction), pivots."""
    red, piv = rref(rows)
    return [sparse_row(red[k]) for k in range(len(piv))], piv


def _in_span(basis_rows, pivots, vec):
    """Reduce vec against an echelonized sparse basis; return the remainder."""
    v = list(vec)
    for row, p in zip(basis_rows, pivots):
        if v[p]:
            c = v[p] / row[p]
            for k, x in row.items():
                v[k] -= c * x
    return v


@dataclass
class WhittakerResult:
    dims: list
    gens: list  # (weight, parity, reduced Series)
    new_counts: dict  # weight -> [even, odd]
    expected_counts: dict
    expected_dims: list
    counts_ok: bool
    dims_ok: bool
    missing: list
    invariant_bases: dict  # n -> (candidate monos, list of coefficient rows)
    ok: bool


def whittaker_walgebra(ctx: SliceContext, n_max: int) -> WhittakerResult:
    """Invariants of the shifted enveloping algebra, solved degree by degree.

    Candidates are the shift-free normal monomials of each filtration weight;
    the invariance conditions are exact enveloping products against the shift
    generators, reduced to the quotient.  Generators are extracted weight by
    weight against the span of products of earlier generators.
    """
    _check_m_abelian(ctx)
    alg = ctx.alg
    for i in ctx.complement_ids:
        if alg.by_id[i].weight < 1:
            raise AlgebraError(
                "%s: complement variable %s has weight < 1; the candidate "
                "spaces would be infinite" % (ctx.data.name, alg.by_id[i].name)
            )

    cands = _monomials(alg, ctx.complement_ids, n_max)
    cseries = {m: alg.series({m: Fraction(1)}) for m in cands}
    mg = ctx.m_gens()
    images = {}  # candidate mono -> list of reduced image Series (one per shift gen)
    for m in cands:
        images[m] = [reduce_mod_chi(ctx, ctx.ustar.star(g, cseries[m])) for g in mg]

    def invariants(n, parity=None):
        sub = [m for m in cands if alg.mono_weight(m) <= n
               and (parity is None or alg.mono_parity(m) == parity)]
        if not sub:
            return [], []
        imonos = sorted({mm for m in sub for im in images[m] for mm in im.terms})
        rows = []
        for g_idx in range(len(mg)):
            for mm in imonos:
                rows.append([images[m][g_idx].coeff(mm) for m in sub])
        if not rows:
            rows = [[Fraction(0)] * len(sub)]
        return sub, nullspace(rows, len(sub))

    dims = []
    invariant_bases = {}
    for n in range(n_max + 1):
        total = 0
        per_parity = {}
        for p in (EVEN, ODD):
            sub, null = invariants(n, p)
            per_parity[p] = (sub, null)
            total += len(null)
        dims.append(total)
        invariant_bases[n] = per_parity

    # weight-by-weight generator extraction against products of earlier gens
    gens = []
    new_counts = {}

    def reduced_product(factors):
        acc = alg.one()
        for f in reversed(factors):
            acc = reduce_mod_chi(ctx, ctx.ustar.star(f, acc))
        return acc

    def product_values(wlimit):
        vals = [alg.one()]

        def rec(start, w, acc):
            for gi in range(start, len(gens)):
                gw, gp, gs = gens[gi]
                if w + gw > wlimit:
                    continue
                if gp == ODD:
                    # odd generators square into lower terms; words keep exp <= 1
                    nxt = reduce_mod_chi(ctx, ctx.ustar.star(acc, gs))
                    vals.append(nxt)
                    rec(gi + 1, w + gw, nxt)
                else:
                    nxt = reduce_mod_chi(ctx, ctx.ustar.star(acc, gs))
                    ww = w + gw
                    while ww <= wlimit:
                        vals.append(nxt)
                        rec(gi + 1, ww, nxt)
                        ww += gw
                        if ww <= wlimit:
                            nxt = reduce_mod_chi(ctx, ctx.ustar.star(nxt, gs))
                        else:
                            break

        rec(0, 0, alg.one())
        return vals

    for w in range(n_max + 1):
        prods = product_values(w)
        monos, prows = _coords(prods + [cseries[m] for m in cands
                                        if alg.mono_weight(m) <= w])
        span_rows = prows[: len(prods)]
        basis, piv = _row_reduce_basis(span_rows)
        count = [0, 0]
        for p in (EVEN, ODD):
            sub, null = invariant_bases[w][p]
            for vec in null:
                s = alg.zero()
                for m, c in zip(sub, vec):
                    if c:
                        s = s + cseries[m] * c
                coords = [s.coeff(m) for m in monos]
                rem = _in_span(basis, piv, coords)
                if any(rem):
                    # normalize on the leading surviving coordinate
                    lead = next(k for k, c in enumerate(rem) if c)
                    snew = alg.zero()
                    for m, c in zip(monos, rem):
                        if c:
                            snew = snew + cseries.get(m, alg.series({m: Fraction(1)})) * c
                    snew = snew * (Fraction(1) / rem[lead])
                    gens.append((w, p, snew))
                    basis.append({k: c / rem[lead] for k, c in enumerate(rem) if c})
                    piv.append(lead)
                    ordered = sorted(range(len(piv)), key=lambda k: piv[k])
                    basis = [basis[k] for k in ordered]
                    piv = [piv[k] for k in ordered]
                    count[p] += 1
        if any(count):
            new_counts[w] = count

    # generators of weight above n_max are out of reach at this order, so
    # they are not expected (and not reported missing)
    expected_counts = {}
    for g, p, _vec in ctx.grading.ge_basis:
        wt = g + 2
        if wt > n_max:
            continue
        expected_counts.setdefault(wt, [0, 0])
        expected_counts[wt][p] += 1
    if ctx.chi.theta_index is not None:
        wt = ctx.grading.weights[ctx.chi.theta_index]
        if wt <= n_max:
            expected_counts.setdefault(wt, [0, 0])
            expected_counts[wt][ODD] += 1

    missing = []
    for w in sorted(set(expected_counts) | set(new_counts)):
        got = new_counts.get(w, [0, 0])
        want = expected_counts.get(w, [0, 0])
        if got != want:
            missing.append({"weight": w, "found": list(got), "expected": list(want)})

    ev = [g + 2 for g, p, _ in ctx.grading.ge_basis if p == EVEN]
    od = [g + 2 for g, p, _ in ctx.grading.ge_basis if p == ODD]
    if ctx.chi.theta_index is not None:
        od.append(ctx.grading.weights[ctx.chi.theta_index])
    expected_dims = filtration_dims(ev, od, n_max)

    counts_ok = not missing
    dims_ok = dims == expected_dims
    return WhittakerResult(
        dims=dims, gens=gens, new_counts=new_counts,
        expected_counts=expected_counts, expected_dims=expected_dims,
        counts_ok=counts_ok, dims_ok=dims_ok, missing=missing,
        invariant_bases=invariant_bases, ok=counts_ok and dims_ok,
    )


@dataclass
class SliceResult:
    dims: list
    gens: list  # (weight, parity, reduced Series)
    lifts: list  # hbar=1 specializations of the chart generators, unreduced
    products: dict  # (i, j) -> list of (sparse word, Fraction); word = ((k, e), ...)
    chart_report: dict
    invariance_ok: bool
    products_ok: bool
    ok: bool
    qc: object = field(repr=False, default=None)


def _chart_wgens(qc):
    """Centralizer generators plus self-paired odd chart variables."""
    out = list(qc.center_gens)
    for e in qc.entries:
        if e.kind == "self":
            out.append(e.a)
    return out


def _gen_weight(s):
    ws = s.weights()
    if len(ws) != 1:
        raise AlgebraError("chart generator is not weight-homogeneous")
    return ws[0]


def slice_walgebra(ctx: SliceContext, order: int, guard: int = 4,
                   qc=None) -> SliceResult:
    """W-algebra via the quantum chart around the shift directions.

    The chart's centralizer generators (and the self-paired odd variable, if
    present) specialize at hbar = 1 to invariants of the shifted enveloping
    algebra; reducing to the quotient yields exact generator representatives.
    Dimensions and products are then computed from exact enveloping products
    of those representatives.
    """
    _check_m_abelian(ctx)
    alg = ctx.alg
    if qc is None:
        qc = quantum_darboux(ctx.star, ctx.poisson, order, seeds=ctx.m_gens(),
                             guard=guard)
    chart_report = qc.verify()

    raw = []
    for g in _chart_wgens(qc):
        w = _gen_weight(g)
        if w > order:
            # the chart only pins corrections through effective order
            # ``order``; heavier generators are not certified yet
            continue
        lift = specialize_hbar(g, 1)
        red = reduce_mod_chi(ctx, lift)
        par = red.parity()
        if par == "mixed":
            raise AlgebraError("reduced generator has mixed parity")
        raw.append((w, par, red, lift))
    raw.sort(key=lambda t: (t[0], t[1], repr(t[2])))
    gens = [(w, p, red) for w, p, red, _ in raw]
    lifts = [lift for _, _, _, lift in raw]

    invariance_ok = True
    for _, _, red in gens:
        for mgen in ctx.m_gens():
            if not reduce_mod_chi(ctx, ctx.ustar.star(mgen, red)).is_zero():
                invariance_ok = False

    # word values: PBW words in the reduced generators, memoized
    values = {(): alg.one()}

    def word_value(exps):
        if not any(exps):
            return alg.one()
        if exps in values:
            return values[exps]
        i = next(k for k, e in enumerate(exps) if e)
        prev = tuple(e - (1 if k == i else 0) for k, e in enumerate(exps))
        v = reduce_mod_chi(ctx, ctx.ustar.star(gens[i][2], word_value(prev)))
        values[exps] = v
        return v

    def words_up_to(wlimit):
        out = []

        def rec(pos, w, acc):
            if pos == len(gens):
                out.append(tuple(acc))
                return
            gw, gp, _ = gens[pos]
            e = 0
            while w + e * gw <= wlimit:
                acc.append(e)
                rec(pos + 1, w + e * gw, acc)
                acc.pop()
                e += 1
                if gp == ODD and e > 1:
                    break
                if gw == 0:
                    break
        rec(0, 0, [])
        return sorted(out)

    dims = []
    for n in range(order + 1):
        vals = [word_value(e) for e in words_up_to(n)]
        _, rows = _coords(vals)
        _, piv = rref(rows)
        dims.append(len(piv))

    # products gen_i * gen_j, reported only inside the certified filtration
    # range; the solve basis is the minimal word set of the product's weight,
    # so the answer does not depend on the run order
    products = {}
    products_ok = True
    basis_cache = {}

    def basis_for(wlimit):
        if wlimit not in basis_cache:
            ws = words_up_to(wlimit)
            vals = [word_value(e) for e in ws]
            monos, rows = _coords(vals)
            cols = [[rows[k][m] for k in range(len(vals))]
                    for m in range(len(monos))]
            basis_cache[wlimit] = (ws, monos, cols)
        return basis_cache[wlimit]

    for i in range(len(gens)):
        for j in range(i, len(gens)):
            wprod = gens[i][0] + gens[j][0]
            if wprod > order:
                continue
            ws, monos, cols = basis_for(wprod)
            p = reduce_mod_chi(ctx, ctx.ustar.star(gens[i][2], gens[j][2]))
            mset = set(monos)
            if any(m not in mset for m in p.terms):
                products_ok = False
                continue
            sol = solve(cols, [p.coeff(m) for m in monos])
            if sol is None:
                products_ok = False
                continue
            products[(i, j)] = [
                (tuple((k, e) for k, e in enumerate(ws[n]) if e), sol[n])
                for n in range(len(sol)) if sol[n]
            ]

    ok = chart_report["ok"] and invariance_ok and products_ok
    return SliceResult(
        dims=dims, gens=gens, lifts=lifts, products=products,
        chart_report=chart_report,
        invariance_ok=invariance_ok, products_ok=products_ok, ok=ok, qc=qc,
    )


@dataclass
class CompareResult:
    dims_equal: bool
    counts_equal: bool
    invariance_ok: bool
    span_ok: bool
    blocks_ok: bool
    ok: bool
    detail: dict
    whittaker: WhittakerResult
    slice: SliceResult


def compare_realizations(ctx: SliceContext, n_max: int, guard: int = 4,
                         perturb=None, slice_result=None,
                         whittaker_result=None) -> CompareResult:
    """Cross-validate the two routes over the same quotient.

    Checks: equal dimension tables, equal per-weight generator counts, exact
    invariance of the slice generators, membership of each slice generator in
    the solved invariant space of its weight, and per-weight leading blocks of
    full rank.  ``perturb`` = (index, series) corrupts one slice generator
    first, for negative controls.
    """
    wh = whittaker_result or whittaker_walgebra(ctx, n_max)
    sl = slice_result or slice_walgebra(ctx, n_max, guard)
    alg = ctx.alg

    sgens = list(sl.gens)
    if perturb is not None:
        idx, extra = perturb
        w, p, s = sgens[idx]
        sgens[idx] = (w, p, s + extra)

    dims_equal = wh.dims == sl.dims

    def sig(gens):
        out = {}
        for w, p, *_ in gens:
            out.setdefault(w, [0, 0])
            out[w][p] += 1
        return out

    counts_equal = sig(wh.gens) == sig(sgens)

    invariance_ok = True
    for _, _, s in sgens:
        for mgen in ctx.m_gens():
            if not reduce_mod_chi(ctx, ctx.ustar.star(mgen, s)).is_zero():
                invariance_ok = False

    span_ok = True
    blocks_ok = True
    by_weight = {}
    for w, p, s in sgens:
        by_weight.setdefault(w, []).append((p, s))
    for w, items in sorted(by_weight.items()):
        if w > n_max:
            span_ok = False
            continue
        for p, s in items:
            sub, null = wh.invariant_bases[w][p]
            if not null:
                span_ok = False
                continue
            pos = {m: k for k, m in enumerate(sub)}
            if any(m not in pos for m in s.terms):
                span_ok = False
                continue
            # membership: s as a combination of the solved invariant vectors
            rows = [[vec[pos[m]] for vec in null] for m in sub]
            rhs = [s.coeff(m) for m in sub]
            if solve(rows, rhs) is None:
                span_ok = False
        # leading block: lower invariants plus this weight's slice generators
        prev = []
        if w > 0:
            for p in (EVEN, ODD):
                sub, null = wh.invariant_bases[w - 1][p]
                for vec in null:
                    t = alg.series({m: c for m, c in zip(sub, vec) if c})
                    prev.append(t)
        stack = prev + [s for _, s in items]
        monos = sorted({m for t in stack for m in t.terms})
        rows_all = [[t.coeff(m) for m in monos] for t in stack]
        _, piv_all = rref([list(r) for r in rows_all])
        _, piv_prev = rref([list(r) for r in rows_all[: len(prev)]])
        gained = len(piv_all) - len(piv_prev)
        want = wh.new_counts.get(w, [0, 0])
        if gained != len(items) or gained != sum(want):
            blocks_ok = False

    ok = dims_equal and counts_equal and invariance_ok and span_ok and blocks_ok
    return CompareResult(
        dims_equal=dims_equal, counts_equal=counts_equal,
        invariance_ok=invariance_ok, span_ok=span_ok, blocks_ok=blocks_ok,
        ok=ok,
        detail={
            "whittaker_dims": wh.dims, "slice_dims": sl.dims,
            "whittaker_counts": sig(wh.gens), "slice_counts": sig(sgens),
        },
        whittaker=wh, slice=sl,
    )


@dataclass
class SplitResult:
    ok: bool
    n_max: int
    k: int
    checked: int
    coeff_failures: list
    recon_failures: list


def splitting_check(ctx: SliceContext, n_max: int, k: int = 2, guard: int = 4,
                    qc=None) -> SplitResult:
    """Certify the tensor-splitting of the shifted enveloping algebra.

    Every normal monomial of weight and total degree at most ``n_max`` is
    expanded over chart words: flattened-pair coordinates times centralizer
    words times powers of hbar.  The expansion must close through the working
    order, and specializing hbar to 1 must reproduce the monomial exactly
    modulo k-fold products of shift generators.
    """
    _check_m_abelian(ctx)
    alg = ctx.alg
    if qc is None:
        qc = quantum_darboux(ctx.star, ctx.poisson, n_max, seeds=ctx.m_gens(),
                             guard=guard)
    cap = qc.cap

    vgens = []
    for e in qc.entries:
        if e.kind in ("even", "odd"):
            vgens.append(e.a)
            vgens.append(e.b)
    wgens = _chart_wgens(qc)
    factors = [(s, _gen_weight(s), s.parity()) for s in vgens + wgens]

    # all exponent tuples over the factors with weight <= wtarget and a crude
    # eff bound (each factor contributes at least 1 to the adic degree); the
    # weight deficit is later matched by a power of hbar
    def factor_words(wtarget):
        out = []

        def rec(pos, w, a, acc):
            if pos == len(factors):
                out.append(tuple(acc))
                return
            _, fw, fp = factors[pos]
            e = 0
            while w + e * fw <= wtarget and a + e <= cap:
                acc.append(e)
                rec(pos + 1, w + e * fw, a + e, acc)
                acc.pop()
                e += 1
                if fp == ODD and e > 1:
                    break
                if fw == 0 and e > cap:
                    break
        rec(0, 0, 0, [])
        return sorted(out)

    hvals = {}  # exps -> chart word at working order
    uvals = {}  # exps -> exact unit-product of hbar=1 lifts

    def chart_word(exps):
        if exps in hvals:
            return hvals[exps]
        acc = alg.one(cap)
        for idx in reversed(range(len(factors))):
            s, _, _ = factors[idx]
            for _ in range(exps[idx]):
                acc = ctx.star.star(s, acc, order=cap)
        hvals[exps] = acc
        return acc

    def unit_word(exps):
        if exps in uvals:
            return uvals[exps]
        acc = alg.one()
        for idx in reversed(range(len(factors))):
            s, _, _ = factors[idx]
            sv = specialize_hbar(s, 1)
            for _ in range(exps[idx]):
                acc = ctx.ustar.star(sv, acc)
        uvals[exps] = acc
        return acc

    targets = _monomials(alg, [v.ident for v in alg.variables if not v.hbar],
                         n_max, amax=n_max)
    coeff_failures = []
    recon_failures = []
    words_by_weight = {}
    for m in targets:
        W = alg.mono_weight(m)
        if W not in words_by_weight:
            words_by_weight[W] = factor_words(W)
        words = words_by_weight[W]
        cands = []
        keys = []
        for exps in words:
            wsum = sum(e * factors[i][1] for i, e in enumerate(exps))
            s = W - wsum
            if s < 0:
                continue
            val = chart_word(exps).mul_hbar(s) if s else chart_word(exps)
            cands.append(val)
            keys.append((exps, s))
        target = alg.series({m: Fraction(1)}, cap)
        coeffs = expand_filtered(target, cands, cap)
        if coeffs is None:
            coeff_failures.append(alg.mono_str(m))
            continue
        # reconstruction at hbar = 1, modulo k-fold shift products
        acc = alg.series({m: Fraction(1)})
        for (exps, s), c in zip(keys, coeffs):
            if c:
                acc = acc - unit_word(exps) * c
        if not reduce_mod_mk(ctx, acc, k).is_zero():
            recon_failures.append(alg.mono_str(m))

    return SplitResult(
        ok=not coeff_failures and not recon_failures,
        n_max=n_max, k=k, checked=len(targets),
        coeff_failures=coeff_failures, recon_failures=recon_failures,
    )


def extract_even_subalgebra(data: LieSuperData) -> LieSuperData:
    """The even part, revalidated as an algebra in its own right."""
    keep = [i for i in range(data.dim) if data.parities[i] == EVEN]
    pos = {i: k for k, i in enumerate(keep)}
    table = {}
    for (i, j), row in data.table.items():
        if i in pos and j in pos:
            sub = tuple(row[k] for k in keep)
            if any(sub):
                table[(pos[i], pos[j])] = sub
    form = tuple(tuple(data.form[i][j] for j in keep) for i in keep)
    triple = tuple(tuple(vec[k] for k in keep) for vec in data.triple)
    sub = LieSuperData(
        name=data.name + "_even",
        names=tuple(data.names[i] for i in keep),
        parities=(EVEN,) * len(keep),
        table=table, form=form, triple=triple,
    )
    _validate(sub)
    return sub


def _transport(s: Series, dst: Algebra) -> Series:
    """Rewrite a series over another universe by matching variable names."""
    out = {}
    src = s.alg
    for m, c in s.terms.items():
        mm = tuple(sorted((dst.by_name[src.by_id[i].name].ident, e)
                          for i, e in m))
        out[mm] = c
    return dst.series(out, s.order)


@dataclass
class CliffordResult:
    signature: list
    expected_signature: list
    sig_ok: bool
    dims: list
    rank_ok: bool
    even_vars_ok: bool
    standalone_match: bool
    sub_compare_ok: bool
    closure_ok: bool
    clifford_count: int
    factor_sig_ok: bool
    linear_span_ok: bool
    ok: bool
    detail: dict


def clifford_factorization(ctx: SliceContext, order: int, guard: int = 4,
                           qc=None, sub_compare_order: int = 4) -> CliffordResult:
    """Factor the even-flattened centralizer through Clifford and W parts.

    Flattening only the even shift directions leaves every odd direction as a
    centralizer generator; the resulting algebra should (a) have the graded
    size of the even centralizer polynomials times the odd exterior algebra,
    (b) contain the even-part W-algebra through the identical even chart, and
    (c) be spanned by the full chart's flat odd coordinates together with the
    full W-algebra generators.
    """
    alg = ctx.alg
    if qc is None:
        qc = quantum_darboux(ctx.star, ctx.poisson, order, seeds=ctx.m_gens(),
                             guard=guard)
    cap = qc.cap

    # flatten only the even shift directions: form the seeded split, then
    # demote self-paired odd leftovers so they stay centralizer generators
    even_seeds = ctx.even_m_gens()
    vectors = [alg.gen(v.name) for v in alg.variables if not v.hbar]
    plan = linear_split(ctx.poisson, vectors, seeds=even_seeds)
    plan.radical = plan.selfs + plan.radical
    plan.selfs = []
    classical0 = equivariant_darboux(
        ctx.poisson, order, guard=guard,
        subspace=SymplecticSubspace(split=plan, point={}))
    qc0 = quantum_darboux(ctx.star, ctx.poisson, order, guard=guard,
                          classical=classical0)

    agens = _chart_wgens(qc0)
    asig = sorted((_gen_weight(g), g.parity()) for g in agens)

    sub = extract_even_subalgebra(ctx.data)
    subgr = dynkin_grading(sub)
    ge0 = list(subgr.ge_weight_signature())
    odd_sig = [(ctx.grading.weights[i], ODD)
               for i in range(ctx.data.dim) if ctx.data.parities[i] == ODD]
    expected_sig = sorted(ge0 + odd_sig)
    sig_ok = asig == expected_sig

    ev = [w for w, p in asig if p == EVEN]
    od = [w for w, p in asig if p == ODD]
    dims = filtration_dims(ev, od, order)

    # (a) word independence through the working order
    def words(gens, wlimit):
        out = []

        def rec(pos, w, acc):
            if pos == len(gens):
                out.append(tuple(acc))
                return
            g = gens[pos]
            gw = _gen_weight(g)
            gp = g.parity()
            e = 0
            while w + e * gw <= wlimit and (gp == EVEN or e <= 1):
                acc.append(e)
                rec(pos + 1, w + e * gw, acc)
                acc.pop()
                e += 1
                if gw == 0:
                    break
        rec(0, 0, [])
        return sorted(out)

    def word_val(gens, exps):
        acc = alg.one(cap)
        for idx in reversed(range(len(gens))):
            for _ in range(exps[idx]):
                acc = ctx.star.star(gens[idx], acc, order=cap)
        return acc

    aword_cache = {}

    def aword(exps):
        if exps not in aword_cache:
            aword_cache[exps] = word_val(agens, exps)
        return aword_cache[exps]

    rank_ok = True
    for n in range(order + 1):
        ws = [e for e in words(agens, n)]
        vals = [aword(e) for e in ws]
        _, rows = _coords(vals)
        _, piv = rref(rows)
        if len(piv) != len(ws) or len(ws) != dims[n]:
            rank_ok = False

    # (b) the even-part W-algebra sits inside through the identical even chart
    even_entries = [e for e in qc0.entries if e.kind == "even"]
    even_centers = [g for g in qc0.center_gens if g.parity() == EVEN]
    even_vars_ok = True
    for s in [v for e in even_entries for v in e.variables()] + even_centers:
        for m in s.terms:
            for i, _ in m:
                v = alg.by_id[i]
                if not v.hbar and v.parity != EVEN:
                    even_vars_ok = False

    sub_ctx = slice_setup(sub)
    sub_qc = quantum_darboux(sub_ctx.star, sub_ctx.poisson, order,
                             seeds=sub_ctx.m_gens(), guard=guard)
    standalone = {}
    for g in sub_qc.center_gens:
        standalone[_gen_weight(g)] = standalone.get(_gen_weight(g), []) + [
            _transport(g, alg)]
    standalone_match = True
    mine = {}
    for g in even_centers:
        mine.setdefault(_gen_weight(g), []).append(g)
    if sorted(standalone) != sorted(mine):
        standalone_match = False
    else:
        for w in standalone:
            if len(standalone[w]) != len(mine[w]):
                standalone_match = False
                continue
            for a, b in zip(standalone[w], mine[w]):
                if not (a - b).is_zero():
                    standalone_match = False

    sub_cmp = compare_realizations(sub_ctx, sub_compare_order, guard)
    sub_compare_ok = sub_cmp.ok

    # closure: products of the centralizer generators expand over its words
    closure_ok = True
    prod_pairs = []
    for i in range(len(agens)):
        for j in range(i, len(agens)):
            prod_pairs.append((i, j))
    for i, j in prod_pairs:
        p = ctx.star.star(agens[i], agens[j], order=cap)
        W = _gen_weight(agens[i]) + _gen_weight(agens[j])
        cands = []
        for exps in words(agens, W):
            wsum = sum(e * _gen_weight(agens[k]) for k, e in enumerate(exps))
            s = W - wsum
            if s < 0:
                continue
            cands.append(aword(exps).mul_hbar(s) if s else aword(exps))
        if expand_filtered(p, cands, cap) is None:
            closure_ok = False

    # (c) flat odd coordinates + full W generators span the same thing
    clgens = []
    for e in qc.entries:
        if e.kind == "odd":
            clgens.extend([e.a, e.b])
        elif e.kind == "self":
            clgens.append(e.a)
    wfull = list(qc.center_gens)
    csig = sorted([(_gen_weight(g), g.parity()) for g in clgens + wfull])
    factor_sig_ok = csig == asig
    odd_m1 = [i for i in range(ctx.data.dim)
              if ctx.data.parities[i] == ODD and ctx.grading.grades[i] == -1]
    clifford_count = len(clgens)
    if clifford_count != len(odd_m1):
        factor_sig_ok = False

    def linear_rows(gens):
        ids = sorted(i for i in range(len(alg.variables)) if not alg.by_id[i].hbar)
        rows = []
        for g in gens:
            rows.append([g.coeff(((i, 1),)) for i in ids])
        return rows

    ra, pa = rref(linear_rows(agens))
    rb, pb = rref(linear_rows(clgens + wfull))
    linear_span_ok = (pa == pb and
                      [ra[k] for k in range(len(pa))] ==
                      [rb[k] for k in range(len(pb))])

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
        detail={
            "even_subalgebra": sub.name,
            "even_centralizer_signature": [list(t) for t in ge0],
            "odd_signature": [list(t) for t in sorted(odd_sig)],
        },
    )
