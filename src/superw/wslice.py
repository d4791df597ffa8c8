"""Two constructions of the finite W-superalgebra and their cross-checks.

Route one ("whittaker") works in the enveloping algebra directly: shift the
generators by the character, order the shift directions last, and solve for
invariants degree by degree.  Its invariance conditions are read in the left
U(g)-module Q_chi = U(g) / U(g)·m_chi (``QuotientModule``): with the shift ids
above every complement id and m abelian, the shift-free normal monomials are
a basis of Q_chi, and a shift generator acts on one of them by peeling off
its first factor; left multiplication maps the left ideal into itself, so
every step is reduced as it is formed and no monomial of the ideal is built.
The action is the normal-ordering rule of the star product,
``starprod.LeftAction``, at unit level 0, and every product in Q_chi, the
generator words of both routes included, is this action factor by factor
(``QuotientModule.mul``).  Route two ("slice")
runs the quantum flattening machinery around the shift directions and reads
the invariants off as the centralizer generators of the resulting chart.
Both land in the same quotient module, so their generators, dimension tables
and products can be compared exactly -- that comparison is the point.

Everything here is exact rational arithmetic.  Truncation only enters through
the chart construction, and the reduction arguments keep the reduced data
independent of the truncation order, which is what makes rerun-at-higher-order
comparisons meaningful.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from math import lcm

from .algebras import (
    HBAR,
    AlgebraError,
    LieSuperData,
    build_chi,
    dynkin_grading,
    extract_even_subalgebra,
)
from .darboux import DEFAULT_GUARD, equivariant_darboux
from .linalg import Echelon, FilteredFamily, TaggedEchelon, expand_filtered
from .poisson import BracketTable, PoissonAlgebra, linear_split
from .supercore import (
    EVEN,
    ODD,
    Algebra,
    Series,
    Variable,
    add_numerators,
    merge_numerators,
    pair_sum,
)
from .starprod import LeftAction, StarAlgebra, filtration_dims, quantum_darboux

__all__ = [
    "SliceContext",
    "slice_setup",
    "reduce_mod_chi",
    "whittaker_walgebra",
    "slice_walgebra",
    "compare_realizations",
    "splitting_check",
    "clifford_factorization",
    "extract_even_subalgebra",
]


class SliceContext(namedtuple("SliceContext", "data grading chi alg poisson star "
                              "orig_of m_ids complement_ids quotient")):
    """Shared universe for both W-algebra routes over one algebra.

    ``star`` is the hbar-squared deformation, U(g) its fibre at hbar = 1;
    ``orig_of`` maps a universe id to its original basis index, and
    ``quotient`` is the left action on Q_chi, memoized per context.
    """

    __slots__ = ()

    def m_gens(self):
        return [self.alg.gen(self.data.names[self.orig_of[i]])
                for i in sorted(self.m_ids)]

    def even_m_gens(self):
        return [g for g in self.m_gens() if g.parity() == EVEN]

    def classical_chart(self, order, guard=DEFAULT_GUARD):
        """The classical Darboux chart around the shift directions."""
        return equivariant_darboux(self.poisson, order, seeds=self.m_gens(),
                                   guard=guard)

    def quantum_chart(self, order, guard=DEFAULT_GUARD):
        """The quantum chart of :meth:`classical_chart`."""
        return quantum_darboux(self.star, self.classical_chart(order, guard))


class QuotientModule(LeftAction):
    """The left U(g)-module Q_chi^(k) = U(g) / U(g)·m_chi^k on its monomial
    basis; k = 1, the default, is the Whittaker model Q_chi.

    The universe orders every shift variable after every complement variable
    (``slice_setup``), and m is abelian (``_check_m_abelian``), so the
    shifted generators of m commute and the normal monomials with k or more
    shift factors, each ending in k shifted generators of m, span the left
    ideal U(g)·m_chi^k; the normal monomials with fewer than k shift factors
    are a basis of Q_chi^(k).  ``act(v, m)`` is v·m in Q_chi^(k) for a
    variable v and a basis monomial m: the left action of
    :class:`superw.starprod.LeftAction` at unit level 0, the normal ordering
    of U(g), with every shift generator that would make k shift factors
    giving 0.  That takes a shift v acting on a monomial whose factors are at
    least v, so all of them are shift factors too, since the shift ids come
    last.

    Each product with a variable on the left is formed in Q_chi^(k): left
    multiplication maps the left ideal into itself, so x·(v·m') only needs
    the class of v·m', and no monomial of the ideal is ever built.  This is
    the normal ordering of v·m with every step reduced, so it ends where
    normal ordering does.
    """

    def __init__(self, alg, table, m_ids, k=1):
        if k < 1:
            raise ValueError("the power of the ideal must be at least 1, not %r" % k)
        super().__init__(alg, table, 0, m_ids, k)

    def mul(self, s, t):
        """s·t in Q_chi^(k) for hbar-free s and t: each monomial of s acts,
        its last factor first, on each monomial of the class of t (its terms
        with fewer than k shift factors), which is all s·t depends on."""
        free = self.alg.free_of(t.nums, self.m_ids, self.k)
        if len(free) < len(t.nums):
            t = Series.over(self.alg, free, t.den)
        return pair_sum(s, t, None, self._word, memo=self._word_memo)


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

    vs = []
    for new, old in enumerate(orig_of):
        w = grading.weights[old]
        if w < 0:
            raise AlgebraError(
                "%s: negative filtration weight on %s" % (data.name, data.names[old])
            )
        vs.append(Variable(new, data.names[old], data.parities[old], w))
    vs.append(Variable(data.dim, HBAR, EVEN, 1, hbar=True))
    alg = Algebra(vs)

    # [x_a, x_b] + chi([x_a, x_b]) over den * chi.den, read from the table
    mono = {old: alg.gen_mono[new] for new, old in enumerate(orig_of)}
    unit, den = alg.monomial({}), data.den * chi.den
    entries = {}
    for i in range(data.dim):
        for j in range(i, data.dim):
            row = data.bracket(orig_of[i], orig_of[j])
            if not row:
                continue
            nums = {mono[k]: c * chi.den for k, c in row}
            nums[unit] = sum(c * chi.chi[k] for k, c in row)
            entries[(i, j)] = Series.over(alg, nums, den)
    table = BracketTable(alg, entries)
    poisson = PoissonAlgebra(alg, table)
    star = StarAlgebra(alg, table)
    # the complement takes the first universe ids, the shift directions the rest
    m_ids = frozenset(range(len(comp), data.dim))
    return SliceContext(
        data=data, grading=grading, chi=chi, alg=alg, poisson=poisson,
        star=star, orig_of=orig_of, m_ids=m_ids,
        complement_ids=tuple(range(len(comp))),
        quotient=QuotientModule(alg, table, m_ids),
    )


def _check_m_abelian(ctx: SliceContext):
    for a in ctx.chi.m_indices:
        for b in ctx.chi.m_indices:
            if ctx.data.bracket(a, b):
                raise AlgebraError(
                    "%s: shift directions do not commute; monomial reduction "
                    "would not be exact" % ctx.data.name
                )


def reduce_mod_chi(ctx: SliceContext, s: Series) -> Series:
    """Drop every normal monomial that touches a shift variable."""
    return Series.over(ctx.alg, ctx.alg.free_of(s.nums, ctx.m_ids), s.den, s.order)


def pbw_words(weights, parities, wlimit, amax=None):
    """Sorted exponent tuples over factors of the given weights and parities.

    A word has total weight sum(e * w) <= wlimit, odd exponents <= 1 and, when
    ``amax`` is given, total exponent sum(e) <= amax.  Without ``amax`` a
    weight-0 factor only takes exponent 0.
    """
    words = [((), 0, 0)] if wlimit >= 0 else []
    for w, p in zip(weights, parities):
        grown = []
        for word, wt, a in words:
            e = 0
            while wt + e * w <= wlimit and (amax is None or a + e <= amax):
                grown.append((word + (e,), wt + e * w, a + e))
                e += 1
                if (p == ODD and e > 1) or (w == 0 and amax is None):
                    break
        words = grown
    return sorted(word for word, _, _ in words)


def word_table(factors, mul, unit):
    """Memoized values of PBW words in ``factors`` under the product ``mul``.

    value(e) = mul(f_i, value(e - delta_i)) with i the first nonzero exponent,
    so each word costs one product on top of a shorter word.  Keys drop
    trailing zero exponents: ``factors`` may grow without invalidating a word.
    """
    memo = {(): unit}

    def value(exps):
        n = len(exps)
        while n and not exps[n - 1]:
            n -= 1
        key = tuple(exps[:n])
        if key not in memo:
            i = next(k for k, e in enumerate(key) if e)
            memo[key] = mul(factors[i], value(key[:i] + (key[i] - 1,) + key[i + 1:]))
        return memo[key]

    return value


def _hbar_padded(value, weights, parities, wlimit, amax=None):
    """Words of weight <= wlimit, each times hbar to the power of its weight
    deficit so that every candidate has weight wlimit: (words, values)."""
    words = pbw_words(weights, parities, wlimit, amax)
    return words, [value(e).mul_hbar(wlimit - sum(x * w for x, w in zip(e, weights)))
                   for e in words]


def _m_invariant(ctx, series):
    """Whether every shift generator annihilates every series in the quotient."""
    mul, gens = ctx.quotient.mul, ctx.m_gens()
    return all(mul(g, s).is_zero() for s in series for g in gens)


def _monomials(alg, ids, wmax, amax=None):
    """All normal monomials over ``ids`` with weight <= wmax (and total
    exponent <= amax when given), sorted by (weight, monomial)."""
    ids = sorted(ids)
    vs = [alg.by_id[i] for i in ids]
    weights = [v.weight for v in vs]
    words = pbw_words(weights, [v.parity for v in vs], wmax, amax)
    # (mono_weight, mono_key) of each word's monomial, read off the word
    words.sort(key=lambda word: (sum(e * w for e, w in zip(word, weights)),
                                 tuple((i, e) for i, e in zip(ids, word) if e)))
    return [alg.monomial(dict(zip(ids, word))) for word in words]


def _words_by_weight(weights, parities, n_max):
    """The PBW words of weight <= n_max, listed by exact weight."""
    out = [[] for _ in range(n_max + 1)]
    for e in pbw_words(weights, parities, n_max):
        out[sum(x * w for x, w in zip(e, weights))].append(e)
    return out


def _tagged_row(s, tag):
    """The integer row of a Series as a TaggedEchelon candidate or target:
    monomial m in data column ~m < 0, and ``tag`` >= 0 carrying ``s.den``."""
    row = {~m: v for m, v in s.nums.items()}
    row[tag] = s.den
    return row


def _word_basis(value, weights, parities, n_max):
    """The PBW words of weight <= n_max, lightest first, and one TaggedEchelon
    of their values with word k tagged k: (words, basis, ranks), where entry
    n of ranks is the rank of the words of weight <= n."""
    words, basis, ranks = [], TaggedEchelon(), []
    for by_weight in _words_by_weight(weights, parities, n_max):
        for e in by_weight:
            basis.add(_tagged_row(value(e), len(words)), len(words))
            words.append(e)
        ranks.append(len(basis.echelon))
    return words, basis, ranks


# gens: (weight, parity, reduced Series); new_counts: weight -> [even, odd];
# invariants: (weight, parity, Series), one per kernel vector
WhittakerResult = namedtuple("WhittakerResult", "dims gens new_counts expected_counts "
                             "expected_dims counts_ok dims_ok missing invariants ok")


def whittaker_walgebra(ctx: SliceContext, n_max: int) -> WhittakerResult:
    """Invariants of the shifted enveloping algebra, solved degree by degree.

    Candidates are the shift-free normal monomials of each filtration weight;
    the invariance conditions are their images under the shift generators in
    Q_chi, each found by ``QuotientModule.act`` without an enveloping product:
    g·(x·m') = ±x·(g·m') + [g, x]·m' for x the first factor of the candidate,
    every product with a variable on the left reduced as it is formed, which
    is exact because left multiplication maps the left ideal U(g)·m_chi into
    itself.  This needs the shift ids above every complement id, as
    ``slice_setup`` orders them, and m abelian, which is checked first.
    Generators are extracted weight by weight against the span of products
    of earlier generators, each a generator acting on a shorter word in Q_chi.
    """
    _check_m_abelian(ctx)
    alg = ctx.alg
    for i in ctx.complement_ids:
        if alg.by_id[i].weight < 1:
            raise AlgebraError(
                "%s: complement variable %s has weight < 1; the candidate "
                "spaces would be infinite" % (ctx.data.name, alg.by_id[i].name)
            )

    # one kernel per parity over all candidates, sorted by (weight, monomial):
    # a candidate's row holds its images under the shift generators, and a
    # candidate that depends on the earlier ones gives the kernel vector of
    # an invariant of its weight, the least n for which it has weight <= n
    act = ctx.quotient.act
    mg = sorted(ctx.m_ids)
    cands = _monomials(alg, ctx.complement_ids, n_max)
    invariants = []
    for p in (EVEN, ODD):
        sub = [m for m in cands if alg.mono_parity(m) == p]
        kernel = TaggedEchelon()
        for k, m in enumerate(sub):
            images = [act(g, m) for g in mg]
            den = lcm(*(d for _, d in images))
            # data column ~(mm * len(mg) + i) for monomial mm of image i
            row = {~(mm * len(mg) + i): v * (den // d)
                   for i, (nums, d) in enumerate(images) for mm, v in nums.items()}
            row[k] = den
            relation = kernel.add(row, k)
            if relation is not None:
                nums, d = relation
                invariants.append((alg.mono_weight(m), p, Series.over(
                    alg, {sub[t]: v for t, v in nums.items()}, d)))
    invariants.sort(key=lambda t: t[:2])
    dims = [sum(1 for w, _, _ in invariants if w <= n) for n in range(n_max + 1)]

    # weight by weight, a nonzero remainder against the products of earlier
    # generators is a new generator; the lighter invariants are already in
    # the span, so only those of weight exactly w can add to it.  A remainder
    # depends on the column order, so the columns are monomial sort keys
    def keyed(s):
        return {alg.mono_key(m): v for m, v in s.nums.items()}

    gens = []
    gseries = []
    gen_words = word_table(gseries, ctx.quotient.mul, alg.one())
    new_counts = {}
    span = Echelon()
    for w in range(n_max + 1):
        for e in _words_by_weight([g[0] for g in gens], [g[1] for g in gens], w)[w]:
            span.add(keyed(gen_words(e)))
        count = [0, 0]
        for wt, p, s in invariants:
            if wt == w:
                row = span.add(keyed(s))
                if row:
                    gseries.append(alg.series({alg.monomial(dict(k)): c
                                               for k, c in row.items()}))
                    gens.append((w, p, gseries[-1]))
                    count[p] += 1
        if any(count):
            new_counts[w] = count

    # one generator per centralizer direction, plus the odd theta when the
    # grading has one; generators of weight above n_max are out of reach at
    # this order, so they are not expected (and not reported missing)
    signature = list(ctx.grading.ge_weight_signature())
    if ctx.chi.theta_index is not None:
        signature.append((ctx.grading.weights[ctx.chi.theta_index], ODD))
    expected_counts = {}
    for wt, p in signature:
        if wt <= n_max:
            expected_counts.setdefault(wt, [0, 0])[p] += 1

    missing = []
    for w in sorted(set(expected_counts) | set(new_counts)):
        got = new_counts.get(w, [0, 0])
        want = expected_counts.get(w, [0, 0])
        if got != want:
            missing.append({"weight": w, "found": list(got), "expected": list(want)})

    expected_dims = filtration_dims([wt for wt, p in signature if p == EVEN],
                                    [wt for wt, p in signature if p == ODD], n_max)

    counts_ok = not missing
    dims_ok = dims == expected_dims
    return WhittakerResult(
        dims=dims, gens=gens, new_counts=new_counts,
        expected_counts=expected_counts, expected_dims=expected_dims,
        counts_ok=counts_ok, dims_ok=dims_ok, missing=missing,
        invariants=invariants, ok=counts_ok and dims_ok,
    )


# gens: (weight, parity, reduced Series); products: (i, j) -> list of
# (sparse word, Fraction), a word ((k, e), ...); qc: the quantum chart
SliceResult = namedtuple("SliceResult", "dims gens products chart_report invariance_ok "
                         "products_ok ok qc", defaults=(None,))


def _chart_wgens(qc):
    """Centralizer generators plus self-paired odd chart variables."""
    return list(qc.center_gens) + [e.a for e in qc.entries if e.kind == "self"]


def _gen_weight(s):
    ws = s.weights()
    if len(ws) != 1:
        raise AlgebraError("chart generator is not weight-homogeneous")
    return ws[0]


def slice_walgebra(ctx: SliceContext, order: int, qc=None) -> SliceResult:
    """W-algebra via the quantum chart around the shift directions.

    The chart's centralizer generators (and the self-paired odd variable, if
    present) specialize at hbar = 1 to invariants of the shifted enveloping
    algebra; reducing to the quotient yields exact generator representatives.
    Dimensions and products are then computed from their words in Q_chi,
    each a generator acting on a shorter word (``QuotientModule.mul``).
    """
    _check_m_abelian(ctx)
    alg = ctx.alg
    if qc is None:
        qc = ctx.quantum_chart(order)
    # certified again although build_chart kept qc.report: perfbench pins
    # the h2 star products of `walgebra`, and this certificate is in the count
    chart_report = qc.verify()

    gens = []
    for g in _chart_wgens(qc):
        w = _gen_weight(g)
        if w > order:
            # the chart only pins corrections through effective order
            # ``order``; heavier generators are not certified yet
            continue
        red = reduce_mod_chi(ctx, g.set_hbar(1))
        par = red.parity()
        if par == "mixed":
            raise AlgebraError("reduced generator has mixed parity")
        gens.append((w, par, red))
    gens.sort(key=lambda t: (t[0], t[1], repr(t[2])))

    invariance_ok = _m_invariant(ctx, [red for _, _, red in gens])

    # PBW words in the reduced generators
    weights = [w for w, _, _ in gens]
    parities = [p for _, p, _ in gens]
    gen_words = word_table([red for _, _, red in gens], ctx.quotient.mul, alg.one())

    words, basis, dims = _word_basis(gen_words, weights, parities, order)

    # products gen_i * gen_j, reported only inside the certified filtration
    # range, each expressed over the one basis of words.  The words went in
    # lightest first, so the stored ones of weight <= w span filtration piece
    # w on their own, and a product of weight w lies in that piece exactly
    # when its expression uses no heavier word
    word_weights = [sum(x * w for x, w in zip(e, weights)) for e in words]
    products = {}
    products_ok = True
    for i in range(len(gens)):
        for j in range(i, len(gens)):
            wprod = gens[i][0] + gens[j][0]
            if wprod > order:
                continue
            p = gen_words(tuple((k == i) + (k == j) for k in range(len(gens))))
            sol = basis.express(_tagged_row(p, len(words)), len(words))
            if sol is None or any(word_weights[n] > wprod for n in sol[0]):
                products_ok = False
                continue
            nums, den = sol
            products[(i, j)] = [
                (tuple((k, e) for k, e in enumerate(words[n]) if e), Fraction(nums[n], den))
                for n in sorted(nums, key=words.__getitem__)
            ]

    ok = chart_report["ok"] and invariance_ok and products_ok
    return SliceResult(
        dims=dims, gens=gens, products=products,
        chart_report=chart_report,
        invariance_ok=invariance_ok, products_ok=products_ok, ok=ok, qc=qc,
    )


CompareResult = namedtuple("CompareResult", "dims_equal counts_equal invariance_ok "
                           "span_ok blocks_ok ok")


def compare_realizations(ctx: SliceContext, n_max: int, slice_result=None,
                         whittaker_result=None) -> CompareResult:
    """Cross-validate the two routes over the same quotient.

    Checks: equal dimension tables, equal per-weight generator counts, exact
    invariance of the slice generators, membership of each slice generator in
    the solved invariant space of its weight, and per-weight leading blocks of
    full rank.
    """
    wh = whittaker_result or whittaker_walgebra(ctx, n_max)
    sl = slice_result or slice_walgebra(ctx, n_max)

    dims_equal = wh.dims == sl.dims

    counts_equal = (Counter((w, p) for w, p, _ in wh.gens)
                    == Counter((w, p) for w, p, _ in sl.gens))

    invariance_ok = sl.invariance_ok

    span_ok = True
    blocks_ok = True
    by_weight = {}
    for w, p, s in sl.gens:
        by_weight.setdefault(w, []).append((p, s))
    for w, items in sorted(by_weight.items()):
        if w > n_max:
            span_ok = False
            continue
        for p, s in items:
            # membership in the solved invariant space of its weight
            if Echelon(t.nums for wt, q, t in wh.invariants
                       if wt <= w and q == p).add(s.nums):
                span_ok = False
        # leading block: each of this weight's slice generators must add to
        # the span of the lower invariants
        lower = Echelon(t.nums for wt, _, t in wh.invariants if wt < w)
        gained = sum(1 for _, s in items if lower.add(s.nums))
        want = wh.new_counts.get(w, [0, 0])
        if gained != len(items) or gained != sum(want):
            blocks_ok = False

    ok = dims_equal and counts_equal and invariance_ok and span_ok and blocks_ok
    return CompareResult(
        dims_equal=dims_equal, counts_equal=counts_equal,
        invariance_ok=invariance_ok, span_ok=span_ok, blocks_ok=blocks_ok,
        ok=ok,
    )


SplitResult = namedtuple("SplitResult", "ok checked coeff_failures recon_failures")


def splitting_check(ctx: SliceContext, n_max: int, k: int = 2,
                    qc=None) -> SplitResult:
    """Certify the tensor-splitting of the shifted enveloping algebra.

    The chart words multiply in the chart's own star product at its cap.
    Their hbar = 1 lifts multiply in Q_chi^(k) = U(g) / U(g)·m_chi^k, one
    ``QuotientModule`` with bound k: the factors at hbar = 1 are exact and
    free of hbar, and the left ideal is stable under left multiplication, so
    each lift is the class of the product in U(g) without a monomial of the
    ideal ever being built.

    Every normal monomial of weight and total degree at most ``n_max`` is
    expanded over chart words: flattened-pair coordinates times centralizer
    words times powers of hbar.  The expansion must close through the working
    order, and specializing hbar to 1 must reproduce the monomial exactly
    modulo k-fold products of shift generators.
    """
    _check_m_abelian(ctx)
    alg = ctx.alg
    if qc is None:
        qc = ctx.quantum_chart(n_max)
    cap = qc.cap

    factors = [v for e in qc.entries if e.kind in ("even", "odd")
               for v in (e.a, e.b)] + _chart_wgens(qc)
    weights = [_gen_weight(f) for f in factors]
    parities = [f.parity() for f in factors]
    chart_words = word_table(factors, qc.backend.mul, alg.one(cap))
    module = QuotientModule(alg, ctx.quotient.table, ctx.m_ids, k)
    lift_words = word_table([f.set_hbar(1) for f in factors], module.mul, alg.one())

    targets = _monomials(alg, [v.ident for v in alg.variables if not v.hbar],
                         n_max, amax=n_max)
    coeff_failures = []
    recon_failures = []
    # weight -> (words, family of hbar-padded chart words); amax = cap because
    # every factor adds at least 1 to the completion order, the total degree
    families = {}
    for m in targets:
        W = alg.mono_weight(m)
        if W not in families:
            words, cands = _hbar_padded(chart_words, weights, parities, W, amax=cap)
            families[W] = (words, FilteredFamily(cands, cap))
        words, family = families[W]
        coeffs = expand_filtered(Series.over(alg, {m: 1}, 1, cap), family)
        if coeffs is None:
            coeff_failures.append(alg.mono_str(m))
            continue
        # reconstruction at hbar = 1 in Q_chi^(k): the integer sum of the
        # c·lift against the class of m
        groups = {}
        for exps, c in zip(words, coeffs):
            if c:
                lift = lift_words(exps)
                add_numerators(groups, lift.nums, lift.den * c.denominator, c.numerator)
        if merge_numerators(groups) != (alg.free_of({m: 1}, ctx.m_ids, k), 1):
            recon_failures.append(alg.mono_str(m))

    return SplitResult(
        ok=not coeff_failures and not recon_failures,
        checked=len(targets),
        coeff_failures=coeff_failures, recon_failures=recon_failures,
    )


def _transport(s: Series, dst: Algebra) -> Series:
    """Rewrite a series over another universe by matching variable names."""
    out = {}
    src = s.alg
    for m, v in s.nums.items():
        out[dst.monomial({dst.by_name[src.by_id[i].name].ident: e
                          for i, e in src.mono_vars(m).items()})] = v
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


def clifford_factorization(ctx: SliceContext, order: int, qc=None) -> CliffordResult:
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
        qc = ctx.quantum_chart(order)
    cap = qc.cap

    # flatten only the even shift directions: form the seeded split, then
    # demote self-paired odd leftovers so they stay centralizer generators
    even_seeds = ctx.even_m_gens()
    vectors = [alg.gen(v.name) for v in alg.variables if not v.hbar]
    plan = linear_split(ctx.poisson, vectors, seeds=even_seeds)
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
            for i in alg.mono_vars(m):
                v = alg.by_id[i]
                if not v.hbar and v.parity != EVEN:
                    even_vars_ok = False

    sub_sl = slice_walgebra(sub_ctx, order)

    def by_weight(gens):
        out = {}
        for g in gens:
            out.setdefault(_gen_weight(g), []).append(g)
        return out

    standalone_match = (by_weight(_transport(g, alg) for g in sub_sl.qc.center_gens)
                        == by_weight(even_centers))
    sub_compare_ok = compare_realizations(sub_ctx, order, slice_result=sub_sl).ok

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
