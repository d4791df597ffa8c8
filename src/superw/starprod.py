"""Star products from bracket tables, and their normal-form charts.

The product is defined by normal ordering: whenever two generators appear
out of order they are swapped at the cost of the sign rule plus ``hbar^2``
times the table entry ("h2" mode), or plus the entry alone ("unit" mode,
i.e. the enveloping-algebra product with hbar set to 1).  In h2 mode every
rewrite conserves or raises the completion order, so truncated arithmetic
never loses low-order terms.

Normal forms of generator insertions and of monomial products are memoized
as integer numerators over one denominator.  Nearly all of them are integer
(the denominators come only from the table entries and the halving of an
odd square).  ``star`` passes the monomial products to
:func:`superw.supercore.pair_sum`, the truncated term-pair loop shared with
the supercommutative product and the Poisson bracket, which multiplies and
adds Python ints, grouped by that denominator, over the inputs' numerators
and builds the result Series from integers, with no ``Fraction`` on the
way.  A monomial
product ma * mb is the memoized prefix product ma * mb', mb without its last
factor x, times x: the same steps as normal-ordering mb factor by factor, so
each prefix is done once.

The second half of the module is the quantum backend of the chart engine in
:mod:`superw.darboux`: the star product, the star commutator and the unit
``hbar^2``; the engine runs the same algorithm as for the classical chart.
Then come the Rees map and the filtration dimension count.
"""

from __future__ import annotations

from .darboux import (
    DEFAULT_GUARD,
    Chart,
    DarbouxError,
    PoissonBackend,
    build_chart,
    certify,
    equivariant_darboux,
)
from .supercore import (
    EVEN,
    ODD,
    Series,
    add_numerators,
    merge_numerators,
    pair_sum,
)


class StarAlgebra:
    def __init__(self, alg, table, hbar_mode="h2"):
        if hbar_mode not in ("h2", "unit"):
            raise ValueError("hbar_mode must be 'h2' or 'unit'")
        if hbar_mode == "h2" and alg.hbar_id is None:
            raise ValueError("h2 mode needs an hbar variable")
        self.alg = alg
        self.table = table
        self.hbar_mode = hbar_mode
        self._insert_memo = {}
        self._word_memo = {}

    # -- normal ordering ----------------------------------------------
    #
    # Normal forms are ``(nums, den)``: integer numerators keyed by monomial
    # over one denominator, the form of ``Series.nums`` and ``Series.den``.

    def _entry_term(self, i, j):
        """hbar^2 c_ij (or c_ij in unit mode) as an exact Series."""
        c = self.table.entry(i, j)
        if self.hbar_mode == "h2" and not c.is_zero():
            c = c.mul_hbar(2)
        return c

    def _insert(self, m, x):
        """Normal form of (normal monomial m) * (generator x) (memoized).

        With m = rest * j and j > x this is (rest * x) * j, sign-swapped, plus
        rest times the entry term.  The descent over m runs in a loop down to
        the longest memoized or directly known prefix, and the normal forms
        are built back up from there, so a long m needs no deep recursion.
        """
        memo = self._insert_memo
        out = memo.get((m, x))
        if out is not None:
            return out
        alg = self.alg
        chain = []  # (word, its last generator, its prefix) on the way down
        while m:
            j, rest = alg.split_last(m)
            if j <= x:
                break
            chain.append((m, j, rest))
            m = rest
            out = memo.get((m, x))
            if out is not None:
                break
        if out is None:  # m is empty or ends in a generator up to x
            n = alg.times_last(m, x)
            if n is not None:
                out = {n: 1}, 1
            else:  # x is odd and ends m: x * x is half the entry term
                nums, den = self._word_mul(rest, self._entry_term(x, x))
                out = merge_numerators({den: nums}, 2)
            memo[(m, x)] = out
        for m, j, rest in reversed(chain):
            nums, den = out
            if alg.by_id[j].parity and alg.by_id[x].parity:
                nums = {n: -c for n, c in nums.items()}
            groups = self._spread(nums, j)
            ent, ed = self._word_mul(rest, self._entry_term(j, x))
            # the swapped terms are over den; bring the entry term there
            add_numerators(groups, ent, ed, den)
            out = memo[(m, x)] = merge_numerators(groups, den)
        return out

    def _spread(self, nums, x):
        """Integer numerator groups of sum_n nums[n] * (n * generator x)."""
        insert = self._insert
        ones = {}  # the group of 1, nearly every insertion's, filled in place
        get = ones.get
        groups = {1: ones}
        for n, c in nums.items():
            ins, d = insert(n, x)
            if d == 1:
                for m, v in ins.items():
                    ones[m] = get(m, 0) + c * v
            else:
                add_numerators(groups, ins, d, c)
        return groups

    def _word_mul(self, m, s):
        """Normal form of (normal monomial m) * (polynomial s)."""
        groups = {}
        for mono, c in s.nums.items():
            wn, wd = self._word(m, mono)
            add_numerators(groups, wn, wd, c)
        return merge_numerators(groups, s.den)

    def _word(self, ma, mb):
        """Normal form of ma * mb for normal monomials, as (ma * mb') * x
        with x the last factor of mb (memoized, prefixes included).

        The prefixes mb' are walked down in a loop to the longest memoized
        one and the products built back up from it, without recursion.
        """
        if not mb:
            return {ma: 1}, 1
        if not ma:
            return {mb: 1}, 1
        memo = self._word_memo
        out = memo.get((ma, mb))
        if out is not None:
            return out
        split_last = self.alg.split_last
        chain = []  # (mb, its last factor) for mb and its prefixes built on the way up
        while out is None:
            x, rest = split_last(mb)
            chain.append((mb, x))
            mb = rest
            out = memo.get((ma, mb)) if mb else ({ma: 1}, 1)
        for mb, x in reversed(chain):
            nums, den = out
            out = memo[(ma, mb)] = merge_numerators(self._spread(nums, x), den)
        return out

    # -- products and commutators -------------------------------------

    def star(self, f, g, order="auto"):
        if f.alg is not self.alg or g.alg is not self.alg:
            raise ValueError("series from a different universe")
        if order == "auto":
            order = f._join_order(g)
        if self.hbar_mode == "unit" and order is not None:
            raise ValueError("unit mode is exact; truncated input makes no sense")
        return pair_sum(f, g, order, self._word)

    def commutator(self, f, g, order="auto"):
        """Graded commutator f*g -+ g*f, split over parity components."""
        out = None
        for pf, fc in _parity_parts(f):
            for pg, gc in _parity_parts(g):
                t = self.star(fc, gc, order)
                u = self.star(gc, fc, order)
                t = t + u if (pf and pg) else t - u
                out = t if out is None else out + t
        return self.alg.zero() if out is None else out


def _parity_parts(s):
    p = s.parity()
    if p != "mixed":
        return [] if p is None else [(p, s)]
    alg = s.alg
    ev, od = {}, {}
    for m, v in s.nums.items():
        (od if alg.mono_parity(m) else ev)[m] = v
    return [(EVEN, Series.over(alg, ev, s.den, s.order)),
            (ODD, Series.over(alg, od, s.den, s.order))]


# -- the quantum backend of the chart engine ----------------------------


class StarBackend(PoissonBackend):
    """The quantum bracket backend of the chart engine.

    The product is the star product at the cap, the residual bracket is the
    star commutator, and the unit is ``hbar^2``: a commutator is ``hbar^2``
    times a bracket, so dividing by the unit gives the derivation that
    replaces the Poisson bracket.  The even correction, the odd
    normalizations and the projections are the engine's, as for the
    classical backend; the Newton step of the odd normalizations multiplies
    in the star product.
    """

    kind = "quantum"
    unit_level = 2

    def __init__(self, S, P, order, guard):
        super().__init__(P, order, guard)
        self.S = S
        self._bracket = S.commutator

    def mul(self, a, b):
        return self.S.star(a, b, order=self.cap)


class QuantumChart(Chart):
    # perfbench times a method only when it is found in the class's own
    # namespace (vars(cls)); defining verify here keeps the quantum
    # certificates a span of their own, apart from the classical Chart.verify.
    def verify(self):
        """Exact residual certificates through the report order."""
        return certify(self)


def quantum_darboux(S, P, order, seeds=None, guard=DEFAULT_GUARD, classical=None):
    """Quantum Darboux chart: the classical chart is built first, then each
    entry is reprojected and renormalized at the star level in the same
    order, and the leftover directions become quantum centralizer
    generators."""
    if classical is None:
        classical = equivariant_darboux(P, order, seeds=seeds, guard=guard)
    qc = build_chart(QuantumChart, StarBackend(S, P, order, guard),
                     [(e.kind, e.variables()) for e in classical.entries],
                     classical.center_gens)

    # Quantum corrections must never drift the classical linear seed: the
    # difference from the classical chart stays inside (variables)^2 + hbar
    # times (variables), with no constant or bare-linear terms.
    alg = S.alg
    for ce, qe in zip(classical.entries, qc.entries):
        for c, q in zip(ce.variables(), qe.variables()):
            d = q - c.truncate(qc.cap)
            for m in d.nums:
                rest, k = alg.split_hbar(m)
                adeg = alg.mono_degree(rest)
                if adeg == 0 or (adeg == 1 and not k):
                    raise DarbouxError(
                        "quantum correction drifted the linear part: "
                        f"{alg.mono_str(m)}")
    return qc


# -- filtration utilities ---------------------------------------------


def filtration_dims(even_weights, odd_weights, n_max):
    """Cumulative dimensions of the span of ordered monomials in generators
    of the given weights, filtered by total weight.

    All weights must be positive, otherwise the count is infinite.
    """
    if any(w <= 0 for w in list(even_weights) + list(odd_weights)):
        raise ValueError("filtration_dims needs strictly positive weights")
    graded = [0] * (n_max + 1)
    graded[0] = 1
    for w in even_weights:
        for n in range(w, n_max + 1):
            graded[n] += graded[n - w]
    for w in odd_weights:
        for n in range(n_max, w - 1, -1):
            graded[n] += graded[n - w]
    out = []
    tot = 0
    for n in range(n_max + 1):
        tot += graded[n]
        out.append(tot)
    return out


def rees_map(s):
    """Tag every monomial with hbar to the power of its variable weight.

    A weight-w monomial carrying hbar^j goes to the same monomial carrying
    hbar^(w+j), where w counts only the non-hbar factors.  The map is a
    section of :func:`rees_inverse` and multiplies weights against the
    supercommutative product; against the star product it is only an
    isomorphism on top-weight symbols (the star corrections change the
    hbar-tag, which is exactly what the filtered story predicts).
    """
    return _rees_shift(s, 1)


def rees_inverse(s):
    """Strip the weight-tag hbar powers put on by :func:`rees_map`."""
    return _rees_shift(s, -1)


def _rees_shift(s, sign):
    """Move each monomial's hbar exponent by sign times its variable weight.

    The shift is injective on monomials, so no two terms meet.
    """
    alg = s.alg
    if alg.hbar_id is None:
        raise ValueError("universe has no hbar variable")
    out = {}
    for m, v in s.nums.items():
        rest, k = alg.split_hbar(m)
        w = alg.mono_weight(rest)
        if sign > 0 and w < 0:
            raise ValueError("negative-weight monomial has no Rees image")
        if k + sign * w < 0:
            raise ValueError(
                f"{alg.mono_str(m)} is not in the Rees image (needs hbar^{w})")
        out[alg.join_hbar(rest, k + sign * w)] = v
    return Series.over(alg, out, s.den, s.order)
