"""Star products from bracket tables, and their normal-form charts.

Every product of generators in the package is normal ordering by one rule,
the left action of a generator (``LeftAction``): v·(x·m') = ±x·(v·m') +
hbar^s [v, x]·m' for a normal monomial x·m' whose first factor x is below v.
With s = 2 it is the hbar^2 star product (``StarAlgebra``): every rewrite
conserves or raises the completion order, so truncated arithmetic never
loses low-order terms, and the fibre at hbar = 1 is the enveloping algebra:
for exact inputs the product is a polynomial in hbar, and
``star(a, b).set_hbar(1)`` is the product in U(g).  With s = 0 and a bound
on the shift factors it is the product of the Whittaker module Q_chi^(k)
(``wslice.QuotientModule``).

The actions of generators and the monomial products are memoized as integer
numerators over one denominator.  Nearly all of them are integer (the
denominators come only from the table entries and the halving of an odd
square).  ``star`` passes the monomial products and their memo to
:func:`superw.supercore.pair_sum`, the truncated term-pair loop shared with
the supercommutative product and the Poisson bracket, which reads a
memoized product without a call (a one-factor word is an action, read from
the action memo through ``_word``, so no value is kept twice), multiplies and
adds Python ints, grouped by that denominator, over the inputs' numerators
and builds the result Series from integers, with no ``Fraction`` on the
way.  A monomial product ma * mb is x·(ma' * mb), with x the first factor of
ma and ma' the rest: each factor acts in turn, and each suffix of ma is done
once.

The second half of the module is the quantum backend of the chart engine in
:mod:`superw.darboux`: the star product, the star commutator and the unit
``hbar^2``; the engine runs the same algorithm as for the classical chart.
The quantum chart is built from a classical chart alone: its seeds, bracket
table, order and guard are that chart's.  Then come the Rees map and the
filtration dimension count.
"""

from __future__ import annotations

from .darboux import Chart, DarbouxError, PoissonBackend, build_chart, certify
from .supercore import Series, add_numerators, merge_numerators, pair_sum


class LeftAction:
    """The left action of a generator on normal monomials, and the monomial
    products it gives.

    For a generator v and a normal monomial m = x·m', x its first
    (smallest-id) factor, ``act(v, m)`` is v·m in normal form:

    - v < x, or v = x even, or m = 1: v·m is the normal monomial itself;
    - v = x odd: v·v = hbar^s [v, v] / 2, so v·m = hbar^s [v, v]·m' / 2;
    - v > x: v·(x·m') = ±x·(v·m') + hbar^s [v, x]·m', minus for two odd
      factors.

    s is ``unit_level``, and hbar, being central, acts by multiplication.
    Each term of a table entry gives its monomial product with hbar^s m'
    (``_word``, the action itself for a linear term).  Given shift ids
    ``m_ids`` and a bound ``k``, a shift generator that would make k shift
    factors gives 0.  Values are ``(nums, den)`` in lowest terms, the form
    of ``Series.nums`` and ``Series.den``.
    """

    def __init__(self, alg, table, unit_level, m_ids=frozenset(), k=None):
        self.alg = alg
        self.table = table
        self.unit_level = unit_level
        self.m_ids = m_ids
        self.k = k
        self._act_memo = {}
        self._word_memo = {}

    def _add_bracket(self, groups, v, x, rest, c):
        """Add c times hbar^s [v, x]·rest to ``groups``: each monomial of the
        table entry [v, x] is a word that ``_word`` puts in front of hbar^s
        rest."""
        entry = self.table.entry(v, x)
        if self.unit_level:
            alg = self.alg
            rest, e = alg.split_hbar(rest)
            rest = alg.join_hbar(rest, e + self.unit_level)
        word, bden = self._word, entry.den
        for mono, b in entry.nums.items():
            yn, yd = word(mono, rest)
            add_numerators(groups, yn, yd * bden, b * c)

    def act(self, v, m):
        """v·m in normal form (memoized).  The descent m → m' runs in a loop
        while v is above the first factor, down to the longest memoized suffix
        or a direct case, and the normal forms are built back up from there,
        so a long m needs no deep recursion."""
        memo = self._act_memo
        out = memo.get((v, m))
        if out is not None:
            return out
        alg = self.alg
        if v == alg.hbar_id:  # hbar is central
            out = memo[(v, m)] = {alg.times_last(m, v): 1}, 1
            return out
        odd = alg.by_id[v].parity
        chain = []  # (monomial, its first factor, the rest) on the way down
        while m:
            x, rest = alg.split_first(m)
            if x >= v:
                break
            chain.append((m, x, rest))
            m = rest
            out = memo.get((v, m))
            if out is not None:
                break
        if out is None:  # m is 1 or starts with a factor of at least v
            if m and x == v and odd:  # v·v is half the bracket
                groups = {}
                self._add_bracket(groups, v, v, rest, 1)
                out = merge_numerators(groups, 2)
            elif v in self.m_ids and alg.mono_degree(m, self.m_ids) >= self.k - 1:
                out = {}, 1
            else:
                out = {alg.times_last(m, v): 1}, 1
            memo[(v, m)] = out
        for m, x, rest in reversed(chain):
            nums, den = out
            groups = {}
            if nums:  # x·(v·m'), minus for two odd factors
                groups = self._act_sum(nums, x, -1 if odd and alg.by_id[x].parity else 1)
            # the swapped terms are over den; bring the bracket terms there
            self._add_bracket(groups, v, x, rest, den)
            out = memo[(v, m)] = merge_numerators(groups, den)
        return out

    def _act_sum(self, nums, v, sign=1):
        """Integer numerator groups of sign times sum_n nums[n]·(v·n)."""
        if sign < 0:
            nums = {n: -c for n, c in nums.items()}
        act = self.act
        ones = {}  # the group of 1, nearly every action's, filled in place
        get = ones.get
        groups = {1: ones}
        for n, c in nums.items():
            an, d = act(v, n)
            if d == 1:
                for m, a in an.items():
                    ones[m] = get(m, 0) + c * a
            else:
                add_numerators(groups, an, d, c)
        return groups

    def _word(self, ma, mb):
        """ma·mb in normal form, as x·(ma'·mb) with x the first factor of ma,
        memoized with the suffixes ma' in the loop of ``act``; a word of one
        factor is its action."""
        gen_of = self.alg.gen_of
        y = gen_of.get(ma)
        if y is not None:  # one factor: its action, memoized there
            return self.act(y, mb)
        if not ma:
            return {mb: 1}, 1
        memo = self._word_memo
        split_first = self.alg.split_first
        chain = []  # (ma and its suffixes, their first factors) on the way down
        while True:
            out = memo.get((ma, mb))
            if out is not None:
                break
            x, rest = split_first(ma)
            chain.append((ma, x))
            ma = rest
            y = gen_of.get(ma)
            if y is not None:
                out = self.act(y, mb)
                break
        for ma, x in reversed(chain):
            nums, den = out
            out = memo[(ma, mb)] = merge_numerators(self._act_sum(nums, x), den)
        return out


class StarAlgebra(LeftAction):
    """The hbar^2 star product: the left action with unit level 2."""

    # perfbench names the span of ``star`` after this attribute
    # ("starprod.star.h2"), and its pinned counts read that key
    hbar_mode = "h2"

    def __init__(self, alg, table):
        super().__init__(alg, table, 2)

    # -- products and commutators -------------------------------------

    def star(self, f, g, order):
        """Star product of two series, read as polynomials, exactly through
        ``order`` (None: the exact product)."""
        if f.alg is not self.alg or g.alg is not self.alg:
            raise ValueError("series from a different universe")
        return pair_sum(f, g, order, self._word, memo=self._word_memo)

    def commutator(self, f, g, order):
        """Graded commutator f*g -+ g*f of parity-homogeneous series, exactly
        through ``order``; zero when either is zero."""
        pf, pg = f.parity(), g.parity()
        if "mixed" in (pf, pg):
            raise ValueError("commutator needs parity-homogeneous arguments")
        if pf is None or pg is None:
            return self.alg.zero()
        t, u = self.star(f, g, order), self.star(g, f, order)
        return t + u if pf and pg else t - u


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
        self.drop = 0  # a star product never lowers a completion order
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


def quantum_darboux(S, classical):
    """Quantum Darboux chart of a classical chart: each entry is reprojected
    and renormalized at the star level in the same order, and the leftover
    directions become quantum centralizer generators.  The bracket table,
    the order and the guard are the classical chart's."""
    B = classical.backend
    qc = build_chart(QuantumChart, StarBackend(S, B.P, B.order, B.guard),
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
                adeg = alg.mono_eff(rest)
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
