"""The integer-numerator product kernels against their Fraction originals.

``Series.__mul__``, ``PoissonAlgebra.bracket`` and ``StarAlgebra.star`` run
through one truncated term-pair loop, ``supercore.pair_sum``, and the
bracket and star kernels memoize integer numerators over one denominator.
The function and classes below are the earlier products, kept as oracles:
they accumulate one ``Fraction`` per multiply-add and memoize ``Series``.
They work on the earlier ``((id, exponent), ...)`` tuple monomials with
the tuple helpers of ``test_monomials``: a packed monomial of the package is
read as its tuple through ``Algebra.mono_key`` and a tuple is packed back
with ``Algebra.monomial``, so no oracle runs the packed arithmetic.
"""

import ast
import inspect
import random
import sys
from fractions import Fraction
from math import gcd, prod

import pytest

from superw import poisson, starprod, supercore
from superw.algebras import load_algebra
from superw.poisson import PoissonAlgebra
from superw.starprod import StarAlgebra
from superw.supercore import EVEN, ODD, Series
from superw.wslice import QuotientModule, slice_setup
from test_darboux import _twisted_odd
from test_monomials import TupleMonomials

ALGEBRAS = ("sl2", "gl11", "osp12", "sl21")
PRIME30 = 100000000000000000000000000319  # the least prime above 10**29
DENOMINATORS = (1, 2, 3, 7, PRIME30)


def _reference_mul(self, other):
    """``Series.__mul__`` with its own truncated loop over term pairs."""
    if isinstance(other, (int, Fraction)):
        c = Fraction(other)
        if not c:
            return Series(self.alg, {}).truncate(self.order)
        terms = {m: c * v for m, v in self.terms.items()}
        return Series(self.alg, terms).truncate(self.order)
    other = self._coerce(other)
    order = self._join_order(other)
    alg = self.alg
    ref, key = TupleMonomials(alg), alg.mono_key
    b_items = [(m, c, ref.mono_eff(key(m))) for m, c in other.terms.items()]
    out = {}
    for ma, ca in self.terms.items():
        budget = None if order is None else order - ref.mono_eff(key(ma))
        for mb, cb, eb in b_items:
            if budget is not None and eb > budget:
                continue
            r = ref.mono_mul(key(ma), key(mb))
            if r is None:
                continue
            m, s = alg.monomial(dict(r[0])), r[1]
            c = out.get(m)
            v = ca * cb if s > 0 else -ca * cb
            if c is None:
                out[m] = v
            else:
                c += v
                if c:
                    out[m] = c
                else:
                    del out[m]
    return Series(alg, out).truncate(order)


class _ReferenceStar:
    def __init__(self, alg, table, hbar_mode="h2"):
        if hbar_mode not in ("h2", "unit"):
            raise ValueError("hbar_mode must be 'h2' or 'unit'")
        if hbar_mode == "h2" and alg.hbar_id is None:
            raise ValueError("h2 mode needs an hbar variable")
        self.alg = alg
        self.ref = TupleMonomials(alg)
        self.table = table
        self.hbar_mode = hbar_mode
        self._insert_memo = {}
        self._word_memo = {}

    # -- normal ordering ----------------------------------------------
    #
    # Normal forms are Series over tuple monomials; only ``_entry_term``
    # and ``star`` meet the packed monomials of the package.

    def _entry_term(self, i, j):
        """hbar^2 c_ij (or c_ij in unit mode) as an exact Series."""
        c = self.table.entry(i, j)
        terms = {self.alg.mono_key(m): v for m, v in c.terms.items()}
        if self.hbar_mode == "h2":
            shifted = {}
            for m, v in terms.items():
                rest, k = self.ref.split_hbar(m)
                shifted[self.ref.join_hbar(rest, k + 2)] = v
            terms = shifted
        return Series(self.alg, terms)

    def _insert(self, m, x):
        """Normal form of (normal monomial m) * (generator x), exact."""
        memo = self._insert_memo
        out = memo.get((m, x))
        if out is not None:
            return out
        alg = self.alg
        if not m:
            out = alg.series({((x, 1),): Fraction(1)})
        else:
            j, e = m[-1]
            if j < x:
                out = alg.series({m + ((x, 1),): Fraction(1)})
            elif j == x:
                if alg.by_id[x].parity == EVEN:
                    out = alg.series({m[:-1] + ((j, e + 1),): Fraction(1)})
                else:
                    rest = m[:-1]
                    out = self._word_mul(rest, self._entry_term(x, x)) * Fraction(1, 2)
            else:
                rest = m[:-1] if e == 1 else m[:-1] + ((j, e - 1),)
                swapped = self.alg.zero()
                for n, c in self._insert(rest, x).terms.items():
                    swapped = swapped + self._insert(n, j) * c
                if alg.by_id[j].parity and alg.by_id[x].parity:
                    swapped = -swapped
                out = swapped + self._word_mul(rest, self._entry_term(j, x))
        memo[(m, x)] = out
        return out

    def _word_mul(self, m, s):
        """Normal form of (normal monomial m) * (polynomial s), exact."""
        if s.is_zero():
            return s
        acc = {}
        for mono, c in s.terms.items():
            w = self._word(m, mono)
            for n, v in w.terms.items():
                acc[n] = acc.get(n, Fraction(0)) + c * v
        return Series(self.alg, acc)

    def _word(self, ma, mb):
        """Normal form of ma * mb for normal monomials, exact (memoized)."""
        if not mb:
            return self.alg.series({ma: Fraction(1)})
        if not ma:
            return self.alg.series({mb: Fraction(1)})
        memo = self._word_memo
        out = memo.get((ma, mb))
        if out is not None:
            return out
        cur = self.alg.series({ma: Fraction(1)})
        for i, e in mb:
            for _ in range(e):
                acc = {}
                for n, c in cur.terms.items():
                    for n2, v in self._insert(n, i).terms.items():
                        acc[n2] = acc.get(n2, Fraction(0)) + c * v
                cur = Series(self.alg, acc)
        memo[(ma, mb)] = cur
        return cur

    # -- products and commutators -------------------------------------

    def star(self, f, g, order):
        if f.alg is not self.alg or g.alg is not self.alg:
            raise ValueError("series from a different universe")
        if self.hbar_mode == "unit" and order is not None:
            raise ValueError("unit mode is exact; truncated input makes no sense")
        alg = self.alg
        key, eff = alg.mono_key, self.ref.mono_eff
        acc = {}
        for ma, ca in f.terms.items():
            ea = eff(key(ma))
            for mb, cb in g.terms.items():
                if order is not None and ea + eff(key(mb)) > order:
                    continue
                w = self._word(key(ma), key(mb))
                c = ca * cb
                for m, v in w.terms.items():
                    t = acc.get(m)
                    if t is None:
                        acc[m] = c * v
                    else:
                        t += c * v
                        if t:
                            acc[m] = t
                        else:
                            del acc[m]
        return Series(alg, {alg.monomial(dict(m)): v for m, v in acc.items()}).truncate(order)


class _ReferencePoisson:
    """A bracket table promoted to a full Poisson bracket via Leibniz."""

    def __init__(self, alg, table):
        self.alg = alg
        self.ref = TupleMonomials(alg)
        self.table = table
        self._memo = {}

    # -- the bracket on monomials (exact) -----------------------------
    #
    # The memo is keyed by tuple monomials; the values are package Series.

    def mono_bracket(self, ma, mb):
        memo = self._memo
        out = memo.get((ma, mb))
        if out is not None:
            return out
        alg = self.alg

        def series(m):
            return alg.series({alg.monomial(dict(m)): Fraction(1)})

        if not ma or not mb:
            out = alg.zero()
        elif len(ma) == 1 and ma[0][1] == 1:
            i = ma[0][0]
            if len(mb) == 1 and mb[0][1] == 1:
                out = self.table.entry(i, mb[0][0])
            else:
                # split mb = y * rest and apply the Leibniz rule on the right
                j, e = mb[0]
                y = ((j, 1),)
                rest = mb[1:] if e == 1 else ((j, e - 1),) + mb[1:]
                head = _reference_mul(self.mono_bracket(ma, y), series(rest))
                tail = _reference_mul(series(y), self.mono_bracket(ma, rest))
                if alg.by_id[i].parity and alg.by_id[j].parity:
                    tail = -tail
                out = head + tail
        else:
            # split ma = x * rest and apply the Leibniz rule on the left
            i, e = ma[0]
            x = ((i, 1),)
            rest = ma[1:] if e == 1 else ((i, e - 1),) + ma[1:]
            head = _reference_mul(series(x), self.mono_bracket(rest, mb))
            tail = _reference_mul(self.mono_bracket(x, mb), series(rest))
            if self.ref.mono_parity(rest) and self.ref.mono_parity(mb):
                tail = -tail
            out = head + tail
        memo[(ma, mb)] = out
        return out

    # -- the bracket on series ----------------------------------------

    def bracket(self, f, g, order):
        """Poisson bracket of two series, read as polynomials, exactly
        through ``order`` (None: exact): a monomial pair is skipped only
        when the table drop cannot bring its terms down to it."""
        if f.alg is not self.alg or g.alg is not self.alg:
            raise ValueError("series from a different universe")
        drop = self.table.drop
        alg = self.alg
        key, eff = alg.mono_key, self.ref.mono_eff
        acc = {}
        for ma, ca in f.terms.items():
            ea = eff(key(ma))
            for mb, cb in g.terms.items():
                if order is not None and ea + eff(key(mb)) - drop > order:
                    continue
                br = self.mono_bracket(key(ma), key(mb))
                if not br.terms:
                    continue
                c = ca * cb
                for m, v in br.terms.items():
                    w = acc.get(m)
                    if w is None:
                        acc[m] = c * v
                    else:
                        w += c * v
                        if w:
                            acc[m] = w
                        else:
                            del acc[m]
        return Series(alg, acc).truncate(order)


@pytest.fixture(scope="module")
def contexts():
    return {name: slice_setup(load_algebra(name)) for name in ALGEBRAS}


def rand_series(rng, alg, nterms, parity=None, max_deg=4):
    """Random monomials, hbar powers included, with coefficients over
    DENOMINATORS; mixed parity unless one is asked for."""
    terms = {}
    while len(terms) < nterms:
        mono = []
        for v in alg.variables:
            if v.hbar:
                k = rng.randrange(3)
            elif rng.random() < 0.35:
                k = rng.randrange(1, 3 if v.parity == EVEN else 2)
            else:
                k = 0
            if k:
                mono.append((v.ident, k))
        if sum(e for _, e in mono) > max_deg:
            continue
        m = alg.monomial(dict(mono))
        if parity is not None and alg.mono_parity(m) != parity:
            continue
        terms[m] = rand_coeff(rng)
    return Series(alg, terms)


def rand_coeff(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randrange(1, 12), rng.choice(DENOMINATORS))


def generator_pairs(rng, alg):
    """Every ordered pair of generators, scaled at random, the second one
    also times a random monomial: each table entry and its denominator is
    reached this way."""
    gens = [alg.gen(v.name) for v in alg.variables if not v.hbar]
    for x in gens:
        for y in gens:
            yield (x * rand_coeff(rng),
                   y * rand_series(rng, alg, 1, max_deg=2))


def assert_same(got, want):
    assert got.terms == want.terms
    assert got.order == want.order
    assert all(type(c) is Fraction for c in got.terms.values())


def assert_integer_memo(memo):
    """Every memoized value is (integer numerators, positive denominator)
    in lowest terms, with no zero numerator."""
    assert memo
    for nums, den in memo.values():
        assert type(den) is int and den > 0
        assert all(type(v) is int and v for v in nums.values())
        assert gcd(den, *nums.values()) == 1


ORDERS = (None, 0, 1, 2, 3, 4, 5, 6)


def star_pair(alg, table, mode):
    """The package's star product and the reference's for ``mode``, as a
    function of (a, b, order) giving the two products to compare.

    In "h2" mode both are the hbar^2 star product.  In "unit" mode the
    reference is the product of U(g) with hbar a central variable; the
    package has one star product, whose value at hbar = 1 must then equal
    the reference's at hbar = 1, on exact inputs.
    """
    S, R = StarAlgebra(alg, table), _ReferenceStar(alg, table, mode)
    if mode == "h2":
        return S, R, lambda a, b, order=None: (S.star(a, b, order), R.star(a, b, order))
    return S, R, lambda a, b, order=None: (S.star(a, b, order).set_hbar(1),
                                           R.star(a, b, order).set_hbar(1))


@pytest.mark.parametrize("name", ALGEBRAS)
def test_product_matches_fraction_reference(contexts, name):
    alg = contexts[name].alg
    rng = random.Random("mul:%s" % name)
    for _ in range(8):
        f = rand_series(rng, alg, rng.randrange(1, 6))
        g = rand_series(rng, alg, rng.randrange(1, 6))
        for order in ORDERS:
            if order is None:
                # untruncated, and truncated at two independent orders
                pairs = [(f, g), (f.truncate(rng.randrange(7)), g.truncate(rng.randrange(7)))]
            else:
                pairs = [(f.truncate(order), g), (f, g.truncate(order)),
                         (f.truncate(order), g.truncate(order + 1))]
            for a, b in pairs:
                assert_same(a * b, _reference_mul(a, b))
                assert_same(b * a, _reference_mul(b, a))
        for c in (0, 3, rand_coeff(rng)):
            assert_same(f * c, _reference_mul(f, c))
    # odd x, y anticommute, so (a x + b y)(k a x + k b y) cancels term by term
    h = alg.gen(alg.by_id[alg.hbar_id].name)
    a, b, k = Fraction(1, 3), Fraction(-2, 7), Fraction(5, PRIME30)
    odd = [v.ident for v in alg.variables if v.parity == ODD]
    for x in odd:
        for y in odd:
            if x >= y:
                continue
            f = Series(alg, {alg.gen_mono[x]: a, alg.gen_mono[y]: b})
            for u, v in ((f, f * k), (f * h, f * k), (f * k, (f * h * h).truncate(3))):
                got = u * v
                assert got.is_zero()
                assert_same(got, _reference_mul(u, v))


def _star_input(contexts, name):
    """The universe and bracket table of a catalog algebra, or of the twisted
    odd pair, whose entries x and x^2 include one that is not linear."""
    if name == "twisted":
        alg, P = _twisted_odd(hbar=True)
        return alg, P.table
    return contexts[name].alg, contexts[name].poisson.table


@pytest.mark.parametrize("mode", ["h2", "unit"])
@pytest.mark.parametrize("name", ALGEBRAS + ("twisted",))
def test_star_matches_fraction_reference(contexts, name, mode):
    alg, table = _star_input(contexts, name)
    S, R, both = star_pair(alg, table, mode)
    rng = random.Random("star:%s:%s" % (name, mode))
    orders = ORDERS if mode == "h2" else (None,)
    for _ in range(4):
        f = rand_series(rng, alg, rng.randrange(1, 5))
        g = rand_series(rng, alg, rng.randrange(1, 5))
        for order in orders:
            assert_same(*both(f, g, order))
            assert_same(*both(g, f, order))
    for a, b in generator_pairs(rng, alg):
        assert_same(*both(a, b))
        assert_same(*both(b, a))
    assert_integer_memo(S._act_memo)
    assert_integer_memo(S._word_memo)
    if name == "twisted":
        # t2 t2 = hbar^2 x^2 / 2: the entry x^2 acts as a monomial product
        x2 = alg.monomial({alg.by_name["x"].ident: 2})
        assert any(ma == x2 for ma, _ in S._word_memo)


@pytest.mark.parametrize("name", ALGEBRAS + ("twisted",))
def test_bracket_matches_fraction_reference(contexts, name):
    # the twisted pair's entries 1 + x and x^2 make each {x, y}·(mb/y)
    # term of the Leibniz sum more than one monomial product
    alg, table = _star_input(contexts, name)
    P, R = PoissonAlgebra(alg, table), _ReferencePoisson(alg, table)
    rng = random.Random("bracket:%s" % name)
    for _ in range(6):
        f = rand_series(rng, alg, rng.randrange(1, 5))
        g = rand_series(rng, alg, rng.randrange(1, 5))
        for order in ORDERS:
            assert_same(P.bracket(f, g, order), R.bracket(f, g, order))
            assert_same(P.bracket(g, f, order), R.bracket(g, f, order))
    for a, b in generator_pairs(rng, alg):
        assert_same(P.bracket(a, b, None), R.bracket(a, b, None))
        assert_same(P.bracket(b, a, None), R.bracket(b, a, None))
    assert_integer_memo(P._memo)


def _anticommuting_odd_pairs(alg, table):
    """Odd generators x, y with {x,x} = {y,y} = {x,y} = 0, so that
    (a x + b y) times any multiple of itself vanishes."""
    odd = [v.ident for v in alg.variables if v.parity == ODD]
    free = [i for i in odd if table.entry(i, i).is_zero()]
    return [(x, y) for x in free for y in free
            if x < y and table.entry(x, y).is_zero()]


@pytest.mark.parametrize("name", ALGEBRAS)
def test_products_that_cancel_to_zero(contexts, name):
    ctx = contexts[name]
    alg, table = ctx.alg, ctx.poisson.table
    h = alg.gen(alg.by_id[alg.hbar_id].name)
    a, b, k = Fraction(1, 3), Fraction(-2, 7), Fraction(5, PRIME30)
    # (a x + b y)(k a x + k b y) = k a b (x y + y x) = 0 term by term
    for x, y in _anticommuting_odd_pairs(alg, table):
        f = Series(alg, {alg.gen_mono[x]: a, alg.gen_mono[y]: b})
        for mode in ("h2", "unit"):
            S, R, both = star_pair(alg, table, mode)
            for u, v in ((f, f * k), (f * h, f * k), (f * k, f * h * h)):
                got, want = both(u, v)
                assert got.is_zero()
                assert_same(got, want)
            if mode == "h2":
                got = S.star(f * h, f * k, 3)
                assert got.is_zero() and got.order == 3
                assert_same(got, R.star(f * h, f * k, 3))
    # an even f has {f, f} = 0: every pair meets its mirror and cancels
    rng = random.Random("cancel:%s" % name)
    P, R = PoissonAlgebra(alg, table), _ReferencePoisson(alg, table)
    for _ in range(4):
        f = rand_series(rng, alg, 4, parity=EVEN)
        for order in (None, 2, 5):
            got = P.bracket(f, f, order)
            assert got.is_zero() and got.order == order
            assert_same(got, R.bracket(f, f, order))


def test_some_catalog_algebra_has_anticommuting_odd_pairs(contexts):
    # keeps the star half of the cancellation test from running empty
    assert any(_anticommuting_odd_pairs(ctx.alg, ctx.poisson.table)
               for ctx in contexts.values())


def test_kernels_use_only_the_public_fraction_api():
    # Fraction's private helpers differ between Python versions (3.12
    # rewrote them), so the kernels may use numerator, denominator and the
    # constructor only
    private = {a for a in dir(Fraction) if a.startswith("_") and not a.startswith("__")}
    private |= {"_numerator", "_denominator", "_from_coprime_ints"}
    for mod in (supercore, poisson, starprod):
        tree = ast.parse(inspect.getsource(mod))
        used = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        assert not used & private, (mod.__name__, used & private)


@pytest.mark.parametrize("mode", ["h2", "unit"])
@pytest.mark.parametrize("name", ["sl2", "sl21"])
def test_star_words_with_shared_prefixes(contexts, name, mode):
    # f^k * e^j h^i for j <= k <= 6 in shuffled order (f comes after e and h
    # in the universe, so every e and h is swapped past f^k), and the
    # reverse: the left words are long powers whose suffixes other products
    # have memoized, and every memoized suffix product must equal the
    # reference word
    ctx = contexts[name]
    alg, table = ctx.alg, ctx.poisson.table
    S, R, both = star_pair(alg, table, mode)
    e, h, f = (alg.gen(x) for x in ("e", "h", "f"))
    one = alg.one()
    pairs = [(prod([f] * k, start=one), prod([e] * j + [h] * i, start=one))
             for k in range(1, 7) for j in range(k + 1) for i in range(2)]
    random.Random("prefix:%s:%s" % (name, mode)).shuffle(pairs)
    for a, b in pairs:
        assert_same(*both(a, b))
        assert_same(*both(b, a))
    assert_integer_memo(S._word_memo)
    # a left word is memoized with all its suffixes, each against the same
    # right word (ma = x ma' is x acting on ma' mb), down to a suffix of one
    # factor, whose product is the memoized action of that factor
    for ma, mb in S._word_memo:
        rest = alg.split_first(ma)[1]
        if alg.mono_eff(rest) > 1:
            assert (rest, mb) in S._word_memo
        else:
            assert (alg.split_first(rest)[0], mb) in S._act_memo
    longest = max(alg.mono_eff(ma) for ma, _ in S._word_memo)
    assert longest == 7  # e^6 h, a left word of the reversed pairs
    for (ma, mb), (nums, den) in S._word_memo.items():
        # in unit mode the h2 words are compared with the U(g) ones at hbar = 1
        got = Series.over(alg, nums, den)
        want = R.star(Series.over(alg, {ma: 1}, 1), Series.over(alg, {mb: 1}, 1), None)
        if mode == "unit":
            got, want = got.set_hbar(1), want.set_hbar(1)
        assert got.terms == want.terms


def _word_series(word):
    nums, den = word
    return {m: Fraction(v, den) for m, v in nums.items()}


def test_star_words_of_1500_factors_run_without_deep_recursion(contexts):
    # closed forms in sl2's h2 star algebra, where [a, b] = hb^2 {a, b} with
    # {f, e} = -h, {h, e} = 2e and the shifted {f, h} = 2 + 2f:
    #   f * e^n = e^n f - n hb^2 e^(n-1) h - n(n-1) hb^4 e^(n-1)
    #   f^n * e = e f^n - n hb^2 h f^(n-1) - n(n-1) hb^4 (f^(n-1) + f^(n-2))
    # and in Q_chi, the same left action at unit level 0:
    #   h . e^n = e^n h + 2n e^n
    ctx = contexts["sl2"]
    alg, table = ctx.alg, ctx.poisson.table
    e, h, f, hb = (alg.gen(x) for x in ("e", "h", "f", "hb"))
    hb2 = hb * hb
    hb4 = hb2 * hb2
    # e^n and f^n as repeated products, for n <= 1500
    e_pow, f_pow = [alg.one()], [alg.one()]
    for _ in range(1500):
        e_pow.append(e_pow[-1] * e)
        f_pow.append(f_pow[-1] * f)

    def f_times_e_power(n):
        return (e_pow[n] * f - e_pow[n - 1] * h * hb2 * n
                - e_pow[n - 1] * hb4 * (n * (n - 1)))

    def f_power_times_e(n):
        out = e * f_pow[n] - h * f_pow[n - 1] * hb2 * n
        if n > 1:
            out = out - (f_pow[n - 1] + f_pow[n - 2]) * hb4 * (n * (n - 1))
        return out

    R = _ReferenceStar(alg, table)
    for n in range(1, 41):
        assert R.star(f, e_pow[n], None) == f_times_e_power(n)
        assert R.star(f_pow[n], e, None) == f_power_times_e(n)
    ei, fi = alg.by_name["e"].ident, alg.by_name["f"].ident
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter default
    try:
        long_right = StarAlgebra(alg, table)._word(alg.monomial({fi: 1}),
                                                   alg.monomial({ei: 1500}))
        long_left = StarAlgebra(alg, table)._word(alg.monomial({fi: 1500}),
                                                  alg.monomial({ei: 1}))
        long_module = QuotientModule(alg, table, ctx.m_ids).act(
            alg.by_name["h"].ident, alg.monomial({ei: 1500}))
    finally:
        sys.setrecursionlimit(limit)
    assert _word_series(long_right) == f_times_e_power(1500).terms
    assert _word_series(long_left) == f_power_times_e(1500).terms
    assert _word_series(long_module) == (e_pow[1500] * h + e_pow[1500] * 3000).terms


# -- the ordered walk of pair_sum ----------------------------------------
#
# ``pair_sum`` walks both factors in completion order and stops the inner
# loop past the budget and the outer loop once the budget is below g's
# lowest order.  The reference visits every pair with the same kernel and
# truncates afterwards, so a stop that skips a pair it must visit shows.


def _pair_kernel(ctx, which):
    """``(kernel, memo, drop)`` of a fresh product, bracket or star kernel."""
    alg, table = ctx.alg, ctx.poisson.table
    if which == "product":
        return alg.mono_product, None, 0
    if which == "bracket":
        P = PoissonAlgebra(alg, table)
        return P.mono_bracket, P._memo, table.drop
    S = StarAlgebra(alg, table)
    return S._word, S._word_memo, 0


def _every_pair(f, g, order, kernel):
    """The sum over every term pair of f and g, truncated afterwards."""
    acc = {}
    for ma, ca in f.terms.items():
        for mb, cb in g.terms.items():
            kn, kd = kernel(ma, mb)
            for m, v in kn.items():
                acc[m] = acc.get(m, 0) + ca * cb * Fraction(v, kd)
    return Series(f.alg, acc).truncate(order)


@pytest.mark.parametrize("which", ("product", "bracket", "star"))
@pytest.mark.parametrize("name", ("sl21", "osp12"))
def test_ordered_walk_matches_every_pair_then_truncate(contexts, name, which):
    ctx = contexts[name]
    eff = ctx.alg.mono_eff
    rng = random.Random("walk:%s:%s" % (name, which))
    fired = set()
    for _ in range(5):
        f = rand_series(rng, ctx.alg, rng.randrange(3, 9))
        g = rand_series(rng, ctx.alg, rng.randrange(3, 9))
        for a, b in ((f, g), (g, f)):
            for order in (None, 1, 2, 3, 4, 5):
                kernel, memo, drop = _pair_kernel(ctx, which)
                want = _every_pair(a, b, order, _pair_kernel(ctx, which)[0])
                # cold, then with the kernel's memo warm
                for _ in range(2):
                    assert_same(supercore.pair_sum(a, b, order, kernel, drop, memo), want)
                if order is None:
                    continue
                top = order + drop
                ea = [eff(m) for m in a.nums]
                eb = [eff(m) for m in b.nums]
                if any(min(eb) <= top - e < max(eb) for e in ea):
                    fired.add("inner stop")
                if any(top - e < min(eb) for e in ea):
                    fired.add("outer stop")
                if any(top - e == min(eb) for e in ea):
                    fired.add("budget at g's lowest order")
    assert fired == {"inner stop", "outer stop", "budget at g's lowest order"}
