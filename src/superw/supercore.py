"""Exact supercommutative polynomials and truncated power series.

Variables carry a parity and an integer weight; coefficients are exact
rationals, stored as integer numerators over one denominator per Series in
lowest terms.  Monomials are stored in a canonical form (odd
exponents at most one, the Koszul sign absorbed into the coefficient), so
equality of elements is literal equality of the numerators and the
denominator.  Sums, scalar multiples and the product loop shared by every
product stay on integers; a ``Fraction`` is made only where a Series is
built from one or read through ``terms`` and ``coeff``.  A monomial is one
int with a 16-bit exponent field per variable, the top bit of each a guard
bit: a product is an integer sum, a repeated odd variable is an overlap of
the odd bits, and the Koszul sign is a parity of popcounts (Monagan and
Pearce, ISSAC 2009).  The int order is not a monomial order, so every sort of
monomials is keyed by ``Algebra.mono_key``, the exponent tuple.

A Series with ``order=None`` is an exact polynomial.  With ``order=N`` it is
exact modulo terms of completion order > N, where the completion order of a
monomial is its total degree, hbar counting 1 like every other variable:
the grading in which the star-product rewrite rules never lower the order of
a term.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import itemgetter
from types import MappingProxyType

EVEN = 0
ODD = 1

_ZERO = Fraction(0)  # the coefficient of an absent monomial; Fraction is immutable
_NO_MEMO = {}  # the memo of a pair_sum kernel that keeps none; never written

# bits per exponent field of a monomial: the top one is the guard bit, so an
# exponent stays below _CAP
_W = 16
_CAP = 1 << (_W - 1)
_MASK = _CAP - 1
# the bound on every exponent, for callers that check their orders against it
EXPONENT_LIMIT = _CAP


class Variable:
    """A generator of an Algebra: id, name, parity, weight, and the hbar flag."""

    __slots__ = ("ident", "name", "parity", "weight", "hbar")

    def __init__(self, ident, name, parity=EVEN, weight=0, hbar=False):
        self.ident, self.name, self.parity = ident, name, parity
        self.weight, self.hbar = weight, hbar


class Algebra:
    """A universe of graded variables; the parent of every Series.

    A monomial is one nonnegative int of bit fields.  Variable number k, in
    id order, keeps its exponent in bits ``[k*16, k*16 + 15)``; bit
    ``k*16 + 15`` is a guard bit that no monomial carries.  Odd exponents are
    0 or 1, and 0 is the unit.  The hbar variable, if any, has the largest
    id, so its exponent is the top field.  A product adds the ints, so a
    result that sets a guard bit raises OverflowError instead of spilling
    into the next field; products here are exact, so there is no cap to
    size the fields by.  The int order is not a monomial order, and it is
    not the order of the exponent tuples, so every sort of monomials uses
    :meth:`mono_key`.  Only this module reads or builds the format: other
    modules use the methods under "monomial helpers".
    """

    def __init__(self, variables):
        vs = sorted(variables, key=lambda v: v.ident)
        if len({v.ident for v in vs}) != len(vs):
            raise ValueError("duplicate variable ids")
        if len({v.name for v in vs}) != len(vs):
            raise ValueError("duplicate variable names")
        self.variables = tuple(vs)
        self.by_id = {v.ident: v for v in vs}
        self.by_name = {v.name: v for v in vs}
        # the fields in order: (id, shift, weight); every field, hbar's
        # too, counts 1 toward the completion order
        self._fields = tuple((v.ident, k * _W, v.weight) for k, v in enumerate(vs))
        self._shift = {v.ident: k * _W for k, v in enumerate(vs)}
        # the unit bit of every odd field, and the guard bit of every field
        self._odd = sum(1 << k * _W for k, v in enumerate(vs) if v.parity)
        self._guard = sum(1 << (k * _W + _W - 1) for k in range(len(vs)))
        # per-monomial caches: the product kernels ask for the same
        # monomials' completion order over and over, and sorts their keys
        self._mono_eff = {}
        self._mono_key = {}
        # frozenset of ids -> the mask of their exponent fields
        self._masks = {}
        hs = [v for v in vs if v.hbar]
        if len(hs) > 1:
            raise ValueError("at most one hbar variable")
        if hs and hs[0] is not vs[-1]:
            raise ValueError("hbar must have the largest variable id")
        self.hbar_id = hs[0].ident if hs else None
        self._hshift = self._shift[self.hbar_id] if hs else None
        # the monomial of each single generator, and its inverse
        self.gen_mono = {v.ident: 1 << self._shift[v.ident] for v in vs}
        self.gen_of = {m: i for i, m in self.gen_mono.items()}

    # -- constructors -------------------------------------------------

    def series(self, terms, order=None):
        return Series(self, terms, order)

    def zero(self, order=None):
        return _make(self, {}, 1, order)

    def one(self, order=None):
        return Series.over(self, {0: 1}, 1, order)

    def const(self, c, order=None):
        c = Fraction(c)
        return Series.over(self, {0: c.numerator}, c.denominator, order)

    def gen(self, name, order=None):
        return Series.over(self, {self.gen_mono[self.by_name[name].ident]: 1}, 1, order)

    # -- monomial helpers ---------------------------------------------

    def monomial(self, exps):
        """The monomial with exponents ``{id: exponent}``; zeros are dropped."""
        shift = self._shift
        m = 0
        for i, e in exps.items():
            if not 0 <= e < _CAP:
                raise OverflowError(f"exponent {e} out of range")
            m |= e << shift[i]
        return m

    def mono_key(self, m):
        """The exponents of m as ``((id, exponent), ...)`` sorted by id,
        zeros dropped (memoized): the sort key of every monomial order."""
        key = self._mono_key.get(m)
        if key is None:
            key = self._mono_key[m] = tuple(
                (i, e) for i, sh, _ in self._fields if (e := (m >> sh) & _MASK))
        return key

    def mono_vars(self, m):
        """The exponents of m as ``{id: exponent}``, the inverse of
        :meth:`monomial`."""
        return dict(self.mono_key(m))

    def mono_degree(self, m, ids):
        """The number of factors of m among the variables ``ids``; the total
        degree is :meth:`mono_eff`."""
        return sum(e for i, e in self.mono_key(m) if i in ids)

    def free_of(self, nums, ids, k=1):
        """The terms of ``nums`` (``{mono: coefficient}``) whose monomials
        have fewer than k factors among the variables ``ids``, a frozenset:
        one mask test per monomial, the mask kept per set of ids, and for
        k > 1 :meth:`mono_degree` of a monomial the mask meets."""
        mask = self._masks.get(ids)
        if mask is None:
            mask = self._masks[ids] = sum(_MASK << self._shift[i] for i in ids)
        if k == 1:
            return {m: v for m, v in nums.items() if not m & mask}
        return {m: v for m, v in nums.items()
                if not m & mask or self.mono_degree(m, ids) < k}

    def split_first(self, m):
        """``(i, rest)`` with m = x_i * rest and i the smallest id in m (m not the unit)."""
        k = ((m & -m).bit_length() - 1) // _W
        return self._fields[k][0], m - (1 << k * _W)

    def split_var(self, m, i, last=False):
        """``(rest, sign)`` with m = sign * x_i * rest, or sign * rest * x_i
        when ``last``, for x_i in m: the Koszul sign of moving x_i there."""
        sh = self._shift[i]
        rest = m - (1 << sh)
        odd = rest & self._odd if (self._odd >> sh) & 1 else 0
        n = odd >> sh if last else odd & ((1 << sh) - 1)
        return rest, -1 if n.bit_count() & 1 else 1

    def times_last(self, m, x):
        """m times generator x, for x at least (or at most) every id in m, so
        that the product is normal with no sign; None when x is odd and ends
        (or starts) m: an odd square vanishes."""
        g = self.gen_mono[x]
        if m & g & self._odd:
            return None
        m += g
        if m & self._guard:
            raise OverflowError("monomial exponent out of range")
        return m

    def split_hbar(self, m):
        """``(rest, k)`` with m = rest * hbar^k and rest free of hbar."""
        sh = self._hshift
        if sh is None:
            return m, 0
        return m & ((1 << sh) - 1), m >> sh

    def join_hbar(self, rest, k):
        """rest * hbar^k for an hbar-free rest and k >= 0."""
        if k >= _CAP:
            raise OverflowError(f"exponent {k} out of range")
        return rest | (k << self._hshift)

    def mono_parity(self, m):
        return (m & self._odd).bit_count() & 1

    def mono_weight(self, m):
        return sum(w * ((m >> sh) & _MASK) for _, sh, w in self._fields)

    def mono_eff(self, m):
        """The completion order of m: its total degree, hbar included."""
        d = self._mono_eff.get(m)
        if d is None:
            d = self._mono_eff[m] = sum((m >> sh) & _MASK for _, sh, _ in self._fields)
        return d

    def mono_mul(self, a, b):
        """Product of two canonical monomials -> (monomial, sign) or None.

        None means the product vanishes (a repeated odd variable).  The sign
        is the Koszul sign of sorting the concatenation a|b: the parity of
        the number of odd bits of a above each odd bit of b.
        """
        ob = b & self._odd
        sign = 1
        if ob:
            oa = a & self._odd
            if oa:
                if oa & ob:
                    return None
                inv = 0
                while ob:
                    low = ob & -ob
                    inv += (oa >> low.bit_length()).bit_count()
                    ob ^= low
                if inv & 1:
                    sign = -1
        m = a + b
        if m & self._guard:
            raise OverflowError("monomial exponent out of range")
        return m, sign

    def mono_product(self, a, b):
        """:meth:`mono_mul` as a :func:`pair_sum` kernel: ``({m: sign}, 1)``,
        or ``({}, 1)`` when the product vanishes."""
        r = self.mono_mul(a, b)
        if r is None:
            return {}, 1
        m, s = r
        return {m: s}, 1

    def mono_str(self, m):
        if not m:
            return "1"
        parts = []
        for i, e in self.mono_key(m):
            nm = self.by_id[i].name
            parts.append(nm if e == 1 else f"{nm}^{e}")
        return "*".join(parts)

    def __repr__(self):
        return f"Algebra({', '.join(v.name for v in self.variables)})"


class Series:
    """A supercommutative polynomial, optionally truncated at a given order.

    The coefficients are ``nums[m] / den``: integer numerators keyed by
    monomial over one positive denominator, always in lowest terms (no zero
    numerator, and ``gcd(den, *nums.values()) == 1``), so equality of
    elements is literal equality of ``den`` and ``nums``.  A Series is never
    changed once built, and no code writes into its ``nums`` after
    construction, so Series may share one ``nums`` dict and a view of it
    stays valid.  ``terms`` is a read-only ``{mono: Fraction}`` copy of the
    coefficients, built anew on each access (a kept copy would cost memory
    on every long-lived Series); the arithmetic never builds it.
    :meth:`by_order` is kept: it holds integers only, and only a Series that
    is a factor of a truncated product builds it.
    """

    __slots__ = ("alg", "nums", "den", "order", "_by_order")

    def __init__(self, alg, terms, order=None):
        """The Series of ``terms``, a dict ``{mono: Fraction or int}``; zero
        coefficients and terms above ``order`` are dropped."""
        if order is None:
            terms = {m: c for m, c in terms.items() if c}
        else:
            eff = alg.mono_eff
            terms = {m: c for m, c in terms.items() if c and eff(m) <= order}
        self.alg = alg
        self.order = order
        self.nums, self.den = numerators(terms)
        self._by_order = None

    @classmethod
    def over(cls, alg, nums, den=1, order=None):
        """The Series ``nums / den``, for integer numerators and a positive
        ``den``: zero numerators and terms above ``order`` are dropped and
        the fraction is brought to lowest terms."""
        return _normal(alg, nums, den, order, order is not None)

    @property
    def terms(self):
        """The coefficients as a read-only ``{mono: Fraction}`` mapping,
        built on each access: bind it once to read many coefficients."""
        den = self.den
        return MappingProxyType({m: Fraction(v, den) for m, v in self.nums.items()})

    def by_order(self):
        """The terms as ``(mono, numerator, completion order)`` triples
        sorted stably by completion order, built on first use and kept: the
        view that :func:`pair_sum` walks both factors through."""
        view = self._by_order
        if view is None:
            eff = self.alg.mono_eff
            view = self._by_order = sorted(
                ((m, v, eff(m)) for m, v in self.nums.items()), key=itemgetter(2))
        return view

    # -- basic queries ------------------------------------------------

    def is_zero(self):
        return not self.nums

    def coeff(self, mono):
        v = self.nums.get(mono)
        return _ZERO if v is None else Fraction(v, self.den)

    def constant_term(self):
        return self.coeff(0)

    def eff_deg(self):
        if not self.nums:
            return None
        eff = self.alg.mono_eff
        return min(eff(m) for m in self.nums)

    def parity(self):
        """EVEN, ODD, 'mixed', or None for the zero element."""
        if not self.nums:
            return None
        ps = {self.alg.mono_parity(m) for m in self.nums}
        return ps.pop() if len(ps) == 1 else "mixed"

    def weights(self):
        return sorted({self.alg.mono_weight(m) for m in self.nums})

    def is_weight_homogeneous(self):
        return len(self.weights()) <= 1

    # -- arithmetic ---------------------------------------------------

    def _join_order(self, other):
        a, b = self.order, other.order
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    def __add__(self, other):
        return self._plus(self._coerce(other), 1)

    def __sub__(self, other):
        return self._plus(self._coerce(other), -1)

    def _plus(self, other, sign):
        """self + sign * other, over the lcm of the two denominators."""
        da, db = self.den, other.den
        if da == db:
            den, ka, kb = da, 1, sign
        else:
            den = lcm(da, db)
            ka, kb = den // da, sign * (den // db)
        nums = dict(self.nums) if ka == 1 else {m: v * ka for m, v in self.nums.items()}
        get = nums.get
        for m, v in other.nums.items():
            nums[m] = get(m, 0) + kb * v
        order = self._join_order(other)
        # each input is already within its own order
        cut = order is not None and (self.order != order or other.order != order)
        return _normal(self.alg, nums, den, order, cut)

    def __neg__(self):
        return _make(self.alg, {m: -v for m, v in self.nums.items()}, self.den, self.order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            if not p:
                return _make(self.alg, {}, 1, self.order)
            nums = self.nums if p == 1 else {m: v * p for m, v in self.nums.items()}
            return _make(self.alg, *_lowest(nums, self.den * q), self.order)
        other = self._coerce(other)
        return pair_sum(self, other, self._join_order(other), self.alg.mono_product)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        out = self.alg.one(self.order)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def _coerce(self, other):
        if isinstance(other, Series):
            if other.alg is not self.alg:
                raise ValueError("mixed universes")
            return other
        if isinstance(other, (int, Fraction)):
            return self.alg.const(other)
        raise TypeError(f"cannot combine Series with {type(other)!r}")

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.alg.const(other)
        if not isinstance(other, Series):
            return NotImplemented
        return (self.alg is other.alg and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        raise TypeError("Series is not hashable")

    # -- truncation ---------------------------------------------------

    def truncate(self, order):
        """Restrict to completion order <= order (also tightens self.order)."""
        if order is None:
            return _make(self.alg, self.nums, self.den, None)
        if self.order is not None and self.order <= order:
            return self
        return Series.over(self.alg, self.nums, self.den, order)

    # -- hbar utilities -----------------------------------------------

    def _need_hbar(self):
        if self.alg.hbar_id is None:
            raise ValueError("universe has no hbar variable")

    def mul_hbar(self, k):
        """Multiply by hbar^k; a negative k divides exactly and raises if a
        term has a lower power of hbar."""
        if k == 0:
            return self
        self._need_hbar()
        alg = self.alg
        out = {}
        for m, v in self.nums.items():
            rest, e = alg.split_hbar(m)
            if e + k < 0:
                raise ValueError(f"term {alg.mono_str(m)} not divisible by hbar^{-k}")
            out[alg.join_hbar(rest, e + k)] = v
        # dividing by hbar only lowers completion orders, so the bound stays
        # valid; multiplying may push terms past it, and those are dropped
        return _normal(alg, out, self.den, self.order, k > 0 and self.order is not None)

    def divide_hbar(self, k):
        """Exact division by hbar^k; raises if any term has a lower power."""
        return self.mul_hbar(-k)

    def hbar_levels(self):
        """Split by hbar exponent: {s: hbar-free coefficient of hbar^s}."""
        self._need_hbar()
        split = self.alg.split_hbar
        out = {}
        for m, v in self.nums.items():
            rest, s = split(m)
            out.setdefault(s, {})[rest] = v
        return {s: _normal(self.alg, t, self.den, self.order, False)
                for s, t in sorted(out.items())}

    def set_hbar(self, value):
        """Substitute hbar := 0 or 1 (stays in the same universe)."""
        if value not in (0, 1):
            raise ValueError("hbar can only be specialized to 0 or 1")
        self._need_hbar()
        split = self.alg.split_hbar
        out = {}
        for m, v in self.nums.items():
            rest, e = split(m)
            if e and value == 0:
                continue
            out[rest] = out.get(rest, 0) + v
        return Series.over(self.alg, out, self.den, None)

    # -- display ------------------------------------------------------

    def __repr__(self):
        if not self.nums:
            return "0"
        ms = self.alg.mono_str
        alg = self.alg
        terms = self.terms
        keys = sorted(terms, key=lambda m: (alg.mono_eff(m), alg.mono_key(m)))
        parts = []
        for m in keys:
            c = terms[m]
            if not m:
                parts.append(str(c))
            elif c == 1:
                parts.append(ms(m))
            elif c == -1:
                parts.append(f"-{ms(m)}")
            else:
                parts.append(f"{c}*{ms(m)}")
        s = " + ".join(parts).replace("+ -", "- ")
        return s


def _make(alg, nums, den, order):
    """A Series from numerators already in lowest terms and within order."""
    s = object.__new__(Series)
    s.alg = alg
    s.nums = nums
    s.den = den
    s.order = order
    s._by_order = None
    return s


def _normal(alg, nums, den, order, cut):
    """The Series nums / den with zero numerators dropped, and the terms
    above ``order`` too when ``cut``, in lowest terms."""
    if cut:
        eff = alg.mono_eff
        nums = {m: v for m, v in nums.items() if v and eff(m) <= order}
    else:
        nums = {m: v for m, v in nums.items() if v}
    return _make(alg, *_lowest(nums, den), order)


def _lowest(nums, den):
    """``(nums, den)`` divided by ``gcd(den, *nums)``; no numerator is zero."""
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {m: v // g for m, v in nums.items()}
            den //= g
    return nums, den


# -- integer numerators ---------------------------------------------------
#
# A Series is integer numerators over one denominator, and so is every value
# the product kernels memoize: mono_product here, the brackets of poisson and
# the normal forms of starprod.  The supercommutative product, the Poisson
# bracket and the star product all run through pair_sum: one truncated loop
# over term pairs that multiplies and adds Python ints, grouped by the
# denominator of the kernel value, and hands the sum to Series.over.  No
# Fraction is made on the way; Fractions appear only where a Series is built
# from one or read through ``terms`` and ``coeff``.


def numerators(terms):
    """Nonzero exact coefficients ``{mono: Fraction or int}`` as
    ``(nums, den)``: integer numerators over their least common denominator,
    so that ``terms[m] == nums[m] / den``.  This is in lowest terms: a prime
    power dividing ``den`` exactly divides the denominator of some
    coefficient, whose numerator the prime then does not divide."""
    den = 1
    for c in terms.values():
        d = c.denominator
        if d != 1:
            den = lcm(den, d)
    if den == 1:
        return {m: c.numerator for m, c in terms.items()}, 1
    return {m: c.numerator * (den // c.denominator) for m, c in terms.items()}, den


def add_numerators(groups, nums, den, c=1):
    """Add ``c * nums``, a numerator dict over ``den``, to the group of
    ``den`` in ``groups`` (a dict ``{den: nums}``)."""
    acc = groups.get(den)
    if acc is None:
        acc = groups[den] = {}
    for m, v in nums.items():
        acc[m] = acc.get(m, 0) + c * v


def _sum_groups(groups):
    """Sum numerator groups ``{d: nums}``, each standing for ``nums / d``,
    over the lcm of the ``d``: ``(nums, lcm)``, zero numerators kept."""
    if len(groups) == 1:
        ((d, nums),) = groups.items()
        return nums, d
    if not groups:
        return {}, 1
    d = lcm(*groups)
    nums = {}
    for gd, part in groups.items():
        k = d // gd
        for m, v in part.items():
            nums[m] = nums.get(m, 0) + v * k
    return nums, d


def merge_numerators(groups, scale=1):
    """Sum numerator groups ``{d: nums}``, each standing for ``nums / d``,
    and divide by ``scale``.

    Returns ``(nums, den)`` in lowest terms, with zero numerators dropped.
    """
    if scale == 1 and len(groups) == 1:
        nums = groups.get(1)
        if nums is not None:  # the common case: already over 1
            return {m: v for m, v in nums.items() if v}, 1
    nums, d = _sum_groups(groups)
    return _lowest({m: v for m, v in nums.items() if v}, d * scale)


def pair_sum(f, g, order, kernel, drop=0, memo=None):
    """The Series sum of ``ca * cb * kernel(ma, mb)`` over the term pairs of
    f and g, exact through ``order`` (None: untruncated).

    ``kernel`` gives its value in ``(nums, den)`` form; ``memo``, the
    kernel's own memo keyed by ``(ma, mb)`` if it has one, is probed inline
    and the kernel is called only on a miss.  A pair is skipped when
    ``eff(ma) + eff(mb) > order + drop``: the kernel never lowers the
    completion order of a pair by more than ``drop``.  A truncated call walks
    both factors through :meth:`Series.by_order`, so the inner loop stops at
    the first term of g past the budget ``order + drop - eff(ma)``, and the
    outer loop stops once that budget falls below g's lowest order: no
    skipped pair is visited.  An untruncated call visits every pair in the
    order of ``nums``, with no sort.
    """
    alg = f.alg
    if not (f.nums and g.nums):
        return alg.zero(order)
    if order is None:  # every effective order read as 0, so neither stop fires
        top = 0
        fs = zip(f.nums, f.nums.values(), repeat(0))
        gs = list(zip(g.nums, g.nums.values(), repeat(0)))
    else:
        top = order + drop
        fs, gs = f.by_order(), g.by_order()
    low = gs[0][2]
    probe = _NO_MEMO.get if memo is None else memo.get
    # products grouped by the denominator of their kernel value; the group
    # of 1, which takes nearly all of them, is filled in place
    ones = {}
    get = ones.get
    groups = {1: ones}
    for ma, ca, ea in fs:
        budget = top - ea
        if budget < low:
            break
        for mb, cb, eb in gs:
            if eb > budget:
                break
            kn, kd = probe((ma, mb)) or kernel(ma, mb)
            if not kn:
                continue
            c = ca * cb
            if kd == 1:
                for m, v in kn.items():
                    ones[m] = get(m, 0) + c * v
            else:
                add_numerators(groups, kn, kd, c)
    nums, den = _sum_groups(groups)
    return Series.over(alg, nums, den * f.den * g.den, order)
