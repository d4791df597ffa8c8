"""Exact supercommutative polynomials and truncated power series.

Variables carry a parity, an integer weight and an adic flag; coefficients
are exact rationals.  Monomials are stored in a canonical form (variables
sorted by id, odd exponents at most one, the Koszul sign absorbed into the
coefficient), so equality of elements is literal dict equality.

A Series with ``order=None`` is an exact polynomial.  With ``order=N`` it is
exact modulo terms of completion order > N, where the completion order of a
monomial is its adic order plus its hbar exponent.  For universes without
hbar the two notions coincide; with hbar this is the grading in which the
star-product rewrite rules never lower the order of a term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

EVEN = 0
ODD = 1

_ZERO = Fraction(0)  # the coefficient of an absent monomial; Fraction is immutable


@dataclass(frozen=True)
class Variable:
    ident: int
    name: str
    parity: int = EVEN
    weight: int = 0
    adic: bool = True
    hbar: bool = False


class Algebra:
    """A universe of graded variables; the parent of every Series."""

    def __init__(self, variables):
        vs = sorted(variables, key=lambda v: v.ident)
        if len({v.ident for v in vs}) != len(vs):
            raise ValueError("duplicate variable ids")
        if len({v.name for v in vs}) != len(vs):
            raise ValueError("duplicate variable names")
        self.variables = tuple(vs)
        self.by_id = {v.ident: v for v in vs}
        self.by_name = {v.name: v for v in vs}
        self._parity = {v.ident: v.parity for v in vs}
        self._weight = {v.ident: v.weight for v in vs}
        self._adic = {v.ident: (1 if v.adic else 0) for v in vs}
        # completion-order unit: adic variables and hbar count 1, others 0
        self._eff = {v.ident: (1 if (v.adic or v.hbar) else 0) for v in vs}
        hs = [v for v in vs if v.hbar]
        if len(hs) > 1:
            raise ValueError("at most one hbar variable")
        self.hbar_id = hs[0].ident if hs else None

    # -- constructors -------------------------------------------------

    def series(self, terms, order=None):
        return Series(self, terms, order)

    def zero(self, order=None):
        return Series(self, {}, order)

    def one(self, order=None):
        return Series(self, {(): Fraction(1)}, order)

    def const(self, c, order=None):
        return Series(self, {(): Fraction(c)}, order)

    def gen(self, name, order=None):
        v = self.by_name[name]
        return Series(self, {((v.ident, 1),): Fraction(1)}, order)

    def linear(self, coeffs, order=None):
        """Linear combination of generators from a {name_or_id: coeff} dict."""
        terms = {}
        for key, c in coeffs.items():
            v = self.by_name[key] if isinstance(key, str) else self.by_id[key]
            c = Fraction(c)
            if c:
                terms[((v.ident, 1),)] = c
        return Series(self, terms, order)

    # -- monomial helpers ---------------------------------------------

    def mono_parity(self, m):
        p = 0
        for i, e in m:
            if self._parity[i]:
                p ^= e & 1
        return p

    def mono_weight(self, m):
        return sum(self._weight[i] * e for i, e in m)

    def mono_adic(self, m):
        return sum(e for i, e in m if self._adic[i])

    def mono_eff(self, m):
        return sum(e for i, e in m if self._eff[i])

    def mono_mul(self, a, b):
        """Product of two canonical monomials -> (monomial, sign) or None.

        None means the product vanishes (a repeated odd variable).  The sign
        is the Koszul sign of sorting the concatenation a|b.
        """
        if not a:
            return b, 1
        if not b:
            return a, 1
        par = self._parity
        odd_a = [i for i, e in a if par[i]]
        sign = 1
        if odd_a:
            odd_b = [i for i, e in b if par[i]]
            if odd_b:
                inv = 0
                for j in odd_b:
                    for i in odd_a:
                        if i > j:
                            inv += 1
                        elif i == j:
                            return None
                if inv & 1:
                    sign = -1
        merged = dict(a)
        for i, e in b:
            merged[i] = merged.get(i, 0) + e
        mono = tuple(sorted(merged.items()))
        return mono, sign

    def mono_str(self, m):
        if not m:
            return "1"
        parts = []
        for i, e in m:
            nm = self.by_id[i].name
            parts.append(nm if e == 1 else f"{nm}^{e}")
        return "*".join(parts)

    def __repr__(self):
        return f"Algebra({', '.join(v.name for v in self.variables)})"


class Series:
    """A supercommutative polynomial, optionally truncated at a given order."""

    __slots__ = ("alg", "terms", "order")

    def __init__(self, alg, terms, order=None):
        self.alg = alg
        self.order = order
        if order is None:
            self.terms = {m: c for m, c in terms.items() if c}
        else:
            eff = alg.mono_eff
            self.terms = {m: c for m, c in terms.items() if c and eff(m) <= order}

    # -- basic queries ------------------------------------------------

    def is_zero(self):
        return not self.terms

    def coeff(self, mono):
        return self.terms.get(mono, _ZERO)

    def constant_term(self):
        return self.terms.get((), _ZERO)

    def deg(self):
        """Minimal adic order over the support (None for the zero element)."""
        if not self.terms:
            return None
        adic = self.alg.mono_adic
        return min(adic(m) for m in self.terms)

    def eff_deg(self):
        if not self.terms:
            return None
        eff = self.alg.mono_eff
        return min(eff(m) for m in self.terms)

    def parity(self):
        """EVEN, ODD, 'mixed', or None for the zero element."""
        if not self.terms:
            return None
        ps = {self.alg.mono_parity(m) for m in self.terms}
        return ps.pop() if len(ps) == 1 else "mixed"

    def weights(self):
        return sorted({self.alg.mono_weight(m) for m in self.terms})

    def weight_components(self):
        """Decomposition into weight-homogeneous pieces, as {weight: Series}."""
        out = {}
        wt = self.alg.mono_weight
        for m, c in self.terms.items():
            out.setdefault(wt(m), {})[m] = c
        return {w: Series(self.alg, t, self.order) for w, t in sorted(out.items())}

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
        other = self._coerce(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            c2 = terms.get(m)
            if c2 is None:
                terms[m] = c
            else:
                c2 += c
                if c2:
                    terms[m] = c2
                else:
                    del terms[m]
        return Series(self.alg, terms, self._join_order(other))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return Series(self.alg, {m: -c for m, c in self.terms.items()}, self.order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return Series(self.alg, {}, self.order)
            return Series(self.alg, {m: c * v for m, v in self.terms.items()}, self.order)
        other = self._coerce(other)
        order = self._join_order(other)
        alg = self.alg
        mul = alg.mono_mul
        eff = alg.mono_eff
        out = {}
        if order is not None:
            a_items = [(m, c, eff(m)) for m, c in self.terms.items()]
            b_items = [(m, c, eff(m)) for m, c in other.terms.items()]
            for ma, ca, ea in a_items:
                budget = order - ea
                for mb, cb, eb in b_items:
                    if eb > budget:
                        continue
                    r = mul(ma, mb)
                    if r is None:
                        continue
                    m, s = r
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
        else:
            for ma, ca in self.terms.items():
                for mb, cb in other.terms.items():
                    r = mul(ma, mb)
                    if r is None:
                        continue
                    m, s = r
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
        return Series(alg, out, order)

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
        return self.alg is other.alg and self.terms == other.terms

    def __hash__(self):
        raise TypeError("Series is not hashable")

    # -- truncation and filtering -------------------------------------

    def truncate(self, order):
        """Restrict to completion order <= order (also tightens self.order)."""
        if order is None:
            return Series(self.alg, self.terms, None)
        new = order if self.order is None else min(order, self.order)
        return Series(self.alg, self.terms, new)

    def drop_below_eff(self, d):
        eff = self.alg.mono_eff
        return Series(self.alg, {m: c for m, c in self.terms.items() if eff(m) >= d},
                      self.order)

    def eff_component(self, d):
        eff = self.alg.mono_eff
        return Series(self.alg, {m: c for m, c in self.terms.items() if eff(m) == d},
                      self.order)

    def adic_filter(self, n):
        """Terms of adic order <= n (used when emitting order-n reports)."""
        adic = self.alg.mono_adic
        return Series(self.alg, {m: c for m, c in self.terms.items() if adic(m) <= n},
                      self.order)

    # -- hbar utilities -----------------------------------------------

    def _need_hbar(self):
        h = self.alg.hbar_id
        if h is None:
            raise ValueError("universe has no hbar variable")
        return h

    def hbar_exp(self, m):
        h = self.alg.hbar_id
        for i, e in m:
            if i == h:
                return e
        return 0

    def mul_hbar(self, k):
        if k == 0:
            return self
        h = self._need_hbar()
        out = {}
        for m, c in self.terms.items():
            d = dict(m)
            d[h] = d.get(h, 0) + k
            out[tuple(sorted(d.items()))] = c
        return Series(self.alg, out, self.order)

    def divide_hbar(self, k):
        """Exact division by hbar^k; raises if any term has a lower power."""
        if k == 0:
            return self
        h = self._need_hbar()
        out = {}
        for m, c in self.terms.items():
            d = dict(m)
            e = d.get(h, 0)
            if e < k:
                raise ValueError(f"term {self.alg.mono_str(m)} not divisible by hbar^{k}")
            if e == k:
                d.pop(h)
            else:
                d[h] = e - k
            out[tuple(sorted(d.items()))] = c
        # dividing by hbar can only lower completion orders, the bound stays valid
        return Series(self.alg, out, self.order)

    def hbar_levels(self):
        """Split by hbar exponent: {s: hbar-free coefficient of hbar^s}."""
        h = self._need_hbar()
        out = {}
        for m, c in self.terms.items():
            d = dict(m)
            s = d.pop(h, 0)
            out.setdefault(s, {})[tuple(sorted(d.items()))] = c
        return {s: Series(self.alg, t, self.order) for s, t in sorted(out.items())}

    def set_hbar(self, value):
        """Substitute hbar := 0 or 1 (stays in the same universe)."""
        if value not in (0, 1):
            raise ValueError("hbar can only be specialized to 0 or 1")
        h = self._need_hbar()
        out = {}
        for m, c in self.terms.items():
            d = dict(m)
            e = d.pop(h, 0)
            if e and value == 0:
                continue
            mono = tuple(sorted(d.items()))
            out[mono] = out.get(mono, Fraction(0)) + c
        return Series(self.alg, {m: c for m, c in out.items() if c}, None)

    # -- display ------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        ms = self.alg.mono_str
        alg = self.alg
        keys = sorted(self.terms, key=lambda m: (alg.mono_eff(m), m))
        parts = []
        for m in keys:
            c = self.terms[m]
            if m == ():
                parts.append(str(c))
            elif c == 1:
                parts.append(ms(m))
            elif c == -1:
                parts.append(f"-{ms(m)}")
            else:
                parts.append(f"{c}*{ms(m)}")
        s = " + ".join(parts).replace("+ -", "- ")
        return s
