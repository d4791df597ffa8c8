"""Poisson superalgebras presented by a bracket table on generators.

The bracket of two generators is an arbitrary polynomial; everything else
follows from the graded Leibniz rule.  Brackets of monomials are memoized,
so repeated normalization passes stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import rational_sqrt
from .supercore import EVEN, ODD, Series


class BracketTable:
    """Brackets of generators, stored for i <= j and extended by symmetry.

    ``entries[(i, j)]`` is the bracket of generator i with generator j.  The
    (i, i) diagonal is only allowed for odd generators (for an even x the
    bracket of x with itself vanishes identically).
    """

    def __init__(self, alg, entries):
        self.alg = alg
        self.entries = {}
        for (i, j), s in entries.items():
            if i > j:
                raise ValueError("store entries with i <= j")
            if s.alg is not alg:
                raise ValueError("entry from a different universe")
            pi, pj = alg.by_id[i].parity, alg.by_id[j].parity
            if i == j and pi == EVEN and not s.is_zero():
                raise ValueError(f"even generator {alg.by_id[i].name} cannot self-bracket")
            if not s.is_zero():
                want = pi ^ pj
                if s.parity() not in (None, want):
                    raise ValueError(f"entry ({i},{j}) has wrong parity")
                self.entries[(i, j)] = s
        effs = [s.eff_deg() for s in self.entries.values() if not s.is_zero()]
        self.min_entry_eff = min(effs) if effs else None
        # a bracket replaces two generators by a table entry, so it can lower
        # the completion order by at most this much
        self.drop = max(0, 2 - self.min_entry_eff) if effs else 0

    def entry(self, i, j):
        """Bracket of generator i with generator j, any order of arguments."""
        if i <= j:
            return self.entries.get((i, j), self.alg.zero())
        s = self.entries.get((j, i))
        if s is None:
            return self.alg.zero()
        pi = self.alg.by_id[i].parity
        pj = self.alg.by_id[j].parity
        return s if (pi and pj) else -s

    def check_weights(self, shift):
        """Entries breaking weight additivity (expected shift included)."""
        bad = []
        wt = self.alg.by_id
        for (i, j), s in self.entries.items():
            want = wt[i].weight + wt[j].weight + shift
            if s.weights() not in ([], [want]):
                bad.append(((i, j), want, s.weights()))
        return bad


class PoissonAlgebra:
    """A bracket table promoted to a full Poisson bracket via Leibniz."""

    def __init__(self, alg, table, bracket_weight=None):
        self.alg = alg
        self.table = table
        self.bracket_weight = bracket_weight
        self._memo = {}

    # -- the bracket on monomials (exact) -----------------------------

    def mono_bracket(self, ma, mb):
        memo = self._memo
        out = memo.get((ma, mb))
        if out is not None:
            return out
        alg = self.alg
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
                head = self.mono_bracket(ma, y) * alg.series({rest: Fraction(1)})
                tail = alg.series({y: Fraction(1)}) * self.mono_bracket(ma, rest)
                if alg.by_id[i].parity and alg.by_id[j].parity:
                    tail = -tail
                out = head + tail
        else:
            # split ma = x * rest and apply the Leibniz rule on the left
            i, e = ma[0]
            x = ((i, 1),)
            rest = ma[1:] if e == 1 else ((i, e - 1),) + ma[1:]
            head = alg.series({x: Fraction(1)}) * self.mono_bracket(rest, mb)
            tail = self.mono_bracket(x, mb) * alg.series({rest: Fraction(1)})
            if alg.mono_parity(rest) and alg.mono_parity(mb):
                tail = -tail
            out = head + tail
        memo[(ma, mb)] = out
        return out

    # -- the bracket on series ----------------------------------------

    def bracket(self, f, g, order="auto"):
        """Poisson bracket of two series.

        By default the result order is the interval-safe one: the joint
        input order lowered by the table drop.  Normalization loops that
        work with committed polynomials at a fixed cap pass ``order=cap``
        instead (their claims are certified exactly afterwards).
        """
        if f.alg is not self.alg or g.alg is not self.alg:
            raise ValueError("series from a different universe")
        drop = self.table.drop
        if order == "auto":
            if f.order is None:
                order = g.order
            elif g.order is None:
                order = f.order
            else:
                order = min(f.order, g.order)
            if order is not None:
                order -= drop
        alg = self.alg
        eff = alg.mono_eff
        acc = {}
        for ma, ca in f.terms.items():
            ea = eff(ma)
            for mb, cb in g.terms.items():
                if order is not None and ea + eff(mb) - drop > order:
                    continue
                br = self.mono_bracket(ma, mb)
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
        return Series(alg, acc, order)

    # -- consistency checks -------------------------------------------

    def jacobiator(self, a, b, c):
        pa, pb, pc = a.parity(), b.parity(), c.parity()
        if "mixed" in (pa, pb, pc):
            raise ValueError("jacobiator needs parity-homogeneous arguments")
        pa, pb, pc = pa or 0, pb or 0, pc or 0
        t1 = self.bracket(a, self.bracket(b, c))
        t2 = self.bracket(b, self.bracket(c, a))
        t3 = self.bracket(c, self.bracket(a, b))
        if pa and pc:
            t1 = -t1
        if pb and pa:
            t2 = -t2
        if pc and pb:
            t3 = -t3
        return t1 + t2 + t3

    def check_jacobi(self, order=None):
        """Jacobi identity on all generator triples; returns violations.

        With ``order`` the jacobiators are computed at that truncation
        (constant and linear tables are exact regardless).
        """
        gens = [self.alg.gen(v.name) for v in self.alg.variables if not v.hbar]
        if order is not None:
            gens = [g.truncate(order) for g in gens]
        bad = []
        n = len(gens)
        for i in range(n):
            for j in range(i, n):
                for k in range(j, n):
                    jac = self.jacobiator(gens[i], gens[j], gens[k])
                    if not jac.is_zero():
                        bad.append(((gens[i], gens[j], gens[k]), jac))
        return bad

    def check_weights(self):
        if self.bracket_weight is None:
            return []
        return self.table.check_weights(self.bracket_weight)


def evaluate(s, point=None):
    """Evaluate a polynomial at a point (missing coordinates are zero).

    Odd variables cannot carry a nonzero value, so any monomial containing
    one evaluates to zero.
    """
    point = point or {}
    alg = s.alg
    for i, v in point.items():
        if alg.by_id[i].parity == ODD and v:
            raise ValueError("odd coordinates must vanish at a point")
    total = Fraction(0)
    for m, c in s.terms.items():
        val = c
        for i, e in m:
            x = Fraction(point.get(i, 0))
            if not x:
                val = Fraction(0)
                break
            val *= x ** e
        total += val
    return total


@dataclass
class SymplecticSplit:
    """Linear-level normal form of the constant part of the bracket."""

    even_pairs: list = field(default_factory=list)
    odd_pairs: list = field(default_factory=list)
    selfs: list = field(default_factory=list)
    radical: list = field(default_factory=list)


def linear_split(poisson, vectors, seeds=None, alt=False):
    """Darboux normal form of the pairing <u,v> = {u,v}(0) on a list of
    linear elements.

    With ``seeds`` given, pairs are formed only for the seed vectors (each
    seed must find a partner among the rest, and seeds must be isotropic);
    everything left over is orthogonalized against the pairs and classified
    as self-paired (odd, nonzero self-pairing, scaled to pairing 1) or
    radical.  Without seeds every vector is processed in order.  ``alt``
    switches the partner pivot from the first available to the last.
    """

    def pair(u, v):
        return evaluate(poisson.bracket(u, v))

    work = []
    for v in vectors:
        if v.parity() == "mixed":
            raise ValueError("linear_split needs parity-homogeneous vectors")
        if not v.is_zero():
            work.append(v)
    if seeds is None:
        queue = None
    else:
        queue = list(seeds)
        for s in queue:
            work = [w for w in work if w != s]

    out = SymplecticSplit()
    while True:
        if queue is not None:
            if not queue:
                break
            u = queue.pop(0)
        else:
            if not work:
                break
            u = work.pop(0)
        if u.is_zero():
            continue
        odd = u.parity() == ODD
        row = [pair(u, w) for w in work]
        hits = [k for k, c in enumerate(row) if c]
        if not hits:
            if odd and pair(u, u):
                out.selfs.append(u)
            elif queue is not None:
                raise ValueError("seed vector has no symplectic partner")
            else:
                out.radical.append(u)
            continue
        if pair(u, u):
            raise ValueError("cannot seed a pair with a non-isotropic vector")
        k = hits[-1] if alt else hits[0]
        v = work.pop(k) * (Fraction(1) / row[k])
        if odd:
            v = v - u * (pair(v, v) / 2)
            out.odd_pairs.append((u, v))
            work = [w - u * pair(v, w) - v * pair(u, w) for w in work]
            if queue is not None:
                queue = [w - u * pair(v, w) - v * pair(u, w) for w in queue]
        else:
            out.even_pairs.append((u, v))
            work = [w - v * pair(u, w) + u * pair(v, w) for w in work]
            if queue is not None:
                queue = [w - v * pair(u, w) + u * pair(v, w) for w in queue]

    # classify whatever is left after seeded pairing
    if queue is not None:
        rest = []
        for w in work:
            if w.is_zero():
                continue
            if w.parity() == ODD and pair(w, w):
                for t in out.selfs:
                    w = w - t * pair(t, w)
                c = pair(w, w)
                if not c:
                    rest.append(w)
                    continue
                r = rational_sqrt(Fraction(1) / c)
                if r is None:
                    raise ValueError("self-pairing is not a rational square")
                out.selfs.append(w * r)
            else:
                rest.append(w)
        out.radical.extend(rest)
    else:
        selfs = []
        radical = []
        for w in out.selfs + out.radical:
            if w.parity() == ODD:
                for t in selfs:
                    w = w - t * pair(t, w)
                c = pair(w, w)
                if c:
                    r = rational_sqrt(Fraction(1) / c)
                    if r is None:
                        raise ValueError("self-pairing is not a rational square")
                    selfs.append(w * r)
                    continue
            radical.append(w)
        out.selfs = selfs
        out.radical = radical
    return out
