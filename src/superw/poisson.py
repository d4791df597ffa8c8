"""Poisson superalgebras presented by a bracket table on generators.

The bracket of two generators is an arbitrary polynomial; everything else
follows from the graded Leibniz rule in one closed form, a sum over the
variables of one factor (see ``PoissonAlgebra.mono_bracket``), so no
bracket recurses once per factor.  Brackets of monomials are memoized, so
repeated normalization passes stay cheap.  The memo holds each bracket as
integer numerators over one denominator, the denominators of the table
entries, read straight off the entries' ``nums`` and ``den``.  ``bracket``
passes the kernel and its memo to :func:`superw.supercore.pair_sum`, the
truncated term-pair loop shared with the supercommutative and star products,
which reads a memoized bracket without a call and accumulates
Python ints over the inputs' numerators and builds the result Series from
integers, with no ``Fraction`` on the way.
"""

from __future__ import annotations

from fractions import Fraction

from .algebras import AlgebraError
from .linalg import Echelon, rational_sqrt
from .supercore import EVEN, ODD, merge_numerators, pair_sum


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
    """A bracket table promoted to a full Poisson bracket by one closed
    Leibniz formula on monomials, summed over term pairs."""

    def __init__(self, alg, table):
        self.alg = alg
        self.table = table
        self._memo = {}

    # -- the bracket on monomials -------------------------------------

    def mono_bracket(self, ma, mb):
        """Bracket of two normal monomials as ``(nums, den)``: integer
        numerators over one denominator (memoized).

        For a generator x, {x, mb} = sum_y e_y {x, y}·(mb/y) over the
        variables y of mb (e_y the exponent), each moved to the front of mb;
        any other ma gives {ma, mb} = sum_x e_x (ma/x)·{x, mb} over the
        variables x of ma, each moved to the end, {x, mb} read from the
        memo.  Each term takes the Koszul sign of its move."""
        memo = self._memo
        out = memo.get((ma, mb))
        if out is not None:
            return out
        alg = self.alg
        mul = alg.mono_mul
        groups = {}
        x = alg.gen_of.get(ma)
        if x is not None:
            for y, e in alg.mono_key(mb):
                s = self.table.entry(x, y)
                if not s.nums:
                    continue
                rest, sign = alg.split_var(mb, y)
                c = e * sign
                acc = groups.setdefault(s.den, {})
                for n, v in s.nums.items():
                    r = mul(n, rest)
                    if r is not None:
                        acc[r[0]] = acc.get(r[0], 0) + c * r[1] * v
        else:
            for x, e in alg.mono_key(ma):
                nums, den = self.mono_bracket(alg.gen_mono[x], mb)
                if not nums:
                    continue
                rest, sign = alg.split_var(ma, x, last=True)
                c = e * sign
                acc = groups.setdefault(den, {})
                for n, v in nums.items():
                    r = mul(rest, n)
                    if r is not None:
                        acc[r[0]] = acc.get(r[0], 0) + c * r[1] * v
        out = memo[(ma, mb)] = merge_numerators(groups)
        return out

    # -- the bracket on series ----------------------------------------

    def bracket(self, f, g, order="auto"):
        """Poisson bracket of two series.

        By default the result order is the interval-safe one: the joint
        input order lowered by the table drop.  An explicit ``order`` treats
        the inputs as polynomials and gives their bracket exactly through
        that order: a monomial pair is skipped only when the table drop
        cannot bring its terms down to it.  The normalization loops pass
        their cap, and the chart certificates the certified order.
        """
        if f.alg is not self.alg or g.alg is not self.alg:
            raise ValueError("series from a different universe")
        drop = self.table.drop
        if order == "auto":
            order = f._join_order(g)
            if order is not None:
                order -= drop
        return pair_sum(f, g, order, self.mono_bracket, drop, self._memo)

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

    def check_jacobi(self):
        """Jacobi identity on all generator triples; returns violations."""
        gens = [self.alg.gen(v.name) for v in self.alg.variables if not v.hbar]
        bad = []
        n = len(gens)
        for i in range(n):
            for j in range(i, n):
                for k in range(j, n):
                    jac = self.jacobiator(gens[i], gens[j], gens[k])
                    if not jac.is_zero():
                        bad.append(((gens[i], gens[j], gens[k]), jac))
        return bad


class SymplecticSplit:
    """Linear-level normal form of the constant part of the bracket."""

    def __init__(self):
        self.even_pairs, self.odd_pairs, self.selfs, self.radical = [], [], [], []


def linear_split(poisson, vectors, seeds=None):
    """Darboux normal form of the pairing <u,v> = {u,v}(0) on a list of
    linear elements.

    Pairs are formed for the seed vectors, or for every vector in order
    when no seeds are given; each takes the first available partner among
    the rest.  Every seed must be isotropic and find a partner.  In an
    unseeded run a vector with nonzero self-pairing (necessarily odd) is
    not paired: the rest is projected orthogonal to it and it is left
    unpaired.  If its self-pairing is not a rational square, the first
    remaining odd vector whose self-pairing is one is taken in its place.
    The vectors left unpaired (the non-seeds left over, in a seeded run)
    are then classified by one rule: an odd vector with nonzero
    self-pairing is orthogonalized against the earlier self-paired ones and
    scaled to pairing 1, anything else goes to the radical if it adds to
    the span of the radical so far, so the radical is a basis.  In an
    unseeded run the unpaired vectors are already mutually orthogonal.
    """

    def pair(u, v):
        return poisson.bracket(u, v).constant_term()

    work = []
    for v in vectors:
        if v.parity() == "mixed":
            raise ValueError("linear_split needs parity-homogeneous vectors")
        if not v.is_zero():
            work.append(v)
    todo = work
    if seeds is not None:
        todo = list(seeds)
        work = [w for w in work if w not in todo]

    out = SymplecticSplit()
    unpaired = []
    while todo:
        u = todo.pop(0)
        if u.is_zero():
            continue
        row = [pair(u, w) for w in work]
        hits = [k for k, c in enumerate(row) if c]
        if not hits:
            if todo is not work:
                raise AlgebraError("seed vector has no symplectic partner")
            unpaired.append(u)
            continue
        c = pair(u, u)
        if c:
            if todo is not work:
                raise AlgebraError("cannot seed a pair with a non-isotropic vector")
            if rational_sqrt(c) is None:
                for k, w in enumerate(work):
                    d = pair(w, w)
                    if d and rational_sqrt(d) is not None:
                        u, work[k], c = w, u, d
                        break
            work[:] = [w - u * (pair(u, w) / c) for w in work]
            unpaired.append(u)
            continue
        k = hits[0]
        v = work.pop(k) * (Fraction(1) / row[k])
        if u.parity() == ODD:
            v = v - u * (pair(v, v) / 2)
            out.odd_pairs.append((u, v))
            project = lambda w: w - u * pair(v, w) - v * pair(u, w)
        else:
            out.even_pairs.append((u, v))
            project = lambda w: w - v * pair(u, w) + u * pair(v, w)
        work[:] = map(project, work)
        if todo is not work:
            todo[:] = map(project, todo)

    radical = Echelon()
    for w in unpaired + work:
        if w.is_zero():
            continue
        if w.parity() == ODD and pair(w, w):
            for t in out.selfs:
                w = w - t * pair(t, w)
            c = pair(w, w)
            if c:
                r = rational_sqrt(Fraction(1) / c)
                if r is None:
                    raise AlgebraError("self-pairing is not a rational square")
                out.selfs.append(w * r)
                continue
        if radical.add(w.nums):
            out.radical.append(w)
    return out
