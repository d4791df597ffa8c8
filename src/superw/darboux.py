"""Formal Darboux charts around a point, classical and quantum, from one engine.

Starting from the linear normal form of the constant part of the bracket,
each chart pair is corrected order by order until its bracket relations are
exactly the flat ones through the requested order, and the remaining
directions are projected onto the centralizer of the chart.  Intermediate
work runs at a slightly higher cap (``order + guard``); the final
certificates are recomputed with exact arithmetic.

The engine runs with one of two bracket backends.  A backend supplies the
product, the residual bracket, division by the unit, and the unit itself:
:class:`PoissonBackend` is the Poisson bracket with unit 1, and
:class:`superw.starprod.StarBackend` is the star commutator with unit
``hbar^2``, so that ``[,]/hbar^2`` takes the place of ``{,}``.  Only the even
correction and the odd self-normalization are different algorithms in the
two cases; each backend implements those two itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .poisson import linear_split
from .supercore import EVEN, Series

# passes before an even projection or an odd-pair flattening gives up
PROJECT_PASSES = 10
FLATTEN_PASSES = 30


class DarbouxError(Exception):
    pass


def clean_mod(s, level):
    """True when s has no terms of completion order <= level."""
    d = s.eff_deg()
    return d is None or d > level


def _exact(s):
    return Series(s.alg, s.terms, None)


class PoissonBackend:
    """The classical bracket backend: the product ``*``, ``{,}`` and unit 1.

    ``bracket`` works at the cap ``order + guard``; ``exact_bracket`` is the
    untruncated one the certificates use.
    """

    kind = "classical"

    def __init__(self, P, order, guard):
        self.P = P
        self.alg = P.alg
        self.order = order
        self.guard = guard
        self.cap = order + guard
        self.unit = P.alg.one()
        self._bracket = P.bracket

    def mul(self, a, b):
        return a * b

    def bracket(self, a, b):
        return self._bracket(a, b, order=self.cap)

    def exact_bracket(self, a, b):
        return self._bracket(a, b, order=None)

    def div(self, r):
        """Divide by the unit."""
        return r

    def even_correct(self, f, g):
        """Correct g so that {f, g} = 1 through the certification order.

        f is even and untouched; g must already satisfy {f,g} = 1 + (higher).
        Each pass subtracts sum_i (-1)^i/i! g^i ad_f^(i-1)(t) for the current
        defect t, which kills t exactly and leaves a remainder of at least
        twice its order.
        """
        cap = self.cap
        f = f.truncate(cap)
        g = g.truncate(cap)
        t = self.bracket(f, g) - 1
        if t.constant_term():
            raise DarbouxError("even pair is not normalized at the point")
        prev = -1
        while not clean_mod(t, self.order):
            d = t.eff_deg()
            if d <= prev:
                raise DarbouxError(f"even correction stalled at residual order {d}")
            prev = d
            delta = self.alg.zero(cap)
            u = t
            gp = self.alg.one(cap)
            coef = Fraction(1)
            for i in range(1, cap + 1):
                gp = gp * g
                if gp.is_zero():
                    break
                coef *= Fraction(-1, i)
                delta = delta + gp * u * coef
                u = self.bracket(f, u)
            g = g + delta
            t = self.bracket(f, g) - 1
        return g

    def odd_self_normalize(self, th):
        """Scale an odd element with {th, th} = 1 + (higher) to {th, th} = 1.

        The defect t commutes with th (a consequence of the graded Jacobi
        identity), so multiplying by (1+t)^(-1/2) works in one step.
        """
        th = th.truncate(self.cap)
        t = self.bracket(th, th) - 1
        if t.constant_term():
            raise DarbouxError("odd direction is not unit-paired at the point")
        if t.is_zero():
            return th
        out = inv_sqrt_series(self, t) * th
        if not clean_mod(self.bracket(out, out) - 1, self.order):
            raise DarbouxError("odd self-normalization failed")
        return out


def inv_sqrt_series(B, t):
    """(1+t)^(-1/2) through the cap of B, with powers in B's product.

    t must be even with deg(t) >= 1.  Example: for t = x this starts
    1 - x/2 + 3*x^2/8 - ...
    """
    if t.parity() not in (None, EVEN):
        raise ValueError("inv_sqrt_series needs an even argument")
    out = B.alg.one(B.cap)
    if t.is_zero():
        return out
    d = t.eff_deg()
    if d < 1:
        raise ValueError("inv_sqrt_series needs deg(t) >= 1")
    power = B.alg.one(B.cap)
    coef = Fraction(1)
    k = 0
    while (k + 1) * d <= B.cap:
        k += 1
        power = B.mul(power, t)
        if power.is_zero():
            break
        coef *= Fraction(-(2 * k - 1), 2 * k)  # binom(-1/2, k) ratio
        out = out + power * coef
    return out


# -- projectors and the odd-pair flattening, for either backend ---------


def even_project(B, f, g, a):
    """Part of ``a`` commuting with an even chart pair.

    One pass applies sum (-1)^j/(i!j!) f^i g^j D_g^i D_f^j, where D_x is the
    bracket with x divided by the unit; with exact flat relations this is a
    projector, so a few passes push the residual brackets beyond the
    certification order.
    """
    cap, order = B.cap, B.order
    a = a.truncate(cap)
    prev = -1
    for attempt in range(PROJECT_PASSES):
        rf, rg = B.bracket(f, a), B.bracket(g, a)
        if clean_mod(rf, order) and clean_mod(rg, order):
            return a
        if attempt == PROJECT_PASSES - 1:
            break
        d = min(x for x in (rf.eff_deg(), rg.eff_deg()) if x is not None)
        if d <= prev:
            raise DarbouxError(f"even projection stalled at residual order {d}")
        prev = d
        out = B.alg.zero(cap)
        u = a
        gj = B.alg.one(cap)
        for j in range(cap + 1):
            if j:
                gj = B.mul(gj, g)
                if gj.is_zero():
                    break
                u = B.div(B.bracket(f, u))
            v = u
            fi_gj = gj
            for i in range(cap + 1 - j):
                if i:
                    fi_gj = B.mul(f, fi_gj)
                    if fi_gj.is_zero():
                        break
                    v = B.div(B.bracket(g, v))
                c = Fraction((-1) ** j, factorial(i) * factorial(j))
                out = out + B.mul(fi_gj, v) * c
        a = out
    raise DarbouxError(f"even projection did not converge in {PROJECT_PASSES} passes")


def odd_self_project(B, th, a):
    """Split a = b0 + th*b1 with both parts commuting with th."""
    a = a.truncate(B.cap)
    b1 = B.div(B.bracket(th, a))
    b0 = a - B.mul(th, b1)
    for r in (B.bracket(th, b0), B.bracket(th, b1)):
        if not clean_mod(r, B.order):
            raise DarbouxError("odd projection residual too large")
    return b0, b1


def odd_pair_flatten(B, f, g):
    """Normalize an odd pair to {f,f} = {g,g} = 0, {f,g} = 1 (in units).

    Alternates self-bracket corrections (f -= g{f,f}/2 and the mirror move)
    with a joint rescale by (1 + ({f,g}-1))^(-1/2), which is central once
    the self-brackets vanish.
    """
    cap, order = B.cap, B.order
    f = f.truncate(cap)
    g = g.truncate(cap)
    prev = -1
    for _ in range(FLATTEN_PASSES):
        aa = B.bracket(f, f)
        bb = B.bracket(g, g)
        q = B.bracket(f, g) - B.unit
        if q.constant_term():
            raise DarbouxError("odd pair is not normalized at the point")
        degs = [x for x in (aa.eff_deg(), bb.eff_deg(), q.eff_deg()) if x is not None]
        if not degs or min(degs) > order:
            return f, g
        d = min(degs)
        if d <= prev:
            raise DarbouxError(f"odd pair normalization stalled at residual order {d}")
        prev = d
        if not clean_mod(aa, order):
            f = f - B.mul(g, B.div(aa)) * Fraction(1, 2)
        bb = B.bracket(g, g)
        if not clean_mod(bb, order):
            g = g - B.mul(f, B.div(bb)) * Fraction(1, 2)
        q = B.bracket(f, g) - B.unit
        if not clean_mod(q, order):
            s = inv_sqrt_series(B, B.div(q))
            f = B.mul(f, s)
            g = B.mul(g, s)
    raise DarbouxError(
        f"odd pair normalization did not converge in {FLATTEN_PASSES} passes")


def odd_pair_project(B, f, g, a):
    """Split a over a flat odd pair: a = b00 + f b10 + g b01 + fg b11."""
    a = a.truncate(B.cap)
    adf = B.div(B.bracket(f, a))
    b11 = -B.div(B.bracket(g, adf))
    b01 = adf + B.mul(f, b11)
    b10 = B.div(B.bracket(g, a)) - B.mul(g, b11)
    b00 = a - B.mul(f, b10) - B.mul(g, b01) - B.mul(B.mul(f, g), b11)
    for x, b in ((f, b00), (g, b00), (f, b11), (g, b11)):
        if not clean_mod(B.bracket(x, b), B.order):
            raise DarbouxError("odd pair projection residual too large")
    return b00, b10, b01, b11


# -- the full chart ----------------------------------------------------


@dataclass
class ChartEntry:
    kind: str          # "even", "odd" (flat pair) or "self"
    a: Series
    b: Series = None

    def variables(self):
        return (self.a,) if self.b is None else (self.a, self.b)


@dataclass
class Chart:
    backend: object
    order: int
    cap: int
    entries: list = field(default_factory=list)
    center_gens: list = field(default_factory=list)

    def chart_vars(self):
        out = []
        for e in self.entries:
            out.extend(e.variables())
        return out

    def project(self, a):
        """Project onto the centralizer of all chart variables."""
        B = self.backend
        for e in self.entries:
            if e.kind == "even":
                a = even_project(B, e.a, e.b, a)
            elif e.kind == "odd":
                a = odd_pair_project(B, e.a, e.b, a)[0]
            else:
                a = odd_self_project(B, e.a, a)[0]
        return a

    def expected_bracket(self, i, j):
        """The flat-model bracket of chart variables number i and j."""
        vs = []
        for k, e in enumerate(self.entries):
            for pos in range(len(e.variables())):
                vs.append((k, e.kind, pos))
        ki, kindi, pi = vs[i]
        kj, _, pj = vs[j]
        if ki != kj:
            return self.backend.alg.zero()
        one = i == j if kindi == "self" else pi != pj
        return self.backend.unit if one else self.backend.alg.zero()

    def verify(self):
        """Exact residual certificates through the report order."""
        return certify(self)


def certify(chart):
    """Exact residual certificates of a chart through its report order."""
    B = chart.backend
    vs = [_exact(v) for v in chart.chart_vars()]
    failures = []
    worst = None
    for i in range(len(vs)):
        for j in range(i, len(vs)):
            r = B.exact_bracket(vs[i], vs[j]) - chart.expected_bracket(i, j)
            d = r.eff_deg()
            if d is not None:
                worst = d if worst is None else min(worst, d)
            if not clean_mod(r, chart.order):
                failures.append(("chart", i, j, d))
    for k, c in enumerate(chart.center_gens):
        ce = _exact(c)
        for i, v in enumerate(vs):
            r = B.exact_bracket(v, ce)
            d = r.eff_deg()
            if d is not None:
                worst = d if worst is None else min(worst, d)
            if not clean_mod(r, chart.order):
                failures.append(("center", i, k, d))
    homogeneous = all(
        v.is_weight_homogeneous() for v in vs + list(chart.center_gens)
    )
    return {
        "order": chart.order,
        "chart_variables": len(vs),
        "center_generators": len(chart.center_gens),
        "residual_floor": worst,
        "weight_homogeneous": homogeneous,
        "failures": failures,
        "ok": not failures,
    }


def build_chart(cls, B, seeds, centers):
    """Run the engine: normalize each seed entry against the entries before
    it, project the center seeds, and certify.

    ``seeds`` lists (kind, seed variables) in chart order; the result is a
    ``cls`` chart over the backend ``B``.  A failure names the backend, the
    entry and the cap.
    """
    chart = cls(B, B.order, B.cap)
    where = None
    try:
        for kind, vs in seeds:
            where = f"{kind} entry {len(chart.entries)}"
            vs = [chart.project(v.truncate(B.cap)) for v in vs]
            if kind == "even":
                vs = (vs[0], B.even_correct(*vs))
            elif kind == "odd":
                vs = odd_pair_flatten(B, *vs)
            else:
                vs = (B.odd_self_normalize(*vs),)
            chart.entries.append(ChartEntry(kind, *vs))
        for k, w in enumerate(centers):
            where = f"center generator {k}"
            chart.center_gens.append(chart.project(w.truncate(B.cap)))
    except DarbouxError as exc:
        raise DarbouxError(
            f"{B.kind} chart, {where}, cap {B.cap} = order {B.order} + "
            f"guard {B.guard}: {exc}") from None
    report = chart.verify()
    if not report["ok"]:
        raise DarbouxError(f"{B.kind} chart failed certification: {report['failures']}")
    return chart


def equivariant_darboux(P, order, seeds=None, guard=4, plan=None):
    """Build a Darboux chart: even pairs, then odd pairs, then odd square
    roots; everything left over is projected into the centralizer.

    With ``seeds`` the chart is built only around those directions and the
    rest of the space becomes centralizer generators; without seeds the
    whole constant symplectic part is flattened.  A precomputed ``plan``
    (a :func:`superw.poisson.linear_split` result) replaces the internal
    linear splitting.
    """
    if plan is None:
        vectors = [P.alg.gen(v.name) for v in P.alg.variables if not v.hbar]
        plan = linear_split(P, vectors, seeds=seeds)
    entries = ([("even", p) for p in plan.even_pairs]
               + [("odd", p) for p in plan.odd_pairs]
               + [("self", (u,)) for u in plan.selfs])
    return build_chart(Chart, PoissonBackend(P, order, guard), entries, plan.radical)
