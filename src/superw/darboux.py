"""Formal Darboux charts around a point, classical and quantum, from one engine.

Starting from the linear normal form of the constant part of the bracket,
each chart pair is corrected order by order until its bracket relations are
exactly the flat ones through the requested order, and the remaining
directions are projected onto the centralizer of the chart (an even pair's
pass is two one-variable Taylor sums, the exact factoring of a double sum,
see :func:`even_project`).  Intermediate work runs at a slightly higher cap
(``order + guard``).  The certificates, and the residual checks of the
projections, compute each bracket at the certified order, so they are exact
through it: a monomial pair is skipped only when all of its terms lie above
that order.  A bracket whose value is used is computed at the cap, except in
the Taylor sums of the even projection: their k-th term x^k D_y^k a is read
through the cap and x^k starts at order k*eff(x), so D_y^k a is computed
through cap - k*eff(x) only.  That is exact when D_y lowers completion
orders by at most eff(x): the terms of D_y^(k-1) a that step k-1 leaves out
then give only terms of D_y^k a that step k leaves out too.  Where that
bound fails, the Taylor sums keep the cap.

Every loop stops by one rule: it returns once its residuals are clean
through the certified order, and raises "stalled" when a pass fails to raise
the residual order, an integer from 0 to the order (the even correction
ranks by ``hbar`` level first).  So the projections and the odd
normalizations take at most ``order + 1`` passes, with no cap.  A "stalled"
error lists the residual order after every pass.
:func:`build_chart` keeps the certificate of a chart as ``Chart.report``.

The engine is one algorithm run with one of two bracket backends.  A
backend supplies only the product, the residual bracket, the ``hbar`` power
of its unit and the split of a series into ``hbar`` levels:
:class:`PoissonBackend` is the Poisson bracket with unit 1, and
:class:`superw.starprod.StarBackend` is the star commutator with unit
``hbar^2``, so that ``[,]/hbar^2`` takes the place of ``{,}``.  The even
correction removes the defect ``hbar``-level by ``hbar``-level (a classical
chart has the one level 0), and the odd normalizations are the same
iterations for both.  Every odd normalization takes (1+rho)^(-1/2), rho the
defect divided by the unit, by one Newton step, th <- th - th*rho/2, repeated
under the one stopping rule: :func:`odd_self_normalize` on its element and
:func:`odd_pair_flatten` on both members of the pair.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .poisson import linear_split
from .supercore import pair_sum

# orders past the certified one at which the correction loops work
DEFAULT_GUARD = 4


class DarbouxError(Exception):
    pass


def clean_mod(s, level):
    """True when s has no terms of completion order <= level."""
    d = s.eff_deg()
    return d is None or d > level


def _record_pass(what, orders, d, show=str):
    """Append the residual order ``d`` of a pass of the loop ``what`` to
    ``orders``; raise "stalled", with every pass's order, when d does not
    rise above the order before it."""
    orders.append(d)
    if len(orders) > 1 and d <= orders[-2]:
        raise DarbouxError(f"{what} stalled at residual order {show(d)}; residual "
                           f"orders by pass: {', '.join(map(show, orders))}")


class PoissonBackend:
    """The classical bracket backend: the product ``*``, ``{,}`` and unit 1.

    The unit ``hbar^unit_level`` and the division ``div`` by it follow from
    the class attribute ``unit_level`` (0 here, 2 for the star commutator).

    ``bracket`` is exact through the cap ``order + guard`` or through the
    order it is given (the certified one, for certificates), and lowers the
    completion order of a monomial pair by at most ``drop``; ``mul`` is
    exact through the cap whatever orders its inputs carry.  Charts are
    certified through at least order 1: at order 0 an odd pair may stop
    flattening with a residual of order 1, and projecting through that pair
    loses the two orders of ``BracketTable.drop``, which leaves a constant
    residual behind.
    """

    kind = "classical"
    unit_level = 0

    def __init__(self, P, order, guard):
        self.P = P
        self.alg = P.alg
        self.order = max(order, 1)
        self.guard = guard
        self.cap = self.order + guard
        self.unit = P.alg.one().mul_hbar(self.unit_level)
        self.drop = P.table.drop
        self._bracket = P.bracket

    def mul(self, a, b):
        return pair_sum(a, b, self.cap, self.alg.mono_product)

    def bracket(self, a, b, order=None):
        """The bracket, exact through ``order`` (default: the cap)."""
        return self._bracket(a, b, order=self.cap if order is None else order)

    def div(self, r):
        """Divide by the unit.  A quotient by hbar^s is exact through s
        orders less than r, and its order label says so."""
        q = r.divide_hbar(self.unit_level)
        return q if r.order is None else q.truncate(r.order - self.unit_level)

    def levels(self, r):
        """{s: hbar-free coefficient of hbar^s} of r; all of r is level 0 in
        a universe without hbar."""
        return r.hbar_levels() if self.alg.hbar_id is not None else {0: r}


# -- the two normalizations, for either backend ---------------------------


def even_correct(B, f, g):
    """Correct g so that the bracket of f and g is the unit through the
    certification order.

    f is even and untouched; g must already pair with f to the unit at the
    point.  Each pass takes the lowest hbar-level s of the defect, r_s, and
    solves the classical equation {f0, X} = -r_s by the telescoping
    primitive X = -sum (-1)^k/(k+1)! g0^(k+1) ad_f0^k(r_s), where f0 and g0
    are the hbar-free parts of f and of the current g; it then adds
    hbar^(s - unit_level) X to g.  Classically (one level) this kills the
    defect and leaves a remainder of at least twice its order.
    """
    cap, alg = B.cap, B.alg
    f = f.truncate(cap)
    g = g.truncate(cap)
    f0 = B.levels(f).get(0, alg.zero(cap))
    r = B.bracket(f, g) - B.unit
    keys = []
    while not clean_mod(r, B.order):
        levels = B.levels(r)
        s = min(lv for lv, comp in levels.items() if not comp.is_zero())
        rs = levels[s]
        if s < B.unit_level or (s == B.unit_level and rs.constant_term()):
            raise DarbouxError("even pair is not normalized at the point")
        _record_pass("even correction", keys, (s, rs.eff_deg()),
                     lambda key: f"{key[1]} at hbar^{key[0]}")
        g0 = B.levels(g).get(0, alg.zero(cap))
        x = alg.zero(cap)
        u = rs
        gp = alg.one(cap)
        coef = Fraction(-1)
        for k in range(cap + 1):
            gp = gp * g0
            if gp.is_zero():
                break
            x = x + gp * u * coef
            u = B.P.bracket(f0, u, order=cap)
            coef *= Fraction(-1, k + 2)
        g = g + x.mul_hbar(s - B.unit_level).truncate(cap)
        r = B.bracket(f, g) - B.unit
    return g


def odd_self_normalize(B, th):
    """Scale an odd element so that its self-bracket is the unit through the
    certification order.

    Each pass replaces th by th - th*rho/2, where rho is the defect divided
    by the unit; classically this is Newton's step for (1+rho)^(-1/2).
    """
    th = th.truncate(B.cap)
    orders = []
    while True:
        r = B.bracket(th, th) - B.unit
        if clean_mod(r, B.order):
            return th
        _record_pass("odd self-normalization", orders, r.eff_deg())
        th = th - B.mul(th, B.div(r)) * Fraction(1, 2)


# -- projectors and the odd-pair flattening, for either backend ---------


def _taylor(B, x, y, a, sign):
    """sum_k sign^k/k! x^k D_y^k a, D_y the bracket with y over the unit.

    x^k starts at order k*e, e = eff(x), and ``B.mul`` is exact through the
    cap, so D_y^k a is computed through need = cap - k*e only: its bracket
    through need plus the order of the unit, which the division takes off
    again, and never past the cap.  The loop stops once need < 0.  This is
    exact when D_y lowers completion orders by at most e (by induction on k:
    a term of D_y^(k-1) a above need + e, where step k-1 stopped, gives
    terms above need).  D_y lowers them by at most drop + unit_level -
    eff(y), 1 on every bundled algebra; where that exceeds e, every step
    keeps the cap.
    """
    cap, lift = B.cap, B.unit_level
    ex, ey = x.eff_deg(), y.eff_deg()
    if ex is None or ey is None:  # x^k or D_y a vanishes
        return a
    step = ex if B.drop + lift - ey <= ex else 0
    out = u = a
    xk = B.alg.one(cap)
    for k in range(1, cap + 1):
        need = cap - k * step
        if need < 0:
            break
        u = B.div(B.bracket(y, u, min(cap, need + lift))) * Fraction(sign, k)
        if u.is_zero():
            break
        xk = B.mul(xk, x)
        if xk.is_zero():
            break
        out = out + B.mul(xk, u)
    return out


def even_project(B, f, g, a):
    """Part of ``a`` commuting with an even chart pair.

    One pass applies sum (-1)^j/(i!j!) f^i g^j D_g^i D_f^j, where D_x is the
    bracket with x divided by the unit, as two one-variable Taylor sums:
    a <- sum (-1)^k/k! g^k D_f^k a, then a <- sum 1/k! f^k D_g^k a.  This is
    exact: D_g is a derivation of the product and D_g(g) = 0 (g is even), so
    D_g^i (g^j w) = g^j D_g^i w.  With exact flat relations the pass is a
    projector, so a pass or two push the residual brackets beyond the
    certification order.
    """
    cap, order = B.cap, B.order
    a = a.truncate(cap)
    orders = []
    while True:
        # only tested, so computed at the order: the lowest term of a
        # residual that is not clean survives, and so does its order
        rf, rg = B.bracket(f, a, order), B.bracket(g, a, order)
        if clean_mod(rf, order) and clean_mod(rg, order):
            return a
        _record_pass("even projection", orders,
                     min(x for x in (rf.eff_deg(), rg.eff_deg()) if x is not None))
        a = _taylor(B, f, g, _taylor(B, g, f, a, -1), 1)


def odd_self_project(B, th, a):
    """Split a = b0 + th*b1 with both parts commuting with th."""
    a = a.truncate(B.cap)
    b1 = B.div(B.bracket(th, a))
    b0 = a - B.mul(th, b1)
    for r in (B.bracket(th, b0, B.order), B.bracket(th, b1, B.order)):
        if not clean_mod(r, B.order):
            raise DarbouxError("odd projection residual too large")
    return b0, b1


def odd_pair_flatten(B, f, g):
    """Normalize an odd pair to {f,f} = {g,g} = 0, {f,g} = 1 (in units).

    Each pass makes the self-bracket corrections in turn (f -= g{f,f}/2,
    then g -= f{g,g}/2 with the new f), recomputes the cross defect
    q = {f,g} - 1 and rescales both members by (1+rho)^(-1/2), rho = q over
    the unit, with the Newton step of :func:`odd_self_normalize`:
    f -= f*rho/2 and g -= g*rho/2.  A pass does not solve its defects
    exactly; the loop repeats it under the one stopping rule.
    """
    cap, order = B.cap, B.order
    f = f.truncate(cap)
    g = g.truncate(cap)
    orders = []
    while True:
        aa = B.bracket(f, f)
        bb = B.bracket(g, g)
        q = B.bracket(f, g) - B.unit
        if q.constant_term():
            raise DarbouxError("odd pair is not normalized at the point")
        degs = [x for x in (aa.eff_deg(), bb.eff_deg(), q.eff_deg()) if x is not None]
        d = min(degs, default=order + 1)
        if d > order:
            return f, g
        _record_pass("odd pair normalization", orders, d)
        if not clean_mod(aa, order):
            f = f - B.mul(g, B.div(aa)) * Fraction(1, 2)
        if not clean_mod(bb, order):  # g is unchanged since bb was computed
            g = g - B.mul(f, B.div(bb)) * Fraction(1, 2)
        q = B.bracket(f, g) - B.unit
        if not clean_mod(q, order):
            r = B.div(q)
            f = f - B.mul(f, r) * Fraction(1, 2)
            g = g - B.mul(g, r) * Fraction(1, 2)


def odd_pair_project(B, f, g, a):
    """Split a over a flat odd pair: a = b00 + f b10 + g b01 + fg b11."""
    a = a.truncate(B.cap)
    adf = B.div(B.bracket(f, a))
    b11 = -B.div(B.bracket(g, adf))
    b01 = adf + B.mul(f, b11)
    b10 = B.div(B.bracket(g, a)) - B.mul(g, b11)
    # f(g b11) equals (fg)b11 because both products are exact through the
    # cap and lower no order
    b00 = a - B.mul(f, b10) - B.mul(g, b01) - B.mul(f, B.mul(g, b11))
    for x, b in ((f, b00), (g, b00), (f, b11), (g, b11)):
        if not clean_mod(B.bracket(x, b, B.order), B.order):
            raise DarbouxError("odd pair projection residual too large")
    return b00, b10, b01, b11


# -- the full chart ----------------------------------------------------


class ChartEntry(namedtuple("ChartEntry", "kind a b", defaults=(None,))):
    """One entry of a chart: ``kind`` is "even", "odd" (a flat pair) or
    "self"; ``a`` and ``b`` are the pair's Series, ``b`` None for a self
    entry."""

    __slots__ = ()

    def variables(self):
        return (self.a,) if self.b is None else (self.a, self.b)


class Chart:
    """A chart over ``backend``, certified through ``order`` and worked at
    ``cap``: its entries, its centralizer generators and, once built, the
    certificate of :func:`build_chart` as ``report``."""

    def __init__(self, backend, order, cap):
        self.backend, self.order, self.cap = backend, order, cap
        self.entries, self.center_gens, self.report = [], [], None

    def chart_vars(self):
        return [v for e in self.entries for v in e.variables()]

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

    def verify(self):
        """Exact residual certificates through the report order."""
        return certify(self)


def certify(chart):
    """Exact residual certificates of a chart through its report order,
    against the flat model: the bracket of the two members of a pair is the
    unit, and so is a self entry's square; every other bracket of chart
    variables is 0."""
    B = chart.backend
    order = chart.order
    vs = chart.chart_vars()
    owner = [e for e in chart.entries for _ in e.variables()]
    failures = []
    for i in range(len(vs)):
        for j in range(i, len(vs)):
            r = B.bracket(vs[i], vs[j], order)
            if owner[i] is owner[j] and (i == j) == (owner[i].kind == "self"):
                r = r - B.unit
            if not clean_mod(r, order):
                failures.append(("chart", i, j, r.eff_deg()))
    for k, c in enumerate(chart.center_gens):
        for i, v in enumerate(vs):
            r = B.bracket(v, c, order)
            if not clean_mod(r, order):
                failures.append(("center", i, k, r.eff_deg()))
    homogeneous = all(v.is_weight_homogeneous() for v in vs + chart.center_gens)
    return {"weight_homogeneous": homogeneous, "failures": failures, "ok": not failures}


def build_chart(cls, B, seeds, centers):
    """Run the engine: normalize each seed entry against the entries before
    it, project the center seeds, and certify into ``chart.report``.

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
                vs = (vs[0], even_correct(B, *vs))
            elif kind == "odd":
                vs = odd_pair_flatten(B, *vs)
            else:
                vs = (odd_self_normalize(B, *vs),)
            chart.entries.append(ChartEntry(kind, *vs))
        for k, w in enumerate(centers):
            where = f"center generator {k}"
            chart.center_gens.append(chart.project(w.truncate(B.cap)))
    except DarbouxError as exc:
        raise DarbouxError(
            f"{B.kind} chart, {where}, cap {B.cap} = order {B.order} + "
            f"guard {B.guard}: {exc}") from None
    chart.report = report = chart.verify()
    if not report["ok"]:
        raise DarbouxError(f"{B.kind} chart failed certification: {report['failures']}")
    return chart


def equivariant_darboux(P, order, seeds=None, guard=DEFAULT_GUARD, plan=None):
    """Build a Darboux chart: even pairs, then odd pairs, then odd square
    roots; everything left over is projected into the centralizer.

    The chart is built around the ``seeds`` directions, each flattened with
    a partner, and the rest of the space becomes self entries and
    centralizer generators; a precomputed ``plan`` (a
    :func:`superw.poisson.linear_split` result) replaces that splitting.
    """
    if plan is None:
        if seeds is None:
            raise TypeError("equivariant_darboux needs seeds or a plan")
        vectors = [P.alg.gen(v.name) for v in P.alg.variables if not v.hbar]
        plan = linear_split(P, vectors, seeds)
    entries = ([("even", p) for p in plan.even_pairs]
               + [("odd", p) for p in plan.odd_pairs]
               + [("self", (u,)) for u in plan.selfs])
    return build_chart(Chart, PoissonBackend(P, order, guard), entries, plan.radical)
