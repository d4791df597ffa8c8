"""The property-check suite behind ``superw suite``.

Over every catalog algebra: the Jacobi identity on generators and on random
series, the weights of the bracket, both charts, the semiclassical limit of
the star commutator, star associativity, the Rees round trip and, from order
2 up, the comparison of the two W-algebra routes and the splitting
certificate.  Random series are drawn from one ``random.Random(seed)``, so a
report is a function of its order and seed.  Only this command runs the
suite, and ``cli.build_report`` imports the module when it does.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebras import catalog_names, load_algebra
from .darboux import DarbouxError
from .starprod import quantum_darboux, rees_inverse, rees_map
from .supercore import EVEN, ODD
from .wslice import (
    compare_realizations,
    slice_setup,
    slice_walgebra,
    splitting_check,
    whittaker_walgebra,
)

__all__ = ["suite_report"]


def _random_series(rng, alg, wmax, amax, nterms, parity=None, with_hbar=False):
    ids = [v.ident for v in alg.variables if with_hbar or not v.hbar]
    terms = {}
    tries = 0
    made = 0
    while made < nterms and tries < 50 * nterms:
        tries += 1
        mono = {}
        w = a = 0
        for _ in range(rng.randrange(0, 4)):
            if not ids:
                break
            i = rng.choice(ids)
            v = alg.by_id[i]
            if v.parity == ODD and mono.get(i):
                continue
            if w + v.weight > wmax or a + 1 > amax:
                continue
            mono[i] = mono.get(i, 0) + 1
            w += v.weight
            a += 1
        m = alg.monomial(mono)
        if parity is not None and alg.mono_parity(m) != parity:
            continue
        c = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
        if not c:
            continue
        terms[m] = terms.get(m, 0) + c
        made += 1
    return alg.series(terms)


def _suite_checks(order, seed):
    rng = random.Random(seed)
    trials = 3 + 2 * order
    cap = order + 2
    checks = []

    def add(name, ok, **detail):
        checks.append({"name": name, "ok": bool(ok),
                       "detail": {k: detail[k] for k in sorted(detail)}})

    def randomized(name, draw, holds, skip=None):
        """Record the check ``name`` over ``trials`` draws: a draw in which a
        series meets ``skip`` is skipped, any other on which ``holds`` fails
        is bad."""
        bad = 0
        for _ in range(trials):
            sers = draw()
            if not (skip and any(map(skip, sers))) and not holds(*sers):
                bad += 1
        add(name, bad == 0, trials=trials, bad=bad)

    def draws(alg, n, size, graded=False):
        """A draw of n random series of ``size``; a graded series draws its
        parity first, among those that a nonzero series of ``alg`` takes."""
        parities = sorted({EVEN} | {v.parity for v in alg.variables})
        return lambda: [_random_series(rng, alg, *size,
                                       parity=rng.choice(parities) if graded else None)
                        for _ in range(n)]

    for name in catalog_names():
        data = load_algebra(name)
        ctx = slice_setup(data)
        P, S, alg = ctx.poisson, ctx.star, ctx.alg

        viol = P.check_jacobi()
        add("poisson_jacobi_generators:%s" % name, not viol, violations=len(viol))
        randomized("poisson_jacobi_random:%s" % name, draws(alg, 3, (6, 4, 3), True),
                   lambda a, b, c: P.jacobiator(a, b, c).is_zero())

        # the Kazhdan filtration makes the bracket lower weight by 2
        wviol = P.table.check_weights(-2)
        add("bracket_weights:%s" % name, not wviol, violations=len(wviol))

        # a chart that is not built fails under its own name, with the error
        cc = qc = error = None
        try:
            cc = ctx.classical_chart(order)
            qc = quantum_darboux(S, cc)
        except DarbouxError as exc:
            error = str(exc)
        for label, chart in (("classical_chart", cc), ("quantum_chart", qc)):
            if chart is None:
                add("%s:%s" % (label, name), False, error=error)
            else:
                add("%s:%s" % (label, name), chart.report["ok"])

        def semiclassical(a, b):
            # a and b are hbar-free polynomials, so both sides are exact
            try:
                semi = S.commutator(a, b, order=None).divide_hbar(2).set_hbar(0)
            except ValueError:
                return False
            return semi == P.bracket(a, b, order=None)

        def associative(a, b, c):
            lhs = S.star(S.star(a, b, order=cap), c, order=cap)
            rhs = S.star(a, S.star(b, c, order=cap), order=cap)
            return (lhs - rhs).truncate(cap).is_zero()

        randomized("semiclassical_limit:%s" % name, draws(alg, 2, (6, 3, 2), True),
                   semiclassical)
        randomized("star_associativity:%s" % name, draws(alg, 3, (4, 3, 2)), associative)
        randomized("rees_roundtrip:%s" % name, draws(alg, 1, (6, 4, 3)),
                   lambda a: (rees_inverse(rees_map(a)) - a).is_zero(),
                   lambda a: a.is_zero())

        if order >= 2 and qc is None:
            add("whittaker_vs_slice:%s" % name, False, error=error)
            add("splitting:%s" % name, False, error=error)
        elif order >= 2:
            wh = whittaker_walgebra(ctx, order)
            sl = slice_walgebra(ctx, order, qc)
            cm = compare_realizations(ctx, order, sl, wh)
            add("whittaker_vs_slice:%s" % name, cm.ok,
                dims=wh.dims, slice_dims=sl.dims)
            sp = splitting_check(ctx, min(order, 4), k=2, qc=qc)
            add("splitting:%s" % name, sp.ok, checked=sp.checked)

    return checks


def suite_report(order=2, seed=0):
    checks = _suite_checks(order, seed)
    return {
        "kind": "suite",
        "order": order,
        "seed": seed,
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
    }
