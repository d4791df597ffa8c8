"""Command-line front end: validation, charts, W-algebras, and a check suite.

All reports are JSON with sorted keys and only exact rational data, so a rerun
with the same configuration and seed is byte-identical.  Chart series carry
their effective order per term, which lets a higher-order report be truncated
down for comparison against a lower-order run of the same pipeline.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from .algebras import AlgebraError, build_chi, catalog_names, dynkin_grading, load_algebra
from .darboux import DEFAULT_GUARD, DarbouxError
from .starprod import quantum_darboux, rees_inverse, rees_map
from .supercore import EVEN, EXPONENT_LIMIT, ODD
from .wslice import (
    compare_realizations,
    slice_setup,
    slice_walgebra,
    splitting_check,
    whittaker_walgebra,
)

__all__ = ["main", "build_report"]


# -- serialization ------------------------------------------------------


def _exact_terms(s):
    """Exact series as [monomial, coefficient] rows in canonical order."""
    alg, terms = s.alg, s.terms
    return [[alg.mono_str(m), str(terms[m])] for m in sorted(terms, key=alg.mono_key)]


def _chart_terms(s, order):
    """Chart series as [monomial, coefficient, effective-order] rows.

    Terms beyond the certified order are working data of the correction
    loops -- they shift between runs at different caps -- so only rows with
    effective order at most ``order`` are reported.
    """
    alg, terms = s.alg, s.terms
    rows = sorted((alg.mono_eff(m), alg.mono_str(m), str(c))
                  for m, c in terms.items() if alg.mono_eff(m) <= order)
    return [[m, c, e] for e, m, c in rows]


def _ser_chart(chart, order):
    return {
        "entries": [{"kind": e.kind,
                     "vars": [_chart_terms(v, order) for v in e.variables()]}
                    for e in chart.entries],
        "center_generators": [_chart_terms(c, order) for c in chart.center_gens],
        "weight_homogeneous": chart.report["weight_homogeneous"],
        "ok": chart.report["ok"],
    }


def _ser_gens(gens):
    return [{"weight": w, "parity": p, "terms": _exact_terms(s)}
            for w, p, s in gens]


def _ser_products(products):
    out = {}
    for (i, j), rows in sorted(products.items()):
        out["%d,%d" % (i, j)] = [[[list(p) for p in word], str(c)]
                                 for word, c in rows]
    return out


# -- report builders ----------------------------------------------------


def check_report(algebra, alt=False):
    data = load_algebra(algebra)
    grading = dynkin_grading(data)
    chi = build_chi(data, grading, alt=alt)
    return {
        "kind": "check",
        "algebra": data.name,
        "alt_lagrangian": alt,
        "dim": data.dim,
        "parities": {n: p for n, p in zip(data.names, data.parities)},
        "grades": {n: g for n, g in zip(data.names, grading.grades)},
        "weights": {n: w for n, w in zip(data.names, grading.weights)},
        "centralizer_signature": [list(t) for t in grading.ge_weight_signature()],
        "chi": {data.names[i]: str(Fraction(v, chi.den)) for i, v in enumerate(chi.chi) if v},
        "lagrangian": [data.names[i] for i in chi.l_indices],
        "shift_directions": [data.names[i] for i in chi.m_indices],
        "theta": None if chi.theta_index is None else data.names[chi.theta_index],
        "ok": True,
    }


def darboux_report(algebra, order, guard=DEFAULT_GUARD, alt=False):
    data = load_algebra(algebra)
    ctx = slice_setup(data, alt=alt)
    # The correction loops stop as soon as the residuals are clean through
    # the requested order, and a later pass can still add terms at exactly
    # that order.  Certifying two orders deeper pins every reported term,
    # making reruns at higher order agree byte for byte after truncation.
    deep = order + 2
    classical = ctx.classical_chart(deep, guard)
    qc = quantum_darboux(ctx.star, classical)
    return {
        "kind": "darboux",
        "algebra": data.name,
        "alt_lagrangian": alt,
        "order": order,
        "guard": guard,
        "seeds": [data.names[ctx.orig_of[i]] for i in sorted(ctx.m_ids)],
        "classical": _ser_chart(classical, order),
        "quantum": _ser_chart(qc, order),
        "ok": classical.report["ok"] and qc.report["ok"],
    }


def walgebra_report(algebra, order, guard=DEFAULT_GUARD, method="both", alt=False):
    data = load_algebra(algebra)
    ctx = slice_setup(data, alt=alt)
    rep = {
        "kind": "walgebra",
        "algebra": data.name,
        "alt_lagrangian": alt,
        "order": order,
        "guard": guard,
        "method": method,
    }
    ok = True
    wh = sl = None
    if method in ("whittaker", "both"):
        wh = whittaker_walgebra(ctx, order)
        rep["whittaker"] = {
            "dims": wh.dims,
            "expected_dims": wh.expected_dims,
            "generators": _ser_gens(wh.gens),
            "new_counts": {str(w): list(c) for w, c in sorted(wh.new_counts.items())},
            "expected_counts": {str(w): list(c)
                                for w, c in sorted(wh.expected_counts.items())},
            "missing": wh.missing,
            "ok": wh.ok,
        }
        ok = ok and wh.ok
    if method in ("slice", "both"):
        sl = slice_walgebra(ctx, order, qc=ctx.quantum_chart(order, guard))
        rep["slice"] = {
            "dims": sl.dims,
            "generators": _ser_gens(sl.gens),
            "products": _ser_products(sl.products),
            "chart_ok": sl.chart_report["ok"],
            "invariance_ok": sl.invariance_ok,
            "products_ok": sl.products_ok,
            "ok": sl.ok,
        }
        ok = ok and sl.ok
    if method == "both":
        cm = compare_realizations(ctx, order, slice_result=sl, whittaker_result=wh)
        rep["compare"] = cm._asdict()
        ok = ok and cm.ok
    rep["ok"] = ok
    return rep


def build_report(kind, **kw):
    """The report of one command; an option left out takes the default of
    its report builder, the only place the defaults are set."""
    builders = {"check": check_report, "darboux": darboux_report,
                "walgebra": walgebra_report, "suite": suite_report}
    if kind not in builders:
        raise ValueError("unknown report kind %r" % kind)
    return builders[kind](**kw)


# -- the property suite -------------------------------------------------


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
        parity first."""
        return lambda: [_random_series(rng, alg, *size,
                                       parity=rng.choice((EVEN, ODD)) if graded else None)
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
            comm = S.commutator(a, b, order=cap)
            try:
                semi = comm.divide_hbar(2).set_hbar(0)
            except ValueError:
                return False
            return (semi - P.bracket(a, b, order=cap - 2).set_hbar(0)).truncate(
                cap - 2).is_zero()

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
            sl = slice_walgebra(ctx, order, qc=qc)
            cm = compare_realizations(ctx, order, slice_result=sl,
                                      whittaker_result=wh)
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


# -- argument handling --------------------------------------------------


def _emit(report, out_path):
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _out_path(path):
    """argparse type: a path that can be written.

    Checking at parse time makes an unwritable ``--out`` a usage error before
    any computation.  The check creates nothing, so a later usage error
    leaves no empty report behind: an existing path must be a writable file,
    a new one needs a writable directory to go in.
    """
    if not path:
        why = "empty path"
    elif os.path.isdir(path):
        why = "is a directory"
    elif os.path.exists(path):
        why = None if os.access(path, os.W_OK) else "permission denied"
    else:
        parent = os.path.dirname(path) or os.curdir
        if not os.path.isdir(parent):
            why = "no such directory"
        else:
            why = None if os.access(parent, os.W_OK | os.X_OK) else "permission denied"
    if why:
        raise argparse.ArgumentTypeError("cannot write %s: %s" % (path, why))
    return path


def _int_at_least(low):
    """argparse type: an integer >= low."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                "expected an integer, got %r" % text) from None
        if value < low:
            raise argparse.ArgumentTypeError("must be >= %d, got %d" % (low, value))
        return value
    return parse


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="superw",
        description="Darboux charts and W-algebras for small Lie superalgebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # an option left out stays out of the namespace, so that build_report
    # applies the builders' defaults
    parsers = {name: sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
               for name, help in (("check", "validate an algebra and its grading"),
                                  ("darboux", "classical and quantum charts"),
                                  ("walgebra", "W-algebra generators and tables"),
                                  ("suite", "run the property-check battery"))}
    for name, p in parsers.items():
        if name != "suite":
            p.add_argument("--algebra", required=True,
                           help="catalog name or path to a JSON file")
        if name != "check":
            p.add_argument("--order", type=_int_at_least(0), required=name != "suite")
        if name in ("darboux", "walgebra"):
            # below guard 2 the even correction stalls (guard 0), or projecting
            # through an odd pair loses the two orders of BracketTable.drop (1)
            p.add_argument("--guard", type=_int_at_least(2))
        if name != "suite":
            p.add_argument("--alt-lagrangian", dest="alt", action="store_true")
        p.add_argument("--out", type=_out_path)
    parsers["walgebra"].add_argument("--method", choices=("whittaker", "slice", "both"))
    parsers["suite"].add_argument("--seed", type=int)

    kw = vars(parser.parse_args(argv))
    kind, out = kw.pop("command"), kw.pop("out", None)
    # the working order, order + guard, bounds every exponent of a monomial
    guard = kw.get("guard", DEFAULT_GUARD)
    if kind != "check" and kw.get("order", 0) + guard >= EXPONENT_LIMIT:
        parsers[kind].error("--order plus the guard (%d) must be below %d"
                            % (guard, EXPONENT_LIMIT))
    try:
        rep = build_report(kind, **kw)
    except (AlgebraError, DarbouxError) as exc:
        _emit({"ok": False, "error": str(exc)}, out)
        return 1

    _emit(rep, out)
    return 0 if rep.get("ok") else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
