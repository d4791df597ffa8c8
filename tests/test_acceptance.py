"""Acceptance gate: ten criteria, one printed pass/fail line each.

Every comparison is exact -- rational arithmetic throughout, tolerance zero.
Expected tables are frozen from independent derivations (direct counting,
hand reduction in the rank-one cases) rather than from the code under test.
"""
import itertools
import json
import random
import time
from fractions import Fraction

from superw.algebras import load_algebra
from superw.cli import build_report
from superw.clifford import clifford_factorization
from superw.darboux import equivariant_darboux
from superw.starprod import quantum_darboux
from superw.supercore import EVEN, ODD
from superw.wslice import (
    compare_realizations,
    reduce_mod_chi,
    slice_setup,
    slice_walgebra,
    splitting_check,
    whittaker_walgebra,
)
from test_starprod import enveloping_product
from truncation import truncate_report

ALGEBRAS = ("sl2", "gl11", "osp12", "sl21")
CHARTED = ("sl2", "osp12", "sl21")  # gl11 has a trivial grading, no chart run


EMITTED = []  # collected by conftest for the terminal summary


def _report(num, label, failures):
    status = "PASS" if not failures else "FAIL"
    line = "criterion %2d [%s] %s" % (num, status, label)
    print(line)
    EMITTED.append(line)
    assert not failures, "criterion %d: %s" % (num, "; ".join(failures))


def _ctx(name, alt=False):
    return slice_setup(load_algebra(name), alt=alt)


def _slice(ctx, order):
    return slice_walgebra(ctx, order, ctx.quantum_chart(order))


def _rand_series(rng, alg, wmax, nterms, parity=None):
    ids = [v.ident for v in alg.variables if not v.hbar]
    out = alg.zero()
    tries = 0
    while nterms > 0 and tries < 60:
        tries += 1
        s = alg.one()
        w = 0
        for _ in range(rng.randrange(1, 4)):
            v = alg.by_id[rng.choice(ids)]
            if w + v.weight > wmax:
                continue
            s = s * alg.gen(v.name)
            w += v.weight
        if s.is_zero():
            continue
        if parity is not None and s.parity() != parity:
            continue
        out = out + s * Fraction(rng.randrange(-3, 4) or 1)
        nterms -= 1
    return out


def test_criterion_01_poisson_axioms():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(20260823)
    triples = 0
    for name in ALGEBRAS:
        ctx = _ctx(name)
        P, alg = ctx.poisson, ctx.alg
        if P.check_jacobi():
            failures.append("%s: generator Jacobi violations" % name)
        # a Kazhdan-filtration bracket lowers weight by 2
        if P.table.check_weights(-2):
            failures.append("%s: bracket weight violations" % name)
        while triples < 50 * (ALGEBRAS.index(name) + 1):
            pa = rng.choice((EVEN, ODD))
            pb = rng.choice((EVEN, ODD))
            pc = rng.choice((EVEN, ODD))
            a = _rand_series(rng, alg, 6, 3, pa)
            b = _rand_series(rng, alg, 6, 3, pb)
            c = _rand_series(rng, alg, 6, 3, pc)
            if a.is_zero() or b.is_zero() or c.is_zero():
                continue
            triples += 1
            anti = P.bracket(a, b, None) + P.bracket(b, a, None) * ((-1) ** (pa * pb))
            if not anti.is_zero():
                failures.append("%s: antisymmetry #%d" % (name, triples))
            lhs = P.bracket(a, b * c, None)
            rhs = (P.bracket(a, b, None) * c
                   + b * P.bracket(a, c, None) * ((-1) ** (pa * pb)))
            if not (lhs - rhs).is_zero():
                failures.append("%s: Leibniz #%d" % (name, triples))
            if not P.jacobiator(a, b, c).is_zero():
                failures.append("%s: Jacobi #%d" % (name, triples))
    if triples != 200:
        failures.append("expected 200 random triples, ran %d" % triples)
    elapsed = time.perf_counter() - t0
    if elapsed >= 30:
        failures.append("took %.1fs (budget 30s)" % elapsed)
    _report(1, "Poisson axioms, 4 algebras + 200 random triples "
            "(%.1fs)" % elapsed, failures)


def test_criterion_02_classical_charts():
    t0 = time.perf_counter()
    failures = []
    for name in CHARTED:
        ctx = _ctx(name)
        chart = equivariant_darboux(ctx.poisson, 6, seeds=ctx.m_gens())
        rep = chart.verify()
        if rep["failures"]:
            failures.append("%s: residuals %r" % (name, rep["failures"]))
        if not rep["weight_homogeneous"]:
            failures.append("%s: chart not weight homogeneous" % name)
        if not rep["ok"]:
            failures.append("%s: verify failed" % name)
    elapsed = time.perf_counter() - t0
    if elapsed >= 120:
        failures.append("took %.1fs (budget 120s)" % elapsed)
    _report(2, "classical charts at order 6, residuals zero, scaling-"
            "homogeneous (%.1fs)" % elapsed, failures)


def test_criterion_03_quantum_charts():
    failures = []
    order, ordc = 5, 3
    for name in CHARTED:
        ctx = _ctx(name)
        S, P = ctx.star, ctx.poisson
        classical = equivariant_darboux(P, order, seeds=ctx.m_gens())
        qc = quantum_darboux(S, classical)
        if not qc.verify()["ok"]:
            failures.append("%s: quantum verify failed" % name)
        qv = [v for e in qc.entries for v in e.variables()] + list(qc.center_gens)
        cv = ([v for e in classical.entries for v in e.variables()]
              + list(classical.center_gens))
        h = ctx.alg.hbar_id
        for s in qv:
            for m in s.terms:
                if any(i == h and e < 1 for i, e in ctx.alg.mono_key(m)):
                    failures.append("%s: negative/zero hbar exponent" % name)
        for i in range(len(qv)):
            for j in range(i, len(qv)):
                cc = S.commutator(qv[i], qv[j], order=order)
                try:
                    semi = cc.divide_hbar(2).set_hbar(0)
                except ValueError:
                    failures.append("%s: commutator (%d,%d) not divisible "
                                    "by hbar^2" % (name, i, j))
                    continue
                want = P.bracket(cv[i], cv[j], order=ordc)
                if semi.truncate(ordc) != want.truncate(ordc):
                    failures.append("%s: semiclassical limit of (%d,%d) "
                                    "mismatch" % (name, i, j))
    _report(3, "quantum charts at order 5; no negative hbar powers; "
            "semiclassical limit recovers the classical relations", failures)


def _free_superalgebra_dims(even_ws, odd_ws, n_max):
    """Filtered dimensions of a free supercommutative algebra, counted
    directly by recursion over the generator list."""
    counts = [0] * (n_max + 1)

    def rec(idx, total):
        if total > n_max:
            return
        counts[total] += 1
        gens = [(w, False) for w in even_ws] + [(w, True) for w in odd_ws]
        for k in range(idx, len(gens)):
            w, is_odd = gens[k]
            if is_odd:
                rec(k + 1, total + w)
            else:
                t = total + w
                while t <= n_max:
                    rec(k + 1, t)
                    t += w
    rec(0, 0)
    return [sum(counts[: i + 1]) for i in range(n_max + 1)]


# independently derived tables: free-algebra counts on the centralizer
# signatures (plus the extra odd weight-one direction where present)
WHITTAKER_TABLES = {
    "sl2": (8, [4], [], [1, 1, 1, 1, 2, 2, 2, 2, 3]),
    "gl11": (4, [2, 2], [2, 2], [1, 1, 5, 5, 13]),
    "osp12": (6, [4], [3, 1], [1, 2, 2, 3, 5, 6, 6]),
    "sl21": (6, [2, 4], [3, 3], [1, 1, 2, 4, 6, 8, 11]),
}


def test_criterion_04_whittaker_tables():
    failures = []
    for name, (order, ev, od, table) in WHITTAKER_TABLES.items():
        if _free_superalgebra_dims(ev, od, order) != table:
            failures.append("%s: frozen table is not the free-algebra count"
                            % name)
        wh = whittaker_walgebra(_ctx(name), order)
        if wh.dims != table:
            failures.append("%s: dims %r != %r" % (name, wh.dims, table))
        if not (wh.counts_ok and wh.dims_ok and wh.ok):
            failures.append("%s: count/dimension flags" % name)
    sig = sorted((w, p) for w, p, _ in whittaker_walgebra(_ctx("osp12"), 6).gens)
    if sig != [(1, ODD), (3, ODD), (4, EVEN)]:
        failures.append("osp12: generator signature %r" % sig)
    _report(4, "invariant tables match free-superalgebra counts "
            "(sl2 at 8, osp12 at 6)", failures)


def _perturbed(sl, idx, extra):
    """The slice result with ``extra`` added to generator ``idx``."""
    gens = list(sl.gens)
    w, p, s = gens[idx]
    gens[idx] = (w, p, s + extra)
    return sl._replace(gens=gens)


def test_criterion_05_cross_validation():
    failures = []
    for name, order in (("sl2", 8), ("osp12", 6)):
        ctx = _ctx(name)
        cm = compare_realizations(ctx, order, _slice(ctx, order), whittaker_walgebra(ctx, order))
        if not cm.ok:
            failures.append("%s: clean comparison failed" % name)
    ctx = _ctx("sl2")
    h = ctx.alg.gen("h")
    bad = _perturbed(_slice(ctx, 8), 0, h * h)
    if compare_realizations(ctx, 8, bad, whittaker_walgebra(ctx, 8)).ok:
        failures.append("sl2: perturbed generator not detected")
    ctx = _ctx("osp12")
    bad = _perturbed(_slice(ctx, 6), 1, ctx.alg.gen("xm") * ctx.alg.gen("h"))
    if compare_realizations(ctx, 6, bad, whittaker_walgebra(ctx, 6)).ok:
        failures.append("osp12: perturbed generator not detected")
    _report(5, "both routes agree (sl2 at 8, osp12 at 6); planted "
            "perturbations detected", failures)


def test_criterion_06_casimir_image():
    failures = []
    ctx = _ctx("sl2")
    alg = ctx.alg
    e, h, f = alg.gen("e"), alg.gen("h"), alg.gen("f")
    # the universe variable f is the shifted direction f - chi(f); undo the
    # shift so the element below is the honest quadratic Casimir e f + f e
    # + h^2/2 of the original algebra
    ftrue = f + alg.one()
    cas = (enveloping_product(ctx, e, ftrue) + enveloping_product(ctx, ftrue, e)
           + enveloping_product(ctx, h, h) * Fraction(1, 2))
    image = reduce_mod_chi(ctx, cas)
    gen = whittaker_walgebra(ctx, 4).gens[0][2]
    lead = image.coeff(alg.monomial({0: 1})) / gen.coeff(alg.monomial({0: 1}))
    if not lead:
        failures.append("no scalar multiple found")
    rest = image - gen * lead
    if any(alg.mono_weight(m) >= 4 for m in rest.terms):
        failures.append("remainder has weight >= 4: %s" % rest)
    if lead != 2:
        failures.append("scalar %s != 2" % lead)
    _report(6, "weight-4 generator is the Casimir image up to scalar and "
            "lower shift", failures)


# the sl21 slice variables as (name, parity, ad h-weight), hbar left out
SL21_VARIABLES = (("e", EVEN, 4), ("h", EVEN, 2), ("z", EVEN, 2), ("up", ODD, 3),
                  ("vp", ODD, 1), ("vm", ODD, 3), ("f", EVEN, 0), ("um", ODD, 1))


def _normal_monomial_count(variables, wmax, dmax):
    """Normal monomials of weight <= wmax and degree <= dmax, by brute force
    over all exponent vectors, an odd variable appearing at most once."""
    ranges = [range(2) if p == ODD else range(dmax + 1) for _, p, _ in variables]
    weights = [w for _, _, w in variables]
    return sum(1 for exps in itertools.product(*ranges)
               if sum(exps) <= dmax
               and sum(e * w for e, w in zip(exps, weights)) <= wmax)


def test_criterion_07_splitting():
    failures = []
    sl21_count = _normal_monomial_count(SL21_VARIABLES, 6, 6)
    if sl21_count != 255:
        failures.append("sl21: %d normal monomials by brute force" % sl21_count)
    for name, count in (("sl2", 33), ("osp12", 73), ("sl21", sl21_count)):
        sp = splitting_check(_ctx(name), 6, k=2)
        if not sp.ok:
            failures.append("%s: splitting failed" % name)
        if sp.coeff_failures or sp.recon_failures:
            failures.append("%s: residuals %r %r"
                            % (name, sp.coeff_failures, sp.recon_failures))
        if sp.checked != count:
            failures.append("%s: checked %d monomials, expected %d"
                            % (name, sp.checked, count))
    _report(7, "tensor splitting closes on all normal monomials through "
            "weight 6 (k=2)", failures)


def test_criterion_08_clifford_factor():
    failures = []
    frozen = {
        "osp12": ([[1, 1], [3, 1], [4, 0]], [1, 2, 2, 3, 5, 6], 1),
        "sl21": ([[1, 1], [1, 1], [2, 0], [3, 1], [3, 1], [4, 0]],
                 [1, 3, 5, 9, 16, 24], 2),
    }
    for name, (sig, dims, count) in frozen.items():
        ctx = _ctx(name)
        cf = clifford_factorization(ctx, 5, ctx.quantum_chart(5))
        if cf.signature != sig:
            failures.append("%s: signature %r" % (name, cf.signature))
        if cf.dims != dims:
            failures.append("%s: dims %r" % (name, cf.dims))
        if cf.clifford_count != count:
            failures.append("%s: clifford count %d" % (name, cf.clifford_count))
        if not (cf.sig_ok and cf.rank_ok and cf.even_vars_ok):
            failures.append("%s: size checks" % name)
        if not (cf.standalone_match and cf.sub_compare_ok):
            failures.append("%s: even-subalgebra embedding" % name)
        if not (cf.closure_ok and cf.factor_sig_ok and cf.linear_span_ok
                and cf.ok):
            failures.append("%s: closure/factorization" % name)
    _report(8, "Clifford-times-even factorization at order 5; even-part "
            "algebra embeds with closed products", failures)


def test_criterion_09_truncation_stability():
    failures = []
    for kind in ("darboux", "walgebra"):
        for name in ALGEBRAS:
            low = build_report(kind, algebra=name, order=3)
            high = build_report(kind, algebra=name, order=5)
            a = json.dumps(low, sort_keys=True, indent=2)
            b = json.dumps(truncate_report(high, 3), sort_keys=True, indent=2)
            if a != b:
                failures.append("%s %s: truncated rerun differs" % (kind, name))
    _report(9, "order+2 reruns truncate to byte-identical reports "
            "(both pipelines, all algebras)", failures)


def test_criterion_10_lagrangian_choice():
    failures = []
    for name in ("osp12", "sl21"):
        wa = whittaker_walgebra(_ctx(name), 5)
        wb = whittaker_walgebra(_ctx(name, alt=True), 5)
        if wa.dims != wb.dims:
            failures.append("%s: invariant tables differ" % name)
        sa = _slice(_ctx(name), 5)
        sb = _slice(_ctx(name, alt=True), 5)
        if sa.dims != sb.dims:
            failures.append("%s: chart-route tables differ" % name)
        if sorted((w, p) for w, p, _ in sa.gens) != sorted(
                (w, p) for w, p, _ in sb.gens):
            failures.append("%s: generator signatures differ" % name)
    _report(10, "alternate Lagrangian choice leaves all dimension tables "
            "unchanged", failures)
