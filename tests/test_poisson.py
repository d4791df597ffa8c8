"""Poisson structure from bracket tables: axioms and linear splits."""

import inspect
import json
import random
import sys
from fractions import Fraction
from math import prod

import pytest

from superw.algebras import AlgebraError, load_algebra
from superw.clifford import even_m_gens
from superw.linalg import Echelon, rational_sqrt
from superw.poisson import (
    BracketTable,
    PoissonAlgebra,
    SymplecticSplit,
    linear_split,
)
from superw.suite import _random_series
from superw.supercore import EVEN, ODD, Algebra, Variable
from superw.wslice import slice_setup
from test_supermatrix import E12_TRIPLE, gl_json

ALGEBRAS = ("sl2", "gl11", "osp12", "sl21")


def get_ctx(name):
    return slice_setup(load_algebra(name))


def rand_series(rng, alg, nterms=3, parity=None):
    ids = [v for v in alg.variables if not v.hbar]
    out = alg.zero()
    for _ in range(nterms * 3):
        t = alg.one() * Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        for v in ids:
            e = rng.randrange(0, 3 if v.parity == EVEN else 2)
            for _ in range(e):
                t = t * alg.gen(v.name)
        if t.is_zero():
            continue
        if parity is not None and t.parity() != parity:
            continue
        out = out + t
        if len(out.terms) >= nterms:
            break
    return out


# -- table storage rules ------------------------------------------------


def _toy_universe():
    return Algebra([
        Variable(0, "p", EVEN, weight=1),
        Variable(1, "q", EVEN, weight=1),
        Variable(2, "t1", ODD, weight=1),
        Variable(3, "t2", ODD, weight=1),
    ])


def test_table_storage_rules():
    alg = _toy_universe()
    with pytest.raises(ValueError):
        BracketTable(alg, {(1, 0): alg.one()})
    with pytest.raises(ValueError):
        BracketTable(alg, {(0, 0): alg.one()})  # even self-bracket
    with pytest.raises(ValueError):
        BracketTable(alg, {(0, 2): alg.one()})  # even/odd entry must be odd
    # odd diagonal is allowed
    BracketTable(alg, {(2, 2): alg.one()})


def test_entry_symmetry_convention():
    alg = _toy_universe()
    t = BracketTable(alg, {(0, 1): alg.one(), (2, 3): alg.one()})
    # even-even flips sign under swap, odd-odd does not
    assert t.entry(1, 0) == -alg.one()
    assert t.entry(3, 2) == alg.one()
    assert t.entry(0, 1) == alg.one()
    assert t.entry(0, 3).is_zero()


def test_antisymmetry_random():
    rng = random.Random(7)
    for name in ALGEBRAS:
        P = get_ctx(name).poisson
        alg = P.alg
        for _ in range(12):
            a = rand_series(rng, alg, parity=rng.choice((EVEN, ODD)))
            b = rand_series(rng, alg, parity=rng.choice((EVEN, ODD)))
            if a.is_zero() or b.is_zero():
                continue
            sign = -1 if (a.parity() == ODD and b.parity() == ODD) else 1
            assert P.bracket(a, b, None) == -P.bracket(b, a, None) * sign


def test_leibniz_random():
    rng = random.Random(17)
    for name in ALGEBRAS:
        P = get_ctx(name).poisson
        alg = P.alg
        for _ in range(12):
            a = rand_series(rng, alg, parity=rng.choice((EVEN, ODD)))
            b = rand_series(rng, alg, parity=rng.choice((EVEN, ODD)))
            c = rand_series(rng, alg)
            if a.is_zero() or b.is_zero():
                continue
            sign = -1 if (a.parity() == ODD and b.parity() == ODD) else 1
            lhs = P.bracket(a, b * c, None)
            rhs = P.bracket(a, b, None) * c + b * P.bracket(a, c, None) * sign
            assert lhs == rhs


def test_jacobi_generators_all_catalog():
    for name in ALGEBRAS:
        P = get_ctx(name).poisson
        assert P.check_jacobi() == []


def test_jacobi_random_triples():
    rng = random.Random(29)
    for name in ALGEBRAS:
        P = get_ctx(name).poisson
        alg = P.alg
        for _ in range(10):
            abc = [rand_series(rng, alg, parity=rng.choice((EVEN, ODD)))
                   for _ in range(3)]
            if any(s.is_zero() for s in abc):
                continue
            assert P.jacobiator(*abc).is_zero()


def test_jacobi_detects_corruption():
    # sl(2) with [e,h] deliberately rescaled: jacobiator(e,h,f) = -h != 0
    alg = Algebra([
        Variable(0, "e", EVEN, weight=4),
        Variable(1, "h", EVEN, weight=2),
        Variable(2, "f", EVEN, weight=0),
    ])
    t = BracketTable(alg, {
        (0, 1): -alg.gen("e"),  # should be -2e
        (0, 2): alg.gen("h"),
        (1, 2): alg.gen("f") * -2,
    })
    P = PoissonAlgebra(alg, t)
    bad = P.check_jacobi()
    assert bad != []


def test_bracket_weights_catalog():
    for name in ALGEBRAS:
        P = get_ctx(name).poisson
        # the Kazhdan filtration makes the bracket lower weight by 2
        assert P.table.check_weights(-2) == []


def test_bracket_interval_discipline():
    # table entries with constant terms make a bracket drop two orders
    P = get_ctx("sl2").poisson
    alg = P.alg
    assert P.table.drop == 2
    a = rand_series(random.Random(1), alg, parity=EVEN).truncate(5)
    b = rand_series(random.Random(2), alg, parity=EVEN).truncate(5)
    # the result carries the order asked for, whatever the inputs carry
    assert P.bracket(a, b, order=7).order == 7
    # exact inputs stay exact
    ea, eb = alg.gen(alg.variables[0].name), alg.gen(alg.variables[1].name)
    assert P.bracket(ea, eb, None).order is None


# -- linear splits ------------------------------------------------------


def test_linear_split_sl2():
    ctx = get_ctx("sl2")
    P = ctx.poisson
    gens = [P.alg.gen(v.name) for v in P.alg.variables if not v.hbar]
    sp = linear_split(P, gens, ctx.m_gens())
    assert len(sp.even_pairs) == 1
    assert sp.odd_pairs == [] and sp.selfs == []
    assert len(sp.radical) == 1
    # the pairing of each flat pair is exactly one at the base point
    u, v = sp.even_pairs[0]
    assert P.bracket(u, v, None).constant_term() == 1


def test_linear_split_osp12():
    ctx = get_ctx("osp12")
    P = ctx.poisson
    gens = [P.alg.gen(v.name) for v in P.alg.variables if not v.hbar]
    sp = linear_split(P, gens, ctx.m_gens())
    assert len(sp.even_pairs) == 1
    assert len(sp.selfs) == 1
    assert len(sp.radical) == 2
    th = sp.selfs[0]
    assert P.bracket(th, th, None).constant_term() == 1


def test_seeded_split_flattens_the_whole_pairing(tmp_path):
    # around the shift directions, as every command builds its chart, the
    # split flattens all of the chi-pairing: a Darboux basis whose radical
    # has the dimension of g^e
    specs = list(ALGEBRAS)
    for m, n in ((2, 1), (3, 2)):
        path = tmp_path / ("gl%d%d.json" % (m, n))
        path.write_text(json.dumps(gl_json(m, n, E12_TRIPLE)), encoding="utf-8")
        specs.append(str(path))
    for spec in specs:
        ctx = slice_setup(load_algebra(spec))
        P, alg = ctx.poisson, ctx.alg
        gens = [alg.gen(v.name) for v in alg.variables if not v.hbar]
        sp = linear_split(P, gens, ctx.m_gens())
        ge = len(ctx.grading.ge_basis)
        pairs = len(sp.even_pairs) + len(sp.odd_pairs)
        assert 2 * pairs + len(sp.selfs) == ctx.data.dim - ge, spec
        assert len(sp.radical) == ge, spec
        _assert_darboux_basis(P, gens, [sp.even_pairs, sp.odd_pairs, sp.selfs, sp.radical])


def test_linear_split_seeded():
    ctx = get_ctx("sl2")
    P = ctx.poisson
    mbar = ctx.m_gens()
    sp = linear_split(P, [P.alg.gen(v.name) for v in P.alg.variables if not v.hbar],
                      seeds=list(mbar))
    assert len(sp.even_pairs) == 1
    assert sp.even_pairs[0][0] == mbar[0]
    assert len(sp.radical) == 1


def test_linear_split_seed_without_partner():
    ctx = get_ctx("sl2")
    P = ctx.poisson
    gens = [P.alg.gen(v.name) for v in P.alg.variables if not v.hbar]
    # the top-weight generator pairs with nothing at the origin
    top = max((v for v in P.alg.variables if not v.hbar),
              key=lambda v: v.weight)
    # an odd seed that pairs only with itself is no pair either
    alg = Algebra([Variable(0, "a", ODD), Variable(1, "b", ODD)])
    Q = PoissonAlgebra(alg, BracketTable(alg, {(0, 0): alg.one() * 4}))
    cases = [(P, gens, [P.alg.gen(top.name)]),
             (Q, [alg.gen("a"), alg.gen("b")], [alg.gen("a")])]
    for poisson, vectors, seeds in cases:
        with pytest.raises(ValueError, match="seed vector has no symplectic partner"):
            linear_split(poisson, vectors, seeds=seeds)


def test_linear_split_nonisotropic_seed():
    alg = Algebra([Variable(0, "a", ODD), Variable(1, "b", ODD)])
    t = BracketTable(alg, {(0, 0): alg.one() * 2, (0, 1): alg.one()})
    P = PoissonAlgebra(alg, t)
    with pytest.raises(ValueError):
        linear_split(P, [alg.gen("a"), alg.gen("b")], seeds=[alg.gen("a")])


def test_linear_split_radical_is_a_basis(tmp_path):
    # dependent inputs used to leave a repeated radical: [e, e] on sl2
    ctx = get_ctx("sl2")
    alg = ctx.alg
    e, h, f = (alg.gen(n) for n in ("e", "h", "f"))
    assert linear_split(ctx.poisson, [e, h, f, e + h * 2], ctx.m_gens()).radical == [e]

    rng = random.Random(29)
    checked = 0
    for ctx in _oracle_universes(tmp_path):
        P, alg = ctx.poisson, ctx.alg
        gens = [alg.gen(v.name) for v in alg.variables if not v.hbar]
        for _ in range(4):
            vectors = _recombine(rng, alg, gens) + _recombine(rng, alg, gens)
            seeds = ctx.m_gens()
            try:
                sp = linear_split(P, vectors, seeds=seeds)
            except AlgebraError:
                continue
            pairs = len(sp.even_pairs) + len(sp.odd_pairs)
            rank = _rank(vectors + seeds)
            assert len(sp.radical) == rank - 2 * pairs - len(sp.selfs)
            assert _rank(sp.radical) == len(sp.radical)
            checked += 1
    assert checked >= 50


def test_linear_split_irrational_self_pairing():
    alg = Algebra([Variable(0, "a", ODD)])
    t = BracketTable(alg, {(0, 0): alg.one() * 3})
    P = PoissonAlgebra(alg, t)
    with pytest.raises(ValueError):
        linear_split(P, [alg.gen("a")], seeds=[])


def test_linear_split_mixed_parity_rejected():
    alg = _toy_universe()
    P = PoissonAlgebra(alg, BracketTable(alg, {(0, 1): alg.one()}))
    with pytest.raises(ValueError):
        linear_split(P, [alg.gen("p") + alg.gen("t1")], seeds=[])


def test_split_takes_first_partner():
    # two candidate partners: the first one is consumed, the other is
    # orthogonalized against the pair and ends in the radical
    alg = Algebra([
        Variable(0, "u", EVEN), Variable(1, "v1", EVEN), Variable(2, "v2", EVEN),
    ])
    t = BracketTable(alg, {(0, 1): alg.one(), (0, 2): alg.one()})
    P = PoissonAlgebra(alg, t)
    gens = [alg.gen("u"), alg.gen("v1"), alg.gen("v2")]
    sp = linear_split(P, gens, seeds=[alg.gen("u")])
    assert sp.even_pairs == [(alg.gen("u"), alg.gen("v1"))]
    assert sp.radical == [alg.gen("v2") - alg.gen("v1")]


def test_bracket_at_an_order_truncates_the_exact_result():
    # an explicit order skips a monomial pair only when the table drop
    # cannot bring its bracket down to the order
    rng = random.Random(31)
    for name in ALGEBRAS:
        P = get_ctx(name).poisson
        odd = any(v.parity == ODD for v in P.alg.variables)
        parities = (None, EVEN, ODD) if odd else (None, EVEN)
        for _ in range(4):
            a, b = (_random_series(rng, P.alg, 6, 4, 5,
                                   parity=rng.choice(parities),
                                   with_hbar=True) for _ in range(2))
            exact = P.bracket(a, b, order=None)
            for n in range(7):
                got = P.bracket(a, b, order=n)
                assert got == exact.truncate(n) and got.order == n, (name, n)


def test_brackets_of_1500_factors_run_without_deep_recursion():
    # closed forms in sl2, where {f, e} = -h and {h, e} = 2e, by Leibniz:
    #   {f, e^n} = -n e^(n-1) h,  {f^n, e} = -n f^(n-1) h,
    #   {h, e^n} = 2n e^n,        {e^n, h} = -2n e^n
    ctx = get_ctx("sl2")
    alg, table = ctx.alg, ctx.poisson.table
    e, h, f = (alg.gen(x) for x in ("e", "h", "f"))

    def cases(n):
        en, fn = prod([e] * n, start=alg.one()), prod([f] * n, start=alg.one())
        e1, f1 = prod([e] * (n - 1), start=alg.one()), prod([f] * (n - 1), start=alg.one())
        return [((f, en), e1 * h * -n), ((fn, e), f1 * h * -n),
                ((h, en), en * (2 * n)), ((en, h), en * (-2 * n))]

    for n in range(1, 9):
        P = PoissonAlgebra(alg, table)
        for (a, b), want in cases(n):
            assert P.bracket(a, b, None) == want, n
    long = cases(1500)
    P = PoissonAlgebra(alg, table)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter default
    try:
        got = [P.bracket(a, b, None) for (a, b), _ in long]
    finally:
        sys.setrecursionlimit(limit)
    assert got == [want for _, want in long]


# -- the split against the two-branch version it replaced -------------------


def _reference_linear_split(poisson, vectors, seeds):
    """Darboux normal form of the pairing <u,v> = {u,v}(0) on a list of
    linear elements.

    Pairs are formed only for the seed vectors (each seed must find a
    partner among the rest, and seeds must be isotropic); everything left
    over is orthogonalized against the pairs and classified as self-paired
    (odd, nonzero self-pairing, scaled to pairing 1) or radical.
    """

    def pair(u, v):
        return poisson.bracket(u, v, None).constant_term()

    work = []
    for v in vectors:
        if v.parity() == "mixed":
            raise ValueError("linear_split needs parity-homogeneous vectors")
        if not v.is_zero():
            work.append(v)
    queue = list(seeds)
    for s in queue:
        work = [w for w in work if w != s]

    out = SymplecticSplit()
    while queue:
        u = queue.pop(0)
        if u.is_zero():
            continue
        odd = u.parity() == ODD
        row = [pair(u, w) for w in work]
        hits = [k for k, c in enumerate(row) if c]
        if not hits:
            if odd and pair(u, u):
                out.selfs.append(u)
            else:
                raise AlgebraError("seed vector has no symplectic partner")
            continue
        if pair(u, u):
            raise AlgebraError("cannot seed a pair with a non-isotropic vector")
        k = hits[0]
        v = work.pop(k) * (Fraction(1) / row[k])
        if odd:
            v = v - u * (pair(v, v) / 2)
            out.odd_pairs.append((u, v))
            work = [w - u * pair(v, w) - v * pair(u, w) for w in work]
            queue = [w - u * pair(v, w) - v * pair(u, w) for w in queue]
        else:
            out.even_pairs.append((u, v))
            work = [w - v * pair(u, w) + u * pair(v, w) for w in work]
            queue = [w - v * pair(u, w) + u * pair(v, w) for w in queue]

    # classify whatever is left after seeded pairing
    for w in work:
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
        out.radical.append(w)
    return out


def _split_outcome(split, P, vectors, seeds):
    """The four lists of a split, or a tuple of the type and message of
    its error."""
    try:
        sp = split(P, vectors, seeds=seeds)
    except ValueError as e:
        return type(e), str(e)
    return [sp.even_pairs, sp.odd_pairs, sp.selfs, sp.radical]


# the reference's branch that keeps a vector without a partner as a self
_KEEP_LINE = _reference_linear_split.__code__.co_firstlineno + next(
    k for k, text in enumerate(inspect.getsourcelines(_reference_linear_split)[0])
    if text.strip() == "out.selfs.append(u)")


def _reference_outcome(P, vectors, seeds):
    """The reference's outcome, and whether it kept a seed that paired with
    nothing as a self-paired vector (the case the one-path split rejects)."""
    code = _reference_linear_split.__code__
    kept = []

    def line(frame, event, arg):
        if event == "line" and frame.f_lineno == _KEEP_LINE:
            kept.append(frame.f_lineno)
        return line

    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg: line if frame.f_code is code else None)
    try:
        out = _split_outcome(_reference_linear_split, P, vectors, seeds)
    finally:
        sys.settrace(old)
    return out, bool(kept)


def _rank(series):
    return len(Echelon(s.terms for s in series))


def _radical_basis(outcome):
    """A split's outcome with its radical cut to the vectors that raise the
    rank of the ones kept before them.  The split returns its radical as a
    basis; the two-branch reference repeats it on dependent inputs."""
    if isinstance(outcome, tuple):
        return outcome
    *rest, radical = outcome
    basis = []
    for w in radical:
        if _rank(basis + [w]) > len(basis):
            basis.append(w)
    return [*rest, basis]


def _assert_darboux_basis(P, vectors, lists):
    """The four lists of a split are a basis of the span of ``vectors``
    with the Gram matrix of the Darboux normal form."""
    even_pairs, odd_pairs, selfs, radical = lists

    def pair(u, v):
        return P.bracket(u, v, None).constant_term()

    basis = [x for uv in even_pairs + odd_pairs for x in uv] + selfs + radical
    gram = {}
    for k in range(len(even_pairs)):
        gram[(2 * k, 2 * k + 1)], gram[(2 * k + 1, 2 * k)] = 1, -1
    for k in range(len(even_pairs), len(even_pairs) + len(odd_pairs)):
        gram[(2 * k, 2 * k + 1)] = gram[(2 * k + 1, 2 * k)] = 1
    for k in range(len(basis) - len(selfs) - len(radical), len(basis) - len(radical)):
        gram[(k, k)] = 1
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            assert pair(u, v) == gram.get((i, j), 0), (i, j)

    assert len(basis) == _rank(basis) == _rank(vectors) == _rank(vectors + basis)


def _recombine(rng, alg, gens):
    """Random combinations of ``gens`` within each parity, shuffled."""
    out = []
    for parity in (EVEN, ODD):
        part = [g for g in gens if g.parity() == parity]
        for _ in part:
            v = alg.zero()
            for g in part:
                v = v + g * rng.choice((0, 0, 1, -1, 2, Fraction(1, 2)))
            out.append(v)
    rng.shuffle(out)
    return out


def _oracle_universes(tmp_path):
    specs = list(ALGEBRAS)
    for m, n in ((2, 1), (2, 2), (3, 1)):
        path = tmp_path / ("gl%d%d.json" % (m, n))
        path.write_text(json.dumps(gl_json(m, n, E12_TRIPLE)), encoding="utf-8")
        specs.append(str(path))
    for spec in specs:
        data = load_algebra(spec)
        for alt in (False, True):
            yield slice_setup(data, alt=alt)


def test_linear_split_matches_reference(tmp_path):
    # identical to the version it replaced everywhere, except that a seed
    # pairing with nothing but itself now raises instead of being kept; the
    # reference's radical is compared as the basis it spans
    rng = random.Random(13)
    cases = raised = rejected = reduced = 0
    for ctx in _oracle_universes(tmp_path):
        P, alg = ctx.poisson, ctx.alg
        gens = [alg.gen(v.name) for v in alg.variables if not v.hbar]
        inputs = [(gens, ctx.m_gens()), (gens, even_m_gens(ctx)), (gens, [])]
        for trial in range(60):
            vectors = _recombine(rng, alg, gens)
            if trial % 2:
                inputs.append((vectors, ctx.m_gens() if trial % 4 == 1 else []))
            elif trial % 4:
                inputs.append((vectors, rng.sample(vectors, rng.randint(1, 3))))
            else:
                m = ctx.m_gens()
                m = rng.sample(m, rng.randint(0, len(m)))
                inputs.append((vectors, _recombine(rng, alg, m)))
        for vectors, seeds in inputs:
            want, kept = _reference_outcome(P, vectors, seeds)
            reduced += want != _radical_basis(want)
            want = _radical_basis(want)
            got = _split_outcome(linear_split, P, vectors, seeds)
            cases += 1
            raised += isinstance(want, tuple)
            if kept:
                rejected += want != got
                assert got == (AlgebraError, "seed vector has no symplectic partner")
            else:
                assert got == want, (ctx.data.name, vectors, seeds)
    assert cases == 14 * 63
    assert 0 < rejected < raised < cases
    assert reduced > 0
