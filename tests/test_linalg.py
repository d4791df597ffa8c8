"""Exact rational linear algebra used by the coefficient-matching loops."""

import ast
import random
from bisect import bisect_left, insort
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

from superw import linalg, wslice
from superw.algebras import load_algebra
from superw.linalg import (
    Echelon,
    FilteredFamily,
    TaggedEchelon,
    expand_filtered,
    nullspace,
    rational_sqrt,
    rref,
    solve,
)
from superw.supercore import EVEN, Algebra, Variable
from test_supercore import eff_component

PRIME30 = 100000000000000000000000000319  # the least prime above 10**29


def _dense_rref_reference(rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns)."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def _dense_nullspace_reference(m, pivots, ncols):
    """The kernel basis read off a dense RREF ``(m, pivots)``."""
    free = [c for c in range(ncols) if c not in set(pivots)]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def _dense_solve_reference(rows, rhs):
    ncols = len(rows[0])
    aug = [list(map(Fraction, r)) + [Fraction(b)] for r, b in zip(rows, rhs)]
    m, pivots = _dense_rref_reference(aug)
    for r in range(len(m)):
        if m[r][-1] and not any(m[r][:-1]):
            return None
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][-1]
    return x


# -- the sparse Fraction elimination, kept verbatim as an oracle ---------
#
# ``linalg`` reduces primitive integer rows and makes Fractions only at the
# end.  The functions below are the Fraction elimination it replaced, which
# holds every pivot row scaled to a leading 1 and eliminates in Fractions.


def _fraction_sparse_row(row):
    """A dense row as a dict col -> Fraction over its nonzero entries."""
    return {c: x if type(x) is Fraction else Fraction(x)
            for c, x in enumerate(row) if x}


def _fraction_eliminate(row, col, prow):
    """row -= row[col] * prow, in place; prow has a 1 in column col."""
    f = row[col]
    for k, v in prow.items():
        x = row.get(k)
        if x is None:
            row[k] = -f * v
        else:
            x -= f * v
            if x:
                row[k] = x
            else:
                del row[k]


def _fraction_reduce(rows):
    """Sparse Gauss-Jordan elimination on rows given as dicts col -> Fraction.

    Works on the rows in place and returns (pivot_rows, pivot_columns): the
    nonzero rows of the reduced row echelon form, in pivot order.  Columns
    are visited left to right; among the rows still unused that are nonzero
    in a column, the one with fewest entries becomes the pivot (the RREF is
    unique, so the choice only affects fill-in), and the column is cleared
    only from the rows that contain it.  All work is in the rows' supports.
    """
    rest = [r for r in rows if r]
    done, pivots = [], []
    for c in sorted({k for r in rest for k in r}):
        if not rest:
            break
        hits = [r for r in rest if c in r]
        if not hits:
            continue
        p = min(hits, key=len)
        inv = 1 / p[c]
        if inv != 1:
            for k in p:
                p[k] *= inv
        for r in hits:
            if r is not p:
                _fraction_eliminate(r, c, p)
        for r in done:
            if c in r:
                _fraction_eliminate(r, c, p)
        rest = [r for r in rest if r and r is not p]
        done.append(p)
        pivots.append(c)
    return done, pivots


def _fraction_rref(rows):
    if not rows:
        return [], []
    ncols = len(rows[0])
    done, pivots = _fraction_reduce([_fraction_sparse_row(r) for r in rows])
    zero = Fraction(0)
    out = []
    for p in done:
        row = [zero] * ncols
        for k, v in p.items():
            row[k] = v
        out.append(row)
    out.extend([zero] * ncols for _ in range(len(rows) - len(done)))
    return out, pivots


def _fraction_nullspace(rows, ncols=None):
    if ncols is None:
        if not rows:
            raise ValueError("need ncols for an empty matrix")
        ncols = len(rows[0])
    m, pivots = _fraction_rref(rows) if rows else ([], [])
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            if m[r][fc]:
                v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def _fraction_solve(rows, rhs):
    if not rows:
        return None if any(rhs) else []
    ncols = len(rows[0])
    m, pivots = _fraction_rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][-1]
    return x


def _random_entry(rng):
    """A nonzero entry: an int or a Fraction, so inputs mix both types."""
    num = rng.choice([-3, -2, -1, 1, 1, 2, 3, 5])
    if rng.random() < 0.5:
        return num
    return Fraction(num, rng.choice([1, 2, 3, 7]))


def _sparse_matrix(rng, nrows, ncols, density):
    return [[_random_entry(rng) if rng.random() < density else 0
             for _ in range(ncols)] for _ in range(nrows)]


def _oracle_cases():
    """Seeded (matrix, check_solve) cases for the dense-reference comparison.

    The dense reference needs seconds on the largest matrices, so on those
    solve is checked by substituting back instead of against the reference.
    """
    rng = random.Random(20180610)
    cases = []
    # large and sparse, shaped like the Whittaker invariance systems
    cases.append((_sparse_matrix(rng, 300, 110, 0.02), False))
    cases.append((_sparse_matrix(rng, 110, 60, 0.05), False))
    for nrows, ncols, density in ((60, 110, 0.03), (150, 40, 0.03)):
        cases.append((_sparse_matrix(rng, nrows, ncols, density), True))
    # wide, tall and square, sparse to dense
    for _ in range(60):
        nrows, ncols = rng.randrange(1, 16), rng.randrange(1, 16)
        density = rng.choice((0.05, 0.2, 0.6, 1.0))
        cases.append((_sparse_matrix(rng, nrows, ncols, density), True))
    # rank-deficient: products through a narrow inner dimension
    for _ in range(20):
        nrows, ncols, k = rng.randrange(2, 30), rng.randrange(2, 30), rng.randrange(1, 4)
        b = _sparse_matrix(rng, nrows, k, 0.7)
        c = _sparse_matrix(rng, k, ncols, 0.7)
        cases.append(([[sum((Fraction(b[i][t]) * c[t][j] for t in range(k)), Fraction(0))
                        for j in range(ncols)] for i in range(nrows)], True))
    # zero rows and zero columns spliced into a random matrix
    for _ in range(10):
        m = _sparse_matrix(rng, rng.randrange(2, 15), rng.randrange(2, 15), 0.4)
        for _ in range(3):
            m.insert(rng.randrange(len(m) + 1), [0] * len(m[0]))
            col = rng.randrange(len(m[0]) + 1)
            for row in m:
                row.insert(col, 0)
        cases.append((m, True))
    # all-zero matrices, including a single row and a single column
    for m in ([[0] * 5 for _ in range(4)], [[0, 0, 0]], [[0], [0]], [[Fraction(0)] * 3]):
        cases.append((m, True))
    return rng, cases


def _all_fractions(rows):
    return all(type(x) is Fraction for r in rows for x in r)


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(0) == 0
    assert rational_sqrt(Fraction(49)) == 7
    assert rational_sqrt(2) is None
    assert rational_sqrt(Fraction(1, 3)) is None
    assert rational_sqrt(-4) is None


def test_rref_known():
    m, piv = rref([[2, 4], [1, 2]])
    assert piv == [0]
    assert m[0] == [1, 2]
    assert m[1] == [0, 0]
    m, piv = rref([[0, 1], [1, 0]])
    assert piv == [0, 1]
    assert m == [[1, 0], [0, 1]]
    assert rref([]) == ([], [])


def test_rref_idempotent_random():
    rng = random.Random(41)
    for _ in range(30):
        n, k = rng.randrange(1, 5), rng.randrange(1, 5)
        m = [[Fraction(rng.randrange(-5, 6)) for _ in range(k)] for _ in range(n)]
        r1, p1 = rref(m)
        r2, p2 = rref(r1)
        assert r1 == r2 and p1 == p2


def test_solve_basic():
    assert solve([[1, 2], [3, 4]], [5, 11]) == [1, 2]
    # inconsistent
    assert solve([[1, 1], [1, 1]], [0, 1]) is None
    # underdetermined: free coordinates pinned to zero
    assert solve([[1, 1]], [3]) == [3, 0]
    assert solve([], [0]) is None or solve([], []) == []
    assert solve([], []) == []


def test_solve_random_consistency():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randrange(1, 5)
        k = rng.randrange(1, 5)
        a = [[Fraction(rng.randrange(-4, 5), rng.randrange(1, 3))
              for _ in range(k)] for _ in range(n)]
        x = [Fraction(rng.randrange(-3, 4)) for _ in range(k)]
        b = [sum(a[i][j] * x[j] for j in range(k)) for i in range(n)]
        sol = solve(a, b)
        assert sol is not None
        back = [sum(a[i][j] * sol[j] for j in range(k)) for i in range(n)]
        assert back == b


def test_nullspace_random():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randrange(0, 4)
        k = rng.randrange(1, 5)
        a = [[Fraction(rng.randrange(-4, 5)) for _ in range(k)] for _ in range(n)]
        if not a:
            basis = nullspace(a, ncols=k)
            assert len(basis) == k
            continue
        basis = nullspace(a)
        _, piv = rref(a)
        assert len(basis) == k - len(piv)
        for v in basis:
            img = [sum(a[i][j] * v[j] for j in range(k)) for i in range(n)]
            assert all(x == 0 for x in img)


def test_nullspace_spans_all_solutions():
    # every solution of A x = 0 must be a combination of the basis
    a = [[1, 2, 3], [2, 4, 6]]
    basis = nullspace(a)
    assert len(basis) == 2
    probe = [Fraction(-2), Fraction(1), Fraction(0)]
    stacked = [list(v) for v in basis] + [probe]
    _, piv = rref(stacked)
    assert len(piv) == 2


def test_rref_nullspace_solve_match_dense_reference():
    rng, cases = _oracle_cases()
    for a, check_solve in cases:
        ncols = len(a[0])
        before = [list(r) for r in a]

        got, piv = rref(a)
        want, want_piv = _dense_rref_reference(a)
        assert (got, piv) == (want, want_piv)
        assert len(got) == len(a) and _all_fractions(got)

        basis = nullspace(a)
        assert basis == _dense_nullspace_reference(want, want_piv, ncols)
        assert _all_fractions(basis)

        x0 = [_random_entry(rng) if rng.random() < 0.5 else 0 for _ in range(ncols)]
        consistent = [sum((Fraction(v) * w for v, w in zip(r, x0)), Fraction(0)) for r in a]
        arbitrary = [_random_entry(rng) if rng.random() < 0.3 else 0 for _ in a]
        sol = solve(a, consistent)
        assert sol is not None and _all_fractions([sol])
        assert [sum((Fraction(v) * w for v, w in zip(r, sol)), Fraction(0))
                for r in a] == consistent
        if check_solve:
            for rhs in (consistent, arbitrary):
                assert solve(a, rhs) == _dense_solve_reference(a, rhs)

        assert a == before
        assert all(type(x) is type(y) for r, s in zip(a, before) for x, y in zip(r, s))


def test_solve_memo_gives_the_answers_of_no_memo(monkeypatch):
    # one memo for every oracle matrix, each asked consistent and arbitrary
    # right-hand sides in an order interleaved across the matrices: the
    # answers of no memo, one entry per distinct matrix, no column pushed on
    # a hit
    rng, cases = _oracle_cases()
    jobs = []
    for a, _ in cases:
        for _ in range(2):
            x0 = [_random_entry(rng) if rng.random() < 0.5 else 0 for _ in a[0]]
            jobs.append((a, [sum((Fraction(v) * w for v, w in zip(r, x0)), Fraction(0))
                             for r in a]))
            jobs.append((a, [_random_entry(rng) if rng.random() < 0.3 else 0 for _ in a]))
    rng.shuffle(jobs)
    factored = []

    def counting_columns(rows, ncols, _columns=linalg._tagged_columns):
        factored.append(len(rows))
        return _columns(rows, ncols)

    monkeypatch.setattr(linalg, "_tagged_columns", counting_columns)
    memo, seen, answers = {}, set(), []
    for a, rhs in jobs:
        key = tuple(map(tuple, a))
        before = len(factored)
        got = solve(a, rhs, memo)
        assert len(factored) - before == (key not in seen)
        seen.add(key)
        assert got == solve(a, rhs)
        answers.append(got)
    # fewer entries than cases: [[0, 0, 0]] and [[Fraction(0)] * 3] are one matrix
    assert len(memo) == len(seen) < len(cases)
    assert len(factored) == len(seen) + len(jobs)
    assert any(x is None for x in answers) and any(x is not None for x in answers)


def _assert_same_as_fraction_elimination(rows, ncols, rhs_list):
    """rref, nullspace and solve equal the Fraction oracle exactly, with
    Fraction entries everywhere, and leave their input untouched."""
    before = [list(r) for r in rows]
    got = rref(rows)
    assert got == _fraction_rref(rows)
    assert _all_fractions(got[0])
    basis = nullspace(rows, ncols)
    assert basis == _fraction_nullspace(rows, ncols) and _all_fractions(basis)
    for rhs in rhs_list:
        x = solve(rows, rhs)
        assert x == _fraction_solve(rows, rhs)
        assert x is None or _all_fractions([x])
    assert rows == before
    assert all(type(x) is type(y) for r, s in zip(rows, before) for x, y in zip(r, s))


def _big_entry(rng):
    """A nonzero int or Fraction, its denominator up to a 30-digit prime."""
    num = rng.choice((-1, 1)) * rng.randrange(1, 10 ** rng.choice((1, 3, 12)))
    den = rng.choice((1, 2, 3, 7, 9, 49, PRIME30, PRIME30 * 6))
    return num if den == 1 and rng.random() < 0.5 else Fraction(num, den)


def _awkward_matrices(rng):
    """Seeded sparse matrices with big denominators and zero, duplicate and
    dependent rows, and the empty and 1x1 corners."""
    yield [], 3
    for x in (0, 1, -4, Fraction(0), Fraction(5, PRIME30)):
        yield [[x]], 1
    yield [[0], [0], [Fraction(-2, 3)]], 1
    for _ in range(60):
        nrows, ncols = rng.randrange(1, 14), rng.randrange(1, 14)
        density = rng.choice((0.1, 0.3, 0.7))
        m = [[_big_entry(rng) if rng.random() < density else 0
              for _ in range(ncols)] for _ in range(nrows)]
        for _ in range(rng.randrange(4)):
            kind = rng.randrange(3)
            if kind == 0:
                new = [0] * ncols
            elif kind == 1:
                new = list(rng.choice(m))
            else:  # a combination of two rows, so the rank drops
                a, b = rng.choice(m), rng.choice(m)
                s, t = _big_entry(rng), _big_entry(rng)
                new = [s * x + t * y for x, y in zip(a, b)]
            m.insert(rng.randrange(len(m) + 1), new)
        yield m, ncols


def test_integer_rows_match_fraction_elimination_on_awkward_matrices():
    rng = random.Random(19680701)
    for rows, ncols in _awkward_matrices(rng):
        rhs_list = [[_big_entry(rng) if rng.random() < 0.5 else 0 for _ in rows]]
        if rows:
            x0 = [_big_entry(rng) for _ in range(ncols)]
            rhs_list.append([sum((Fraction(v) * w for v, w in zip(r, x0)), Fraction(0))
                             for r in rows])
        _assert_same_as_fraction_elimination(rows, ncols, rhs_list)


def _assert_tagged_matches_fraction_elimination(candidates, targets):
    """The kernel vectors and target coefficients a TaggedEchelon returned,
    recorded as (row, tag, result) triples, equal the Fraction oracle's on
    the dense matrix whose column j is candidate j, data / row[tag]."""
    index = {tag: j for j, (_, tag, _) in enumerate(candidates)}
    keys = sorted({k for row, tag, _ in candidates + targets for k in row if k != tag})

    def vector(row, tag):
        return [Fraction(row.get(k, 0)) / row[tag] for k in keys]

    def dense(nums, den):
        x = [Fraction(0)] * len(index)
        for t, v in nums.items():
            x[index[t]] = Fraction(v, den)
        return x

    cols = [vector(row, tag) for row, tag, _ in candidates]
    matrix = [[c[r] for c in cols] for r in range(len(keys))]
    kernel = [dense(*got) for _, _, got in candidates if got is not None]
    assert kernel == _fraction_nullspace(matrix, len(index))
    for row, tag, got in targets:
        want = _fraction_solve(matrix, vector(row, tag)) if keys else dense({}, 1)
        assert (None if got is None else dense(*got)) == want


def _recording_tagged(log):
    """A TaggedEchelon class that appends (candidates, targets) to ``log``
    for each object, every call as (row, tag, result), and checks that the
    rows come back untouched."""

    class Recording(TaggedEchelon):
        def __init__(self):
            super().__init__()
            self.candidates, self.targets = [], []
            log.append((self.candidates, self.targets))

        def _record(self, calls, push, row, tag):
            before = dict(row)
            got = push(row, tag)
            assert row == before
            calls.append((before, tag, got))
            return got

        def add(self, row, tag):
            return self._record(self.candidates, super().add, row, tag)

        def express(self, row, tag):
            return self._record(self.targets, super().express, row, tag)

    return Recording


def test_integer_rows_match_fraction_elimination_on_pipeline_systems(monkeypatch):
    # the TaggedEchelons of the sl21 Whittaker kernels at order 12 and of
    # the sl21 slice word basis at order 10, which expresses every product,
    # and every coefficient system of splitting_check(sl21, 4), recorded as
    # the pipeline solves them
    kernels, products, systems = [], [], []

    def recording_solve(rows, rhs, memo=None, _solve=solve):
        systems.append(([list(r) for r in rows], list(rhs)))
        return _solve(rows, rhs, memo)

    ctx = wslice.slice_setup(load_algebra("sl21"))
    monkeypatch.setattr(wslice, "TaggedEchelon", _recording_tagged(kernels))
    wslice.whittaker_walgebra(ctx, 12)
    monkeypatch.setattr(wslice, "TaggedEchelon", _recording_tagged(products))
    assert wslice.slice_walgebra(ctx, 10, ctx.quantum_chart(10)).products_ok
    monkeypatch.setattr(linalg, "solve", recording_solve)
    assert wslice.splitting_check(ctx, 4).ok
    assert len(kernels) == 2 and sum(len(c) for c, _ in kernels) > 150
    assert all(not t for _, t in kernels)
    assert len(products) == 1 and len(products[0][1]) >= 10
    assert len(systems) > 500
    for candidates, targets in kernels + products:
        _assert_tagged_matches_fraction_elimination(candidates, targets)
    seen = set()
    for rows, rhs in systems:
        key = repr((rows, rhs))
        if key not in seen:
            seen.add(key)
            _assert_same_as_fraction_elimination(rows, len(rows[0]) if rows else 0, [rhs])


def test_tagged_echelon_with_tuple_keys_matches_fraction_elimination():
    # data columns (0, r) and tags (1, j), each candidate over a random scale
    rng = random.Random(19680702)
    for rows, ncols in _awkward_matrices(rng):
        tagged = TaggedEchelon()
        candidates, targets = [], []
        for j in range(ncols):
            row = {(0, r): a[j] for r, a in enumerate(rows) if a[j]}
            row[(1, j)] = _big_entry(rng)
            candidates.append((dict(row), (1, j), tagged.add(row, (1, j))))
        x0 = [_big_entry(rng) for _ in range(ncols)]
        for rhs in ([_big_entry(rng) if rng.random() < 0.5 else 0 for _ in rows],
                    [sum((Fraction(v) * w for v, w in zip(a, x0)), Fraction(0))
                     for a in rows]):
            row = {(0, r): b for r, b in enumerate(rhs)}
            row[(1, ncols)] = 1
            targets.append((dict(row), (1, ncols), tagged.express(row, (1, ncols))))
        _assert_tagged_matches_fraction_elimination(candidates, targets)


# -- the per-step content division, kept as an oracle ------------------
#
# ``Echelon.store`` divides a row by its content once.  Before, the row was
# made primitive when it was read and again after every elimination step;
# the functions below are those steps as they were, and the stored rows of
# both must be the same integers with the same signs.


def _per_step_integer_row(items):
    """(col, int or Fraction) pairs as a primitive integer row."""
    row = {c: x for c, x in items if x}
    if not all(type(x) is int for x in row.values()):
        den = lcm(*(x.denominator for x in row.values()))
        row = {c: x.numerator * (den // x.denominator) for c, x in row.items()}
    _divide_content(row)
    return row


def _per_step_eliminate(row, col, prow):
    """row <- (p/g) row - (q/g) prow, then row divided by its content."""
    p, q = prow[col], row[col]
    g = gcd(p, q)
    a, b = p // g, q // g
    if a != 1:
        for k in row:
            row[k] *= a
    for k, v in prow.items():
        x = row.get(k, 0) - b * v
        if x:
            row[k] = x
        else:
            del row[k]
    _divide_content(row)


def _divide_content(row):
    g = gcd(*row.values())
    if g > 1:
        for k in row:
            row[k] //= g


class _PerStepEchelon:
    """The echelon with its content divided after every step: ``push``
    reduces a row, stores it when ``keep`` says so and returns the
    remainder; ``reduce`` is the back-substitution."""

    def __init__(self):
        self.rows, self.pivots = {}, []

    def push(self, row, keep=bool):
        row = _per_step_integer_row(row.items())
        for p in self.pivots[bisect_left(self.pivots, min(row)):] if row else ():
            if p in row:
                _per_step_eliminate(row, p, self.rows[p])
                if not row:
                    break
        if keep(row):
            self.rows[min(row)] = row
            insort(self.pivots, min(row))
        return row

    def reduce(self):
        for p in reversed(self.pivots):
            row = self.rows[p]
            for q in [k for k in row if k != p and k in self.rows]:
                _per_step_eliminate(row, q, self.rows[q])


def _assert_same_stored_rows(echelon, reference):
    assert echelon.pivots == reference.pivots
    assert echelon.rows == reference.rows
    assert all(gcd(*row.values()) == 1 for row in echelon.rows.values())


def _as_fractions(result):
    """A tagged result ``(nums, den)`` as ``{tag: Fraction}``, or None."""
    return None if result is None else {t: Fraction(v, result[1])
                                        for t, v in result[0].items()}


def _assert_tagged_stores_per_step_rows(candidates, targets):
    """Push ``(row, tag, ...)`` candidates and targets into a TaggedEchelon
    and into the per-step oracle: the same kernel vectors, the same target
    coefficients and the same stored rows."""
    tagged, reference = TaggedEchelon(), _PerStepEchelon()
    tags = set()
    for row, tag, *_ in candidates:
        tags.add(tag)
        rem = reference.push(row, lambda r: min(r) not in tags)
        want = (rem, rem[tag]) if min(rem) in tags else None
        assert _as_fractions(tagged.add(dict(row), tag)) == _as_fractions(want)
    for row, tag, *_ in targets:
        rem = reference.push(row, lambda r: False)
        want = (rem, -rem.pop(tag)) if min(rem) in tags | {tag} else None
        assert _as_fractions(tagged.express(dict(row), tag)) == _as_fractions(want)
    _assert_same_stored_rows(tagged.echelon, reference)


def test_stored_rows_match_per_step_division_on_awkward_matrices():
    rng = random.Random(19680703)
    stored = 0
    for rows, ncols in _awkward_matrices(rng):
        dicts = [{c: x for c, x in enumerate(r) if x} for r in rows]
        echelon, reference = Echelon(), _PerStepEchelon()
        for row in dicts:
            echelon.add(row)
            reference.push(row)
        _assert_same_stored_rows(echelon, reference)
        built = Echelon(dicts)
        _assert_same_stored_rows(built, reference)
        built.reduce()
        reference.reduce()
        _assert_same_stored_rows(built, reference)
        stored += len(built)
        # the columns as tagged candidates, each over a random scale, and a
        # random and a consistent target
        candidates = []
        for j in range(ncols):
            row = {(0, r): a[j] for r, a in enumerate(rows) if a[j]}
            row[(1, j)] = _big_entry(rng)
            candidates.append((row, (1, j)))
        x0 = [_big_entry(rng) for _ in range(ncols)]
        targets = []
        for rhs in ([_big_entry(rng) if rng.random() < 0.5 else 0 for _ in rows],
                    [sum((Fraction(v) * w for v, w in zip(a, x0)), Fraction(0))
                     for a in rows]):
            row = {(0, r): b for r, b in enumerate(rhs)}
            row[(1, ncols)] = 1
            targets.append((row, (1, ncols)))
        _assert_tagged_stores_per_step_rows(candidates, targets)
    assert stored > 200


def test_stored_rows_match_per_step_division_on_whittaker_kernels(monkeypatch):
    # the two TaggedEchelons of the sl21 Whittaker kernels at order 12, as
    # recorded from the pipeline
    kernels = []
    monkeypatch.setattr(wslice, "TaggedEchelon", _recording_tagged(kernels))
    wslice.whittaker_walgebra(wslice.slice_setup(load_algebra("sl21")), 12)
    assert len(kernels) == 2 and sum(len(c) for c, _ in kernels) > 150
    for candidates, targets in kernels:
        _assert_tagged_stores_per_step_rows(candidates, targets)


def test_no_dense_system_left_in_wslice():
    # no module but linalg reaches rref, nullspace or solve, and inside
    # linalg only expand_filtered calls solve
    src = Path(wslice.__file__).parent
    dense = {"rref", "nullspace", "solve"}
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "_dense_rows" not in text, path.name
        if path.name == "linalg.py":
            continue
        tree = ast.parse(text)
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        attributes = {node.attr for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)}
        assert not (imported | attributes) & dense, path.name
        if path.name == "wslice.py":
            assert "TaggedEchelon" in imported
    tree = ast.parse(Path(linalg.__file__).read_text(encoding="utf-8"))
    callers = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Name) and node.func.id == "solve"}
    assert callers == {"expand_filtered"}


def _poly_universe():
    return Algebra([
        Variable(0, "u", EVEN, weight=1),
        Variable(1, "v", EVEN, weight=1),
    ])


def test_expand_filtered_geometric():
    alg = _poly_universe()
    u = alg.gen("u")
    cap = 6
    # target 1/(1-u) truncated: 1 + u + u^2 + ... matched against powers of u
    cands = [alg.one()]
    for _ in range(cap):
        cands.append(cands[-1] * u)
    target = alg.zero(cap)
    for c in cands:
        target = target + c
    coeffs = expand_filtered(target.truncate(cap), FilteredFamily(cands, cap))
    assert coeffs == [1] * 7


def test_expand_filtered_triangular_family():
    alg = _poly_universe()
    u, v = alg.gen("u"), alg.gen("v")
    cap = 5
    # candidates with distinct leading orders but overlapping tails
    c0 = u + u * v
    c1 = u * v + v * v * v
    c2 = u * v * v - v * v * v
    target = c0 * 2 - c1 * 3 + c2 * Fraction(1, 2)
    got = expand_filtered(target.truncate(cap), FilteredFamily([c0, c1, c2], cap))
    assert got == [2, -3, Fraction(1, 2)]


def test_expand_filtered_failure():
    alg = _poly_universe()
    u, v = alg.gen("u"), alg.gen("v")
    assert expand_filtered(v.truncate(3), FilteredFamily([u], 3)) is None
    # leftover above the candidate support
    assert expand_filtered((u + v * v * v).truncate(3), FilteredFamily([u], 3)) is None
    # zero target always expands
    assert expand_filtered(alg.zero(4), FilteredFamily([u, v], 4)) == [0, 0]


def _random_roundtrip_cases():
    alg = _poly_universe()
    rng = random.Random(71)
    u, v = alg.gen("u"), alg.gen("v")
    base = [u, v, u * u, u * v, v * v, u * u * v]
    cap = 6
    for _ in range(30):
        coeffs = [Fraction(rng.randrange(-5, 6)) for _ in base]
        target = alg.zero(cap)
        for c, b in zip(coeffs, base):
            target = target + b * c
        yield target, base, cap


def test_expand_filtered_random_roundtrip():
    for target, base, cap in _random_roundtrip_cases():
        got = expand_filtered(target, FilteredFamily(base, cap))
        assert got is not None
        rebuilt = target.alg.zero(cap)
        for c, b in zip(got, base):
            rebuilt = rebuilt + b * c
        assert rebuilt == target


def _expand_filtered_reference(target, candidates, cap):
    """The per-target expansion that FilteredFamily factors: every target
    groups the candidates by level and builds each level's system from
    ``Series.terms``, with a Fraction in every cell, one row per monomial of
    the level's leading parts; a remainder monomial outside them gives None
    with no solve."""
    alg = target.alg
    by_level = {}
    for idx, c in enumerate(candidates):
        d = c.eff_deg()
        if d is None:
            continue
        by_level.setdefault(d, []).append(idx)
    coeffs = [Fraction(0)] * len(candidates)
    rem = target.truncate(cap)
    for d in range(0, cap + 1):
        idxs = by_level.get(d, [])
        rem_d = eff_component(rem, d)
        if not idxs:
            if not rem_d.is_zero():
                return None
            continue
        monos = set()
        lead = [eff_component(candidates[i], d) for i in idxs]
        for L in lead:
            monos.update(L.nums)
        if rem_d.nums.keys() - monos:
            return None
        monos = sorted(monos, key=alg.mono_key)
        zero = Fraction(0)
        lead = [L.terms for L in lead]
        rows = [[t.get(m, zero) for t in lead] for m in monos]
        rem_t = rem_d.terms
        rhs = [rem_t.get(m, zero) for m in monos]
        sol = linalg.solve(rows, rhs)
        if sol is None:
            return None
        for i, x in zip(idxs, sol):
            if x:
                coeffs[i] = x
                rem = rem - candidates[i].truncate(cap) * x
    if not rem.is_zero():
        return None
    return coeffs


def test_filtered_family_gives_none_without_solve_for_a_monomial_no_leading_part_has(
        monkeypatch):
    # v at level 1, where only u leads, and v^2 at level 2, where only u v
    # leads: no combination reaches them, so no system is solved for them
    alg = _poly_universe()
    u, v = alg.gen("u"), alg.gen("v")
    calls = []

    def counting_solve(rows, rhs, memo=None, _solve=solve):
        calls.append(rows)
        return _solve(rows, rhs, memo)

    monkeypatch.setattr(linalg, "solve", counting_solve)
    family = FilteredFamily([u, u * v], 3)
    for target, want, solves in ((v + u * v, None, 0), (u + v * v, None, 1),
                                 (u * 2 + u * v, [2, 1], 2)):
        calls.clear()
        assert expand_filtered(target.truncate(3), family) == want
        assert len(calls) == solves, target


def test_filtered_family_matches_per_target_reference(monkeypatch):
    # every target of splitting_check(sl21, 4) on one family per weight,
    # reused as splitting_check reuses it, with targets that fail interleaved
    # on one family of their own, and the random roundtrip on a family each:
    # the same coefficients and the same sequence of solve systems as the
    # per-target reference, so a memo hit changes no answer
    cases, families = [], {}

    def recording_expand(target, family, _expand=expand_filtered):
        if id(family) not in families:
            families[id(family)] = FilteredFamily(family.candidates, family.cap)
        cases.append((target, families[id(family)]))
        return _expand(target, family)

    monkeypatch.setattr(wslice, "expand_filtered", recording_expand)
    assert wslice.splitting_check(wslice.slice_setup(load_algebra("sl21")), 4).ok
    monkeypatch.undo()
    assert len(families) < 10 and len(cases) > 50
    alg = _poly_universe()
    u, v = alg.gen("u"), alg.gen("v")
    failing = FilteredFamily([u], 3)
    for k, target in enumerate((v.truncate(3), (u + v * v * v).truncate(3)) * 5):
        cases.insert(7 * k + 3, (target, failing))
    cases += [(t, FilteredFamily(base, cap)) for t, base, cap in _random_roundtrip_cases()]
    cases.append(((u + u * v * Fraction(1, 3)).truncate(4),
                  FilteredFamily([u + u * v, v, u * v], 4)))

    calls = []

    def recording_solve(rows, rhs, memo=None, _solve=solve):
        calls.append(([list(r) for r in rows], list(rhs)))
        return _solve(rows, rhs, memo)

    monkeypatch.setattr(linalg, "solve", recording_solve)
    fails = solves = 0
    for target, family in cases:
        calls.clear()
        want = _expand_filtered_reference(target, family.candidates, family.cap)
        want_calls = list(calls)
        calls.clear()
        got = expand_filtered(target, family)
        assert got == want
        assert calls == want_calls
        fails += got is None
        solves += len(calls)
    assert fails == 10
    # the shared families factor far fewer systems than are solved
    factored = sum(len(f.memo) for f in (failing, *families.values()))
    assert 0 < 10 * factored < solves
