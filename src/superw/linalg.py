"""Small exact linear algebra over the rationals.

One incremental integer echelon, ``Echelon``, sits behind every
elimination.  It keeps a growing basis of sparse primitive integer rows
(dict col -> int with no common factor) keyed by any sortable column
values; a row's pivot is its smallest key.  A new row is scaled by the lcm
of its denominators and reduced against the pivots from its smallest key
upward, clearing column c of a row r against the pivot row s by
cross-multiplication, r <- (p/g) r - (q/g) s with p = s[c], q = r[c] and
g = gcd(p, q).  This is Bareiss's fraction-free elimination (Math. Comp.
22, 1968) with content division in place of his exact division by the
previous pivot; each step touches only the nonzero entries of the two rows.
A row is divided by its content once, when it is stored.  Dividing after
every step instead would change the working row only by a positive
rational factor, and a rational vector has one primitive integer multiple
of each sign, so the stored rows are the same; a row that lies in the span,
and a target, make no gcd pass at all.  Growth stays linear in the number
of steps: against a primitive pivot row s a step adds at most
1 + log2 max|s| bits to the working row.  The remainder of a row depends
only on the span and the column order, and one back-substitution gives the
unique reduced row echelon form (``rref``).  Every kernel and every solve
goes through ``TaggedEchelon``, which gives each candidate row a tag
column: ``nullspace`` and ``solve`` on dense lists are thin adapters over
it, like the Whittaker kernel and the slice products of ``wslice``.
``solve`` takes a memo that its caller owns, matrix -> TaggedEchelon of its
columns, so a matrix asked about again pushes no column: ``express`` never
changes the echelon, and each ``FilteredFamily`` keeps one such memo.
Fractions appear only at the boundary, and arithmetic stays exact
throughout.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from fractions import Fraction
from math import gcd, isqrt, lcm


def rational_sqrt(q):
    """Exact square root of a nonnegative rational, or None."""
    q = Fraction(q)
    if q < 0:
        return None
    a, b = isqrt(q.numerator), isqrt(q.denominator)
    if a * a == q.numerator and b * b == q.denominator:
        return Fraction(a, b)
    return None


def _divide_content(row):
    """Divide an integer row by the gcd of its entries, in place."""
    g = gcd(*row.values())
    if g > 1:
        for k in row:
            row[k] //= g


def _integer_row(items):
    """(col, int or Fraction) pairs as an integer row: a dict col -> int
    over the nonzero entries, scaled by the lcm of the denominators.  Its
    content is not divided out: ``Echelon.store`` does that once.  A row of
    ints skips the scan for denominators."""
    row = {c: x for c, x in items if x}
    if not all(type(x) is int for x in row.values()):
        den = lcm(*(x.denominator for x in row.values()))
        row = {c: x.numerator * (den // x.denominator) for c, x in row.items()}
    return row


def _eliminate(row, col, prow):
    """Clear column col of row against prow, in place, in integers:
    row <- (p/g) row - (q/g) prow with p = prow[col], q = row[col] and
    g = gcd(p, q).  Only scales and subtracts: the step on a positive
    multiple of a row is a positive multiple of the step on the row, so
    the content is left for ``Echelon.store`` to divide once."""
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


class Echelon:
    """A growing echelon basis of sparse primitive integer rows.

    Column keys are any sortable values; a row's pivot is its smallest key,
    and no two rows share a pivot.  A row is reduced against the pivots in
    increasing order, so its remainder has no pivot in its support and
    depends only on the span, not on the order the rows came in.
    """

    def __init__(self, rows=()):
        self.rows = {}  # pivot -> primitive integer row
        self.pivots = []  # sorted
        for row in rows:
            row = _integer_row(row.items())
            self.remainder(row)
            if row:
                self.store(row)

    def __len__(self):
        return len(self.pivots)

    def remainder(self, row):
        """Reduce an integer row in place against the pivots, smallest first,
        so that no pivot is left in its support."""
        if not row:
            return
        pivots, rows = self.pivots, self.rows
        for p in pivots[bisect_left(pivots, min(row)):]:
            if p in row:
                _eliminate(row, p, rows[p])
                if not row:
                    return

    def store(self, row):
        """Keep a nonzero reduced row as a new row, divided by its content in
        place; return its pivot.  This is the one content division of the
        row: the remainder is a positive multiple of the primitive row that
        division after every step would give, so this gives that row."""
        _divide_content(row)
        p = min(row)
        self.rows[p] = row
        insort(self.pivots, p)
        return p

    def add(self, row):
        """Reduce ``{col: int or Fraction}``, such as the ``nums`` of a
        Series; keep a nonzero remainder and return it scaled to 1 on its
        pivot, or return {} when it lies in the span.  The result does not
        depend on how the row is scaled."""
        row = _integer_row(row.items())
        self.remainder(row)
        if not row:
            return {}
        lead = row[self.store(row)]
        return {k: Fraction(v, lead) for k, v in row.items()}

    def reduce(self):
        """Clear every pivot column from the rows of the other pivots, in
        place: the rows become the reduced row echelon form.  Walking the
        pivots from last to first, the rows of later pivots are already
        reduced, so clearing one of their columns brings no pivot back.
        Each row is divided by its content once, after its last step."""
        rows = self.rows
        for p in reversed(self.pivots):
            row = rows[p]
            for q in [k for k in row if k != p and k in rows]:
                _eliminate(row, q, rows[q])
            _divide_content(row)


def _over(nums, den):
    """``(nums, den)`` with the sign moved so that den > 0."""
    return (nums, den) if den > 0 else ({k: -v for k, v in nums.items()}, -den)


class TaggedEchelon:
    """An Echelon of candidate vectors, each row carrying one tag column.

    A candidate row holds data columns and its own tag entry ``row[tag]``,
    and stands for the vector data / ``row[tag]``; every tag key sorts after
    every data key.  A remainder that keeps a data column is stored.  One of
    tags only is the candidate's kernel vector over the earlier ones, and is
    not stored.  So the stored candidates are the pivot columns of the RREF
    of the candidates taken as columns, chosen greedily in index order, and
    the kernel vectors are its free-column vectors.  A target goes in with a
    fresh tag and is never stored: data left means no solution; otherwise
    its tags give its unique expression over the stored candidates.
    """

    def __init__(self):
        self.echelon = Echelon()
        self.tags = set()

    def _remainder(self, row, tag):
        row = _integer_row(row.items())
        self.echelon.remainder(row)
        lead = min(row)
        return row, lead == tag or lead in self.tags

    def add(self, row, tag):
        """Push a candidate: None when it is stored, else its kernel vector
        ``{tag: nums[tag] / den}`` as ``(nums, den)``, 1 on its own tag.
        A row that is not stored is never divided by its content, so
        ``(nums, den)`` is not in lowest terms: read it through
        ``Series.over`` or ``Fraction``."""
        row, tags_only = self._remainder(row, tag)
        self.tags.add(tag)
        if tags_only:
            return _over(row, row[tag])
        self.echelon.store(row)
        return None

    def express(self, row, tag):
        """A target's coefficients ``{tag: nums[tag] / den}`` over the
        candidates as ``(nums, den)``, zeros left out; None outside their
        span.  As in ``add``, ``(nums, den)`` is not in lowest terms."""
        row, tags_only = self._remainder(row, tag)
        return _over(row, -row.pop(tag)) if tags_only else None


def rref(rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns).

    ``new_rows`` has one dense row of Fraction per input row: the pivot rows
    in pivot order, then the zero rows.  The input is not modified.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    ech = Echelon(sorted(({c: x for c, x in enumerate(r) if x} for r in rows), key=len))
    ech.reduce()
    zero = Fraction(0)
    out = []
    for c in ech.pivots:
        p = ech.rows[c]
        pv = p[c]
        row = [zero] * ncols
        for k, v in p.items():
            row[k] = Fraction(v, pv)
        out.append(row)
    out.extend([zero] * ncols for _ in range(len(rows) - len(ech)))
    return out, ech.pivots


def _dense(nums, den, base, n):
    """``nums[base + k] / den`` for k < n as a list of Fractions."""
    out = [Fraction(0)] * n
    for t, v in nums.items():
        out[t - base] = Fraction(v, den)
    return out


def _tagged_columns(rows, ncols):
    """The columns of a dense matrix pushed into a TaggedEchelon, data column
    r being row r and column j tagged len(rows) + j; returns it and the
    relation of each column (None for a stored one)."""
    n = len(rows)
    tagged = TaggedEchelon()
    relations = []
    for j, col in enumerate(zip(*rows) if rows else [()] * ncols):
        col = {r: x for r, x in enumerate(col) if x}
        col[n + j] = 1
        relations.append(tagged.add(col, n + j))
    return tagged, relations


def nullspace(rows, ncols=None):
    """Basis of the right kernel of the matrix, as lists of Fraction: one
    vector per dependent column, 1 there and 0 on the other dependent
    columns."""
    if ncols is None:
        if not rows:
            raise ValueError("need ncols for an empty matrix")
        ncols = len(rows[0])
    _, relations = _tagged_columns(rows, ncols)
    return [_dense(*r, len(rows), ncols) for r in relations if r is not None]


def solve(rows, rhs, memo=None):
    """One solution of A x = b, or None if inconsistent.

    Free coordinates are set to zero, so the answer is deterministic.  A
    caller that asks about one matrix many times passes a dict ``memo`` that
    it owns: it keeps the TaggedEchelon of each matrix, keyed by its rows, and
    a hit pushes no column.  ``express`` changes only the target row, never
    the echelon, so a stored factorization holds for every right-hand side.
    """
    if not rows:
        return None if any(rhs) else []
    n, ncols = len(rows), len(rows[0])
    if memo is None:
        memo = {}
    key = tuple(map(tuple, rows))
    tagged = memo.get(key)
    if tagged is None:
        tagged = memo[key] = _tagged_columns(rows, ncols)[0]
    target = dict(zip(range(n), rhs))
    target[n + ncols] = 1
    sol = tagged.express(target, n + ncols)
    return None if sol is None else _dense(*sol, n, ncols)


def _cell(v, den):
    """The coefficient ``v / den`` as an int when it is one, else a Fraction."""
    q, r = divmod(v, den)
    return Fraction(v, den) if r else q


class FilteredFamily:
    """A candidate family read once for ``expand_filtered`` through order
    ``cap``.

    ``levels`` maps each order d <= cap at which some candidate starts to
    ``(idxs, rows, truncated)``: the indices of the candidates whose minimal
    order is d; the rows of the order-d system, one dense row per monomial of
    their order-d leading parts, keyed by it in ``mono_key`` order, with one
    cell per candidate (an int when the coefficient is integral, int 0 for a
    missing monomial); and those candidates truncated at ``cap``.  Only the
    right-hand side depends on the target, so each level's system is fixed.  ``memo`` is the family's ``solve``
    memo, kept for its lifetime: a level system met again, by any target, is
    not factored again.
    """

    def __init__(self, candidates, cap):
        self.candidates = list(candidates)
        self.cap = cap
        self.memo = {}
        by_level = {}
        for idx, c in enumerate(self.candidates):
            d = c.eff_deg()
            if d is not None and d <= cap:
                by_level.setdefault(d, []).append(idx)
        self.levels = {}
        for d, idxs in by_level.items():
            cands = [self.candidates[i] for i in idxs]
            alg = cands[0].alg
            eff = alg.mono_eff
            lead = [{m: _cell(v, c.den) for m, v in c.nums.items() if eff(m) == d}
                    for c in cands]
            monos = sorted(set().union(*lead), key=alg.mono_key)
            rows = {m: [cells.get(m, 0) for cells in lead] for m in monos}
            self.levels[d] = (idxs, rows, [c.truncate(cap) for c in cands])


def expand_filtered(target, family):
    """Write ``target`` as an exact combination of the candidates of a
    ``FilteredFamily``, level by level.

    Both sides live in the same universe and are handled through completion
    order ``family.cap``: at each level d we match the order-d terms of the
    running remainder against the order-d leading terms of the candidates
    whose minimal order is d, subtract the chosen combination in full, and
    move on.  Returns a list of coefficients aligned with the candidates or
    None if the remainder fails to vanish through order cap.  A remainder
    monomial of order d that no order-d leading part has cannot be matched,
    so it gives None at once, with no ``solve``; every system solved is a
    level's own, fixed by the family.

    This is sound whenever the candidates are "triangular" in the sense that
    a combination whose order-d leading parts cancel has all its leading
    orders > d -- which holds for the generator-monomial families used here.
    """
    eff = target.alg.mono_eff
    cap = family.cap
    coeffs = [Fraction(0)] * len(family.candidates)
    rem = target.truncate(cap)
    for d in range(0, cap + 1):
        den = rem.den
        rem_d = {m: _cell(v, den) for m, v in rem.nums.items() if eff(m) == d}
        idxs, rows, truncated = family.levels.get(d, ((), {}, ()))
        if rem_d.keys() - rows.keys():
            # a monomial no leading part has: no combination reaches it
            return None
        if not rows:
            continue
        sol = solve(list(rows.values()), [rem_d.get(m, 0) for m in rows], memo=family.memo)
        if sol is None:
            return None
        for i, c, x in zip(idxs, truncated, sol):
            if x:
                coeffs[i] = x
                rem = rem - c * x
    if not rem.is_zero():
        return None
    return coeffs
