"""Small exact linear algebra over the rationals.

The public functions take and return dense lists of lists; every entry they
return is a Fraction.  Row reduction runs on sparse rows (dict col ->
Fraction) because the coefficient-matching systems are mostly zeros: each
elimination step touches only the nonzero entries of the rows that contain
the pivot column.  Arithmetic stays exact throughout.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


def rational_sqrt(q):
    """Exact square root of a nonnegative rational, or None."""
    q = Fraction(q)
    if q < 0:
        return None
    a, b = isqrt(q.numerator), isqrt(q.denominator)
    if a * a == q.numerator and b * b == q.denominator:
        return Fraction(a, b)
    return None


def sparse_row(row):
    """A dense row as a dict col -> Fraction over its nonzero entries."""
    return {c: x if type(x) is Fraction else Fraction(x)
            for c, x in enumerate(row) if x}


def _eliminate(row, col, prow):
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


def _reduce(rows):
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
                _eliminate(r, c, p)
        for r in done:
            if c in r:
                _eliminate(r, c, p)
        rest = [r for r in rest if r and r is not p]
        done.append(p)
        pivots.append(c)
    return done, pivots


def rref(rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns).

    ``new_rows`` has one dense row of Fraction per input row: the pivot rows
    in pivot order, then the zero rows.  The input is not modified.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    done, pivots = _reduce([sparse_row(r) for r in rows])
    zero = Fraction(0)
    out = []
    for p in done:
        row = [zero] * ncols
        for k, v in p.items():
            row[k] = v
        out.append(row)
    out.extend([zero] * ncols for _ in range(len(rows) - len(done)))
    return out, pivots


def nullspace(rows, ncols=None):
    """Basis of the right kernel of the matrix, as lists of Fraction."""
    if ncols is None:
        if not rows:
            raise ValueError("need ncols for an empty matrix")
        ncols = len(rows[0])
    m, pivots = rref(rows) if rows else ([], [])
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


def solve(rows, rhs):
    """One solution of A x = b, or None if inconsistent.

    Free coordinates are set to zero, so the answer is deterministic.
    """
    if not rows:
        return None if any(rhs) else []
    ncols = len(rows[0])
    m, pivots = rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][-1]
    return x


def expand_filtered(target, candidates, cap):
    """Write ``target`` as an exact combination of ``candidates``, level by level.

    Both sides live in the same universe and are handled through completion
    order ``cap``: at each level d we match the order-d terms of the running
    remainder against the order-d leading terms of the candidates whose
    minimal order is d, subtract the chosen combination in full, and move on.
    Returns a list of coefficients aligned with ``candidates`` or None if the
    remainder fails to vanish through order cap.

    This is sound whenever the candidates are "triangular" in the sense that
    a combination whose order-d leading parts cancel has all its leading
    orders > d -- which holds for the generator-monomial families used here.
    """
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
        rem_d = rem.eff_component(d)
        if not idxs:
            if not rem_d.is_zero():
                return None
            continue
        monos = set(rem_d.terms)
        lead = [candidates[i].eff_component(d) for i in idxs]
        for L in lead:
            monos.update(L.terms)
        monos = sorted(monos)
        if not monos:
            continue
        rows = [[L.coeff(m) for L in lead] for m in monos]
        rhs = [rem_d.coeff(m) for m in monos]
        sol = solve(rows, rhs)
        if sol is None:
            return None
        for i, x in zip(idxs, sol):
            if x:
                coeffs[i] = x
                rem = rem - candidates[i].truncate(cap) * x
    if not rem.is_zero():
        return None
    return coeffs
