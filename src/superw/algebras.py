"""Catalog of finite-dimensional Lie superalgebras with invariant forms.

Input files are JSON: a basis with parities, structure constants for the
upper triangle of the bracket, an invariant bilinear form, and optionally a
distinguished sl2-triple.  Everything is validated on load -- antisymmetry
conventions, the graded Jacobi identity, form invariance and nondegeneracy --
so the downstream machinery can assume a genuine Lie superalgebra.

The loader turns a file into one sparse integer table (:class:`LieSuperData`)
after the shape and parity checks; validation, the grading, the character
and ``wslice.slice_setup`` compute on that table's integers.  ``Fraction``
is left only where JSON is parsed (``_rat``) and where a value is reported.

From a validated algebra we derive the eigenvalue grading of the triple's
semisimple element, the centralizer of its nilpotent element, the character
built from the form, and a basis-aligned Lagrangian inside the degree -1
subspace.  Those four ingredients are all the slice construction needs.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from .linalg import Echelon
from .supercore import EVEN, ODD

__all__ = [
    "AlgebraError",
    "LieSuperData",
    "GradingData",
    "ChiData",
    "load_algebra",
    "dynkin_grading",
    "build_chi",
    "catalog_names",
    "extract_even_subalgebra",
]

BUNDLED = ("sl2", "gl11", "osp12", "sl21")
HBAR = "hb"  # the name of the hbar variable, so no basis vector may take it


class AlgebraError(ValueError):
    """A catalog file failed validation, with the violated law in the message."""


def _rat(x, what):
    """x, a string or integer rational, as a Fraction (the int 0 for "0"), or
    an AlgebraError naming ``what``."""
    if isinstance(x, str) or type(x) is int:  # bool is an int subclass
        if x == "0":  # most entries of a catalog file; Fraction parses by regex
            return 0
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise AlgebraError("%s: rational entries must be strings or integers, got %r"
                       % (what, x))


class LieSuperData(namedtuple("LieSuperData", "name names parities den ad "
                              "form_den form triple_den triple")):
    """A validated Lie superalgebra with an even invariant form, as one
    sparse integer table.

    A sparse row is a tuple of ``(k, numerator)`` pairs, k ascending and no
    numerator zero.  ``ad[i][j]`` is the row of [x_i, x_j] over ``den`` for
    every ordered pair: the catalog's upper triangle, and below it the same
    rows times the swap sign, [x_j, x_i] = -(-1)^(|i||j|) [x_i, x_j].
    ``form[i]`` is the row of (x_i, x_j) over ``form_den``, and ``triple``
    is (e, h, f), three rows over ``triple_den``; three empty rows mean no
    triple.  Each denominator is the least one its rows allow.
    """

    __slots__ = ()

    @property
    def dim(self):
        return len(self.names)

    def bracket(self, i, j):
        """[x_i, x_j] as a sparse row over ``den``, for any index order."""
        return self.ad[i][j]

    def has_triple(self):
        return any(self.triple)


def _lowest_rows(rows, den=1):
    """Rows of ``(k, c)`` pairs, each the value c / den for an int or
    Fraction c, as ``(d, rows)``: the nonzero values as integer numerators
    over their least common denominator d."""
    rows = [[(k, c) for k, c in row if c] for row in rows]
    scale = lcm(*(c.denominator for row in rows for _, c in row))
    rows = [[(k, c.numerator * (scale // c.denominator)) for k, c in row]
            for row in rows]
    d = scale * den
    g = gcd(d, *(v for row in rows for _, v in row))
    return d // g, tuple(tuple((k, v // g) for k, v in row) for row in rows)


def _ad_column(ad, u, i):
    """{k: numerator} of [u, x_i], for a sparse vector u, over its
    denominator times the table's; no numerator is zero."""
    out = {}
    for a, x in u:
        for k, c in ad[a][i]:
            out[k] = out.get(k, 0) + x * c
    return {k: c for k, c in out.items() if c}


def _image(ad, u, v):
    """{k: numerator} of [u, v], for sparse vectors u and v, over their
    denominators times the table's; no numerator is zero."""
    out = {}
    for b, y in v:
        for k, c in _ad_column(ad, u, b).items():
            out[k] = out.get(k, 0) + y * c
    return {k: c for k, c in out.items() if c}


def _validate(data: LieSuperData):
    """Graded Jacobi, the form's laws and the triple relations, on the
    integer table.  Every sum compared below has all its terms over one
    denominator, so numerators are compared."""
    n, par, ad = data.dim, data.parities, data.ad

    # graded Jacobi on all basis triples
    for i in range(n):
        adi = ad[i]
        for j in range(i, n):
            adj = ad[j]
            s2 = -1 if (par[j] and par[i]) else 1
            for k in range(j, n):
                s1 = -1 if (par[i] and par[k]) else 1
                s3 = -1 if (par[k] and par[j]) else 1
                tot = {}
                for s, outer, inner in ((s1, adi, adj[k]), (s2, adj, ad[k][i]),
                                        (s3, ad[k], adi[j])):
                    for m, c in inner:
                        c *= s
                        for t, d in outer[m]:
                            tot[t] = tot.get(t, 0) + c * d
                if any(tot.values()):
                    raise AlgebraError(
                        "%s: Jacobi identity violated on (%s, %s, %s)"
                        % (data.name, data.names[i], data.names[j], data.names[k])
                    )

    # the form: even and supersymmetric, scanned in row-major order over the
    # entries that are nonzero or whose transpose is
    F = data.form
    entry = {(i, j): f for i, row in enumerate(F) for j, f in row}
    for i, j in sorted(entry.keys() | {(j, i) for i, j in entry}):
        f = entry.get((i, j), 0)
        if par[i] != par[j] and f:
            raise AlgebraError(
                "%s: form is not even: (%s, %s) != 0 across parities"
                % (data.name, data.names[i], data.names[j])
            )
        sgn = -1 if (par[i] and par[j]) else 1
        if entry.get((j, i), 0) != sgn * f:
            raise AlgebraError(
                "%s: form symmetry violated at (%s, %s)"
                % (data.name, data.names[i], data.names[j])
            )
    rank = len(Echelon(dict(row) for row in F))
    if rank != n:
        raise AlgebraError("%s: form is degenerate (rank %d < %d)" % (data.name, rank, n))

    # invariance ([x_i, x_j], x_k) = (x_i, [x_j, x_k]) on basis triples: both
    # sides as {k: numerator} over den * form_den
    for i in range(n):
        Fi = dict(F[i])
        adi = ad[i]
        for j in range(n):
            lhs = {}
            for m, c in adi[j]:
                for k, f in F[m]:
                    lhs[k] = lhs.get(k, 0) + c * f
            rhs = {}
            for k, row in enumerate(ad[j]):
                if row:
                    v = sum(Fi.get(m, 0) * c for m, c in row)
                    if v:
                        rhs[k] = v
            lhs = {k: v for k, v in lhs.items() if v}
            if lhs != rhs:
                k = min(k for k in lhs.keys() | rhs.keys()
                        if lhs.get(k) != rhs.get(k))
                raise AlgebraError(
                    "%s: form invariance violated on (%s, %s, %s)"
                    % (data.name, data.names[i], data.names[j], data.names[k])
                )

    for vec, which in zip(data.triple, "ehf"):
        if any(par[k] != EVEN for k, _ in vec):
            raise AlgebraError(
                "%s: triple vector %s has an odd component" % (data.name, which)
            )
    if data.has_triple():
        # [u, v] is over triple_den^2 * den and each vector over triple_den
        ev, hv, fv = data.triple
        scale = data.triple_den * data.den
        for u, v, w, c, law in ((ev, fv, hv, 1, "[e,f] = h"),
                                (hv, ev, ev, 2, "[h,e] = 2e"),
                                (hv, fv, fv, -2, "[h,f] = -2f")):
            if _image(ad, u, v) != {k: c * scale * x for k, x in w}:
                raise AlgebraError("%s: triple relation %s fails" % (data.name, law))


def extract_even_subalgebra(data: LieSuperData) -> LieSuperData:
    """The even part, revalidated as an algebra in its own right."""
    keep = [i for i in range(data.dim) if data.parities[i] == EVEN]
    pos = {i: k for k, i in enumerate(keep)}

    def restrict(rows, den):
        # the rows at even indices, in lowest terms over the even part
        return _lowest_rows([tuple((pos[k], c) for k, c in row if k in pos)
                             for row in rows], den)

    n = len(keep)
    den, ad = restrict([data.bracket(i, j) for i in keep for j in keep], data.den)
    sub = LieSuperData(
        data.name + "_even", tuple(data.names[i] for i in keep), (EVEN,) * n,
        den, tuple(ad[a * n:(a + 1) * n] for a in range(n)),
        *restrict([data.form[i] for i in keep], data.form_den),
        *restrict(data.triple, data.triple_den),
    )
    _validate(sub)
    return sub


def catalog_names():
    """Names resolvable without a path, honoring the SUPERW_CATALOG override.

    An override naming a directory that cannot be listed or holds no
    ``.json`` file raises AlgebraError naming the directory.
    """
    env = os.environ.get("SUPERW_CATALOG")
    if not env:
        return BUNDLED
    try:
        names = tuple(sorted(f[:-5] for f in os.listdir(env) if f.endswith(".json")))
    except OSError as exc:
        raise AlgebraError("cannot list catalog %s: %s" % (env, exc.strerror)) from None
    if not names:
        raise AlgebraError("catalog %s holds no .json algebra file" % env)
    return names


def _read_json(path):
    """The JSON object in the file at ``path``.

    An unreadable file, bytes that are not UTF-8, malformed JSON or a top
    level that is not an object raise AlgebraError naming the file.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise AlgebraError("cannot read algebra file %s: %s" % (path, exc)) from None
    try:
        raw = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise AlgebraError("%s is not UTF-8 text: %s" % (path, exc)) from None
    except (ValueError, RecursionError) as exc:
        raise AlgebraError("%s is not valid JSON: %s" % (path, exc)) from None
    if not isinstance(raw, dict):
        raise AlgebraError("%s must hold a JSON object, got %s"
                           % (path, type(raw).__name__))
    return raw


def load_algebra(spec: str) -> LieSuperData:
    """Load and validate an algebra from a file path or a catalog name."""
    if spec.endswith(".json") or os.path.sep in spec or os.path.exists(spec):
        raw = _read_json(spec)
    else:
        env = os.environ.get("SUPERW_CATALOG")
        if env:
            path = os.path.join(env, spec + ".json")
            if not os.path.isfile(path):
                raise AlgebraError("catalog %s has no algebra %r" % (env, spec))
            raw = _read_json(path)
        else:
            if spec not in BUNDLED:
                raise AlgebraError(
                    "unknown algebra %r; bundled: %s" % (spec, ", ".join(BUNDLED))
                )
            raw = _read_json(os.path.join(os.path.dirname(__file__), "catalog",
                                          spec + ".json"))
    return _from_json(raw)


def _field(entry, key, where):
    """entry[key], or an AlgebraError naming the missing field."""
    try:
        return entry[key]
    except (KeyError, TypeError):
        raise AlgebraError("%s missing required field %r" % (where, key)) from None


def _int_field(entry, key, where):
    """entry[key], a JSON integer, or an AlgebraError naming the field."""
    value = _field(entry, key, where)
    if type(value) is not int:  # bool is an int subclass; floats would truncate
        raise AlgebraError(
            "%s field %r must be an integer, got %r" % (where, key, value))
    return value


def _str_field(entry, key, where):
    """entry[key], a JSON string, or an AlgebraError naming the field."""
    value = _field(entry, key, where)
    if not isinstance(value, str):
        raise AlgebraError(
            "%s field %r must be a string, got %r" % (where, key, value))
    return value


def _array(value, what):
    """value, a JSON array, or an AlgebraError naming it."""
    if not isinstance(value, list):
        raise AlgebraError("%s must be an array, got %s" % (what, type(value).__name__))
    return value


def _rationals(value, what):
    """value, a JSON array of rationals, as a tuple of Fractions (0 for "0")."""
    return tuple(_rat(x, what) for x in _array(value, what))


def _from_json(raw) -> LieSuperData:
    try:
        name = raw["name"]
        basis = raw["basis"]
        brackets = raw["brackets"]
        form = raw["form"]
    except (KeyError, TypeError) as exc:
        raise AlgebraError("algebra file missing required field: %s" % exc)
    if not isinstance(name, str):
        raise AlgebraError("algebra field 'name' must be a string, got %r" % (name,))
    basis = _array(basis, "%s: basis" % name)
    brackets = _array(brackets, "%s: brackets" % name)
    form = _array(form, "%s: form" % name)

    names = tuple(_str_field(b, "name", "%s: basis entry %d" % (name, k))
                  for k, b in enumerate(basis))
    parities = tuple(_int_field(b, "parity", "%s: basis entry %d" % (name, k))
                     for k, b in enumerate(basis))
    if len(set(names)) != len(names):
        raise AlgebraError("%s: duplicate basis names" % name)
    if HBAR in names:
        raise AlgebraError("%s: the basis name %r is reserved for hbar" % (name, HBAR))
    if any(p not in (EVEN, ODD) for p in parities):
        raise AlgebraError("%s: parities must be 0 or 1" % name)
    n = len(names)

    rows = {}
    for k, ent in enumerate(brackets):
        where = "%s: bracket entry %d" % (name, k)
        i, j = _int_field(ent, "i", where), _int_field(ent, "j", where)
        if not (0 <= i < n and 0 <= j < n):
            raise AlgebraError("%s: bracket indices (%d,%d) out of range" % (name, i, j))
        if i > j:
            raise AlgebraError(
                "%s: store brackets with i <= j (got %d > %d)" % (name, i, j)
            )
        if (i, j) in rows:
            raise AlgebraError("%s: duplicate bracket entry (%d,%d)" % (name, i, j))
        rows[(i, j)] = _rationals(_field(ent, "coeffs", where),
                                  "%s field 'coeffs'" % where)

    fm = tuple(_rationals(row, "%s: form row %d" % (name, k))
               for k, row in enumerate(form))

    if "sl2_triple" in raw and raw["sl2_triple"] is not None:
        t = raw["sl2_triple"]
        where = "%s: sl2_triple" % name
        triple = tuple(_rationals(_field(t, w, where), "%s field %r" % (where, w))
                       for w in ("e", "h", "f"))
    else:
        triple = ((0,) * n,) * 3

    # the shape and parity checks, then the integer table
    for (i, j), row in rows.items():
        if len(row) != n:
            raise AlgebraError(
                "%s: bracket (%d,%d) has %d coefficients for a %d-dimensional algebra"
                % (name, i, j, len(row), n)
            )
        want = (parities[i] + parities[j]) % 2
        for k, c in enumerate(row):
            if c and parities[k] != want:
                raise AlgebraError(
                    "%s: parity violated in [%s,%s]: component %s has parity %d, expected %d"
                    % (name, names[i], names[j], names[k], parities[k], want)
                )
        if i == j and parities[i] == EVEN and any(row):
            raise AlgebraError(
                "%s: super-antisymmetry violated: [%s,%s] must vanish for even %s"
                % (name, names[i], names[i], names[i])
            )
    if len(fm) != n or any(len(r) != n for r in fm):
        raise AlgebraError("%s: form must be a %d x %d matrix" % (name, n, n))
    for vec, which in zip(triple, "ehf"):
        if len(vec) != n:
            raise AlgebraError("%s: triple vector %s has wrong length" % (name, which))

    den, upper = _lowest_rows(map(enumerate, rows.values()))
    ad = [[()] * n for _ in range(n)]
    for (i, j), row in zip(rows, upper):
        ad[i][j] = row
        if i != j:  # [x_j, x_i] = -(-1)^(|i||j|) [x_i, x_j]
            ad[j][i] = row if parities[i] and parities[j] else tuple(
                (k, -v) for k, v in row)
    data = LieSuperData(name, names, parities, den, tuple(map(tuple, ad)),
                        *_lowest_rows(map(enumerate, fm)),
                        *_lowest_rows(map(enumerate, triple)))
    _validate(data)
    return data


class GradingData(namedtuple("GradingData", "grades weights ge_basis")):
    """Eigenvalue grading of ad(h) together with the centralizer of e.

    ``grades`` is the int grade of each basis vector, ``weights`` the
    filtration weight grade + 2 of each, and ``ge_basis`` one (grade,
    parity) pair per centralizer direction.
    """

    __slots__ = ()

    def ge_weight_signature(self):
        """Sorted (weight, parity) pairs of the centralizer basis."""
        return tuple(sorted((g + 2, p) for g, p in self.ge_basis))


def dynkin_grading(data: LieSuperData) -> GradingData:
    """Grade the basis by ad(h) eigenvalues and certify the triple is good.

    The catalog stores bases of ad(h) eigenvectors, so the grading is read off
    diagonally; anything else is rejected.  A zero triple is allowed and gives
    the trivial grading with every direction central.
    """
    n, ad = data.dim, data.ad
    ev, hv, _ = data.triple

    if not data.has_triple():
        grades = (0,) * n
        ge = tuple((0, p) for p in data.parities)
        return GradingData(grades, tuple(g + 2 for g in grades), ge)

    # [h, x_i] is over triple_den * den
    den = data.triple_den * data.den
    grades = []
    for i in range(n):
        img = _ad_column(ad, hv, i)
        if any(k != i for k in img):
            raise AlgebraError(
                "%s: basis vector %s is not an ad(h) eigenvector"
                % (data.name, data.names[i])
            )
        lam, r = divmod(img.get(i, 0), den)
        if r:
            raise AlgebraError(
                "%s: ad(h) eigenvalue %s on %s is not an integer"
                % (data.name, Fraction(img[i], den), data.names[i])
            )
        grades.append(lam)
    grades = tuple(grades)

    # bracket respects the grading
    for i in range(n):
        for j in range(i, n):
            for k, _ in ad[i][j]:
                if grades[k] != grades[i] + grades[j]:
                    raise AlgebraError(
                        "%s: grading violated: [%s,%s] meets %s"
                        % (data.name, data.names[i], data.names[j], data.names[k])
                    )

    for k, _ in ev:
        if grades[k] != 2:
            raise AlgebraError("%s: e is not concentrated in degree 2" % data.name)

    # centralizer of e, one block of one grade and parity at a time.  Once
    # _validate has passed, e has no odd component and brackets respect
    # parity, so ad e is even: it maps each block into one block, no
    # centralizer direction mixes parities, g^e has dimension (block size -
    # rank of ad e) on each block, and the ranks of the two parities add up
    # to the rank of ad e from grade g to grade g + 2
    by_grade = {}
    for i, g in enumerate(grades):
        by_grade.setdefault(g, []).append(i)
    ge = []
    for g in sorted(by_grade):
        rank = 0
        for p in (EVEN, ODD):
            block = [i for i in by_grade[g] if data.parities[i] == p]
            r = len(Echelon(_ad_column(ad, ev, i) for i in block))
            ge.extend([(g, p)] * (len(block) - r))
            rank += r
        # the triple is good: ad e injective below grade 0, onto above grade -2
        if (g <= -1 and rank != len(by_grade[g])
                or g >= -1 and rank != len(by_grade.get(g + 2, []))):
            raise AlgebraError(
                "%s: the triple is not good (ad(e) fails injectivity/surjectivity)"
                % data.name
            )
    return GradingData(grades, tuple(g + 2 for g in grades), tuple(ge))


class ChiData(namedtuple("ChiData", "chi den g1_indices l_indices m_indices "
                         "theta_index")):
    """The character chi = (e, .), a Lagrangian in degree -1, and the shift space.

    ``chi`` is an integer numerator per basis vector over ``den``, in lowest
    terms; ``g1_indices`` are the basis indices in degree -1, ``l_indices``
    the chosen isotropic subset of them, ``m_indices`` the degree <= -2
    indices plus ``l_indices``, ascending, and ``theta_index`` the leftover
    self-paired odd direction, or None.
    """

    __slots__ = ()


def build_chi(data: LieSuperData, grading: GradingData, alt: bool = False) -> ChiData:
    """Pair degree -1 directions against the character and pick a Lagrangian.

    The pairing is <x, y> = chi([x, y]).  Basis vectors of degree -1 are
    scanned in index order (reversed when ``alt``) and greedily collected into
    an isotropic family; whatever stays unpaired must be a single odd
    self-paired direction, which becomes the theta generator.
    """
    n = data.dim
    # chi(x_i) = (e, x_i), over triple_den * form_den
    nums = [0] * n
    for a, x in data.triple[0]:
        for k, f in data.form[a]:
            nums[k] += x * f
    den = data.triple_den * data.form_den
    g = gcd(den, *nums)
    chi, den = tuple(v // g for v in nums), den // g
    for i in range(n):
        if chi[i] and data.parities[i] == ODD:
            raise AlgebraError("%s: character does not vanish on odd directions" % data.name)
        if chi[i] and grading.grades[i] != -2:
            raise AlgebraError(
                "%s: character supported outside degree -2 (at %s)"
                % (data.name, data.names[i])
            )

    g1 = tuple(i for i in range(n) if grading.grades[i] == -1)

    def pair(i, j):
        # chi([x_i, x_j]) times den * chi's denominator: only its zeros and
        # the rank it gives are read
        return sum(c * chi[k] for k, c in data.bracket(i, j))

    gram = {(i, j): pair(i, j) for i in g1 for j in g1}
    if len(Echelon({j: gram[(i, j)] for j in g1} for i in g1)) != len(g1):
        raise AlgebraError(
            "%s: chi-pairing on the degree -1 space is degenerate" % data.name
        )

    order = tuple(reversed(g1)) if alt else g1
    chosen = []
    for i in order:
        if gram[(i, i)]:
            continue
        if any(gram[(i, c)] for c in chosen):
            continue
        chosen.append(i)
    chosen.sort()

    partnered = set(chosen)
    for j in g1:
        if j in partnered:
            continue
        if any(gram[(j, c)] for c in chosen):
            partnered.add(j)
    leftover = [j for j in g1 if j not in partnered]

    theta = None
    if leftover:
        if len(leftover) > 1:
            raise AlgebraError(
                "%s: cannot split the degree -1 space with basis-aligned choices"
                % data.name
            )
        j = leftover[0]
        if data.parities[j] != ODD or not gram[(j, j)]:
            raise AlgebraError(
                "%s: leftover degree -1 direction %s is not odd self-paired"
                % (data.name, data.names[j])
            )
        theta = j

    m = sorted([i for i in range(n) if grading.grades[i] <= -2] + chosen)
    return ChiData(chi, den, g1, tuple(chosen), tuple(m), theta)
