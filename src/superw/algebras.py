"""Catalog of finite-dimensional Lie superalgebras with invariant forms.

Input files are JSON: a basis with parities, structure constants for the
upper triangle of the bracket, an invariant bilinear form, and optionally a
distinguished sl2-triple.  Everything is validated on load -- antisymmetry
conventions, the graded Jacobi identity, form invariance and nondegeneracy --
so the downstream machinery can assume a genuine Lie superalgebra.

From a validated algebra we derive the eigenvalue grading of the triple's
semisimple element, the centralizer of its nilpotent element, the character
built from the form, and a basis-aligned Lagrangian inside the degree -1
subspace.  Those four ingredients are all the slice construction needs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

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
]

BUNDLED = ("sl2", "gl11", "osp12", "sl21")
HBAR = "hb"  # the name of the hbar variable, so no basis vector may take it


class AlgebraError(ValueError):
    """A catalog file failed validation, with the violated law in the message."""


def _rat(x):
    if isinstance(x, str) or type(x) is int:  # bool is an int subclass
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise AlgebraError("rational entries must be strings or integers, got %r" % (x,))


@dataclass(frozen=True)
class LieSuperData:
    """A validated Lie superalgebra with an even invariant form."""

    name: str
    names: tuple
    parities: tuple
    table: dict  # (i, j) with i <= j  ->  tuple of Fractions
    form: tuple  # tuple of tuples of Fractions
    triple: tuple  # (e, h, f) coefficient vectors; all-zero means "no triple"

    @property
    def dim(self):
        return len(self.names)

    def zero_vec(self):
        return (Fraction(0),) * self.dim

    def pair_bracket(self, i, j):
        """[x_i, x_j] as a coefficient vector, any index order."""
        if i <= j:
            row = self.table.get((i, j))
            if row is None:
                return self.zero_vec()
            return row
        row = self.table.get((j, i))
        if row is None:
            return self.zero_vec()
        sgn = -1 if (self.parities[i] and self.parities[j]) else 1
        # [x_i, x_j] = -(-1)^{|i||j|} [x_j, x_i]
        return tuple(-sgn * c for c in row)

    def bracket_vec(self, u, v):
        """Bracket of two coefficient vectors, extended bilinearly."""
        out = [Fraction(0)] * self.dim
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in enumerate(v):
                if not b:
                    continue
                for k, c in enumerate(self.pair_bracket(i, j)):
                    if c:
                        out[k] += a * b * c
        return tuple(out)

    def form_value(self, u, v):
        tot = Fraction(0)
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in enumerate(v):
                if b and self.form[i][j]:
                    tot += a * b * self.form[i][j]
        return tot

    def has_triple(self):
        return any(any(c for c in vec) for vec in self.triple)


def _basis_vec(n, i):
    return tuple(Fraction(1) if k == i else Fraction(0) for k in range(n))


def _sparse_brackets(data):
    """[x_i, x_j] for every ordered pair, as ad[i][j] = [(k, c), ...] over
    its nonzero coefficients."""
    n = data.dim
    return [[[(k, c) for k, c in enumerate(data.pair_bracket(i, j)) if c]
             for j in range(n)] for i in range(n)]


def _validate(data: LieSuperData):
    n = data.dim
    par = data.parities

    for (i, j), row in data.table.items():
        if len(row) != n:
            raise AlgebraError(
                "%s: bracket (%d,%d) has %d coefficients for a %d-dimensional algebra"
                % (data.name, i, j, len(row), n)
            )
        want = (par[i] + par[j]) % 2
        for k, c in enumerate(row):
            if c and par[k] != want:
                raise AlgebraError(
                    "%s: parity violated in [%s,%s]: component %s has parity %d, expected %d"
                    % (data.name, data.names[i], data.names[j], data.names[k], par[k], want)
                )
        if i == j and par[i] == EVEN and any(row):
            raise AlgebraError(
                "%s: super-antisymmetry violated: [%s,%s] must vanish for even %s"
                % (data.name, data.names[i], data.names[i], data.names[i])
            )

    # graded Jacobi on all basis triples, through sparse structure constants
    ad = _sparse_brackets(data)
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                s1 = -1 if (par[i] and par[k]) else 1
                s2 = -1 if (par[j] and par[i]) else 1
                s3 = -1 if (par[k] and par[j]) else 1
                tot = {}
                for s, a, inner in ((s1, i, ad[j][k]), (s2, j, ad[k][i]),
                                    (s3, k, ad[i][j])):
                    outer = ad[a]
                    for m, c in inner:
                        for t, d in outer[m]:
                            tot[t] = tot.get(t, 0) + s * c * d
                if any(tot.values()):
                    raise AlgebraError(
                        "%s: Jacobi identity violated on (%s, %s, %s)"
                        % (data.name, data.names[i], data.names[j], data.names[k])
                    )

    F = data.form
    if len(F) != n or any(len(r) != n for r in F):
        raise AlgebraError("%s: form must be a %d x %d matrix" % (data.name, n, n))
    for i in range(n):
        for j in range(n):
            if par[i] != par[j] and F[i][j]:
                raise AlgebraError(
                    "%s: form is not even: (%s, %s) != 0 across parities"
                    % (data.name, data.names[i], data.names[j])
                )
            sgn = -1 if (par[i] and par[j]) else 1
            if F[j][i] != sgn * F[i][j]:
                raise AlgebraError(
                    "%s: form symmetry violated at (%s, %s)"
                    % (data.name, data.names[i], data.names[j])
                )
    rank = len(Echelon(dict(enumerate(row)) for row in F))
    if rank != n:
        raise AlgebraError("%s: form is degenerate (rank %d < %d)" % (data.name, rank, n))

    # invariance ([x,y], z) = (x, [y,z]) on basis triples
    form_rows = [[(k, f) for k, f in enumerate(row) if f] for row in F]
    for i in range(n):
        Fi = F[i]
        for j in range(n):
            lhs = {}
            for m, c in ad[i][j]:
                for k, f in form_rows[m]:
                    lhs[k] = lhs.get(k, 0) + c * f
            adj = ad[j]
            for k in range(n):
                if lhs.get(k, 0) != sum(Fi[m] * c for m, c in adj[k]):
                    raise AlgebraError(
                        "%s: form invariance violated on (%s, %s, %s)"
                        % (data.name, data.names[i], data.names[j], data.names[k])
                    )

    ev, hv, fv = data.triple
    for vec, which in ((ev, "e"), (hv, "h"), (fv, "f")):
        if len(vec) != n:
            raise AlgebraError("%s: triple vector %s has wrong length" % (data.name, which))
        for k, c in enumerate(vec):
            if c and par[k] != EVEN:
                raise AlgebraError(
                    "%s: triple vector %s has an odd component" % (data.name, which)
                )
    if data.has_triple():
        if data.bracket_vec(ev, fv) != hv:
            raise AlgebraError("%s: triple relation [e,f] = h fails" % data.name)
        if data.bracket_vec(hv, ev) != tuple(2 * c for c in ev):
            raise AlgebraError("%s: triple relation [h,e] = 2e fails" % data.name)
        if data.bracket_vec(hv, fv) != tuple(-2 * c for c in fv):
            raise AlgebraError("%s: triple relation [h,f] = -2f fails" % data.name)


def _catalog_dir():
    env = os.environ.get("SUPERW_CATALOG")
    if env:
        return env
    return None


def catalog_names():
    """Names resolvable without a path, honoring the SUPERW_CATALOG override.

    An override naming a directory that cannot be listed or holds no
    ``.json`` file raises AlgebraError naming the directory.
    """
    env = _catalog_dir()
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
        env = _catalog_dir()
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
            ref = resources.files("superw").joinpath("catalog", spec + ".json")
            raw = json.loads(ref.read_text(encoding="utf-8"))
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

    table = {}
    for k, ent in enumerate(brackets):
        where = "%s: bracket entry %d" % (name, k)
        i, j = _int_field(ent, "i", where), _int_field(ent, "j", where)
        if not (0 <= i < n and 0 <= j < n):
            raise AlgebraError("%s: bracket indices (%d,%d) out of range" % (name, i, j))
        if i > j:
            raise AlgebraError(
                "%s: store brackets with i <= j (got %d > %d)" % (name, i, j)
            )
        if (i, j) in table:
            raise AlgebraError("%s: duplicate bracket entry (%d,%d)" % (name, i, j))
        coeffs = _array(_field(ent, "coeffs", where), "%s field 'coeffs'" % where)
        table[(i, j)] = tuple(_rat(c) for c in coeffs)

    fm = tuple(tuple(_rat(c) for c in _array(row, "%s: form row %d" % (name, k)))
               for k, row in enumerate(form))

    zero = (Fraction(0),) * n
    if "sl2_triple" in raw and raw["sl2_triple"] is not None:
        t = raw["sl2_triple"]
        where = "%s: sl2_triple" % name
        triple = tuple(
            tuple(_rat(c) for c in _array(_field(t, w, where),
                                          "%s field %r" % (where, w)))
            for w in ("e", "h", "f"))
    else:
        triple = (zero, zero, zero)

    data = LieSuperData(name, names, parities, table, fm, triple)
    _validate(data)
    return data


@dataclass(frozen=True)
class GradingData:
    """Eigenvalue grading of ad(h) together with the centralizer of e."""

    grades: tuple  # int per basis vector
    weights: tuple  # grade + 2, the filtration weight per basis vector
    ge_basis: tuple  # (grade, parity) per centralizer direction

    def ge_weight_signature(self):
        """Sorted (weight, parity) pairs of the centralizer basis."""
        return tuple(sorted((g + 2, p) for g, p in self.ge_basis))


def dynkin_grading(data: LieSuperData) -> GradingData:
    """Grade the basis by ad(h) eigenvalues and certify the triple is good.

    The catalog stores bases of ad(h) eigenvectors, so the grading is read off
    diagonally; anything else is rejected.  A zero triple is allowed and gives
    the trivial grading with every direction central.
    """
    n = data.dim
    ev, hv, fv = data.triple

    if not data.has_triple():
        grades = (0,) * n
        ge = tuple((0, p) for p in data.parities)
        return GradingData(grades, tuple(g + 2 for g in grades), ge)

    grades = []
    for i in range(n):
        img = data.bracket_vec(hv, _basis_vec(n, i))
        lam = img[i]
        probe = tuple(lam * c for c in _basis_vec(n, i))
        if img != probe:
            raise AlgebraError(
                "%s: basis vector %s is not an ad(h) eigenvector"
                % (data.name, data.names[i])
            )
        if lam.denominator != 1:
            raise AlgebraError(
                "%s: ad(h) eigenvalue %s on %s is not an integer"
                % (data.name, lam, data.names[i])
            )
        grades.append(int(lam))
    grades = tuple(grades)

    # bracket respects the grading
    for (i, j), row in data.table.items():
        for k, c in enumerate(row):
            if c and grades[k] != grades[i] + grades[j]:
                raise AlgebraError(
                    "%s: grading violated: [%s,%s] meets %s"
                    % (data.name, data.names[i], data.names[j], data.names[k])
                )

    for i, c in enumerate(ev):
        if c and grades[i] != 2:
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
            r = len(Echelon(dict(enumerate(data.bracket_vec(ev, _basis_vec(n, i))))
                            for i in block))
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


@dataclass(frozen=True)
class ChiData:
    """The character chi = (e, .), a Lagrangian in degree -1, and the shift space."""

    chi: tuple  # Fraction per basis vector
    g1_indices: tuple  # basis indices in degree -1
    l_indices: tuple  # chosen isotropic subset of g1_indices
    m_indices: tuple  # degree <= -2 indices plus l_indices, ascending
    theta_index: int | None  # leftover self-paired odd direction, if any


def build_chi(data: LieSuperData, grading: GradingData, alt: bool = False) -> ChiData:
    """Pair degree -1 directions against the character and pick a Lagrangian.

    The pairing is <x, y> = chi([x, y]).  Basis vectors of degree -1 are
    scanned in index order (reversed when ``alt``) and greedily collected into
    an isotropic family; whatever stays unpaired must be a single odd
    self-paired direction, which becomes the theta generator.
    """
    n = data.dim
    ev = data.triple[0]
    chi = tuple(data.form_value(ev, _basis_vec(n, i)) for i in range(n))
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
        return sum(
            (c * chi[k] for k, c in enumerate(data.pair_bracket(i, j)) if c),
            Fraction(0),
        )

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
    return ChiData(chi, g1, tuple(chosen), tuple(m), theta)
