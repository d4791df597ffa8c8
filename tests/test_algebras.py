"""Catalog loading, structure validation, gradings and the shift character."""

import copy
import json
import random
import re
from fractions import Fraction
from importlib import resources

import pytest

from superw import algebras
from superw.algebras import (
    BUNDLED,
    AlgebraError,
    _basis_vec,
    _from_json,
    build_chi,
    catalog_names,
    dynkin_grading,
    load_algebra,
)
from superw.linalg import nullspace, rref
from superw.supercore import EVEN, ODD
from test_supermatrix import E12_CASES, E12_TRIPLE, centralizer_signature, gl_json

SL2 = {
    "name": "sl2x",
    "basis": [
        {"name": "e", "parity": 0},
        {"name": "h", "parity": 0},
        {"name": "f", "parity": 0},
    ],
    "brackets": [
        {"i": 0, "j": 1, "coeffs": ["-2", "0", "0"]},
        {"i": 0, "j": 2, "coeffs": ["0", "1", "0"]},
        {"i": 1, "j": 2, "coeffs": ["0", "0", "-2"]},
    ],
    "form": [
        ["0", "0", "1"],
        ["0", "2", "0"],
        ["1", "0", "0"],
    ],
    "sl2_triple": {
        "e": ["1", "0", "0"],
        "h": ["0", "1", "0"],
        "f": ["0", "0", "1"],
    },
}


# -- the dense validation, kept verbatim as an oracle ----------------------
#
# ``algebras._validate`` checks Jacobi and invariance through sparse
# structure constants.  This is the dense version it replaced, which builds
# full coefficient vectors for every basis triple.


def _dense_validate(data):
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

    # graded Jacobi on all basis triples
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                s1 = -1 if (par[i] and par[k]) else 1
                s2 = -1 if (par[j] and par[i]) else 1
                s3 = -1 if (par[k] and par[j]) else 1
                t1 = data.bracket_vec(_basis_vec(n, i), data.pair_bracket(j, k))
                t2 = data.bracket_vec(_basis_vec(n, j), data.pair_bracket(k, i))
                t3 = data.bracket_vec(_basis_vec(n, k), data.pair_bracket(i, j))
                tot = [s1 * a + s2 * b + s3 * c for a, b, c in zip(t1, t2, t3)]
                if any(tot):
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
    rows = [list(r) for r in F]
    _, piv = rref(rows)
    if len(piv) != n:
        raise AlgebraError("%s: form is degenerate (rank %d < %d)" % (data.name, len(piv), n))

    # invariance ([x,y], z) = (x, [y,z]) on basis triples
    for i in range(n):
        for j in range(n):
            bij = data.pair_bracket(i, j)
            for k in range(n):
                lhs = data.form_value(bij, _basis_vec(n, k))
                rhs = data.form_value(_basis_vec(n, i), data.pair_bracket(j, k))
                if lhs != rhs:
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


def _both_validators(verdicts):
    """A stand-in for ``algebras._validate`` that runs the dense oracle and
    the real validator, requires the same verdict and message from both,
    appends that verdict (None when the algebra is valid) to ``verdicts`` and
    then acts like the real validator."""
    real = algebras._validate

    def validate(data):
        got = []
        for check in (_dense_validate, real):
            try:
                check(data)
                got.append(None)
            except AlgebraError as exc:
                got.append(str(exc))
        assert got[0] == got[1], data.name
        verdicts.append(got[1])
        if got[1] is not None:
            raise AlgebraError(got[1])

    return validate


def write_json(tmp_path, payload, fname="alg.json"):
    p = tmp_path / fname
    p.write_text(json.dumps(payload))
    return str(p)


def test_bundled_catalog():
    names = catalog_names()
    assert set(names) == {"sl2", "gl11", "osp12", "sl21"}
    for n in names:
        data = load_algebra(n)
        assert data.dim == len(data.names) == len(data.parities)
    assert load_algebra("sl2").dim == 3
    assert load_algebra("gl11").dim == 4
    assert load_algebra("osp12").dim == 5
    assert load_algebra("sl21").dim == 8
    # parity counts
    assert sum(load_algebra("osp12").parities) == 2
    assert sum(load_algebra("sl21").parities) == 4
    assert not load_algebra("gl11").has_triple()
    assert load_algebra("sl21").has_triple()


def test_unknown_name():
    with pytest.raises(AlgebraError, match="unknown algebra"):
        load_algebra("no_such_algebra")


def test_load_from_path(tmp_path):
    path = write_json(tmp_path, SL2)
    data = load_algebra(path)
    assert data.name == "sl2x"
    assert data.dim == 3


def test_env_catalog(tmp_path, monkeypatch):
    write_json(tmp_path, SL2, "mything.json")
    monkeypatch.setenv("SUPERW_CATALOG", str(tmp_path))
    assert catalog_names() == ("mything",)
    assert load_algebra("mything").name == "sl2x"
    with pytest.raises(AlgebraError, match="no algebra"):
        load_algebra("sl2")  # bundled names are shadowed by the override


def test_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(AlgebraError, match="not valid JSON"):
        load_algebra(str(p))
    with pytest.raises(AlgebraError, match="cannot read"):
        load_algebra(str(tmp_path / "missing.json"))
    with pytest.raises(AlgebraError, match="missing required field"):
        load_algebra(write_json(tmp_path, {"name": "x"}))


def test_missing_basis_parity_rejected(tmp_path):
    bad = copy.deepcopy(SL2)
    del bad["basis"][1]["parity"]
    with pytest.raises(AlgebraError, match="basis entry 1 missing required field 'parity'"):
        load_algebra(write_json(tmp_path, bad))


def test_missing_triple_field_rejected(tmp_path):
    bad = copy.deepcopy(SL2)
    del bad["sl2_triple"]["h"]
    with pytest.raises(AlgebraError, match="sl2_triple missing required field 'h'"):
        load_algebra(write_json(tmp_path, bad))


def test_missing_entry_fields_rejected(tmp_path):
    for section, k, key in (("basis", 0, "name"), ("brackets", 2, "i"),
                            ("brackets", 0, "j"), ("brackets", 1, "coeffs")):
        bad = copy.deepcopy(SL2)
        del bad[section][k][key]
        with pytest.raises(AlgebraError, match="missing required field '%s'" % key):
            load_algebra(write_json(tmp_path, bad))


def test_mistyped_fields_rejected(tmp_path):
    cases = (
        (("basis", 1, "parity"), "a", "basis entry 1 field 'parity' must be an integer"),
        (("basis", 0, "parity"), [0], "basis entry 0 field 'parity' must be an integer"),
        (("brackets", 0, "i"), "x", "bracket entry 0 field 'i' must be an integer"),
        (("brackets", 2, "j"), None, "bracket entry 2 field 'j' must be an integer"),
        (("basis", 0, "parity"), 0.5, "basis entry 0 field 'parity' must be an integer"),
        (("basis", 2, "parity"), True, "basis entry 2 field 'parity' must be an integer"),
        (("brackets", 0, "i"), 0.7, "bracket entry 0 field 'i' must be an integer"),
        (("brackets", 1, "j"), True, "bracket entry 1 field 'j' must be an integer"),
        (("brackets", 1, "coeffs"), ["0", "one", "0"],
         "bracket entry 1 field 'coeffs': rational entries must be strings or "
         "integers, got 'one'"),
        (("brackets", 1, "coeffs"), ["0", "1/0", "0"],
         "bracket entry 1 field 'coeffs': rational entries"),
        (("brackets", 1, "coeffs"), [0, True, 0],
         "bracket entry 1 field 'coeffs': rational entries"),
        (("form", 1, 2), "nan", "form row 1: rational entries must be strings or "
         "integers, got 'nan'"),
        (("sl2_triple", "h", 1), 0.5, "sl2_triple field 'h': rational entries must "
         "be strings or integers, got 0.5"),
    )
    for (section, k, key), value, message in cases:
        bad = copy.deepcopy(SL2)
        bad[section][k][key] = value
        with pytest.raises(AlgebraError, match=re.escape(message)):
            load_algebra(write_json(tmp_path, bad))


def test_jacobi_violation_rejected(tmp_path):
    bad = copy.deepcopy(SL2)
    bad["brackets"][0]["coeffs"] = ["-1", "0", "0"]  # [e,h] = -e breaks Jacobi
    path = write_json(tmp_path, bad)
    with pytest.raises(AlgebraError, match="Jacobi"):
        load_algebra(path)


def test_parity_violation_rejected(tmp_path):
    bad = copy.deepcopy(SL2)
    bad["basis"][1]["parity"] = 1  # h odd makes [e,h] parity-inconsistent
    path = write_json(tmp_path, bad)
    with pytest.raises(AlgebraError, match="parity"):
        load_algebra(path)


def test_form_validation(tmp_path):
    degenerate = copy.deepcopy(SL2)
    degenerate["form"] = [["0"] * 3 for _ in range(3)]
    with pytest.raises(AlgebraError, match="degenerate"):
        load_algebra(write_json(tmp_path, degenerate, "a.json"))

    asym = copy.deepcopy(SL2)
    asym["form"][0][2] = "1"
    asym["form"][2][0] = "-1"
    with pytest.raises(AlgebraError, match="symmetry"):
        load_algebra(write_json(tmp_path, asym, "b.json"))

    noninv = copy.deepcopy(SL2)
    noninv["form"] = [
        ["0", "0", "1"],
        ["0", "1", "0"],  # (h,h) = 1 breaks ([e,f],h) = (e,[f,h])
        ["1", "0", "0"],
    ]
    with pytest.raises(AlgebraError, match="invariance"):
        load_algebra(write_json(tmp_path, noninv, "c.json"))


def test_triple_validation(tmp_path):
    bad = copy.deepcopy(SL2)
    bad["sl2_triple"]["e"] = ["0", "1", "0"]  # h in place of e
    with pytest.raises(AlgebraError, match="triple"):
        load_algebra(write_json(tmp_path, bad))


def test_duplicate_bracket_rejected(tmp_path):
    bad = copy.deepcopy(SL2)
    bad["brackets"].append({"i": 0, "j": 1, "coeffs": ["-2", "0", "0"]})
    with pytest.raises(AlgebraError, match="duplicate"):
        load_algebra(write_json(tmp_path, bad))


def test_grading_sl2():
    data = load_algebra("sl2")
    g = dynkin_grading(data)
    assert g.grades == (2, 0, -2)
    assert g.weights == (4, 2, 0)
    assert g.ge_weight_signature() == ((4, 0),)


def test_grading_osp12():
    data = load_algebra("osp12")
    g = dynkin_grading(data)
    assert g.grades == (2, 0, 1, -1, -2)
    # centralizer of e: e itself and the positive odd root vector
    assert g.ge_weight_signature() == ((3, 1), (4, 0))


def test_grading_sl21():
    data = load_algebra("sl21")
    g = dynkin_grading(data)
    assert g.grades == (2, 0, 0, -2, 1, -1, -1, 1)
    sig = g.ge_weight_signature()
    assert sig == ((2, 0), (3, 1), (3, 1), (4, 0))


def test_grading_trivial_for_zero_triple():
    data = load_algebra("gl11")
    g = dynkin_grading(data)
    assert g.grades == (0,) * 4
    assert g.weights == (2,) * 4
    assert len(g.ge_basis) == 4


# gl(m|n) with e = E12: the Jordan blocks (size, parity) of e
E12_BLOCKS = [(m, n, blocks) for m, n, blocks, _ in E12_CASES] + [
    (3, 2, [(2, 0), (1, 0), (1, 1), (1, 1)]),
    (3, 3, [(2, 0), (1, 0), (1, 1), (1, 1), (1, 1)]),
]


@pytest.mark.parametrize("m, n, blocks", E12_BLOCKS,
                         ids=["gl%d%d" % (m, n) for m, n, _ in E12_BLOCKS])
def test_centralizer_signature_matches_the_jordan_blocks(m, n, blocks):
    even, odd, _ = centralizer_signature(blocks)
    want = tuple(sorted([(w, EVEN) for w in even] + [(w, ODD) for w in odd]))
    g = dynkin_grading(_from_json(gl_json(m, n, E12_TRIPLE)))
    assert g.ge_weight_signature() == want


def _nullspace_signature(data, grades):
    """(weight, parity) of each kernel vector of the dense ad e matrix from
    grade g to grade g + 2, grade by grade, each vector of one parity."""
    n, ev = data.dim, data.triple[0]
    sig = []
    for g in sorted(set(grades)):
        src = [i for i in range(n) if grades[i] == g]
        dst = [i for i in range(n) if grades[i] == g + 2]
        images = [data.bracket_vec(ev, _basis_vec(n, i)) for i in src]
        for ker in nullspace([[img[j] for img in images] for j in dst], len(src)):
            parities = {data.parities[i] for i, c in zip(src, ker) if c}
            assert len(parities) == 1
            sig.append((g + 2, parities.pop()))
    return tuple(sorted(sig))


@pytest.mark.parametrize("name", BUNDLED)
def test_centralizer_signature_matches_a_nullspace_per_grade(name):
    data = load_algebra(name)
    g = dynkin_grading(data)
    assert g.ge_weight_signature() == _nullspace_signature(data, g.grades)


def test_chi_sl2():
    data = load_algebra("sl2")
    g = dynkin_grading(data)
    chi = build_chi(data, g)
    assert chi.chi == (0, 0, 1)
    assert chi.g1_indices == ()
    assert chi.m_indices == (2,)
    assert chi.theta_index is None


def test_chi_osp12():
    data = load_algebra("osp12")
    g = dynkin_grading(data)
    chi = build_chi(data, g)
    # degree -1 is one-dimensional and odd: it survives as theta
    assert chi.g1_indices == (3,)
    assert chi.l_indices == ()
    assert chi.theta_index == 3
    assert chi.m_indices == (4,)
    assert chi.chi[4] != 0


def test_chi_sl21_and_alt():
    data = load_algebra("sl21")
    g = dynkin_grading(data)
    chi = build_chi(data, g)
    alt = build_chi(data, g, alt=True)
    assert chi.theta_index is None and alt.theta_index is None
    assert len(chi.g1_indices) == 2
    assert len(chi.l_indices) == len(alt.l_indices) == 1
    assert chi.l_indices != alt.l_indices
    assert len(chi.m_indices) == len(alt.m_indices) == 2


def test_pair_bracket_swap_sign():
    data = load_algebra("sl21")
    for i in range(data.dim):
        for j in range(data.dim):
            sgn = -1 if (data.parities[i] and data.parities[j]) else 1
            lhs = data.pair_bracket(i, j)
            rhs = tuple(-sgn * c for c in data.pair_bracket(j, i))
            assert lhs == rhs


# -- seeded loader fuzzing ---------------------------------------------


def _bundled_raw(name):
    return json.loads(resources.files("superw").joinpath(
        "catalog", name + ".json").read_text(encoding="utf-8"))


def _slots(doc, path=()):
    """The key path of every value below doc, in document order."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _slots(value, path + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


RETYPES = (0, 1, -1, 2.5, True, None, "x", "1/2", "", [], ["0"], {}, {"i": 0})
RATIONAL_NOISE = ("1/0", "one", "", " 2 ", "3/-4", "1e3", "nan", "0x10", "½")


def _relabel(raw, perm):
    """raw with basis vector k renamed perm[k]: the same algebra."""
    n = len(raw["basis"])
    par = [b["parity"] for b in raw["basis"]]
    out = copy.deepcopy(raw)

    def vec(v):
        w = [None] * n
        for k, c in enumerate(v):
            w[perm[k]] = c
        return w

    out["basis"] = vec(raw["basis"])
    out["brackets"] = []
    for ent in raw["brackets"]:
        i, j, coeffs = perm[ent["i"]], perm[ent["j"]], vec(ent["coeffs"])
        if i > j:
            # [x_j, x_i] = -(-1)^(|i||j|) [x_i, x_j]
            sgn = 1 if par[ent["i"]] and par[ent["j"]] else -1
            i, j = j, i
            coeffs = [str(sgn * Fraction(c)) for c in coeffs]
        out["brackets"].append({"i": i, "j": j, "coeffs": coeffs})
    out["form"] = vec([vec(row) for row in raw["form"]])
    if raw.get("sl2_triple"):
        out["sl2_triple"] = {w: vec(v) for w, v in raw["sl2_triple"].items()}
    return out


def _mutants(raw, rng):
    """Seeded (label, mutant) pairs for one catalog document; a mutant is a
    document or, for byte-level damage, the bytes of one."""
    text = json.dumps(raw).encode("utf-8")
    for _ in range(25):
        doc = copy.deepcopy(raw)
        path = rng.choice(list(_slots(doc)))
        del _parent(doc, path)[path[-1]]
        yield "drop %r" % (path,), doc
        doc = copy.deepcopy(raw)
        path = rng.choice(list(_slots(doc)))
        value = rng.choice(RETYPES)
        _parent(doc, path)[path[-1]] = value
        yield "retype %r to %r" % (path, value), doc
        doc = copy.deepcopy(raw)
        path = rng.choice([p for p in _slots(doc)
                           if isinstance(_parent(doc, p)[p[-1]], str)
                           and p[-1] != "name"])
        old = _parent(doc, path)[path[-1]]
        if rng.random() < 0.5:
            new = str(Fraction(old) + Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        else:
            new = rng.choice(RATIONAL_NOISE)
        _parent(doc, path)[path[-1]] = new
        yield "perturb %r from %r to %r" % (path, old, new), doc
        doc = copy.deepcopy(raw)
        rng.shuffle(doc["basis"])
        yield "shuffle the basis alone", doc
        cut = rng.randrange(len(text))
        yield "truncate at byte %d" % cut, text[:cut]
        at = rng.randrange(len(text) + 1)
        junk = rng.choice((b"\xff", b"\xc3\x28", b"\x80\x80", b"\xfe\xff"))
        yield "insert %r at byte %d" % (junk, at), text[:at] + junk + text[at:]


@pytest.mark.parametrize("name", BUNDLED)
def test_loader_fuzz_loads_or_raises_algebra_error(tmp_path, monkeypatch, name):
    # every mutant that reaches validation is judged by the dense oracle too
    verdicts = []
    monkeypatch.setattr(algebras, "_validate", _both_validators(verdicts))
    raw = _bundled_raw(name)
    rng = random.Random(name)
    path = tmp_path / "mutant.json"
    outcomes = set()
    for label, mutant in _mutants(raw, rng):
        path.write_bytes(mutant if isinstance(mutant, bytes)
                         else json.dumps(mutant).encode("utf-8"))
        try:
            load_algebra(str(path))
            outcomes.add("loaded")
        except AlgebraError as exc:
            assert str(exc), label
            outcomes.add("rejected")
    assert outcomes == {"loaded", "rejected"}
    # a consistent relabelling of the basis is the same algebra
    for _ in range(3):
        perm = list(range(len(raw["basis"])))
        rng.shuffle(perm)
        path.write_text(json.dumps(_relabel(raw, perm)))
        data = load_algebra(str(path))
        assert sorted(data.names) == sorted(b["name"] for b in raw["basis"])
        assert sorted(data.parities) == sorted(b["parity"] for b in raw["basis"])
    assert None in verdicts and any(verdicts)


def _sl2_pair():
    """sl2 + sl2, the second copy on basis indices 3, 4, 5: its brackets
    take part only in the late basis triples."""
    def shift(vec, at):
        out = ["0"] * 6
        out[at:at + 3] = vec
        return out

    doc = {"name": "sl2pair", "basis": [], "brackets": [], "form": []}
    for at, tag in ((0, ""), (3, "2")):
        doc["basis"] += [{"name": b["name"] + tag, "parity": 0} for b in SL2["basis"]]
        doc["brackets"] += [{"i": b["i"] + at, "j": b["j"] + at,
                             "coeffs": shift(b["coeffs"], at)} for b in SL2["brackets"]]
        doc["form"] += [shift(row, at) for row in SL2["form"]]
    doc["sl2_triple"] = {w: shift(v, 0) for w, v in SL2["sl2_triple"].items()}
    return doc


def _late_jacobi_fault():
    doc = _sl2_pair()
    # [h2, f2] = -3 f2: Jacobi fails on (e2, h2, f2) and on no earlier triple
    doc["brackets"][5]["coeffs"][5] = "-3"
    return doc


def _odd_square_fault():
    doc = _bundled_raw("osp12")
    # [xm, xm] doubled: the first triple to fail repeats an odd index
    entry = next(b for b in doc["brackets"] if b["i"] == b["j"] == 3)
    entry["coeffs"] = [str(2 * Fraction(c)) for c in entry["coeffs"]]
    return doc


def _invariance_fault():
    doc = copy.deepcopy(SL2)
    doc["form"][1][1] = "3"  # still symmetric and nondegenerate
    return doc


GL31_PRINCIPAL = {"e": {(0, 1): 1, (1, 2): 1}, "h": {(0, 0): 2, (2, 2): -2},
                  "f": {(1, 0): 2, (2, 1): 2}}


@pytest.mark.parametrize("doc, want", [
    (_sl2_pair(), None),
    (_late_jacobi_fault(), "sl2pair: Jacobi identity violated on (e2, h2, f2)"),
    (_odd_square_fault(), "osp12: Jacobi identity violated on (e, xm, xm)"),
    (_invariance_fault(), "sl2x: form invariance violated on (e, f, h)"),
] + [(gl_json(m, n, E12_TRIPLE), None) for m, n, _, _ in E12_CASES] + [
    (gl_json(3, 1, GL31_PRINCIPAL), None),
], ids=["sl2pair", "late-jacobi", "odd-square", "invariance", "gl21", "gl22", "gl31",
        "gl31-principal"])
def test_sparse_validation_matches_dense_oracle(monkeypatch, doc, want):
    verdicts = []
    monkeypatch.setattr(algebras, "_validate", _both_validators(verdicts))
    if want is None:
        assert _from_json(doc).dim == len(doc["basis"])
    else:
        with pytest.raises(AlgebraError) as exc:
            _from_json(doc)
        assert str(exc.value) == want
    assert verdicts == [want]
