"""Catalog loading, structure validation, gradings and the shift character."""

import copy
import json
import re

import pytest

from superw.algebras import (
    AlgebraError,
    build_chi,
    catalog_names,
    dynkin_grading,
    load_algebra,
)
from superw.supercore import EVEN, ODD

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
        (("brackets", 1, "coeffs"), ["0", "one", "0"], "rational entries"),
        (("brackets", 1, "coeffs"), ["0", "1/0", "0"], "rational entries"),
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
    assert g.good
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
