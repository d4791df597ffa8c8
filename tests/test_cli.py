"""Command-line interface: exit codes, determinism, truncation stability."""
import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from superw import cli, suite, wslice
from superw.algebras import load_algebra
from superw.cli import build_report, main
from superw.darboux import Chart, DarbouxError, equivariant_darboux
from superw.poisson import PoissonAlgebra
from superw.starprod import QuantumChart, StarAlgebra
from superw.wslice import slice_setup
from truncation import truncate_report

CATALOG_SL2 = {
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


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_check_sl2_report(capsys):
    code, out = run_main(capsys, "check", "--algebra", "sl2")
    assert code == 0
    rep = json.loads(out)
    assert rep["kind"] == "check"
    assert rep["dim"] == 3
    assert rep["grades"] == {"e": 2, "h": 0, "f": -2}
    assert rep["weights"] == {"e": 4, "h": 2, "f": 0}
    assert rep["chi"] == {"f": "1"}
    assert rep["centralizer_signature"] == [[4, 0]]
    assert rep["shift_directions"] == ["f"]
    assert rep["ok"] is True
    assert out.endswith("\n")


def test_check_all_bundled(capsys):
    for name in ("sl2", "gl11", "osp12", "sl21"):
        code, out = run_main(capsys, "check", "--algebra", name)
        assert code == 0, name
        assert json.loads(out)["ok"] is True, name


def test_unknown_algebra_fails_with_error_json(capsys):
    code, out = run_main(capsys, "check", "--algebra", "nope")
    assert code == 1
    rep = json.loads(out)
    assert rep["ok"] is False
    assert "nope" in rep["error"]


def test_usage_errors_exit_two(tmp_path, capsys):
    for argv in (
        [],
        ["walgebra", "--algebra", "sl2"],  # --order is required
        ["walgebra", "--algebra", "sl2", "--order", "2", "--method", "bogus"],
        ["walgebra", "--algebra", "sl21", "--order", "-1"],
        ["darboux", "--algebra", "sl2", "--order", "-1"],
        ["suite", "--order", "-1"],
        ["walgebra", "--algebra", "sl2", "--order", "2", "--guard", "-1"],
        ["darboux", "--algebra", "sl2", "--order", "2", "--guard", "-3"],
        ["darboux", "--algebra", "sl2", "--order", "2", "--guard", "0"],
        ["darboux", "--algebra", "sl21", "--order", "2", "--guard", "1"],
        ["walgebra", "--algebra", "sl2", "--order", "2", "--guard", "0"],
        ["walgebra", "--algebra", "sl21", "--order", "2", "--guard", "1"],
        ["walgebra", "--algebra", "sl2", "--order", "two"],
        # order + guard past the exponent field of a monomial
        ["darboux", "--algebra", "sl2", "--order", "3", "--guard", "99999"],
        ["walgebra", "--algebra", "sl2", "--order", "40000", "--method", "whittaker"],
        ["suite", "--order", "32764"],
        # an unwritable --out is refused before any computation
        ["check", "--algebra", "sl2", "--out", "/nonexistent/x.json"],
        ["darboux", "--algebra", "sl21", "--order", "6", "--out", str(tmp_path)],
        ["walgebra", "--algebra", "sl21", "--order", "6", "--out",
         str(tmp_path / "missing" / "x.json")],
        ["suite", "--order", "4", "--out", str(tmp_path)],
        ["check", "--algebra", "sl2", "--out", ""],
        # an option error after a good --out leaves no report file behind
        ["darboux", "--algebra", "sl2", "--out", str(tmp_path / "f.json"),
         "--order", "-1"],
        ["darboux", "--algebra", "sl2", "--order", "3", "--guard", "99999",
         "--out", str(tmp_path / "f.json")],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "usage:" in capsys.readouterr().err, argv
        assert not (tmp_path / "f.json").exists(), argv


def test_invalid_algebra_file_exits_one(tmp_path, capsys, monkeypatch):
    bad = json.loads(json.dumps(CATALOG_SL2))
    bad["brackets"][2]["coeffs"] = ["0", "0", "2"]  # breaks Jacobi
    no_parity = json.loads(json.dumps(CATALOG_SL2))
    del no_parity["basis"][0]["parity"]
    no_h = json.loads(json.dumps(CATALOG_SL2))
    del no_h["sl2_triple"]["h"]
    text_parity = json.loads(json.dumps(CATALOG_SL2))
    text_parity["basis"][0]["parity"] = "a"
    text_index = json.loads(json.dumps(CATALOG_SL2))
    text_index["brackets"][1]["i"] = "x"
    for raw in (bad, no_parity, no_h, text_parity, text_index):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        code, out = run_main(capsys, "check", "--algebra", str(path))
        assert code == 1
        assert json.loads(out)["ok"] is False
    # the error names the file, or the field that is not an array
    cases = [(json.dumps(CATALOG_SL2).encode("utf-8").replace(b'"h"', b'"\xff"'),
              "bad.json is not UTF-8 text"),
             (b"[1, 2]", "bad.json must hold a JSON object, got list")]
    for field in ("basis", "brackets", "form"):
        raw = dict(CATALOG_SL2, **{field: 3})
        cases.append((json.dumps(raw).encode("utf-8"),
                      "sl2x: %s must be an array, got int" % field))
    raw = json.loads(json.dumps(CATALOG_SL2))
    raw["form"][1] = 2
    cases.append((json.dumps(raw).encode("utf-8"),
                  "sl2x: form row 1 must be an array, got int"))
    raw = json.loads(json.dumps(CATALOG_SL2))
    raw["brackets"][2]["coeffs"] = 0
    cases.append((json.dumps(raw).encode("utf-8"),
                  "sl2x: bracket entry 2 field 'coeffs' must be an array, got int"))
    for data, message in cases:
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        code, out = run_main(capsys, "check", "--algebra", str(path))
        assert code == 1, message
        rep = json.loads(out)
        assert rep["ok"] is False and message in rep["error"], rep
    # a basis vector may not take the name of the hbar variable
    raw = json.loads(json.dumps(CATALOG_SL2))
    raw["basis"][1]["name"] = "hb"
    path = tmp_path / "hb.json"
    path.write_text(json.dumps(raw))
    for command in ("check", "darboux", "walgebra"):
        order = () if command == "check" else ("--order", "4")
        code, out = run_main(capsys, command, "--algebra", str(path), *order)
        assert code == 1, command
        rep = json.loads(out)
        assert rep["ok"] is False
        assert rep["error"] == "sl2x: the basis name 'hb' is reserved for hbar", rep
    # a malformed file under SUPERW_CATALOG
    cat = tmp_path / "cat"
    cat.mkdir()
    (cat / "broken.json").write_text("{not json")
    monkeypatch.setenv("SUPERW_CATALOG", str(cat))
    code, out = run_main(capsys, "check", "--algebra", "broken")
    assert code == 1
    assert "broken.json is not valid JSON" in json.loads(out)["error"]


def test_irrational_self_pairing_exits_one(tmp_path, capsys):
    # doubling the form keeps it invariant, but the odd self-paired vector
    # would then need a square root of 1/2
    raw = json.loads(resources.files("superw").joinpath(
        "catalog", "osp12.json").read_text(encoding="utf-8"))
    raw["form"] = [[str(2 * Fraction(c)) for c in row] for row in raw["form"]]
    path = tmp_path / "osp12x2.json"
    path.write_text(json.dumps(raw))
    code, _ = run_main(capsys, "check", "--algebra", str(path))
    assert code == 0
    for command in ("darboux", "walgebra"):
        code, out = run_main(capsys, command, "--algebra", str(path), "--order", "2")
        assert code == 1, command
        rep = json.loads(out)
        assert rep["ok"] is False
        assert rep["error"] == "self-pairing is not a rational square"


def test_algebra_from_file_path(tmp_path, capsys):
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(CATALOG_SL2))
    code, out = run_main(capsys, "check", "--algebra", str(path))
    assert code == 0
    assert json.loads(out)["algebra"] == "sl2x"


def test_env_catalog_replaces_bundled(tmp_path, capsys, monkeypatch):
    cat = tmp_path / "cat"
    cat.mkdir()
    (cat / "mine.json").write_text(json.dumps(dict(CATALOG_SL2, name="mine")))
    monkeypatch.setenv("SUPERW_CATALOG", str(cat))
    code, out = run_main(capsys, "check", "--algebra", "mine")
    assert code == 0
    assert json.loads(out)["algebra"] == "mine"
    # the override is a replacement: bundled names no longer resolve
    code, out = run_main(capsys, "check", "--algebra", "sl2")
    assert code == 1
    monkeypatch.delenv("SUPERW_CATALOG")
    code, _ = run_main(capsys, "check", "--algebra", "sl2")
    assert code == 0


def _superw_from(cwd, *argv):
    """``python -S -m superw.cli *argv`` run in ``cwd``, so the package
    imported is the one there: no site packages, no PYTHONPATH and no
    catalog override."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "SUPERW_CATALOG")}
    return subprocess.run([sys.executable, "-S", "-m", "superw.cli", *argv], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


def test_bundled_catalog_is_read_next_to_the_package(tmp_path):
    # a copy of the package outside the checkout, as a non-editable install
    # has, reads its own catalog files
    package = Path(cli.__file__).resolve().parent
    shutil.copytree(package, tmp_path / "superw",
                    ignore=shutil.ignore_patterns("__pycache__"))
    here = _superw_from(package.parent, "check", "--algebra", "sl21")
    there = _superw_from(tmp_path, "check", "--algebra", "sl21")
    assert here.returncode == there.returncode == 0, there.stderr
    assert there.stdout == here.stdout
    # a bundled file missing from the copy is error JSON naming the file
    missing = tmp_path.resolve() / "superw" / "catalog" / "sl2.json"
    missing.unlink()
    proc = _superw_from(tmp_path, "check", "--algebra", "sl2")
    assert (proc.returncode, proc.stderr) == (1, "")
    rep = json.loads(proc.stdout)
    assert rep["ok"] is False
    assert rep["error"].startswith("cannot read algebra file %s: " % missing)


@pytest.mark.parametrize("make", ["missing", "empty"])
def test_suite_with_empty_catalog_exits_one(tmp_path, capsys, monkeypatch, make):
    cat = tmp_path / "cat"
    if make == "empty":
        cat.mkdir()
        (cat / "notes.txt").write_text("not an algebra")
    monkeypatch.setenv("SUPERW_CATALOG", str(cat))
    code, out = run_main(capsys, "suite", "--order", "0")
    assert code == 1
    rep = json.loads(out)
    assert rep["ok"] is False
    assert str(cat) in rep["error"]


def test_suite_on_a_zero_dimensional_algebra(tmp_path, capsys, monkeypatch):
    cat = tmp_path / "cat"
    cat.mkdir()
    (cat / "empty.json").write_text(json.dumps(
        {"name": "empty", "basis": [], "brackets": [], "form": []}))
    monkeypatch.setenv("SUPERW_CATALOG", str(cat))
    code, out = run_main(capsys, "suite", "--order", "2")
    assert code == 0
    rep = json.loads(out)
    assert "error" not in rep and rep["ok"] is True
    assert rep["checks"] and all(c["ok"] for c in rep["checks"])


def test_out_flag_writes_file(tmp_path, capsys):
    dest = tmp_path / "rep.json"
    code, out = run_main(capsys, "check", "--algebra", "sl2", "--out",
                         str(dest))
    assert code == 0
    assert out == ""
    text = dest.read_text()
    assert text.endswith("\n")
    assert json.loads(text)["kind"] == "check"


# SHA-256 of the darboux report (stdout, UTF-8) per case.  Reports are
# byte-identical across runs, so a changed digest means a changed chart
# coefficient.
DARBOUX_DIGESTS = {
    ("sl2", "4", False):
        "7e40dacda1eceaa7018f03d6e55318201327f51f9d2e6291b2176284c6e7ecff",
    ("gl11", "4", False):
        "ddd8c607a21cab4bf0957c7a418cef3eabd530d7a92967d7a3635832f48d22db",
    ("sl21", "4", False):
        "38d22476827679891457d7db140c2a3355b0b53f4e4d481da57bf15635871ed2",
    ("osp12", "3", False):
        "2f4e9fe57e3a8028bae56fa7f25ed48cd108af85fed97c506cc9a0b0b7615b1f",
    ("sl21", "4", True):
        "870bdf5b57980917f7d6ca3c428a6115deeab0a85409d252ccb8d577808fca6a",
}


@pytest.mark.parametrize("name,order,alt", sorted(DARBOUX_DIGESTS))
def test_darboux_reruns_byte_identical(capsys, name, order, alt):
    argv = ["darboux", "--algebra", name, "--order", order]
    if alt:
        argv.append("--alt-lagrangian")
    code, out = run_main(capsys, *argv)
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == DARBOUX_DIGESTS[(name, order, alt)]
    rep = json.loads(out)
    assert rep["classical"]["ok"] and rep["quantum"]["ok"]


def test_darboux_stall_names_entry_and_guard():
    # the CLI rejects guards below 2, so the stall is reached through the
    # engine, at the order `darboux --order 0` certifies (two orders deeper)
    ctx = slice_setup(load_algebra("sl2"))
    with pytest.raises(DarbouxError) as exc:
        equivariant_darboux(ctx.poisson, 2, seeds=ctx.m_gens(), guard=0)
    assert str(exc.value).startswith(
        "classical chart, even entry 0, cap 2 = order 2 + guard 0: ")
    assert "stalled" in str(exc.value)
    # the residual order after each pass, the stalled one last
    assert str(exc.value).endswith(
        "; residual orders by pass: 1 at hbar^0, 2 at hbar^0, 2 at hbar^0")


# SHA-256 of the check report per bundled algebra: pins the grading, the
# centralizer signature, the character and the Lagrangian.
CHECK_DIGESTS = {
    "sl2": "53f4598e643257d2256f9dcbc361f8e3ce90759ab1ff6a90492c4bac995a39e6",
    "gl11": "9adab84bb1c4870016a380c658706742dee7d2490bf6c4b9da3c2386be9cfaad",
    "osp12": "2029eb4058f5364132036abe8d1c8d64fa1d8022b197963ea50a297a9229ca51",
    "sl21": "c4b16b910a27a2f57890f29a4bb81c93c707f763d34fca43c134725b8ee93d28",
}


@pytest.mark.parametrize("name", sorted(CHECK_DIGESTS))
def test_check_report_digest(capsys, name):
    code, out = run_main(capsys, "check", "--algebra", name)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CHECK_DIGESTS[name]


# SHA-256 of the walgebra report (default --method both) per case: pins the
# generators, dimension tables and product coefficients of both routes.
WALGEBRA_DIGESTS = {
    ("sl2", "6", False):
        "a58022287b34ee1ab56f37a740430e3d3963cff2a8a8695ac0c2f4c94fdaa6bf",
    ("gl11", "6", False):
        "f623f20250b2bd39ef06b3e652dcdd38702f224cd1576f42b0aa7c28bd9809b2",
    ("osp12", "5", False):
        "a3276290f3df3eb8187f5c892e1ed4494fe9bae8cf74b772cff5cad8850034ff",
    ("sl21", "5", False):
        "1e1ab41c94db64d2a1e8f0844585433caf12426577a2f31ccb66d97c11b8ad1a",
    ("sl21", "4", True):
        "90acf1ebc1a7322030324aee81b2ef831dd421f4694459111d113959daabcd55",
}


@pytest.mark.parametrize("name,order,alt", sorted(WALGEBRA_DIGESTS))
def test_walgebra_reruns_byte_identical(capsys, name, order, alt):
    argv = ["walgebra", "--algebra", name, "--order", order]
    if alt:
        argv.append("--alt-lagrangian")
    code, out = run_main(capsys, *argv)
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == WALGEBRA_DIGESTS[(name, order, alt)]
    assert json.loads(out)["compare"]["ok"] is True


def _benchmark_digests():
    """The benchmark's reference digests, ``GOLDEN_SHA256`` of
    perfbench/workloads.py, loaded by path (it imports only the standard
    library at module level)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parent.parent / "perfbench"
        / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.GOLDEN_SHA256


GOLDEN_SHA256 = _benchmark_digests()

# SHA-256 of the report per command line, at the orders and subcommands the
# cases above leave out.  The three of walgebra sl21 at 10, its Whittaker
# route at 12 and suite at 4 with seed 0 are the benchmark's reference
# digests, read from the benchmark, so a plain test run checks them too.
ARGV_DIGESTS = {
    ("darboux", "--algebra", "sl21", "--order", "8"):
        "658fb8dedeb74d3d67c6a571cdaf4e6fe4bf167024bb881eb32774f20d1d901d",
    ("darboux", "--algebra", "osp12", "--order", "8"):
        "1ae434ae2a0df10cb873a9f2af3ac85b179acc7ae1f989ee680e22485a87b505",
    ("walgebra", "--algebra", "sl2", "--order", "12"):
        "ae8b4ce3fc51d2ea7ab9d85ad4a051a41e8682a5123fe006afdb1b8508636fea",
    ("walgebra", "--algebra", "sl21", "--order", "10"): GOLDEN_SHA256["walgebra"],
    ("walgebra", "--algebra", "sl21", "--order", "12", "--method", "whittaker"):
        GOLDEN_SHA256["whittaker"],
    ("suite", "--order", "4", "--seed", "0"): GOLDEN_SHA256["suite"],
    ("suite", "--order", "3", "--seed", "7"):
        "4d845b9118a5d8241e3cb7d09ab4d13caa6583d2ba7d81b0508ea6ac5704b550",
    # guards other than the default: the Taylor sums' precision budget
    # depends on cap - order
    ("walgebra", "--algebra", "sl21", "--order", "8", "--guard", "2"):
        "91bcb488f40428594dbe8db2cb0cdf632f06d12229856aa777e226379b9b4e09",
    ("darboux", "--algebra", "osp12", "--order", "6", "--guard", "3"):
        "d7aea2e4011f88c12c0e100aba9f45d587f0148fa81f9567387ae0a89267fe7f",
}


@pytest.mark.parametrize("argv", sorted(ARGV_DIGESTS), ids=" ".join)
def test_report_digest_by_argv(capsys, argv):
    code, out = run_main(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == ARGV_DIGESTS[argv]


def test_walgebra_report_structure(capsys):
    code, out = run_main(capsys, "walgebra", "--algebra", "sl2", "--order",
                         "4", "--method", "both")
    assert code == 0
    rep = json.loads(out)
    assert rep["whittaker"]["dims"] == [1, 1, 1, 1, 2]
    assert rep["slice"]["dims"] == [1, 1, 1, 1, 2]
    assert rep["compare"]["ok"] is True
    gens = rep["slice"]["generators"]
    assert [g["weight"] for g in gens] == [4]


def test_walgebra_single_method(capsys):
    code, out = run_main(capsys, "walgebra", "--algebra", "gl11", "--order",
                         "2", "--method", "whittaker")
    assert code == 0
    rep = json.loads(out)
    assert "slice" not in rep and "compare" not in rep
    assert rep["whittaker"]["dims"] == [1, 1, 5]


@pytest.mark.parametrize("name", ["sl2", "gl11", "osp12", "sl21"])
@pytest.mark.parametrize("method", ["both", "slice"])
def test_walgebra_order_zero(capsys, name, method):
    # at order 0 the charts are still certified through order 1, so sl21's
    # odd pair projection leaves no constant residual
    code, out = run_main(capsys, "walgebra", "--algebra", name, "--order", "0",
                         "--method", method)
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    assert rep["slice"]["dims"] == [1]
    if method == "both":
        assert rep["whittaker"]["dims"] == [1]


def test_suite_order_zero(capsys):
    code, out = run_main(capsys, "suite", "--order", "0")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    assert "classical_chart:sl21" in [c["name"] for c in rep["checks"]]


def test_truncated_rerun_matches_lower_order():
    # the stability contract: run two orders higher, cut back, compare bytes
    for kind, name, order in (("walgebra", "sl2", 4), ("darboux", "osp12", 2)):
        low = build_report(kind, algebra=name, order=order)
        high = build_report(kind, algebra=name, order=order + 2)
        cut = truncate_report(high, order)
        a = json.dumps(low, sort_keys=True, indent=2)
        b = json.dumps(cut, sort_keys=True, indent=2)
        assert a == b, (kind, name)


def test_suite_smoke_and_seed_determinism(capsys):
    code, first = run_main(capsys, "suite", "--order", "1", "--seed", "7")
    assert code == 0
    code, second = run_main(capsys, "suite", "--order", "1", "--seed", "7")
    assert first == second
    rep = json.loads(first)
    assert rep["ok"] is True
    assert all(c["ok"] for c in rep["checks"])
    names = {c["name"].split(":")[0] for c in rep["checks"]}
    assert "poisson_jacobi_random" in names
    assert "semiclassical_limit" in names


def _count_certificates(monkeypatch):
    """Count Chart.verify and QuantumChart.verify calls."""
    counts = {Chart: 0, QuantumChart: 0}
    for cls in counts:
        def counted(self, cls=cls, verify=cls.verify):
            counts[cls] += 1
            return verify(self)
        monkeypatch.setattr(cls, "verify", counted)
    return counts


@pytest.mark.parametrize("argv,classical,quantum", [
    (("darboux", "--algebra", "sl21", "--order", "8"), 1, 1),
    (("suite", "--order", "4"), 4, 8),
    # slice_walgebra certifies the quantum chart a second time
    (("walgebra", "--algebra", "sl21", "--order", "6"), 1, 2),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
def test_each_chart_is_certified_once(monkeypatch, capsys, argv, classical, quantum):
    counts = _count_certificates(monkeypatch)
    assert run_main(capsys, *argv)[0] == 0
    assert counts == {Chart: classical, QuantumChart: quantum}


def _plant(monkeypatch, module, name):
    """Make ``module.name`` raise DarbouxError on sl21 (the algebra with um)."""
    real = getattr(module, name)

    def planted(*args, **kwargs):
        if "um" in args[0].alg.by_name:
            raise DarbouxError("planted %s" % name)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, planted)


@pytest.mark.parametrize("planted,failed", [
    ([(suite, "quantum_darboux")], "quantum_darboux"),
    ([(suite, "quantum_darboux"), (wslice, "quantum_darboux")], "quantum_darboux"),
    ([(wslice, "equivariant_darboux")], "equivariant_darboux"),
], ids=("suite", "suite+wslice", "classical"))
def test_suite_records_a_chart_failure_under_its_own_name(monkeypatch, planted,
                                                          failed):
    for module, name in planted:
        _plant(monkeypatch, module, name)
    rep = build_report("suite", order=2)
    names = [c["name"] for c in rep["checks"]]
    assert len(names) == len(set(names)) == 40
    bad = {c["name"]: c["detail"] for c in rep["checks"] if not c["ok"]}
    error = {"error": "planted %s" % failed}
    want = {"quantum_chart:sl21": error, "whittaker_vs_slice:sl21": error,
            "splitting:sl21": error}
    if failed == "equivariant_darboux":
        want["classical_chart:sl21"] = error
    assert bad == want
    assert rep["ok"] is False


# -- negative controls for the suite's randomized checks ----------------
#
# A healthy suite reports bad 0 on every randomized check, so a trial loop
# that skipped every draw would print the same report.  Each plant below
# breaks what one check tests, and the check must then count the draws it
# fails on.


RANDOMIZED = ("poisson_jacobi_random", "semiclassical_limit", "star_associativity",
              "rees_roundtrip")


def _outside_charts(monkeypatch, cls, name, fake):
    """Plant ``fake`` as ``cls.name`` except while a quantum chart is built,
    so that the charts stay certified and only the checks after them see
    the defect."""
    real = getattr(cls, name)
    build = suite.quantum_darboux

    def quantum_darboux(S, classical):
        setattr(cls, name, real)
        try:
            return build(S, classical)
        finally:
            setattr(cls, name, fake)
    monkeypatch.setattr(cls, name, fake)
    monkeypatch.setattr(suite, "quantum_darboux", quantum_darboux)


def _plant_jacobiator(monkeypatch):
    monkeypatch.setattr(PoissonAlgebra, "jacobiator", lambda self, a, b, c: a)


def _plant_commutator(monkeypatch):
    # the product for the commutator: its hbar^0 part makes the division by
    # hbar^2 raise, which counts as bad
    _outside_charts(monkeypatch, StarAlgebra, "commutator",
                    lambda self, f, g, order: self.star(f, g, order))


def _plant_star(monkeypatch):
    # a*b + a is not associative; the commutator, a difference of star
    # products, breaks with it
    star = StarAlgebra.star
    _outside_charts(monkeypatch, StarAlgebra, "star",
                    lambda self, f, g, order: star(self, f, g, order) + f)


def _plant_rees_inverse(monkeypatch):
    monkeypatch.setattr(suite, "rees_inverse", lambda s: s)


# The bad counts of ``suite --order 1 --seed 102`` (five trials per check,
# on sl2, gl11, osp12 and sl21 in turn) under each plant; every randomized
# check not listed keeps bad 0 on all four algebras.  A graded draw takes a
# parity that the algebra's series have, so on sl2, which has no odd
# generator, no graded trial draws the zero series.
@pytest.mark.parametrize("plant,planted_bad", [
    (None, {}),
    (_plant_jacobiator, {"poisson_jacobi_random": [5, 5, 5, 5]}),
    (_plant_commutator, {"semiclassical_limit": [5, 5, 5, 5]}),
    (_plant_star, {"semiclassical_limit": [5, 5, 5, 5],
                   "star_associativity": [5, 5, 5, 5]}),
    (_plant_rees_inverse, {"rees_roundtrip": [5, 5, 5, 5]}),
], ids=("healthy", "jacobiator", "commutator", "star", "rees_inverse"))
def test_suite_randomized_checks_count_planted_defects(monkeypatch, plant, planted_bad):
    if plant is not None:
        plant(monkeypatch)
    rep = build_report("suite", order=1, seed=102)
    got = {}
    for c in rep["checks"]:
        check = c["name"].split(":")[0]
        if check in RANDOMIZED:
            assert c["detail"]["trials"] == 5
            assert c["ok"] is (c["detail"]["bad"] == 0)
            got.setdefault(check, []).append(c["detail"]["bad"])
    assert got == {check: planted_bad.get(check, [0, 0, 0, 0]) for check in RANDOMIZED}


def test_suite_skipped_draw_counts_neither_bad_nor_good(monkeypatch):
    # at this seed the last Rees draw on gl11 is a zero series: it is
    # skipped, so a Rees inverse that fails on every series, zero included,
    # counts 4 bad of 5 there
    monkeypatch.setattr(suite, "rees_inverse", lambda s: s + s.alg.one())
    rep = build_report("suite", order=1, seed=11)
    assert [c["detail"] for c in rep["checks"] if c["name"].startswith("rees_roundtrip")] \
        == [{"bad": bad, "trials": 5} for bad in (5, 4, 5, 5)]


def test_console_script_installed():
    exe = shutil.which("superw")
    if exe is None:
        pytest.skip("entry point not installed")
    proc = subprocess.run([exe, "check", "--algebra", "sl2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True


def test_module_invocation_usage_error():
    proc = subprocess.run([sys.executable, "-m", "superw.cli"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
