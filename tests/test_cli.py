"""Command-line interface: exit codes, determinism, truncation stability."""
import hashlib
import json
import shutil
import subprocess
import sys

import pytest

from superw.cli import build_report, main, truncate_report

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


def test_usage_errors_exit_two(capsys):
    for argv in (
        [],
        ["walgebra", "--algebra", "sl2"],  # --order is required
        ["walgebra", "--algebra", "sl2", "--order", "2", "--method", "bogus"],
        ["walgebra", "--algebra", "sl21", "--order", "-1"],
        ["darboux", "--algebra", "sl2", "--order", "-1"],
        ["suite", "--order", "-1"],
        ["walgebra", "--algebra", "sl2", "--order", "2", "--guard", "-1"],
        ["darboux", "--algebra", "sl2", "--order", "2", "--guard", "-3"],
        ["walgebra", "--algebra", "sl2", "--order", "two"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "usage:" in capsys.readouterr().err, argv


def test_invalid_algebra_file_exits_one(tmp_path, capsys):
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


def test_darboux_stall_names_entry_and_guard(capsys):
    code, out = run_main(capsys, "darboux", "--algebra", "sl2", "--order", "0",
                         "--guard", "0")
    assert code == 1
    rep = json.loads(out)
    assert rep["ok"] is False
    # the report certifies two orders deeper, so the cap is 2 = 2 + 0
    assert rep["error"].startswith(
        "classical chart, even entry 0, cap 2 = order 2 + guard 0: ")
    assert "stalled" in rep["error"]


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
