"""Generated gl(m|n) algebras as oracles for the whole pipeline.

The generator writes a catalog file for gl(m|n) in the basis E_ij with the
supertrace form and a given sl(2)-triple; the tests load it by path, so the
command line gains no capability.  The oracle is the PBW theorem for finite
W-superalgebras, gr W = S(g^e) (with one more odd generator when
dim g(-1)_1 is odd), with the g^e signature read off the Jordan blocks of e
(Jantzen, *Nilpotent orbits in representation theory*, 2004, for the even
case), independently of the package's own grading.
"""

import contextlib
import hashlib
import io
import itertools
import json

import pytest

from superw.algebras import load_algebra
from superw.cli import build_report, main, truncate_report
from superw.wslice import slice_setup, splitting_check


def gl_json(m, n, triple):
    """Catalog entry of gl(m|n); ``triple`` maps "e", "h", "f" to
    ``{(i, j): coefficient}`` over the 0-based matrix units E_(i+1)(j+1)."""
    par = [0] * m + [1] * n
    idx = [(i, j) for i in range(m + n) for j in range(m + n)]
    pos = {ij: k for k, ij in enumerate(idx)}

    def parity(i, j):
        return (par[i] + par[j]) % 2

    brackets = []
    for a, (i, j) in enumerate(idx):
        for b in range(a, len(idx)):
            k, l = idx[b]
            # [E_ij, E_kl] = d_jk E_il - (-1)^(|E_ij||E_kl|) d_li E_kj
            row = [0] * len(idx)
            if j == k:
                row[pos[(i, l)]] += 1
            if l == i:
                row[pos[(k, j)]] -= (-1) ** (parity(i, j) * parity(k, l))
            if any(row):
                brackets.append({"i": a, "j": b, "coeffs": [str(c) for c in row]})
    # str(E_ij E_kl) = d_jk d_il (-1)^p(i)
    form = [[str((-1) ** par[i] if (j == k and i == l) else 0) for (k, l) in idx]
            for (i, j) in idx]

    def vector(coeffs):
        v = [0] * len(idx)
        for ij, c in coeffs.items():
            v[pos[ij]] += c
        return [str(c) for c in v]

    return {
        "name": "gl%d%d" % (m, n),
        "basis": [{"name": "E%d%d" % (i + 1, j + 1), "parity": parity(i, j)}
                  for i, j in idx],
        "brackets": brackets,
        "form": form,
        "sl2_triple": {w: vector(triple[w]) for w in ("e", "h", "f")},
    }


def centralizer_signature(blocks):
    """Filtration weights (ad h-degree + 2) of g^e for e with Jordan blocks
    ``[(size, parity), ...]``, split by parity, and dim g(-1)_1.

    An ordered pair of blocks of sizes d_a and d_b gives min(d_a, d_b)
    vectors of ad h-degrees |d_a - d_b|, |d_a - d_b| + 2, ..., d_a + d_b - 2,
    of parity p_a + p_b.  All of gl(m|n) is the d_a * d_b weight differences
    of the two blocks' h-strings.
    """
    weights = ([], [])
    odd_minus_one = 0
    for da, pa in blocks:
        for db, pb in blocks:
            p = (pa + pb) % 2
            for deg in range(abs(da - db), da + db - 1, 2):
                weights[p].append(deg + 2)
            if p:
                odd_minus_one += sum(
                    1 for s in range(da) for t in range(db)
                    if (da - 1 - 2 * s) - (db - 1 - 2 * t) == -1)
    return sorted(weights[0]), sorted(weights[1]), odd_minus_one


def pbw_dims(even, odd, n_max):
    """Cumulative dimensions, by filtration weight, of the symmetric
    superalgebra on generators of the given weights."""
    graded = [1] + [0] * n_max
    for w in even:
        for n in range(w, n_max + 1):
            graded[n] += graded[n - w]
    for w in odd:
        for n in range(n_max, w - 1, -1):
            graded[n] += graded[n - w]
    return [sum(graded[:n + 1]) for n in range(n_max + 1)]


def run_walgebra(tmp_path, capsys, data):
    path = tmp_path / ("%s.json" % data["name"])
    path.write_text(json.dumps(data), encoding="utf-8")
    code = main(["walgebra", "--algebra", str(path), "--order", "6",
                 "--method", "both"])
    return code, json.loads(capsys.readouterr().out)


# e = E12 in the even block: Jordan blocks (size, parity) and W dims at order 6
E12_CASES = [
    (2, 1, [(2, 0), (1, 1)], [1, 1, 3, 5, 9, 13, 20]),
    (2, 2, [(2, 0), (1, 1), (1, 1)], [1, 1, 6, 10, 26, 46, 92]),
    (3, 1, [(2, 0), (1, 0), (1, 1)], [1, 1, 6, 10, 24, 44, 82]),
]


# e = E12, h = E11 - E22, f = E21
E12_TRIPLE = {"e": {(0, 1): 1}, "h": {(0, 0): 1, (1, 1): -1}, "f": {(1, 0): 1}}


@pytest.mark.parametrize("m, n, blocks, want", E12_CASES)
def test_walgebra_is_the_pbw_count_of_the_centralizer(tmp_path, capsys, m, n, blocks,
                                                      want):
    data = gl_json(m, n, E12_TRIPLE)
    code, report = run_walgebra(tmp_path, capsys, data)
    assert code == 0 and report["ok"] is True
    assert report["compare"]["ok"] is True
    even, odd, odd_minus_one = centralizer_signature(blocks)
    assert odd_minus_one % 2 == 0  # no extra odd generator
    assert pbw_dims(even, odd, 6) == want
    assert report["whittaker"]["dims"] == want
    assert report["slice"]["dims"] == want


# e = E12 + E34 in gl(2|2): one Jordan block of size 2 in each parity, with
# h = E11 - E22 + E33 - E44 and f = E21 + E43.  An odd pair of its classical
# chart arrives with a self-bracket that the odd-pair flattening corrects,
# which no bundled algebra and no E12 case needs.
E12_E34_TRIPLE = {"e": {(0, 1): 1, (2, 3): 1},
                  "h": {(0, 0): 1, (1, 1): -1, (2, 2): 1, (3, 3): -1},
                  "f": {(1, 0): 1, (3, 2): 1}}
E12_E34_BLOCKS = [(2, 0), (2, 1)]
E12_E34_DIMS = [1, 1, 5, 5, 17, 17, 45]
# SHA-256 of its walgebra report at order 6, --method both
E12_E34_DIGEST = "b039ebbe863b90adf2048cb348ecc99a9c9b1bb229ddba0c5c3336c5952b1504"


@pytest.fixture(scope="module")
def gl22_e12_e34_walgebra(tmp_path_factory):
    """Exit code and stdout of walgebra on gl(2|2) with e = E12 + E34."""
    path = tmp_path_factory.mktemp("gl22") / "gl22.json"
    path.write_text(json.dumps(gl_json(2, 2, E12_E34_TRIPLE)), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["walgebra", "--algebra", str(path), "--order", "6",
                     "--method", "both"])
    return code, out.getvalue()


def test_gl22_two_block_walgebra_is_the_pbw_count(gl22_e12_e34_walgebra):
    code, out = gl22_e12_e34_walgebra
    report = json.loads(out)
    assert code == 0 and report["ok"] is True and report["compare"]["ok"] is True
    even, odd, odd_minus_one = centralizer_signature(E12_E34_BLOCKS)
    assert odd_minus_one % 2 == 0
    assert pbw_dims(even, odd, 6) == E12_E34_DIMS
    assert report["whittaker"]["dims"] == E12_E34_DIMS
    assert report["slice"]["dims"] == E12_E34_DIMS


def test_gl22_two_block_walgebra_report_digest(gl22_e12_e34_walgebra):
    code, out = gl22_e12_e34_walgebra
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == E12_E34_DIGEST


# SHA-256 of the walgebra report (stdout, UTF-8) of gl(m|n) with e = E12 at
# order 6, --method both.  Many variables make the order of monomials matter
# most, so these pin report bytes past the four bundled algebras; gl(3|2)
# (dim 25) has the largest slice-product systems.
E12_DIGESTS = {
    (2, 1): "5b323d5798ce53f320e7e1dc4107bc0be1d8988f905b8dfce0eb8b0941479738",
    (2, 2): "a24f8dca047add85912a0066a491d19b84b662953f898de2c0e5554e75645353",
    (3, 2): "e1b8c15b378ed675523198b06d3801b8214f869639e3110cdedda2781f0fa8d2",
}


@pytest.mark.parametrize("m, n", sorted(E12_DIGESTS))
def test_walgebra_report_digest(tmp_path, capsys, m, n):
    path = tmp_path / ("gl%d%d.json" % (m, n))
    path.write_text(json.dumps(gl_json(m, n, E12_TRIPLE)), encoding="utf-8")
    code = main(["walgebra", "--algebra", str(path), "--order", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == E12_DIGESTS[(m, n)]


# gl(3|3) with e = E12 on the Whittaker route alone, at order 6, which has
# the largest Whittaker kernels of the pinned reports: its dims and the
# SHA-256 of its walgebra report, --method whittaker
GL33_WHITTAKER_DIMS = [1, 1, 18, 26, 174, 310, 1224]
GL33_WHITTAKER_DIGEST = "e000cd573f9f7abbad358d57c56168b1929e370e704416ec4403be31832b9869"


def test_gl33_whittaker_report_digest(tmp_path, capsys):
    path = tmp_path / "gl33.json"
    path.write_text(json.dumps(gl_json(3, 3, E12_TRIPLE)), encoding="utf-8")
    code = main(["walgebra", "--algebra", str(path), "--method", "whittaker",
                 "--order", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["whittaker"]["dims"] == GL33_WHITTAKER_DIMS
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GL33_WHITTAKER_DIGEST


# SHA-256 of the check report of gl(m|n) with e = E12: its centralizer
# signature has 17 directions for gl(3|2) and 26 for gl(3|3).
E12_CHECK_DIGESTS = {
    (3, 2): "c31d5de65fa977985c0d27502dfb3d7e8675c055d628e387d2f69de9c4d34665",
    (3, 3): "1833f43d087e34da2eff524d6b5672cdaf54d5899af82c05b5c68878e5e44d52",
}


@pytest.mark.parametrize("m, n", sorted(E12_CHECK_DIGESTS))
def test_check_report_digest(tmp_path, capsys, m, n):
    path = tmp_path / ("gl%d%d.json" % (m, n))
    path.write_text(json.dumps(gl_json(m, n, E12_TRIPLE)), encoding="utf-8")
    code = main(["check", "--algebra", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == E12_CHECK_DIGESTS[(m, n)]


def test_gl21_centralizer_signature():
    # by hand: g^e of E12 in gl(2|1) is spanned by E11 + E22, E12, E33 (even) and
    # E13, E32 (odd); g(-1)_1 is spanned by E23 and E31
    assert centralizer_signature([(2, 0), (1, 1)]) == ([2, 2, 4], [3, 3], 2)


def test_gl31_principal_nilpotent_has_negative_weights(tmp_path, capsys):
    data = gl_json(3, 1, {"e": {(0, 1): 1, (1, 2): 1},
                          "h": {(0, 0): 2, (2, 2): -2},
                          "f": {(1, 0): 2, (2, 1): 2}})
    code, report = run_walgebra(tmp_path, capsys, data)
    assert code == 1
    assert report == {"error": "gl31: negative filtration weight on E31", "ok": False}


# -- gl(2|1) with e = E12 through the rest of the pipeline -----------------


@pytest.fixture(scope="module")
def gl21_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("gl21") / "gl21.json"
    path.write_text(json.dumps(gl_json(2, 1, E12_TRIPLE)), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("kind", ["darboux", "walgebra"])
@pytest.mark.parametrize("n", [2, 4])
def test_gl21_order_ladder(gl21_path, kind, n):
    low = build_report(kind, algebra=gl21_path, order=n)
    high = build_report(kind, algebra=gl21_path, order=n + 2)
    assert json.dumps(truncate_report(high, n), sort_keys=True) == json.dumps(
        low, sort_keys=True)


def test_gl21_alt_lagrangian_keeps_dimension_tables(gl21_path):
    # g(-1)_1 is spanned by E23 and E31, so the Lagrangian is a real choice
    base = build_report("walgebra", algebra=gl21_path, order=6)
    alt = build_report("walgebra", algebra=gl21_path, order=6, alt=True)
    assert alt["ok"] is True and alt["compare"]["ok"] is True
    for route in ("whittaker", "slice"):
        assert alt[route]["dims"] == base[route]["dims"] == E12_CASES[0][3]


def gl_weights(m, n, h):
    """(filtration weight, parity) of each E_ij: the ad h-degree
    h_i - h_j of E_ij for diagonal h, plus 2."""
    par = [0] * m + [1] * n
    return [(h[i] - h[j] + 2, (par[i] + par[j]) % 2)
            for i in range(m + n) for j in range(m + n)]


def test_gl21_splitting_check_counts_every_monomial(gl21_path):
    n_max = 4
    weights = gl_weights(2, 1, (1, -1, 0))
    # normal monomials of weight and degree <= n_max, odd exponents <= 1
    ranges = [range(2) if p else range(n_max + 1) for _, p in weights]
    want = sum(1 for exps in itertools.product(*ranges)
               if sum(exps) <= n_max
               and sum(e * w for e, (w, _) in zip(exps, weights)) <= n_max)
    res = splitting_check(slice_setup(load_algebra(gl21_path)), n_max)
    assert res.ok, (res.coeff_failures, res.recon_failures)
    assert res.checked == want == 94
