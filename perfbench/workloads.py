"""The four benchmark workloads: what a child runs, and how its output is checked.

``walgebra``, ``whittaker`` and ``splitting`` are fixed problem instances and
ignore the benchmark seed; ``suite`` passes it to ``superw suite --seed``.
The reference digests below are SHA-256 sums of the JSON reports as the CLI
prints them, taken from the unmodified package; reports are byte-identical
across runs, so any difference is a wrong answer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json

NAMES = ("walgebra", "whittaker", "splitting", "suite")

SUITE_ORDER = 4
SPLIT_WEIGHT = 5  # weight 6 would take 27-31 s per job

CLI_ARGV = {
    "walgebra": ["walgebra", "--algebra", "sl21", "--order", "10"],
    "whittaker": ["walgebra", "--algebra", "sl21", "--order", "12",
                  "--method", "whittaker"],
}

GOLDEN_SHA256 = {
    "walgebra": "8926dae9042db6f1345d3a1ae5ef13d953f6d5f4f087c9ac318ae7aeade95b52",
    "whittaker": "53784c3f5fcd07cdceaf69fec5ce13c18283426527f21f9df836d99316a5e71f",
    "suite": "d76fc882d092c626b5e8a656e71393b8cdc2d4ff1c6888f3119f042b7ae53eef",  # seed 0
}

# Every suite report runs these checks, whatever the seed.
SUITE_CHECKS = tuple(
    "%s:%s" % (check, algebra)
    for algebra in ("sl2", "gl11", "osp12", "sl21")
    for check in ("poisson_jacobi_generators", "poisson_jacobi_random",
                  "bracket_weights", "classical_chart", "quantum_chart",
                  "semiclassical_limit", "star_associativity",
                  "rees_roundtrip", "whittaker_vs_slice", "splitting")
)

# sl21 in the universe order of slice_setup: name, parity, filtration weight.
SL21_VARIABLES = (("e", 0, 4), ("h", 0, 2), ("z", 0, 2), ("up", 1, 3),
                  ("vp", 1, 1), ("vm", 1, 3), ("f", 0, 0), ("um", 1, 1))


def normal_monomial_count(variables, wmax, dmax):
    """Normal monomials of weight <= wmax and degree <= dmax, by brute force.

    Odd variables appear at most once.  This is independent of the
    package's own enumerator, which the splitting check counts with.
    """
    ranges = [range(2) if p else range(dmax + 1) for _, p, _ in variables]
    weights = [w for _, _, w in variables]
    return sum(1 for exps in itertools.product(*ranges)
               if sum(exps) <= dmax
               and sum(e * w for e, w in zip(exps, weights)) <= wmax)


def cli_argv(name, seed):
    if name == "suite":
        return ["suite", "--order", str(SUITE_ORDER), "--seed", str(seed)]
    return CLI_ARGV[name]


def prepare(name, seed):
    """Set up one job and return the call to time.

    Set-up loads and validates the workload's algebras and builds their
    slice contexts.  The call returns the raw result; ``summarize`` turns it
    into the JSON-clean outcome that ``problems`` checks.
    """
    from superw import cli
    from superw.algebras import catalog_names, load_algebra
    from superw.wslice import slice_setup, splitting_check

    algebras = catalog_names() if name == "suite" else ("sl21",)
    contexts = {a: slice_setup(load_algebra(a)) for a in algebras}
    if name == "splitting":
        ctx = contexts["sl21"]
        return lambda: splitting_check(ctx, SPLIT_WEIGHT, k=2)

    argv = cli_argv(name, seed)

    def job():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    return job


def summarize(name, raw):
    if name == "splitting":
        return {"ok": raw.ok, "checked": raw.checked,
                "coeff_failures": raw.coeff_failures,
                "recon_failures": raw.recon_failures}
    rc, text = raw
    data = text.encode("utf-8")
    out = {"rc": rc, "sha256": hashlib.sha256(data).hexdigest(),
           "report_bytes": len(data)}
    if name == "suite":
        report = json.loads(text)
        out["seed"] = report.get("seed")
        out["checks"] = [[c["name"], c["ok"]] for c in report["checks"]]
    return out


def problems(name, seed, outcome):
    """What is wrong with one job's outcome; empty when it is correct."""
    if name == "splitting":
        expected = normal_monomial_count(SL21_VARIABLES, SPLIT_WEIGHT, SPLIT_WEIGHT)
        found = []
        if outcome["ok"] is not True:
            found.append("splitting check not ok")
        if outcome["coeff_failures"] or outcome["recon_failures"]:
            found.append("splitting failures: %s / %s" % (
                outcome["coeff_failures"], outcome["recon_failures"]))
        if outcome["checked"] != expected:
            found.append("checked %s monomials, expected %d"
                         % (outcome["checked"], expected))
        return found
    found = []
    if outcome["rc"] != 0:
        found.append("exit code %s" % outcome["rc"])
    golden = GOLDEN_SHA256.get(name)
    if name == "suite" and seed != 0:
        golden = None
        if outcome["seed"] != seed:
            found.append("report seed %s, expected %s" % (outcome["seed"], seed))
        names = tuple(n for n, _ in outcome["checks"])
        if names != SUITE_CHECKS:
            found.append("suite checks differ: %s" % (names,))
        bad = [n for n, ok in outcome["checks"] if ok is not True]
        if bad:
            found.append("suite checks failed: %s" % bad)
    if golden is not None and outcome["sha256"] != golden:
        found.append("report digest %s, expected %s" % (outcome["sha256"], golden))
    return found
