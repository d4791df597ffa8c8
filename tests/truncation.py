"""Truncation of a report to a lower order, for the rerun comparisons.

Chart series in a report carry their effective order per term, so a report
made at order n + 2 can be cut down to order n and compared byte for byte
with the report made at order n.  No command truncates a report; the tests
that compare reruns do.
"""

import json


def _truncate_chart(section, n):
    def cut(terms):
        return [t for t in terms if t[2] <= n]
    return dict(section,
                entries=[dict(e, vars=[cut(v) for v in e["vars"]])
                         for e in section["entries"]],
                center_generators=[cut(c) for c in section["center_generators"]])


def truncate_report(report, n):
    """Project a report down to order ``n`` for rerun comparisons."""
    kind = report.get("kind")
    out = json.loads(json.dumps(report))  # deep copy, JSON-clean
    if kind == "check":
        return out
    if kind == "darboux":
        out["order"] = n
        out["classical"] = _truncate_chart(report["classical"], n)
        out["quantum"] = _truncate_chart(report["quantum"], n)
        return out
    if kind == "walgebra":
        out["order"] = n

        def cut(section):
            wts = [g["weight"] for g in section.get("generators", [])]
            for key in ("dims", "expected_dims"):
                if key in section:
                    section[key] = section[key][: n + 1]
            if "generators" in section:
                section["generators"] = [g for g in section["generators"]
                                         if g["weight"] <= n]
            if "products" in section:
                section["products"] = {
                    key: rows for key, rows in section["products"].items()
                    if sum(wts[int(t)] for t in key.split(",")) <= n}
            for key in ("new_counts", "expected_counts"):
                if key in section:
                    section[key] = {w: c for w, c in section[key].items() if int(w) <= n}
        if "whittaker" in out:
            cut(out["whittaker"])
        if "slice" in out:
            cut(out["slice"])
        return out
    return out
