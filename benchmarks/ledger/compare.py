"""Judge ledger B against ledger A, one row per (end-to-end metric, workload).

Every end-to-end metric is lower-is-better, so the ratio is B's value over
A's (base: A).  Verdicts follow the choosing-metrics guide: beyond the
metric's bound the change *regressed* or *improved*; inside it, *unchanged*;
and where either side's run-to-run spread is wider than the bound the row is
*unresolved* — unless every run of one side reads better than every run of
the other.
"""

from __future__ import annotations


def verdict(a: dict, b: dict, bound: float) -> str:
    ratio = b["value"] / a["value"]
    spreads = [s for s in (a.get("spread"), b.get("spread")) if s is not None]
    if spreads and max(spreads) > bound:
        if max(b["runs"]) < min(a["runs"]):
            return "improved"
        if min(b["runs"]) > max(a["runs"]):
            return "regressed"
        return "unresolved"
    if ratio > 1.0 + bound:
        return "regressed"
    if ratio < 1.0 - bound:
        return "improved"
    return "unchanged"


def compare(a: dict, b: dict, spec: dict) -> int:
    """Print the table; returns 1 when any row regressed or a side failed
    more operations than the other."""
    print(f"base A: {a['header']['git_commit'][:12]}   "
          f"B: {b['header']['git_commit'][:12]}   ratio = B / A")
    print(f"{'workload':16s} {'metric':22s} {'A':>12s} {'B':>12s} "
          f"{'B/A':>7s} {'bound':>6s}  verdict")
    worst = 0
    for w in spec["workloads"]:
        wa, wb = a["workloads"].get(w["name"]), b["workloads"].get(w["name"])
        if wa is None or wb is None:
            continue
        for m in spec["end_to_end"]:
            ra, rb = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            word = verdict(ra, rb, m["bound"])
            worst |= word == "regressed"
            print(f"{w['name']:16s} {m['name']:22s} {ra['value']:12.5g} "
                  f"{rb['value']:12.5g} {rb['value'] / ra['value']:7.3f} "
                  f"{m['bound']:6.2f}  {word}")
        word = "unchanged" if wb["fail_share"] == wa["fail_share"] else (
            "regressed" if wb["fail_share"] > wa["fail_share"] else "improved")
        worst |= word == "regressed"
        print(f"{w['name']:16s} {'fail_share':22s} {wa['fail_share']:12.5g} "
              f"{wb['fail_share']:12.5g} {'':>7s} {0:6.2f}  {word}")
    return int(worst)
