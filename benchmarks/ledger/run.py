"""One workload, one pass — the command ``BENCHMARK.json`` names.

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

``--trace 0`` is the untraced pass (every end-to-end metric); ``--trace 1``
the traced pass (every per-layer metric).  Each metric is printed by name
with its unit and direction; the last stdout line is the result object.
Exits 1 when any correctness check failed, 2 (and prints no result) when the
checkout holds no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_pass(spec: dict, workload_name: str, seed: int, seconds: float,
             trace: bool, out_dir: "Path | None" = None) -> dict:
    """Run one pass; returns the ledger fragment (rows, tally, header).  The
    rows are exactly the metrics ``spec`` declares for the pass, each stamped
    with its declared unit."""
    from benchmarks.ledger import hermetic

    removed = hermetic.scrub_environment()

    from benchmarks.ledger.guests import WORKLOADS
    from benchmarks.ledger.stats import Tally

    workload = WORKLOADS[workload_name]
    tally = Tally()
    with hermetic.Scratch() as scratch:
        if trace:
            from benchmarks.ledger import traced

            rows, spans = traced.run(workload, seed, seconds, scratch, tally)
        else:
            from benchmarks.ledger import untraced

            rows, spans = untraced.run(workload, seed, seconds, scratch,
                                       tally), []
        header = hermetic.fingerprint(removed)
    header.update(seed=seed, seconds=seconds)
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(rows) != set(units):
        raise SystemExit(
            f"metric set differs from BENCHMARK.json[{section}]: "
            f"missing {sorted(set(units) - set(rows))}, "
            f"undeclared {sorted(set(rows) - set(units))}")
    for name, row in rows.items():
        row["unit"] = units[name]
    fragment = {
        "workload": workload_name, "trace": int(trace), "header": header,
        "attempted": tally.attempted, "failed": tally.failed,
        "fail_share": tally.failed / max(1, tally.attempted),
        "failures": tally.notes, "rows": rows,
    }
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{workload_name}.trace{int(trace)}"
        (out_dir / f"{stem}.json").write_text(json.dumps(fragment, indent=1))
        if spans:
            with open(out_dir / f"{stem}.spans.jsonl", "w") as fh:
                for span in spans:
                    fh.write(json.dumps(span) + "\n")
    return fragment


def result_line(fragment: dict) -> dict:
    """The contract's result object.  A refused or not-applicable per-layer
    row is null in the ledger and 0 here, where the value must be a number."""
    metrics = {name: {"value": 0 if row["value"] is None else row["value"],
                      "unit": row["unit"]}
               for name, row in fragment["rows"].items()}
    return {"correct": fragment["failed"] == 0,
            "attempted": fragment["attempted"],
            "failed": fragment["failed"], "metrics": metrics}


def print_rows(fragment: dict, spec: dict) -> None:
    section = "per_layer" if fragment["trace"] else "end_to_end"
    better = {m["name"]: m["better"] for m in spec[section]}
    print(f"# {fragment['workload']}  seed={fragment['header']['seed']}  "
          f"seconds={fragment['header']['seconds']}  trace={fragment['trace']}")
    for name, row in fragment["rows"].items():
        if row["value"] is None:
            print(f"{name:34s} {'-':>14s} {row['unit']:6s} "
                  f"{row.get('reason', 'not applicable')}")
            continue
        tail = ""
        if row.get("tail") is not None:
            pct = row.get("tail_pct")
            tail = (f"  {'max' if pct is None else f'p{pct:g}'}"
                    f"={row['tail']:.6g}")
        median = ""
        if row.get("median") is not None:
            median = f"  median={row['median']:.6g}"
        parts = ""
        if "base" in row:
            parts = (f"  = {row['num_s']['value']:.6g} s / {row['base']} "
                     f"{row['base_s']['value']:.6g} s")
        print(f"{name:34s} {row['value']:14.6g} {row['unit']:6s} "
              f"{better[name]}-is-better  n={row.get('n', 1)}"
              f"{median}{tail}{parts}")
    for note in fragment["failures"]:
        print(f"FAILED: {note}")


def main(argv=None) -> int:
    spec = declared()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None,
                    help="also write the full rows (and spans) here")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT}: no src/repro here — the program under test is not "
              f"in this checkout", file=sys.stderr)
        return 2

    fragment = run_pass(spec, args.workload, args.seed, args.seconds,
                        bool(args.trace), args.out)
    print_rows(fragment, spec)
    print(json.dumps(result_line(fragment)))
    return 0 if fragment["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
