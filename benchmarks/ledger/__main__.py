"""The whole ledger, or a comparison of two.

    python3 -m benchmarks.ledger run --seed N --out DIR [--quick] [--repeat K]
    python3 -m benchmarks.ledger compare A.json B.json

``run`` executes ``run.py`` once per (workload, pass) in a fresh process —
the same command and isolation the gate uses — and merges the fragments
into ``DIR/ledger.json`` and ``DIR/trace.jsonl``.  ``--repeat K`` runs the
untraced pass K times on consecutive seeds and records every run, which is
what gives ``compare`` a spread to judge against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from benchmarks.ledger.compare import compare

_RUN = Path(__file__).with_name("run.py")


def _one(workload: str, seed: int, seconds: float, trace: int,
         out: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(_RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--out", str(out)],
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    print("\n".join(lines[:-1]))
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{workload} (trace {trace}) died:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads((out / f"{workload}.trace{trace}.json").read_text())


def spread(values: list) -> "float | None":
    """Interquartile distance as a share of the median (needs 4 runs)."""
    if len(values) < 4:
        return None
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def run_all(spec: dict, seed: int, seconds: float, repeat: int,
            out: Path) -> int:
    parts = out / "fragments"
    ledger = {"header": None, "workloads": {}}
    failed = 0
    with open(out / "trace.jsonl", "w") as trace_file:
        for w in spec["workloads"]:
            name = w["name"]
            runs = [_one(name, seed + k, seconds, 0, parts / f"run{k}")
                    for k in range(repeat)]
            layers = _one(name, seed, seconds, 1, parts)
            spans = parts / f"{name}.trace1.spans.jsonl"
            if spans.exists():
                trace_file.write(spans.read_text())
            end_to_end = runs[0]["rows"]
            for metric, row in end_to_end.items():
                values = [r["rows"][metric]["value"] for r in runs]
                row["runs"] = values
                row["value"] = statistics.median(values)
                row["spread"] = spread(values)
            attempted = sum(r["attempted"] for r in runs) + layers["attempted"]
            bad = sum(r["failed"] for r in runs) + layers["failed"]
            failed += bad
            ledger["header"] = ledger["header"] or runs[0]["header"]
            ledger["workloads"][name] = {
                "why": w["why"], "attempted": attempted, "failed": bad,
                "fail_share": bad / max(1, attempted),
                "failures": sum((r["failures"] for r in runs),
                                layers["failures"]),
                "end_to_end": end_to_end, "per_layer": layers["rows"],
            }
    ledger["header"]["repeat"] = repeat
    (out / "ledger.json").write_text(json.dumps(ledger, indent=1))
    print(f"wrote {out / 'ledger.json'} and {out / 'trace.jsonl'}")
    return 1 if failed else 0


def main(argv=None) -> int:
    from benchmarks.ledger.run import declared

    spec = declared()
    ap = argparse.ArgumentParser(prog="python3 -m benchmarks.ledger")
    sub = ap.add_subparsers(dest="verb", required=True)
    run = sub.add_parser("run", help="all workloads, both passes")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--out", type=Path, required=True)
    run.add_argument("--quick", action="store_true",
                     help="1/20 of the run length, for smoke use")
    run.add_argument("--repeat", type=int, default=1)
    cmp_ = sub.add_parser("compare", help="judge ledger B against ledger A")
    cmp_.add_argument("a", type=Path)
    cmp_.add_argument("b", type=Path)
    args = ap.parse_args(argv)

    if args.verb == "compare":
        return compare(json.loads(args.a.read_text()),
                       json.loads(args.b.read_text()), spec)
    seconds = spec["run_seconds"] / (20 if args.quick else 1)
    args.out.mkdir(parents=True, exist_ok=True)
    return run_all(spec, args.seed, seconds, args.repeat, args.out)


if __name__ == "__main__":
    sys.exit(main())
