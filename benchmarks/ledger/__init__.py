"""The repo's one performance ledger (see README.md beside this file).

Five workloads, eight gated end-to-end metrics and a per-layer breakdown
that sums to them.  Nothing here is imported by ``repro``; every layer is
timed from outside through its public functions.

Entry points:

* ``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S
  --trace 0|1`` — one workload, one pass; the last stdout line is the
  result object ``BENCHMARK.json`` describes;
* ``python3 -m benchmarks.ledger run --seed N --out DIR`` — every workload,
  both passes, one ledger JSON plus ``trace.jsonl``;
* ``python3 -m benchmarks.ledger compare A.json B.json``.
"""
