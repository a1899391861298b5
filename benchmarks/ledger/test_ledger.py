"""Smoke test of the ledger on two ``--quick`` runs (about two minutes).

Run explicitly — tier-1's ``testpaths`` stays ``tests/``::

    python3 -m pytest benchmarks/ledger/test_ledger.py
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _quick(out: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger", "run", "--seed", "7",
         "--out", str(out), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads((out / "ledger.json").read_text())


@pytest.fixture(scope="module")
def ledgers(tmp_path_factory):
    base = tmp_path_factory.mktemp("ledger")
    return _quick(base / "a"), _quick(base / "b")


def test_declared_names_are_well_formed():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(_NAME.fullmatch(n) for n in names)
    from benchmarks.ledger.stats import FULL_RUN_SECONDS

    assert FULL_RUN_SECONDS == SPEC["run_seconds"]


def test_printed_set_equals_declared_set(ledgers):
    for ledger in ledgers:
        assert set(ledger["workloads"]) == {w["name"] for w in SPEC["workloads"]}
        for rows in ledger["workloads"].values():
            assert set(rows["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
            assert set(rows["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}


def test_nothing_failed(ledgers):
    for ledger in ledgers:
        for name, rows in ledger["workloads"].items():
            assert rows["fail_share"] == 0, (name, rows["failures"])


def test_exact_counts_repeat(ledgers):
    a, b = ledgers
    for name in a["workloads"]:
        for metric, row in a["workloads"][name]["per_layer"].items():
            if row["unit"] in ("count", "bytes"):
                other = b["workloads"][name]["per_layer"][metric]
                assert row["value"] == other["value"], (name, metric)


def test_layers_sum_to_the_end_to_end_number(ledgers):
    # a replay that drifted from the real path reads out of range every
    # time; at 1/20 length a slow spell of the machine can do so once
    for workload, metric in (("compile-tiers", "bench.layers_over_e2e_jit"),
                             ("tiny-invoke", "bench.layers_over_e2e_invoke")):
        values = [ledger["workloads"][workload]["per_layer"][metric]["value"]
                  for ledger in ledgers]
        assert any(0.85 <= v <= 1.15 for v in values), (metric, values)
