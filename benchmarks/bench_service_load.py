"""Multi-process load test for the compile farm (JIT service under fire).

K worker *processes* hammer the JIT service against one shared disk cache:
a **cold** pass where every worker races the same never-compiled keys (the
farm's cross-process single-flight must collapse them to one compile per
key), then a **warm** pass with K fresh processes that must all be served
from the disk tier without compiling at all.  Between the passes the hot
keys can optionally be re-warmed from a generated warmup manifest
(``--manifest``), exercising the ``repro cache warm`` deployment path.

Latencies are recorded through the observability metrics registry
(``bench.service.*`` histograms) and the snapshot is persisted as
machine-readable ``results/BENCH_service.json`` — p50/p99 first-result
latency per pass, compiles-per-key, cache hit ratio.  The script is its
own CI gate: it exits nonzero when the cold pass compiles a key more than
once (cross-process single-flight broken) or the warm pass compiles at all
(disk tier broken).

Run it directly for the full knob set::

    PYTHONPATH=src python benchmarks/bench_service_load.py \
        --procs 4 --keys 2 --cap-mb 64 --backend py

or via pytest (small smoke configuration): it is collected with the other
benches.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

RESULTS = Path(__file__).parent / "results"
SRC_ROOT = str(Path(__file__).resolve().parents[1] / "src")

#: manifest-compatible hot-key specs the workers compile; sizes keep one
#: py-backend compile under a second while staying a real program
KEY_SPECS = [
    {"factory": "repro.library.cgsolve.config:make_solver",
     "factory_args": [6, 6], "factory_kwargs": {"precond": "jacobi"},
     "method": "solve", "args": [25]},
    {"factory": "repro.library.montecarlo.config:make_pricer",
     "factory_args": [400], "factory_kwargs": {"kind": "call"},
     "method": "run", "args": [400]},
    {"factory": "repro.library.nbody.config:make_system",
     "factory_args": [12],
     "factory_kwargs": {"force": "gravity", "integ": "kickdrift"},
     "method": "run", "args": [2]},
]

#: executed in each worker process: compile every assigned key through the
#: service, report first-result latency + the farm/service counters
_WORKER = r"""
import json, sys, time
from repro.backends.base import OptLevel
from repro.jit import service
from repro.jit.engine import jit
from repro.jit.warmup import ManifestEntry

spec = json.loads(sys.stdin.read())
out = {"keys": [], "stats": None}
for raw in spec["keys"]:
    entry = ManifestEntry.from_dict(raw)
    receiver = entry.build_receiver()
    t0 = time.perf_counter()
    code = jit(receiver, entry.method, *entry.args,
               backend=raw["backend"], opt=OptLevel(raw["opt"]))
    first_result_s = time.perf_counter() - t0
    r = code.report
    out["keys"].append({
        "target": entry.target,
        "first_result_s": first_result_s,
        "cache_hit": r.cache_hit,
        "cache_tier": r.cache_tier,
        "farm_dedup": r.farm_dedup,
        "farm_wait_s": r.farm_wait_s,
        "value": float(code.invoke().value),
    })
out["stats"] = service.stats()
print(json.dumps(out))
"""


def _child_env(cache_dir: str) -> dict:
    """Environment for a child process working against ``cache_dir``."""
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = cache_dir
    # the cc object cache is machine-wide by default: left alone, it serves
    # every "cold" C pass after the first one ever run on this machine
    env["REPRO_CC_CACHE"] = str(Path(cache_dir) / "cc")
    env["PYTHONPATH"] = f"{SRC_ROOT}{os.pathsep}{env.get('PYTHONPATH', '')}"
    return env


def _spawn_workers(n_procs: int, keys: list, cache_dir: str,
                   backend: str, opt: str, cap_mb: float) -> list[dict]:
    """Launch ``n_procs`` workers at once against one cache dir; returns
    each worker's parsed report (raises on any worker failure)."""
    env = _child_env(cache_dir)
    if cap_mb > 0:
        env["REPRO_DISK_CACHE_MAX_MB"] = str(cap_mb)
    payload = json.dumps({
        "keys": [dict(k, backend=backend, opt=opt) for k in keys],
    })
    procs = [
        subprocess.Popen([sys.executable, "-c", _WORKER],
                         stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, env=env)
        for _ in range(n_procs)
    ]
    reports = []
    for p in procs:
        out, err = p.communicate(payload, timeout=600)
        if p.returncode != 0:
            for q in procs:
                if q.poll() is None:
                    q.kill()
            raise RuntimeError(f"load worker failed:\n{err[-4000:]}")
        reports.append(json.loads(out.strip().splitlines()[-1]))
    return reports


def _pass_summary(reports: list[dict], reg, hist_name: str) -> dict:
    """Aggregate one pass: latency percentiles via the obs histogram,
    compiles-per-key from the per-process service counters, hit ratio."""
    hist = reg.histogram(hist_name)
    requests = 0
    hits = 0
    by_key_compiles: dict[str, int] = {}
    farm_dedups = 0
    for rep in reports:
        for k in rep["keys"]:
            requests += 1
            hist.observe(k["first_result_s"])
            hits += bool(k["cache_hit"])
            farm_dedups += bool(k["farm_dedup"])
            by_key_compiles.setdefault(k["target"], 0)
    # every compile a worker ran shows up in its own service counters;
    # attribute them per key via the per-entry report (cache_hit False
    # and not farm-deduped == this worker translated+compiled the key)
    for rep in reports:
        for k in rep["keys"]:
            if not k["cache_hit"] and not k["farm_dedup"]:
                by_key_compiles[k["target"]] += 1
    total_compiles = sum(r["stats"]["compiles"] for r in reports)
    n_keys = max(1, len(by_key_compiles))
    return {
        "processes": len(reports),
        "requests": requests,
        "hit_ratio": hits / requests if requests else 0.0,
        "farm_dedup_hits": farm_dedups,
        "total_compiles": total_compiles,
        "compiles_per_key": total_compiles / n_keys,
        "max_compiles_one_key": max(by_key_compiles.values(), default=0),
        "by_key_compiles": by_key_compiles,
        "p50_first_result_s": hist.percentile(50),
        "p99_first_result_s": hist.percentile(99),
        "mean_first_result_s": hist.mean,
        "farm_lock_waits": sum(r["stats"]["farm_lock_waits"]
                               for r in reports),
        "farm_lock_wait_s": sum(r["stats"]["farm_lock_wait_s"]
                                for r in reports),
    }


def run_load(n_procs: int = 4, n_keys: int = 2, backend: str = "py",
             opt: str = "full", cap_mb: float = 64.0,
             cache_dir: "str | None" = None, manifest: bool = False,
             out_path: "str | Path | None" = None) -> dict:
    """Drive the cold and warm passes and write ``BENCH_service.json``.

    Returns the report dict; gate failures are under ``report["gates"]``
    (the CLI turns them into a nonzero exit)."""
    import tempfile

    from repro.obs.metrics import registry

    keys = KEY_SPECS[:max(1, min(n_keys, len(KEY_SPECS)))]
    tmp = None
    if cache_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-farm-bench-")
        cache_dir = tmp.name
    reg = registry()
    reg.reset("bench.service")
    try:
        t0 = time.perf_counter()
        cold = _spawn_workers(n_procs, keys, cache_dir, backend, opt, cap_mb)
        cold_sum = _pass_summary(cold, reg, "bench.service.cold_first_result_s")
        reg.gauge("bench.service.cold_pass_wall_s").set(
            time.perf_counter() - t0)

        warmed = None
        if manifest:
            from repro.jit.warmup import ManifestEntry, warm, write_manifest

            man_path = Path(cache_dir) / "warmup-manifest.json"
            write_manifest(man_path, [
                ManifestEntry.from_dict(dict(k, backend=backend, opt=opt))
                for k in keys
            ])
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "cache", "warm",
                 str(man_path), "--json"],
                capture_output=True, text=True, env=_child_env(cache_dir),
                timeout=600)
            if proc.returncode != 0:
                raise RuntimeError(f"cache warm failed:\n{proc.stderr[-2000:]}")
            warmed = json.loads(proc.stdout)

        t1 = time.perf_counter()
        warm_reports = _spawn_workers(n_procs, keys, cache_dir, backend, opt,
                                      cap_mb)
        warm_sum = _pass_summary(warm_reports, reg,
                                 "bench.service.warm_first_result_s")
        reg.gauge("bench.service.warm_pass_wall_s").set(
            time.perf_counter() - t1)
    finally:
        if tmp is not None:
            tmp.cleanup()

    # the hard gates this harness exists to enforce
    gates = {}
    if cold_sum["max_compiles_one_key"] > 1:
        gates["cold_single_flight"] = (
            f"a key compiled {cold_sum['max_compiles_one_key']}x cold "
            f"(cross-process single-flight broken)")
    if warm_sum["compiles_per_key"] > 1:
        gates["warm_compiles"] = (
            f"warm pass compiled {warm_sum['compiles_per_key']:.2f}x per "
            f"key (disk tier not serving)")
    if warm_sum["total_compiles"] > 0:
        gates.setdefault("warm_compiles", (
            f"warm pass ran {warm_sum['total_compiles']} compiles "
            f"(expected 0: every worker should hit the disk tier)"))

    report = {
        "config": {"processes": n_procs, "keys": [k["factory"] for k in keys],
                   "backend": backend, "opt": opt, "cap_mb": cap_mb,
                   "manifest_warmed": bool(manifest)},
        "cold": cold_sum,
        "warm": warm_sum,
        "manifest": warmed,
        "gates": gates,
        "metrics": reg.snapshot("bench.service"),
    }
    if out_path is None:
        RESULTS.mkdir(exist_ok=True)
        out_path = RESULTS / "BENCH_service.json"
    Path(out_path).write_text(json.dumps(report, indent=2, sort_keys=True)
                              + "\n")
    report["out_path"] = str(out_path)
    return report


def _render(report: dict) -> str:
    lines = [f"compile-farm load test "
             f"({report['config']['processes']} procs, "
             f"{len(report['config']['keys'])} keys, "
             f"backend={report['config']['backend']})"]
    for name in ("cold", "warm"):
        s = report[name]
        p50 = s["p50_first_result_s"]
        p99 = s["p99_first_result_s"]
        lines.append(
            f"  {name:4s}: p50 {p50 * 1e3:8.1f} ms   p99 {p99 * 1e3:8.1f} ms"
            f"   compiles/key {s['compiles_per_key']:.2f}"
            f"   hit ratio {s['hit_ratio']:.2f}"
            f"   farm dedups {s['farm_dedup_hits']}")
    for gate, msg in report["gates"].items():
        lines.append(f"  GATE FAILED [{gate}]: {msg}")
    lines.append(f"  [saved to {report['out_path']}]")
    return "\n".join(lines)


def test_service_load(capsys):
    """Pytest smoke configuration: 4 processes, 2 keys, tiny cap."""
    report = run_load(n_procs=4, n_keys=2, backend="py", cap_mb=64.0,
                      manifest=True)
    with capsys.disabled():
        print()
        print(_render(report))
    assert not report["gates"], report["gates"]
    assert report["cold"]["p99_first_result_s"] is not None
    # the manifest warm ran between the passes: nothing left to compile
    assert report["manifest"]["errors"] == []
    assert report["warm"]["hit_ratio"] == 1.0


def main(argv=None) -> int:
    """CLI entry point (the CI smoke job drives this)."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--procs", type=int, default=4,
                    help="concurrent worker processes (default 4)")
    ap.add_argument("--keys", type=int, default=2,
                    help="distinct hot keys per pass (default 2, max "
                         f"{len(KEY_SPECS)})")
    ap.add_argument("--backend", default="py", choices=["py", "c", "auto"],
                    help="JIT backend workers request (default py)")
    ap.add_argument("--opt", default="full",
                    help="opt level (default full)")
    ap.add_argument("--cap-mb", type=float, default=64.0,
                    help="REPRO_DISK_CACHE_MAX_MB for the workers")
    ap.add_argument("--manifest", action="store_true",
                    help="re-warm via a generated warmup manifest between "
                         "the passes (exercises `repro cache warm`)")
    ap.add_argument("--cache-dir", default=None,
                    help="shared cache dir (default: fresh temp dir)")
    ap.add_argument("-o", "--out", default=None,
                    help="output JSON path (default "
                         "benchmarks/results/BENCH_service.json)")
    args = ap.parse_args(argv)
    report = run_load(n_procs=args.procs, n_keys=args.keys,
                      backend=args.backend, opt=args.opt, cap_mb=args.cap_mb,
                      cache_dir=args.cache_dir, manifest=args.manifest,
                      out_path=args.out)
    print(_render(report))
    return 1 if report["gates"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
