"""Command-line interface.

    python -m repro info                       # environment & calibration
    python -m repro list                       # available experiments
    python -m repro run fig04 [fig17 ...]      # regenerate experiments
    python -m repro report [PATH]              # regenerate EXPERIMENTS.md's
                                               # figures (keeps hand sections)
    python -m repro translate-demo             # show a sample translation
    python -m repro cache stats                # persistent code-cache state
    python -m repro cache clear                # drop both cache tiers
    python -m repro cache evict                # enforce the LRU byte cap
    python -m repro jit stats [--json]         # JIT service counters/config
    python -m repro opt report [--json]        # mid-end pass before/after
    python -m repro trace summarize [FILE]     # per-phase span breakdown
    python -m repro trace export [FILE]        # Chrome/JSONL trace export
    python -m repro fuzz run                   # coverage-guided diff fuzzing
    python -m repro fuzz replay                # re-run the regression corpus
    python -m repro fuzz cov                   # guided-vs-random coverage
"""

from __future__ import annotations

import argparse
import sys


def cmd_info(args) -> int:
    """Print environment, backend, and workload summary."""
    import repro
    from repro.backends.cbackend.build import cc_version, compiler_available
    from repro.bench.workloads import current, paper_sizes

    print(f"repro {repro.__version__} — WootinJ reproduction "
          f"(Ioki & Chiba, PMAM/PPoPP 2014)")
    print(f"C compiler        : {cc_version()}")
    print(f"C backend         : {'available' if compiler_available() else 'unavailable (py fallback)'}")
    print(f"workload sizes    : {'paper' if paper_sizes() else 'CI (REPRO_PAPER_SIZES=1 for paper sizes)'}")
    w = current()
    print(f"  diffusion single: {w.diff_nx}x{w.diff_ny}x{w.diff_nzg} x{w.diff_steps} steps")
    print(f"  matmul single   : {w.mm_n}^3")
    if args.calibrate:
        from repro.mpi.calibrate import callback_entry_overhead

        print(f"callback overhead : {callback_entry_overhead()*1e6:.2f} us "
              f"(deducted per runtime op)")
    return 0


def _figure_table() -> dict:
    from repro.bench import figures

    return {
        name: getattr(figures, name)
        for name in figures.__all__
        if name not in ("all_experiments",)
    }


def cmd_list(args) -> int:
    """List the regenerable experiments with their one-line captions."""
    for name, fn in sorted(_figure_table().items()):
        doc = (fn.__doc__ or "").strip().splitlines()[0]
        print(f"{name:10s} {doc}")
    return 0


def cmd_run(args) -> int:
    """Run the named experiments and print/save their series."""
    from repro.bench.harness import save_series

    table = _figure_table()
    unknown = [e for e in args.experiments if e not in table]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        print(f"available: {sorted(table)}", file=sys.stderr)
        return 2
    for name in args.experiments:
        series = table[name]()
        save_series(series)
        print(series.render())
    return 0


def cmd_report(args) -> int:
    """Regenerate EXPERIMENTS.md's figures; its hand-recorded sections
    are kept."""
    from repro.bench.report import main as report_main

    report_main(args.path)
    return 0


def cmd_translate_demo(args) -> int:
    """Translate a sample library program and print the generated code."""
    from repro import jit
    from repro.library.stencil import (
        EmptyContext, SineGen, StencilCPU3D, ThreeDIndexer,
    )
    from repro.library.stencil.config import make_dif3d_solver, make_grid3d

    app = StencilCPU3D(
        make_dif3d_solver(), make_grid3d(8, 8, 6), ThreeDIndexer(8, 8, 6),
        SineGen(8, 8, 4, 1), EmptyContext(),
    )
    code = jit(app, "run", 2, backend=args.backend, use_cache=False)
    print(code.source)
    print(f"// {code.report.n_specializations} specializations, "
          f"opt stats: {code.report.opt_stats}", file=sys.stderr)
    return 0


def cmd_cache(args) -> int:
    """Inspect, clear, or evict the persistent translated-code cache."""
    import json
    import os

    if args.dir:
        os.environ["REPRO_CACHE_DIR"] = args.dir
    from repro.jit import cache as code_cache

    if args.action == "clear":
        from repro.jit.engine import clear_code_cache

        removed = clear_code_cache()
        print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'} "
              f"from {code_cache.cache_dir()}")
        return 0

    if args.action == "evict":
        cap_override = (int(args.cap_mb * 1024 * 1024)
                        if args.cap_mb is not None else None)
        report = code_cache.evict(cap_bytes=cap_override)
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
            return 0
        cap = report["cap_bytes"]
        print(f"cap            : "
              + (f"{cap / (1024 * 1024):.1f} MiB" if cap else
                 "unbounded (REPRO_DISK_CACHE_MAX_MB unset)"))
        print(f"evicted        : {report['evicted']} entries "
              f"({report['bytes_freed'] / 1024:.1f} KiB freed)")
        print(f"tmp swept      : {report['tmp_swept']} stale files")
        print(f"remaining      : {report['entries']} entries, "
              f"{report['bytes'] / 1024:.1f} KiB")
        return 0

    st = code_cache.stats()
    if args.json:
        print(json.dumps(st, indent=2, sort_keys=True))
        return 0
    cap = st["disk_cap_bytes"]
    print(f"cache dir      : {st['dir']}")
    print(f"disk tier      : {'enabled' if st['disk_enabled'] else 'disabled (REPRO_DISK_CACHE=0)'}")
    print(f"disk cap       : "
          + (f"{cap / (1024 * 1024):.1f} MiB (LRU eviction on store)" if cap
             else "unbounded (REPRO_DISK_CACHE_MAX_MB to cap)"))
    print(f"disk entries   : {st['disk_entries']}"
          + (f"  ({', '.join(f'{k}: {v}' for k, v in sorted(st['disk_by_kind'].items()))})"
             if st['disk_by_kind'] else ""))
    print(f"disk footprint : {st['disk_bytes'] / 1024:.1f} KiB")
    if st.get("evictions") or st.get("bytes_evicted"):
        print(f"evictions      : {st['evictions']} entries "
              f"({st['bytes_evicted'] / 1024:.1f} KiB reclaimed)")
    if st["hit_age_min_s"] is not None:
        print(f"hit age        : {st['hit_age_min_s']:.0f} s (hottest) .. "
              f"{st['hit_age_max_s']:.0f} s (coldest)")
    print(f"tmp files      : {st['tmp_files']}"
          + (f"  (swept {st['tmp_swept']} this process)" if st['tmp_swept']
             else ""))
    print(f"memory entries : {st['memory_entries']}")
    return 0


def cmd_jit(args) -> int:
    """Show the JIT service configuration and per-phase counters."""
    import json

    from repro.jit import cache as code_cache
    from repro.jit import service

    st = service.stats()
    # per-slot list/ndarray decisions of every py artifact in the disk tier
    py_slots = code_cache.py_slot_decisions()
    if args.json:
        print(json.dumps({**st, "py_slots": py_slots}, indent=2,
                         sort_keys=True))
        return 0
    print(f"requests         : {st['requests']}")
    print(f"compiles         : {st['compiles']}")
    print(f"dedup hits       : {st['dedup_hits']}  "
          f"(in-flight waits: {st['inflight_waits']}, "
          f"{st['inflight_wait_s']:.3f} s blocked)")
    print(f"farm (x-process) : lock waits {st['farm_lock_waits']} "
          f"({st['farm_lock_wait_s']:.3f} s blocked, "
          f"{st['farm_lock_timeouts']} timeouts), "
          f"dedup hits {st['farm_dedup_hits']}")
    for digest, slots in sorted(py_slots.items()):
        print(f"py slots {digest[:12]}: "
              + (", ".join(f"{k}={v}" for k, v in slots.items())
                 or "no array slots"))
    return 0


def cmd_opt(args) -> int:
    """Report the mid-end pipeline's effect on the demo programs."""
    import json

    from repro.opt import report as opt_report

    data = opt_report.collect()
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
        return 0
    print(opt_report.render(data))
    print(opt_report.render_timings(data))
    return 0


def _trace_demo() -> list:
    """JIT + invoke the sample diffusion stencil under tracing; prints the
    request's ``JitReport`` total and returns the recorded spans (as
    dicts)."""
    from repro import jit
    from repro.library.stencil import (
        EmptyContext, SineGen, StencilCPU3D, ThreeDIndexer,
    )
    from repro.library.stencil.config import make_dif3d_solver, make_grid3d
    from repro.obs import trace

    was_enabled = trace.enabled()
    trace.enable()
    trace.clear()
    app = StencilCPU3D(
        make_dif3d_solver(), make_grid3d(8, 8, 6), ThreeDIndexer(8, 8, 6),
        SineGen(8, 8, 4, 1), EmptyContext(),
    )
    code = jit(app, "run", 2)
    code.invoke()
    spans = [s.as_dict() for s in trace.spans()]
    if not was_enabled:
        trace.disable()

    r = code.report
    invoke_s = sum(s["dur_s"] for s in spans if s["name"] == "jit.invoke")
    print("== trace demo: diffusion stencil jit() + invoke() ==")
    print(f"cache        : {'hit (' + r.cache_tier + ' tier)' if r.cache_hit else 'miss (cold compile)'}")
    print(f"JitReport    : {r.total_s:.6f} s total")
    print(f"invoke wall  : {invoke_s:.6f} s")
    print()
    return spans


def cmd_trace(args) -> int:
    """Summarize or export tracing spans (no FILE: trace a live demo run)."""
    from repro.obs import export as trace_export

    if args.file:
        records = trace_export.load_jsonl(args.file)
    else:
        records = _trace_demo()
    if args.action == "export":
        out = args.out or ("trace.json" if args.format == "chrome"
                           else "trace.jsonl")
        if args.format == "chrome":
            n = trace_export.write_chrome(records, out)
        else:
            n = trace_export.write_jsonl(records, out)
        print(f"wrote {n} spans to {out} ({args.format} format)")
        return 0
    print(trace_export.render_summary(records))
    return 0


def _fuzz_backends(args) -> list | None:
    return args.backends.split(",") if args.backends else None


def cmd_fuzz(args) -> int:
    """Differential-fuzzer front end: fuzz, replay the corpus, or compare
    guided vs random coverage under the same budget."""
    import json

    from repro.fuzz import DiffRunner, FuzzSession, load_entries, replay_entry

    if args.action == "run":
        session = FuzzSession(seed=args.seed, budget=args.budget,
                              mode=args.mode,
                              backends=_fuzz_backends(args),
                              corpus_dir=args.corpus,
                              minimize=not args.no_minimize,
                              progress=None if args.json else print)
        stats = session.run()
        summary = {
            "mode": stats.mode, "seed": args.seed,
            "executed": stats.executed, "interesting": stats.interesting,
            "findings": len(stats.findings),
            "signatures": sorted({f.signature for f in stats.findings}),
            "arcs_total": stats.arcs_total,
            "arcs_by_file": stats.arcs_by_file,
            "backends": stats.backends,
            "elapsed_s": round(stats.elapsed, 2),
        }
        if args.json:
            print(json.dumps(summary, indent=2))
        else:
            print(f"fuzz run: {stats.executed} programs, mode={stats.mode}, "
                  f"backends={','.join(stats.backends)}, "
                  f"{stats.elapsed:.1f}s")
            print(f"coverage: {stats.arcs_total} arcs {stats.arcs_by_file}")
            print(f"findings: {len(stats.findings)}"
                  + (" — reproducers saved to "
                     f"{args.corpus}" if stats.findings else ""))
        return 1 if stats.findings else 0

    if args.action == "replay":
        entries = load_entries(args.corpus)
        if not entries:
            print(f"no corpus entries under {args.corpus}")
            return 0
        runner = DiffRunner(backends=_fuzz_backends(args))
        failed = []
        for entry in entries:
            res = replay_entry(runner, entry)
            status = "ok" if res.ok else "FAIL"
            print(f"  {entry.name}: {status}"
                  + (f" ({', '.join(res.divergent)})" if res.divergent
                     else ""))
            if not res.ok:
                failed.append(entry.name)
        print(f"replayed {len(entries)} entries, {len(failed)} failing")
        return 1 if failed else 0

    # action == "cov": same seed and budget, guided grammar+feedback vs the
    # legacy random baseline; guided must reach strictly more arcs.
    guided = FuzzSession(seed=args.seed, budget=args.budget, mode="guided",
                         backends=_fuzz_backends(args), minimize=False).run()
    rand = FuzzSession(seed=args.seed, budget=args.budget, mode="random",
                       backends=_fuzz_backends(args), minimize=False).run()
    report = {
        "budget": args.budget, "seed": args.seed,
        "guided": {"arcs_total": guided.arcs_total,
                   "arcs_by_file": guided.arcs_by_file,
                   "findings": len(guided.findings)},
        "random": {"arcs_total": rand.arcs_total,
                   "arcs_by_file": rand.arcs_by_file,
                   "findings": len(rand.findings)},
        "guided_beats_random": guided.arcs_total > rand.arcs_total,
    }
    ok = report["guided_beats_random"]
    baseline_arcs = None
    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        baseline_arcs = baseline["min_guided_arcs"]
        report["baseline_min_guided_arcs"] = baseline_arcs
        ok = ok and guided.arcs_total >= baseline_arcs
        file_floors = baseline.get("min_arcs_by_file", {})
        report["baseline_min_arcs_by_file"] = file_floors
        ok = ok and all(guided.arcs_by_file.get(label, 0) >= floor
                        for label, floor in file_floors.items())
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"coverage under a {args.budget}-program budget "
              f"(seed {args.seed}):")
        print(f"  guided : {guided.arcs_total:5d} arcs "
              f"{guided.arcs_by_file}")
        print(f"  random : {rand.arcs_total:5d} arcs {rand.arcs_by_file}")
        if baseline_arcs is not None:
            print(f"  baseline floor: {baseline_arcs} arcs {file_floors}")
        print(f"  guided beats random: {report['guided_beats_random']}")
    divergences = guided.findings + rand.findings
    if divergences:
        print(f"  WARNING: {len(divergences)} divergences found during "
              "the comparison")
        return 1
    return 0 if ok else 1


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="environment summary")
    p_info.add_argument("--calibrate", action="store_true",
                        help="also run the callback-overhead calibration")
    p_info.set_defaults(fn=cmd_info)

    p_list = sub.add_parser("list", help="list experiments")
    p_list.set_defaults(fn=cmd_list)

    p_run = sub.add_parser("run", help="run experiments by id")
    p_run.add_argument("experiments", nargs="+")
    p_run.set_defaults(fn=cmd_run)

    p_rep = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    p_rep.add_argument("path", nargs="?", default="EXPERIMENTS.md")
    p_rep.set_defaults(fn=cmd_report)

    p_demo = sub.add_parser("translate-demo",
                            help="print a sample translation")
    p_demo.add_argument("--backend", default="auto",
                        choices=["auto", "c", "py"])
    p_demo.set_defaults(fn=cmd_translate_demo)

    p_cache = sub.add_parser("cache", help="persistent code-cache maintenance")
    p_cache.add_argument("action", choices=["stats", "clear", "evict"])
    p_cache.add_argument("--dir", default=None,
                         help="cache directory (default: REPRO_CACHE_DIR or "
                              "~/.cache/repro-wootinj)")
    p_cache.add_argument("--cap-mb", type=float, default=None,
                         help="evict: cap override in MiB (default: "
                              "REPRO_DISK_CACHE_MAX_MB)")
    p_cache.add_argument("--json", action="store_true",
                         help="machine-readable output (scripts)")
    p_cache.set_defaults(fn=cmd_cache)

    p_jit = sub.add_parser("jit", help="JIT service counters and config")
    p_jit.add_argument("action", choices=["stats"])
    p_jit.add_argument("--json", action="store_true",
                       help="machine-readable output (scripts)")
    p_jit.set_defaults(fn=cmd_jit)

    p_opt = sub.add_parser("opt", help="mid-end optimizer pass report")
    p_opt.add_argument("action", choices=["report"])
    p_opt.add_argument("--json", action="store_true",
                       help="machine-readable output (scripts)")
    p_opt.set_defaults(fn=cmd_opt)

    p_trace = sub.add_parser("trace",
                             help="tracing spans: summarize or export")
    p_trace.add_argument("action", choices=["summarize", "export"])
    p_trace.add_argument("file", nargs="?", default=None,
                         help="trace JSONL to read (default: run the "
                              "diffusion-stencil demo under tracing)")
    p_trace.add_argument("--format", choices=["chrome", "jsonl"],
                         default="chrome",
                         help="export format (chrome: load in "
                              "chrome://tracing or Perfetto)")
    p_trace.add_argument("-o", "--out", default=None,
                         help="export output path (default: trace.json / "
                              "trace.jsonl)")
    p_trace.set_defaults(fn=cmd_trace)

    p_fuzz = sub.add_parser("fuzz",
                            help="coverage-guided differential guest fuzzer")
    p_fuzz.add_argument("action", choices=["run", "replay", "cov"])
    p_fuzz.add_argument("--seed", type=int, default=20140207,
                        help="master RNG seed (default: 20140207)")
    p_fuzz.add_argument("--budget", type=int, default=60,
                        help="number of generated programs (default: 60)")
    p_fuzz.add_argument("--mode", choices=["guided", "random"],
                        default="guided",
                        help="guided = full grammar + coverage feedback; "
                        "random = legacy-shaped baseline")
    p_fuzz.add_argument("--backends", default=None,
                        help="comma-separated backend list (default: py "
                        "plus c when a compiler is present)")
    p_fuzz.add_argument("--corpus", default="tests/fuzz_corpus",
                        help="regression-corpus directory")
    p_fuzz.add_argument("--baseline", default=None,
                        help="cov: JSON file with a min_guided_arcs floor")
    p_fuzz.add_argument("--no-minimize", action="store_true",
                        help="skip test-case minimization on findings")
    p_fuzz.add_argument("--json", action="store_true",
                        help="machine-readable output")
    p_fuzz.set_defaults(fn=cmd_fuzz)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
