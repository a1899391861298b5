"""The untraced pass: end-to-end metrics through ``jit*()`` and
``JitCode.invoke()`` only.

One process, one driver thread, closed loop, one request in flight.  A run
is a fixed number of *rounds* (``Workload.rounds``), each one whole
lifecycle on fresh cache directories: set-up with the cold ``jit`` of
every program, memory-tier hits, disk-tier hits, warm invokes interleaved
with the reference, and one cold and one disk-warm fresh interpreter.
Expensive operations happen once per round; cheap ones fill a time slice
(``Workload.shares`` of ``--seconds``, divided by the rounds).  Spreading
every metric's samples over the whole run this way keeps a slow spell of the
machine from landing on one metric alone.

Beside each operation the round times independent work of the same nature
(``guests.ref_py``, ``ref_cc``, ``BARE_CHILD``; for ``invoke`` the workload's
own reference), and every gated time is the ratio of the two: the reference
box changes speed as a whole for minutes at a time, which an absolute time
follows and a ratio taken inside one run does not (``README.md`` has the
measurements).

Every timing row carries ``value`` (what the gate compares), ``median``,
``tail``, ``tail_pct`` and ``n``; see ``stats.steady`` for why ``value`` is
a low percentile.  A ratio row carries ``value``, ``median``, ``n``, the name
of its ``base`` and both timing rows, in seconds (``num_s``, ``base_s``).
Where a workload has several programs a timing row is the sum of the
per-program rows, kept under ``by_program``.
"""

from __future__ import annotations

import json
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

from repro.jit import cache, service

from benchmarks.ledger.guests import (
    BARE_CHILD, CRef, Guest, Workload, compile_guest, interp, ref_cc, ref_py,
    same,
)
from benchmarks.ledger.hermetic import Scratch
from benchmarks.ledger.stats import (
    Budget, Tally, floor_count, summarize, total,
)

_CHILD = Path(__file__).with_name("child.py")

#: relative tolerance of a full-size diffusion checksum against hand-written
#: C (f32 sweeps, the two programs associate the seven-point sum differently)
CREF_TOL = 1e-4


# ---------------------------------------------------------------------------
# correctness oracle
# ---------------------------------------------------------------------------

def expected_values(workload: Workload, seed: int, scratch: Scratch,
                    tally: Tally) -> dict:
    """``{program: (value, rel_tol)}`` each full-size result must match.

    A program CPython can execute is checked against that execution at its
    own size.  A larger one is first checked at a reduced size against
    CPython, then at full size against hand-written C on the same grid."""
    out = {}
    for guest in workload.guests:
        small = guest.reduced or guest
        want, _ = interp(small, small.make(seed))
        if guest.reduced is None:
            out[guest.name] = (want, guest.rel_tol)
            continue
        scratch.fresh_caches()
        got = compile_guest(small, small.make(seed)).invoke().value
        tally.check(same(got, want, small.rel_tol),
                    f"{small.name}: {got!r} != CPython {want!r}")
        out[guest.name] = (CRef(guest.grid, seed).run()[0], CREF_TOL)
    return out


class Checked:
    """A compiled program whose every result is compared: the first against
    the independent reference, each later one against the first."""

    def __init__(self, guest: Guest, code, expect: tuple, tally: Tally):
        self.guest, self.code, self.tally = guest, code, tally
        self.first = code.invoke().value
        tally.check(same(self.first, *expect),
                    f"{guest.name}: {self.first!r} != reference {expect[0]!r}")

    def timed_invoke(self) -> float:
        t0 = time.perf_counter()
        value = self.code.invoke().value
        dt = time.perf_counter() - t0
        self.tally.check(same(value, self.first, self.guest.repeat_tol),
                         f"{self.guest.name}: result changed to {value!r}")
        return dt


# ---------------------------------------------------------------------------
# one round
# ---------------------------------------------------------------------------

class Samples:
    """Sample lists of every timed operation: one list per program where the
    operation belongs to a program, one for the run where it does not."""

    def __init__(self, n_programs: int):
        for name in ("setup", "child_cold", "child_disk", "child_bare",
                     "ref_cc", "ref_py"):
            setattr(self, name, [])
        for name in ("cold", "disk", "warm", "invoke", "ref"):
            setattr(self, name, [[] for _ in range(n_programs)])


def timed_cold_jit(guest, objs, nth: int, samples: list, tally):
    """``jit()`` that neither cache tier nor the cc artifact cache can serve:
    miss + lock + translate + cc + store.  ``nth`` is how many compiles the
    round's fresh directories have now seen; a sample that anything served
    warm counts as failed."""
    t0 = time.perf_counter()
    code = compile_guest(guest, objs)
    samples.append(time.perf_counter() - t0)
    report = code.report
    tally.check(
        not report.cache_hit and report.build_stats.get("mode") != "cached"
        and service.stats()["compiles"] == nth,
        f"{guest.name}: cold sample was served warm "
        f"({report.cache_tier or report.build_stats.get('mode')})")
    return code


def tier_slice(guest, objs, tier: str, seconds: float, min_n: int,
               samples: list, ref_samples: list, tally) -> None:
    """``jit()`` served by one tier of the cache the cold compile just
    populated: ``disk`` clears the memory tier before every sample
    (validate + hydrate), ``memory`` leaves it (rebind).  Every fourth
    sample is followed by one of the CPython reference loop."""
    if tier == "memory":
        compile_guest(guest, objs)  # another program's disk slice cleared it
    budget = Budget(seconds, min_n)
    while budget.more():
        if tier == "disk":
            cache.clear_memory()
        t0 = time.perf_counter()
        code = compile_guest(guest, objs)
        samples.append(time.perf_counter() - t0)
        tally.check(code.report.cache_tier == tier,
                    f"{guest.name}: {tier} sample served by "
                    f"{code.report.cache_tier or 'a compile'}")
        if budget.n % 4 == 0:
            ref_samples.append(ref_py())


def invoke_slice(workload, seed, codes, cref, seconds, min_n, rng,
                 out: Samples) -> None:
    """Warm ``invoke()`` interleaved with the independent reference, block
    by block; program order and the order inside a block come from the
    seed."""
    guests = workload.guests
    budget = Budget(seconds, min_n)
    while budget.more():
        for i in rng.sample(range(len(guests)), len(guests)):
            todo = [True] * workload.inv_block + [False] * workload.ref_block
            if workload.inv_block == workload.ref_block == 1:
                rng.shuffle(todo)
            elif rng.random() < 0.5:
                todo.reverse()
            for is_invoke in todo:
                if is_invoke:
                    out.invoke[i].append(codes[i].timed_invoke())
                elif cref is not None:
                    out.ref[i].append(cref.run()[1])
                else:
                    out.ref[i].append(
                        interp(guests[i], guests[i].make(seed))[1])


def timed_child(argv, scratch, dirs, samples):
    """A fresh interpreter, timed from spawn to exit; returns its last
    stdout line parsed, or ``None`` (noted in ``samples`` all the same)."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=scratch.child_env(dirs),
                          capture_output=True, text=True, timeout=170)
    samples.append(time.perf_counter() - t0)
    if proc.returncode != 0:
        return {"died": proc.stderr[-1000:]}
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def first_results(workload, seed, scratch, want, out: Samples, tally) -> None:
    """``import repro`` + ``jit`` + first ``invoke`` in a fresh interpreter:
    once on empty cache directories, once on the ones that process
    populated, each beside the bare interpreter of ``BARE_CHILD``."""
    dirs = scratch.new_dirs()
    argv = [sys.executable, str(_CHILD), workload.name, str(seed)]
    for tier, samples in (("cold", out.child_cold), ("disk", out.child_disk)):
        info = timed_child(argv, scratch, dirs, samples)
        if tier == "disk":
            served = info.get("cache_tier") == "disk"
        else:
            served = (info.get("cache_hit") is False
                      and info.get("mode") != "cached")
        tally.check(served and same(info["value"], *want),
                    f"{tier} child: {info}")
        bare = timed_child(BARE_CHILD, scratch, dirs, out.child_bare)
        tally.check("died" not in bare, f"bare child: {bare}")


def one_round(workload, seed, expect, slices, floor, scratch, tally, rng,
              out: Samples) -> None:
    guests = workload.guests
    order = rng.sample(range(len(guests)), len(guests))

    # set-up: temp dirs, input generation, guest-object construction and the
    # one-off compile of every program (each of which is a cold sample: no
    # two programs share a cache key or a cc artifact)
    t0 = time.perf_counter()
    dirs = scratch.fresh_caches()
    objs = [g.make(seed) for g in guests]
    codes = [None] * len(guests)
    for done, i in enumerate(order, start=1):
        codes[i] = timed_cold_jit(guests[i], objs[i], done, out.cold[i], tally)
    cref = None
    if workload.ref == "cref":
        cref = CRef(guests[0].grid, seed)
    out.setup.append(time.perf_counter() - t0)
    if workload.backend == "c":
        out.ref_cc.append(ref_cc(Path(dirs["REPRO_CC_CACHE"]).parent / "ref"))

    for i in order:
        tier_slice(guests[i], objs[i], "memory", slices["warm"] / len(guests),
                   floor(40), out.warm[i], out.ref_py, tally)
        tier_slice(guests[i], objs[i], "disk", slices["disk"] / len(guests),
                   floor(4), out.disk[i], out.ref_py, tally)
    checked = [Checked(g, c, expect[g.name], tally)
               for g, c in zip(guests, codes)]
    invoke_slice(workload, seed, checked, cref, slices["invoke"],
                 floor(2), rng, out)
    first_results(workload, seed, scratch, expect[guests[0].name], out, tally)


# ---------------------------------------------------------------------------
# the pass
# ---------------------------------------------------------------------------

def over(num: dict, base: dict, base_name: str) -> dict:
    """The ratio row of two timing rows (seconds)."""
    return {"value": num["value"] / base["value"],
            "median": num["median"] / base["median"],
            "n": min(num["n"], base["n"]),
            "base": base_name, "num_s": num, "base_s": base}


def run(workload: Workload, seed: int, seconds: float, scratch: Scratch,
        tally: Tally) -> dict:
    """Every end-to-end metric of one workload: ``{name: row}``."""
    rng = random.Random(seed)
    names = [g.name for g in workload.guests]

    def floor(base):
        return floor_count(base, seconds)

    rounds = floor(workload.rounds)
    slices = {k: v * seconds / rounds for k, v in workload.shares.items()}
    expect = expected_values(workload, seed, scratch, tally)
    out = Samples(len(names))
    for _ in range(rounds):
        one_round(workload, seed, expect, slices, floor, scratch, tally, rng,
                  out)

    def summed(per_program):
        rows = [summarize(s) for s in per_program]
        row = total(rows)
        if len(rows) > 1:
            row["by_program"] = dict(zip(names, rows))
        return row

    py_loop, bare = summarize(out.ref_py), summarize(out.child_bare)
    # a cold jit() is as long as its backend's compiler makes it: cc for a C
    # program, the interpreter itself for a py program
    cold_base = ((summarize(out.ref_cc), "ref_cc") if workload.backend == "c"
                 else (py_loop, "ref_py"))
    rows = {
        "setup_s": summarize(out.setup),
        "vs_ref": over(summed(out.invoke), summed(out.ref), workload.ref),
        "cold_jit_x": over(summed(out.cold), *cold_base),
        "disk_jit_x": over(summed(out.disk), py_loop, "ref_py"),
        "warm_jit_x": over(summed(out.warm), py_loop, "ref_py"),
        "first_cold_x": over(summarize(out.child_cold), bare, "bare_child"),
        "first_disk_x": over(summarize(out.child_disk), bare, "bare_child"),
    }
    usage = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    rows["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0, "n": 1,
                           "children_mb": children.ru_maxrss / 1024.0}
    return rows
