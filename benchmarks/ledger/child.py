"""Fresh-interpreter first result: ``import repro`` + ``jit`` + first
``invoke`` of a workload's first program.  The parent times this process
from spawn to exit and sets the (scrubbed) environment and cache
directories; the last stdout line is this process's own account."""

import json
import resource
import sys


def main() -> None:
    from benchmarks.ledger.guests import WORKLOADS, compile_guest

    workload, seed = WORKLOADS[sys.argv[1]], int(sys.argv[2])
    guest = workload.guests[0]
    code = compile_guest(guest, guest.make(seed))
    value = code.invoke().value
    report = code.report
    print(json.dumps({
        "value": float(value),
        "cache_hit": report.cache_hit,
        "cache_tier": report.cache_tier,
        "mode": report.build_stats.get("mode"),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))


if __name__ == "__main__":
    main()
