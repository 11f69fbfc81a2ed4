"""One pass of a library workload in a fresh process.

Usage: worker.py WORKLOAD SEED TRACE SPAWNED_AT [TRACE_FILE]

SPAWNED_AT is the CLOCK_MONOTONIC reading the parent took just before it
started this process; that clock is system-wide, so the difference to the
reading after imports and input generation is the set-up time.  Every time is
in reference seconds (probe.py), and a pass's wall time is the sum of its
inputs' times, which leaves out the host-speed probes run between them.  The
last line of stdout is one JSON object with the pass's results.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv):
    workload, seed, trace, spawned_at = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    import permutree_lab
    import probe
    import workloads

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(permutree_lab.__file__).resolve().parent.parent != src:
        print(f"imported {permutree_lab.__file__}, not the library under {src}", file=sys.stderr)
        return 2
    golden = workloads.load_golden()
    inputs = workloads.make_inputs(workload, seed, golden)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    setup_s = now() - spawned_at

    prober = probe.Prober()
    tally = workloads.PASSES[workload](inputs, golden, workloads.Tally(prober.add))
    op_s = prober.scaled()
    raw_wall_s = sum(tally.op_s)
    wall_s = sum(op_s)

    out = {
        "setup_s": prober.scale_first(setup_s),
        "wall_s": wall_s,
        "raw_wall_s": raw_wall_s,
        "probes": len(prober.probes),
        "objects": tally.objects,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "request_s": [op_s[i] for i in tally.requests],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics(raw_wall_s)
        factor = wall_s / raw_wall_s
        out["layers"] = {k: v * factor if k.endswith(".self_s") else v for k, v in layers.items()}
        if len(argv) > 4:
            tracer.write(Path(argv[4]))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
