"""The permutree-lab benchmark.

One run of one workload:

    python3 perfbench/run.py --workload sweak --seed 1 --seconds 28 --trace 0

Every end-to-end metric of every workload, with units and checked outputs:

    python3 perfbench/run.py --all [--seed 1] [--seconds 28] [--trace 0|1]

Run from the repository root.  A run drives fresh single-threaded Python
processes one at a time, because the library's caches live as long as the
process and a user's process starts cold.  For `sweak`, `realize` and
`permutree` each process runs one pass over the workload's inputs
(worker.py); for `cli` each process is one CLI request (cli_mix.py).  Passes
repeat until --seconds have gone by, and each metric is the median over them.

Every reported time is in reference seconds (probe.py): a host-speed probe
runs about every half second between the run's inputs or requests, and each
input's or request's time is scaled by the probes taken around it.  This
cancels the host's speed swings; the raw times go to the run metadata.

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics`, holding the end-to-end metrics with --trace 0 and the
per-layer metrics with --trace 1.  A traced run alternates traced and
untraced passes, so it also reports the tracing overhead.  Run metadata (the
Python version, git revision, CPU count and a host-speed probe taken at the
start and the end) goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from math import ceil
from pathlib import Path

import cli_mix
import probe
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_PATH = HERE / "golden.json"
TRACE_DIR = ROOT / ".perfbench" / "trace"
WORKLOADS = ("sweak", "realize", "permutree", "cli")
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "objects_per_s": "1/s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
CLI_VERBS = sorted({f"{f}.{v}" for f, v, _, _ in cli_mix.all_requests()})
PER_LAYER = {
    "weak_order.perm_from_inversions.calls": "count",
    "weak_order.perm_from_inversions.self_s": "s",
    "weak_order.transitive_closure_pairs.calls": "count",
    "permutree.insert.calls": "count",
    "permutree.insert.self_s": "s",
    "permutree.rotate.calls": "count",
    "permutree.rotation_lattice.self_s": "s",
    "permutree.rotation_lattice.new_per_rotate": "1",
    "permutree.Permutree.inversion_pairs.calls": "count",
    "vectors.meet_via_inversions.calls": "count",
    "vectors.meet_via_inversions.self_s": "s",
    "vectors.cubical_embedding.self_s": "s",
    "automata.permutree_sort.self_s": "s",
    "automata.coxeter_sort.self_s": "s",
    "automata.product.cache_hit_ratio": "1",
    "s_weak_order.check_composition.calls": "count",
    "s_weak_order.check_word.calls": "count",
    "s_weak_order.inversion_multiset.calls": "count",
    "s_weak_order.s_hasse.self_s": "s",
    "s_weak_order.s_hasse.new_per_transpose": "1",
    "s_weak_order.join_candidate.self_s": "s",
    "s_weak_order.tc_closure.calls": "count",
    "s_weak_order.word_from_multiset.self_s": "s",
    "s_weak_order.all_words.self_s": "s",
    "oruga.hasse_from_adjacency.self_s": "s",
    "oruga.delta_w.calls": "count",
    "oruga.oru_route.calls": "count",
    "oruga.realize.self_s": "s",
    "oruga.vertex_coordinates.self_s": "s",
    "oruga.oruga_height.calls": "count",
    "oruga.oruga_height.self_s": "s",
    "oruga.oruga_height.calls_per_route": "1",
    "oruga.prefix_route.calls": "count",
    "oruga.Realization.to_json.self_s": "s",
    "flows.dual_adjacency_covers.self_s": "s",
    "flows.conflicts.calls": "count",
    "flows.minimal_conflicts.self_s": "s",
    "flows.is_admissible.self_s": "s",
    "flows.resolvents.calls": "count",
    "flows.routes.self_s": "s",
    "flows.max_cliques.self_s": "s",
    "flows.coherent.calls": "count",
    "bicho.permutree_clique.self_s": "s",
    "bicho.rotation_from_adjacency.self_s": "s",
    "bicho.build_bic.calls": "count",
    "posets.Hasse.init.self_s": "s",
    "posets.Hasse.is_lattice.self_s": "s",
    "posets.isomorphic_via.self_s": "s",
    "posets.Hasse.meet.calls": "count",
    "posets.Hasse.meet.self_s": "s",
    "posets.Hasse.leq.calls": "count",
    **{f"layer.{m}.self_s": "s" for m in LAYERS},
    "cli.python_start_ms": "ms",
    "cli.import_ms": "ms",
    **{f"cli.{v}.p50_ms": "ms" for v in CLI_VERBS},
    "cli.stdout_bytes": "bytes",
    "cli.tracebacks": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.top_span_share": "1",
}


def now():
    """CLOCK_MONOTONIC, which is system-wide, so child processes share it."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


def git_revision():
    """HEAD's commit, or "unknown" outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class RunFailed(Exception):
    pass


def _past(deadline, walls):
    """True once a further pass would end more than half a pass past the deadline."""
    return now() + (statistics.median(walls) / 2 if walls else 0.0) >= deadline


# --- library workloads -----------------------------------------------------------


def run_worker(workload, seed, trace, env, trace_file=None):
    spawned = now()
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(int(trace)), repr(spawned)]
    if trace_file is not None:
        cmd.append(str(trace_file))
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def library_run(workload, seed, seconds, trace):
    env = cli_mix.child_env(ROOT)
    plain, traced = [], []
    deadline = now() + seconds
    while (
        not _past(deadline, [p["raw_wall_s"] for p in plain + traced])
        or len(plain) < (MIN_TRACED_PASSES if trace else MIN_PASSES)
        or (trace and len(traced) < MIN_TRACED_PASSES)
    ):
        if trace and len(traced) <= len(plain):
            traced.append(run_worker(workload, seed, True, env, TRACE_DIR / f"{workload}.json"))
        else:
            plain.append(run_worker(workload, seed, False, env))

    passes = plain + traced
    errors = [e for p in passes for e in p["errors"]]
    objects = {p["objects"] for p in passes}
    if len(objects) != 1:
        errors.append(f"passes over the same inputs checked different object counts {objects}")
    result = {
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes) + (len(objects) != 1),
        "errors": errors,
    }
    if not trace:
        requests = [x for p in plain for x in p["request_s"]]
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in plain),
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "objects_per_s": statistics.median(p["objects"] / p["wall_s"] for p in plain),
            "req_p50_ms": percentile(requests, 0.5) * 1000,
            "req_p90_ms": percentile(requests, 0.9) * 1000,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
    else:
        metrics = {name: 0 for name in PER_LAYER}
        for name in traced[0]["layers"]:
            if name in PER_LAYER:
                metrics[name] = statistics.median(p["layers"][name] for p in traced)
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - statistics.median(p["wall_s"] for p in plain)
    result["metrics"] = metrics
    result["meta"] = {
        "passes": len(plain),
        "traced_passes": len(traced),
        "pass_wall_s": [p["wall_s"] for p in plain],
        "traced_wall_s": [p["wall_s"] for p in traced],
        "raw_pass_wall_s": [p["raw_wall_s"] for p in plain],
        "probes": sum(p["probes"] for p in passes),
    }
    return result


# --- cli -------------------------------------------------------------------------


def spawn_seconds(env, code):
    start = time.perf_counter()
    # Captured pipes make subprocess wait for EOF in select(); without them it
    # polls for the exit with sleeps of up to 50 ms, which would show in the time.
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, capture_output=True, timeout=60)
    return time.perf_counter() - start


def cli_run(seed, seconds, trace, known_crashes):
    golden = json.loads(GOLDEN_PATH.read_text())["cli"]
    env = cli_mix.child_env(ROOT)
    mix = cli_mix.make_mix(seed, known_crashes)
    # One record per process run, in order: (cycle, verb, seconds, stdout bytes, failure).
    # Before each cycle, a bare interpreter ("start") and an import ("import")
    # are timed as set-up samples.
    records = []
    raw_walls = []  # unscaled seconds per cycle, set-up samples included
    # Sees every process run, in the order of `records`.
    prober = probe.Prober(lambda: probe.spawn_probe_s(env, ROOT), probe.SPAWN_REFERENCE_S)
    deadline = now() + seconds
    for c, order in enumerate(cli_mix.cycle_orders(seed, mix)):
        if c >= max(MIN_PASSES, SETUP_SAMPLES) and _past(deadline, raw_walls):
            break
        start = now()
        for verb, code in (("start", "pass"), ("import", "import permutree_lab.cli")):
            secs = spawn_seconds(env, code)
            prober.add(secs)
            records.append((c, verb, secs, 0, None))
        for family, verb, argv, expected in order:
            rid = cli_mix.request_id(family, verb, argv)
            secs, status, out, err = cli_mix.run_request(ROOT, env, [family, verb, *argv])
            prober.add(secs)
            why = cli_mix.judge(expected, golden.get(rid), status, out, err)
            records.append((c, f"{family}.{verb}", secs, len(out), why and f"{rid}: {why}"))
        raw_walls.append(now() - start)
    scaled = prober.scaled()
    records = [(c, v, secs, n, why) for (c, v, _, n, why), secs in zip(records, scaled)]

    bare = [r[2] for r in records if r[1] == "start"]
    imports = [r[2] for r in records if r[1] == "import"]
    cycles = [[r[1:] for r in records if r[0] == c and r[1] not in ("start", "import")] for c in range(len(raw_walls))]
    requests = [r for c in cycles for r in c]
    errors = sorted({r[3] for r in requests if r[3]})
    result = {
        "attempted": len(requests),
        "failed": sum(1 for r in requests if r[3]),
        "errors": errors,
    }
    if not trace:
        latencies = [r[1] for r in requests]
        walls = [sum(r[1] for r in c) for c in cycles]
        metrics = {
            "setup_s": statistics.median(imports),
            "wall_s": statistics.median(walls),
            "objects_per_s": statistics.median(len(mix) / w for w in walls),
            "req_p50_ms": percentile(latencies, 0.5) * 1000,
            "req_p90_ms": percentile(latencies, 0.9) * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }
    else:
        metrics = {name: 0 for name in PER_LAYER}
        metrics["cli.python_start_ms"] = statistics.median(bare) * 1000
        metrics["cli.import_ms"] = (statistics.median(imports) - statistics.median(bare)) * 1000
        for verb in CLI_VERBS:
            secs = [r[1] for r in requests if r[0] == verb]
            if secs:
                metrics[f"cli.{verb}.p50_ms"] = statistics.median(secs) * 1000
        metrics["cli.stdout_bytes"] = statistics.median(sum(r[2] for r in c) for c in cycles)
        metrics["cli.tracebacks"] = statistics.median(
            sum(1 for r in c if r[3] and r[3].endswith("traceback")) for c in cycles
        )
    result["metrics"] = metrics
    result["meta"] = {
        "cycles": len(cycles),
        "requests_per_cycle": len(mix),
        "raw_cycle_wall_s": raw_walls,
        "probes": len(prober.probes),
    }
    return result


# --- entry points -----------------------------------------------------------------


def run_one(args):
    probe_start = probe.probe_s() * 1000
    if args.workload == "cli":
        result = cli_run(args.seed, args.seconds, args.trace, args.known_crashes)
    else:
        result = library_run(args.workload, args.seed, args.seconds, args.trace)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "git_revision": git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "probe_start_ms": probe_start,
        "probe_end_ms": probe.probe_s() * 1000,
        **result["meta"],
        "errors": result["errors"][:20],
    }
    print("perfbench meta " + json.dumps(meta), file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    out = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(out))


def run_all(args):
    """Each workload in its own run; prints every metric with its unit."""
    ok = True
    print(f"{'workload':<10} {'metric':<44} {'value':>14}  unit")
    for workload in WORKLOADS:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if workload == "cli":
            cmd.append("--known-crashes")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{workload:<10} run failed:\n{proc.stderr}")
            ok = False
            continue
        res = json.loads(proc.stdout.splitlines()[-1])
        for name, m in res["metrics"].items():
            print(f"{workload:<10} {name:<44} {m['value']:>14.6g}  {m['unit']}")
        ratio = res["failed"] / res["attempted"]
        print(
            f"{workload:<10} {'fail_ratio':<44} {ratio:>14.6g}  1"
            f"   ({res['failed']} of {res['attempted']} operations failed; correct={res['correct']})"
        )
        for line in proc.stderr.splitlines():
            if line.startswith("perfbench meta "):
                for err in json.loads(line[len("perfbench meta "):])["errors"]:
                    print(f"{workload:<10}   failed: {err}")
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload and print a table")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=28)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--known-crashes",
        action="store_true",
        help="add to the cli mix the bad inputs that end in a traceback today",
    )
    args = p.parse_args(argv)
    if not (ROOT / "src" / "permutree_lab" / "__init__.py").is_file():
        print(f"no library source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if args.workload is None:
        p.error("give --workload or --all")
    try:
        run_one(args)
    except (RunFailed, subprocess.SubprocessError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
