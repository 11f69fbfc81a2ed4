"""Record the expected outputs the benchmark checks against: golden.json.

    PYTHONPATH=src python3 perfbench/record_golden.py

Run it only when an output is meant to change, and say why in the change:
the digests are what keeps the CLI's --json output byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import cli_mix
import workloads as wl
from permutree_lab import oruga as og
from permutree_lab import permutree as pt
from permutree_lab import s_weak_order as sw

ROOT = Path(__file__).resolve().parent.parent


def sweak_digests():
    comps = [s for t in range(1, 7) for s in wl.strict_compositions(t)]
    comps += [s for row in wl.SWEAK_STRATA for s in row]
    return {wl.key(s): wl.digest(sw.s_hasse(s).to_json(key=sw.serialize_word)) for s in comps}


def realize_digests():
    comps = [s for t in range(2, 7) for s in wl.strict_compositions(t) if len(s) >= 2]
    comps += [s for row in wl.REALIZE_STRATA for s in row]
    return {wl.key(s): wl.digest(og.realize(s).to_json()) for s in comps}


def permutree_golden():
    sizes = {
        d: pt.count_permutrees(pt.Decoration(d)) for n in range(2, 8) for d in wl.decorations(n)
    }
    perms = wl.make_inputs("permutree", 0, {"permutree": {"sizes": sizes}})["perms7"]
    insert = {}
    for d in wl.decorations(7):
        if sizes[d] == wl.INSERT_SIZE:
            dec = pt.Decoration(d)
            insert[d] = wl.digest(sorted(t.key() for t in {pt.insert(pi, dec) for pi in perms}))
    return {"sizes": sizes, "insert": insert}


def cli_digests():
    env = cli_mix.child_env(ROOT)
    out = {}
    for family, verb, argv, expected in cli_mix.all_requests():
        rid = cli_mix.request_id(family, verb, argv)
        if (family, verb, argv, expected) in cli_mix.KNOWN_CRASHES:
            out[rid] = hashlib.sha256(b"").hexdigest()  # an error prints nothing on stdout
            continue
        _, status, stdout, stderr = cli_mix.run_request(ROOT, env, [family, verb, *argv])
        if status != expected or b"Traceback" in stderr:
            raise SystemExit(f"{rid}: exit {status}, expected {expected}\n{stderr.decode()}")
        out[rid] = hashlib.sha256(stdout).hexdigest()
    return out


def main():
    golden = {
        "sweak": sweak_digests(),
        "realize": realize_digests(),
        "permutree": permutree_golden(),
        "cli": cli_digests(),
    }
    wl.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
