"""The `cli` workload: a closed loop with one client.

Each request is a fresh `python -m permutree_lab.cli` process, run one at a
time, so every request pays interpreter start and import and no cache ever
warms.  A request succeeds when it exits with the expected status, prints no
traceback, and its stdout has the sha256 recorded in golden.json; a request
that expects an error must also print exactly one line on stderr.

The seed shuffles the order of each cycle and picks the permutation of the
`insert` and `sort` requests; every choice has its own recorded digest.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import time

REQUEST_TIMEOUT_S = 60

# (family, verb, argv after the verb, expected exit status)
README_VERBS = [
    ("permutree", "count", ["--delta", "nddn", "--n", "4", "--json"], 0),
    ("permutree", "lattice", ["--delta", "nnnnnn", "--json"], 0),
    ("sorder", "count", ["--s", "1,2,2", "--json"], 0),
    ("sorder", "hasse", ["--s", "1,2,1", "--json"], 0),
    ("sorder", "realize", ["--s", "1,1,1,1,1", "--json"], 0),
    ("sorder", "identities", ["--s", "1,0,1", "--json"], 0),
    ("flows", "routes", ["--s", "1,2,1", "--json"], 0),
    ("flows", "routes", ["--graph", "perfbench/data/graph_nxdn.json", "--json"], 0),
    ("flows", "cliques", ["--delta", "nnnnnn", "--json"], 0),
    ("flows", "kostant", ["--s", "1,2,1", "--netflow", "d", "--json"], 0),
    ("flows", "volume", ["--s", "1,2,2", "--netflow", "i", "--json"], 0),
    ("bicho", "build", ["--delta", "nxdn", "--json"], 0),
    ("bicho", "verify", ["--delta", "nxdn", "--json"], 0),
    ("bicho", "conjectures", ["--delta", "nddn", "--json"], 0),
]
INSERT_PIS = ["5741326", "3167425", "6231754", "4512763"]
SORT_PIS = ["3421", "4231", "2413", "3142"]
# Bad input that the CLI already rejects cleanly.
HANDLED_ERRORS = [
    ("sorder", "count", ["--s", "1,-1,2"], 1),
    ("permutree", "lattice", ["--delta", "nnnnnnnn"], 2),
]
# Bad input that ends in a traceback at the commit that introduced the
# benchmark.  Each should exit 1 with one line on stderr; until the CLI does,
# these fail, so they join the mix only with --known-crashes.
KNOWN_CRASHES = [
    ("permutree", "count", [], 1),
    ("permutree", "insert", ["--delta", "nnn"], 1),
    ("sorder", "realize", ["--s", "1,2,1", "--epsilon", "1/0"], 1),
    ("flows", "routes", ["--graph", "perfbench/data/graph_list_id.json"], 1),
]
# Left out until the CLI caps them: they run without bound today.
#   sorder realize --s 2,2,2,2,2,2,2
#   flows routes --delta nnnnnnnnnnnnnnnnnnnnnnnnn


def request_id(family, verb, argv):
    return " ".join([family, verb, *argv])


def all_requests():
    """Every request any seed can issue, for recording digests."""
    out = list(README_VERBS) + HANDLED_ERRORS + KNOWN_CRASHES
    out += [("permutree", "insert", ["--pi", pi, "--delta", "dunxndd", "--json"], 0) for pi in INSERT_PIS]
    out += [("permutree", "sort", ["--pi", pi, "--U", "2", "--json"], 0) for pi in SORT_PIS]
    return out


def make_mix(seed, known_crashes=False):
    """The requests of one cycle, before the per-cycle shuffle."""
    rng = random.Random(f"cli:{seed}")
    mix = list(README_VERBS) + HANDLED_ERRORS
    mix.append(("permutree", "insert", ["--pi", rng.choice(INSERT_PIS), "--delta", "dunxndd", "--json"], 0))
    mix.append(("permutree", "sort", ["--pi", rng.choice(SORT_PIS), "--U", "2", "--json"], 0))
    if known_crashes:
        mix += KNOWN_CRASHES
    return mix


def cycle_orders(seed, mix):
    """An endless sequence of shuffled copies of the mix, fixed by the seed."""
    rng = random.Random(f"cli-order:{seed}")
    while True:
        order = list(mix)
        rng.shuffle(order)
        yield order


def child_env(root):
    """The caller's environment without Python or cap overrides, plus the
    library's source directory on the path."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("PYTHON") and k != "PERMUTREE_LAB_CAP"
    }
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_request(root, env, argv):
    """Run one CLI process; returns (seconds, exit status, stdout, stderr)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "permutree_lab.cli", *argv],
        cwd=root,
        env=env,
        capture_output=True,
        timeout=REQUEST_TIMEOUT_S,
    )
    return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr


def judge(expected_status, golden_sha, status, stdout, stderr):
    """Why the request failed, or None if it succeeded."""
    if b"Traceback (most recent call last)" in stderr:
        return "traceback"
    if status != expected_status:
        return f"exit status {status}, expected {expected_status}"
    if expected_status != 0 and len(stderr.splitlines()) != 1:
        return f"{len(stderr.splitlines())} stderr lines, expected 1"
    if hashlib.sha256(stdout).hexdigest() != golden_sha:
        return "stdout digest differs from golden"
    return None
