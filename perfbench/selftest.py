"""Tests of the benchmark's own checks.

    python3 perfbench/selftest.py

An output off by one byte, a wrong element count and a request that prints a
traceback must each count as a failed operation; changing the seed must
change only the sampled inputs.
"""

from __future__ import annotations

import hashlib
import json
import sys
import unittest
from itertools import permutations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cli_mix  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from permutree_lab import oruga as og  # noqa: E402
from permutree_lab import permutree as pt  # noqa: E402
from permutree_lab import s_weak_order as sw  # noqa: E402
from tracer import COUNTED, SPANNED, Tracer, metric_name  # noqa: E402

GOLDEN = wl.load_golden()


class Patched:
    """Replace an attribute for the duration of a `with` block."""

    def __init__(self, owner, attr, value):
        self.owner, self.attr, self.value = owner, attr, value

    def __enter__(self):
        self.saved = getattr(self.owner, self.attr)
        setattr(self.owner, self.attr, self.value)

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self.saved)


def sweak_tally(s):
    t = wl.Tally()
    t.guard("sweak", wl._sweak_one, s, [(0.5, 3)], GOLDEN["sweak"])
    return t


def realize_tally(s):
    t = wl.Tally()
    t.guard("realize", wl._realize_one, s, GOLDEN["realize"])
    return t


class ChecksCatchDefects(unittest.TestCase):
    def test_unaltered_outputs_pass(self):
        for tally in (sweak_tally((1, 2, 1)), realize_tally((1, 2, 1))):
            self.assertEqual(tally.failed, 0, tally.errors)
            self.assertGreater(tally.attempted, 0)

    def test_to_json_off_by_one_byte_fails(self):
        original = og.Realization.to_json

        def one_byte_off(self, approx=None):
            data = original(self, approx)
            data["s"] = [data["s"][0] + 1] + data["s"][1:]  # "1" -> "2"
            return data

        with Patched(og.Realization, "to_json", one_byte_off):
            tally = realize_tally((1, 2, 1))
        self.assertEqual(tally.failed, 1, tally.errors)
        self.assertIn("to_json digest", tally.errors[0])

    def test_cli_stdout_off_by_one_byte_fails(self):
        out = b'{\n  "count": 15,\n  "s": [1, 2, 2]\n}\n'
        sha = hashlib.sha256(out).hexdigest()
        self.assertIsNone(cli_mix.judge(0, sha, 0, out, b""))
        self.assertIsNotNone(cli_mix.judge(0, sha, 0, out.replace(b"15", b"16"), b""))
        self.assertIsNotNone(cli_mix.judge(0, sha, 0, out + b" ", b""))

    def test_wrong_element_count_fails(self):
        original = sw.all_words
        with Patched(sw, "all_words", lambda s: original(s)[:-1]):
            tally = sweak_tally((1, 2, 1))
        self.assertGreaterEqual(tally.failed, 1)
        self.assertIn("all_words count", tally.errors[0])

        original_lattice = pt.rotation_lattice

        def short_lattice(delta, cap=None):
            H = original_lattice(delta, cap)
            return type(H)(H.elements[:-1], [])

        t = wl.Tally()
        with Patched(pt, "rotation_lattice", short_lattice):
            t.guard("meets", wl._meets, "nddn", GOLDEN["permutree"])
        self.assertGreaterEqual(t.failed, 1)

    def test_exception_counts_as_failure(self):
        def boom(*args):
            raise ZeroDivisionError("boom")

        with Patched(og, "realize", boom):
            tally = realize_tally((1, 2, 1))
        self.assertEqual(tally.failed, 1)
        self.assertIn("ZeroDivisionError", tally.errors[0])

    def test_traceback_request_fails(self):
        empty = hashlib.sha256(b"").hexdigest()
        crash = b"Traceback (most recent call last):\n  File ...\nTypeError: boom\n"
        self.assertEqual(cli_mix.judge(1, empty, 1, b"", crash), "traceback")
        self.assertIsNone(cli_mix.judge(1, empty, 1, b"", b"invalid input: boom\n"))
        self.assertIsNotNone(cli_mix.judge(1, empty, 1, b"", b"invalid input\nmore\n"))
        self.assertIsNotNone(cli_mix.judge(1, empty, 2, b"", b"resource cap: boom\n"))

    def test_every_request_has_a_digest(self):
        for family, verb, argv, _ in cli_mix.all_requests():
            self.assertIn(cli_mix.request_id(family, verb, argv), GOLDEN["cli"])


class SeedPicksOnlySampledInputs(unittest.TestCase):
    def inputs(self, workload, seed):
        return wl.make_inputs(workload, seed, GOLDEN)

    def test_same_seed_same_inputs(self):
        for workload in ("sweak", "realize", "permutree"):
            self.assertEqual(self.inputs(workload, 7), self.inputs(workload, 7))
        self.assertEqual(cli_mix.make_mix(7), cli_mix.make_mix(7))

    def test_compositions(self):
        for workload, strata in (("sweak", wl.SWEAK_STRATA), ("realize", wl.REALIZE_STRATA)):
            runs = [self.inputs(workload, seed)["compositions"] for seed in range(1, 9)]
            fixed = len(runs[0]) - len(strata)
            for comps in runs:
                self.assertEqual(comps[:fixed], runs[0][:fixed])
                for s, row in zip(comps[fixed:], strata):
                    self.assertIn(s, row)
            self.assertGreater(len({tuple(c[fixed:]) for c in runs}), 1)

    def test_permutree(self):
        runs = [self.inputs("permutree", seed) for seed in range(1, 9)]
        sampled = {"insert_delta", "embed", "meet", "bicho", "sort_pairs", "coxeter"}
        sizes = GOLDEN["permutree"]["sizes"]
        for inputs in runs:
            self.assertEqual(set(inputs), sampled | {"perms7", "perms6"})
            self.assertEqual(inputs["perms7"], runs[0]["perms7"])
            self.assertEqual(inputs["embed"][0], "nnnnnnn")
            self.assertEqual([sizes[d] for d in inputs["embed"][1:]], wl.N6_LATTICE_SIZES)
            self.assertEqual(sizes[inputs["insert_delta"]], wl.INSERT_SIZE)
        for name in sampled:
            self.assertGreater(len({json.dumps(i[name]) for i in runs}), 1, name)

    def test_cli_mix(self):
        mixes = [cli_mix.make_mix(seed) for seed in range(1, 9)]
        for mix in mixes:
            self.assertEqual(mix[:-2], mixes[0][:-2])
        self.assertGreater(len({json.dumps(m) for m in mixes}), 1)


class TracerPatchesFromOutside(unittest.TestCase):
    def test_internal_calls_are_caught_and_restored(self):
        original = sw.check_composition
        tracer = Tracer()
        tracer.install()
        try:
            H = sw.s_hasse((1, 2, 1))
            og.hasse_from_adjacency((1, 2, 1))
        finally:
            tracer.uninstall()
        self.assertIs(sw.check_composition, original)
        self.assertEqual(len(H), 8)
        m = tracer.metrics(wall_s=1.0)
        self.assertGreater(m["s_weak_order.check_composition.calls"], 2)
        self.assertGreater(m["oruga.delta_w.calls"], 0)
        self.assertEqual(m["s_weak_order.s_hasse.calls"], 1)
        self.assertEqual(m["s_weak_order.s_hasse.new_per_transpose"], (len(H) - 1) / len(H.covers))
        spans = {name for _, name, _, _, _ in tracer.spans}
        self.assertIn("posets.Hasse.init", spans)
        for _, name, start, end, parent in tracer.spans:
            self.assertLessEqual(start, end)
        self.assertLessEqual(tracer.self_s["s_weak_order.s_hasse"], tracer.top_s)

    def test_workloads_reach_every_wrapped_function(self):
        # A workload that binds a library function under its own name would
        # bypass the patch, and that function's metrics would read 0.
        small = {
            "insert_delta": "nddn",
            "perms7": list(permutations(range(1, 5))),
            "embed": ["nddn"],
            "meet": ["nddn"],
            "bicho": ["nddn"],
            "sort_pairs": [((2,), (3,))],
            "coxeter": [(1, 2, 3, 4, 5)],
            "perms6": list(permutations(range(1, 7)))[::60],
        }
        tracer = Tracer()
        tracer.install()
        try:
            sweak_tally((1, 2, 1))
            realize_tally((1, 2, 1))
            wl.permutree_pass(small, GOLDEN)
        finally:
            tracer.uninstall()
        m = tracer.metrics(wall_s=1.0)
        unreached = [t for t in SPANNED + COUNTED if m[f"{metric_name(t)}.calls"] == 0]
        self.assertEqual(unreached, [])
        self.assertGreater(m["posets.isomorphic_via.self_s"], 0)


class ProbeScalesEachOperation(unittest.TestCase):
    def test_scaled_by_the_probes_around_it(self):
        readings = iter([0.03, 0.06, 0.02, 0.04])
        prober = probe.Prober(lambda: next(readings))
        for seconds in (0.2, 0.3, 0.6, 0.1):
            prober.add(seconds)
        scaled = prober.scaled()
        # Probes after 0.2 + 0.3 s, after 0.6 s, and at the end.
        self.assertEqual(prober.probes, [0.03, 0.06, 0.02, 0.04])
        ref = probe.REFERENCE_S
        expected = [0.2 * ref / 0.045, 0.3 * ref / 0.045, 0.6 * ref / 0.04, 0.1 * ref / 0.03]
        for got, want in zip(scaled, expected, strict=True):
            self.assertAlmostEqual(got, want)
        self.assertAlmostEqual(prober.scale_first(0.5), 0.5)


class BenchmarkJsonMatches(unittest.TestCase):
    def test_metric_names_and_units(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))

    def test_tracer_reports_every_library_metric(self):
        reported = set(Tracer().metrics(wall_s=1.0))
        measured_by_run = {"trace.wall_s", "trace.overhead_s"}
        for name in run.PER_LAYER:
            if not name.startswith("cli.") and name not in measured_by_run:
                self.assertIn(name, reported)


if __name__ == "__main__":
    unittest.main()
