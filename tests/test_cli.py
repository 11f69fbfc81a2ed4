import contextlib
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permutree_lab
from permutree_lab import caps, cli
from permutree_lab import flows as fl

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    try:
        cli.main(list(argv))
        code = 0
    except SystemExit as exc:
        code = exc.code or 0
    out, err = capsys.readouterr()
    return code, out, err


def test_permutree_count(capsys):
    code, out, _ = run_cli(capsys, "permutree", "count", "--delta", "nddn", "--n", "4")
    assert code == 0
    assert "count: 14" in out


def test_permutree_count_refuses_a_size_that_contradicts_delta(capsys):
    code, out, err = run_cli(capsys, "permutree", "count", "--delta", "nddn", "--n", "0")
    assert code == 1 and out == ""
    assert err.splitlines() == ["invalid input: --n 0 contradicts --delta of size 4"]


def test_permutree_count_json_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "permutree", "count", "--delta", "nxdn", "--json")
    code, out2, _ = run_cli(capsys, "permutree", "count", "--delta", "nxdn", "--json")
    assert out1 == out2
    assert json.loads(out1) == {"delta": "nxdn", "count": 10}


def test_permutree_sort(capsys):
    code, out, _ = run_cli(capsys, "permutree", "sort", "--pi", "3421", "--U", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["sorted"] is True
    assert data["word"] == "2,1,3,2,3"
    code, out, _ = run_cli(capsys, "permutree", "sort", "--pi", "4231", "--U", "2", "--json")
    data = json.loads(out)
    assert data["sorted"] is False and data["residual"] == "1243"


def test_permutree_sort_needs_no_cap(capsys):
    # P(U, D) for n = 16 has far too many states to build whole; the sort
    # builds only the states its word reaches
    pi, U, D = (",".join(map(str, r)) for r in (range(16, 0, -1), range(2, 16, 2), range(3, 16, 2)))
    code, out, _ = run_cli(capsys, "permutree", "sort", "--pi", pi, "--U", U, "--D", D, "--json")
    assert code == 0
    assert json.loads(out)["sorted"] is True


def test_permutree_sort_refuses_overlapping_u_and_d(capsys):
    code, out, err = run_cli(capsys, "permutree", "sort", "--pi", "321", "--U", "2", "--D", "2")
    assert code == 1 and out == ""
    assert err.splitlines() == ["invalid input: U and D must be disjoint, both contain [2]"]


def test_permutree_lattice_json(capsys):
    code, out, _ = run_cli(capsys, "permutree", "lattice", "--delta", "nxn", "--json")
    data = json.loads(out)
    assert len(data["nodes"]) == 4
    assert len(data["edges"]) == 4


def test_permutree_insert(capsys):
    code, out, _ = run_cli(
        capsys, "permutree", "insert", "--pi", "5741326", "--delta", "dunxndd", "--json"
    )
    data = json.loads(out)
    assert data["n"] == 7 and data["delta"] == "nunxndn"


def test_sorder_verbs(capsys):
    code, out, _ = run_cli(capsys, "sorder", "count", "--s", "1,2,2", "--json")
    assert json.loads(out)["count"] == 15
    code, out, _ = run_cli(capsys, "sorder", "hasse", "--s", "1,2,1", "--json")
    data = json.loads(out)
    assert len(data["nodes"]) == 8
    code, out, _ = run_cli(capsys, "sorder", "realize", "--s", "1,2,1", "--json")
    data = json.loads(out)
    assert len(data["vertices"]) == 8
    assert set(data["epsilon"]) == {"num", "den"}
    code, out, _ = run_cli(capsys, "sorder", "identities", "--s", "1,0,1", "--json")
    assert json.loads(out)["equal"] is True


def test_sorder_realize_approx(capsys):
    code, out, _ = run_cli(
        capsys, "sorder", "realize", "--s", "1,1", "--json", "--approx", "4"
    )
    data = json.loads(out)
    for pt in data["vertices"].values():
        assert all(isinstance(x, float) for x in pt)


def test_flows_verbs(capsys):
    code, out, _ = run_cli(capsys, "flows", "routes", "--s", "1,2,1", "--json")
    assert json.loads(out)["count"] == 10
    code, out, _ = run_cli(capsys, "flows", "cliques", "--s", "1,2,1", "--json")
    assert json.loads(out)["count"] == 8
    code, out, _ = run_cli(
        capsys, "flows", "kostant", "--delta", "nxdn", "--netflow", "d", "--json"
    )
    assert json.loads(out)["kostant"] == 10
    code, out, _ = run_cli(
        capsys, "flows", "volume", "--s", "1,2,2", "--netflow", "i", "--json"
    )
    assert json.loads(out)["volume"] == 15


def test_flows_graph_file(tmp_path, capsys):
    from permutree_lab import flows as fl

    path = tmp_path / "graph.json"
    path.write_text(json.dumps(fl.example_graph().to_json()))
    code, out, _ = run_cli(
        capsys, "flows", "kostant", "--graph", str(path), "--netflow", "0,1,1,-2", "--json"
    )
    assert json.loads(out)["kostant"] == 2


def test_bicho_verbs(capsys):
    code, out, _ = run_cli(capsys, "bicho", "verify", "--delta", "nxdn", "--json")
    data = json.loads(out)
    assert data["ok"] and data["counts"] == {"flows": 10, "permutrees": 10, "cliques": 10}
    code, out, _ = run_cli(capsys, "bicho", "conjectures", "--delta", "nddn", "--json")
    data = json.loads(out)
    assert data["conjecture_1"] == "PASS" and data["conjecture_2"] == "PASS"
    code, out, _ = run_cli(capsys, "bicho", "build", "--delta", "nnn", "--json")
    data = json.loads(out)
    assert data["vertices"] == 4 and len(data["edges"]) == 6


def test_exit_codes(capsys, tmp_path):
    code, _, err = run_cli(capsys, "permutree", "lattice", "--delta", "n" * 10)
    assert code == 2 and "cap" in err
    code, _, err = run_cli(capsys, "permutree", "insert", "--pi", "1231", "--delta", "nnnn")
    assert code == 1 and "invalid input" in err
    code, _, err = run_cli(capsys, "permutree", "sort", "--pi", "321", "--U", "2", "--D", "2")
    assert code == 1
    code, _, err = run_cli(capsys, "flows", "routes", "--json")
    assert code == 1  # no graph source given
    bad_graph = ROOT / "perfbench" / "data" / "graph_list_id.json"  # a list as edge id
    data = fl.example_graph().to_json()  # a list in the framing that str() matches
    data["edges"][0]["id"] = "['a']"
    data["framing"]["1"]["in"][0] = ["a"]
    bad_framing = tmp_path / "framing.json"
    bad_framing.write_text(json.dumps(data))
    for argv in [
        ("permutree", "count"),
        ("permutree", "lattice"),
        ("permutree", "insert", "--pi", "231"),
        ("permutree", "insert", "--delta", "nnn"),
        ("permutree", "sort"),
        ("sorder", "realize", "--s", "1,2,1", "--epsilon", "1/0"),
        ("flows", "routes", "--graph", str(bad_graph)),
        ("flows", "routes", "--graph", str(bad_framing)),
        ("flows", "routes", "--delta", ""),  # a source given empty is still the one source
        # a line break inside an argument is escaped, so the refusal stays one line
        ("sorder", "count", "--s", "1", "x\ny"),
        ("flows", "routes", "--graph", "no\nsuch.json"),
        ("sorder", "realize", "--s", "1,2", "--epsilon", "\x85"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert len(err.splitlines()) == 1 and "invalid input" in err, argv
    for flag, bad, argv in [
        ("--epsilon", "1/2/3", ("sorder", "realize", "--s", "1,2,1")),
        ("--epsilon", "abc", ("sorder", "realize", "--s", "1,2,1")),
        ("--s", "", ("sorder", "identities")),
        ("--s", "1,,2", ("flows", "routes")),
        ("--U", "2,y", ("permutree", "sort", "--pi", "3421")),
        ("--D", "x", ("permutree", "sort", "--pi", "3421")),
        ("--netflow", "1,2,z", ("flows", "kostant", "--s", "1,2,1")),
        ("--pi", "3,x,1", ("permutree", "sort")),
        ("--pi", "3a1", ("permutree", "insert", "--delta", "nnn")),
        ("--epsilon", "-1/2", ("sorder", "realize", "--s", "1,2")),
        ("--epsilon", "0", ("sorder", "realize", "--s", "1,2")),
    ]:
        code, out, err = run_cli(capsys, *argv, flag, bad)
        assert (code, out) == (1, ""), (flag, bad)
        assert len(err.splitlines()) == 1 and f"{flag} {bad!r}" in err, (flag, bad)
    for cap, argv in [  # refused from a count, before any enumeration
        ("s_trees", ("sorder", "realize", "--s", "2,2,2,2,2,2,2")),
        ("routes", ("flows", "routes", "--delta", "n" * 25)),
        ("max_cliques_routes", ("flows", "cliques", "--s", ",".join("1" * 9))),
        ("max_cliques_routes", ("flows", "cliques", "--delta", "n" * 25)),
        # a netflow with full support: each of the 35,357,670 terms can be nonzero
        ("lidskii_terms", ("flows", "volume", "--delta", "n" * 16, "--netflow", "1," * 16 + "-16")),
        ("permutree_count_sections", ("permutree", "count", "--delta", "n" + "dnnn" * 8 + "n")),
        ("conjecture_terms", ("bicho", "conjectures", "--delta", "n" * 15 + "d" + "n" * 5)),
        ("lidskii_terms", ("sorder", "identities", "--s", ",".join("1" * 15))),
        # 742,900 and 477,638,700 cliques from 188 routes at most, counted by the Kostant DP
        ("cliques", ("bicho", "verify", "--delta", "n" + "d" * 11 + "n")),
        ("cliques", ("flows", "cliques", "--delta", "n" + "d" * 16 + "n")),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert len(err.splitlines()) == 1 and f"resource cap: {cap}:" in err, argv
    for argv in [  # usage errors: exit 1 like any bad input, not the cap status 2
        (),
        ("bogus",),
        ("permutree", "frob", "--delta", "nnn"),
        ("sorder", "realize"),
        ("sorder", "count", "--s", "1,2", "--nope"),
        ("permutree", "count", "--delta", "nnn", "--n", "x"),
        ("permutree", "count", "--delta", "nnn", "--approx", "3"),  # `sorder realize` only
        ("flows", "routes", "--s", "1,2,1", "--approx", "3"),
        ("bicho", "build", "--delta", "nnn", "--approx", "3"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert len(err.splitlines()) == 1 and err.startswith("invalid input: "), argv
    code, out, _ = run_cli(capsys, "sorder", "--help")
    assert code == 0 and out.startswith("usage:")


def _field(out, key):
    """A field of a JSON answer, a list or an object by its length."""
    value = json.loads(out)[key]
    return len(value) if isinstance(value, (list, dict)) else value


# (request, the cap it checks, the size it needs, a field of its answer, that field)
CAP_REQUESTS = [
    (("permutree", "lattice", "--delta", "nnnn"), "rotation_lattice_n", 4, "nodes", 24),
    (("sorder", "realize", "--s", "1,2"), "s_trees", 3, "vertices", 3),
    (("sorder", "hasse", "--s", "6,6"), "s_trees", 7, "nodes", 7),
    (("flows", "routes", "--s", "1,2,1"), "routes", 10, "count", 10),
    # a netflow with full support, so no Lidskii term is 0 for want of it
    (("flows", "volume", "--s", "1,2,2", "--netflow", "1,1,1,1,-4"), "lidskii_terms", 14, "volume", 860),
    (("permutree", "count", "--delta", "nddn"), "permutree_count_sections", 13, "count", 14),
    (("bicho", "conjectures", "--delta", "nddn"), "conjecture_terms", 16, "conjecture_2", "PASS"),
    (("sorder", "identities", "--s", "1,2,2"), "lidskii_terms", 2, "equal", True),
    (("flows", "kostant", "--delta", "nddddn", "--netflow", "d"), "kostant_states", 5, "kostant", 132),
    (("flows", "cliques", "--s", "1,1,1,1"), "cliques", 24, "count", 24),  # from 16 routes
    (("permutree", "sort", "--pi", "3421", "--U", "2"), "sort_letters", 5, "word", "2,1,3,2,3"),
    (("sorder", "hasse", "--s", "6,6"), "s_letters", 12, "nodes", 7),
    (("sorder", "realize", "--s", "1,2"), "s_letters", 3, "vertices", 3),
    (("flows", "kostant", "--s", "1,2,1", "--netflow", "d"), "s_letters", 4, "kostant", 8),
]


def test_cap_flag_overrides(capsys, monkeypatch):
    """With a cap's default one below what a request needs, the request is
    refused; `--cap` at the size admits it, and a smaller `--cap` leaves the
    default in force: an override only raises."""
    for argv, cap, size, key, value in CAP_REQUESTS:
        with monkeypatch.context() as m:
            m.setitem(caps.DEFAULT_CAPS, cap, size - 1)
            for more in ((), ("--cap", "1")):
                code, _, err = run_cli(capsys, *argv, *more)
                assert code == 2, argv
                assert err.splitlines() == [
                    f"resource cap: {cap}: requested size {size} exceeds cap {size - 1} "
                    "(raise it with --cap or cap=)"
                ], argv
            code, out, _ = run_cli(capsys, *argv, "--cap", str(size), "--json")
        assert code == 0 and _field(out, key) == value, argv


def test_cap_flag_never_lowers_a_cap(capsys):
    """The defaults admit 16 routes and 24 cliques; `--cap 16` keeps both."""
    code, out, _ = run_cli(capsys, "flows", "cliques", "--s", "1,1,1,1", "--cap", "16", "--json")
    assert code == 0 and json.loads(out)["count"] == 24
    for argv, _, _, key, value in CAP_REQUESTS:
        code, out, _ = run_cli(capsys, *argv, "--cap", "0", "--json")
        assert code == 0 and _field(out, key) == value, argv


@pytest.mark.parametrize(
    "argv, cap, size",
    [
        (("permutree", "sort", "--pi", ",".join(map(str, range(1000, 0, -1))), "--U", "2"),
         "sort_letters", 499_500),
        (("sorder", "realize", "--s", "100000,1"), "s_letters", 100_001),
        (("sorder", "hasse", "--s", "1000000,1"), "s_letters", 1_000_001),
        (("flows", "kostant", "--s", "100000000", "--netflow", "d"), "s_letters", 100_000_000),
    ],
)
def test_a_size_past_the_cap_is_refused_before_anything_is_built(argv, cap, size):
    """The inversions of pi bound the letters of a sort, each traced with a
    copy of pi; |s| bounds the words and the graph oru(s), while the s-tree
    count never reads s_1.  Each is checked first, in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "permutree_lab.cli", *argv], env=env, capture_output=True,
        text=True, timeout=60,
    )
    assert time.perf_counter() - start < 1.0
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [
        f"resource cap: {cap}: requested size {size} exceeds cap {caps.DEFAULT_CAPS[cap]} "
        "(raise it with --cap or cap=)"
    ]


def test_readme_lists_the_default_caps():
    """README's cap table names exactly `caps.DEFAULT_CAPS`, each with its default."""
    text = (ROOT / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| .* \| ([\d,]+) \|$", text, flags=re.M)
    assert {name: int(default.replace(",", "")) for name, default in rows} == caps.DEFAULT_CAPS
    assert len(rows) == len(caps.DEFAULT_CAPS)


def test_s_trees_cap_counts_the_elements(capsys):
    """|s| = 10 with 10! elements is refused at once (and `--s 6,6`, |s| = 12
    with 7 elements, is built: see `CAP_REQUESTS`)."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "sorder", "hasse", "--s", ",".join("1" * 10))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "resource cap: s_trees: requested size 3628800 exceeds cap 40320 "
        "(raise it with --cap or cap=)"
    ]


def _decimal(value):
    """str(value), past Python's 4,300-digit limit on converting an int."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("n", [995, 1500, 9999])
def test_permutree_count_has_no_depth_limit(capsys, n):
    """n 'n's need a memo of n + 1 run lengths, admitted up to 9,999 by the
    default; the count is n!, printed whole even past 4,300 digits."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "permutree", "count", "--delta", "n" * n)
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "count: " + _decimal(math.factorial(n))


def test_permutree_count_past_the_memo_cap_is_refused(capsys):
    code, out, err = run_cli(capsys, "permutree", "count", "--delta", "n" * 10_000)
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "resource cap: permutree_count_sections: requested size 10001 exceeds cap 10000 "
        "(raise it with --cap or cap=)"
    ]


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["table", "json"])
def test_sorder_count_prints_a_count_past_4300_digits(capsys, json_flag):
    """2000! has 5,736 digits; the flags are still parsed under Python's limit."""
    code, out, err = run_cli(capsys, "sorder", "count", "--s", ",".join("1" * 2000), *json_flag)
    assert (code, err) == (0, "")
    count = json.loads(out, parse_int=str)["count"] if json_flag else out.splitlines()[-1][7:]
    assert count == _decimal(math.factorial(2000))
    code, _, err = run_cli(capsys, "sorder", "count", "--s", "1" * 5000)
    assert code == 1 and err.startswith("invalid input: --s")


def test_bicho_verbs_on_a_long_decoration(capsys):
    """1,500 'n's: the conjectures report exits 0, and verify counts flows and
    permutrees, then refuses the cliques, whose routes pass their cap."""
    code, out, err = run_cli(capsys, "bicho", "conjectures", "--delta", "n" * 1500, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["counts"]["permutrees"] == math.factorial(1500)
    code, out, err = run_cli(capsys, "bicho", "verify", "--delta", "n" * 1500)
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert line.startswith("resource cap: max_cliques_routes: requested size ")


@pytest.mark.parametrize(
    "argv, error",
    [
        (("flows", "routes", "--s", "1", "--cap", "-1"), "argument --cap: -1 is below 0"),
        (("permutree", "lattice", "--delta", "nnn", "--cap=-3"), "argument --cap: -3 is below 0"),
        (("sorder", "realize", "--s", "1", "--approx", "-1"), "argument --approx: -1 is below 0"),
    ],
)
def test_negative_cap_or_approx_is_a_usage_error(capsys, argv, error):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"invalid input: {error}"]


def _first_edge(d, **change):
    return {**d, "edges": [{**d["edges"][0], **change}, *d["edges"][1:]]}


MALFORMED_GRAPHS = {  # variants of perfbench/data/graph_nxdn.json, and an empty graph
    "vertices a string": lambda d: {**d, "vertices": "5"},
    "vertices a float": lambda d: {**d, "vertices": 2.5},
    "vertices a bool": lambda d: {**d, "vertices": True},
    "no vertex": lambda d: {"vertices": 0, "edges": [], "framing": {}},
    "tail a string": lambda d: _first_edge(d, tail="3"),
    "tail null": lambda d: _first_edge(d, tail=None),
    "head a float": lambda d: _first_edge(d, head=4.0),
    "framing a list": lambda d: {**d, "framing": []},
    "top level a list": lambda d: [d],
    "edge id repeated": lambda d: {**d, "edges": d["edges"] + d["edges"][:1]},
    "vertices beyond the edges": lambda d: {"vertices": 3000000, "edges": [], "framing": {}},
    "framing key not an int": lambda d: {**d, "framing": {"x1": d["framing"]["1"]}},
}


@pytest.mark.parametrize("case", list(MALFORMED_GRAPHS))
def test_malformed_graph_file_is_refused(case, capsys, tmp_path):
    nxdn = json.loads((ROOT / "perfbench" / "data" / "graph_nxdn.json").read_text())
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(MALFORMED_GRAPHS[case](nxdn)))
    for verb in ("routes", "cliques", "kostant"):
        code, out, err = run_cli(capsys, "flows", verb, "--graph", str(path))
        assert (code, out) == (1, ""), verb
        assert len(err.splitlines()) == 1, verb
        assert err.startswith("invalid input: malformed framed-graph JSON: "), verb


@pytest.mark.parametrize("content", [None, b'{"vertices": "\xe9"}'], ids=["missing", "not UTF-8"])
def test_unreadable_graph_file_is_refused(content, capsys, tmp_path):
    path = tmp_path / "graph.json"
    if content is not None:
        path.write_bytes(content)
    code, out, err = run_cli(capsys, "flows", "routes", "--graph", str(path))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"invalid input: cannot read framed graph from {path}: ")


def test_routes_of_a_graph_with_a_stranded_path(capsys, tmp_path):
    """An edge from 0 to 17 beside a doubled path from 1 to 17 that the
    source never reaches: `routes` prints its one route at once, and
    `cliques` refuses it, since the path's edges lie on no route."""
    n = 17
    edges = [{"id": "s", "tail": 0, "head": n}]
    edges += [{"id": f"{c}{v}", "tail": v, "head": v + 1} for v in range(1, n) for c in "tu"]
    framing = {
        str(v): {"in": [f"{c}{v-1}" for c in "tu" if v > 1], "out": [f"{c}{v}" for c in "tu"]}
        for v in range(1, n)
    }
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"vertices": n + 1, "edges": edges, "framing": framing}))
    code, out, err = run_cli(capsys, "flows", "routes", "--graph", str(path), "--json")
    assert (code, json.loads(out), err) == (0, {"count": 1, "routes": [["s"]]}, "")
    code, out, err = run_cli(capsys, "flows", "cliques", "--graph", str(path))
    assert (code, out) == (1, "")
    assert err.splitlines() == ["invalid input: max_cliques needs every edge on a route, not 't1'"]


def test_bicho_verbs_pass_their_cap_to_the_kostant_dp(capsys, monkeypatch):
    delta = "nuuununxuxxnxdndddudxdnudnudnxxundd"  # its flows' Kostant layers grow to 8 states
    monkeypatch.setitem(caps.DEFAULT_CAPS, "kostant_states", 4)
    code, out, err = run_cli(capsys, "bicho", "verify", "--delta", delta)
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "resource cap: kostant_states: requested size 5 exceeds cap 4 "
        "(raise it with --cap or cap=)"
    ]
    # --cap 8 admits the flow count, and the verb goes on to the cliques' 293
    # routes, which a cap of 8 does not lower below the default 256
    code, out, err = run_cli(capsys, "bicho", "verify", "--delta", delta, "--cap", "8")
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "resource cap: max_cliques_routes: requested size 293 exceeds cap 256 "
        "(raise it with --cap or cap=)"
    ]
    # `conjectures` on n + 6 'u' + n: 24 (root, J) terms, each flow count's layers at most 5 states
    monkeypatch.setitem(caps.DEFAULT_CAPS, "conjecture_terms", 23)
    argv = ("conjectures", "--delta", "nuuuuuun", "--json")
    code, out, err = run_cli(capsys, "bicho", *argv)
    assert (code, out) == (2, "")
    assert "conjecture_terms: requested size 24 exceeds cap 23" in err
    code, out, _ = run_cli(capsys, "bicho", *argv, "--cap", "24")
    assert code == 0 and json.loads(out)["conjecture_2"] == "PASS"


def _spy_on_caps(monkeypatch):
    """Wrap every library function that takes a cap, and the two cap checks,
    in every module that binds it; returns the (name, cap given) list they fill."""
    seen = []

    def spy(fn, param):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            seen.append((fn.__name__, sig.bind(*args, **kwargs).arguments.get(param)))
            return fn(*args, **kwargs)

        return wrapper

    for info in pkgutil.iter_modules(permutree_lab.__path__):
        module = importlib.import_module(f"permutree_lab.{info.name}")
        for name, fn in list(vars(module).items()):
            if not inspect.isfunction(fn) or not fn.__module__.startswith("permutree_lab."):
                continue
            params = inspect.signature(fn).parameters
            param = "cap" if "cap" in params else "override" if "override" in params else None
            if param:
                monkeypatch.setattr(module, name, spy(fn, param))
    return seen


def test_every_capped_verb_hands_its_cap_to_every_capped_call(capsys, monkeypatch):
    """Given `--cap N`, a verb hands N to each library call that takes a cap
    and to each cap check it reaches, so N raises every cap of the request."""
    seen = _spy_on_caps(monkeypatch)
    big = str(10**9 + 7)
    for argv, want in [
        (("permutree", "count", "--delta", "nddn"), {"count_permutrees"}),
        (("permutree", "lattice", "--delta", "nnnn"), {"rotation_lattice"}),
        (("sorder", "hasse", "--s", "1,2,1"), {"s_hasse"}),
        (("sorder", "realize", "--s", "1,2,1"), {"realize"}),
        (("sorder", "identities", "--s", "1,2,2"), {"lidskii_identities"}),
        (("flows", "routes", "--s", "1,2,1"), {"require_cap"}),
        (("flows", "cliques", "--s", "1,2,1"), {"max_cliques", "kostant"}),
        (("flows", "kostant", "--s", "1,2,1", "--netflow", "d"), {"kostant"}),
        (("flows", "volume", "--s", "1,2,2"), {"lidskii_volume", "kostant"}),
        (
            ("bicho", "verify", "--delta", "nxdn"),
            {"count_d_flows", "kostant", "count_permutrees", "max_cliques"},
        ),
        (
            ("bicho", "conjectures", "--delta", "nddn"),
            {"check_conjectures", "count_d_flows", "kostant", "count_permutrees", "max_cliques"},
        ),
    ]:
        seen.clear()
        code, _, err = run_cli(capsys, *argv, "--cap", big, "--json")
        assert (code, err) == (0, ""), argv
        assert want <= {name for name, _ in seen}, argv
        assert {cap for _, cap in seen} == {int(big)}, argv


def test_kostant_cap_is_checked_within_one_spread(capsys):
    """The source's need of 40 alone spreads into C(45, 5) = 1,221,759
    supplies; the refusal comes at the first state past the cap."""
    netflow = ",".join(["40"] + ["0"] * 6 + ["-40"])
    code, out, err = run_cli(capsys, "flows", "kostant", "--delta", "nxxxxxn", "--netflow", netflow)
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "resource cap: kostant_states: requested size 100001 exceeds cap 100000 "
        "(raise it with --cap or cap=)"
    ]


# each verb's flags: the grammar the CLI's table must build, written out apart from it
READS = {
    ("permutree", "count"): {"--delta", "--n", "--json", "--cap"},
    ("permutree", "lattice"): {"--delta", "--json", "--cap"},
    ("permutree", "insert"): {"--pi", "--delta", "--json"},
    ("permutree", "sort"): {"--pi", "--U", "--D", "--json", "--cap"},
    ("sorder", "count"): {"--s", "--json"},
    ("sorder", "hasse"): {"--s", "--json", "--cap"},
    ("sorder", "realize"): {"--s", "--epsilon", "--approx", "--json", "--cap"},
    ("sorder", "identities"): {"--s", "--json", "--cap"},
    ("flows", "routes"): {"--s", "--delta", "--graph", "--json", "--cap"},
    ("flows", "cliques"): {"--s", "--delta", "--graph", "--json", "--cap"},
    ("flows", "kostant"): {"--s", "--delta", "--graph", "--netflow", "--json", "--cap"},
    ("flows", "volume"): {"--s", "--delta", "--graph", "--netflow", "--json", "--cap"},
    ("bicho", "build"): {"--delta", "--json"},
    ("bicho", "verify"): {"--delta", "--json", "--cap"},
    ("bicho", "conjectures"): {"--delta", "--json", "--cap"},
    ("verify", "all"): {"--full", "--json"},
}


@pytest.mark.parametrize("request_", sorted(READS), ids=" ".join)
def test_help_lists_exactly_the_flags_a_verb_reads(capsys, request_):
    code, out, _ = run_cli(capsys, *request_, "--help")
    assert code == 0
    assert set(re.findall(r"^  (?:-h, )?(--\w+)", out, re.M)) == READS[request_] | {"--help"}


# (request that answers, a flag its family knows but the verb does not read, a value)
FOREIGN_FLAGS = [
    (("permutree", "count", "--delta", "nddn"), "--pi", "12"),
    (("permutree", "count", "--delta", "nddn"), "--U", "2"),
    (("permutree", "count", "--delta", "nddn"), "--D", "2"),
    (("permutree", "lattice", "--delta", "nnn"), "--n", "3"),
    (("permutree", "lattice", "--delta", "nnn"), "--pi", "123"),
    (("permutree", "lattice", "--delta", "nnn"), "--U", "2"),
    (("permutree", "lattice", "--delta", "nnn"), "--D", "2"),
    (("permutree", "insert", "--pi", "123", "--delta", "nnn"), "--n", "3"),
    (("permutree", "insert", "--pi", "123", "--delta", "nnn"), "--U", "9"),
    (("permutree", "insert", "--pi", "123", "--delta", "nnn"), "--D", "2"),
    (("permutree", "insert", "--pi", "123", "--delta", "nnn"), "--cap", "0"),
    (("permutree", "sort", "--pi", "321"), "--delta", "nnn"),
    (("permutree", "sort", "--pi", "321"), "--n", "3"),
    (("sorder", "count", "--s", "1,2"), "--epsilon", "0"),
    (("sorder", "count", "--s", "1,2"), "--approx", "3"),
    (("sorder", "count", "--s", "1,2"), "--cap", "5"),
    (("sorder", "hasse", "--s", "1,2"), "--epsilon", "1/2"),
    (("sorder", "hasse", "--s", "1,2"), "--approx", "3"),
    (("sorder", "identities", "--s", "1,0,1"), "--epsilon", "1/2"),
    (("sorder", "identities", "--s", "1,0,1"), "--approx", "3"),
    (("flows", "routes", "--s", "1,2,1"), "--netflow", "zzz"),
    (("flows", "cliques", "--s", "1,2,1"), "--netflow", "d"),
    (("bicho", "build", "--delta", "nxdn"), "--cap", "5"),
]


def test_foreign_flags_cover_every_pair_the_grammar_drops():
    family_flags = {family: set(flags) | {"--cap"} for family, (_, _, flags) in _GRAMMAR.items()}
    family_flags["flows"] |= {"--s", "--delta", "--graph"}
    dropped = {
        (family, verb, flag)
        for (family, verb), reads in READS.items() if family != "verify"
        for flag in family_flags[family] - reads
    }
    assert {(*argv[:2], flag) for argv, flag, _ in FOREIGN_FLAGS} == dropped
    assert len(dropped) == 23


@pytest.mark.parametrize(
    "argv, flag, value", FOREIGN_FLAGS, ids=[f"{a[0]} {a[1]} {f}" for a, f, _ in FOREIGN_FLAGS]
)
def test_a_flag_the_verb_does_not_read_is_a_usage_error(capsys, argv, flag, value):
    assert run_cli(capsys, *argv)[0] == 0
    code, out, err = run_cli(capsys, *argv, flag, value)
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"invalid input: unrecognized arguments: {flag} {value}"]


def test_verify_quick(capsys):
    code, out, _ = run_cli(capsys, "verify", "permutree")
    assert code == 0
    assert "[PASS]" in out and "FAIL" not in out
    code, _, err = run_cli(capsys, "verify", "nonsense")
    assert code == 1


def test_golden_stdout_digests(capsys, monkeypatch):
    """Every CLI request the benchmark checks prints byte-identical stdout."""
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())["cli"]
    monkeypatch.chdir(ROOT)  # the --graph requests name files relative to the root
    differ = []
    for request, digest in golden.items():
        _, out, _ = run_cli(capsys, *request.split())
        if hashlib.sha256(out.encode()).hexdigest() != digest:
            differ.append(request)
    assert differ == []


# --- the CLI grammar as a property -------------------------------------------


def _ints(low, high, max_size, min_size=0):
    return st.lists(st.integers(low, high), min_size=min_size, max_size=max_size).map(
        lambda xs: ",".join(map(str, xs))
    )


def _mostly(valid, *others):
    """A valid value half the time, else one drawn from `others`."""
    return st.sampled_from([valid] * len(others) + list(others)).flatmap(lambda s: s)


_JUNK = st.one_of(st.sampled_from(["", "-1", "--json", "1,,2", "x", "1/0"]), st.text(max_size=8))
_PERM = st.integers(1, 9).flatmap(lambda n: st.permutations(range(1, n + 1)))
_VALUES = {
    "--delta": _mostly(
        st.text("ndux", max_size=7), st.text("ndux", min_size=12, max_size=40), _JUNK
    ),
    "--pi": _mostly(
        _PERM.map(lambda p: "".join(map(str, p))),
        st.integers(10, 30).flatmap(lambda n: st.permutations(range(1, n + 1))).map(
            lambda p: ",".join(map(str, p))
        ),
        _ints(-3, 40, 12),
        _JUNK,
    ),
    "--n": _mostly(st.integers(0, 9).map(str), st.integers(-2, 40).map(str), _JUNK),
    "--U": _mostly(_ints(2, 8, 3, 1), _ints(-2, 40, 4), _JUNK),
    "--D": _mostly(_ints(2, 8, 3, 1), _ints(-2, 40, 4), _JUNK),
    "--s": _mostly(_ints(1, 3, 4, 1), _ints(0, 9, 20), _JUNK),
    "--epsilon": _mostly(
        st.sampled_from(["1/100", "1/2", "7", "1e-3"]),
        st.sampled_from(["-1/2", "0", "1/0", "1/2/3", "10**100"]),
        _JUNK,
    ),
    "--approx": _mostly(st.integers(0, 20).map(str), st.integers(-3, 400).map(str), _JUNK),
    "--netflow": _mostly(st.sampled_from(["i", "d"]), _ints(-3, 5, 8), _JUNK),
    "--graph": st.sampled_from(
        ["perfbench/data/graph_nxdn.json", "perfbench/data/graph_list_id.json", "missing.json"]
    ),
}
_GRAMMAR = {  # family: verbs, graph sources, further flags of any of its verbs
    "permutree": (
        ["count", "lattice", "insert", "sort"], [], ["--delta", "--n", "--pi", "--U", "--D"]
    ),
    "sorder": (["count", "hasse", "realize", "identities"], [], ["--s", "--epsilon", "--approx"]),
    "flows": (
        ["routes", "cliques", "kostant", "volume"], ["--s", "--delta", "--graph"], ["--netflow"]
    ),
    "bicho": (["build", "verify", "conjectures"], [], ["--delta"]),
    # `verify` takes no --cap, so every draw of it is refused as a usage error
    "verify": (["all", "permutree"], [], ["--full"]),
}


@st.composite
def _argv(draw):
    family = draw(st.sampled_from(sorted(_GRAMMAR)))
    verbs, sources, flags = _GRAMMAR[family]
    verb = draw(st.sampled_from(verbs * 3 + ["frob"]))
    argv, reads = [family, verb], READS.get((family, verb), set())
    # a flag the verb reads mostly, one it does not (a usage error) now and then
    odds = {True: [True, True, False], False: [True] + [False] * 5}
    picked = [flag for flag in flags if draw(st.sampled_from(odds[flag in reads]))]
    if sources:  # mostly one, else none, two or a repeated one
        picked += draw(st.sampled_from([1, 1, 1, 0, 2]).flatmap(
            lambda k: st.lists(st.sampled_from(sources), min_size=k, max_size=k)
        ))
    for flag in picked:
        argv.append(flag)
        if flag in _VALUES:
            argv.append(draw(_VALUES[flag]))
    if draw(st.booleans()):
        argv.append("--json")
    # a small cap keeps every capped verb quick; the others take it as a foreign flag now and then
    if "--cap" in reads or family == "verify" or draw(st.sampled_from([True, False, False, False])):
        argv += ["--cap", str(draw(st.integers(0, 6)))]
    return argv


@settings(max_examples=1000, deadline=None)
@given(_argv())
def test_cli_grammar_exits_cleanly(argv):
    """Any drawn request exits 0, 1 or 2; a refusal prints one stderr line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.chdir(ROOT), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, None), argv
    if code in (1, 2):
        assert len(err.getvalue().splitlines()) == 1, (argv, err.getvalue())


def _cli_process(shell_tail="", **kwargs):
    """`sorder count --s 1,2,1` in a fresh interpreter, its stdout redirected
    by `shell_tail` or by the `stdout` keyword."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    command = '"$0" -m permutree_lab.cli sorder count --s 1,2,1 ' + shell_tail
    return subprocess.run(
        ["sh", "-c", command, sys.executable], env=env, stderr=subprocess.PIPE, text=True,
        timeout=60, **kwargs,
    )


def test_a_closed_pipe_is_one_line():
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the answer is written
    try:
        proc = _cli_process(stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "cannot write output: [Errno 32] Broken pipe\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_a_full_disk_is_one_line():
    with open("/dev/full", "w") as full:
        proc = _cli_process(stdout=full)
    assert (proc.returncode, proc.stderr) == (
        1, "cannot write output: [Errno 28] No space left on device\n"
    )


def test_a_closed_stdout_is_one_line():
    proc = _cli_process(">&-")
    assert (proc.returncode, proc.stderr) == (1, "cannot write output: stdout is closed\n")
