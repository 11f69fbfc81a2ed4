"""The verification runner: every failure of a criterion, a library exception
included, is that criterion's FAIL line, and the run goes on to the rest."""

import contextlib
import hashlib
import io
import json

import pytest

from permutree_lab import automata as am
from permutree_lab import bicho as bi
from permutree_lab import cli
from permutree_lab import flows as fl
from permutree_lab import permutree as pt
from permutree_lab import s_weak_order as sw
from permutree_lab import verify
from permutree_lab.errors import ValidationError

# sha256 of the stdout of `permutree-lab verify all --json` (quick level); a
# change to any criterion's id, name, verdict or detail must re-record it
QUICK_JSON_SHA256 = "ce323d35702da004b86177000354deb3fda32f5de0da896928b9e989c8248f53"


def run_verify(capsys, *argv):
    try:
        cli.main(["verify", *argv])
        code = 0
    except SystemExit as exc:
        code = exc.code or 0
    out, err = capsys.readouterr()
    return code, out, err


def _marks(out):
    """criterion id -> "PASS" or "FAIL", read off the text report."""
    lines = out.splitlines()
    assert len(lines) == len(verify.ALL_CRITERIA)
    return {int(line.split()[2].rstrip(":")): line[1:5] for line in lines}


@pytest.fixture(scope="module")
def quick_json():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", "all", "--json"]) == 0
    return out.getvalue()


def test_quick_json_is_pinned(quick_json):
    assert hashlib.sha256(quick_json.encode()).hexdigest() == QUICK_JSON_SHA256


def test_ids_run_in_order_and_names_are_unique(quick_json):
    results = json.loads(quick_json)
    assert [r["id"] for r in results] == list(range(1, 12))
    assert len({r["name"] for r in results}) == len(results)


def test_a_library_assertion_is_a_fail_line(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("clique size 3 != 4")

    monkeypatch.setattr(fl, "max_cliques", broken)
    code, out, err = run_verify(capsys, "all")
    assert (code, err) == (1, "")
    marks = _marks(out)
    assert {k for k, mark in marks.items() if mark == "FAIL"} == {10, 11}
    assert "[FAIL] criterion 10: bicho recovery (clique size 3 != 4)" in out


def test_a_library_validation_error_is_a_fail_line(capsys, monkeypatch):
    # a fault of the library, not invalid input: every criterion that builds
    # a rotation lattice fails with the message, and the others still run
    def broken(tree, edge):
        raise ValidationError("rotated slots disagree")

    monkeypatch.setattr(pt, "rotate", broken)
    code, out, err = run_verify(capsys, "all")
    assert (code, err) == (1, "")
    marks = _marks(out)
    assert {k for k, mark in marks.items() if mark == "FAIL"} == {1, 2, 3, 10}
    for k in (1, 2, 3, 10):
        result = verify.ALL_CRITERIA[k - 1](level="quick")
        assert result["detail"] == "rotated slots disagree", k


def _never_sorted(pi, U, D):
    return am.SortOutcome((), False, tuple(pi), ())


@pytest.mark.parametrize(
    "criterion, patches, detail",
    [
        (verify.criterion_5, [(verify, "_disjoint_pairs", lambda n: []),
                              (am, "permutree_sort", _never_sorted)], "worked traces"),
        (verify.criterion_7, [(verify, "_strict_compositions", lambda cap: []),
                              (sw, "s_hasse", lambda s: ())], "anchors"),
        (verify.criterion_11, [(verify, "_strict_compositions", lambda cap: []),
                               (fl, "max_cliques", lambda G: [])], "witness coherence"),
    ],
)
def test_a_final_check_names_itself(criterion, patches, detail, monkeypatch):
    # the sweeps are emptied, so only the closing check can fail
    for module, name, value in patches:
        monkeypatch.setattr(module, name, value)
    result = criterion(level="quick")
    assert (result["ok"], result["detail"]) == (False, detail)


_clique = bi.permutree_clique


def _bottom_clique(tree):
    return _clique(pt.bottom(tree.delta))


def _top_and_bottom_swapped(tree):
    ends = {pt.bottom(tree.delta): pt.top(tree.delta), pt.top(tree.delta): pt.bottom(tree.delta)}
    return _clique(ends.get(tree, tree))


@pytest.mark.parametrize(
    "criterion, module, name, fault, detail",
    [
        (verify.criterion_4, am, "lex_min_accepted_word", lambda pi, aut, priority: None,
         "search (1, 2, 3, 4, 5) frozenset() frozenset()"),
        (verify.criterion_10, bi, "permutree_clique", _bottom_clique, "cliques nn"),
        (verify.criterion_10, bi, "permutree_clique", _top_and_bottom_swapped, "dual poset nn"),
    ],
)
def test_a_planted_fault_fails_its_criterion(criterion, module, name, fault, detail, monkeypatch):
    # one kernel returns a plausible wrong value; the criterion must name it
    monkeypatch.setattr(module, name, fault)
    result = criterion(level="quick")
    assert (result["ok"], result["detail"]) == (False, detail)
