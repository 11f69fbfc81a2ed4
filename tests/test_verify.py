"""The verification runner: every failure of a criterion, a library exception
included, is that criterion's FAIL line, and the run goes on to the rest."""

import contextlib
import hashlib
import inspect
import io
import json
import textwrap

import pytest

from permutree_lab import automata as am
from permutree_lab import bicho as bi
from permutree_lab import cli
from permutree_lab import flows as fl
from permutree_lab import oruga as og
from permutree_lab import permutree as pt
from permutree_lab import s_weak_order as sw
from permutree_lab import vectors as vec
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


_insert = pt.insert


def _slots_reversed(pi, delta):
    tree = _insert(pi, delta)
    slots = tuple(cs[::-1] for cs in tree.children)
    return pt.Permutree(tree.n, tree.delta, slots, tree.inversion_rows())


_rows = pt.Permutree.inversion_rows


def _row_1_top_bit_dropped(tree):
    rows = _rows(tree)
    top_bit = 1 << rows[1].bit_length() >> 1  # 0 for an empty row
    return rows[:1] + (rows[1] ^ top_bit,) + rows[2:]


_count = pt.count_permutrees


def _mutant(fn, old, new):
    """`fn` compiled again with `old` replaced by `new` in its source, against
    a copy of its module's namespace, so the module itself stays as it is."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1
    scope = dict(fn.__globals__)
    exec(source.replace(old, new), scope)
    return scope[fn.__name__]


_sort = am.permutree_sort


def _sort_without_its_last_letter(pi, U, D, cap=None):
    out = _sort(pi, U, D, cap=cap)
    return am.SortOutcome(out.word[:-1], out.sorted, out.residual, out.trace)


_coxeter_sort = am.coxeter_sort


def _coxeter_sort_without_its_last_letter(pi, c):
    word, sortable = _coxeter_sort(pi, c)
    return word[:-1], sortable


_kostant = fl.kostant
_coordinates = og.vertex_coordinates


def _bottom_vertex_moved(w, s, hs):
    coords = _coordinates(w, s, hs)
    return (coords[0] + 1, *coords[1:]) if w == sw.sorted_word(s) else coords


_delta_w = og.delta_w


def _one_route_missing(w, s):
    return frozenset(sorted(_delta_w(w, s), key=str)[1:])


@pytest.mark.parametrize(
    "criterion, module, name, fault, detail",
    [
        (verify.criterion_1, pt, "insert", _slots_reversed, "delta=nndn"),
        (verify.criterion_10, pt, "insert", _slots_reversed, "dual poset ndn"),
        (verify.criterion_3, pt.Permutree, "inversion_rows", _row_1_top_bit_dropped,
         "rotated slots disagree with the closure of B(T) + (i, j)"),
        (verify.criterion_1, pt, "count_permutrees", lambda d, cap=None: _count(d, cap) + 1,
         "delta=nnnn"),
        (verify.criterion_2, vec, "meet_via_inversions", lambda a, b: a,
         "nn: Permutree(nn, B=[(1, 2)]) ^ Permutree(nn, B=[])"),
        (verify.criterion_4, am, "lex_min_accepted_word", lambda pi, aut, priority: None,
         "search (1, 2, 3, 4, 5) frozenset() frozenset()"),
        (verify.criterion_10, bi, "permutree_clique", _bottom_clique, "cliques nn"),
        (verify.criterion_10, bi, "permutree_clique", _top_and_bottom_swapped, "dual poset nn"),
        (verify.criterion_5, am, "permutree_sort", _sort_without_its_last_letter, "word (1, 3, 2)"),
        (verify.criterion_6, am, "coxeter_sort", _coxeter_sort_without_its_last_letter,
         "c-word wrong (1, 3, 2)"),
        (verify.criterion_7, sw, "add_ascents", _mutant(sw.add_ascents, " | gain[p]", ""),
         "closure s=(1, 1, 2, 1) w=(1, 3, 2, 3, 4) A=[(1, 3), (3, 4)]: multiset transitivity fails"),
        (verify.criterion_8, fl, "kostant", lambda G, a, cap=None: _kostant(G, a, cap) + 1,
         "K_G(0,1,1,-2)"),
        (verify.criterion_9, og, "vertex_coordinates", _bottom_vertex_moved,
         "edge direction mismatch at (1, 2) + (1, 2)"),
        (verify.criterion_11, og, "delta_w", _one_route_missing, "(1,)"),
    ],
)
def test_a_planted_fault_fails_its_criterion(criterion, module, name, fault, detail, monkeypatch):
    # one kernel returns a plausible wrong value; the criterion must name it
    monkeypatch.setattr(module, name, fault)
    result = criterion(level="quick")
    assert (result["ok"], result["detail"]) == (False, detail)
