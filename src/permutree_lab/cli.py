"""Command-line front end: `permutree-lab <family> <verb> [flags]`, each verb
taking exactly the flags it reads (`<family> <verb> --help` lists them).  Exit
status 0 on success, 1 on validation and usage errors, 2 on resource-cap refusals.
--json output is byte-stable; --approx turns its {num, den} rationals into decimals.
"""

import argparse
import json
import re
import sys
from fractions import Fraction

from . import automata as am
from . import bicho as bi
from . import flows as fl
from . import oruga as og
from . import permutree as pt
from . import s_weak_order as sw
from . import verify as vf
from . import weak_order as wo
from .caps import require_cap
from .errors import ResourceCapError, ValidationError


def _emit_table(report):
    """Print `report` one scalar a line as `key: value`, each dict or list
    under its `key:` line and two spaces deeper."""
    stack = [(-1, "", report)]  # (depth, "key: " or "", value); depth -1 prints no line
    while stack:
        depth, label, value = stack.pop()
        if not isinstance(value, (dict, list)):
            print(f"{'  ' * depth}{label}{value}")
            continue
        if label:
            print("  " * depth + label[:-1])
        labels = [f"{k}: " for k in value] if isinstance(value, dict) else [""] * len(value)
        values = value.values() if isinstance(value, dict) else value
        stack += reversed([(depth + 1, k, v) for k, v in zip(labels, values)])


def _int_list(flag, text):
    """The integers of the comma list given to `flag`."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValidationError(f"{flag} {text!r} is not a list of integers") from None


def _parse_pi(text):
    """--pi as digits or as a comma list."""
    try:
        return wo.parse_perm(text)
    except ValidationError:
        raise
    except ValueError:
        raise ValidationError(f"--pi {text!r} is not a list of integers") from None


def _parse_eps(text):
    try:
        eps = Fraction(text)
    except ValueError:
        raise ValidationError(f"--epsilon {text!r} is not an exact rational such as 1/100") from None
    except ZeroDivisionError:
        raise ValidationError(f"--epsilon {text} has a zero denominator") from None
    if eps <= 0:
        raise ValidationError(f"--epsilon {text!r} must be positive")
    return eps


def _count(text):
    """An int >= 0, the argparse type of --cap and --approx."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is below 0")
    return value


def _attach_negative_values(argv):
    """`--epsilon -1/2` as `--epsilon=-1/2`: argparse reads a value that
    starts with '-' as an option unless it is a plain negative number."""
    out = []
    for tok in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and re.match(r"-[\d.]", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _graph(args):
    """The graph of the one source argparse admitted; '' is a value too."""
    if args.s is not None:
        return og.build_oru(_int_list("--s", args.s))
    if args.delta is not None:
        return bi.build_bic(pt.Decoration(args.delta))
    try:
        with open(args.graph) as fh:
            return fl.graph_from_json(json.load(fh))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read framed graph from {args.graph}: {exc}")


def _graph_and_netflow(args):
    graph = _graph(args)
    named = {"i": fl.netflow_i, "d": fl.netflow_d}.get(args.netflow)
    return graph, named(graph) if named else _int_list("--netflow", args.netflow)


class _ChecksFailed(Exception):
    """A request whose own checks failed: its report is printed, then exit status 1."""


def permutree_count(args):
    delta = pt.Decoration(args.delta)
    if args.n is not None and args.n != delta.n:
        raise ValidationError(f"--n {args.n} contradicts --delta of size {delta.n}")
    return {"delta": str(delta), "count": pt.count_permutrees(delta, cap=args.cap)}


def permutree_lattice(args):
    return pt.lattice_to_json(pt.rotation_lattice(pt.Decoration(args.delta), cap=args.cap))


def permutree_insert(args):
    return pt.insert(_parse_pi(args.pi), pt.Decoration(args.delta)).to_json()


def permutree_sort(args):
    U, D = (frozenset(_int_list(f, x) if x else ()) for f, x in (("--U", args.U), ("--D", args.D)))
    out = am.permutree_sort(_parse_pi(args.pi), U, D)
    trace = [{"pi": wo.serialize(p), "state": repr(j), "letter": l} for p, j, l in out.trace]
    return {"pi": args.pi, "U": sorted(U), "D": sorted(D), "word": ",".join(map(str, out.word)),
            "sorted": out.sorted, "residual": wo.serialize(out.residual), "trace": trace}


def sorder_count(args):
    s = _int_list("--s", args.s)
    return {"s": list(s), "count": sw.count_s_trees(s)}


def sorder_hasse(args):
    return sw.s_hasse(_int_list("--s", args.s), cap=args.cap).to_json(key=sw.serialize_word)


def sorder_realize(args):
    eps = _parse_eps(args.epsilon) if args.epsilon else None
    return og.realize(_int_list("--s", args.s), eps, cap=args.cap).to_json(approx=args.approx)


def sorder_identities(args):
    return og.lidskii_identities(_int_list("--s", args.s), cap=args.cap)


def flows_routes(args):
    graph = _graph(args)
    require_cap("routes", fl.count_routes(graph), args.cap)
    rs = fl.routes(graph)
    return {"count": len(rs), "routes": [[str(e) for e in r] for r in rs]}


def flows_cliques(args):
    cls = fl.max_cliques(_graph(args), cap=args.cap)
    return {"count": len(cls), "cliques": [sorted(" ".join(map(str, r)) for r in cl) for cl in cls]}


def flows_kostant(args):
    graph, a = _graph_and_netflow(args)
    return {"netflow": list(a), "kostant": fl.kostant(graph, a, cap=args.cap)}


def flows_volume(args):
    graph, a = _graph_and_netflow(args)
    return {"netflow": list(a), "volume": fl.lidskii_volume(graph, a, cap=args.cap)}


def bicho_build(args):
    return bi.build_bic(pt.Decoration(args.delta)).to_json()


def bicho_verify(args):
    delta = pt.Decoration(args.delta)
    counts = {"flows": bi.count_d_flows(delta, cap=args.cap)}
    counts["permutrees"] = pt.count_permutrees(delta, cap=args.cap)
    counts["cliques"] = len(fl.max_cliques(bi.build_bic(delta), cap=args.cap))
    report = {"delta": str(delta), "counts": counts, "ok": len(set(counts.values())) == 1}
    if not report["ok"]:
        raise _ChecksFailed(report)
    return report


def bicho_conjectures(args):
    return bi.check_conjectures(pt.Decoration(args.delta), cap=args.cap)


def run_verify(args):
    """run the verification sweeps"""
    checks = vf.ALL_CRITERIA if args.target == "all" else vf.MODULE_CHECKS[args.target]
    results = vf.run(checks, level="full" if args.full else "quick")
    report = results if args.json else [
        f"[{'PASS' if r['ok'] else 'FAIL'}] criterion {r['id']}: {r['name']} ({r['detail']})"
        for r in results
    ]
    if not all(r["ok"] for r in results):
        raise _ChecksFailed(report)
    return report


FLAGS = {  # the argparse keywords of each flag, the same in every verb that reads it
    "--delta": {"help": "decoration string over n/d/u/x (flows: its bicho graph)"},
    "--n": {"type": int, "help": "the size of --delta, checked against it"},
    "--pi": {"help": "permutation (digits, or comma-separated)"},
    "--U": {"default": "", "help": "comma list of up positions"},
    "--D": {"default": "", "help": "comma list of down positions"},
    "--s": {"help": "comma-separated composition (flows: its s-oruga graph)"},
    "--graph": {"help": "JSON file with a framed graph"},
    "--epsilon": {"help": "exact rational, e.g. 1/100"},
    "--approx": {"type": _count, "help": "decimal digits for rationals"},
    "--netflow": {"default": "i", "help": "'i', 'd', or comma list"},
    "--json": {"action": "store_true", "help": "machine-readable output"},
    "--cap": {"type": _count, "help": "raise every size cap the verb checks to at least this"},
}

# family: (help, {verb: (handler, its flags but --json as usage writes them: [optional], one|of)})
VERBS = {
    "permutree": ("permutree lattices and sorting", {
        "count": (permutree_count, "--delta [--n] [--cap]"),
        "lattice": (permutree_lattice, "--delta [--cap]"),
        "insert": (permutree_insert, "--pi --delta"),
        "sort": (permutree_sort, "--pi [--U] [--D]"),
    }),
    "sorder": ("the s-weak order and its realization", {
        "count": (sorder_count, "--s"),
        "hasse": (sorder_hasse, "--s [--cap]"),
        "realize": (sorder_realize, "--s [--epsilon] [--approx] [--cap]"),
        "identities": (sorder_identities, "--s [--cap]"),
    }),
    "flows": ("framed graphs, cliques, volumes", {
        "routes": (flows_routes, "--s|--delta|--graph [--cap]"),
        "cliques": (flows_cliques, "--s|--delta|--graph [--cap]"),
        "kostant": (flows_kostant, "--s|--delta|--graph [--netflow] [--cap]"),
        "volume": (flows_volume, "--s|--delta|--graph [--netflow] [--cap]"),
    }),
    "bicho": ("M-moves and permutree recovery", {
        "build": (bicho_build, "--delta"),
        "verify": (bicho_verify, "--delta [--cap]"),
        "conjectures": (bicho_conjectures, "--delta [--cap]"),
    }),
}


def _refuse(status, message):
    """The one-line rule: `message` on one stderr line, its line breaks escaped, then `status`."""
    breaks = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # each one str.splitlines breaks at
    print(message.translate({ord(c): repr(c)[1:-1] for c in breaks}), file=sys.stderr)
    sys.exit(status)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error: one line, exit status 1
        _refuse(1, f"invalid input: {message}")


def _add_flags(parser, spec):
    for token in spec.split():
        names = token.strip("[]").split("|")
        group = parser.add_mutually_exclusive_group(required=True) if len(names) > 1 else parser
        for name in names:
            group.add_argument(name, required=token == name, **FLAGS[name])


def build_parser(argv):
    """The parser of `argv`: every family, with the verbs of the first one
    `argv` names, the only family argparse then reads."""
    named = next((token for token in argv if token in VERBS), None)
    p = _Parser(prog="permutree-lab", description=__doc__)
    families = p.add_subparsers(dest="family", required=True)
    for family, (about, verbs) in VERBS.items():
        fp = families.add_parser(family, help=about)
        if family != named:
            continue
        sub = fp.add_subparsers(dest="verb", required=True)
        for verb, (handler, spec) in verbs.items():
            sp = sub.add_parser(verb)
            _add_flags(sp, f"{spec} [--json]")
            sp.set_defaults(func=handler)
    ver = families.add_parser("verify", help=run_verify.__doc__)
    ver.add_argument("target", choices=["all", *vf.MODULE_CHECKS])
    ver.add_argument("--full", action="store_true", help="desk-scale quantifiers")
    _add_flags(ver, "[--json]")
    ver.set_defaults(func=run_verify)
    return p


def main(argv=None):
    argv = _attach_negative_values(sys.argv[1:] if argv is None else argv)
    args = build_parser(argv).parse_args(argv)
    try:
        report, status = args.func(args), 0
    except _ChecksFailed as exc:
        report, status = exc.args[0], 1
    except ResourceCapError as exc:
        _refuse(2, f"resource cap: {exc}")
    except ValueError as exc:  # a ValidationError may name its witness
        witness = getattr(exc, "witness", None)
        _refuse(1, f"invalid input: {exc}" + (f" (witness: {witness})" if witness else ""))
    # an exact count prints whole, past 4,300 digits; the flags were parsed under the limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            _emit_table(report)
    finally:
        sys.set_int_max_str_digits(limit)
    if status:
        sys.exit(status)
    return 0


if __name__ == "__main__":
    sys.exit(main())
