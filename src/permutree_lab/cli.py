"""Command-line front end.

Verbs: permutree {count|lattice|insert|sort}, sorder {count|hasse|realize|
identities}, flows {routes|cliques|kostant|volume}, bicho {build|verify|
conjectures}, verify {all|<module>}.  Exit status 0 on success, 1 on
validation and usage errors, 2 on resource-cap refusals.  With --json the
output is machine-readable and byte-stable; rationals appear as {num, den}
pairs unless --approx (`sorder realize` only) asks for decimals.
"""

from __future__ import annotations

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


def _emit(data, args):
    if getattr(args, "json", False):
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        _emit_table(data)


def _emit_table(data, indent=""):
    if isinstance(data, dict):
        for k in data:
            v = data[k]
            if isinstance(v, (dict, list)):
                print(f"{indent}{k}:")
                _emit_table(v, indent + "  ")
            else:
                print(f"{indent}{k}: {v}")
    elif isinstance(data, list):
        for v in data:
            if isinstance(v, (dict, list)):
                _emit_table(v, indent + "  ")
            else:
                print(f"{indent}{v}")
    else:
        print(f"{indent}{data}")


def _int_list(flag, text):
    """The integers of the comma list given to `flag`."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValidationError(f"{flag} {text!r} is not a list of integers") from None


def _parse_set(flag, text):
    return frozenset(_int_list(flag, text)) if text else frozenset()


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


def _graph_from_args(args):
    count = sum(1 for x in (args.s, args.delta, args.graph) if x)
    if count != 1:
        raise ValidationError("give exactly one of --s, --delta, --graph")
    if args.s:
        return og.build_oru(_int_list("--s", args.s))
    if args.delta:
        return bi.build_bic(pt.Decoration(args.delta))
    try:
        with open(args.graph) as fh:
            return fl.graph_from_json(json.load(fh))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read framed graph from {args.graph}: {exc}")


def _netflow_from_args(graph, text):
    if text == "i":
        return fl.netflow_i(graph)
    if text == "d":
        return fl.netflow_d(graph)
    return _int_list("--netflow", text)


PERMUTREE_NEEDS = {
    "count": ["delta"],
    "lattice": ["delta"],
    "insert": ["pi", "delta"],
    "sort": ["pi"],
}


def cmd_permutree(args):
    missing = [f"--{k}" for k in PERMUTREE_NEEDS[args.verb] if getattr(args, k) is None]
    if missing:
        raise ValidationError(f"permutree {args.verb} needs {' and '.join(missing)}")
    if args.verb == "count":
        delta = pt.Decoration(args.delta)
        if args.n is not None and args.n != delta.n:
            raise ValidationError(f"--n {args.n} contradicts --delta of size {delta.n}")
        _emit({"delta": str(delta), "count": pt.count_permutrees(delta, cap=args.cap)}, args)
    elif args.verb == "lattice":
        lat = pt.rotation_lattice(pt.Decoration(args.delta), cap=args.cap)
        _emit(pt.lattice_to_json(lat), args)
    elif args.verb == "insert":
        tree = pt.insert(_parse_pi(args.pi), pt.Decoration(args.delta))
        _emit(tree.to_json(), args)
    elif args.verb == "sort":
        U, D = _parse_set("--U", args.U), _parse_set("--D", args.D)
        out = am.permutree_sort(_parse_pi(args.pi), U, D)
        _emit(
            {
                "pi": args.pi,
                "U": sorted(U),
                "D": sorted(D),
                "word": ",".join(str(l) for l in out.word),
                "sorted": out.sorted,
                "residual": wo.serialize(out.residual),
                "trace": [
                    {"pi": wo.serialize(p), "state": repr(j), "letter": l}
                    for p, j, l in out.trace
                ],
            },
            args,
        )


def cmd_sorder(args):
    s = _int_list("--s", args.s)
    if args.verb == "count":
        _emit({"s": list(s), "count": sw.count_s_trees(s)}, args)
    elif args.verb == "hasse":
        H = sw.s_hasse(s, cap=args.cap)
        _emit(H.to_json(key=sw.serialize_word), args)
    elif args.verb == "realize":
        eps = _parse_eps(args.epsilon) if args.epsilon else None
        real = og.realize(s, eps, cap=args.cap)
        _emit(real.to_json(approx=args.approx), args)
    elif args.verb == "identities":
        _emit(og.lidskii_identities(s, cap=args.cap), args)


def cmd_flows(args):
    graph = _graph_from_args(args)
    if args.verb == "routes":
        require_cap("routes", fl.count_routes(graph), args.cap)
        rs = fl.routes(graph)
        _emit({"count": len(rs), "routes": [[str(e) for e in r] for r in rs]}, args)
    elif args.verb == "cliques":
        cls = fl.max_cliques(graph, cap=args.cap)
        _emit(
            {
                "count": len(cls),
                "cliques": [sorted(" ".join(map(str, r)) for r in cl) for cl in cls],
            },
            args,
        )
    elif args.verb == "kostant":
        a = _netflow_from_args(graph, args.netflow)
        _emit({"netflow": list(a), "kostant": fl.kostant(graph, a, cap=args.cap)}, args)
    elif args.verb == "volume":
        a = _netflow_from_args(graph, args.netflow)
        _emit({"netflow": list(a), "volume": fl.lidskii_volume(graph, a, cap=args.cap)}, args)


def cmd_bicho(args):
    delta = pt.Decoration(args.delta)
    if args.verb == "build":
        _emit(bi.build_bic(delta).to_json(), args)
    elif args.verb == "verify":
        graph = bi.build_bic(delta)
        counts = {
            "flows": bi.count_d_flows(delta, cap=args.cap),
            "permutrees": pt.count_permutrees(delta),
            "cliques": len(fl.max_cliques(graph, cap=args.cap)),
        }
        ok = counts["flows"] == counts["permutrees"] == counts["cliques"]
        _emit({"delta": str(delta), "counts": counts, "ok": ok}, args)
        if not ok:
            sys.exit(1)
    elif args.verb == "conjectures":
        _emit(bi.check_conjectures(delta, cap=args.cap), args)


def cmd_verify(args):
    if args.target == "all":
        checks = vf.ALL_CRITERIA
    else:
        checks = vf.MODULE_CHECKS.get(args.target)
        if checks is None:
            raise ValidationError(
                f"unknown module {args.target!r}; pick from "
                f"{sorted(vf.MODULE_CHECKS)} or 'all'"
            )
    level = "full" if args.full else "quick"
    results = vf.run(checks, level=level)
    if args.json:
        print(json.dumps(results, indent=2, sort_keys=True))
    else:
        for r in results:
            mark = "PASS" if r["ok"] else "FAIL"
            print(f"[{mark}] criterion {r['id']}: {r['name']} ({r['detail']})")
    if not all(r["ok"] for r in results):
        sys.exit(1)


class _Parser(argparse.ArgumentParser):
    """Usage errors follow the one-line rule: one stderr line, exit status 1."""

    def error(self, message):
        self.exit(1, f"invalid input: {message}\n")


def build_parser():
    p = _Parser(prog="permutree-lab", description=__doc__)
    sub = p.add_subparsers(dest="family", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        sp.add_argument("--cap", type=_count, default=None, help="override size caps")

    tree = sub.add_parser("permutree", help="permutree lattices and sorting")
    tree.add_argument("verb", choices=["count", "lattice", "insert", "sort"])
    tree.add_argument("--delta", help="decoration string over n/d/u/x")
    tree.add_argument("--n", type=int, default=None)
    tree.add_argument("--pi", help="permutation (digits, or comma-separated)")
    tree.add_argument("--U", default="", help="comma list of up positions")
    tree.add_argument("--D", default="", help="comma list of down positions")
    common(tree)
    tree.set_defaults(func=cmd_permutree)

    sord = sub.add_parser("sorder", help="the s-weak order and its realization")
    sord.add_argument("verb", choices=["count", "hasse", "realize", "identities"])
    sord.add_argument("--s", required=True, help="comma-separated composition")
    sord.add_argument("--epsilon", default=None, help="exact rational, e.g. 1/100")
    sord.add_argument("--approx", type=_count, default=None, help="decimal digits for rationals")
    common(sord)
    sord.set_defaults(func=cmd_sorder)

    flow = sub.add_parser("flows", help="framed graphs, cliques, volumes")
    flow.add_argument("verb", choices=["routes", "cliques", "kostant", "volume"])
    flow.add_argument("--s", default=None, help="use the s-oruga graph")
    flow.add_argument("--delta", default=None, help="use the bicho graph")
    flow.add_argument("--graph", default=None, help="JSON file with a framed graph")
    flow.add_argument("--netflow", default="i", help="'i', 'd', or comma list")
    common(flow)
    flow.set_defaults(func=cmd_flows)

    bic = sub.add_parser("bicho", help="M-moves and permutree recovery")
    bic.add_argument("verb", choices=["build", "verify", "conjectures"])
    bic.add_argument("--delta", required=True)
    common(bic)
    bic.set_defaults(func=cmd_bicho)

    ver = sub.add_parser("verify", help="run the verification sweeps")
    ver.add_argument("target", help="'all' or a module name")
    ver.add_argument("--full", action="store_true", help="desk-scale quantifiers")
    ver.add_argument("--json", action="store_true")
    ver.set_defaults(func=cmd_verify)
    return p


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_negative_values(argv))
    try:
        args.func(args)
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        sys.exit(2)
    except ValidationError as exc:
        detail = f" (witness: {exc.witness})" if exc.witness else ""
        print(f"invalid input: {exc}{detail}", file=sys.stderr)
        sys.exit(1)
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        sys.exit(1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
