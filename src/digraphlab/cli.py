"""Command-line front end.

Graphs move between subcommands as JSON files only; identical argv (and seed)
produce identical output bytes, except for the optional timing field on
verification reports.

Exit codes: 0 success or PASS, 1 FAIL (counterexample found), 2 indeterminate
(budget or size guard), 3 usage error, 4 a verifier raised (ERROR) and, under
verify-all, no job failed.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

from . import verify as V
from .coloring import chromatic_number
from .constructions import (
    arc_graph_iter,
    circular_complete,
    complete,
    interleaved_adjoint,
    inverse_interleaved_adjoint,
    path,
    tournament,
    tree_dual,
)
from .core import ConstructionError, Digraph, SizeLimitExceeded, from_json, hom_to_json_dict, to_dot, to_json
from .homs import BUDGET_EXCEEDED, DEFAULT_BUDGET, hom_exists
from .paths import OrientedPath, path_family
from .product import categorical_product

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 3
EXIT_ERROR = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load(path_str: str) -> Digraph:
    return from_json(Path(path_str).read_text())


def _emit(args, text: str):
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _verdict_exit(verdict: str) -> int:
    return {"PASS": EXIT_PASS, "FAIL": EXIT_FAIL, "INDETERMINATE": EXIT_INDETERMINATE, "ERROR": EXIT_ERROR}[verdict]


def _report_out(args, report: V.VerifyReport) -> int:
    if args.json:
        print(json.dumps(report.to_json_dict(include_timing=args.timings), separators=(",", ":")))
    else:
        print(f"[{report.verdict}] {report.claim} {json.dumps(report.params, default=str)}")
        if report.verdict != "PASS":
            print(json.dumps(report.witnesses, indent=2, default=str))
    return _verdict_exit(report.verdict)


def cmd_construct(args) -> int:
    fam = args.family
    g: Digraph
    if fam == "tournament":
        g = tournament(_req(args, "n"))
    elif fam == "complete":
        g = complete(_req(args, "n"))
    elif fam == "path":
        if args.dirs is not None:
            g = OrientedPath.parse(args.dirs).as_digraph()
        else:
            g = path(_req(args, "n"))
    elif fam == "circular":
        g = circular_complete(_req(args, "n"), _req(args, "k"))
    elif fam == "iota":
        g = interleaved_adjoint(_input_graph(args), _req(args, "k"))
    elif fam == "iota-star":
        g = inverse_interleaved_adjoint(_input_graph(args), _req(args, "k"))
    elif fam == "arc-graph":
        g = arc_graph_iter(_input_graph(args), args.k if args.k is not None else 1)
    elif fam == "dual":
        g = tree_dual(_input_graph(args))
    elif fam == "product":
        if not args.factors:
            raise ConstructionError("product needs --factors")
        spec = categorical_product([_load(f) for f in args.factors])
        g = spec.materialize()
    elif fam == "path-family":
        family = path_family(_req(args, "n"), _req(args, "k"))
        if args.json:
            text = json.dumps(
                {"n": family.n, "k": family.k, "members": [p.dirs for p in family.members]},
                separators=(",", ":"),
            )
        else:
            text = "\n".join(p.dirs for p in family.members)
        _emit(args, text + "\n")
        return EXIT_PASS
    else:  # pragma: no cover - argparse restricts choices
        raise ConstructionError(f"unknown family {fam}")
    _emit(args, to_dot(g, args.collapse_symmetric) if args.dot else to_json(g) + "\n")
    return EXIT_PASS


def _req(args, name: str) -> int:
    val = getattr(args, name)
    if val is None:
        raise ConstructionError(f"--{name} is required for this family")
    return val


def _input_graph(args) -> Digraph:
    if not args.input:
        raise ConstructionError("this family needs --input")
    return _load(args.input)


def cmd_hom(args) -> int:
    g = _load(args.source)
    h = _load(args.target)
    r = hom_exists(g, h, args.budget)
    if r is BUDGET_EXCEEDED:
        print(json.dumps({"result": "budget_exceeded", "budget": args.budget}))
        return EXIT_INDETERMINATE
    if r is None:
        print(json.dumps({"result": "none"}))
        return EXIT_PASS
    print(json.dumps({"result": "hom", **hom_to_json_dict(r, h)}, separators=(",", ":")))
    return EXIT_PASS


def cmd_chi(args) -> int:
    g = _load(args.input)
    res = chromatic_number(g, args.limit)
    if res.chi is None:
        print(json.dumps({"chi": None, "above_limit": args.limit}))
        return EXIT_INDETERMINATE
    if args.json:
        payload = {"chi": res.chi, "colouring": list(res.colouring)}
        if res.lower_bound_cert is not None:
            payload["clique"] = list(res.lower_bound_cert)
        print(json.dumps(payload, separators=(",", ":")))
    else:
        print(res.chi)
    return EXIT_PASS


#: Verifier parameter -> the flag that sets it, for parameters not named
#: after their flag; `verify.FILE_FLAGS` names the graph files.
_SET_BY = {"max_source_vertices": "max_vertices", "consequence_samples": "check_consequence"}


def cmd_verify(args) -> int:
    """Run the registered verifier of args.claim (its sweep when it has one
    and none of its graph files is given) on the flags the user set.

    A usage error or a size guard propagates to `main`; any other exception
    becomes an ERROR report, as a job of `verify-all`.
    """
    claim, files = args.claim, _file_flags(args.claim)
    if claim in V.SWEEPS and not any(getattr(args, flag) for flag in files.values()):
        claim, files = V.SWEEPS[claim], {}
    given = _given(claim, args, files)
    kwargs = {name: _load_graphs(value) if name in files else value for name, value in given.items()}
    try:
        report = V.REGISTRY[claim](**kwargs)
    except (ValueError, OSError, SizeLimitExceeded):
        raise
    except Exception as e:
        report = V.VerifyReport(claim, given, V.ERROR, {"error": f"{type(e).__name__}: {e}"})
    return (_report_out if report.verdict == V.ERROR else args.render)(args, report)


def _file_flags(claim: str) -> dict:
    """The claim's graph parameters -> the flags naming their files."""
    flags = {**V.FILE_FLAGS, **V.CLAIM_FILE_FLAGS.get(claim, {})}
    return {name: flags[name] for name in inspect.signature(V.REGISTRY[claim]).parameters if name in flags}


def _given(claim: str, args, files: dict) -> dict:
    """The claim's parameters that a flag the user set gives, by the flag's
    value (a file name for a graph parameter)."""
    set_by = {**_SET_BY, **files}
    given = {}
    for name, param in inspect.signature(V.REGISTRY[claim]).parameters.items():
        flag = set_by.get(name, name)
        value = getattr(args, flag, None)
        if value is not None:
            given[name] = value
        elif param.default is not param.empty:
            continue
        elif hasattr(args, flag):
            raise ConstructionError(f"--{flag.replace('_', '-')} is required for this claim")
        else:
            raise ConstructionError(f"{claim} needs {name}: {param.annotation}, which no flag sets")
    return given


def _load_graphs(paths):
    return [_load(f) for f in paths] if isinstance(paths, list) else _load(paths)


def _steep_path_out(args, report: V.VerifyReport) -> int:
    if args.json:
        return _report_out(args, report)
    print(report.witnesses["path"])
    print(f"arcs: {report.witnesses['n_arcs']}")
    print(f"[{report.verdict}]")
    return _verdict_exit(report.verdict)


def _h_function_out(args, report: V.VerifyReport) -> int:
    w = report.witnesses
    if report.verdict == V.INDETERMINATE:
        print(json.dumps({"result": "budget_exceeded", "budget": w["budget"]}))
    elif args.json:
        print(json.dumps(w, separators=(",", ":")))
    else:
        for row in w["table"]:
            print(f"{row['path']}  chi(dual)={row['chi']}  dual_vertices={row['dual_vertices']}")
        print(f"h({w['k']}) = {w['value']}  argmin {w['argmin']}")
    return _verdict_exit(report.verdict)


def cmd_verify_all(args) -> int:
    reports = V.run_profile(args.profile)
    if args.json:
        print(
            json.dumps(
                [r.to_json_dict(include_timing=args.timings) for r in reports],
                separators=(",", ":"),
            )
        )
    else:
        width = max(len(r.claim) for r in reports)
        for r in reports:
            print(f"{r.claim.ljust(width)}  {r.verdict}  ({r.timing_ms:.0f} ms)")
        n_pass = sum(r.verdict == "PASS" for r in reports)
        print(f"{n_pass}/{len(reports)} PASS")
    for verdict in (V.FAIL, V.ERROR, V.INDETERMINATE):
        if any(r.verdict == verdict for r in reports):
            return _verdict_exit(verdict)
    return EXIT_PASS


def build_parser() -> _Parser:
    parser = _Parser(prog="digraphlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a graph family or apply a functor")
    families = ["tournament", "path", "complete", "circular", "iota", "iota-star", "arc-graph", "dual",
                "product", "path-family"]
    p.add_argument("--family", required=True, choices=families)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--dirs", help="oriented path pattern over +/- (family=path)")
    p.add_argument("--input", help="input digraph JSON file (functor families)")
    p.add_argument("--factors", nargs="+", help="factor files (family=product)")
    p.add_argument("--out", help="write to file instead of stdout")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    p.add_argument("--collapse-symmetric", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("hom", help="search for a homomorphism between two graph files")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(fn=cmd_hom)

    p = sub.add_parser("chi", help="exact chromatic number of a graph file")
    p.add_argument("--input", required=True)
    p.add_argument("--limit", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_chi)

    p = sub.add_parser("verify", help="run one registered claim verifier")
    p.add_argument("--claim", required=True, choices=list(V.REGISTRY))
    for flag in ("--input", "--source", "--target", "--tree"):
        p.add_argument(flag)
    p.add_argument("--factors", nargs="+")
    for flag in ("--n", "--k", "--c", "--ell", "--samples", "--max-vertices", "--max-tree-arcs", "--seed", "--budget"):
        p.add_argument(flag, type=int)
    p.add_argument("--check-consequence", type=int, metavar="N",
                   help="also check N random targets of chromatic number >= 4 (claim steep-path)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--timings", action="store_true", help="include timing_ms in JSON output")
    p.set_defaults(fn=cmd_verify, render=_report_out)

    p = sub.add_parser("find-steep-path", help="verify --claim steep-path, printed as the path")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--check-consequence", type=int, default=0, metavar="N",
                   help="also check N random targets of chromatic number >= 4")
    p.add_argument("--seed", type=int)
    p.add_argument("--json", action="store_true")
    p.add_argument("--timings", action="store_true")
    p.set_defaults(fn=cmd_verify, claim="steep-path", render=_steep_path_out)

    p = sub.add_parser("h-function", help="verify --claim h-function, printed as its table")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify, claim="h-function", render=_h_function_out, timings=False)

    p = sub.add_parser("verify-all", help="run a whole verification profile")
    p.add_argument("--profile", choices=list(V.PROFILES), default="quick")
    p.add_argument("--json", action="store_true")
    p.add_argument("--timings", action="store_true")
    p.set_defaults(fn=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConstructionError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SizeLimitExceeded as e:
        print(f"refused: {e}", file=sys.stderr)
        return EXIT_INDETERMINATE


if __name__ == "__main__":
    raise SystemExit(main())
