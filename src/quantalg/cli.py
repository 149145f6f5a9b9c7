"""Command-line front end.

Loads JSON documents, dispatches to the library, and prints reports in
text or json mode.  Exit codes are fixed for CI use:

    0  success / the checked property holds
    1  semantic failure: a violation or counterexample was found
    2  structural or usage error (malformed input, invalid precondition)
    3  a configured cap was exceeded or the closure did not converge

json-mode output is deterministic: identical inputs give byte-identical
documents.  Reports go to standard output, errors to standard error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import jsonio
from .algebras import OpViolation, validate_algebra, image_factorize, require_valid
from .congruences import (
    Subcongruence,
    coequalizer,
    colimit,
    epsilon_kernel_pair,
    generated_congruence,
    kernel_subcongruence,
    quotient_algebra,
    subcongruence_violations,
)
from .distance import Dist
from .errors import (
    CapExceededError,
    ConvergenceError,
    InvariantError,
    StructuralError,
)
from .spaces import MetricSpace, coproduct, product, space_violations, tensor
from .terms import DEFAULT_TERM_CAP, parse_term, term_distance
from .varieties import (
    DEFAULT_ASSIGNMENT_CAP,
    birkhoff_soundness,
    counterexample_demo,
    free_in_variety_bounded,
    in_variety,
    satisfies,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_STRUCTURAL = 2
EXIT_CAP = 3


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise StructuralError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # malformed, or a number past the int digit limit
        raise StructuralError(f"{path} is not valid JSON: {exc}") from exc


class Reporter:
    def __init__(self, command: str, fmt: str):
        self.command = command
        self.fmt = fmt

    def emit(self, ok: bool, data: dict, text_lines: list[str]) -> None:
        if self.fmt == "json":
            doc = {"command": self.command, "ok": ok, "data": data}
            print(jsonio.canonical_dumps(doc))
        else:
            for line in text_lines:
                print(line)

    def error(self, kind: str, message: str) -> None:
        if self.fmt == "json":
            doc = {"command": self.command, "ok": False, "error": {"kind": kind, "message": message}}
            print(jsonio.canonical_dumps(doc), file=sys.stderr)
        else:
            print(f"error ({kind}): {message}", file=sys.stderr)


def _violation_doc(v) -> dict:
    if isinstance(v, OpViolation):
        return {"symbol": v.symbol, "left": list(v.left), "right": list(v.right),
                "bound": str(v.bound), "actual": str(v.actual)}
    return {"kind": v.kind, "points": list(v.points), "detail": v.detail}


def _cmd_validate(args, rep: Reporter) -> int:
    doc = _load_json(args.path)
    if args.kind == "space":
        points, rows = jsonio.space_parts_from_doc(doc)
        report = space_violations(points, rows, mode="pseudo" if args.pseudo else "metric")
    elif args.kind == "algebra":
        report = validate_algebra(jsonio.algebra_from_doc(doc))
    else:  # subcongruence: report base-space problems and matrix problems together
        if not isinstance(doc, dict) or "base" not in doc:
            raise StructuralError("subcongruence document needs 'base'")
        points, rows = jsonio.space_parts_from_doc(doc["base"])
        report = space_violations(points, rows, mode="metric")
        if not report:
            base = MetricSpace._derived(points, rows)  # just checked
            report = subcongruence_violations(base, jsonio.dhat_rows_from_doc(doc, base))
    data = {"violations": [_violation_doc(v) for v in report]}
    rep.emit(not report, data, [str(v) for v in report] or ["valid"])
    return EXIT_OK if not report else EXIT_VIOLATION


def _cmd_check_eq(args, rep: Reporter) -> int:
    algebra = jsonio.algebra_from_doc(_load_json(args.algebra))
    equation = jsonio.equation_from_doc(_load_json(args.equation))
    result = satisfies(algebra, equation, args.max_assignments)
    if result.ok:
        rep.emit(True, {"satisfied": True}, ["satisfied"])
        return EXIT_OK
    data = {
        "satisfied": False,
        "witness": dict(sorted(result.witness.items())),
        "distance": str(result.distance),
    }
    rep.emit(False, data, [f"violated at {result.witness} with distance {result.distance}"])
    return EXIT_VIOLATION


def _cmd_in_variety(args, rep: Reporter) -> int:
    algebra = jsonio.algebra_from_doc(_load_json(args.algebra))
    variety = jsonio.variety_from_doc(_load_json(args.variety))
    report = in_variety(algebra, variety, args.max_assignments)
    rows = []
    lines = []
    for eq, res in report.per_equation:
        row = {"equation": jsonio.equation_to_doc(eq), "satisfied": res.ok}
        if not res.ok:
            row["witness"] = dict(sorted(res.witness.items()))
            row["distance"] = str(res.distance)
        rows.append(row)
        lines.append(f"{'ok ' if res.ok else 'FAIL'} {eq}")
    rep.emit(report.ok, {"member": report.ok, "equations": rows}, lines)
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _classes_doc(classes: dict[str, list[str]]) -> list[dict]:
    return [
        {"representative": rep_, "members": members}
        for rep_, members in sorted(classes.items())
    ]


def _fibers(onto) -> dict[str, list[str]]:
    """Image point -> the source points sent to it, in point order."""
    classes: dict[str, list[str]] = {}
    for p in onto.source.carrier.points:
        classes.setdefault(onto(p), []).append(p)
    return classes


def _classes_lines(classes: dict[str, list[str]]) -> list[str]:
    return [f"[{r}] = {{{', '.join(members)}}}" for r, members in sorted(classes.items())]


def _cmd_kernel(args, rep: Reporter) -> int:
    mapping = jsonio.map_from_doc(_load_json(args.map))
    if args.epsilon is not None:
        relation = epsilon_kernel_pair(mapping, Dist(args.epsilon))
        data = {
            "epsilon": str(Dist(args.epsilon)),
            "pairs": [list(p) for p in relation.pairs],
            "space": jsonio.space_to_doc(relation.space),
        }
        rep.emit(True, data, [f"{x} ~ {y}" for x, y in relation.pairs])
        return EXIT_OK
    sub = kernel_subcongruence(mapping)
    doc = jsonio.subcongruence_to_doc(sub)
    rep.emit(True, doc, [jsonio.canonical_dumps(doc)])
    return EXIT_OK


def _cmd_quotient(args, rep: Reporter) -> int:
    algebra = require_valid(jsonio.algebra_from_doc(_load_json(args.algebra)))
    constraints = jsonio.constraints_from_doc(_load_json(args.constraints))
    cong = generated_congruence(algebra, constraints, max_passes=args.max_passes)
    quotient, onto = quotient_algebra(cong)
    classes = _fibers(onto)
    data = {
        "dhat": jsonio.subcongruence_to_doc(cong.sub),
        "quotient": jsonio.algebra_to_doc(quotient),
        "classes": _classes_doc(classes),
    }
    rep.emit(True, data, _classes_lines(classes))
    return EXIT_OK


def _cmd_coequalize(args, rep: Reporter) -> int:
    f = jsonio.hom_from_doc(_load_json(args.first))
    g = jsonio.hom_from_doc(_load_json(args.second))
    quotient, onto = coequalizer(f, g, max_passes=args.max_passes)
    data = {
        "quotient": jsonio.algebra_to_doc(quotient),
        "map": sorted([p, q] for p, q in onto.mapping.items()),
    }
    rep.emit(True, data, _classes_lines(_fibers(onto)))
    return EXIT_OK


def _cmd_colimit(args, rep: Reporter) -> int:
    sub = jsonio.subcongruence_from_doc(_load_json(args.subcongruence))
    space, qmap = colimit(sub)
    data = {"space": jsonio.space_to_doc(space), "classes": _classes_doc(qmap.classes())}
    rep.emit(True, data, _classes_lines(qmap.classes()))
    return EXIT_OK


def _cmd_space_binop(args, rep: Reporter) -> int:
    first = jsonio.space_from_doc(_load_json(args.first))
    second = jsonio.space_from_doc(_load_json(args.second))
    out = product(first, second) if args.op == "product" else tensor(first, second)
    doc = jsonio.space_to_doc(out)
    rep.emit(True, doc, [jsonio.canonical_dumps(doc)])
    return EXIT_OK


def _cmd_coproduct(args, rep: Reporter) -> int:
    spaces = [jsonio.space_from_doc(_load_json(p)) for p in args.spaces]
    out, injections = coproduct(spaces)
    data = {
        "space": jsonio.space_to_doc(out),
        "injections": [sorted([p, q] for p, q in m.mapping.items()) for m in injections],
    }
    rep.emit(True, data, [jsonio.canonical_dumps(data)])
    return EXIT_OK


def _cmd_factorize(args, rep: Reporter) -> int:
    hom = jsonio.hom_from_doc(_load_json(args.hom))
    onto, embed = image_factorize(hom)
    data = {
        "surjection": jsonio.hom_to_doc(onto),
        "embedding": jsonio.hom_to_doc(embed),
    }
    lines = [
        f"image has {onto.target.carrier.n} points",
        f"surjection: {dict(sorted(onto.mapping.items()))}",
        f"embedding: {dict(sorted(embed.mapping.items()))}",
    ]
    rep.emit(True, data, lines)
    return EXIT_OK


def _cmd_term_dist(args, rep: Reporter) -> int:
    space = jsonio.space_from_doc(_load_json(args.space))
    lhs = parse_term(args.lhs)
    rhs = parse_term(args.rhs)
    d = term_distance(lhs, rhs, space)
    rep.emit(True, {"distance": str(d)}, [str(d)])
    return EXIT_OK


def _cmd_free_bounded(args, rep: Reporter) -> int:
    variety = jsonio.variety_from_doc(_load_json(args.variety))
    space = jsonio.space_from_doc(_load_json(args.space))
    free = free_in_variety_bounded(
        variety, space, args.depth, max_terms=args.max_terms,
        max_instances=args.max_assignments, max_passes=args.max_passes,
    )
    finite = [
        [free.labels[i], free.labels[j], str(free.matrix[i][j])]
        for i in range(len(free.labels))
        for j in range(i + 1, len(free.labels))
        if not free.matrix[i][j].is_infinite
    ]
    data = {
        "terms": list(free.labels),
        "distances": finite,
        "over_approximation": True,
        "depth": free.depth,
    }
    lines = [f"{len(free.labels)} terms at depth <= {free.depth} (upper bounds only)"]
    lines += [f"d({a}, {b}) <= {d}" for a, b, d in finite]
    rep.emit(True, data, lines)
    return EXIT_OK


def _cmd_birkhoff(args, rep: Reporter) -> int:
    variety = jsonio.variety_from_doc(_load_json(args.variety))
    first = jsonio.algebra_from_doc(_load_json(args.first))
    second = jsonio.algebra_from_doc(_load_json(args.second))
    homs = [jsonio.hom_from_doc(_load_json(p)) for p in args.hom]
    report = birkhoff_soundness(variety, first, second, homs, args.max_assignments)
    data = {
        "ok": report.ok,
        "checks": [
            {"label": c.label, "ok": c.ok, "detail": c.detail} for c in report.checks
        ],
    }
    lines = [f"{'ok ' if c.ok else 'FAIL'} {c.label}" for c in report.checks]
    rep.emit(report.ok, data, lines)
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_demo(args, rep: Reporter) -> int:
    report = counterexample_demo(args.demo_n)
    witness = report.witness
    data = {
        "size": report.size,
        "sum_metric_violations": report.sum_violations,
        "max_metric_violations": report.max_violations,
        "witness": None
        if witness is None
        else {
            "left": list(witness.left),
            "right": list(witness.right),
            "input_bound": str(witness.bound),
            "output_distance": str(witness.actual),
        },
        "associativity_exact": report.associativity_ok,
        "left_unit_exact": report.left_unit_ok,
        "right_unit_exact": report.right_unit_ok,
    }
    lines = [
        f"truncated addition on {{0..{report.size}}} with |i-j| distances",
        f"addition-metric check: {report.sum_violations} violations",
        f"maximum-metric check: {report.max_violations} violations",
    ]
    if witness is not None:
        lines.append(
            f"witness: inputs {witness.left} and {witness.right} at maximum distance "
            f"{witness.bound}, outputs at distance {witness.actual}"
        )
    lines += [
        f"associativity exact: {report.associativity_ok}",
        f"unit laws exact: {report.left_unit_ok and report.right_unit_ok}",
    ]
    rep.emit(report.ok, data, lines)
    return EXIT_OK if report.ok else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantalg",
        description="Finite quantitative algebras: spaces, congruences, equations.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_caps(p, assignments=False, passes=False, terms=False):
        if assignments:
            p.add_argument("--max-assignments", type=int, default=DEFAULT_ASSIGNMENT_CAP)
        if passes:
            p.add_argument("--max-passes", type=int, default=None)
        if terms:
            p.add_argument("--max-terms", type=int, default=DEFAULT_TERM_CAP)

    p = sub.add_parser("validate", help="validate a space, algebra, or subcongruence")
    p.add_argument("kind", choices=("space", "algebra", "subcongruence"))
    p.add_argument("path")
    p.add_argument("--pseudo", action="store_true", help="allow zero distances between points")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("check-eq", help="check one quantitative equation")
    p.add_argument("algebra")
    p.add_argument("equation")
    add_caps(p, assignments=True)
    p.set_defaults(func=_cmd_check_eq)

    p = sub.add_parser("in-variety", help="check membership in a presented variety")
    p.add_argument("algebra")
    p.add_argument("variety")
    add_caps(p, assignments=True)
    p.set_defaults(func=_cmd_in_variety)

    p = sub.add_parser("kernel", help="kernel subcongruence (or one kernel pair) of a map")
    p.add_argument("map")
    p.add_argument("--epsilon", default=None)
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("quotient", help="quotient an algebra by distance constraints")
    p.add_argument("algebra")
    p.add_argument("constraints")
    add_caps(p, passes=True)
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("coequalize", help="coequalizer of two parallel homomorphisms")
    p.add_argument("first")
    p.add_argument("second")
    add_caps(p, passes=True)
    p.set_defaults(func=_cmd_coequalize)

    p = sub.add_parser("colimit", help="colimit (quotient space) of a subcongruence")
    p.add_argument("subcongruence")
    p.set_defaults(func=_cmd_colimit)

    for name in ("product", "tensor"):
        p = sub.add_parser(name, help=f"{name} of two spaces")
        p.add_argument("first")
        p.add_argument("second")
        p.set_defaults(func=_cmd_space_binop, op=name)

    p = sub.add_parser("coproduct", help="coproduct of spaces")
    p.add_argument("spaces", nargs="+")
    p.set_defaults(func=_cmd_coproduct)

    p = sub.add_parser("factorize", help="surjection/embedding factorization of a homomorphism")
    p.add_argument("hom")
    p.set_defaults(func=_cmd_factorize)

    p = sub.add_parser("term-dist", help="term metric distance over a space")
    p.add_argument("space")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.set_defaults(func=_cmd_term_dist)

    p = sub.add_parser("free-bounded", help="depth-bounded free algebra of a variety")
    p.add_argument("variety")
    p.add_argument("space")
    p.add_argument("--depth", type=int, required=True)
    add_caps(p, assignments=True, passes=True, terms=True)
    p.set_defaults(func=_cmd_free_bounded)

    p = sub.add_parser("birkhoff", help="variety closure spot-checks for two members")
    p.add_argument("variety")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--hom", action="append", default=[])
    add_caps(p, assignments=True)
    p.set_defaults(func=_cmd_birkhoff)

    p = sub.add_parser("demo-counterexample", help="the truncated-addition demonstration")
    p.add_argument("--demo-n", type=int, default=3)
    p.set_defaults(func=_cmd_demo)

    return parser


_parser = functools.cache(build_parser)  # built on the first call, once per process


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_STRUCTURAL if exc.code not in (0, None) else EXIT_OK
    rep = Reporter(args.command, args.format)
    try:
        return args.func(args, rep)
    except (CapExceededError, ConvergenceError) as exc:
        rep.error("cap", str(exc))
        return EXIT_CAP
    except (StructuralError, InvariantError) as exc:
        rep.error("structural", str(exc))
        return EXIT_STRUCTURAL
    except RecursionError:  # the term functions and json.load recurse
        rep.error("structural", "input nested too deeply")
        return EXIT_STRUCTURAL


if __name__ == "__main__":
    sys.exit(main())
