"""Output checks that do not trust the code under test.

``check(cmd, code, out, err)`` returns a list of problems, empty when the
command ended with the expected exit code and its json output agrees with
the facts the generator computed for it (see workloads.py).  Rationals are
compared as ``Fraction`` values, never through quantalg.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction as F

from workloads import Cmd, parse, term_depth, term_metric, term_str, substitute


def frac(text: str):
    return None if text == "inf" else F(text)


def check(cmd: Cmd, code, out: str, err: str) -> list[str]:
    if code != cmd.exit:
        return [f"exit code {code}, expected {cmd.exit}: {' '.join(err.split())[:200]}"]
    if cmd.exit == 2:
        try:
            doc = json.loads(err)
        except ValueError:
            return ["structural error is not a json document"]
        if doc.get("ok") is not False or doc.get("error", {}).get("kind") != "structural":
            return ["structural error document is malformed"]
        return []
    try:
        doc = json.loads(out)
    except ValueError:
        return ["output is not a json document"]
    if doc.get("ok") is not (cmd.exit == 0):
        return [f"'ok' is {doc.get('ok')!r} with exit code {code}"]
    try:
        return CHECKS[cmd.kind](cmd.expect, doc["data"])
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        return [f"output does not have the expected shape: {exc!r}"]


def _entries(entries) -> dict:
    return {(x, y): frac(d) for x, y, d in entries}


def _partition(groups) -> set:
    return {frozenset(g) for g in groups}


def _quotient(expect, data) -> list[str]:
    problems = []
    pts = expect["points"]
    base = {(x, y): F(expect["base"][i][j]) for i, x in enumerate(pts) for j, y in enumerate(pts)}
    classes = data["classes"]
    if _partition(c["members"] for c in classes) != _partition(expect["classes"]):
        problems.append("classes differ from the union-find partition of the zero constraints")
    for c in classes:
        if c["representative"] != min(c["members"]):
            problems.append(f"class {c['members']} is not named by its least member")
    class_of = {p: c["representative"] for c in classes for p in c["members"]}
    dhat = dict(base)
    for (x, y), d in _entries(data["dhat"]["dhat"]).items():
        if d is None or d >= base[x, y]:
            problems.append(f"dhat({x}, {y}) = {d} is not below the base distance")
        dhat[x, y] = dhat[y, x] = d
    for x, y, eps in expect["constraints"]:
        if dhat[x, y] > F(eps):
            problems.append(f"dhat({x}, {y}) = {dhat[x, y]} exceeds the constraint {eps}")
    for x, y in itertools.combinations(pts, 2):
        if (dhat[x, y] == 0) != (class_of.get(x) == class_of.get(y)):
            problems.append(f"dhat({x}, {y}) = {dhat[x, y]} disagrees with the classes")
    if data["quotient"]["space"]["points"] != sorted({c["representative"] for c in classes}):
        problems.append("quotient carrier is not the set of class representatives")
    return problems


def _coequalize(expect, data) -> list[str]:
    problems = []
    pts = expect["points"]
    onto = dict(data["map"])
    groups: dict = {}
    for p in pts:
        groups.setdefault(onto.get(p), []).append(p)
    if _partition(groups.values()) != _partition(expect["classes"]):
        problems.append("classes differ from the union-find partition of the pairs")
    for rep, members in groups.items():
        if rep != min(members):
            problems.append(f"class {members} is not named by its least member")
    space = data["quotient"]["space"]
    if space["points"] != sorted(groups):
        problems.append("quotient carrier is not the set of class representatives")
    index = {p: i for i, p in enumerate(pts)}
    for a, b, d in space["dist"]:
        closest = min(F(expect["base"][index[x]][index[y]]) for x in groups[a] for y in groups[b])
        if not 0 < F(d) <= closest:
            problems.append(f"class distance d({a}, {b}) = {d} is not in (0, {closest}]")
    return problems


def _violation_count(expect, data) -> list[str]:
    found = len(data["violations"])
    if found != expect["violations"]:
        return [f"{found} violations reported, expected {expect['violations']}"]
    return []


def _free_bounded(expect, data) -> list[str]:
    problems = []
    terms = data["terms"]
    if len(terms) != expect["count"] or sorted(terms) != expect["terms"]:
        problems.append(f"{len(terms)} terms, expected {expect['count']}")
    if data["over_approximation"] is not True:
        problems.append("result is not flagged as an over-approximation")
    gap = F(expect["gap"])
    dist = lambda a, b: F(0) if a == b else gap  # noqa: E731
    found = {}
    for a, b, d in data["distances"]:
        d = F(d)
        found[a, b] = found[b, a] = d
        bound = term_metric(parse(a), parse(b), dist)
        if bound is not None and d > bound:
            problems.append(f"d({a}, {b}) = {d} exceeds the term metric {bound}")
    for variables, lhs, rhs, eps in expect["equations"]:
        lhs, rhs = parse(lhs), parse(rhs)
        for values in itertools.product("ab", repeat=len(variables)):
            env = dict(zip(variables, values))
            left, right = substitute(lhs, env), substitute(rhs, env)
            if max(term_depth(left), term_depth(right)) > data["depth"]:
                continue
            a, b = term_str(left), term_str(right)
            d = F(0) if a == b else found.get((a, b))
            if d is None or d > F(eps):
                problems.append(f"instance {a} = {b} is at {d}, above its bound {eps}")
    return problems[:20]


def _in_variety(expect, data) -> list[str]:
    verdicts = [row["satisfied"] for row in data["equations"]]
    if verdicts != expect["verdicts"] or data["member"] is not all(expect["verdicts"]):
        return [f"verdicts {verdicts}, expected {expect['verdicts']}"]
    return []


def _check_eq(expect, data) -> list[str]:
    if data["satisfied"] is not expect["satisfied"]:
        return [f"satisfied is {data['satisfied']}, expected {expect['satisfied']}"]
    if not expect["satisfied"]:
        if data["witness"] != expect["witness"] or F(data["distance"]) != F(expect["distance"]):
            return [f"witness {data['witness']} at {data['distance']}, expected "
                    f"{expect['witness']} at {expect['distance']}"]
    return []


def _term_dist(expect, data) -> list[str]:
    if frac(data["distance"]) != frac(expect["distance"]):
        return [f"distance {data['distance']}, expected {expect['distance']}"]
    return []


def _birkhoff(expect, data) -> list[str]:
    checks = data["checks"]
    if data["ok"] is not True or len(checks) != expect["checks"] or not all(c["ok"] for c in checks):
        return [f"{len(checks)} checks with ok={data['ok']}, expected {expect['checks']} passing"]
    return []


def _space_entries(expect, space) -> list[str]:
    if len(space["points"]) != len(set(space["points"])):
        return ["duplicate points in the result"]
    want = _entries(expect["dist"])
    got = _entries(space["dist"])
    if got != want:
        wrong = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        return [f"{len(wrong)} distances differ, first {wrong[0]}: "
                f"{got.get(wrong[0])} vs {want.get(wrong[0])}"]
    return []


def _binop(expect, data) -> list[str]:
    if len(data["points"]) != expect["points"]:
        return [f"{len(data['points'])} points, expected {expect['points']}"]
    return _space_entries(expect, data)


def _coproduct(expect, data) -> list[str]:
    if data["space"]["points"] != expect["points"]:
        return ["coproduct points differ"]
    for k, injection in enumerate(data["injections"]):
        if any(q != f"{k}:{p}" for p, q in injection):
            return [f"injection {k} does not tag its points"]
    return _space_entries(expect, data["space"])


def _kernel(expect, data) -> list[str]:
    if _entries(data["dhat"]) != _entries(expect["dhat"]):
        return ["kernel dhat differs from the image distances"]
    return []


def _kernel_epsilon(expect, data) -> list[str]:
    if F(data["epsilon"]) != F(expect["epsilon"]) or data["pairs"] != expect["pairs"]:
        return ["kernel pairs differ"]
    pts = expect["points"]
    index = {p: i for i, p in enumerate(pts)}
    base = expect["base"]
    by_label = {f"({x},{y})": (index[x], index[y]) for x, y in expect["pairs"]}
    space = data["space"]
    if sorted(space["points"]) != sorted(by_label):
        return ["relation space points differ from the pairs"]
    n = len(by_label)
    if len(space["dist"]) != n * (n - 1) // 2:
        return [f"{len(space['dist'])} relation distances, expected {n * (n - 1) // 2}"]
    for a, b, d in space["dist"]:
        (x1, y1), (x2, y2) = by_label[a], by_label[b]
        if F(d) != max(F(base[x1][x2]), F(base[y1][y2])):
            return [f"relation distance d({a}, {b}) = {d} is not the maximum metric"]
    return []


def _colimit(expect, data) -> list[str]:
    classes = data["classes"]
    if _partition(c["members"] for c in classes) != _partition(expect["classes"]):
        return ["colimit classes differ from the zero-distance classes"]
    reps = sorted(expect["dist"])
    if data["space"]["points"] != reps:
        return ["colimit points are not the least class members"]
    want = {(a, b): abs(F(expect["dist"][a]) - F(expect["dist"][b]))
            for a, b in itertools.combinations(reps, 2)}
    if _entries(data["space"]["dist"]) != want:
        return ["colimit distances differ from dhat between classes"]
    return []


def _factorize(expect, data) -> list[str]:
    if data["surjection"]["map"] != expect["surjection"]:
        return ["surjection differs from least-preimage naming"]
    if data["embedding"]["map"] != expect["embedding"]:
        return ["embedding differs from the image inclusion"]
    return []


CHECKS = {
    "quotient": _quotient,
    "coequalize": _coequalize,
    "validate_algebra": _violation_count,
    "validate_space": _violation_count,
    "validate_subcongruence": _violation_count,
    "free_bounded": _free_bounded,
    "in_variety": _in_variety,
    "check_eq": _check_eq,
    "term_dist": _term_dist,
    "birkhoff": _birkhoff,
    "product": _binop,
    "tensor": _binop,
    "coproduct": _coproduct,
    "kernel": _kernel,
    "kernel_epsilon": _kernel_epsilon,
    "colimit": _colimit,
    "factorize": _factorize,
}
