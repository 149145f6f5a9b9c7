import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import quantalg.cli as cli
from quantalg.cli import main
from quantalg.jsonio import algebra_to_doc, space_to_doc, canonical_dumps
from quantalg import make_space, truncated_addition_monoid
from quantalg.varieties import (
    commutativity_equation,
    monoid_equations,
)
import quantalg.jsonio as jsonio
import quantalg.spaces as spaces


@pytest.fixture
def files(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_space_ok(files, capsys):
    path = files("s.json", {"points": ["a", "b"], "dist": [["a", "b", "1"]]})
    code, out, _ = run(capsys, "validate", "space", path)
    assert code == 0
    assert "valid" in out


def test_validate_space_violation_exit_1(files, capsys):
    path = files(
        "bad.json",
        {"points": ["a", "b", "c"], "dist": [["a", "b", "1"], ["b", "c", "1"], ["a", "c", "3"]]},
    )
    code, out, _ = run(capsys, "--format", "json", "validate", "space", path)
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["data"]["violations"][0]["kind"] == "triangle"


def test_validate_pseudo_mode(files, capsys):
    path = files("p.json", {"points": ["a", "b"], "dist": [["a", "b", "0"]]})
    assert run(capsys, "validate", "space", path)[0] == 1
    assert run(capsys, "validate", "space", path, "--pseudo")[0] == 0


def test_validate_algebra(files, capsys):
    path = files("alg.json", algebra_to_doc(truncated_addition_monoid(3)))
    code, out, _ = run(capsys, "--format", "json", "validate", "algebra", path)
    assert code == 1  # fails the max-metric law
    doc = json.loads(out)
    assert doc["data"]["violations"]


def test_unknown_document_keys_are_structural_errors(files, capsys):
    space = files("s.json", {"points": ["x", "y"], "distances": [["x", "y", "1"]]})
    algebra = files("a.json", {
        "space": {"points": ["a"], "dist": []},
        "signature": [["f", 1]],
        "tables": {"f": [["a", "a"]], "g": [["a", "a"]]},
    })
    sub = files("sub.json", {"base": {"points": ["a"], "dist": [], "extra": 1}, "dhat": []})
    cases = [
        (("validate", "space", space), "space document has unknown key 'distances'"),
        (("validate", "algebra", algebra), "'tables' has a table for unknown symbol 'g'"),
        (("validate", "subcongruence", sub), "space document has unknown key 'extra'"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, "--format", "json", *argv)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {"kind": "structural", "message": message}


def test_structural_error_exit_2(files, capsys):
    missing = "/nonexistent/nowhere.json"
    code, _, err = run(capsys, "validate", "space", missing)
    assert code == 2 and "error" in err

    bad_json = files("broken.json", {"points": ["a"]})
    with open(bad_json, "w") as h:
        h.write("{not json")
    assert run(capsys, "validate", "space", bad_json)[0] == 2

    assert main(["no-such-command"]) == 2


def test_demo_counterexample(files, capsys):
    code, out, _ = run(capsys, "--format", "json", "demo-counterexample")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["data"]["witness"]["left"] == ["0", "1"]
    assert doc["data"]["witness"]["right"] == ["1", "2"]
    assert doc["data"]["witness"]["output_distance"] == "2"
    assert doc["data"]["witness"]["input_bound"] == "1"
    assert doc["data"]["sum_metric_violations"] == 0


def test_demo_rejects_small_n(capsys):
    assert run(capsys, "demo-counterexample", "--demo-n", "2")[0] == 2


# The demo's pair count is checked before the demo is built: without that
# check --demo-n 100000 built a 10**10-entry table first, so to run this
# test against an older revision, limit its memory with ulimit -v.
def test_demo_checks_the_pair_cap_before_building(capsys):
    code, out, err = run(capsys, "--format", "json", "demo-counterexample", "--demo-n", "100000")
    assert (code, out) == (3, "")
    error = json.loads(err)["error"]
    assert error["kind"] == "cap"
    assert error["message"].startswith(f"tuple pairs for symbol 'add': {100_001**4} exceeds")


def test_validate_subcongruence_checks_the_base_once(files, capsys, monkeypatch):
    base = {"points": ["a", "b", "c"], "dist": [["a", "b", "1"], ["b", "c", "1"], ["a", "c", "2"]]}
    checks = []
    real = spaces.axiom_report  # behind space_violations and the space constructors
    monkeypatch.setattr(spaces, "axiom_report", lambda *a, **k: checks.append(a) or real(*a, **k))
    for dhat, code in (([["a", "b", "0"], ["a", "c", "1"]], 0), ([["a", "b", "0"]], 1)):
        path = files("sub.json", {"base": base, "dhat": dhat})
        assert run(capsys, "--format", "json", "validate", "subcongruence", path)[0] == code
        assert len(checks) == 1
        checks.clear()


def _monoid_docs(files):
    pts = ["p0", "p1", "p2"]
    space = {
        "points": pts,
        "dist": [["p0", "p1", "1"], ["p0", "p2", "2"], ["p1", "p2", "1"]],
    }
    tables = {
        "add": sorted([a, b, max(a, b)] for a in pts for b in pts),
        "e": [["p0"]],
    }
    alg = {"space": space, "signature": [["add", 2], ["e", 0]], "tables": tables}
    return files("monoid.json", alg)


def test_check_eq(files, capsys):
    alg = _monoid_docs(files)
    eq_ok = files(
        "comm.json", {"vars": ["x", "y"], "lhs": "add(x, y)", "rhs": "add(y, x)", "eps": "0"}
    )
    assert run(capsys, "check-eq", alg, eq_ok)[0] == 0

    eq_bad = files(
        "strict.json", {"vars": ["x", "y"], "lhs": "add(x, y)", "rhs": "e()", "eps": "0"}
    )
    code, out, _ = run(capsys, "--format", "json", "check-eq", alg, eq_bad)
    assert code == 1
    doc = json.loads(out)
    assert doc["data"]["witness"] == {"x": "p0", "y": "p1"}  # least violation


def test_in_variety(files, capsys):
    alg = _monoid_docs(files)
    variety = files(
        "variety.json",
        {
            "signature": [["add", 2], ["e", 0]],
            "equations": [
                {"vars": ["x", "y", "z"], "lhs": "add(add(x, y), z)", "rhs": "add(x, add(y, z))", "eps": "0"},
                {"vars": ["x"], "lhs": "add(x, e())", "rhs": "x", "eps": "0"},
                {"vars": ["x"], "lhs": "add(e(), x)", "rhs": "x", "eps": "0"},
            ],
        },
    )
    code, out, _ = run(capsys, "--format", "json", "in-variety", alg, variety)
    assert code == 0
    assert json.loads(out)["data"]["member"] is True


def test_kernel_command(files, capsys):
    s = {"points": ["a", "b", "c"], "dist": [["a", "b", "1"], ["a", "c", "1"], ["b", "c", "1"]]}
    t = {"points": ["0", "1"], "dist": [["0", "1", "1"]]}
    m = files("map.json", {"source": s, "target": t, "map": [["a", "0"], ["b", "0"], ["c", "1"]]})
    code, out, _ = run(capsys, "--format", "json", "kernel", m, "--epsilon", "1/2")
    assert code == 0
    doc = json.loads(out)
    assert doc["data"]["pairs"] == [
        ["a", "a"], ["a", "b"], ["b", "a"], ["b", "b"], ["c", "c"]
    ]
    code, out, _ = run(capsys, "--format", "json", "kernel", m)
    assert code == 0
    assert json.loads(out)["data"]["dhat"] == [["a", "b", "0"]]


def test_quotient_and_colimit_commands(files, capsys):
    alg = _monoid_docs(files)
    cons = files("cons.json", [["p0", "p1", "0"]])
    code, out, _ = run(capsys, "--format", "json", "quotient", alg, cons)
    assert code == 0
    doc = json.loads(out)
    assert {c["representative"]: c["members"] for c in doc["data"]["classes"]}

    sub = files(
        "sub.json",
        {
            "base": {"points": ["a", "b"], "dist": [["a", "b", "1"]]},
            "dhat": [["a", "b", "0"]],
        },
    )
    code, out, _ = run(capsys, "--format", "json", "colimit", sub)
    assert code == 0
    doc = json.loads(out)
    assert doc["data"]["space"]["points"] == ["a"]
    assert doc["data"]["classes"] == [{"representative": "a", "members": ["a", "b"]}]


def test_space_constructions(files, capsys):
    s1 = files("s1.json", {"points": ["a", "b"], "dist": [["a", "b", "1"]]})
    s2 = files("s2.json", {"points": ["x", "y"], "dist": [["x", "y", "2"]]})
    code, out, _ = run(capsys, "--format", "json", "product", s1, s2)
    assert code == 0
    prod = json.loads(out)["data"]
    assert ["(a,x)", "(b,y)", "2"] in prod["dist"]

    code, out, _ = run(capsys, "--format", "json", "tensor", s1, s2)
    assert ["(a,x)", "(b,y)", "3"] in json.loads(out)["data"]["dist"]

    code, out, _ = run(capsys, "--format", "json", "coproduct", s1, s2)
    doc = json.loads(out)["data"]
    assert doc["space"]["points"] == ["0:a", "0:b", "1:x", "1:y"]
    # no cross-summand entries: infinite distances are omitted
    assert all(trip[0][0] == trip[1][0] for trip in doc["space"]["dist"])


def test_huge_literals_are_structural_errors(files, capsys):
    s1 = files("s1.json", {"points": ["a", "b"], "dist": [["a", "b", "1"]]})
    huge = files("huge.json", {"points": ["x", "y"], "dist": [["x", "y", "1e5000"]]})
    code, out, err = run(capsys, "--format", "json", "product", s1, huge)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "structural" and "too large" in error["message"]

    digits = files("digits.json", {})
    with open(digits, "w") as h:
        h.write('{"points": ["x", "y"], "dist": [["x", "y", ' + "9" * 5000 + "]]}")
    code, _, err = run(capsys, "--format", "json", "product", s1, digits)
    assert code == 2 and json.loads(err)["error"]["kind"] == "structural"


def _digits_to_int(digits):
    # int() of a long digit string would hit the interpreter's digit limit
    value = 0
    for k in range(0, len(digits), 500):
        chunk = digits[k:k + 500]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_sums_past_the_digit_limit_print_exactly(files, capsys):
    # every literal is 256 bits at most, but the path p00 .. p60 sums 60 of
    # them to a denominator of about 15,000 bits
    pts = [f"p{i:02d}" for i in range(61)]
    rng = random.Random(4)
    qs = set()
    while len(qs) < 60:
        qs.add(rng.getrandbits(255) | (1 << 254) | 1)
    qs = sorted(qs)
    space = {"points": pts, "dist": [[x, y, "1"] for x, y in itertools.combinations(pts, 2)]}
    alg = files("alg.json", {"space": space, "signature": [], "tables": {}})
    cons = files("cons.json", [[pts[i], pts[i + 1], f"1/{q}"] for i, q in enumerate(qs)])
    code, out, err = run(capsys, "--format", "json", "quotient", alg, cons)
    assert code == 0 and err == ""
    entry = {(x, y): d for x, y, d in json.loads(out)["data"]["dhat"]["dhat"]}[("p00", "p60")]
    num, den = entry.split("/")
    assert Fraction(_digits_to_int(num), _digits_to_int(den)) == sum(Fraction(1, q) for q in qs)
    assert len(den) > 4300
    # read back in, the value is a literal past MAX_LITERAL_BITS
    back = files("back.json", {"points": ["x", "y"], "dist": [["x", "y", entry]]})
    code, out, err = run(capsys, "--format", "json", "product", back, back)
    assert code == 2 and out == "" and json.loads(err)["error"]["kind"] == "structural"


def test_deep_nesting_is_a_structural_error(files, capsys):
    s1 = files("s1.json", {"points": ["a", "b"], "dist": [["a", "b", "1"]]})
    too_deep_to_parse = "u(" * 3000 + "a" + ")" * 3000
    too_deep_to_compare = "u(" * 600 + "a" + ")" * 600
    for lhs in (too_deep_to_parse, too_deep_to_compare):
        code, out, err = run(capsys, "--format", "json", "term-dist", s1, lhs, lhs)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {"kind": "structural", "message": "input nested too deeply"}


def test_term_dist_command(files, capsys):
    s1 = files("s1.json", {"points": ["a", "b"], "dist": [["a", "b", "1"]]})
    code, out, _ = run(capsys, "term-dist", s1, "f(a, a)", "f(b, a)")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "term-dist", s1, "f(a)", "g(a)")
    assert code == 0 and out.strip() == "inf"


def test_factorize_command(files, capsys):
    alg_doc = algebra_to_doc(truncated_addition_monoid(3))
    hom = files(
        "hom.json",
        {"source": alg_doc, "target": alg_doc, "map": [[p, p] for p in ["0", "1", "2", "3"]]},
    )
    code, out, _ = run(capsys, "--format", "json", "factorize", hom)
    assert code == 0
    doc = json.loads(out)
    assert doc["data"]["surjection"] and doc["data"]["embedding"]


def test_free_bounded_command(files, capsys):
    variety = files(
        "v.json",
        {
            "signature": [["add", 2], ["e", 0]],
            "equations": [
                {"vars": ["x", "y"], "lhs": "add(x, y)", "rhs": "add(y, x)", "eps": "1/4"}
            ],
        },
    )
    space = files("m.json", {"points": ["x", "y"], "dist": []})
    code, out, _ = run(capsys, "--format", "json", "free-bounded", variety, space, "--depth", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["data"]["over_approximation"] is True
    assert ["add(x, y)", "add(y, x)", "1/4"] in doc["data"]["distances"]


def test_birkhoff_command(files, capsys):
    alg = _monoid_docs(files)
    variety = files(
        "v.json",
        {
            "signature": [["add", 2], ["e", 0]],
            "equations": [
                {"vars": ["x", "y"], "lhs": "add(x, y)", "rhs": "add(y, x)", "eps": "0"}
            ],
        },
    )
    code, out, _ = run(capsys, "--format", "json", "birkhoff", variety, alg, alg)
    assert code == 0
    assert json.loads(out)["data"]["ok"] is True


def test_coequalize_command(files, capsys):
    one_doc = {
        "space": {"points": ["s"], "dist": []},
        "signature": [],
        "tables": {},
    }
    two_doc = {
        "space": {"points": ["a", "b"], "dist": []},
        "signature": [],
        "tables": {},
    }
    f = files("f.json", {"source": one_doc, "target": two_doc, "map": [["s", "a"]]})
    g = files("g.json", {"source": one_doc, "target": two_doc, "map": [["s", "b"]]})
    code, out, _ = run(capsys, "--format", "json", "coequalize", f, g)
    assert code == 0
    doc = json.loads(out)
    assert doc["data"]["quotient"]["space"]["points"] == ["a"]


def test_json_outputs_are_deterministic_and_reparse(files, capsys):
    alg = _monoid_docs(files)
    cons = files("cons.json", [["p0", "p1", "1/2"]])
    first = run(capsys, "--format", "json", "quotient", alg, cons)
    second = run(capsys, "--format", "json", "quotient", alg, cons)
    assert first == second
    doc = json.loads(first[1])
    # emitted documents re-parse under the same schema
    jsonio.subcongruence_from_doc(doc["data"]["dhat"])
    jsonio.algebra_from_doc(doc["data"]["quotient"])

    s1 = files("s1.json", {"points": ["a", "b"], "dist": [["a", "b", "1"]]})
    s2 = files("s2.json", {"points": ["x", "y"], "dist": [["x", "y", "2"]]})
    _, out, _ = run(capsys, "--format", "json", "product", s1, s2)
    jsonio.space_from_doc(json.loads(out)["data"])

    m = files(
        "map.json",
        {
            "source": {"points": ["a", "b"], "dist": [["a", "b", "1"]]},
            "target": {"points": ["a", "b"], "dist": [["a", "b", "1"]]},
            "map": [["a", "a"], ["b", "b"]],
        },
    )
    _, out, _ = run(capsys, "--format", "json", "kernel", m)
    jsonio.subcongruence_from_doc(json.loads(out)["data"])

    _, out, _ = run(capsys, "--format", "json", "factorize", files(
        "h.json",
        {
            "source": algebra_to_doc(truncated_addition_monoid(3)),
            "target": algebra_to_doc(truncated_addition_monoid(3)),
            "map": [[p, p] for p in ["0", "1", "2", "3"]],
        },
    ))
    parsed = json.loads(out)["data"]
    jsonio.hom_from_doc(parsed["surjection"])
    jsonio.hom_from_doc(parsed["embedding"])


# free-bounded checks the window's size before it allocates: without those
# checks the first two signatures allocated without bound, so to run these
# tests against an older revision, limit its memory with ulimit -v.
@pytest.mark.parametrize("arity, code, kind", [(100_000, 3, "cap"), (16, 3, "cap"), (True, 2, "structural")])
def test_free_bounded_bad_signatures_fail_cleanly(files, capsys, arity, code, kind):
    variety = files("v.json", {"signature": [["f", arity]], "equations": []})
    space = files("m.json", {"points": ["x", "y"], "dist": []})
    got, out, err = run(capsys, "--format", "json", "free-bounded", variety, space, "--depth", "1")
    assert (got, out) == (code, "")
    assert json.loads(err)["error"]["kind"] == kind
    assert "Traceback" not in err


@pytest.mark.parametrize("command, flag, value", [
    ("free-bounded", "--max-passes", "0"), ("free-bounded", "--max-passes", "-5"),
    ("free-bounded", "--max-terms", "-1"), ("free-bounded", "--max-assignments", "-1"),
    ("check-eq", "--max-assignments", "-1"), ("in-variety", "--max-assignments", "-1"),
    ("birkhoff", "--max-assignments", "-1"), ("quotient", "--max-passes", "0"),
])
def test_caps_that_are_not_budgets_are_usage_errors(files, capsys, command, flag, value):
    alg = _monoid_docs(files)
    eq = {"vars": ["x", "y"], "lhs": "add(x, y)", "rhs": "add(y, x)", "eps": "1/4"}
    variety = files("v.json", {"signature": [["add", 2], ["e", 0]], "equations": [eq]})
    inputs = {
        "free-bounded": [variety, files("m.json", {"points": ["x", "y"], "dist": []}), "--depth", "1"],
        "check-eq": [alg, files("eq.json", eq)],
        "in-variety": [alg, files("none.json", {"signature": [["add", 2], ["e", 0]], "equations": []})],
        "birkhoff": [variety, alg, alg],
        "quotient": [alg, files("cons.json", [["p0", "p1", "1/2"]])],
    }[command]
    code, out, err = run(capsys, "--format", "json", command, *inputs, flag, value)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["kind"] == "structural"
    assert "Traceback" not in err


def test_main_reuses_one_parser_without_sharing_defaults(files, capsys):
    # --hom appends to its default list: a second call without --hom in the
    # same process must not see the first call's homomorphism
    alg = algebra_to_doc(truncated_addition_monoid(3))
    variety = files("v.json", {"signature": [["add", 2], ["e", 0]], "equations": []})
    alg_path = files("a.json", alg)
    hom = files("h.json", {"source": alg, "target": alg, "map": [[p, p] for p in "0123"]})
    calls = [("birkhoff", variety, alg_path, alg_path, "--hom", hom),
             ("birkhoff", variety, alg_path, alg_path)]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    for argv in calls:
        fresh = subprocess.run([sys.executable, "-m", "quantalg.cli", "--format", "json", *argv],
                               capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert run(capsys, "--format", "json", *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert cli._parser() is cli._parser()


def test_cap_exit_code(files, capsys):
    alg = _monoid_docs(files)
    eq = files(
        "eq3.json",
        {"vars": ["x", "y", "z"], "lhs": "add(x, add(y, z))", "rhs": "add(add(x, y), z)", "eps": "0"},
    )
    code, _, err = run(capsys, "check-eq", alg, eq, "--max-assignments", "5")
    assert code == 3
    assert "cap" in err or "exceeds" in err
