"""Tests of the benchmark itself: deterministic inputs, a checker that
catches corrupted outputs, and traced counts that repeat exactly.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from quantalg import cli  # noqa: E402

HASH_SNIPPET = """
import hashlib, sys
sys.path.insert(0, {bench!r})
import workloads
h = hashlib.sha256()
for name in workloads.WORKLOADS:
    plan = workloads.build(name, 7)
    for file, data in sorted(plan.files.items()):
        h.update(file.encode() + data)
    for cmd in plan.cmds:
        h.update(repr((cmd.kind, cmd.argv, cmd.exit, sorted(cmd.expect.items()))).encode())
print(h.hexdigest())
"""


def _subprocess_output(code: str, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=600, check=True)
    return proc.stdout.strip().splitlines()[-1]


def test_generation_is_byte_identical_across_runs():
    code = HASH_SNIPPET.format(bench=str(BENCH))
    assert _subprocess_output(code, "1") == _subprocess_output(code, "2")


def test_seeds_change_contents_but_not_the_mix():
    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 1), workloads.build(name, 2)
        assert [c.kind for c in a.cmds] == [c.kind for c in b.cmds]
        assert a.files != b.files


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One real output per command kind, with the plan that produced it."""
    found = {}
    for name in workloads.WORKLOADS:
        plan = workloads.build(name, 3)
        root = tmp_path_factory.mktemp(name)
        for file, data in plan.files.items():
            (root / file).write_bytes(data)
        for cmd in plan.cmds:
            if cmd.kind in found:
                continue
            argv = ["--format", "json"] + [str(root / a[1:]) if a.startswith("@") else a
                                            for a in cmd.argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            found[cmd.kind] = (cmd, code, out.getvalue(), err.getvalue())
    return found


def test_checker_accepts_real_outputs(outputs):
    assert set(outputs) == set(checks.CHECKS)
    for kind, (cmd, code, out, err) in outputs.items():
        assert checks.check(cmd, code, out, err) == [], kind


def _corrupt(doc, kind):
    data = doc["data"]
    if kind in ("product", "tensor"):
        x, y, d = data["dist"][0]
        data["dist"][0] = [x, y, d + "1"]
    elif kind == "coproduct":
        data["space"]["dist"].pop()
    elif kind == "quotient":
        data["classes"] = [{"representative": m, "members": [m]}
                           for c in data["classes"] for m in c["members"]][:-1]
    elif kind == "coequalize":
        data["map"][0][1] = data["map"][-1][0]
    elif kind.startswith("validate"):
        data["violations"].append(copy.deepcopy(data["violations"][0]) if data["violations"] else {})
    elif kind == "free_bounded":
        data["terms"].pop()
    elif kind == "in_variety":
        data["equations"][0]["satisfied"] = not data["equations"][0]["satisfied"]
    elif kind == "check_eq":
        data["satisfied"] = not data["satisfied"]
    elif kind == "term_dist":
        data["distance"] = "inf" if data["distance"] != "inf" else "0"
    elif kind == "birkhoff":
        data["checks"].pop()
    elif kind == "kernel":
        data["dhat"].append([data["base"]["points"][0], data["base"]["points"][1], "0"])
    elif kind == "kernel_epsilon":
        data["pairs"].pop()
    elif kind == "colimit":
        data["space"]["dist"][0][2] += "1"
    elif kind == "factorize":
        data["embedding"]["map"].pop()
    else:
        raise AssertionError(f"no corruption for {kind}")
    return doc


def test_checker_rejects_corrupted_outputs(outputs):
    for kind, (cmd, code, out, err) in outputs.items():
        if cmd.exit == 2:
            assert checks.check(cmd, 0, "{}", ""), kind
            continue
        bad = json.dumps(_corrupt(json.loads(out), kind))
        assert checks.check(cmd, code, bad, err), kind


def test_checker_rejects_wrong_exit_codes(outputs):
    for kind, (cmd, code, out, err) in outputs.items():
        assert checks.check(cmd, (code + 1) % 4, out, err), kind


COUNT_SNIPPET = """
import contextlib, io, json, sys
sys.path[:0] = [{bench!r}]
import tracing, workloads
from quantalg import cli
tracer, counter = tracing.Tracer(), tracing.DistCounter()
root = {root!r}
for name in workloads.WORKLOADS:
    plan = workloads.build(name, 5)
    for file, data in plan.files.items():
        with open(f"{{root}}/{{file}}", "wb") as h:
            h.write(data)
    seen = set()
    for i, cmd in enumerate(plan.cmds):
        if cmd.kind in seen:
            continue
        seen.add(cmd.kind)
        argv = ["--format", "json"] + [f"{{root}}/{{a[1:]}}" if a.startswith("@") else a for a in cmd.argv]
        for hook in (tracer, counter):
            hook.install()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli.main(argv)
            hook.uninstall()
values = tracing.layer_values(tracer, counter)
units = dict(tracing.PER_LAYER)
print(json.dumps({{k: v for k, v in sorted(values.items()) if units.get(k) in ("count", "bytes")}}))
"""


def test_traced_counts_repeat_exactly(tmp_path):
    runs = []
    for hash_seed in ("1", "2"):
        root = tmp_path / hash_seed
        root.mkdir()
        code = COUNT_SNIPPET.format(bench=str(BENCH), root=str(root))
        runs.append(json.loads(_subprocess_output(code, hash_seed)))
    assert runs[0] == runs[1]
    assert runs[0]["distance.cmp_calls"] > 0 and runs[0]["trace.spans"] > 0


def test_tracer_restores_every_binding():
    import quantalg.congruences as congruences
    import quantalg.varieties as varieties

    before = (congruences.closure_fixpoint, varieties.closure_fixpoint, cli.main)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert varieties.closure_fixpoint is congruences.closure_fixpoint
        assert varieties.closure_fixpoint is not before[0]
    finally:
        tracer.uninstall()
    assert (congruences.closure_fixpoint, varieties.closure_fixpoint, cli.main) == before


def test_self_times_cover_wall_time():
    tracer = tracing.Tracer()
    for name, parent, start, end in (("a", -1, 0.0, 10.0), ("b", 0, 1.0, 4.0), ("c", 0, 5.0, 6.0),
                                     ("d", 1, 2.0, 3.0)):
        tracer.names.append(name)
        tracer.name.append(len(tracer.names) - 1)
        tracer.parent.append(parent)
        tracer.cmd.append(0)
        tracer.start.append(start)
        tracer.end.append(end)
    assert list(tracer.self_times()) == [6.0, 2.0, 1.0, 1.0]
    uncovered, mismatch = tracing.accounting(tracer, [12.0])
    assert (uncovered, mismatch) == (2.0, 0.0)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
