#!/usr/bin/env python3
"""quantalg benchmark: fixed-seed CLI command streams, checked and timed.

Each workload is a closed loop with one client in this single-threaded
process: it calls ``quantalg.cli.main([... "--format", "json"])`` in
process, one command after the other, on JSON inputs generated from the
seed before timing starts, and checks every output outside the timed
region.  Run from the repository root:

    python3 perfbench/run.py --workload closure --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload closure --seed 1 --trace 1
    python3 perfbench/run.py --check                 # untimed: one checked pass each
    python3 perfbench/run.py --all --seed 1          # every workload, timed and traced

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it carries context that is not gated (sample counts, the reference
timing).  The exit code is 0 only when every output checked out.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_STARTS = 9
MIN_COMMANDS = 100
REFERENCE_REPEATS = 3
# The host this benchmark was tuned on changes speed by up to 2x in spells
# of seconds to minutes (see README).  A short fixed probe loop therefore
# runs between command timings, and each timing is reported in seconds at
# reference speed: wall time x PROBE_REF_S / (median of nearby probes).
PROBE_ITERATIONS = 1500
PROBE_REF_S = 0.010


def load_cli():
    """Import the CLI from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import quantalg.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"quantalg was imported from {cli.__file__}, not from {SRC}")
    return cli


# Process start-up does not slow down with the probe loop, so cold starts
# get a probe of their own kind: a fresh interpreter importing the stdlib
# modules that the CLI imports.  Work quantalg adds to its import shows in
# full; the interpreter and the stdlib scale with the host.
STARTUP_PROBE = "import argparse, dataclasses, fractions, itertools, json, typing"
STARTUP_REF_S = 0.100


def cold_start_s(code: str = "import quantalg.cli") -> float:
    """Wall time of a fresh interpreter running ``code``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, timeout=60,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed: {proc.stderr.decode()[-500:]}")
    return elapsed


def setup_s() -> float:
    """Median cold start up to ``import quantalg.cli``, each scaled to
    reference speed by the start-up probes run before and after it."""
    cold_start_s()  # the first start may compile bytecode; users pay that once
    probes = [cold_start_s(STARTUP_PROBE)]
    scaled = []
    for _ in range(SETUP_STARTS):
        start = cold_start_s()
        probes.append(cold_start_s(STARTUP_PROBE))
        scaled.append(start * STARTUP_REF_S / ((probes[-2] + probes[-1]) / 2))
    return statistics.median(scaled)


def _fraction_loop(iterations: int) -> int:
    hits = 0
    for i in range(1, iterations + 1):
        a = Fraction(i % 97 + 1, i % 89 + 2)
        b = Fraction(i % 13 + 1, 7)
        if a + b <= b + a:
            hits += 1
    return hits


def probe_s() -> float:
    t0 = time.perf_counter()
    _fraction_loop(PROBE_ITERATIONS)
    return time.perf_counter() - t0


class Clock:
    """Times callables in seconds at reference host speed.

    A probe runs between consecutive timings.  Timing i is scaled by
    PROBE_REF_S over the median of the eight probes around it, which rides
    out probes disturbed by a stray interrupt or by sub-second jitter.
    """

    def __init__(self):
        self.probes = [probe_s()]
        self.walls: list[float] = []

    def time(self, measure):
        """``measure()`` -> (wall seconds, ok); the scaled value comes from
        scaled() once later probes exist."""
        wall, ok = measure()
        self.probes.append(probe_s())
        self.walls.append(wall)
        return wall, ok

    def scaled(self) -> list[float]:
        p = self.probes
        out = []
        for i in range(len(self.walls)):
            window = p[max(i - 3, 0):i + 5]
            out.append(self.walls[i] * PROBE_REF_S / statistics.median(window))
        return out

    def context(self) -> dict:
        return {"raw_s": sum(self.walls), "probe_median_s": statistics.median(self.probes)}


def reference_s() -> float:
    """A fixed stdlib Fraction loop that does not touch quantalg; its time
    tells host-speed drift apart from a regression."""
    t0 = time.perf_counter()
    hits = _fraction_loop(10000)
    elapsed = time.perf_counter() - t0
    if hits != 10000:
        raise RuntimeError("reference loop miscounted")
    return elapsed


class Stream:
    """The generated inputs of one workload and the calls that use them."""

    def __init__(self, cli, workload: str, seed: int):
        self.cli = cli
        self.plan = workloads.build(workload, seed)
        self.dir = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        for name, data in self.plan.files.items():
            (self.dir / name).write_bytes(data)
        self.argvs = [
            ["--format", "json"] + [str(self.dir / a[1:]) if a.startswith("@") else a for a in cmd.argv]
            for cmd in self.plan.cmds
        ]
        self.problems: list[str] = []

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def call(self, i: int):
        out, err = io.StringIO(), io.StringIO()
        failure = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(self.argvs[i])
            except Exception as exc:  # an uncaught exception is a failed command
                code, failure = None, exc
            elapsed = time.perf_counter() - t0
        if failure is not None:
            err.write(f"uncaught {type(failure).__name__}: {failure}")
        return code, out.getvalue(), err.getvalue(), elapsed

    def run(self, i: int) -> tuple[float, bool]:
        """One command; returns its wall time and whether its output checked out."""
        code, out, err, elapsed = self.call(i)
        problems = checks.check(self.plan.cmds[i], code, out, err)
        if problems:
            cmd = self.plan.cmds[i]
            self.problems.append(f"{cmd.kind} {' '.join(cmd.argv)}: {problems[0]}")
        return elapsed, not problems

    def warm_up(self) -> None:
        """One untimed command of each kind."""
        seen = set()
        for i, cmd in enumerate(self.plan.cmds):
            if cmd.kind not in seen:
                seen.add(cmd.kind)
                self.call(i)

    def one_pass(self, clock: Clock | None = None) -> tuple[list[float], int]:
        walls, failed = [], 0
        for i in range(len(self.plan.cmds)):
            elapsed, ok = clock.time(lambda: self.run(i)) if clock else self.run(i)
            walls.append(elapsed)
            failed += not ok
        return walls, failed


def timed(stream: Stream, seconds: float) -> tuple[dict, dict, int, int]:
    """Whole passes until at least ``seconds`` of wall time in commands and
    at least MIN_COMMANDS commands; every pass runs the same command mix."""
    clock = Clock()
    failed = passes = 0
    while True:
        walls, bad = stream.one_pass(clock)
        failed += bad
        passes += 1
        measured = sum(clock.walls)
        if len(clock.walls) >= MIN_COMMANDS and measured >= seconds:
            break
    samples = clock.scaled()
    attempted = len(samples)
    metrics = {
        "cmds_per_s": (attempted / sum(samples), "1/s"),
        "cmd_p50_s": (statistics.median(samples), "s"),
        "cmd_p90_s": (statistics.quantiles(samples, n=10)[8], "s"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    n = len(stream.plan.cmds)
    context = {"samples": attempted, "passes": passes, "pass_commands": n,
               "pass_s": [sum(samples[k:k + n]) for k in range(0, attempted, n)],
               "raw_cmds_per_s": attempted / measured,
               "failed_ratio": failed / attempted, **clock.context()}
    return metrics, context, attempted, failed


def traced(stream: Stream) -> tuple[dict, dict, int, int]:
    """One untraced pass, one traced pass and one Dist-counting pass, each
    over the same fixed command list, so the counts repeat exactly."""
    plain_clock, traced_clock = Clock(), Clock()
    _, failed = stream.one_pass(plain_clock)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i in range(len(stream.plan.cmds)):
            tracer.cmd_id = i
            _, ok = traced_clock.time(lambda: stream.run(i))
            failed += not ok
    finally:
        tracer.uninstall()
    counter = tracing.DistCounter()
    counter.install()
    try:
        _, bad = stream.one_pass()
        failed += bad
    finally:
        counter.uninstall()

    values = tracing.layer_values(tracer, counter)
    uncovered, mismatch = tracing.accounting(tracer, traced_clock.walls)
    if mismatch > 1e-6:
        stream.problems.append(f"span self times do not add up to wall time (off by {mismatch:.3g} s)")
        failed += 1
    n = len(stream.plan.cmds)
    values.update({
        "distance.le_ns": counter.micro_ns("__le__"),
        "distance.add_ns": counter.micro_ns("__add__"),
        "trace.commands": n,
        "trace.untraced_cmds_per_s": n / sum(plain_clock.scaled()),
        "trace.traced_cmds_per_s": n / sum(traced_clock.scaled()),
        "trace.overhead_ratio": sum(traced_clock.scaled()) / sum(plain_clock.scaled()),
        "trace.uncovered_s": uncovered,
        "trace.accounting_error_s": mismatch,
    })
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{stream.dir.name.rsplit('-', 1)[0]}.tsv"
    tracer.write(trace_path)
    context = {"spans_file": str(trace_path.relative_to(ROOT))}
    return values, context, 3 * n, failed


def run_workload(args) -> int:
    try:
        cli = load_cli()
    except ImportError as exc:
        print(f"cannot import quantalg from {SRC}: {exc}", file=sys.stderr)
        return 2
    ref = [reference_s() for _ in range(REFERENCE_REPEATS)]
    setup = setup_s() if not args.trace else None
    stream = Stream(cli, args.workload, args.seed)
    try:
        stream.warm_up()
        if args.trace:
            values, context, attempted, failed = traced(stream)
        else:
            metrics, context, attempted, failed = timed(stream, args.seconds)
    finally:
        stream.close()
    ref += [reference_s() for _ in range(REFERENCE_REPEATS)]
    context["ref_loop_s"] = statistics.median(ref)
    if args.trace:
        values["host.ref_loop_s"] = context["ref_loop_s"]
        metrics = {name: (values.get(name, 0), unit) for name, unit in tracing.PER_LAYER}
    else:
        metrics["setup_s"] = (setup, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    for problem in stream.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = failed == 0
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def check_only(names, seed: int) -> int:
    """Untimed mode: one checked pass of each workload."""
    cli = load_cli()
    status = 0
    for name in names:
        stream = Stream(cli, name, seed)
        try:
            _, failed = stream.one_pass()
        finally:
            stream.close()
        print(f"{name}: {len(stream.plan.cmds)} commands, {failed} failed")
        for problem in stream.problems:
            print(f"  {problem}")
        status |= failed > 0
    return status


def run_all(args) -> int:
    """Every workload in its own process, timed and then traced."""
    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
            if result is None:
                print(f"{name} trace={trace}: exited {proc.returncode} without a result")
                status = 1
                continue
            status |= proc.returncode != 0 or not result["correct"]
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, v in result["metrics"].items():
                print(f"  {metric:52s} {v['value']:>16.6g} {v['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, timed and traced")
    parser.add_argument("--check", action="store_true", help="untimed: one checked pass per workload")
    args = parser.parse_args(argv)
    if args.check:
        return check_only([args.workload] if args.workload else workloads.WORKLOADS, args.seed)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required unless --all or --check is given")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
