"""Per-layer tracing for the benchmark's traced run.

The layers are quantalg's modules.  ``Tracer.install`` wraps the public
functions listed in ``TARGETS`` and rebinds each wrapper in every
``quantalg.*`` namespace that holds the original (``from .x import y``
copies the name, so patching the defining module alone would miss the
callers).  Each outermost call records a span: name, start, end, parent
span and command id, kept in flat arrays and written out at the end.
Counting hooks run outside the span interval.

``DistCounter`` is a separate pass that wraps the ``Dist`` dunders at
class level; it is never active together with the timed spans, so it
does not inflate them.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array
from collections import defaultdict

# Spans whose parent is one of these build a space from values that are
# already validated, so validation under them re-checks a result that is
# correct by construction.
DERIVED = frozenset({
    "product_space", "tensor", "coproduct", "metric_reflection", "epsilon_kernel_pair",
    "colimit", "quotient_algebra", "image_factorize", "product_algebra",
    "birkhoff_soundness", "free_in_variety_bounded",
})


def _closure_before(tracer, args, kwargs):
    matrix = args[0]
    return [row[:] for row in matrix]


def _closure_after(tracer, state, args, kwargs, result):
    matrix, rules = args[0], args[1]
    n = len(matrix)
    c = tracer.counts
    c["closure_fixpoint.passes"] += result
    c["closure_fixpoint.rules"] += len(rules)
    c["closure_fixpoint.relax_attempts"] += result * (n ** 3 + len(rules))
    c["closure_fixpoint.entries_lowered"] += sum(
        1 for before, after in zip(state, matrix) for a, b in zip(before, after) if b != a
    )


def _space_violations_after(tracer, state, args, kwargs, result):
    n = len(args[0])
    tracer.counts["space_violations.triple_checks"] += n * (n - 1) * (n - 2) // 2


def _validate_algebra_after(tracer, state, args, kwargs, result):
    algebra = args[0]
    n = algebra.carrier.n
    tracer.counts["validate_algebra.tuple_pairs"] += sum(
        n ** (2 * arity) for _, arity in algebra.signature.symbols
    )


def _enumerate_terms_after(tracer, state, args, kwargs, result):
    tracer.counts["enumerate_terms.terms"] += len(result)


def _free_after(tracer, state, args, kwargs, result):
    n = len(result.terms)
    tracer.counts["free_in_variety_bounded.instances_tried"] += sum(
        n ** len(eq.variables) for eq in args[0].equations
    )


def _satisfies_after(tracer, state, args, kwargs, result):
    algebra, equation = args[0], args[1]
    points = algebra.carrier.points
    n, k = len(points), len(equation.variables)
    if result.ok:
        tried = n ** k
    else:  # assignments run in lexicographic order up to the witness
        index = {p: i for i, p in enumerate(points)}
        rank = 0
        for v in equation.variables:
            rank = rank * n + index[result.witness[v]]
        tried = rank + 1
    tracer.counts["satisfies.assignments"] += tried


def _dumps_after(tracer, state, args, kwargs, result):
    tracer.counts["bytes_out"] += len(result.encode("utf-8"))


def _main_after(tracer, state, args, kwargs, result):
    tracer.counts[f"exit_{result}"] += 1


# (module, attribute, span name, before hook, after hook); "Class.__init__"
# attributes wrap construction, which keeps isinstance checks intact.
TARGETS = [
    ("congruences", "closure_fixpoint", "closure_fixpoint", _closure_before, _closure_after),
    ("congruences", "generated_congruence", "generated_congruence", None, None),
    ("congruences", "compatibility_violations", "compatibility_violations", None, None),
    ("congruences", "subcongruence_violations", "subcongruence_violations", None, None),
    ("congruences", "quotient_algebra", "quotient_algebra", None, None),
    ("congruences", "coequalizer", "coequalizer", None, None),
    ("congruences", "colimit", "colimit", None, None),
    ("congruences", "epsilon_kernel_pair", "epsilon_kernel_pair", None, None),
    ("congruences", "kernel_subcongruence", "kernel_subcongruence", None, None),
    ("spaces", "space_violations", "space_violations", None, _space_violations_after),
    ("spaces", "product_space", "product_space", None, None),
    ("spaces", "tensor", "tensor", None, None),
    ("spaces", "coproduct", "coproduct", None, None),
    ("spaces", "metric_reflection", "metric_reflection", None, None),
    ("spaces", "QuotientMap.__init__", "QuotientMap", None, None),
    ("algebras", "validate_algebra", "validate_algebra", None, _validate_algebra_after),
    ("algebras", "hom_violations", "hom_violations", None, None),
    ("algebras", "QuantAlgebra.__init__", "QuantAlgebra", None, None),
    ("algebras", "product_algebra", "product_algebra", None, None),
    ("algebras", "image_factorize", "image_factorize", None, None),
    ("terms", "enumerate_terms", "enumerate_terms", None, _enumerate_terms_after),
    ("terms", "term_distance", "term_distance", None, None),
    ("terms", "substitute", "substitute", None, None),
    ("terms", "evaluate", "evaluate", None, None),
    ("terms", "parse_term", "parse_term", None, None),
    ("varieties", "free_in_variety_bounded", "free_in_variety_bounded", None, _free_after),
    ("varieties", "satisfies", "satisfies", None, _satisfies_after),
    ("varieties", "in_variety", "in_variety", None, None),
    ("varieties", "birkhoff_soundness", "birkhoff_soundness", None, None),
    ("jsonio", "canonical_dumps", "canonical_dumps", None, _dumps_after),
    ("cli", "main", "main", None, _main_after),
]
JSONIO_GROUPS = ("_from_doc", "_to_doc")


def _jsonio_targets():
    module = sys.modules["quantalg.jsonio"]
    for attr in sorted(vars(module)):
        if attr.endswith(JSONIO_GROUPS) and callable(getattr(module, attr)):
            yield ("jsonio", attr, attr, None, None)


class Tracer:
    """Span recorder; install() patches quantalg, uninstall() restores it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.cmd = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.cmd_id = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, before, after):
        tracer = self
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        active = [False]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active[0]:  # only the outermost call of a recursion is a span
                return fn(*args, **kwargs)
            state = before(tracer, args, kwargs) if before else None
            idx = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(tracer.stack[-1])
            tracer.cmd.append(tracer.cmd_id)
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            active[0] = True
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                active[0] = False
                tracer.stack.pop()
            tracer.calls[name] += 1
            if after:
                after(tracer, state, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        import quantalg.cli  # noqa: F401  (loads every module)

        for module_name, attr, name, before, after in TARGETS + list(_jsonio_targets()):
            module = sys.modules[f"quantalg.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self._wrap(original, name, before, after))
                self._undo.append((cls, method, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name, before, after)
            for other_name, other in list(sys.modules.items()):
                if other_name.split(".")[0] == "quantalg" and vars(other).get(attr) is original:
                    setattr(other, attr, wrapped)
                    self._undo.append((other, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def self_times(self) -> array:
        """Duration minus the union of child intervals (clipped to the span)."""
        n = len(self.start)
        covered = array("d", bytes(8 * n))
        last_end = array("d", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p < 0:
                continue
            lo = max(start[i], start[p], last_end[p])
            hi = min(end[i], end[p])
            if hi > lo:
                covered[p] += hi - lo
            if hi > last_end[p]:
                last_end[p] = hi
        return array("d", (end[i] - start[i] - covered[i] for i in range(n)))

    def write(self, path) -> None:
        """One span per line: command, span, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("cmd\tspan\tparent\tname\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.start)):
                handle.write(
                    f"{self.cmd[i]}\t{i}\t{self.parent[i]}\t{names[self.name[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )


class DistCounter:
    """Counts ``Dist`` comparisons, additions and constructions, and keeps
    a deterministic sample of the operands of ``<=`` and ``+``."""

    CMP = ("__lt__", "__le__", "__gt__", "__ge__", "__eq__")
    ADD = ("__add__", "__radd__")
    SAMPLE_EVERY = 97
    SAMPLE_MAX = 4000

    def __init__(self):
        from quantalg.distance import Dist

        self.cls = Dist
        self.counts = {"cmp_calls": 0, "add_calls": 0, "new_calls": 0}
        self.samples = {"__le__": [], "__add__": []}
        self._undo: list[tuple[str, object]] = []

    def install(self) -> None:
        for attr in self.CMP + self.ADD + ("__init__",):
            original = self.cls.__dict__[attr]
            key = "cmp_calls" if attr in self.CMP else "add_calls" if attr in self.ADD else "new_calls"
            setattr(self.cls, attr, self._wrap(original, key, self.samples.get(attr)))
            self._undo.append((attr, original))

    def _wrap(self, fn, key, sample):
        counts, cls = self.counts, self.cls
        every, limit = self.SAMPLE_EVERY, self.SAMPLE_MAX

        @functools.wraps(fn)
        def wrapper(self_, *args):
            counts[key] += 1
            if sample is not None and counts[key] % every == 0 and len(sample) < limit:
                if isinstance(args[0], cls):
                    sample.append((self_, args[0]))
            return fn(self_, *args)

        return wrapper

    def uninstall(self) -> None:
        for attr, original in reversed(self._undo):
            setattr(self.cls, attr, original)
        self._undo.clear()

    def micro_ns(self, attr: str, repeats: int = 7) -> float:
        """Median time of one operation over the sampled operands, net of
        the bare loop; run after uninstall()."""
        pairs = self.samples[attr]
        if not pairs:
            return 0.0
        op = (lambda a, b: a <= b) if attr == "__le__" else (lambda a, b: a + b)
        noop = lambda a, b: None  # noqa: E731
        reps = max(1, 20000 // len(pairs))

        def timed(fn):
            t0 = time.perf_counter()
            for _ in range(reps):
                for a, b in pairs:
                    fn(a, b)
            return time.perf_counter() - t0

        runs = [timed(op) - timed(noop) for _ in range(repeats)]
        return max(statistics.median(runs), 0.0) / (reps * len(pairs)) * 1e9


def _self(module, name):
    return (f"{module}.{name}.self_s", "s")


# Every per-layer metric of a traced run, in output order.
PER_LAYER = [
    _self("congruences", "closure_fixpoint"),
    ("congruences.closure_fixpoint.calls", "count"),
    ("congruences.closure_fixpoint.passes", "count"),
    ("congruences.closure_fixpoint.rules", "count"),
    ("congruences.closure_fixpoint.relax_attempts", "count"),
    ("congruences.closure_fixpoint.entries_lowered", "count"),
    ("congruences.closure_fixpoint.lowered_per_attempt", "ratio"),
    *(_self("congruences", n) for n in (
        "generated_congruence", "compatibility_violations", "subcongruence_violations",
        "quotient_algebra", "coequalizer", "colimit", "epsilon_kernel_pair",
        "kernel_subcongruence")),
    ("distance.cmp_calls", "count"),
    ("distance.add_calls", "count"),
    ("distance.new_calls", "count"),
    ("distance.le_ns", "ns"),
    ("distance.add_ns", "ns"),
    _self("spaces", "space_violations"),
    ("spaces.space_violations.calls", "count"),
    ("spaces.space_violations.triple_checks", "count"),
    ("spaces.space_violations.under_construction_share", "ratio"),
    *(_self("spaces", n) for n in (
        "product_space", "tensor", "coproduct", "metric_reflection", "QuotientMap")),
    _self("algebras", "validate_algebra"),
    ("algebras.validate_algebra.tuple_pairs", "count"),
    _self("algebras", "hom_violations"),
    ("algebras.hom_violations.calls", "count"),
    *(_self("algebras", n) for n in ("QuantAlgebra", "product_algebra", "image_factorize")),
    _self("terms", "enumerate_terms"),
    ("terms.enumerate_terms.terms", "count"),
    _self("terms", "term_distance"),
    ("terms.term_distance.calls", "count"),
    _self("terms", "substitute"),
    ("terms.substitute.calls", "count"),
    _self("terms", "evaluate"),
    ("terms.evaluate.calls", "count"),
    _self("terms", "parse_term"),
    _self("varieties", "free_in_variety_bounded"),
    ("varieties.free_in_variety_bounded.instances_tried", "count"),
    _self("varieties", "satisfies"),
    ("varieties.satisfies.assignments", "count"),
    _self("varieties", "in_variety"),
    _self("varieties", "birkhoff_soundness"),
    _self("jsonio", "from_doc"),
    _self("jsonio", "to_doc"),
    _self("jsonio", "canonical_dumps"),
    ("jsonio.bytes_out", "bytes"),
    _self("cli", "main"),
    *((f"cli.exit_{code}", "count") for code in range(4)),
    ("trace.commands", "count"),
    ("trace.spans", "count"),
    ("trace.untraced_cmds_per_s", "1/s"),
    ("trace.traced_cmds_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.uncovered_s", "s"),
    ("trace.accounting_error_s", "s"),
    ("host.ref_loop_s", "s"),
]


def layer_values(tracer: Tracer, counter: DistCounter) -> dict[str, float]:
    """Per-layer values from one traced pass and one counting pass."""
    selfs = tracer.self_times()
    names, name, parent = tracer.names, tracer.name, tracer.parent
    module_of = {t[2]: t[0] for t in TARGETS}
    by_span: dict[str, float] = defaultdict(float)
    derived = 0.0
    for i, s in enumerate(selfs):
        span = names[name[i]]
        if span.endswith(JSONIO_GROUPS):
            span = "from_doc" if span.endswith("_from_doc") else "to_doc"
            module_of[span] = "jsonio"
        by_span[span] += s
        if span == "space_violations" and parent[i] >= 0 and names[name[parent[i]]] in DERIVED:
            derived += s
    values = {f"{module_of[span]}.{span}.self_s": s for span, s in by_span.items()}
    c, calls = tracer.counts, tracer.calls
    attempts = c["closure_fixpoint.relax_attempts"]
    values.update({
        "congruences.closure_fixpoint.calls": calls["closure_fixpoint"],
        "congruences.closure_fixpoint.passes": c["closure_fixpoint.passes"],
        "congruences.closure_fixpoint.rules": c["closure_fixpoint.rules"],
        "congruences.closure_fixpoint.relax_attempts": attempts,
        "congruences.closure_fixpoint.entries_lowered": c["closure_fixpoint.entries_lowered"],
        "congruences.closure_fixpoint.lowered_per_attempt":
            c["closure_fixpoint.entries_lowered"] / attempts if attempts else 0.0,
        "distance.cmp_calls": counter.counts["cmp_calls"],
        "distance.add_calls": counter.counts["add_calls"],
        "distance.new_calls": counter.counts["new_calls"],
        "spaces.space_violations.calls": calls["space_violations"],
        "spaces.space_violations.triple_checks": c["space_violations.triple_checks"],
        "spaces.space_violations.under_construction_share":
            derived / by_span["space_violations"] if by_span["space_violations"] else 0.0,
        "algebras.validate_algebra.tuple_pairs": c["validate_algebra.tuple_pairs"],
        "algebras.hom_violations.calls": calls["hom_violations"],
        "terms.enumerate_terms.terms": c["enumerate_terms.terms"],
        "terms.term_distance.calls": calls["term_distance"],
        "terms.substitute.calls": calls["substitute"],
        "terms.evaluate.calls": calls["evaluate"],
        "varieties.free_in_variety_bounded.instances_tried":
            c["free_in_variety_bounded.instances_tried"],
        "varieties.satisfies.assignments": c["satisfies.assignments"],
        "jsonio.bytes_out": c["bytes_out"],
        **{f"cli.exit_{code}": c[f"exit_{code}"] for code in range(4)},
        "trace.spans": len(selfs),
    })
    return values


def accounting(tracer: Tracer, walls: list[float]) -> tuple[float, float]:
    """Per command, self times of all spans plus the time no span covers
    must add up to the wall time.  Returns (total uncovered time, largest
    absolute mismatch over commands)."""
    selfs = tracer.self_times()
    total_self = [0.0] * len(walls)
    top = [0.0] * len(walls)
    for i, s in enumerate(selfs):
        cmd = tracer.cmd[i]
        total_self[cmd] += s
        if tracer.parent[i] < 0:
            top[cmd] += tracer.end[i] - tracer.start[i]
    uncovered = [w - t for w, t in zip(walls, top)]
    errors = [abs(s + u - w) for s, u, w in zip(total_self, uncovered, walls)]
    if min(uncovered, default=0.0) < 0:
        errors.append(-min(uncovered))
    return sum(uncovered), max(errors, default=0.0)
