"""Finitary signatures and terms over a generator set.

A term is either a generator (a bare identifier) or a composite built from
an operation symbol and child terms.  The free algebra over a metric space
carries the inductively defined term metric: generator pairs inherit the
space's distance, dissimilar terms sit at infinity, and similar composites
take the maximum of their children's distances.

The full term space is infinite whenever the signature has operations, so
every computation here goes through an explicit depth bound and a term
count cap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .distance import INF, Dist, dist_max
from .errors import CapExceededError, StructuralError
from .spaces import PseudoSpace, SpaceMap

DEFAULT_TERM_CAP = 100_000


@dataclass(frozen=True)
class Signature:
    """Operation symbols with arities; names are distinct, arities >= 0."""

    symbols: tuple[tuple[str, int], ...]

    def __init__(self, symbols: Iterable[tuple[str, int]]):
        syms = tuple((str(name), int(arity)) for name, arity in symbols)
        names = [name for name, _ in syms]
        if len(set(names)) != len(names):
            raise StructuralError("duplicate operation symbol names")
        for name, arity in syms:
            if arity < 0:
                raise StructuralError(f"negative arity for symbol {name!r}")
        object.__setattr__(self, "symbols", syms)

    def arity(self, name: str) -> int:
        for sym, ar in self.symbols:
            if sym == name:
                return ar
        raise StructuralError(f"unknown operation symbol {name!r}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.symbols)

    def __contains__(self, name: str) -> bool:
        return any(sym == name for sym, _ in self.symbols)


@dataclass(frozen=True)
class Term:
    """A generator (args is None) or a composite (args is a tuple)."""

    head: str
    args: tuple["Term", ...] | None = None

    @property
    def is_generator(self) -> bool:
        return self.args is None

    def depth(self) -> int:
        if self.args is None:
            return 0
        return 1 + max((child.depth() for child in self.args), default=0)

    def generators(self) -> set[str]:
        if self.args is None:
            return {self.head}
        out: set[str] = set()
        for child in self.args:
            out |= child.generators()
        return out

    def __str__(self) -> str:
        if self.args is None:
            return self.head
        return f"{self.head}({', '.join(str(a) for a in self.args)})"


def var(name: str) -> Term:
    return Term(name)


def op(name: str, *args: Term) -> Term:
    return Term(name, tuple(args))


def parse_term(text: str) -> Term:
    """Parse prefix syntax: "mul(x, e())"; constants always carry "()"."""
    term, rest = _parse_term(text.strip())
    if rest.strip():
        raise StructuralError(f"trailing input after term: {rest!r}")
    return term


def _parse_term(text: str) -> tuple[Term, str]:
    name, rest = _parse_ident(text)
    rest = rest.lstrip()
    if not rest.startswith("("):
        return Term(name), rest
    rest = rest[1:].lstrip()
    args: list[Term] = []
    if rest.startswith(")"):
        return Term(name, ()), rest[1:]
    while True:
        child, rest = _parse_term(rest)
        args.append(child)
        rest = rest.lstrip()
        if rest.startswith(","):
            rest = rest[1:].lstrip()
            continue
        if rest.startswith(")"):
            return Term(name, tuple(args)), rest[1:]
        raise StructuralError(f"expected ',' or ')' in term near {rest!r}")


def _parse_ident(text: str) -> tuple[str, str]:
    i = 0
    while i < len(text) and text[i] not in "(),":
        i += 1
    name = text[:i].strip()
    if not name:
        raise StructuralError(f"expected an identifier near {text!r}")
    return name, text[i:]


def check_term(term: Term, signature: Signature, generators: Iterable[str]) -> None:
    """Structural well-formedness: arities match, generators are declared."""
    gens = set(generators)
    def walk(t: Term) -> None:
        if t.args is None:
            if t.head not in gens:
                raise StructuralError(f"undeclared generator {t.head!r}")
            return
        if signature.arity(t.head) != len(t.args):
            raise StructuralError(
                f"symbol {t.head!r} applied to {len(t.args)} arguments"
            )
        for child in t.args:
            walk(child)
    walk(term)


def similar(t: Term, s: Term) -> bool:
    """Terms differing only in their generators.

    Two generators are always similar; composites must share the head
    symbol and have pairwise similar children.  The same symbol used at
    two different arities means a malformed term, which is an error.
    """
    if t.args is None and s.args is None:
        return True
    if t.args is None or s.args is None:
        return False
    if t.head != s.head:
        return False
    if len(t.args) != len(s.args):
        raise StructuralError(
            f"symbol {t.head!r} used at arities {len(t.args)} and {len(s.args)}"
        )
    return all(similar(a, b) for a, b in zip(t.args, s.args))


def term_distance(t: Term, s: Term, space: PseudoSpace) -> Dist:
    """The term metric over a space: generators inherit the space distance,
    dissimilar terms are infinitely far apart, similar composites take the
    maximum over their children."""
    if t.args is None and s.args is None:
        return space.dist(t.head, s.head)
    if not similar(t, s):
        return INF
    assert t.args is not None and s.args is not None
    return dist_max(term_distance(a, b, space) for a, b in zip(t.args, s.args))


def enumerate_terms(
    signature: Signature,
    generators: Iterable[str],
    depth: int,
    max_terms: int = DEFAULT_TERM_CAP,
) -> list[Term]:
    """All terms of depth <= depth, ordered by depth, head symbol, children.

    The depth of a generator is 0; a composite adds one to the maximum
    child depth (a constant has depth 1).  Layer d takes the symbols by
    name and their child index tuples in order, so it is built sorted.
    Raises CapExceededError, before building any, when there are over max_terms.
    """
    terms = [Term(g) for g in sorted(set(generators))]
    _window_size(signature, len(terms), depth, max_terms)
    depths = [0] * len(terms)
    for d in range(1, depth + 1):
        size = len(terms)
        for name, arity in sorted(signature.symbols):
            for ids in itertools.product(range(size), repeat=arity):
                if max((depths[i] for i in ids), default=0) != d - 1:
                    continue
                terms.append(Term(name, tuple(terms[i] for i in ids)))
                depths.append(d)
        if len(terms) == size:
            break
    return terms


def _window_size(signature: Signature, generators: int, depth: int, max_terms: int) -> int:
    """The number of terms of depth <= depth over that many generators,
    counted layer by layer without building them; raises as enumerate_terms
    does, at the first symbol block of a layer that passes max_terms."""
    if depth < 0:
        raise StructuralError("depth must be nonnegative")
    if generators > max_terms:
        raise CapExceededError("term enumeration", generators, max_terms)
    total, prev = generators, 0  # prev: the number of terms of depth < d - 1
    for d in range(1, depth + 1):
        size = total
        for _, arity in sorted(signature.symbols):
            # child tuples of depth < d less those of depth < d - 1: once
            # size > 1 at least 2**(arity - 1), so a long arity is not computed
            if arity == 0:
                total += int(d == 1)
            elif size > 1 and arity > max_terms.bit_length():
                total = max_terms + 1
            else:
                total += size**arity - prev**arity
            if total > max_terms:
                raise CapExceededError("term enumeration", max_terms + 1, max_terms)
        if total == size:
            break
        prev = size
    return total


def substitute(term: Term, assignment: Mapping[str, Term]) -> Term:
    """Replace generators by terms; unmapped generators stay themselves."""
    if term.args is None:
        return assignment.get(term.head, term)
    return Term(term.head, tuple(substitute(a, assignment) for a in term.args))


def evaluate(term: Term, algebra, assignment: Mapping[str, str]) -> str:
    """Structural recursion through the algebra's operation tables."""
    if term.args is None:
        try:
            return assignment[term.head]
        except KeyError:
            raise StructuralError(f"assignment undefined on generator {term.head!r}") from None
    children = tuple(evaluate(a, algebra, assignment) for a in term.args)
    return algebra.op(term.head, children)


def hom_distance_bounded(
    space: PseudoSpace,
    algebra,
    f1: Mapping[str, str],
    f2: Mapping[str, str],
    depth: int,
    max_terms: int = DEFAULT_TERM_CAP,
) -> Dist:
    """Distance of the two induced homomorphisms, over terms of bounded depth.

    Returns the supremum of carrier distances between the evaluations of
    every term of depth <= depth.  The extension lemma makes this equal to
    the supremum over the generators alone, at every depth; this operation
    exists so that equality can be tested.

    No term is built: the value pairs of the terms of depth <= d are the
    generator pairs (f1(p), f2(p)) closed for d rounds under the operations
    of the product algebra.  The window is counted as by enumerate_terms.
    """
    for f, tag in ((f1, "first"), (f2, "second")):
        if any(p not in f for p in space.points):
            raise StructuralError(f"{tag} assignment is not total on the space")
        witness = SpaceMap._derived(space, algebra.carrier, f).expansion_witness()
        if witness is not None:
            raise StructuralError(f"{tag} assignment is not nonexpanding at {witness}")
    _window_size(algebra.signature, len(space.points), depth, max_terms)
    apply = lambda name, pairs: tuple(algebra.op(name, tuple(xy[k] for xy in pairs)) for k in (0, 1))
    seed = {(f1[p], f2[p]) for p in space.points}
    pairs = _closed_under(seed, algebra.signature.symbols, apply, depth)
    return dist_max(algebra.carrier.dist(x, y) for x, y in pairs)


def _closed_under(
    seed: Iterable, symbols: Iterable[tuple[str, int]], apply: Callable, rounds: int | None = None
) -> set:
    """The seed closed under apply(name, args) for the (name, arity) symbols in that many
    rounds (None: to the fixpoint); tuples an earlier round applied are skipped."""
    reached, old, r = set(seed), None, 0
    while (rounds is None or r < rounds) and reached != old:
        found = {apply(name, xs) for name, arity in symbols
                 for xs in itertools.product(reached, repeat=arity)
                 if old is None or not old.issuperset(xs)}
        old, reached, r = reached, reached | found, r + 1
    return reached
