"""Exact integer kernel for the matrix work: the axiom and nonexpansiveness
checks and the congruence closure.

Every number these compare is a sum, minimum or maximum of input
distances.  So the kernel scales the finite inputs once to a common
denominator and works on plain ints, with one sentinel for infinity, and
every comparison has the same outcome as on the exact rationals.  Dist
appears only at the boundary (``scale`` and ``unscale``).  Matrices are
flat row-major lists: entry (i, j) of an n x n matrix is cell i * n + j.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress, repeat
from operator import add, lt, ne
from typing import Iterator, Sequence

from .distance import INF, Dist


def scale(*matrices: Sequence[Sequence[Dist]]) -> tuple[list[list[int]], int, int]:
    """Flatten square Dist matrices to ints over one common denominator.

    Returns the flat matrices, the denominator and the sentinel for
    infinity: (n * S + 1) * 2**n for the largest side n and the sum S of
    the finite scaled entries.  No finite value compared reaches it.  The
    checks compare entries and sums of two entries, at most 2S.  In the
    closure entries only decrease; a propagation copies an entry already
    there, and a min-plus sweep writes lengths of simple paths over at
    most n - 1 entries present at its start.  After a sweep the finite
    entries form shortest-path-closed components.  The sum P of their
    diameters, at most S after the first sweep, grows only when
    propagation bridges r components with copied entries, each at most P;
    that multiplies P by at most r <= 2**(r - 1).  There are at most
    n - 1 merges, so every entry stays below (n - 1) * S * 2**(n - 1) and
    a sum of two below the sentinel.  A sum with the sentinel in it is at
    least the sentinel, so it never lowers an entry or undercuts a finite
    bound.
    """
    fracs = [[None if d.is_infinite else d.as_fraction() for row in m for d in row]
             for m in matrices]
    denominators = {q.denominator for cells in fracs for q in cells if q is not None}
    unit = math.lcm(*denominators)
    factor = {q: unit // q for q in denominators}
    flat = [[-1 if q is None else q.numerator * factor[q.denominator] for q in cells]
            for cells in fracs]
    n = max(len(m) for m in matrices)
    inf = (n * sum(v for cells in flat for v in cells if v > 0) + 1) << n
    return [[inf if v < 0 else v for v in cells] for cells in flat], unit, inf


def unscale(value: int, unit: int, inf: int) -> Dist:
    """The Dist that a scaled value stands for."""
    return INF if value >= inf else Dist(Fraction(value, unit))


def pair_instances(
    n: int, args: Sequence[Sequence[int]], outs: Sequence[int]
) -> Iterator[list[tuple[int, ...]]]:
    """For each argument tuple a in order (point indices, one arity), the
    instances pairing it with the later tuples b whose output index
    differs, each stored flat as (out_lr, out_rl, c_1, ..., c_k): the cells
    of the output pair in both orders, then the cell of each coordinate pair."""
    cols = list(zip(*args))  # the argument tuples, one column per position
    scaled_outs = [o * n for o in outs]
    for a, (oa, xs) in enumerate(zip(outs, args)):
        b = a + 1
        rest = outs[b:]
        cells = [map(add, repeat(x * n), col[b:]) for x, col in zip(xs, cols)]
        pairs = zip(map(add, repeat(oa * n), rest), map(add, scaled_outs[b:], repeat(oa)), *cells)
        yield list(compress(pairs, map(ne, rest, repeat(oa))))


def stretched(
    m: list[int], inf: int, instances: Sequence[tuple[int, ...]], combiner: str = "max"
) -> list[tuple[int, ...]]:
    """Instances whose output entry exceeds the max (or sum) of their
    coordinate entries."""
    if combiner == "max":
        # one coordinate at a time: most instances drop out at the first
        for k in range(2, len(instances[0]) if instances else 2):
            instances = [inst for inst in instances if m[inst[0]] > m[inst[k]]]
        return list(instances)
    get = m.__getitem__
    # a sum of many finite entries may pass the sentinel, so an infinite
    # output is tested against the coordinates being finite instead
    return [
        inst for inst in instances
        if (max(map(get, inst[2:])) < inf if get(inst[0]) >= inf
            else get(inst[0]) > sum(map(get, inst[2:])))
    ]


def _finite_components(m: list[int], n: int, inf: int) -> list[list[int]]:
    """The points joined by entries below the sentinel, one sorted list per
    component of two or more points, in order of their least point."""
    parent = list(range(n))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]  # path halving
            i = parent[i]
        return i

    for i in range(n):
        for j in compress(range(i + 1, n), map(lt, m[i * n + i + 1:(i + 1) * n], repeat(inf))):
            a, b = root(i), root(j)
            if a != b:
                parent[max(a, b)] = min(a, b)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(root(i), []).append(i)
    return [points for points in groups.values() if len(points) > 1]


def min_plus_sweep(m: list[int], n: int, inf: int, points: Sequence[int]) -> bool:
    """Replace the block of a symmetric, zero-diagonal matrix on the given
    points by its shortest-path closure (Floyd-Warshall); True when an
    entry dropped, and only then is the block written back."""
    k = len(points)
    block = [m[i * n + j] for i in points for j in points]
    changed = False
    for c in range(k):
        row_c = block[c * k:(c + 1) * k]
        for lo in range(0, k * k, k):
            d_ic = block[lo + c]
            if d_ic >= inf:
                continue
            row_i = block[lo:lo + k]
            new = [a if a <= b else b for a, b in zip(row_i, [d_ic + x for x in row_c])]
            if new != row_i:
                block[lo:lo + k] = new
                changed = True
    if changed:
        for r, i in enumerate(points):
            for j, v in zip(points, block[r * k:(r + 1) * k]):
                m[i * n + j] = v
    return changed


def propagation_sweep(m: list[int], rules: Sequence[tuple[int, ...]]) -> list[int]:
    """Lower each output pair to the maximum of its coordinate pairs, in
    rule order and reading entries as they change; the first output cell
    of each rule that lowered its pair."""
    lowered = []
    get = m.__getitem__
    for inst in rules:
        out = m[inst[0]]
        # the first and last coordinates decide most instances cheaply
        if m[inst[2]] < out and m[inst[-1]] < out:
            bound = max(map(get, inst[2:]))
            if bound < out:
                m[inst[0]] = m[inst[1]] = bound
                lowered.append(inst[0])
    return lowered
