"""JSON documents for spaces, algebras, maps, subcongruences, and equations.

Documents are sparse and canonical: a space lists points plus the finite
off-diagonal distances (missing pairs default to infinity, the diagonal to
zero); a subcongruence lists only the entries strictly below the base
distance.  Rationals are serialized as "p/q" (or a plain integer string)
and infinity as "inf", so round-trips are bit-exact.
"""

from __future__ import annotations

import json

from .algebras import Homomorphism, QuantAlgebra
from .congruences import Subcongruence
from .distance import Dist
from .errors import StructuralError
from .spaces import MetricSpace, PseudoSpace, SpaceMap, fill_matrix
from .terms import Signature, parse_term
from .varieties import QuantEquation, VarietyPresentation


def canonical_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


def _expect(condition: bool, message: str):
    if not condition:
        raise StructuralError(message)


def _fields(doc, kind: str, *keys: str) -> None:
    _expect(isinstance(doc, dict), f"{kind} document must be an object")
    for key in keys:
        _expect(key in doc, f"{kind} document needs {key!r}")


def _only(keys, allowed, message: str) -> None:
    unknown = sorted(set(keys) - set(allowed))
    if unknown:
        raise StructuralError(f"{message} {unknown[0]!r}")


def _triples(entries, list_message: str, kind: str) -> list[tuple[str, str, Dist]]:
    _expect(isinstance(entries, list), list_message)
    out = []
    for entry in entries:
        _expect(isinstance(entry, list) and len(entry) == 3, f"bad {kind} {entry!r}")
        out.append((str(entry[0]), str(entry[1]), Dist(entry[2])))
    return out


def space_to_doc(space: PseudoSpace) -> dict:
    dist = [
        [x, y, str(space.dist(x, y))]
        for x, y in space.point_pairs()
        if not space.dist(x, y).is_infinite
    ]
    return {"points": list(space.points), "dist": dist}


def space_parts_from_doc(doc) -> tuple[list[str], list[list[Dist]]]:
    """Points and the fully defaulted matrix, with no axiom checking."""
    _expect(isinstance(doc, dict), "space document must be an object")
    _only(doc, ("points", "dist"), "space document has unknown key")
    _expect(isinstance(doc.get("points"), list), "space document needs a 'points' list")
    triples = _triples(doc.get("dist", []), "'dist' must be a list of [x, y, d] triples",
                       "distance entry")
    return fill_matrix([str(p) for p in doc["points"]], triples)


def space_from_doc(doc) -> MetricSpace:
    return MetricSpace(*space_parts_from_doc(doc))


def signature_to_doc(signature: Signature) -> list:
    return [[name, arity] for name, arity in signature.symbols]


def signature_from_doc(doc) -> Signature:
    _expect(isinstance(doc, list), "signature must be a list of [name, arity] pairs")
    pairs = []
    for entry in doc:
        _expect(
            isinstance(entry, list) and len(entry) == 2 and type(entry[1]) is int,  # not bool
            f"bad signature entry {entry!r}",
        )
        pairs.append((str(entry[0]), entry[1]))
    return Signature(pairs)


def algebra_to_doc(algebra: QuantAlgebra) -> dict:
    tables = {}
    for name, _ in algebra.signature.symbols:
        rows = [list(key) + [value] for key, value in algebra.tables[name].items()]
        tables[name] = sorted(rows)
    return {
        "space": space_to_doc(algebra.carrier),
        "signature": signature_to_doc(algebra.signature),
        "tables": tables,
    }


def algebra_from_doc(doc) -> QuantAlgebra:
    _fields(doc, "algebra", "space", "signature", "tables")
    carrier = space_from_doc(doc["space"])
    signature = signature_from_doc(doc["signature"])
    _expect(isinstance(doc["tables"], dict), "'tables' must be an object")
    _only(doc["tables"], signature.names, "'tables' has a table for unknown symbol")
    tables: dict[str, dict[tuple[str, ...], str]] = {}
    for name, arity in signature.symbols:
        rows = doc["tables"].get(name)
        _expect(isinstance(rows, list), f"missing table rows for {name!r}")
        table: dict[tuple[str, ...], str] = {}
        for row in rows:
            _expect(
                isinstance(row, list) and len(row) == arity + 1,
                f"table row {row!r} for {name!r} must have {arity + 1} entries",
            )
            key = tuple(str(v) for v in row[:arity])
            _expect(key not in table, f"duplicate table row for {name!r} at {key}")
            table[key] = str(row[arity])
        tables[name] = table
    return QuantAlgebra(carrier, signature, tables)


def _map_entries_from_doc(doc) -> dict[str, str]:
    _expect(isinstance(doc, list), "'map' must be a list of [from, to] pairs")
    mapping: dict[str, str] = {}
    for entry in doc:
        _expect(isinstance(entry, list) and len(entry) == 2, f"bad map entry {entry!r}")
        key = str(entry[0])
        _expect(key not in mapping, f"duplicate map entry for {key!r}")
        mapping[key] = str(entry[1])
    return mapping


def hom_to_doc(hom: Homomorphism) -> dict:
    return {
        "source": algebra_to_doc(hom.source),
        "target": algebra_to_doc(hom.target),
        "map": sorted([p, q] for p, q in hom.mapping.items()),
    }


def hom_from_doc(doc) -> Homomorphism:
    _fields(doc, "homomorphism", "source", "target", "map")
    return Homomorphism(
        algebra_from_doc(doc["source"]),
        algebra_from_doc(doc["target"]),
        _map_entries_from_doc(doc["map"]),
    )


def map_from_doc(doc):
    """A space-level map or an algebra homomorphism, told apart by shape."""
    _fields(doc, "map", "source", "target", "map")
    if isinstance(doc["source"], dict) and "points" in doc["source"]:
        return SpaceMap(
            space_from_doc(doc["source"]),
            space_from_doc(doc["target"]),
            _map_entries_from_doc(doc["map"]),
        )
    return hom_from_doc(doc)


def subcongruence_to_doc(sub: Subcongruence) -> dict:
    entries = [
        [x, y, str(sub.d(x, y))]
        for x, y in sub.base.point_pairs()
        if sub.d(x, y) != sub.base.dist(x, y)
    ]
    return {"base": space_to_doc(sub.base), "dhat": entries}


def dhat_rows_from_doc(doc, base: MetricSpace) -> list[list[Dist]]:
    """The dhat matrix with off-diagonal entries defaulting to the base
    distance; no axiom checking."""
    entries = doc.get("dhat", [])
    _expect(isinstance(entries, list), "'dhat' must be a list of [x, y, d] triples")
    given: dict[tuple[str, str], Dist] = {}
    for entry in entries:
        _expect(isinstance(entry, list) and len(entry) == 3, f"bad dhat entry {entry!r}")
        x, y, d = str(entry[0]), str(entry[1]), Dist(entry[2])
        for key in ((x, y), (y, x)):
            if key in given and given[key] != d:
                raise StructuralError(f"conflicting dhat entries for {key}")
            given[key] = d
    for x, y in given:
        if x not in base.points or y not in base.points:
            raise StructuralError(f"dhat entry for unknown pair ({x!r}, {y!r})")
    return [
        [
            given.get((x, y), base.dist(x, y)) if x != y else Dist(0)
            for y in base.points
        ]
        for x in base.points
    ]


def subcongruence_from_doc(doc) -> Subcongruence:
    _fields(doc, "subcongruence", "base")
    base = space_from_doc(doc["base"])
    return Subcongruence(base, dhat_rows_from_doc(doc, base))


def equation_to_doc(eq: QuantEquation) -> dict:
    return {
        "vars": list(eq.variables),
        "lhs": str(eq.lhs),
        "rhs": str(eq.rhs),
        "eps": str(eq.epsilon),
    }


def equation_from_doc(doc) -> QuantEquation:
    _fields(doc, "equation", "vars", "lhs", "rhs", "eps")
    _expect(isinstance(doc["vars"], list), "'vars' must be a list")
    return QuantEquation(
        [str(v) for v in doc["vars"]],
        parse_term(str(doc["lhs"])),
        parse_term(str(doc["rhs"])),
        Dist(doc["eps"]),
    )


def variety_to_doc(variety: VarietyPresentation) -> dict:
    return {
        "signature": signature_to_doc(variety.signature),
        "equations": [equation_to_doc(eq) for eq in variety.equations],
    }


def variety_from_doc(doc) -> VarietyPresentation:
    _fields(doc, "variety", "signature", "equations")
    _expect(isinstance(doc["equations"], list), "'equations' must be a list")
    return VarietyPresentation(
        signature_from_doc(doc["signature"]),
        [equation_from_doc(e) for e in doc["equations"]],
    )


def constraints_from_doc(doc) -> list[tuple[str, str, Dist]]:
    return _triples(doc, "constraints must be a list of [x, y, eps] triples", "constraint")
