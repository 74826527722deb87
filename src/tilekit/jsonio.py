"""JSON encoding of the domain types, schema "tilekit/1".

Every document carries a "kind" discriminator so any consumer subcommand can
re-read what another subcommand emitted.  Rationals travel as "p/q" strings
(plain integers stay integers).  Every integer of a document (coordinates,
dimensions, weights, moduli) goes through one reader, which takes an
integer-valued float such as 1.0 as that integer.  Non-canonical input
(unordered generators, unreduced members, repeated function values) is
canonicalized on load; two different values for one residue are an input
error.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import InputContractError
from .lattice import Lattice, PeriodicSet, _integer, _integers, hnf
from .tiles import PeriodicRationalFunction, Tile, TileTuple, WeightedTile
from .torsion import MixedPeriodicSet, MixedTile

SCHEMA = "tilekit/1"


def _enc_rational(x):
    x = Fraction(x)
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


_RATIONAL = re.compile(r"([+-]?\d+)(?:/([+-]?\d+))?|[+-]?(\d+\.\d*|\.\d+)")


def parse_rational(x):
    """x as an exact Fraction: an int, a finite JSON number, or a string "p",
    "p/q" or a decimal such as "-0.25".  The one parser for document values
    and --level arguments; anything else, a zero denominator among them, is
    an InputContractError."""
    try:
        if isinstance(x, str):
            match = _RATIONAL.fullmatch(x.strip())
            if match and match[1]:
                return Fraction(int(match[1]), int(match[2] or 1))
            if match:
                return Fraction(x)
        elif isinstance(x, (int, float)) and not isinstance(x, bool):
            return Fraction(x)
    except ZeroDivisionError:
        raise InputContractError(f"zero denominator in {x!r}")
    except (ValueError, OverflowError):
        pass
    raise InputContractError(f"not a rational number: {x!r}")


def to_document(obj, comment=None):
    doc = {"schema": SCHEMA}
    if comment:
        doc["comment"] = comment
    if isinstance(obj, Lattice):
        doc.update(kind="lattice", dim=obj.dim, basis=[list(c) for c in obj.basis])
    elif isinstance(obj, PeriodicSet):
        doc.update(kind="periodic_set",
                   lattice=to_document(obj.lattice),
                   members=[list(m) for m in obj.sorted_members])
    elif isinstance(obj, Tile):
        doc.update(kind="tile", dim=obj.dim, points=[list(p) for p in obj.sorted_points])
    elif isinstance(obj, TileTuple):
        doc.update(kind="tile_tuple", tiles=[to_document(t) for t in obj])
    elif isinstance(obj, WeightedTile):
        doc.update(kind="weighted_tile", dim=obj.dim,
                   entries=[[list(p), w] for p, w in obj.entries])
    elif isinstance(obj, PeriodicRationalFunction):
        doc.update(kind="function",
                   lattice=to_document(obj.lattice),
                   values=[[list(r), _enc_rational(v)]
                           for r, v in sorted(obj.values.items())])
    elif isinstance(obj, MixedTile):
        doc.update(kind="mixed_tile", p=obj.p,
                   points=sorted([n, t] for n, t in obj.points))
    elif isinstance(obj, MixedPeriodicSet):
        doc.update(kind="mixed_periodic_set", p=obj.p, period=obj.period,
                   members=sorted([n, t] for n, t in obj.members))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return doc


def _strip(doc):
    return {k: v for k, v in doc.items() if k not in ("schema", "comment", "kind")}


def _infer_kind(doc):
    if "kind" in doc:
        return doc["kind"]
    keys = set(doc)
    if {"p", "period", "members"} <= keys:
        return "mixed_periodic_set"
    if {"p", "points"} <= keys:
        return "mixed_tile"
    if "tiles" in keys:
        return "tile_tuple"
    if "points" in keys:
        return "tile"
    if "entries" in keys:
        return "weighted_tile"
    if "values" in keys:
        return "function"
    if "members" in keys:
        return "periodic_set"
    if "basis" in keys:
        return "lattice"
    raise InputContractError("cannot infer the kind of this document")


def from_document(doc):
    kind = _infer_kind(doc)
    body = _strip(doc)
    if kind == "lattice":
        return hnf(_integer(body["dim"]), body["basis"])
    if kind == "periodic_set":
        lat = from_document(body["lattice"])
        return PeriodicSet.make(lat, body["members"])
    if kind == "tile":
        return Tile.make(_integer(body["dim"]), body["points"])
    if kind == "tile_tuple":
        return TileTuple.make([from_document(t) for t in body["tiles"]])
    if kind == "weighted_tile":
        return WeightedTile.make(_integer(body["dim"]),
                                 {_integers(p): _integer(w) for p, w in body["entries"]})
    if kind == "function":
        lat = from_document(body["lattice"])
        values = {}
        for r, v in body["values"]:
            r, v = lat.reduce(_integers(r)), parse_rational(v)
            if values.setdefault(r, v) != v:
                raise InputContractError(f"residue {r} has two values, {values[r]} and {v}")
        return PeriodicRationalFunction.make(lat, values)
    if kind == "mixed_tile":
        return MixedTile.make(body["p"], body["points"])
    if kind == "mixed_periodic_set":
        return MixedPeriodicSet.make(body["p"], body["period"], body["members"])
    raise InputContractError(f"unknown kind {kind!r}")


def dump(obj, path, comment=None):
    with open(path, "w") as fh:
        json.dump(to_document(obj, comment), fh, indent=2)
        fh.write("\n")


def load(path):
    with open(path) as fh:
        return from_document(json.load(fh))


def dumps(obj, comment=None):
    return json.dumps(to_document(obj, comment), indent=2)
