"""Finite tiles, weighted tiles, and exact convolution against periodic functions.

Weighted tiles carry integer weights so that indicators, single deltas and
signed combinations all go through one convolution code path.  Convolution is
defined against L-periodic rational functions only and is computed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add

from .errors import InputContractError, RankDeficientError
from .lattice import Lattice, PeriodicSet, label_stabilizer, vadd, vneg, vsub, vscale


@dataclass(frozen=True)
class Tile:
    """A finite non-empty subset of Z^dim."""

    dim: int
    points: frozenset

    @staticmethod
    def make(dim, points):
        pts = frozenset(tuple(p) for p in points)
        if not pts:
            raise InputContractError("a tile must be non-empty")
        for p in pts:
            if len(p) != dim:
                raise InputContractError(f"point {p} does not have dimension {dim}")
        return Tile(dim, pts)

    @property
    def size(self):
        return len(self.points)

    @property
    def is_normalized(self):
        return (0,) * self.dim in self.points

    @property
    def star(self):
        """Points with the origin removed."""
        return self.points - {(0,) * self.dim}

    @property
    def sorted_points(self):
        return tuple(sorted(self.points))

    @property
    def sorted_star(self):
        return tuple(sorted(self.star))

    def translate(self, v):
        return Tile(self.dim, frozenset(vadd(p, v) for p in self.points))

    def diameter(self):
        """Largest coordinate spread, sup-norm."""
        return max(max(p[i] for p in self.points) - min(p[i] for p in self.points)
                   for i in range(self.dim))

    def __repr__(self):
        return f"Tile({self.dim}, {list(self.sorted_points)})"


def normalize(tile):
    """Translate so the lexicographically smallest point becomes the origin.

    Returns (normalized tile, translation vector that was subtracted).
    """
    t = min(tile.points)
    return tile.translate(vscale(-1, t)), t


def dilate(tile, r):
    """The tile r*F = {r f : f in F}; cardinality is preserved."""
    if r < 1:
        raise InputContractError("dilation factor must be a positive integer")
    return Tile(tile.dim, frozenset(vscale(r, p) for p in tile.points))


def difference_set(tile):
    """{a - b : a, b in F}."""
    return Tile(tile.dim, frozenset(vsub(a, b) for a in tile.points for b in tile.points))


@dataclass(frozen=True)
class TileTuple:
    """An ordered tuple of normalized tiles of a common dimension."""

    tiles: tuple

    def __post_init__(self):
        if not self.tiles:
            raise InputContractError("a tile tuple must be non-empty")
        dim = self.tiles[0].dim
        for t in self.tiles:
            if t.dim != dim:
                raise InputContractError("tiles have mixed dimensions")
            if not t.is_normalized:
                raise InputContractError(f"tile {t} does not contain the origin")

    @staticmethod
    def make(tiles):
        return TileTuple(tuple(tiles))

    @property
    def dim(self):
        return self.tiles[0].dim

    def __len__(self):
        return len(self.tiles)

    def __iter__(self):
        return iter(self.tiles)

    def __getitem__(self, i):
        return self.tiles[i]


@dataclass(frozen=True, eq=False)
class WeightedTile:
    """A finitely supported integer-valued function on Z^dim."""

    dim: int
    entries: tuple  # sorted ((point, weight), ...), weights nonzero

    @staticmethod
    def make(dim, mapping):
        entries = tuple(sorted((tuple(p), int(w)) for p, w in mapping.items() if w))
        for p, _ in entries:
            if len(p) != dim:
                raise InputContractError(f"point {p} does not have dimension {dim}")
        return WeightedTile(dim, entries)

    @staticmethod
    def from_tile(tile):
        return WeightedTile(tile.dim, tuple((p, 1) for p in tile.sorted_points))

    @staticmethod
    def delta(dim, v=None):
        v = (0,) * dim if v is None else tuple(v)
        return WeightedTile(dim, ((v, 1),))

    def __eq__(self, other):
        return isinstance(other, WeightedTile) and (self.dim, self.entries) == (other.dim, other.entries)

    def __repr__(self):
        return f"WeightedTile({self.dim}, {dict(self.entries)})"


def as_weighted(g):
    if isinstance(g, WeightedTile):
        return g
    if isinstance(g, Tile):
        return WeightedTile.from_tile(g)
    raise TypeError(f"expected Tile or WeightedTile, got {type(g).__name__}")


@dataclass(frozen=True, eq=False)
class PeriodicRationalFunction:
    """An L-periodic function Z^d -> Q, stored by its values on a fundamental domain."""

    lattice: Lattice
    values: dict  # canonical residue -> Fraction, one entry per residue

    @staticmethod
    def make(lattice, mapping):
        if not lattice.is_full_rank:
            raise RankDeficientError("a periodic function needs a full-rank lattice")
        values = {}
        for r in lattice.quotient():
            values[r] = Fraction(mapping.get(r, 0))
        return PeriodicRationalFunction(lattice, values)

    @staticmethod
    def constant(lattice, c):
        return PeriodicRationalFunction.make(lattice, {r: Fraction(c) for r in lattice.quotient()})

    @staticmethod
    def from_callable(lattice, fn):
        return PeriodicRationalFunction.make(lattice, {r: Fraction(fn(r)) for r in lattice.quotient()})

    @property
    def dim(self):
        return self.lattice.dim

    def __call__(self, v):
        return self.values[self.lattice.reduce(v)]

    def shift(self, v):
        """The function x -> f(x + v)."""
        return convolve(WeightedTile.delta(self.dim, vneg(v)), self)

    def refine(self, sub):
        """Re-present on a finer full-rank lattice sub; self when sub is its lattice."""
        if sub == self.lattice:
            return self
        if not self.lattice.contains_lattice(sub):
            raise InputContractError("refinement lattice is not contained in the current one")
        return PeriodicRationalFunction(
            sub, {r: self(r) for r in sub.quotient()})

    def common_lattice(self, other):
        if self.lattice == other.lattice:
            return self.lattice
        return self.lattice.intersect(other.lattice)

    def __add__(self, other):
        if isinstance(other, PeriodicRationalFunction):
            common = self.common_lattice(other)
            a, b = self.refine(common).values, other.refine(common).values
            return PeriodicRationalFunction(common, {r: a[r] + b[r] for r in common.quotient()})
        return PeriodicRationalFunction(
            self.lattice, {r: v + Fraction(other) for r, v in self.values.items()})

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return PeriodicRationalFunction(self.lattice, {r: -v for r, v in self.values.items()})

    def __sub__(self, other):
        return self.__add__(-other if isinstance(other, PeriodicRationalFunction) else -Fraction(other))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def scale(self, c):
        c = Fraction(c)
        return PeriodicRationalFunction(self.lattice, {r: c * v for r, v in self.values.items()})

    def __eq__(self, other):
        """Equality as functions on Z^d, independent of the presentation lattice."""
        if isinstance(other, PeriodicRationalFunction):
            if self.dim != other.dim:
                return False
            common = self.common_lattice(other)
            return self.refine(common).values == other.refine(common).values
        try:
            c = Fraction(other)
        except (TypeError, ValueError):
            return NotImplemented
        return all(v == c for v in self.values.values())

    def is_constant(self, c):
        c = Fraction(c)
        return all(v == c for v in self.values.values())

    def min_value(self):
        return min(self.values.values())

    def max_value(self):
        return max(self.values.values())

    def is_integer_valued(self):
        return all(v.denominator == 1 for v in self.values.values())

    def stabilizer(self):
        """Full stabilizer {v : f(x + v) = f(x) for all x} as a canonical Lattice."""
        return label_stabilizer(self.lattice, self.values)

    def support_set(self):
        """Members where the function is nonzero, as a PeriodicSet (0/1 functions)."""
        return PeriodicSet(self.lattice,
                           frozenset(r for r, v in self.values.items() if v))

    def __repr__(self):
        items = ", ".join(f"{r}: {v}" for r, v in sorted(self.values.items()))
        return f"PeriodicRationalFunction({self.lattice!r}, {{{items}}})"


def indicator(aset):
    """1_A as a periodic rational function on A's presentation lattice."""
    return PeriodicRationalFunction.make(
        aset.lattice, {r: Fraction(1) for r in aset.members})


def numerators(values, den=1):
    """(D, numerators): D is the lcm of den and the denominators of the
    Fractions `values`, and each value is its numerator over D."""
    den = lcm(den, *{v.denominator for v in values})
    return den, [v.numerator * (den // v.denominator) for v in values]


def convolve_ints(g, quotient, values):
    """Exact convolution on residue numbers: entry a of the result is
    sum_y w_y * values[number of residues[a] - y] over the entries (y, w_y) of
    the weighted tile g, for the integers `values` listed in residue order."""
    acc = [0] * len(values)
    for y, w in g.entries:
        moved = map(values.__getitem__, quotient.translation(vneg(y)))
        if w != 1:
            moved = [w * x for x in moved]
        acc = list(map(add, acc, moved))
    return acc


def convolve(g, f):
    """Exact convolution (g * f)(x) = sum_y g(y) f(x - y) of a finitely supported
    integer function with a periodic rational function; the result keeps f's lattice.

    f's values are put over one common denominator D and the sums run on
    integer numerators in residue order; one Fraction is made per distinct
    sum, so equal values share one object.
    """
    g = as_weighted(g)
    if g.dim != f.dim:
        raise InputContractError("dimension mismatch in convolution")
    lat = f.lattice
    quotient = lat.quotient()
    residues = quotient.residues
    den, values = numerators([f.values[r] for r in residues])
    sums = convolve_ints(g, quotient, values)
    made = {s: Fraction(s, den) for s in set(sums)}
    return PeriodicRationalFunction(lat, dict(zip(residues, map(made.__getitem__, sums))))
