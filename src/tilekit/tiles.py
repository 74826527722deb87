"""Finite tiles, weighted tiles, and exact convolution against periodic functions.

Weighted tiles carry integer weights so that indicators, single deltas and
signed combinations all go through one convolution code path.  Convolution is
defined against L-periodic rational functions only and is computed exactly.
A periodic function is kept as integer numerators over one denominator, in
the residue order of its lattice's quotient, so convolution, sums, shifts,
refinement and comparison run on ints; a Fraction is made only where a value
is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import add
from types import MappingProxyType

from .errors import InputContractError
from .lattice import (Lattice, PeriodicSet, _integer, _integers, _mask, label_stabilizer, vadd,
                      vneg, vsub, vscale)


@dataclass(frozen=True)
class Tile:
    """A finite non-empty subset of Z^dim."""

    dim: int
    points: frozenset

    @staticmethod
    def make(dim, points):
        """Each coordinate is read by lattice._integers: 1.0 reads as 1, and
        0.5, True or "1" is an InputContractError."""
        pts = frozenset(map(_integers, points))
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

    @cached_property
    def sorted_points(self):
        return tuple(sorted(self.points))

    @cached_property
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
    """The tile r*F = {r f : f in F}; cardinality is preserved.  r is read
    by lattice._integer."""
    r = _integer(r)
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
        weights = _integers(mapping.values())   # each checked before zeros drop
        entries = tuple(sorted((tuple(p), w) for p, w in zip(mapping, weights) if w))
        for p, _ in entries:
            if len(p) != dim:
                raise InputContractError(f"point {p} does not have dimension {dim}")
        return WeightedTile(dim, entries)

    @staticmethod
    def delta(dim):
        return WeightedTile(dim, (((0,) * dim, 1),))

    def __eq__(self, other):
        return isinstance(other, WeightedTile) and (self.dim, self.entries) == (other.dim, other.entries)

    def __repr__(self):
        return f"WeightedTile({self.dim}, {dict(self.entries)})"


def weighted_points(g):
    """The (point, weight) pairs of a WeightedTile, or of a Tile with weight 1."""
    if isinstance(g, Tile):
        return [(p, 1) for p in g.sorted_points]
    if isinstance(g, WeightedTile):
        return g.entries
    raise TypeError(f"expected Tile or WeightedTile, got {type(g).__name__}")


@dataclass(frozen=True, eq=False)
class PeriodicRationalFunction:
    """An L-periodic function Z^d -> Q as integer numerators over one denominator.

    nums lists the numerators in the residue order of lattice.quotient(), den
    is positive and gcd(den, *nums) is 1, so the form is canonical: on one
    lattice two functions are equal exactly when (den, nums) are.  Sums,
    shifts, refinements, comparisons and convolutions run on these integers;
    values is a read-only {residue: Fraction} view built on first use.  Build
    instances with make, constant, from_callable or indicator.
    """

    lattice: Lattice
    den: int
    nums: tuple

    @staticmethod
    def make(lattice, mapping):
        """The function with the given values on canonical residues of lattice
        and 0 on the residues the mapping leaves out.  Each coordinate of a
        residue is read by lattice._integers."""
        quotient = lattice.quotient()
        try:
            keys = list(map(_integers, mapping))
        except InputContractError as error:
            raise InputContractError(f"a key is not a canonical residue of {lattice}: {error}") from None
        numbers = quotient.numbers([r for r in keys if len(r) == lattice.dim])
        if len(numbers) < len(keys) or quotient.decode(numbers) != keys:
            for r in keys:
                if len(r) != lattice.dim or quotient.decode(quotient.numbers([r])) != [r]:
                    raise InputContractError(f"{r} is not a canonical residue of {lattice}")
        values = dict(zip(numbers, map(Fraction, mapping.values())))
        return _from_fractions(lattice, [values.get(a, 0) for a in range(quotient.size)])

    @staticmethod
    def constant(lattice, c):
        c = Fraction(c)
        return PeriodicRationalFunction(
            lattice, c.denominator, (c.numerator,) * lattice.quotient().size)

    @staticmethod
    def from_callable(lattice, fn):
        return _from_fractions(lattice, [Fraction(fn(r)) for r in lattice.quotient().residues])

    @property
    def dim(self):
        return self.lattice.dim

    @property
    def values(self):
        return MappingProxyType(self._values)

    @cached_property
    def _values(self):
        # a plain dict, so that a function stays picklable once values is read
        den = self.den
        return {r: Fraction(n, den) for r, n in zip(self.lattice.quotient().residues, self.nums)}

    def __call__(self, v):
        if len(v) != self.dim:
            raise InputContractError(f"vector {v} does not have dimension {self.dim}")
        return Fraction(self.nums[self.lattice.quotient().numbers([v])[0]], self.den)

    def shift(self, v):
        """The function x -> f(x + v)."""
        nums = self.nums
        table = self.lattice.quotient().translation(v)
        return PeriodicRationalFunction(self.lattice, self.den, tuple([nums[a] for a in table]))

    def refine(self, sub):
        """Re-present on a finer full-rank lattice sub; self when sub is its lattice."""
        if sub == self.lattice:
            return self
        if not self.lattice.contains_lattice(sub):
            raise InputContractError("refinement lattice is not contained in the current one")
        nums = self.nums
        numbers = self.lattice.quotient().numbers(sub.quotient().residues)
        return PeriodicRationalFunction(sub, self.den, tuple([nums[a] for a in numbers]))

    def common_lattice(self, other):
        if self.lattice == other.lattice:
            return self.lattice
        return self.lattice.intersect(other.lattice)

    def __add__(self, other):
        if isinstance(other, PeriodicRationalFunction):
            common = self.common_lattice(other)
            a, b = self.refine(common), other.refine(common)
            den = lcm(a.den, b.den)
            ka, kb = den // a.den, den // b.den
            return _canonical(common, den, [x * ka + y * kb for x, y in zip(a.nums, b.nums)])
        c = Fraction(other)
        den = lcm(self.den, c.denominator)
        k, t = den // self.den, c.numerator * (den // c.denominator)
        return _canonical(self.lattice, den, [n * k + t for n in self.nums])

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return PeriodicRationalFunction(self.lattice, self.den, tuple([-n for n in self.nums]))

    def __sub__(self, other):
        return self.__add__(-other if isinstance(other, PeriodicRationalFunction) else -Fraction(other))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def scale(self, c):
        c = Fraction(c)
        return _canonical(self.lattice, self.den * c.denominator,
                          [c.numerator * n for n in self.nums])

    def __eq__(self, other):
        """Equality as functions on Z^d, independent of the presentation lattice."""
        if isinstance(other, PeriodicRationalFunction):
            if self.dim != other.dim:
                return False
            common = self.common_lattice(other)
            a, b = self.refine(common), other.refine(common)
            return a.den == b.den and a.nums == b.nums
        try:
            c = Fraction(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.is_constant(c)

    def is_constant(self, c):
        c = Fraction(c)
        return self.den == c.denominator and self.nums.count(c.numerator) == len(self.nums)

    def min_value(self):
        return Fraction(min(self.nums), self.den)

    def max_value(self):
        return Fraction(max(self.nums), self.den)

    def is_integer_valued(self):
        return self.den == 1

    def stabilizer(self):
        """Full stabilizer {v : f(x + v) = f(x) for all x} as a canonical Lattice."""
        return label_stabilizer(self.lattice, self.nums)

    def support_set(self):
        """Members where the function is nonzero, as a PeriodicSet (0/1 functions)."""
        return PeriodicSet(self.lattice, _mask([a for a, n in enumerate(self.nums) if n]))

    def __repr__(self):
        items = ", ".join(f"{r}: {v}" for r, v in sorted(self.values.items()))
        return f"PeriodicRationalFunction({self.lattice!r}, {{{items}}})"


def _from_fractions(lattice, values):
    """The function with the Fractions `values` in residue order.  Over the
    lcm of the reduced denominators the numerators share no factor with it."""
    den = lcm(*{v.denominator for v in values})
    return PeriodicRationalFunction(
        lattice, den, tuple([v.numerator * (den // v.denominator) for v in values]))


def _canonical(lattice, den, nums):
    """The function nums / den in residue order, with the common factor of
    den and the numerators divided out."""
    g = gcd(den, *nums)
    if g != 1:
        den //= g
        nums = [n // g for n in nums]
    return PeriodicRationalFunction(lattice, den, tuple(nums))


def indicator(aset):
    """1_A as a periodic rational function on A's presentation lattice."""
    return PeriodicRationalFunction(aset.lattice, 1, tuple(
        [aset.mask >> a & 1 for a in range(aset.lattice.quotient().size)]))


def convolve_ints(entries, quotient, values):
    """Exact convolution on residue numbers: entry a of the result is
    sum_y w_y * values[number of residues[a] - y] over the pairs (y, w_y) of
    weighted_points, for the integers `values` listed in residue order."""
    acc = [0] * len(values)
    for y, w in entries:
        moved = map(values.__getitem__, quotient.translation(vneg(y)))
        if w != 1:
            moved = [w * x for x in moved]
        acc = list(map(add, acc, moved))
    return acc


def convolve(g, f):
    """Exact convolution (g * f)(x) = sum_y g(y) f(x - y) of a Tile or
    WeightedTile with a periodic rational function; the result keeps f's
    lattice and f's denominator, reduced against the integer sums."""
    entries = weighted_points(g)
    if g.dim != f.dim:
        raise InputContractError("dimension mismatch in convolution")
    return _canonical(f.lattice, f.den, convolve_ints(entries, f.lattice.quotient(), f.nums))
