"""Tilings of Z x (Z/pZ) for prime p.

In the convolution ring Q^(Z/pZ), for prime p, the indicator of any proper
non-empty subset is invertible: its inverse solves a circulant linear system
and is read off that system's integer kernel.  Tiles of the mixed group split
into two classes: those whose occupied integer columns all carry the full fiber
(their co-tiles project to co-tiles of a one-dimensional tile, with a free
fiber choice per column), and the rest, whose co-tiles are forced periodic.

Only prime p is supported: the inverse rests on irreducibility of the p-th
cyclotomic polynomial, which fails for composite moduli, where the circulant of
a proper subset can be singular.  Composite input raises rather than risking a
silently wrong answer.  Z x (Z/pZ) is Z^2 / Z(0, p), so a mixed set is handled
as a set in Z^2 periodic under (0, p): a tile lifts to a Tile in Z^2 and a
co-tile of period m to a PeriodicSet on the lattice diag(m, p), and tiling
checks, convolutions and stabilizers are the Z^2 ones.
Full-fiber tiles also admit non-periodic co-tiles (an arbitrary fiber choice
per column); those have no finite presentation here and only periodic
presentations are checkable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (EmptyOrFullError, InputContractError, InternalError, NotACotileError,
                     NotPrimeError)
from .decompose import is_prime
from .lattice import Lattice, PeriodicSet, _integer, _integer_kernel, _integers, hnf, stabilizer
from .tiles import Tile, WeightedTile, convolve, indicator
from . import verify as _verify


def _require_prime(p):
    if not is_prime(p):
        raise NotPrimeError(f"modulus {p} is not prime")


@dataclass(frozen=True)
class CyclicFunction:
    """A function on Z/pZ with exact rational values, values[t] at residue t.

    It convolves as a PeriodicRationalFunction on the lattice pZ of Z^1
    (tiles.convolve); this record only carries ring_inverse's answer.
    """

    p: int
    values: tuple


# The kernel of the circulant grows steeply with p: on a 2-vCPU Xeon with
# Python 3.11 a half-size subset takes up to 1.8 s at p = 101, 3.7 s at
# p = 113 and 48 s at p = 151.
RING_INVERSE_MAX_P = 101


def ring_inverse(subset, p):
    """g with g * 1_{F0} = delta_0 in the convolution ring on Z/pZ.

    The identity is the p x p circulant system C g = e_0 with
    C[i][j] = [(i - j) mod p in F0]; the integer kernel of [C | -e_0] is
    spanned by one vector (t g, t) with t != 0 exactly when C is nonsingular,
    which holds when F0 is a proper non-empty subset and p is prime.  That
    vector is checked against the circulant in integers.  Primes above
    RING_INVERSE_MAX_P are refused before the circulant is built.
    """
    _require_prime(p)
    subset = {s % p for s in subset}
    if not subset or len(subset) == p:
        raise EmptyOrFullError("the empty set and the full group are not invertible")
    if p > RING_INVERSE_MAX_P:
        raise InputContractError(f"ring inverse too large: p = {p} is above "
                                 f"{RING_INVERSE_MAX_P}")
    rows = [[int((i - j) % p in subset) for j in range(p)] + [-int(i == 0)] for i in range(p)]
    kernel = _integer_kernel(rows, p + 1)
    if len(kernel) != 1 or kernel[0][p] == 0:
        raise InternalError("indicator of F0 is not invertible; "
                            "impossible for prime p and a proper subset")
    x, t = kernel[0][:p], kernel[0][p]
    if any(sum(x[(i - s) % p] for s in subset) != (t if i == 0 else 0) for i in range(p)):
        raise InternalError("computed inverse fails its defining identity")
    return CyclicFunction(p, tuple(Fraction(a, t) for a in x))


@dataclass(frozen=True)
class MixedTile:
    """A finite subset of Z x (Z/pZ), p prime."""

    p: int
    points: frozenset  # (n, t) with 0 <= t < p

    @staticmethod
    def make(p, points):
        p = _integer(p)
        _require_prime(p)
        pts = frozenset((n, t % p) for n, t in map(_integers, points))
        if not pts:
            raise InputContractError("a tile must be non-empty")
        return MixedTile(p, pts)

    @property
    def size(self):
        return len(self.points)

    @property
    def columns(self):
        return sorted({n for n, _ in self.points})

    def fiber(self, n):
        return {t for m, t in self.points if m == n}

    def lifted(self):
        """The same points as a tile of Z^2."""
        return Tile(2, self.points)


@dataclass(frozen=True)
class TorsionClass:
    kind: str  # "full_fiber" | "generic"
    base: Tile | None  # the Z-projection when every column carries the full fiber

    @property
    def is_full_fiber(self):
        return self.kind == "full_fiber"


def classify(tile):
    """FULL_FIBER when every occupied column carries all p residues, else GENERIC."""
    if all(len(tile.fiber(n)) == tile.p for n in tile.columns):
        base = Tile.make(1, [(n,) for n in tile.columns])
        return TorsionClass("full_fiber", base)
    return TorsionClass("generic", None)


@dataclass(frozen=True)
class MixedPeriodicSet:
    """A subset of Z x (Z/pZ), periodic in the Z direction: one Z-periodic
    fiber per torsion residue, all on a common period."""

    p: int
    period: int
    members: frozenset  # (n, t) with 0 <= n < period, 0 <= t < p

    @staticmethod
    def make(p, period, members):
        p, period = _integer(p), _integer(period)
        _require_prime(p)
        if period < 1:
            raise InputContractError("period must be positive")
        pts = frozenset((n % period, t % p) for n, t in map(_integers, members))
        return MixedPeriodicSet(p, period, pts)

    def contains(self, n, t):
        return (n % self.period, t % self.p) in self.members

    def lifted(self):
        """The preimage in Z^2, periodic under diag(period, p)."""
        return PeriodicSet.make(Lattice.diagonal([self.period, self.p]), self.members)

    def projection(self):
        """Columns meeting the set, as a one-dimensional PeriodicSet."""
        return PeriodicSet.make(Lattice.diagonal([self.period]), [(n,) for n, _ in self.members])

    def stabilizer_generator(self):
        """Smallest (n, t) with n >= 1, then 0 <= t < p, fixing the set under
        translation."""
        return _least_generator(self.lifted())


def _least_generator(lifted):
    """MixedPeriodicSet.stabilizer_generator, from the lift.

    With coordinates swapped to (t, n), the canonical basis of the Z^2
    stabilizer is (a, 0), (b, c) with 0 <= b < a: c is the least positive n
    reached and b the least t >= 0 that goes with it.  (0, p) lies in the
    stabilizer, so a <= p and b < p.
    """
    stab = stabilizer(lifted)
    _, (b, c) = hnf(2, [(t, n) for n, t in stab.basis]).basis
    return (c, b)


@dataclass(frozen=True)
class TorsionVerdict:
    kind: str                      # "full_fiber" | "generic"
    periodic: bool
    stabilizer_generator: tuple | None
    base: Tile | None              # full-fiber case: the Z-tile
    base_cotile: PeriodicSet | None  # full-fiber case: the Z-projection of A
    recovered_via_inverse: bool | None  # generic case: ring-inverse round trip


def cotile_conclusion(tile, aset):
    """Check 1_F * 1_A = 1 on the mixed group and report the structural verdict.

    Generic tiles force periodic co-tiles.  The verdict reports a stabilizer
    generator with a nonzero Z-component and re-enacts the mechanism behind
    the forcing: some column carries a proper non-empty fiber F_0, and
    convolving 1_A with that column and then with the ring inverse of F_0
    recovers 1_A exactly, so 1_A inherits the periodicity of the convolution.
    Full-fiber tiles delegate to Z: the projection of A must co-tile the base
    tile, with one free fiber choice per column.
    """
    if tile.p != aset.p:
        raise InputContractError("mismatched moduli")
    lifted = aset.lifted()
    if not _verify.is_tiling(tile.lifted(), lifted).ok:
        raise NotACotileError("1_F * 1_A is not identically 1 on the mixed group")
    gen = _least_generator(lifted)
    cls = classify(tile)
    if cls.is_full_fiber:
        base_cotile = aset.projection()
        rep = _verify.is_tiling(cls.base, base_cotile)
        if not rep:
            raise InternalError("full-fiber projection fails to co-tile; "
                                "contradicts the mixed verification")
        return TorsionVerdict("full_fiber", True, gen, cls.base, base_cotile, None)
    p = tile.p
    n0 = next(n for n in tile.columns if 0 < len(tile.fiber(n)) < p)
    f0 = tile.fiber(n0)
    inverse = ring_inverse(f0, p)
    # WeightedTile is integer-valued: scale the inverse to integers and
    # compare with the indicator scaled alike
    lcm = math.lcm(*(v.denominator for v in inverse.values))
    ind = indicator(lifted)
    conv = convolve(WeightedTile.make(2, {(0, t): 1 for t in f0}), ind)
    back = WeightedTile.make(2, {(0, t): int(v * lcm) for t, v in enumerate(inverse.values)})
    if convolve(back, conv) != ind.scale(lcm):
        raise InternalError("ring-inverse round trip failed to recover the indicator")
    return TorsionVerdict("generic", True, gen, None, None, True)
