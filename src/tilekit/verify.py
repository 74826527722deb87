"""Exact verification of tiling equations, level equations, and means."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import InputContractError
from .tiles import as_weighted, convolve_ints, indicator

DEFECT_CAP = 32


@dataclass(frozen=True)
class TilingReport:
    ok: bool
    defects: tuple  # ((residue, value), ...) where convolution misses the target

    def __bool__(self):
        return self.ok


def _report(quotient, sums, target, den):
    """Compare integer sums in residue order with the integer target; a miss
    is reported at its residue with the value sum / den."""
    if sums.count(target) == len(sums):
        return TilingReport(True, ())
    numbers = [a for a, s in enumerate(sums) if s != target]
    missed = sorted(zip(quotient.decode(numbers), [sums[a] for a in numbers]))
    return TilingReport(False, tuple((r, Fraction(s, den)) for r, s in missed[:DEFECT_CAP]))


def is_tiling(tile, aset):
    """Whether F + A = Z^d with unique representations: 1_F * 1_A must be 1."""
    if tile.dim != aset.dim:
        raise InputContractError("tile and set have different dimensions")
    return is_level_tiling(tile, indicator(aset), 1)


@dataclass(frozen=True)
class JointReport:
    ok: bool
    failing_tile: int | None
    report: TilingReport | None

    def __bool__(self):
        return self.ok


def is_joint_cotile(tiles, aset):
    """Whether A solves every tiling equation of the tuple; short-circuits on
    the first failing tile."""
    sizes = {t.size for t in tiles}
    if len(sizes) > 1:
        warnings.warn("tiles have unequal sizes, so no joint co-tile can exist",
                      stacklevel=2)
    for i, tile in enumerate(tiles):
        rep = is_tiling(tile, aset)
        if not rep:
            return JointReport(False, i, rep)
    return JointReport(True, None, None)


def is_level_tiling(g, fn, level):
    """Whether g * f is identically `level` on the fundamental domain."""
    g = as_weighted(g)
    if g.dim != fn.dim:
        raise InputContractError("tile and function have different dimensions")
    level = Fraction(level)
    quotient = fn.lattice.quotient()
    den = lcm(fn.den, level.denominator)
    k = den // fn.den
    sums = convolve_ints(g, quotient, fn.nums if k == 1 else [k * n for n in fn.nums])
    return _report(quotient, sums, level.numerator * (den // level.denominator), den)


def mean(fn):
    """Average of a periodic function over one fundamental domain.

    For periodic functions this equals the limit of box averages, so the box
    limit never has to be taken at runtime.
    """
    return Fraction(sum(fn.nums), fn.den * fn.lattice.index())
