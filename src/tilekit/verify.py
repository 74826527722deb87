"""Exact verification of tiling equations, level equations, and means."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputContractError
from .tiles import as_weighted, convolve, indicator

DEFECT_CAP = 32


@dataclass(frozen=True)
class TilingReport:
    ok: bool
    defects: tuple  # ((residue, value), ...) where convolution misses the target

    def __bool__(self):
        return self.ok


def _check_constant(conv, target):
    target = Fraction(target)
    defects = []
    for r in sorted(conv.values):
        v = conv.values[r]
        if v != target:
            if len(defects) < DEFECT_CAP:
                defects.append((r, v))
    return TilingReport(not defects, tuple(defects))


def is_tiling(tile, aset):
    """Whether F + A = Z^d with unique representations: 1_F * 1_A must be 1."""
    if tile.dim != aset.dim:
        raise InputContractError("tile and set have different dimensions")
    return _check_constant(convolve(tile, indicator(aset)), 1)


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
    return _check_constant(convolve(g, fn), level)


def mean(fn):
    """Average of a periodic function over one fundamental domain.

    For periodic functions this equals the limit of box averages, so the box
    limit never has to be taken at runtime.
    """
    total = sum(fn.values.values(), Fraction(0))
    return total / fn.lattice.index()
