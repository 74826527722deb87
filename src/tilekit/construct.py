"""Deterministic construction of companion tiles for a periodic tiling.

Given a tile F with a periodic co-tile A, builds d-1 further tiles that share
A as a joint co-tile, such that the full d-tuple is independent and the first
d-1 tiles together with F have the span-uniqueness property.  The key step is
a greedy assignment of stabilizer shifts that forces every relevant projected
span to have the maximal possible dimension; lattice points are drawn in a
pinned order (sup-norm shells, lexicographic within a shell) so identical
inputs always produce identical tiles.  All three postconditions are
re-verified through the analysis and verification modules, never trusted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    InputContractError,
    InternalError,
    NotATilingError,
    OutOfLatticeError,
    RankDeficientError,
    TrivialTileError,
)
from .lattice import stabilizer, vadd, vneg, vsub
from .tiles import Tile, TileTuple
from .analysis import (RationalSubspace, avoid_subspaces, has_property_star,
                       is_independent_tuple, vw_dimension)
from . import verify
from . import solve as _solve


@dataclass(frozen=True)
class AffineSubspace:
    """offset + direction, a rational affine subspace of Q^d."""

    offset: tuple
    direction: RationalSubspace

    @property
    def dim(self):
        return self.direction.dim

    def contains(self, v):
        return self.direction.contains(vsub(v, self.offset))


def translate_by_lattice(tile, shifts, lat):
    """The tile {v + g(v)} for g mapping tile points into the lattice.

    shifts: mapping point -> lattice vector.  Cardinality must be preserved;
    a collision means the inputs were inconsistent with a tiling use.
    """
    moved = []
    for p in tile.sorted_points:
        g = tuple(shifts.get(p, (0,) * tile.dim))
        if not lat.contains(g):
            raise OutOfLatticeError(f"shift {g} of point {p} is outside the lattice")
        moved.append(vadd(p, g))
    if len(set(moved)) != len(moved):
        raise InputContractError("shifted points collide; cardinality not preserved")
    return Tile.make(tile.dim, moved)


def forcing_assignment(vectors, lat, w_list):
    """Greedy shifts g so every projected span has the maximal dimension.

    For each j in turn, g(j) avoids every affine subspace
    -v_j + span{v_i + g(i) : i in J} + W over W in w_list and J a subset of
    the earlier indices of size at most d - dim(W) - 1.  The postcondition
    dim(V_W(J)) = min(d - dim W, |J|) is then re-verified for every W over
    all subsets J of size at most d - dim W.  That covers every J: a larger
    J contains a subset of that size, whose V_W already has dimension
    d - dim W, and V_W(J) can neither lose dimension by adding vectors nor
    exceed d - dim W.
    """
    d = lat.dim
    for w in w_list:
        if w.dim >= d:
            raise InputContractError("w_list must contain proper subspaces")
    assignment = []
    for j, v in enumerate(vectors):
        avoid = []
        for w in w_list:
            max_size = d - w.dim - 1
            for size in range(0, max_size + 1):
                for subset in itertools.combinations(range(j), size):
                    direction = w.join([vadd(vectors[i], assignment[i]) for i in subset])
                    avoid.append(AffineSubspace(vneg(v), direction))
        assignment.append(avoid_subspaces(lat, avoid))

    for w in w_list:
        target_cap = d - w.dim
        for size in range(min(target_cap, len(vectors)) + 1):
            for subset in itertools.combinations(range(len(vectors)), size):
                got = vw_dimension(vectors, assignment, subset, w)
                if got != min(target_cap, size):
                    raise InternalError(
                        f"span dimension {got} != min({target_cap}, {size}) "
                        f"for subset {subset}")
    return tuple(assignment)


def brother_tiles(tile, aset):
    """Companion tiles F_1..F_{d-1} for a tile with a periodic co-tile.

    Postconditions, all re-verified: every F_j tiles with the same co-tile;
    (F_1,..,F_{d-1},F) is independent; (F_1,..,F_{d-2},F) has the
    span-uniqueness property.
    """
    d = tile.dim
    if d < 2:
        raise InputContractError("companion construction needs dimension at least 2")
    origin = (0,) * d
    if tile.points == {origin}:
        raise TrivialTileError("the tile {0} admits no companions")
    if not tile.is_normalized:
        raise NotATilingError("tile must contain the origin")
    if not verify.is_tiling(tile, aset):
        raise NotATilingError("the given set is not a co-tile of the tile")
    lat = stabilizer(aset)
    if not lat.is_full_rank:
        raise RankDeficientError("co-tile stabilizer must have full rank")

    star = tile.sorted_star
    k = len(star)
    vectors = [star[i % k] for i in range(k * (d - 1))]
    # one W per distinct span{p}; span{0} is the zero subspace, where avoiding
    # a shift is a point condition
    w_list = dict.fromkeys(RationalSubspace.from_vectors(d, [p]) for p in tile.sorted_points)
    assignment = forcing_assignment(vectors, lat, list(w_list))

    brothers = [translate_by_lattice(tile, dict(zip(star, assignment[k * j:k * j + k])), lat)
                for j in range(d - 1)]  # the origin is not shifted, so each keeps it

    for b in brothers:
        if not verify.is_tiling(b, aset):
            raise InternalError("companion fails to tile with the co-tile")
    if not is_independent_tuple(TileTuple.make(brothers + [tile])):
        raise InternalError("companion tuple is not independent")
    if not has_property_star(TileTuple.make(brothers[:d - 2] + [tile])):
        raise InternalError("companion tuple lacks span uniqueness")
    return TileTuple.make(brothers)


@dataclass(frozen=True)
class PeriodicityCertificate:
    """Witness that a tile admits a periodic tiling: a co-tile plus companions
    forming a span-unique tuple with it."""

    tile: Tile
    cotile: object  # PeriodicSet
    brothers: TileTuple          # all d-1 companions
    star_tuple: TileTuple        # (F_1..F_{d-2}, F), span-unique


def equiv_condition(tile, max_index):
    """Tiles-periodically certificate, or None when the bounded search is empty.

    Round-trips the periodic search and the companion construction in one
    call: a periodic co-tile found within max_index yields companions whose
    first d-2 members, together with the tile, carry the span-uniqueness
    property; conversely no certificate exists when the tile has no periodic
    co-tile at all.
    """
    found = _solve.search_periodic_cotile(TileTuple.make([tile]), max_index, mode="first")
    if not found:
        return None
    _, aset = found[0]
    brothers = brother_tiles(tile, aset)
    star_tuple = TileTuple.make(list(brothers)[:tile.dim - 2] + [tile])
    return PeriodicityCertificate(tile, aset, brothers, star_tuple)
