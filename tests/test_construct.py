import itertools

import pytest

from tilekit.analysis import RationalSubspace, has_property_star, is_independent_tuple, vw_dimension
from tilekit.construct import (
    AffineSubspace,
    avoid_subspaces,
    brother_tiles,
    equiv_condition,
    forcing_assignment,
    translate_by_lattice,
)
from tilekit.errors import NotATilingError, OutOfLatticeError, TrivialTileError
from tilekit.lattice import Lattice, PeriodicSet, hnf
from tilekit.tiles import Tile, TileTuple
from tilekit import verify
from conftest import box_cotile, box_pair, seeded_independent_tuple


def test_translate_by_lattice():
    f = Tile.make(1, [(0,), (1,)])
    lat = Lattice.diagonal([2])
    aset = PeriodicSet.make(lat, [(0,)])
    assert translate_by_lattice(f, {}, lat) == f
    moved = translate_by_lattice(f, {(1,): (2,)}, lat)
    assert moved.points == frozenset({(0,), (3,)})
    assert verify.is_tiling(moved, aset).ok
    with pytest.raises(OutOfLatticeError):
        translate_by_lattice(f, {(1,): (1,)}, lat)


def test_translate_preserves_box_tiling():
    tiles = box_pair()
    aset = box_cotile()
    moved = translate_by_lattice(tiles[0], {(1, 0, 0): (2, 0, 0)}, aset.lattice)
    assert verify.is_tiling(moved, aset).ok


def test_avoid_subspaces_pinned_answers():
    z2 = Lattice.identity(2)
    assert avoid_subspaces(z2, []) == (0, 0)
    x_axis = AffineSubspace((0, 0), RationalSubspace.from_vectors(2, [(1, 0)]))
    assert avoid_subspaces(z2, [x_axis]) == (-1, -1)
    y_axis = AffineSubspace((0, 0), RationalSubspace.from_vectors(2, [(0, 1)]))
    assert avoid_subspaces(Lattice.diagonal([2, 2]), [x_axis, y_axis]) == (-2, -2)


def test_avoid_subspaces_never_returns_a_member():
    z2 = Lattice.identity(2)
    subs = [AffineSubspace((1, 1), RationalSubspace.from_vectors(2, [(1, 2)])),
            AffineSubspace((0, 0), RationalSubspace.from_vectors(2, [(1, 0)])),
            AffineSubspace((-3, 2), RationalSubspace.zero(2))]
    p = avoid_subspaces(z2, subs)
    assert not any(s.contains(p) for s in subs)


def test_forcing_assignment_base_and_empty():
    z2 = Lattice.identity(2)
    x_axis = RationalSubspace.from_vectors(2, [(1, 0)])
    assert forcing_assignment([], z2, [x_axis]) == ()
    g = forcing_assignment([(1, 0)], z2, [x_axis])
    assert vw_dimension([(1, 0)], g, (0,), x_axis) == 1


def test_forcing_assignment_postcondition_exhaustive():
    z2 = Lattice.identity(2)
    vectors = [(1, 0), (0, 1), (1, 1)]
    w_list = [RationalSubspace.from_vectors(2, [(1, 0)]), RationalSubspace.zero(2)]
    g = forcing_assignment(vectors, z2, w_list)
    import itertools
    for w in w_list:
        for size in range(len(vectors) + 1):
            for subset in itertools.combinations(range(len(vectors)), size):
                assert vw_dimension(vectors, g, subset, w) == min(2 - w.dim, size)


def test_brother_tiles_domino():
    f = Tile.make(2, [(0, 0), (1, 0)])
    aset = PeriodicSet.make(Lattice.diagonal([2, 1]), [(0, 0)])
    brothers = brother_tiles(f, aset)
    assert len(brothers) == 1
    # pinned by the enumeration order
    assert brothers[0].points == frozenset({(0, 0), (1, -1)})
    assert verify.is_tiling(brothers[0], aset).ok
    assert is_independent_tuple(TileTuple.make([brothers[0], f]))


def test_brother_tiles_box():
    f = box_pair()[0]
    aset = box_cotile()
    brothers = brother_tiles(f, aset)
    assert len(brothers) == 2
    full = TileTuple.make(list(brothers) + [f])
    assert verify.is_joint_cotile(full, aset).ok
    assert is_independent_tuple(full)
    assert has_property_star(TileTuple.make(list(brothers)[:1] + [f]))


def test_brother_tiles_cube_companions_pinned():
    # the 7 star vectors twice: the postcondition check over subsets up to
    # size d - dim W gives the companions of the check over all 2^14 subsets
    cube = Tile.make(3, list(itertools.product((0, 1), repeat=3)))
    aset = PeriodicSet.make(Lattice.diagonal([4, 2, 2]), [(0, 0, 0), (2, 0, 0)])
    brothers = brother_tiles(cube, aset)
    assert [sorted(b.points) for b in brothers] == [
        [(-2, -2, -1), (-2, -1, -2), (-2, 1, 1), (-1, -2, 1), (-1, 0, 2), (-1, 1, 0),
         (0, 0, 0), (3, 1, -1)],
        [(-4, 5, -3), (-3, -5, -6), (-3, 2, 5), (-2, 4, -3), (-1, -3, 5), (0, 0, 0),
         (0, 3, -2), (5, -2, 4)],
    ]


def test_brother_tiles_deterministic():
    f = box_pair()[0]
    aset = box_cotile()
    first = brother_tiles(f, aset)
    second = brother_tiles(f, aset)
    assert [t.points for t in first] == [t.points for t in second]


def test_brother_tiles_contract_errors():
    aset = PeriodicSet.make(Lattice.diagonal([2, 1]), [(0, 0)])
    with pytest.raises(TrivialTileError):
        brother_tiles(Tile.make(2, [(0, 0)]), aset)
    with pytest.raises(NotATilingError):
        brother_tiles(Tile.make(2, [(0, 0), (2, 0)]), aset)
    with pytest.raises(ValueError):
        brother_tiles(Tile.make(1, [(0,), (1,)]),
                      PeriodicSet.make(Lattice.diagonal([2]), [(0,)]))


def test_brother_tiles_seeded_pairs():
    cases = [
        (Lattice.diagonal([2, 1]), 101),
        (Lattice.diagonal([2, 2]), 102),
        (hnf(2, [(2, 0), (1, 2)]), 103),
        (Lattice.diagonal([2, 2, 1]), 104),
        (Lattice.diagonal([2, 1, 1]), 105),
    ]
    for lat, seed in cases:
        tiles, aset = seeded_independent_tuple(lat, 1, seed)
        f = tiles[0]
        brothers = brother_tiles(f, aset)
        full = TileTuple.make(list(brothers) + [f])
        assert verify.is_joint_cotile(full, aset).ok
        assert is_independent_tuple(full)
        assert has_property_star(TileTuple.make(list(brothers)[:lat.dim - 2] + [f]))


def test_equiv_condition_round_trip():
    f = Tile.make(2, [(0, 0), (1, 0)])
    cert = equiv_condition(f, 4)
    assert cert is not None
    assert verify.is_tiling(cert.tile, cert.cotile).ok
    assert has_property_star(cert.star_tuple)
    assert is_independent_tuple(TileTuple.make(list(cert.brothers) + [f]))


def test_equiv_condition_no_certificate():
    # |F| = 2 cannot divide index 1, so the bounded search is empty
    assert equiv_condition(Tile.make(2, [(0, 0), (1, 0)]), 1) is None
