import random
import warnings
from fractions import Fraction

from hypothesis import given, settings

from tilekit.lattice import Lattice, PeriodicSet, enumerate_sublattices
from tilekit.tiles import PeriodicRationalFunction, Tile, TileTuple, indicator
from tilekit.verify import is_joint_cotile, is_level_tiling, is_tiling, mean
from conftest import (box_cotile, box_pair, convolution_cases, reference_convolution,
                      reference_report, six_block, six_block_fn, tiling_cases)


def test_box_pair_tilings():
    tiles = box_pair()
    aset = box_cotile()
    assert is_tiling(tiles[0], aset)
    assert is_tiling(tiles[1], aset)
    assert is_joint_cotile(tiles, aset)


def test_origin_tile_tiles_everything():
    aset = PeriodicSet.make(Lattice.identity(2), [(0, 0)])
    assert is_tiling(Tile.make(2, [(0, 0)]), aset)


def test_defect_report():
    rep = is_tiling(Tile.make(1, [(0,), (1,)]),
                    PeriodicSet.make(Lattice.diagonal([4]), [(0,), (1,)]))
    assert not rep
    assert ((1,), Fraction(2)) in rep.defects
    assert ((3,), Fraction(0)) in rep.defects


def test_joint_cotile_translate_and_short_circuit():
    tiles = box_pair()
    aset = box_cotile()
    assert is_joint_cotile(tiles, aset.translate((1, 0, 0)))
    bad = PeriodicSet.make(Lattice.diagonal([2, 2, 1]), [(0, 0, 0), (1, 0, 0)])
    rep = is_joint_cotile(tiles, bad)
    assert not rep and rep.failing_tile == 0


def test_joint_cotile_size_mismatch_warns():
    tiles = TileTuple.make([Tile.make(1, [(0,), (1,)]), Tile.make(1, [(0,)])])
    aset = PeriodicSet.make(Lattice.diagonal([2]), [(0,)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        is_joint_cotile(tiles, aset)
    assert any("unequal sizes" in str(w.message) for w in caught)


def test_level_tiling_examples():
    assert is_level_tiling(six_block(), six_block_fn(), 1)
    half = PeriodicRationalFunction.constant(Lattice.identity(1), Fraction(1, 2))
    assert is_level_tiling(Tile.make(1, [(0,), (1,)]), half, 1)
    strips = PeriodicRationalFunction.from_callable(
        Lattice.diagonal([9]), lambda r: 1 if r[0] in (0, 1, 2) else 0)
    assert is_level_tiling(Tile.make(1, [(0,), (3,), (6,)]), strips, 1)


def test_mean_examples():
    assert mean(indicator(box_cotile())) == Fraction(1, 4)
    assert mean(PeriodicRationalFunction.constant(Lattice.diagonal([5]), 7)) == 7
    assert mean(six_block_fn()) == Fraction(1, 6)


def test_tiling_implies_density_reciprocal():
    tiles = box_pair()
    aset = box_cotile()
    for tile in tiles:
        assert mean(indicator(aset)) == Fraction(1, tile.size)


def test_tiling_invariant_under_tile_translation():
    rng = random.Random(31)
    tiles = box_pair()
    aset = box_cotile()
    for _ in range(10):
        v = tuple(rng.randrange(-3, 4) for _ in range(3))
        shifted = Tile.make(3, [tuple(a + b for a, b in zip(p, v))
                                for p in tiles[0].points])
        assert is_tiling(shifted, aset)


def test_refinement_invariance():
    tiles = box_pair()
    aset = box_cotile()
    for sub in enumerate_sublattices(3, 8):
        if aset.lattice.contains_lattice(sub):
            finer = aset.refine(sub)
            assert is_joint_cotile(tiles, finer).ok
    bad = PeriodicSet.make(Lattice.diagonal([4]), [(0,), (1,)])
    finer_bad = bad.refine(Lattice.diagonal([8]))
    assert not is_tiling(Tile.make(1, [(0,), (1,)]), finer_bad)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(convolution_cases())
def test_level_tiling_matches_reference_loop(case):
    g, f, level = case
    rep = is_level_tiling(g, f, level)
    conv = reference_convolution(f.lattice, g.entries, f.values.__getitem__)
    assert (rep.ok, rep.defects) == reference_report(conv, level)
    assert all(type(v) is Fraction for _, v in rep.defects)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tiling_cases())
def test_is_tiling_matches_reference_loop(case):
    tile, aset = case
    rep = is_tiling(tile, aset)
    conv = reference_convolution(aset.lattice, [(p, 1) for p in tile.points],
                                 lambda r: int(r in aset.members))
    assert (rep.ok, rep.defects) == reference_report(conv, 1)
    assert all(type(v) is Fraction for _, v in rep.defects)
