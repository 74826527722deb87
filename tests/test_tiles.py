import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from tilekit.lattice import Lattice
from tilekit.tiles import (
    PeriodicRationalFunction,
    Tile,
    TileTuple,
    WeightedTile,
    convolve,
    difference_set,
    dilate,
    indicator,
    normalize,
)
from conftest import (box_cotile, box_pair, convolution_cases, function_pairs,
                      reference_convolution, reference_values, six_block, six_block_fn)


def test_normalize():
    tile, shift = normalize(Tile.make(1, [(3,), (4,), (6,), (7,), (9,), (10,)]))
    assert tile.points == frozenset({(0,), (1,), (3,), (4,), (6,), (7,)})
    assert shift == (3,)
    tile, shift = normalize(Tile.make(1, [(0,), (1,)]))
    assert shift == (0,)
    tile, shift = normalize(Tile.make(2, [(1, 1)]))
    assert tile.points == frozenset({(0, 0)}) and shift == (1, 1)


def test_dilate():
    f = six_block()
    assert dilate(f, 1) == f
    assert dilate(Tile.make(1, [(0,), (1,)]), 3).points == frozenset({(0,), (3,)})
    assert dilate(f, 7).points == frozenset({(0,), (7,), (21,), (28,), (42,), (49,)})
    assert dilate(f, 5).size == f.size
    with pytest.raises(ValueError):
        dilate(f, 0)


def test_difference_set():
    assert difference_set(Tile.make(1, [(0,)])).points == {(0,)}
    assert difference_set(Tile.make(1, [(0,), (1,)])).points == {(-1,), (0,), (1,)}
    assert difference_set(Tile.make(1, [(0,), (3,), (6,)])).points == \
        {(-6,), (-3,), (0,), (3,), (6,)}


def test_tile_tuple_invariants():
    with pytest.raises(ValueError):
        TileTuple.make([])
    with pytest.raises(ValueError):
        TileTuple.make([Tile.make(1, [(1,)])])  # no origin
    with pytest.raises(ValueError):
        TileTuple.make([Tile.make(1, [(0,)]), Tile.make(2, [(0, 0)])])


def test_convolve_delta_is_identity():
    aset = box_cotile()
    f = indicator(aset)
    assert convolve(WeightedTile.delta(3), f) == f


def test_convolve_box_pair_is_one():
    tiles = box_pair()
    f = indicator(box_cotile())
    for tile in tiles:
        assert convolve(tile, f).is_constant(1)


def test_convolve_six_block_level_one():
    assert convolve(six_block(), six_block_fn()).is_constant(1)


def test_convolve_constant_gives_size():
    tile = box_pair()[0]
    ones = PeriodicRationalFunction.constant(Lattice.identity(3), 1)
    assert convolve(tile, ones).is_constant(tile.size)


def test_convolve_translation_equivariance():
    rng = random.Random(21)
    lat = Lattice.diagonal([3, 2])
    f = PeriodicRationalFunction.from_callable(
        lat, lambda r: Fraction(rng.randrange(-2, 3), rng.choice([1, 2])))
    g = WeightedTile.make(2, {(0, 0): 1, (1, 0): -2, (0, 1): 3})
    for v in [(1, 0), (0, 1), (2, 1), (-1, 3)]:
        assert convolve(g, f.shift(v)) == convolve(g, f).shift(v)


def test_convolve_bilinear():
    lat = Lattice.diagonal([4])
    f = PeriodicRationalFunction.from_callable(lat, lambda r: r[0])
    g = PeriodicRationalFunction.from_callable(lat, lambda r: (-1) ** r[0])
    w = WeightedTile.make(1, {(0,): 2, (1,): -1})
    assert convolve(w, f + g) == convolve(w, f) + convolve(w, g)


def test_function_equality_across_lattices():
    coarse = PeriodicRationalFunction.from_callable(
        Lattice.diagonal([2]), lambda r: r[0])
    fine = PeriodicRationalFunction.from_callable(
        Lattice.diagonal([6]), lambda r: r[0] % 2)
    assert coarse == fine
    assert coarse != fine + 1


def test_function_stabilizer():
    lat = Lattice.diagonal([6])
    f = PeriodicRationalFunction.from_callable(lat, lambda r: r[0] % 2)
    assert f.stabilizer() == Lattice.diagonal([2])
    assert PeriodicRationalFunction.constant(lat, 5).stabilizer() == Lattice.identity(1)


def test_weighted_tile_signed_combination():
    # difference of two one-dimensional indicators through the same code path
    lat = Lattice.diagonal([18])
    f = six_block_fn()
    g = WeightedTile.make(1, {(0,): 1, (1,): 1})
    h = convolve(g, f)
    assert h.lattice == lat
    assert sum(h.values.values()) == 2 * sum(f.values.values())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(convolution_cases())
def test_convolve_matches_reference_loop(case):
    g, f, _ = case
    out = convolve(g, f)
    assert out.lattice == f.lattice
    assert out.values == reference_convolution(f.lattice, g.entries, f.values.__getitem__)
    assert all(type(v) is Fraction for v in out.values.values())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(function_pairs())
def test_sum_difference_and_equality_match_reference(pair):
    f, g = pair
    for sign, got in ((1, f + g), (-1, f - g)):
        a, b = reference_values(f, got.lattice), reference_values(g, got.lattice)
        assert got.values == {x: a[x] + sign * b[x] for x in a}
    assert (f == g) == (a == b)
    assert (g == f) == (a == b)
