import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from tilekit import verify
from tilekit.errors import InputContractError
from tilekit.lattice import Lattice, hnf, vadd, vscale
from tilekit.solve import search_periodic_cotile
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
from conftest import (DENOMINATORS, box_cotile, box_pair, canonical_residues,
                      convolution_cases, function_pairs, hnf_lattices, reference_convolution,
                      reference_values, six_block, six_block_fn)


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


def test_weighted_tile_weights_follow_the_document_integer_rule():
    # each weight is checked before zero weights are dropped: 1.0 reads as 1,
    # while 1.5, 0.5, a bool or a string is an input error, not a truncation
    g = WeightedTile.make(1, {(0,): 1.0, (1,): 0.0, (2,): -2})
    assert g.entries == (((0,), 1), ((2,), -2))
    assert type(g.entries[0][1]) is int
    for bad in (1.5, 0.5, True, "1"):
        with pytest.raises(InputContractError, match="is not an integer"):
            WeightedTile.make(1, {(0,): bad, (1,): 1})
    with pytest.raises(InputContractError):
        WeightedTile.make(1, {(0,): 1.5, (1,): 0.5})


def test_tile_coordinates_follow_the_document_integer_rule():
    # 1.0 reads as 1, so the sweep and the 1-d decider see only ints
    tile = Tile.make(1, [(0,), (1.0,)])
    assert tile == Tile.make(1, [(0,), (1,)])
    assert all(type(x) is int for p in tile.points for x in p)
    assert search_periodic_cotile(TileTuple.make([tile]), 4) == \
        search_periodic_cotile(TileTuple.make([Tile.make(1, [(0,), (1,)])]), 4)
    for bad in (0.5, True, "1"):
        with pytest.raises(InputContractError, match="is not an integer"):
            Tile.make(1, [(0,), (bad,)])


def test_function_residues_follow_the_document_integer_rule():
    # a bool is not read as the residue it equals, and a string is an input
    # error, not a TypeError; (0.0,) reads as (0,)
    lat = Lattice.diagonal([2])
    for bad in ((True,), ("1",), (0.5,)):
        with pytest.raises(InputContractError, match="is not an integer"):
            PeriodicRationalFunction.make(lat, {bad: 1})
    fn = PeriodicRationalFunction.make(lat, {(0.0,): 1})
    assert fn.nums == (1, 0) and fn == PeriodicRationalFunction.make(lat, {(0,): 1})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(hnf_lattices(12), st.data())
def test_function_residues_fuzz_the_document_integer_rule(lat, data):
    residues = canonical_residues(lat)
    chosen = data.draw(st.lists(st.sampled_from(residues), min_size=1, max_size=4, unique=True))
    bad = st.sampled_from([True, False, 0.5, float("nan"), "0", "1"])
    mapping = {}
    for r in chosen:
        key = tuple(data.draw(st.one_of(st.just(x), st.just(float(x)), bad)) for x in r)
        mapping[key] = data.draw(st.integers(-3, 3))
    # keys equal as tuples share one entry (True == 1), so the dict decides
    if not all(type(x) is int or type(x) is float and x.is_integer() for k in mapping for x in k):
        with pytest.raises(InputContractError, match="is not an integer"):
            PeriodicRationalFunction.make(lat, mapping)
        return
    fn = PeriodicRationalFunction.make(lat, mapping)
    ints = PeriodicRationalFunction.make(lat, {tuple(map(int, k)): v for k, v in mapping.items()})
    assert (fn.den, fn.nums) == (ints.den, ints.nums)
    assert all(type(a) is int for a in fn.nums)


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


def test_make_rejects_a_key_that_is_not_a_canonical_residue():
    lat = Lattice.diagonal([2])
    with pytest.raises(InputContractError, match="not a canonical residue"):
        PeriodicRationalFunction.make(lat, {(0,): 1, (2,): 0})
    for key in [(0, 0), (0.5,)]:
        with pytest.raises(InputContractError, match="not a canonical residue"):
            PeriodicRationalFunction.make(lat, {key: 1})
    assert PeriodicRationalFunction.make(lat, {(1,): 3}).values == {(0,): 0, (1,): 3}


@st.composite
def _functions(draw):
    """(vals, f): Fractions on the canonical residues of a drawn lattice, and
    f made from them.  The values are drawn values, one constant or zero."""
    lat = draw(hnf_lattices(24))
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(("drawn", "drawn", "constant", "zero")))
    c = Fraction(rng.randint(-4, 4), rng.choice(DENOMINATORS)) if kind == "constant" else 0
    vals = {r: Fraction(rng.randint(-4, 4), rng.choice(DENOMINATORS)) if kind == "drawn"
            else Fraction(c) for r in canonical_residues(lat)}
    return vals, PeriodicRationalFunction.make(lat, vals)


_scalars = st.builds(Fraction, st.integers(-4, 4), st.sampled_from(DENOMINATORS))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_functions(), st.tuples(*[st.integers(-7, 7)] * 3), _scalars, st.data())
def test_integer_form_matches_fraction_oracle(case, point, c, data):
    """Every operation on (den, nums) against the same operation on the
    Fraction values, with each shift and refinement taken through reduce."""
    vals, f = case
    lat = f.lattice
    v = point[:lat.dim]
    assert f.den > 0 and gcd(f.den, *f.nums) == 1
    assert f.values == vals and PeriodicRationalFunction.make(lat, f.values) == f
    assert pickle.loads(pickle.dumps(f)) == f
    assert f.shift(v).values == {x: vals[lat.reduce(vadd(x, v))] for x in vals}
    assert f.scale(c).values == {x: c * y for x, y in vals.items()}
    assert (-f).values == {x: -y for x, y in vals.items()}
    assert (f - c).values == {x: y - c for x, y in vals.items()}
    assert (c - f).values == {x: c - y for x, y in vals.items()}
    sub = hnf(lat.dim, [vscale(data.draw(st.integers(1, 3)), col) for col in lat.basis])
    assert f.refine(sub).values == {x: vals[lat.reduce(x)] for x in canonical_residues(sub)}
    some = data.draw(st.sampled_from(sorted(vals.values())))
    for t in (c, some):
        assert f.is_constant(t) == all(y == t for y in vals.values())
        assert (f == t) == f.is_constant(t)
    assert f.min_value() == min(vals.values()) and f.max_value() == max(vals.values())
    assert f.is_integer_valued() == all(y.denominator == 1 for y in vals.values())
    assert f.support_set().members == {x for x, y in vals.items() if y}
    assert verify.mean(f) == sum(vals.values()) / len(vals)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(function_pairs())
def test_one_function_has_one_integer_form(pair):
    """Presentations of one function, refined to one lattice, have equal
    (den, nums), and so do results of arithmetic that give the function back."""
    f, g = pair
    common = f.lattice.intersect(g.lattice)
    a, b = f.refine(common), g.refine(common)
    same = reference_values(f, common) == reference_values(g, common)
    assert ((a.den, a.nums) == (b.den, b.nums)) == same
    for h in ((f + f).scale(Fraction(1, 2)), f.scale(3).scale(Fraction(1, 3)),
              f + g - g, -(-f)):
        h = h.refine(common)
        assert (h.den, h.nums) == (a.den, a.nums)
