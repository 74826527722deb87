import gc
import itertools
import math
import operator
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tilekit.errors import InputContractError, RankDeficientError
from tilekit.lattice import (
    INFINITE,
    Lattice,
    PeriodicSet,
    QuotientGroup,
    _Cache,
    _Characters,
    _bits,
    _quotients,
    _sublattices,
    enumerate_points,
    enumerate_sublattices,
    hnf,
    stabilizer,
    vadd,
    vneg,
    vscale,
)
from tilekit import lattice as lattice_module
from tilekit.solve import search_periodic_cotile
from tilekit.tiles import (PeriodicRationalFunction, Tile, TileTuple, WeightedTile, convolve,
                           dilate, indicator)
from tilekit.verify import is_tiling
from conftest import (
    box_pair,
    canonical_residues,
    hnf_lattices,
    placement_lattices,
    reference_convolution,
    residue_order,
)


def test_hnf_identity_is_canonical():
    lat = hnf(2, [(1, 0), (0, 1)])
    assert lat == Lattice.identity(2)
    assert lat.index() == 1


def test_hnf_diag_221_fixed_point():
    d = Lattice.diagonal([2, 2, 1])
    assert hnf(3, d.basis) == d
    assert d.index() == 4


def test_hnf_two_column_reduction():
    lat = hnf(2, [(2, 0), (1, 3)])
    assert lat.pivots == (2, 3)
    assert lat.index() == 6
    # oracle: same residues in each coordinate direction mod 6
    other = hnf(2, [(1, 3), (2, 0)])
    assert lat == other
    for x in range(-6, 7):
        for y in range(-6, 7):
            v = (x, y)
            in_orig = any(v == (2 * a + b, 3 * b)
                          for a in range(-9, 10) for b in range(-9, 10))
            assert lat.contains(v) == in_orig


def test_hnf_idempotent_and_permutation_invariant():
    rng = random.Random(7)
    for _ in range(40):
        d = rng.choice([1, 2, 3])
        cols = [tuple(rng.randrange(-4, 5) for _ in range(d))
                for _ in range(rng.randrange(1, d + 2))]
        lat = hnf(d, cols)
        assert hnf(d, lat.basis) == lat
        shuffled = cols[:]
        rng.shuffle(shuffled)
        assert hnf(d, shuffled) == lat
        # row operations on the generators keep the subgroup
        if len(cols) >= 2:
            mixed = [vadd(cols[0], cols[1])] + cols[1:]
            assert hnf(d, mixed) == lat


def test_hnf_agrees_with_sympy_on_full_rank():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    rng = random.Random(11)
    for _ in range(25):
        d = rng.choice([2, 3])
        cols = [tuple(rng.randrange(-5, 6) for _ in range(d)) for _ in range(d)]
        lat = hnf(d, cols)
        if not lat.is_full_rank:
            continue
        m = sympy.Matrix([[c[i] for c in cols] for i in range(d)])
        ours = sympy.Matrix([[c[i] for c in lat.basis] for i in range(d)])
        assert hermite_normal_form(m) == hermite_normal_form(ours)
        assert abs(m.det()) == lat.index()


def test_index_values():
    assert Lattice.identity(2).index() == 1
    assert Lattice.diagonal([2, 2, 1]).index() == 4
    assert hnf(2, [(1, 1)]).index() is INFINITE
    assert Lattice.zero(3).index() is INFINITE


def test_reduce_examples():
    d = Lattice.diagonal([2, 2, 1])
    assert d.reduce((0, 0, 0)) == (0, 0, 0)
    assert d.reduce((3, 2, 5)) == (1, 0, 0)
    assert Lattice.diagonal([2, 2]).reduce((-1, -1)) == (1, 1)


def test_reduce_is_constant_on_cosets_and_respects_addition():
    rng = random.Random(3)
    lat = hnf(2, [(2, 0), (1, 3)])
    for _ in range(100):
        u = tuple(rng.randrange(-20, 21) for _ in range(2))
        v = tuple(rng.randrange(-20, 21) for _ in range(2))
        ru, rv = lat.reduce(u), lat.reduce(v)
        assert lat.reduce(ru) == ru
        for col in lat.basis:
            assert lat.reduce(vadd(u, col)) == ru
        assert lat.reduce(vadd(u, v)) == lat.reduce(vadd(ru, rv))


def test_reduce_rank_deficient_raises():
    with pytest.raises(RankDeficientError):
        hnf(2, [(1, 1)]).reduce((0, 0))


def test_periodic_constructors_refuse_a_rank_deficient_lattice():
    # the one rank check is Lattice.quotient()'s
    line = hnf(2, [(2, 0)])
    fn = PeriodicRationalFunction.constant(Lattice.diagonal([2, 2]), 1)
    aset = PeriodicSet.make(Lattice.diagonal([2, 2]), [(0, 0)])
    for build in (lambda: PeriodicRationalFunction.make(line, {}),
                  lambda: PeriodicRationalFunction.constant(line, 1),
                  lambda: PeriodicRationalFunction.from_callable(line, lambda r: 0),
                  lambda: PeriodicSet.make(line, [(0, 0)]),
                  lambda: fn.refine(line),
                  lambda: aset.refine(line)):
        with pytest.raises(RankDeficientError):
            build()


def test_sum_intersect_examples():
    a = Lattice.diagonal([2, 1])
    b = Lattice.diagonal([1, 2])
    assert a.sum(b) == Lattice.identity(2)
    assert a.intersect(b) == Lattice.diagonal([2, 2])
    assert a.sum(Lattice.zero(2)) == a
    assert a.intersect(Lattice.zero(2)) == Lattice.zero(2)


def test_intersect_membership_oracle():
    rng = random.Random(5)
    cands = [lat for n in range(1, 9) for lat in enumerate_sublattices(2, n)]
    for _ in range(30):
        l1, l2 = rng.choice(cands), rng.choice(cands)
        meet = l1.intersect(l2)
        join = l1.sum(l2)
        for x in range(-6, 7):
            for y in range(-6, 7):
                v = (x, y)
                both = l1.contains(v) and l2.contains(v)
                assert meet.contains(v) == both
                if l1.contains(v) or l2.contains(v):
                    assert join.contains(v)


def test_index_product_identity():
    rng = random.Random(9)
    cands2 = [lat for n in range(1, 13) for lat in enumerate_sublattices(2, n)]
    for _ in range(60):
        l1, l2 = rng.choice(cands2), rng.choice(cands2)
        assert (l1.intersect(l2).index() * l1.sum(l2).index()
                == l1.index() * l2.index())


def test_enumerate_sublattices_counts():
    assert [lat.basis for lat in enumerate_sublattices(1, 3)] == [((3,),)]
    assert len(enumerate_sublattices(2, 2)) == 3
    assert enumerate_sublattices(2, 1) == [Lattice.identity(2)]

    def sigma(n):
        return sum(d for d in range(1, n + 1) if n % d == 0)

    for n in range(1, 13):
        lats = enumerate_sublattices(2, n)
        assert len(lats) == sigma(n)
        assert len(set(lats)) == len(lats)
        assert all(lat.index() == n for lat in lats)
        assert all(hnf(2, lat.basis) == lat for lat in lats)


def test_enumerate_sublattices_refuses_a_dimension_below_one():
    for dim, n in ((0, 3), (-1, 2), (0, 1)):
        with pytest.raises(InputContractError):
            enumerate_sublattices(dim, n)
    with pytest.raises(InputContractError):
        search_periodic_cotile(TileTuple.make([Tile.make(0, [()])]), 3)


def test_hnf_and_periodic_set_coordinates_follow_the_document_integer_rule():
    # 1.0 reads as 1, so bases and masks hold only ints; a fraction, a bool
    # or a string is an input error, never a TypeError or a float basis
    lat = Lattice.diagonal([2, 2])
    assert PeriodicSet.make(lat, [(0.0, 1.0)]) == PeriodicSet.make(lat, [(0, 1)])
    basis = hnf(2, [(2.0, 0), (0, 2)])
    assert basis == lat and all(type(x) is int for col in basis.basis for x in col)
    for bad in (0.5, True, "1"):
        with pytest.raises(InputContractError, match="is not an integer"):
            PeriodicSet.make(lat, [(0, bad)])
        with pytest.raises(InputContractError, match="is not an integer"):
            hnf(2, [(2, 0), (bad, 2)])


def test_enumerate_sublattices_match_closed_form_counts():
    # The closed forms for the number of sublattices of index n: 1 in Z,
    # sigma(n) in Z^2, and the sum over m | n of m * sigma(m) in Z^3 (m the
    # index of the first two coordinates' lattice; the last column's two
    # upper entries then take m values).  Every call returns a new list.
    def divisors(n):
        return [d for d in range(1, n + 1) if n % d == 0]

    def sigma(n):
        return sum(divisors(n))

    for n in range(1, 37):
        expected = {1: 1, 2: sigma(n), 3: sum(m * sigma(m) for m in divisors(n))}
        for dim, count in expected.items():
            first = enumerate_sublattices(dim, n)
            assert len(first) == count, (dim, n)
            again = enumerate_sublattices(dim, n)
            assert type(again) is list and again == first and again is not first
            first.reverse()
            first.append(Lattice.identity(dim))
            assert enumerate_sublattices(dim, n) == again


def test_quotient_residues():
    d = Lattice.diagonal([2, 2, 1])
    q = d.quotient()
    assert q.residues == ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0))
    assert Lattice.identity(3).quotient().residues == ((0, 0, 0),)
    assert Lattice.diagonal([6]).quotient().residues == tuple((i,) for i in range(6))


def test_stabilizer_examples():
    d = Lattice.diagonal([2, 2, 1])
    aset = PeriodicSet.make(d, [(0, 0, 0)])
    assert stabilizer(aset) == d
    everything = PeriodicSet.make(d, list(d.quotient()))
    assert stabilizer(everything) == Lattice.identity(3)
    half = PeriodicSet.make(Lattice.diagonal([4]), [(0,), (2,)])
    assert stabilizer(half) == Lattice.diagonal([2])


def test_stabilizer_contains_lattice_and_fixes_set():
    rng = random.Random(13)
    for _ in range(20):
        lat = rng.choice(enumerate_sublattices(2, rng.choice([2, 3, 4, 6])))
        members = [r for r in lat.quotient() if rng.random() < 0.5]
        aset = PeriodicSet.make(lat, members)
        stab = stabilizer(aset)
        assert stab.contains_lattice(lat)
        for col in stab.basis:
            assert aset.translate(col).members == aset.members


def test_stabilizer_of_domino_cotile_on_40_torus():
    # the horizontal domino co-tile 2Z x Z, presented on 40Z x 40Z
    aset = PeriodicSet.make(Lattice.diagonal([40, 40]),
                            [(x, y) for x in range(0, 40, 2) for y in range(40)])
    expected = hnf(2, [(2, 0), (0, 1)])
    assert stabilizer(aset) == expected
    assert indicator(aset).stabilizer() == expected


def test_sweep_and_torus_stabilizer_build_no_residue_tuple(monkeypatch):
    # Reading k members decodes k residue numbers, so neither a sweep nor the
    # stabilizer and members of the domino co-tile on 40Z x 40Z build any
    # quotient's tuple of all residues.
    builds = []
    residues = QuotientGroup.residues

    def counted(quotient):
        builds.append(quotient.lattice)
        return residues.func(quotient)

    monkeypatch.setattr(QuotientGroup, "residues", property(counted))
    assert len(search_periodic_cotile(box_pair(), 12)) == 76
    aset = PeriodicSet.make(Lattice.diagonal([40, 40]),
                            [(x, y) for x in range(0, 40, 2) for y in range(40)])
    assert stabilizer(aset) == hnf(2, [(2, 0), (0, 1)])
    assert len(aset.members) == 800 and aset.sorted_members[:2] == ((0, 0), (0, 1))
    assert builds == []
    assert len(Lattice.diagonal([40, 40]).quotient().residues) == 1600
    assert len(builds) == 1


def _reference_stabilizer(lat, label):
    """Every residue shift that keeps the label of every residue, by brute force."""
    residues = list(itertools.product(*[range(p) for p in lat.pivots]))
    gens = list(lat.basis)
    for r in residues:
        if all(label(lat.reduce(vadd(x, r))) == label(x) for x in residues):
            gens.append(r)
    return hnf(lat.dim, gens)


@st.composite
def _labellings(draw):
    """A lattice, and labels 0..2 on its residues; when a drawn shift w is
    imposed, every orbit of translation by w gets one label."""
    lat = draw(hnf_lattices(24))
    residues = list(itertools.product(*[range(p) for p in lat.pivots]))
    labels = {r: draw(st.integers(0, 2)) for r in residues}
    if draw(st.booleans()):
        w = draw(st.tuples(*[st.integers(-5, 5)] * lat.dim))
        for r in residues:
            orbit = [r]
            while lat.reduce(vadd(orbit[-1], w)) != r:
                orbit.append(lat.reduce(vadd(orbit[-1], w)))
            labels[r] = labels[min(orbit)]
    return lat, labels


@settings(max_examples=200, deadline=None, derandomize=True)
@given(hnf_lattices(24), st.tuples(*[st.integers(-30, 30)] * 3))
def test_translation_table_matches_reduce(lat, v):
    v = v[:lat.dim]
    q = lat.quotient()
    table = q.translation(v)
    assert sorted(table) == list(range(len(q)))
    order = residue_order(lat)
    index = {r: a for a, r in enumerate(order)}
    for a, r in enumerate(order):
        assert table[a] == index[lat.reduce(vadd(r, v))]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(hnf_lattices(60), st.lists(st.tuples(*[st.integers(-200, 200)] * 3), max_size=6))
def test_residue_number_matches_residue_order(lat, vectors):
    q = lat.quotient()
    order = residue_order(lat)
    assert q.numbers(order) == tuple(range(len(q)))
    index = {r: a for a, r in enumerate(order)}
    vectors = [v[:lat.dim] for v in vectors]
    assert q.numbers(vectors) == tuple(index[lat.reduce(v)] for v in vectors)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(placement_lattices(), st.lists(st.tuples(*[st.integers(-300, 300)] * 3), min_size=1, max_size=6))
def test_numbers_and_heads_match_reduce(lat, vectors):
    # The reference reduces every sum with Lattice.reduce and numbers it by
    # its place in residue_order; it shares no code with the projection, the
    # walk or the decoder.
    q = lat.quotient()
    residues = residue_order(lat)
    index_of = {r: a for a, r in enumerate(residues)}
    assert list(q.residues) == residues
    vectors = [v[:lat.dim] for v in vectors]
    numbers = q.numbers(vectors)
    assert numbers == tuple(index_of[lat.reduce(v)] for v in vectors)
    assert q.decode(numbers) == [lat.reduce(v) for v in vectors]
    n, p0 = len(q), lat.pivots[0]
    kept = q.heads(numbers, numbers[:1])
    rows = kept.rows
    assert type(rows) is list and len(rows) == n
    assert all(rows[y] is not None for y in numbers)
    # every held row, inverted ones included, lists the sums with the heads
    for y, row in enumerate(rows):
        if row is not None:
            assert row == tuple(index_of[lat.reduce(vadd(residues[h], residues[y]))]
                                for h in range(0, n, p0))
    # rotating each head entry by t inside its block of p_0 numbers gives the
    # whole translation row, and the row of -y inverts it
    for y in numbers:
        whole = [h - h % p0 + (h + t) % p0 for h in rows[y] for t in range(p0)]
        assert whole == [index_of[lat.reduce(vadd(residues[a], residues[y]))] for a in range(n)]
        back = q.heads([y], [y]).back[y]
        assert back is rows[index_of[lat.reduce(vneg(residues[y]))]] is rows[whole.index(0)]
        back = [h - h % p0 + (h + t) % p0 for h in back for t in range(p0)]
        assert [back[c] for c in whole] == list(range(n))
    # heads reads rows in place: asking again returns the same lists
    assert q.heads(numbers) is kept and all(kept.rows[y] is rows[y] for y in numbers)


def _unit_class(c, p, q):
    """c scaled so that its first entry prime to p is 1."""
    u = pow(next(x for x in c if x % p), -1, q)
    return tuple(x * u % q for x in c)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(hnf_lattices(24), st.sampled_from((2, 3, 5)))
def test_characters_are_the_onto_homs_that_lift_no_further(lat, p):
    # Every row c in (Z/p^k)^d, by itertools.product, that vanishes on the
    # basis columns and has an entry prime to p, taken up to units; a class
    # is kept when it is not the reduction of an onto class one level up.
    quotient, d = lat.quotient(), lat.dim
    onto, k = [], 1
    while lat.index() % p ** k == 0:
        q = p ** k
        onto.append({_unit_class(c, p, q) for c in itertools.product(range(q), repeat=d)
                     if any(x % p for x in c)
                     and not any(sum(map(operator.mul, c, col)) % q for col in lat.basis)})
        k += 1
    expected = {(k, c) for k in range(len(onto), 0, -1) for c in onto[k - 1]
                if k == len(onto) or c not in {tuple(x % p ** k for x in up) for up in onto[k]}}
    kept = quotient.characters(p)
    assert [k for k, _ in kept.homs] == sorted((k for k, _ in expected), reverse=True)
    assert set(kept.homs) == expected and len(kept.homs) == len(expected)
    assert quotient.characters(p) is kept


def test_characters_of_z4_x_z2():
    # Onto Z/4: x_0 + 2 x_1 and x_0 (x_1 has order 2); onto Z/2: x_1 and
    # x_0 + x_1, while x_0 mod 2 is x_0 mod 4 reduced and is not kept.
    lat = Lattice.diagonal([4, 2])
    kept = _Characters(lat.pivots, lat.basis, 2)
    assert kept.homs == ((2, (1, 0)), (2, (1, 2)), (1, (0, 1)), (1, (1, 1)))
    assert lat.quotient().characters(2).homs == kept.homs


def test_characters_are_charged_one_entry_a_hom(monkeypatch):
    # The record holds its homs and nothing else, and the quotient cache
    # counts it at one entry a hom, plus one for the record.
    cache = _Cache(10 ** 9)
    monkeypatch.setattr(lattice_module, "_quotients", cache)
    assert _Characters.__slots__ == ("homs",)
    charged = 0
    for n in (8, 12, 16):
        for lat in enumerate_sublattices(2, n):
            quotient = lat.quotient()
            for p in (2, 3):
                held = cache.held
                kept = quotient.characters(p)
                assert len(kept) == len(kept.homs) + 1
                assert cache.held - held == len(kept)
                assert cache.values[lat.basis, p] is kept
                assert quotient.characters(p) is kept and cache.held - held == len(kept)
                charged += len(kept.homs)
    assert charged


@settings(max_examples=200, deadline=None, derandomize=True)
@given(hnf_lattices(24), st.data())
def test_rank_sort_orders_sets_as_sorted_members(lat, data):
    # The kept rank against itertools.product's lexicographic order and the
    # sort solve_quotient makes with it against the decode-based
    # sorted_members, on sets of any sizes drawn as random masks.
    n = lat.index()
    rank = lat.quotient().heads(()).rank
    assert rank == [canonical_residues(lat).index(r) for r in residue_order(lat)]
    masks = data.draw(st.lists(st.integers(1, (1 << n) - 1), min_size=2, max_size=8))
    sets = [PeriodicSet(lat, mask) for mask in masks]
    by_rank = sorted(sets, key=lambda a: sorted(map(rank.__getitem__, _bits(a.mask))))
    assert by_rank == sorted(sets, key=lambda a: a.sorted_members)


_ENTRIES = st.one_of(st.integers(-2, 6), st.integers(-2, 6).map(float), st.booleans(),
                     st.sampled_from([0.5, -1.5, float("nan"), float("inf"), "1", "2"]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_ENTRIES, min_size=1, max_size=3))
def test_diagonal_entries_follow_the_document_integer_rule(entries):
    # an integer-valued float reads as the int; a fraction, a bool or a
    # string is an input error, never a float pivot or a later TypeError
    ints = [int(e) if type(e) is float and e.is_integer() else e for e in entries]
    if not all(type(e) is int and e > 0 for e in ints):
        with pytest.raises(InputContractError):
            Lattice.diagonal(entries)
        return
    lat = Lattice.diagonal(entries)
    d = len(ints)
    assert lat == hnf(d, [[p if i == j else 0 for i in range(d)] for j, p in enumerate(ints)])
    assert all(type(x) is int for col in lat.basis for x in col)
    assert PeriodicSet.make(lat, [(1,) * d]).sorted_members == (tuple(1 % p for p in ints),)


_DOMINO = Tile.make(2, [(0, 0), (1, 0)])
_ARGUMENTS = {
    "max_index": lambda v: search_periodic_cotile(TileTuple.make([_DOMINO]), v),
    "dim": lambda v: enumerate_sublattices(v, 2),
    "n": lambda v: enumerate_sublattices(2, v),
    "r": lambda v: dilate(_DOMINO, v).sorted_points,
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_ARGUMENTS)), _ENTRIES)
def test_integer_arguments_follow_the_document_integer_rule(name, x):
    # max_index, dim, n and r are read as the entries of a diagonal are: an
    # integer-valued float gives the int's answer, with int coordinates, and
    # anything else that is not a positive int is an input error
    call = _ARGUMENTS[name]
    v = int(x) if type(x) is float and x.is_integer() else x
    if type(v) is not int or v < 1:
        with pytest.raises(InputContractError):
            call(x)
        return
    assert repr(call(x)) == repr(call(v))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_labellings())
def test_set_stabilizer_matches_reference_loop(instance):
    lat, labels = instance
    members = [r for r, label in labels.items() if label == 0]
    aset = PeriodicSet.make(lat, members)
    assert stabilizer(aset) == _reference_stabilizer(lat, lambda r: r in aset.members)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_labellings())
def test_function_stabilizer_matches_reference_loop(instance):
    lat, labels = instance
    fn = PeriodicRationalFunction.make(lat, {r: label - 1 for r, label in labels.items()})
    assert fn.stabilizer() == _reference_stabilizer(lat, lambda r: labels[r])


@st.composite
def _rank_deficient_combinations(draw):
    """A lattice of rank below its dimension, integer coefficients for its
    canonical basis, and integer vectors: drawn ones, and the primitive
    vector along each drawn combination, whose coordinates need not be
    integers."""
    d = draw(st.integers(1, 3))
    vector = st.tuples(*[st.integers(-6, 6)] * d)
    lat = hnf(d, draw(st.lists(vector, max_size=d - 1)))
    coeffs = draw(st.tuples(*[st.integers(-9, 9)] * lat.rank))
    others = draw(st.lists(vector, max_size=3))
    for c in draw(st.lists(st.tuples(*[st.integers(-9, 9)] * lat.rank), max_size=3)):
        v = [sum(a * col[i] for a, col in zip(c, lat.basis)) for i in range(d)]
        g = math.gcd(*v)
        if g:
            others.append(tuple(x // g for x in v))
    return lat, coeffs, others


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_rank_deficient_combinations())
def test_coefficients_of_rank_deficient_combination(instance):
    sympy = pytest.importorskip("sympy")
    lat, coeffs, others = instance
    v = tuple(sum(c * col[i] for c, col in zip(coeffs, lat.basis)) for i in range(lat.dim))
    assert lat.contains(v)
    # membership through sympy: w lies in the lattice exactly when the least
    # squares coordinates x reproduce w and are all integers
    basis = sympy.Matrix(lat.dim, lat.rank, [c[i] for i in range(lat.dim) for c in lat.basis])
    for w in others:
        if lat.rank:
            x = (basis.T * basis).inv() * basis.T * sympy.Matrix(w)
            member = basis * x == sympy.Matrix(w) and all(c.is_integer for c in x)
        else:
            member = not any(w)
        assert lat.contains(w) == member


def test_periodic_set_refine_and_same_set():
    a = PeriodicSet.make(Lattice.diagonal([2]), [(0,)])
    fine = a.refine(Lattice.diagonal([6]))
    assert fine.sorted_members == ((0,), (2,), (4,))
    assert fine.same_set(a)
    assert not fine.same_set(a.translate((1,)))
    assert fine.on_stabilizer().lattice == Lattice.diagonal([2])


@st.composite
def _set_cases(draw):
    """A lattice from hnf_lattices(24) or Z/1 .. Z/256, vectors whose residues
    are the members (on index up to 64, half of the time closed under a drawn
    shift, so that stabilizers beyond the lattice occur), a vector, a
    sublattice, and a second set on the sublattice: the first set
    re-presented, the first set moved by the vector, or drawn."""
    lat = draw(st.one_of(hnf_lattices(24, dim=draw(st.sampled_from((2, 3, 1)))),
                         st.integers(1, 256).map(lambda n: Lattice.diagonal([n]))))
    d = lat.dim
    vector = st.tuples(*[st.integers(-40, 40)] * d)
    vectors = draw(st.lists(vector, max_size=10))
    if vectors and lat.index() <= 64 and draw(st.booleans()):
        shift = draw(vector)
        for x in vectors[:]:
            for k in range(1, lat.index()):
                vectors.append(vadd(x, vscale(k, shift)))
    scales = [draw(st.sampled_from((2, 1, 3))) for _ in range(d)]
    extra = [draw(st.integers(-2, 2)) for _ in range(d)]
    columns = [vscale(k, c) for k, c in zip(scales, lat.basis)]
    columns.append(tuple(sum(e * c[i] for e, c in zip(extra, lat.basis)) for i in range(d)))
    sub = hnf(d, columns)
    second = draw(st.sampled_from(("same", "moved", "drawn")))
    return lat, vectors, draw(vector), sub, second, draw(st.lists(vector, max_size=10))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_set_cases())
def test_periodic_set_operations_match_frozenset_reference(case):
    # The reference keeps members as a frozenset of canonical residues found
    # with Lattice.reduce and enumerates residues with itertools.product; it
    # shares no code with the masks.
    lat, vectors, v, sub, second, other_vectors = case
    ref = frozenset(lat.reduce(x) for x in vectors)
    aset = PeriodicSet.make(lat, vectors)
    assert aset.members == ref
    with pytest.raises(InputContractError):
        PeriodicSet.make(lat, vectors + [v + (0,)])
    with pytest.raises(InputContractError):
        aset.contains(v + (0,))
    assert aset.sorted_members == tuple(sorted(ref))
    assert aset.contains(v) == (lat.reduce(v) in ref)
    moved_ref = frozenset(lat.reduce(vadd(m, v)) for m in ref)
    moved = aset.translate(v)
    assert moved.lattice == lat and moved.members == moved_ref
    assert aset.density() == Fraction(len(ref), lat.index())

    fine = aset.refine(sub)
    assert fine.lattice == sub
    assert fine.members == {r for r in canonical_residues(sub) if lat.reduce(r) in ref}

    # A + r lies in A exactly when A + r = A, as translation is one-to-one
    stab = hnf(lat.dim, list(lat.basis) + [r for r in canonical_residues(lat)
                                           if all(lat.reduce(vadd(m, r)) in ref for m in ref)])
    assert stabilizer(aset) == stab
    on = aset.on_stabilizer()
    assert on.lattice == stab and on.members == {stab.reduce(m) for m in ref}

    assert dict(indicator(aset).values) == {r: int(r in ref) for r in canonical_residues(lat)}
    support = PeriodicRationalFunction.make(lat, {r: 1 for r in ref}).support_set()
    assert support.lattice == lat and support.members == ref

    if second == "drawn":
        other = PeriodicSet.make(sub, other_vectors)
        in_other = {sub.reduce(x) for x in other_vectors}.__contains__
    else:
        base, base_ref = (aset, ref) if second == "same" else (moved, moved_ref)
        other = base.refine(sub)
        in_other = lambda r: lat.reduce(r) in base_ref
    same = all(in_other(r) == (lat.reduce(r) in ref) for r in canonical_residues(sub))
    assert other.same_set(aset) == same and aset.same_set(other) == same

    again = PeriodicSet.make(lat, list(reversed(vectors)) + [lat.reduce(x) for x in vectors])
    assert again == aset and hash(again) == hash(aset)
    assert (moved == aset) == (moved_ref == ref)
    assert (fine == aset) == (sub == lat)
    assert pickle.loads(pickle.dumps(aset)) == aset


def test_sweep_output_survives_a_pickle_round_trip():
    out = search_periodic_cotile(box_pair(), 8)
    back = pickle.loads(pickle.dumps(out))
    assert back == out
    assert [(lat.basis, a.sorted_members) for lat, a in back] == \
        [(lat.basis, a.sorted_members) for lat, a in out]


def test_enumerate_points_pinned_order():
    gen = enumerate_points(Lattice.identity(2))
    first = [next(gen) for _ in range(9)]
    assert first == [(0, 0), (-1, -1), (-1, 0), (-1, 1), (0, -1),
                     (0, 1), (1, -1), (1, 0), (1, 1)]
    gen2 = enumerate_points(Lattice.diagonal([2, 2]))
    assert [next(gen2) for _ in range(3)] == [(0, 0), (-2, -2), (-2, 0)]


def test_zero_lattice_is_legal():
    z = Lattice.zero(2)
    assert z.rank == 0
    assert z.index() is INFINITE
    assert z.contains((0, 0))
    assert not z.contains((1, 0))


def test_quotient_of_z0_is_the_one_element_group():
    quotient = Lattice.zero(0).quotient()
    assert len(quotient) == 1 and quotient.residues == ((),)
    assert quotient.translation(()) == (0,)


def test_equal_lattices_share_one_quotient():
    a = hnf(2, [(4, 0), (1, 3)])
    b = hnf(2, [(1, 3), (5, 3)])
    assert a == b and a is not b
    assert a.quotient() is b.quotient()


def test_translation_tables_are_shared_tuples_equal_to_a_fresh_build():
    rng = random.Random(17)
    for lat in (Lattice.diagonal([40, 40]), hnf(3, [(2, 0, 0), (1, 3, 0), (1, 2, 4)])):
        q = lat.quotient()
        for _ in range(20):
            v = tuple(rng.randrange(-50, 50) for _ in range(lat.dim))
            table = q.translation(v)
            assert type(table) is tuple
            assert table == tuple(q._table(lat.dim, list(v)))
            assert q.translation(list(v)) is table


def _held(cache):
    """What the cache counts, summed afresh."""
    return sum(len(value) for value in cache.values.values())


def _tables_of(lat):
    """The keys of the translation tables of lat that the quotient cache keeps."""
    return [key for key, value in _quotients.values.items()
            if type(value) is tuple and key[0] == lat.basis]


def test_translation_cache_stays_within_its_bound(monkeypatch):
    # one quotient asked for 60 distinct shifts, more tables than the
    # lowered budget holds: the oldest go, the answer does not change and
    # the budget holds
    lat = Lattice.diagonal([40, 40])
    budget = 20 * 1600
    monkeypatch.setattr(_quotients, "limit", budget)
    g = WeightedTile.make(2, {(x, 0): 1 for x in range(60)})
    fn = indicator(PeriodicSet.make(lat, [(0, 0)]))
    assert convolve(g, fn).values == reference_convolution(lat, g.entries, fn.values.__getitem__)
    kept = _tables_of(lat)
    assert 0 < len(kept) < 60
    assert (lat.basis, (-59, 0)) in kept     # the table made last
    assert _quotients.held == _held(_quotients) <= budget


def test_convolution_and_verification_leave_no_garbage(monkeypatch):
    # shared quotients and kept tables must not form reference cycles; the
    # budget is lowered below what these lattices hold, so that some
    # quotients and tables are dropped
    monkeypatch.setattr(_quotients, "limit", 4000)
    first = Lattice.diagonal([2, 2, 10])
    box = box_pair()[0]
    gc.collect()
    gc.disable()
    try:
        for n in range(42):
            lat = Lattice.diagonal([2, 2, 10 + n])
            aset = PeriodicSet.make(lat, [(0, 0, k) for k in range(10 + n)])
            assert convolve(box, indicator(aset)) == 1
            assert is_tiling(box, aset)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert first.basis not in _quotients.values and not _tables_of(first)
    assert _quotients.held == _held(_quotients) <= 4000


def test_a_second_sweep_builds_no_quotient(monkeypatch):
    # Candidate lattices, their quotients and the quotients' basis-step
    # tables depend only on (dim, index), so a sweep of another tuple of Z^3
    # to the same index reuses the first sweep's: counted as
    # test_sweep_and_torus_stabilizer_build_no_residue_tuple counts residue
    # tuples.
    assert len(search_periodic_cotile(box_pair(), 12)) == 76
    builds = []
    init, table = QuotientGroup.__init__, QuotientGroup._table

    def counted(quotient, lattice):
        builds.append(lattice)
        init(quotient, lattice)

    def counted_table(quotient, k, g):
        builds.append((quotient.lattice, g))
        return table(quotient, k, g)

    monkeypatch.setattr(QuotientGroup, "__init__", counted)
    monkeypatch.setattr(QuotientGroup, "_table", counted_table)
    f1, f2 = box_pair()
    assert len(search_periodic_cotile(TileTuple.make([f2, f1]), 12)) == 76
    assert builds == []


def test_quotient_budget_holds_across_a_sweep_and_a_torus(monkeypatch):
    # The index-24 sweep of the box pair holds ~160,000 residue numbers in
    # its quotients, tables, head rows and homs, more than this lowered
    # budget, so it drops some of its own; its answer does not change and
    # the budget holds, also after the domino co-tile on 40Z x 40Z keeps
    # its translation tables.  Both caches count exactly what they hold.
    budget = 50_000
    monkeypatch.setattr(_quotients, "limit", budget)
    found = search_periodic_cotile(box_pair(), 24)
    assert len(found) == 844
    assert _quotients.held == _held(_quotients) <= budget
    # a second sweep walks again the rows the first one dropped
    assert search_periodic_cotile(box_pair(), 24) == found
    assert _quotients.held == _held(_quotients) <= budget
    # the head rows the sweep keeps are counted at the n * n / p_0 numbers
    # they can hold, with n for the index of negated rows and n for the
    # rank; every held row, inverted ones included, equals sums read off
    # numbers and decode, and the row of -y is the row of the number of -y
    stores = [(key[0], value) for key, value in _quotients.values.items()
              if len(key) == 2 and key[1] is None and len(key[0]) == 3]
    assert stores
    inverted = 0
    for basis, kept in stores:
        lat = Lattice(3, basis)
        q, p0 = lat.quotient(), lat.pivots[0]
        n = len(q)
        assert len(kept) == n * n // p0 + 2 * n
        assert len(kept.rows) == len(kept.back) == n
        heads = q.decode(range(0, n, p0))
        for y, r in enumerate(q.decode(range(n))):
            if kept.rows[y] is not None:
                assert kept.rows[y] == q.numbers(vadd(r, h) for h in heads)
            if kept.back[y] is not None:
                assert kept.back[y] is kept.rows[q.numbers([vneg(r)])[0]]
                inverted += 1
    assert inverted
    assert _quotients.held == _held(_quotients) <= budget
    # the kept homs of the cyclotomic bound count as one entry a hom, plus
    # one for the record
    homs = [value for key, value in _quotients.values.items()
            if len(key) == 2 and type(key[1]) is int]
    assert homs and any(value.homs for value in homs)
    for value in homs:
        assert len(value) == len(value.homs) + 1
    torus = Lattice.diagonal([40, 40])
    domino = Tile.make(2, [(0, 0), (1, 0)])
    aset = PeriodicSet.make(torus, [(x, y) for x in range(0, 40, 2) for y in range(40)])
    assert is_tiling(domino, aset)
    assert convolve(domino, indicator(aset)) == 1
    assert _tables_of(torus)
    assert _quotients.values[torus.basis] is torus.quotient()
    assert _quotients.held == _held(_quotients) <= budget
    assert _sublattices.held == _held(_sublattices)


def test_an_evicted_quotient_is_rebuilt_equal(monkeypatch):
    lat = hnf(3, [(2, 0, 0), (1, 3, 0), (1, 2, 4)])
    q = lat.quotient()
    rng = random.Random(23)
    vectors = [tuple(rng.randrange(-30, 30) for _ in range(3)) for _ in range(40)]
    shifts = vectors[:6] + [(0, 1, 0), (0, 0, 1)]
    numbers = q.numbers(vectors)
    tables = [q.translation(v) for v in shifts]
    kept = q.heads(range(len(q)), range(len(q)))
    heads = list(kept.rows)
    # rows already walked are read back in place, without a walk
    steps = []
    translation = QuotientGroup.translation
    monkeypatch.setattr(QuotientGroup, "translation",
                        lambda self, *args: steps.append(args) or translation(self, *args))
    assert q.heads(range(len(q))) is kept and kept.rows == heads
    assert q.heads([5, 0, 5], [5]) is kept and kept.back[5] is kept.rows[q.numbers([(-1, -2, 0)])[0]]
    assert steps == []
    monkeypatch.setattr(_quotients, "limit", 0)   # keeps only the entry made last
    Lattice.diagonal([5]).quotient()
    assert lat.basis not in _quotients.values and not _tables_of(lat)
    assert (lat.basis, None) not in _quotients.values
    rebuilt = lat.quotient()
    assert rebuilt is not q
    assert rebuilt.numbers(vectors) == numbers
    assert [rebuilt.translation(v) for v in shifts] == tables
    assert rebuilt.heads(range(len(q))).rows == heads
    assert steps    # the evicted rows were walked again
    assert len(_quotients.values) == 1
    assert _quotients.held == _held(_quotients) == len(q)


def test_a_kept_table_outlives_its_quotient(monkeypatch):
    # tables are kept by basis, not on the quotient: when the oldest entry,
    # the quotient, goes, a rebuilt quotient reads the same tuple
    lat = hnf(3, [(2, 0, 0), (1, 3, 0), (1, 2, 4)])   # index 24
    monkeypatch.setattr(_quotients, "values", {})
    monkeypatch.setattr(_quotients, "held", 0)
    monkeypatch.setattr(_quotients, "limit", 50)
    q = lat.quotient()
    Lattice.diagonal([4]).quotient()
    table = q.translation((1, 2, 3))          # 24 + 4 + 24 > 50: q goes
    assert list(_quotients.values) == [((4,),), (lat.basis, (1, 2, 3))]
    rebuilt = lat.quotient()                  # the index-4 quotient goes
    assert rebuilt is not q
    assert rebuilt.translation((1, 2, 3)) is table
    assert rebuilt.translation([1, 2, 3]) is table
    assert _quotients.held == _held(_quotients) == 48


def test_stabilizer_probes_keep_no_table(monkeypatch):
    # each probe builds its translation table for itself: on an empty cache
    # the stabilizer leaves only its set's quotient behind
    coarse = Lattice.diagonal([2, 3])
    aset = PeriodicSet.make(coarse, [(0, 0), (1, 1)]).refine(hnf(2, [(4, 0), (2, 6)]))
    monkeypatch.setattr(_quotients, "values", {})
    monkeypatch.setattr(_quotients, "held", 0)
    assert stabilizer(aset) == coarse   # found by probes off the index-24 lattice
    assert list(_quotients.values) == [aset.lattice.basis]
    assert _quotients.held == _held(_quotients) == 24


@st.composite
def _lattice_pairs(draw):
    l1 = draw(hnf_lattices(24))
    return l1, draw(hnf_lattices(24, dim=l1.dim))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_lattice_pairs())
def test_index_product_identity_on_drawn_lattices(pair):
    l1, l2 = pair
    assert (l1.intersect(l2).index() * l1.sum(l2).index()
            == l1.index() * l2.index())
