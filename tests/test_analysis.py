import gc
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tilekit import analysis
from tilekit.analysis import (
    RationalSubspace,
    has_property_star,
    is_independent_tuple,
    span_classes,
    vw_dimension,
)
from tilekit.errors import NotIndependentError, WrongArityError
from tilekit.tiles import Tile, TileTuple, dilate
from conftest import box_pair


def test_box_pair_is_independent_with_star():
    t = box_pair()
    assert is_independent_tuple(t)
    assert has_property_star(t)


def test_single_tile_independence():
    t = TileTuple.make([Tile.make(2, [(0, 0), (1, 0)])])
    assert is_independent_tuple(t)


def test_dependent_pair_witness():
    t = TileTuple.make([Tile.make(2, [(0, 0), (1, 0)]),
                        Tile.make(2, [(0, 0), (2, 0)])])
    res = is_independent_tuple(t)
    assert not res
    assert res.witness == ((1, 0), (2, 0))


def test_is_independent_tuple_leaves_no_garbage():
    # the search must not build reference cycles: with the cyclic GC off,
    # nothing unreachable may be left behind, on either verdict
    dependent = TileTuple.make([Tile.make(2, [(0, 0), (1, 0)]),
                                Tile.make(2, [(0, 0), (2, 0)])])
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            assert is_independent_tuple(box_pair())
            assert not is_independent_tuple(dependent)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_too_many_tiles_is_dependent():
    t = TileTuple.make([Tile.make(1, [(0,), (1,)]),
                        Tile.make(1, [(0,), (2,)])])
    res = is_independent_tuple(t)
    assert not res and len(res.witness) == 2


def test_origin_only_tiles_are_vacuous():
    t = TileTuple.make([Tile.make(1, [(0,)]), Tile.make(1, [(0,), (1,)])])
    assert is_independent_tuple(t)


def test_independence_invariant_under_permutation_and_dilation():
    t = box_pair()
    swapped = TileTuple.make([t[1], t[0]])
    assert is_independent_tuple(swapped)
    for r in (2, 3, 5):
        scaled = TileTuple.make([dilate(t[0], r), t[1]])
        assert is_independent_tuple(scaled)


def test_property_star_vacuous_in_dim_2():
    t = TileTuple.make([Tile.make(2, [(0, 0), (1, 0), (1, 1)])])
    assert has_property_star(t)


def test_property_star_failure():
    f1 = Tile.make(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    f2 = Tile.make(3, [(0, 0, 0), (1, 1, 0)])
    t = TileTuple.make([f1, f2])
    assert is_independent_tuple(t)
    res = has_property_star(t)
    assert not res
    a, b = res.witness
    # both selections span the xy-plane with different first coordinates
    assert a[1] == b[1] == (1, 1, 0)
    assert a[0] != b[0]


def test_property_star_arity_and_independence_errors():
    with pytest.raises(WrongArityError):
        has_property_star(TileTuple.make([Tile.make(3, [(0, 0, 0), (1, 0, 0)])]))
    dep = TileTuple.make([Tile.make(3, [(0, 0, 0), (1, 0, 0)]),
                          Tile.make(3, [(0, 0, 0), (2, 0, 0)])])
    with pytest.raises(NotIndependentError):
        has_property_star(dep)


def test_span_classes_box_pair():
    sympy = pytest.importorskip("sympy")
    t = box_pair()
    cls = span_classes(t)
    assert cls.total_tuples() == 9
    sizes = sorted(len(tuples) for _, tuples in cls)
    assert sizes == [1, 1, 1, 1, 1, 2, 2]
    for space, tuples in cls:
        assert space.dim == 2
        for sel in tuples:
            assert sympy.Matrix(sel).rank() == 2
            assert RationalSubspace.from_vectors(3, sel) == space


def test_span_classes_dim2_keys_are_lines():
    t = TileTuple.make([Tile.make(2, [(0, 0), (1, 0), (0, 1)])])
    cls = span_classes(t)
    assert len(cls) == 2
    assert all(space.dim == 1 for space, _ in cls)


def test_span_classes_two_planes():
    f1 = Tile.make(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    f2 = Tile.make(3, [(0, 0, 0), (0, 0, 1)])
    cls = span_classes(TileTuple.make([f1, f2]))
    assert len(cls) == 2
    assert all(len(tuples) == 1 for _, tuples in cls)


def test_span_classes_requires_independence():
    dep = TileTuple.make([Tile.make(2, [(0, 0), (1, 0)]),
                          Tile.make(2, [(0, 0), (2, 0)])])
    with pytest.raises(NotIndependentError):
        span_classes(dep)


def test_subspace_canonical_form_under_row_operations():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(17)
    for _ in range(30):
        d = rng.choice([2, 3, 4])
        vecs = [tuple(rng.randrange(-3, 4) for _ in range(d))
                for _ in range(rng.randrange(1, d))]
        space = RationalSubspace.from_vectors(d, vecs)
        # random invertible recombination spans the same subspace
        mixed = [tuple(a + 2 * b for a, b in zip(vecs[0], vecs[-1]))] + vecs[1:]
        assert RationalSubspace.from_vectors(d, mixed) == space or \
            sympy.Matrix(mixed).rank() != sympy.Matrix(vecs).rank()
        for v in vecs:
            assert space.contains(v)


def test_vw_dimension_examples():
    w = RationalSubspace.from_vectors(2, [(1, 0)])
    assert vw_dimension([(1, 0)], [(0, 1)], (), w) == 0
    assert vw_dimension([(1, 1)], [(0, 0)], (0,), w) == 1
    z = RationalSubspace.zero(2)
    assert vw_dimension([(1, 0), (0, 1)], [(0, 0), (0, 0)], (0, 1), z) == 2


@st.composite
def _vectors_and_probe(draw):
    """d, up to d + 1 vectors in [-4, 4]^d or, a third of the time,
    [-2^40, 2^40]^d (some zero, some integer combinations of earlier ones) and
    a probe v, drawn from their span half the time."""
    d = draw(st.integers(1, 4))
    bound = draw(st.sampled_from([4, 4, 2 ** 40]))
    entry = st.integers(-bound, bound)
    vectors = []
    for _ in range(draw(st.integers(0, d + 1))):
        kind = draw(st.sampled_from(["drawn", "drawn", "zero", "combination"]))
        if kind == "zero":
            vectors.append((0,) * d)
        elif kind == "combination" and vectors:
            a, b = draw(st.sampled_from(vectors)), draw(st.sampled_from(vectors))
            s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            vectors.append(tuple(s * x + t * y for x, y in zip(a, b)))
        else:
            vectors.append(tuple(draw(entry) for _ in range(d)))
    if vectors and draw(st.booleans()):
        coefficients = [draw(st.integers(-2, 2)) for _ in vectors]
        v = tuple(sum(c * u[i] for c, u in zip(coefficients, vectors)) for i in range(d))
    else:
        v = tuple(draw(entry) for _ in range(d))
    return d, vectors, v


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_vectors_and_probe())
def test_span_layer_matches_sympy(case):
    """basis is the nonzero part of sympy's RREF; dim, contains, join and
    vw_dimension agree with sympy ranks, members and non-members alike."""
    sympy = pytest.importorskip("sympy")
    d, vectors, v = case
    space = RationalSubspace.from_vectors(d, vectors)
    matrix = sympy.Matrix(len(vectors), d, [x for u in vectors for x in u])
    rank = matrix.rank()
    rref = [tuple(Fraction(int(x.p), int(x.q)) for x in matrix.rref()[0].row(i))
            for i in range(rank)]
    assert space.basis == tuple(rref)
    assert all(type(x) is Fraction for row in space.basis for x in row)
    assert space.dim == rank
    joined_rank = sympy.Matrix.vstack(matrix, sympy.Matrix([v])).rank()
    assert space.contains(v) == (joined_rank == rank)
    assert space.join([v]).dim == joined_rank
    assert space.join([v]) == RationalSubspace.from_vectors(d, vectors + [v])
    # the projection of span{u + v} into Q^d / span{v}
    line = RationalSubspace.from_vectors(d, [v])
    shifted = sympy.Matrix([list(v)] + [[a + b for a, b in zip(u, v)] for u in vectors])
    assert vw_dimension(vectors, [v] * len(vectors), range(len(vectors)), line) == \
        shifted.rank() - line.dim


@st.composite
def _tuples_to_select_from(draw):
    """A TileTuple of 1 to d tiles in Z^d, d from 2 to 4, each holding 0 and up
    to three further points; a third of the points are integer combinations
    of points drawn before, so dependent tuples are common."""
    d = draw(st.integers(2, 4))
    entry = st.integers(-3, 3)
    drawn, tiles = [], []
    for _ in range(draw(st.integers(1, d))):
        points = {(0,) * d}
        for _ in range(draw(st.integers(0, 3 if d < 4 else 2))):
            if drawn and draw(st.integers(0, 2)) == 0:
                a, b = draw(st.sampled_from(drawn)), draw(st.sampled_from(drawn))
                s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
                p = tuple(s * x + t * y for x, y in zip(a, b))
            else:
                p = tuple(draw(entry) for _ in range(d))
            points.add(p)
            if any(p):
                drawn.append(p)
        tiles.append(Tile.make(d, points))
    return TileTuple.make(tiles)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_tuples_to_select_from())
def test_independence_matches_sympy_ranks_of_every_selection(t):
    """Independent exactly when sympy gives every selection of one nonzero
    point per active tile full rank; a witness is such a selection that sympy
    finds dependent."""
    sympy = pytest.importorskip("sympy")
    stars = [sorted(tile.points - {(0,) * t.dim}) for tile in t]
    active = [s for s in stars if s]

    def full_rank(selection):
        return sympy.Matrix(selection).rank() == len(selection)

    expected = all(full_rank(sel) for sel in itertools.product(*active)) if active else True
    res = is_independent_tuple(t)
    assert bool(res) == expected
    if expected:
        assert res.witness is None
    else:
        assert len(res.witness) == len(active)
        assert all(p in s for p, s in zip(res.witness, active))
        assert not full_rank(res.witness)


@pytest.fixture
def rref_calls(monkeypatch):
    """The number of analysis._rref calls made so far."""
    calls = []
    real = analysis._rref

    def counted(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(analysis, "_rref", counted)
    return calls


def test_basis_is_made_on_first_use_and_kept(rref_calls):
    a = RationalSubspace.from_vectors(3, [(1, 2, 0), (0, 1, 1)])
    b = RationalSubspace.from_vectors(3, [(1, 3, 1), (1, 1, -1)])
    a.contains((2, 5, 1))
    a.contains((0, 0, 1))
    joined = a.join([(0, 0, 1)])
    assert vw_dimension([(1, 0, 0)], [(0, 1, 0)], (0,), b) == 1
    assert a.join([]) is a
    assert RationalSubspace.zero(3).join([]).dim == 0
    assert rref_calls == []
    assert a == b
    assert len(rref_calls) == 2
    assert hash(a) == hash(b)
    assert a.basis == b.basis
    assert len(rref_calls) == 2
    assert joined.basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert len(rref_calls) == 3
    c = RationalSubspace.from_vectors(2, [(2, 4)])
    hash(c)
    assert len(rref_calls) == 4
    zero = RationalSubspace.zero(2)
    for _ in range(2):
        assert sorted([c, zero], key=lambda s: s.basis) == [zero, c]
        assert len(rref_calls) == 5
        assert repr(c) == "RationalSubspace(2, [['1', '2']])"
