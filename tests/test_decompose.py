import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tilekit.analysis import RationalSubspace, span_classes
from tilekit.decompose import (
    _lattice_in_subspace,
    bounded_poly_is_constant_check,
    build_decomposition,
    compute_q,
    dilation_check,
    discrete_derivative,
    is_polynomial_map,
    polynomial_degree,
    primorial,
    psi_by_span,
    reconstruction_constant,
    verify_decomposition,
)
from tilekit.errors import (
    NonIntegerValuesError,
    NotACotileError,
    PreconditionUnverifiedError,
    PropertyStarRequiredError,
)
from tilekit.lattice import Lattice, PeriodicSet, vscale
from tilekit.tiles import PeriodicRationalFunction, Tile, TileTuple, indicator
from conftest import box_cotile, box_pair, six_block, six_block_fn


def halves():
    return PeriodicRationalFunction.from_callable(
        Lattice.diagonal([2]), lambda r: 1 if r[0] == 0 else 0)


def test_primorial():
    assert primorial(1) == 1
    assert primorial(4) == 6
    assert primorial(12) == 2310


def test_compute_q_examples():
    assert compute_q(indicator(box_cotile()), 4) == 6
    assert compute_q(halves(), 1) == 1
    assert compute_q(six_block_fn(), 6) == 2310
    with pytest.raises(NonIntegerValuesError):
        compute_q(PeriodicRationalFunction.constant(Lattice.identity(1), Fraction(1, 2)), 2)


def test_dilation_check_box_pair():
    tiles = box_pair()
    f = indicator(box_cotile())
    for r in (7, 13, 19):
        assert dilation_check(tiles[0], f, 1, r)
    assert dilation_check(tiles[0], f, 1, 1)


def test_dilation_negative_probe():
    assert dilation_check(Tile.make(1, [(0,), (1,)]), halves(), 1, 2) is False


def test_dilation_precondition_enforced():
    with pytest.raises(PreconditionUnverifiedError):
        dilation_check(Tile.make(1, [(0,), (1,)]), halves(), 2, 3)


def test_tree_unit_pair_z():
    tiles = TileTuple.make([Tile.make(1, [(0,), (1,)])])
    tree = build_decomposition(tiles, halves())
    assert tree.q == 2
    phi = tree.node(((1,),))
    assert phi == PeriodicRationalFunction.from_callable(
        Lattice.diagonal([2]), lambda r: 1 if r[0] == 1 else 0)
    # identity at depth one: f = 1 - phi
    assert halves() == 1 - phi
    report = verify_decomposition(tree)
    assert report.ok


def test_tree_root_is_the_function():
    tiles = TileTuple.make([Tile.make(1, [(0,), (1,)])])
    tree = build_decomposition(tiles, halves())
    assert tree.node(()) == halves()


def test_tree_box_pair_depth_two():
    tiles = box_pair()
    f = indicator(box_cotile())
    tree = build_decomposition(tiles, f)
    assert tree.q == 6
    assert len(tree.nodes) == 3 + 9
    for node in tree.nodes.values():
        assert node.min_value() >= 0 and node.max_value() <= 1
    report = verify_decomposition(tree)
    assert report.ok


def test_tree_six_block_function():
    tiles = TileTuple.make([six_block()])
    tree = build_decomposition(tiles, six_block_fn())
    assert tree.q == 2310
    assert verify_decomposition(tree).ok
    for node in tree.nodes.values():
        assert node.min_value() >= -1 and node.max_value() <= 1


def test_tree_rejects_non_cotile():
    tiles = TileTuple.make([Tile.make(1, [(0,), (1,)])])
    with pytest.raises(NotACotileError):
        build_decomposition(tiles, PeriodicRationalFunction.constant(Lattice.identity(1), 0))


def test_tree_level_variant():
    doubled = PeriodicRationalFunction.from_callable(
        Lattice.diagonal([2]), lambda r: 2 if r[0] == 0 else 0)
    tiles = TileTuple.make([Tile.make(1, [(0,), (1,)]), Tile.make(1, [(0,), (3,)])])
    tree = build_decomposition(tiles, doubled, levels=[2, 2])
    report = verify_decomposition(tree)
    assert report.ok
    assert reconstruction_constant((Fraction(2), Fraction(2)), [2, 2], 2) == 0


def test_reconstruction_constant_plain_matches_alternating_sum():
    s = 4
    for depth in (1, 2, 3):
        expected = sum((-(s - 1)) ** (j - 1) for j in range(1, depth + 1))
        assert reconstruction_constant((Fraction(1),) * 3, [s] * 3, depth) == expected


def test_degenerate_origin_tile():
    tiles = TileTuple.make([Tile.make(1, [(0,)])])
    ones = PeriodicRationalFunction.constant(Lattice.identity(1), 1)
    tree = build_decomposition(tiles, ones)
    # no starred points: the only identity is depth-0 reconstruction f = 1
    assert verify_decomposition(tree).ok


def test_finite_average_equals_stored_node_on_multiples():
    # averaging over any multiple of the exact multi-period reproduces the node
    tiles = box_pair()
    f = indicator(box_cotile())
    tree = build_decomposition(tiles, f)
    lat = f.lattice
    chain = (tree.tiles[0].sorted_star[0], tree.tiles[1].sorted_star[0])
    node = tree.node(chain)
    orders = [lat.order_of(vscale(tree.q, v)) for v in chain]
    for mult in (2, 3):
        total = Fraction(0)
        count = 0
        x = (0, 0, 0)
        for ns in itertools.product(*[range(1, mult * m + 1) for m in orders]):
            shift = tuple(sum((1 + n * tree.q) * v[i] for n, v in zip(ns, chain))
                          for i in range(3))
            total += f(tuple(a - b for a, b in zip(x, shift)))
            count += 1
        assert total / count == node(x)


def test_independence_gives_full_rank_node_stabilizers():
    tiles = box_pair()
    tree = build_decomposition(tiles, indicator(box_cotile()))
    for chain in tree.chains(2):
        assert tree.node(chain).stabilizer().rank >= 2
    # joint co-tile of a d-tuple of independent tiles in Z^d is d-periodic
    unit_pair = TileTuple.make([Tile.make(2, [(0, 0), (1, 0)]),
                                Tile.make(2, [(0, 0), (0, 1)])])
    checker = PeriodicSet.make(
        Lattice(2, ((2, 0), (1, 1))), [(0, 0)])
    from tilekit import verify as _v
    assert _v.is_joint_cotile(unit_pair, checker).ok
    tree2 = build_decomposition(unit_pair, indicator(checker))
    assert verify_decomposition(tree2).ok
    assert indicator(checker).stabilizer().rank == 2


def test_psi_by_span_box_pair():
    tiles = box_pair()
    tree = build_decomposition(tiles, indicator(box_cotile()))
    psi = psi_by_span(tree, span_classes(tiles))
    assert len(psi) == 7
    total = None
    for fn in psi.values():
        total = fn if total is None else total + fn
    depth_two = None
    for chain in tree.chains(2):
        node = tree.node(chain)
        depth_two = node if depth_two is None else depth_two + node
    assert total == depth_two


def test_psi_by_span_dim2_singletons():
    tiles = TileTuple.make([Tile.make(2, [(0, 0), (1, 0)])])
    aset = PeriodicSet.make(Lattice.diagonal([2, 1]), [(0, 0)])
    tree = build_decomposition(tiles, indicator(aset))
    psi = psi_by_span(tree, span_classes(tiles))
    assert len(psi) == 1
    (fn,) = psi.values()
    assert fn == tree.node(((1, 0),))


def test_psi_requires_property_star():
    f1 = Tile.make(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    f2 = Tile.make(3, [(0, 0, 0), (1, 1, 0), (0, 0, 1)])
    tiles = TileTuple.make([f1, f2])
    aset = PeriodicSet.make(Lattice.diagonal([3, 1, 1]), [(0, 0, 0)])
    # (1,1,0) spans the xy-plane with both (1,0,0) and (0,1,0): star fails
    from tilekit.analysis import has_property_star
    if not has_property_star(tiles):
        with pytest.raises(PropertyStarRequiredError):
            cls = span_classes(tiles)
            tree_ok = False
            try:
                tree = build_decomposition(tiles, indicator(aset))
                tree_ok = True
            except NotACotileError:
                raise PropertyStarRequiredError("fixture is not a co-tile")
            if tree_ok:
                psi_by_span(tree, cls)


def test_discrete_derivative_examples():
    const = PeriodicRationalFunction.constant(Lattice.identity(1), 3)
    assert discrete_derivative(const, (1,)).is_constant(0)
    f = halves()
    assert discrete_derivative(f, (2,)).is_constant(0)
    d1 = discrete_derivative(f, (1,))
    assert sorted(d1.values.values()) == [Fraction(-1), Fraction(1)]


def test_polynomial_map_examples():
    const = PeriodicRationalFunction.constant(Lattice.identity(2), 9)
    assert is_polynomial_map(const, Lattice.identity(2), 0)
    f = halves()
    assert is_polynomial_map(f, Lattice.diagonal([2]), 0)
    for degree in range(4):
        assert not is_polynomial_map(f, Lattice.identity(1), degree)


def test_polynomial_generator_test_matches_full_quantifier_on_small_case():
    # compare monomials-in-generators against derivatives along arbitrary
    # group elements from a box, on a tiny instance
    f = PeriodicRationalFunction.from_callable(
        Lattice.diagonal([2, 2]), lambda r: r[0] ^ r[1])
    gamma = Lattice.diagonal([2, 2])
    degree = polynomial_degree(f, gamma, 4)
    assert degree == 0
    vectors = [(2 * a, 2 * b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    for combo in itertools.product(vectors, repeat=1):
        g = f
        for v in combo:
            g = discrete_derivative(g, v)
        assert g.is_constant(0)


def test_lattice_in_subspace_integer_points():
    from tilekit.decompose import _lattice_in_subspace
    from tilekit.analysis import RationalSubspace

    diag = RationalSubspace.from_vectors(2, [(1, 1)])
    lat = _lattice_in_subspace(diag)
    assert lat.rank == 1
    for x in range(-5, 6):
        for y in range(-5, 6):
            assert lat.contains((x, y)) == (x == y)

    plane = RationalSubspace.from_vectors(3, [(1, 0, -1), (0, 2, 1)])
    lat3 = _lattice_in_subspace(plane)
    assert lat3.rank == 2
    for col in lat3.basis:
        assert plane.contains(col)
    for x in range(-3, 4):
        for y in range(-3, 4):
            for z in range(-3, 4):
                assert lat3.contains((x, y, z)) == plane.contains((x, y, z))


def test_fractional_nodes_on_signed_cotile():
    # averaging over three dilation shifts produces genuinely fractional values
    tree = build_decomposition(TileTuple.make([six_block()]), six_block_fn())
    denominators = {v.denominator for node in tree.nodes.values()
                    for v in node.values.values()}
    assert 3 in denominators
    assert verify_decomposition(tree).ok


def test_stabilizer_sum_polynomial_identity():
    # summands of a polynomial function are polynomial along the intersection
    # of the pairwise stabilizer sums, checked here on a concrete instance
    lat = Lattice.diagonal([2, 2])
    g1 = PeriodicRationalFunction.from_callable(lat, lambda r: 1 if r[0] == 0 else 0)
    g2 = PeriodicRationalFunction.from_callable(lat, lambda r: 0 if r[0] == 0 else 1)
    total = g1 + g2
    assert is_polynomial_map(total, Lattice.identity(2), 0)
    pairwise = g1.stabilizer().sum(g2.stabilizer())
    assert pairwise.is_full_rank
    meet = g1.stabilizer().intersect(g2.stabilizer())
    for g in (g1, g2):
        assert is_polynomial_map(g, meet, 0)
        assert bounded_poly_is_constant_check(g, meet).constant_on_cosets


def test_bounded_poly_is_constant_instances():
    f = halves()
    chk = bounded_poly_is_constant_check(f, Lattice.diagonal([2]))
    assert chk.is_polynomial and chk.degree == 0 and chk.constant_on_cosets
    chk2 = bounded_poly_is_constant_check(f, Lattice.identity(1), max_degree=5)
    assert not chk2.is_polynomial


def _check_integer_points_of_span(lat, vectors):
    """Through sympy, with no tilekit elimination: lat has the rank of the
    span of `vectors`, every basis column lies in that span, and the gcd of
    the maximal minors of the basis is 1, so no integer point of the span
    lies outside lat."""
    sympy = pytest.importorskip("sympy")
    d = lat.dim
    rank = sympy.Matrix(len(vectors), d, [x for v in vectors for x in v]).rank() if vectors else 0
    assert lat.rank == rank
    for col in lat.basis:
        stacked = [x for v in vectors for x in v] + list(col)
        assert sympy.Matrix(len(vectors) + 1, d, stacked).rank() == rank
    if lat.rank:
        basis = sympy.Matrix([[c[i] for c in lat.basis] for i in range(d)])
        minors = [basis.extract(list(rows), list(range(lat.rank))).det()
                  for rows in itertools.combinations(range(d), lat.rank)]
        assert math.gcd(*map(int, minors)) == 1


@st.composite
def _spanning_vectors(draw):
    d = draw(st.integers(1, 4))
    return d, draw(st.lists(st.tuples(*[st.integers(-6, 6)] * d), max_size=d))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_spanning_vectors())
def test_lattice_in_subspace_matches_rational_nullspace(case):
    d, vectors = case
    lat = _lattice_in_subspace(RationalSubspace.from_vectors(d, vectors))
    _check_integer_points_of_span(lat, vectors)
