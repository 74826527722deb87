import dataclasses
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tilekit.analysis import RationalSubspace, span_classes
from tilekit.decompose import (
    DecompositionReport,
    _lattice_in_subspace,
    build_decomposition,
    compute_q,
    dilation_check,
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
from tilekit.lattice import Lattice, PeriodicSet, hnf, vscale
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


def _pair_at_level_two():
    # the six-point block and {0, 3, 5, 6, 8, 11} both convolve with twice the
    # six-block function to 2; q * v has order 3 modulo 18Z, so nodes take thirds
    tiles = TileTuple.make([six_block(), Tile.make(1, [(0,), (3,), (5,), (6,), (8,), (11,)])])
    return build_decomposition(tiles, six_block_fn().scale(2), levels=[2, 2])


def _oracle_trees():
    doubled = PeriodicRationalFunction.from_callable(
        Lattice.diagonal([2]), lambda r: 2 if r[0] == 0 else 0)
    level_pair = TileTuple.make([Tile.make(1, [(0,), (1,)]), Tile.make(1, [(0,), (3,)])])
    return [build_decomposition(box_pair(), indicator(box_cotile())),
            build_decomposition(TileTuple.make([six_block()]), six_block_fn()),
            build_decomposition(level_pair, doubled, levels=[2, 2]),
            _pair_at_level_two()]


def test_finite_average_equals_stored_node_on_multiples():
    # every node of four trees is the average of f(x - sum_j (1 + n_j q) v_j)
    # over n_j in 1..mult * m_j, with m_j the least m >= 1 such that m q v_j
    # lies in the lattice; evaluated point by point in Fractions over one
    # fundamental domain, with no table, convolution or tree code
    for tree in _oracle_trees():
        f = tree.root
        lat = f.lattice
        d = lat.dim
        for chain, node in tree.nodes.items():
            assert node.lattice == lat and math.gcd(node.den, *node.nums) == 1
            orders = [next(m for m in itertools.count(1) if lat.contains(vscale(m * tree.q, v)))
                      for v in chain]
            for mult in (1, 2, 3):
                ranges = [range(1, mult * m + 1) for m in orders]
                count = math.prod(map(len, ranges))
                for x in lat.quotient().residues:
                    total = Fraction(0)
                    for ns in itertools.product(*ranges):
                        total += f(tuple(x[i] - sum((1 + n * tree.q) * v[i] for n, v in zip(ns, chain))
                                         for i in range(d)))
                    assert total / count == node(x), (chain, x)


def _with_node(tree, chain, node):
    nodes = dict(tree.nodes)
    nodes[chain] = node
    return dataclasses.replace(tree, nodes=nodes)


def test_verify_decomposition_reports_a_broken_tree():
    tree = build_decomposition(box_pair(), indicator(box_cotile()))
    a, b, c = (1, 0, 0), (0, 1, 0), (1, 1, 1)
    node = tree.node((b,))
    changed = PeriodicRationalFunction(node.lattice, node.den, (node.nums[0] + 1,) + node.nums[1:])
    assert verify_decomposition(_with_node(tree, (b,), changed)) == DecompositionReport(
        recursion=(((b,), "recursion to depth 2 fails"),),
        reconstruction=((1, "depth-1 reconstruction fails"),),
        invariance=(),
        convolution=(((b,), 0, "convolution"), ((b,), 1, "convolution")))
    scaled = _with_node(tree, (a, c), tree.node((a, c)).scale(2))
    assert verify_decomposition(scaled) == DecompositionReport(
        recursion=(((a,), "recursion to depth 2 fails"),),
        reconstruction=((2, "depth-2 reconstruction fails"),),
        invariance=(),
        convolution=(((a, c), 0, "convolution"), ((a, c), 1, "convolution")))
    # with q = 1 every node fails invariance along every vector of its chain
    # and nothing else
    report = verify_decomposition(dataclasses.replace(tree, q=1))
    assert report.recursion == report.reconstruction == report.convolution == ()
    assert report.invariance == tuple((chain, v) for i in (1, 2) for chain in tree.chains(i)
                                      for v in chain)
    # a node presented on a finer lattice is compared as a function on Z^3
    fine = tree.node((a, c)).refine(Lattice.diagonal([4, 2, 3]))
    assert verify_decomposition(_with_node(tree, (a, c), fine)).ok
    nums = list(fine.nums)
    nums[5] += 2
    broken = PeriodicRationalFunction(fine.lattice, fine.den, tuple(nums))
    assert verify_decomposition(_with_node(tree, (a, c), broken)) == DecompositionReport(
        recursion=(((a,), "recursion to depth 2 fails"),),
        reconstruction=((2, "depth-2 reconstruction fails"),),
        invariance=(((a, c), a), ((a, c), c)),
        convolution=(((a, c), 0, "convolution"), ((a, c), 1, "convolution")))


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


def test_shift_differences_vanish_along_the_stabilizer():
    # f(x + v) - f(x) is 0 exactly when v fixes f: for a constant along
    # every v, for the halves along 2Z, and along 1 it takes -1 and 1
    const = PeriodicRationalFunction.constant(Lattice.identity(1), 3)
    assert (const.shift((1,)) - const).is_constant(0)
    f = halves()
    assert (f.shift((2,)) - f).is_constant(0)
    assert sorted((f.shift((1,)) - f).values.values()) == [Fraction(-1), Fraction(1)]
    g = PeriodicRationalFunction.from_callable(Lattice.diagonal([2, 2]), lambda r: r[0] ^ r[1])
    for a, b in itertools.product((-1, 0, 1), repeat=2):
        assert (g.shift((2 * a, 2 * b)) - g).is_constant(0)
        assert (g.shift((a, b)) - g).is_constant(0) == (a % 2 == b % 2)


def test_invariance_along_lattices_examples():
    # a function is constant on the cosets of a lattice exactly when its
    # stabilizer holds that lattice
    const = PeriodicRationalFunction.constant(Lattice.identity(2), 9)
    assert const.stabilizer().contains_lattice(Lattice.identity(2))
    f = halves()
    assert f.stabilizer().contains_lattice(Lattice.diagonal([2]))
    assert not f.stabilizer().contains_lattice(Lattice.identity(1))
    g = PeriodicRationalFunction.from_callable(Lattice.diagonal([2, 2]), lambda r: r[0] ^ r[1])
    assert g.stabilizer() == hnf(2, [(1, 1), (0, 2)])
    assert not g.stabilizer().contains_lattice(Lattice.diagonal([1, 2]))


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
    # summands of a constant function are invariant along the intersection
    # of their stabilizers, whose pairwise sum has full rank, checked here on
    # a concrete instance
    lat = Lattice.diagonal([2, 2])
    g1 = PeriodicRationalFunction.from_callable(lat, lambda r: 1 if r[0] == 0 else 0)
    g2 = PeriodicRationalFunction.from_callable(lat, lambda r: 0 if r[0] == 0 else 1)
    total = g1 + g2
    assert total.stabilizer().contains_lattice(Lattice.identity(2))
    pairwise = g1.stabilizer().sum(g2.stabilizer())
    assert pairwise.is_full_rank
    meet = g1.stabilizer().intersect(g2.stabilizer())
    for g in (g1, g2):
        assert g.stabilizer().contains_lattice(meet)


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
