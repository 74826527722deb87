import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from tilekit.lattice import Lattice, PeriodicSet, hnf, vadd, vscale, vsub
from tilekit.tiles import PeriodicRationalFunction, Tile, TileTuple, WeightedTile
from tilekit.analysis import is_independent_tuple
from tilekit import verify

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def fixtures_dir():
    return FIXTURES


def box_pair():
    f1 = Tile.make(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    f2 = Tile.make(3, [(0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    return TileTuple.make([f1, f2])


def box_cotile():
    return PeriodicSet.make(Lattice.diagonal([2, 2, 1]), [(0, 0, 0)])


def six_block():
    return Tile.make(1, [(0,), (1,), (3,), (4,), (6,), (7,)])


def six_block_fn():
    lat = Lattice.diagonal([18])
    return PeriodicRationalFunction.from_callable(
        lat, lambda r: (1 if r[0] % 2 == 0 else 0) - (1 if r[0] % 9 in (0, 1, 2) else 0))


def random_residue_system(lat, rng, spread=2):
    """A tile containing 0 that is a complete residue system modulo lat."""
    pts = []
    for r in lat.quotient():
        if not any(r):
            pts.append(r)
            continue
        v = r
        for col in lat.basis:
            v = vadd(v, vscale(rng.randrange(-spread, spread + 1), col))
        pts.append(v)
    return Tile.make(lat.dim, pts)


def seeded_independent_tuple(lat, count, seed, tries=500):
    """An independent tuple of complete residue systems mod lat, plus the
    lattice itself as their joint co-tile."""
    rng = random.Random(seed)
    aset = PeriodicSet.make(lat, [(0,) * lat.dim])
    for _ in range(tries):
        tiles = TileTuple.make([random_residue_system(lat, rng) for _ in range(count)])
        if is_independent_tuple(tiles):
            assert verify.is_joint_cotile(tiles, aset).ok
            return tiles, aset
    raise RuntimeError(f"no independent tuple found for {lat} with seed {seed}")


@st.composite
def hnf_lattices(draw, max_index, dim=None):
    """Canonical full-rank lattices of dimension `dim` (by default 1 to 3) and
    index <= max_index."""
    d = dim or draw(st.integers(1, 3))
    pivots = [1] * d
    for i in range(d):
        rest = max_index
        for p in pivots[:i]:
            rest //= p
        pivots[i] = draw(st.integers(1, rest))
    cols = [[0] * d for _ in range(d)]
    for j in range(d):
        cols[j][j] = pivots[j]
        for i in range(j):
            cols[j][i] = draw(st.integers(0, pivots[i] - 1))
    return Lattice(d, tuple(tuple(c) for c in cols))


@st.composite
def _unit_first_pivot(draw):
    """3-D lattices of index <= 24 with p_0 = 1: every digit-0 block is one cell."""
    p1 = draw(st.integers(1, 24))
    p2 = draw(st.integers(1, 24 // p1))
    return Lattice(3, ((1, 0, 0), (0, p1, 0), (0, draw(st.integers(0, p1 - 1)), p2)))


def placement_lattices():
    """Lattices for the oracles of the cover search's placements: canonical
    ones of index <= 24 in dimension 1 to 3, Z/n up to 256 (one block of n
    numbers) and 3-D ones with p_0 = 1 (n blocks of one number)."""
    return st.one_of(hnf_lattices(24), st.integers(1, 256).map(lambda n: Lattice.diagonal([n])),
                     _unit_first_pivot())


def residue_order(lat):
    """The canonical residues in residue-number order, first coordinate
    fastest, sorted from itertools.product: no code shared with numbers or decode."""
    return sorted(canonical_residues(lat), key=lambda r: r[::-1])


# ---------------------------------------------------------------------------
# An oracle for exact convolution that shares no code with tiles.convolve:
# residues are enumerated from the pivots, every shift goes through
# Lattice.reduce, and the sums are taken over Fractions.
# ---------------------------------------------------------------------------

def canonical_residues(lat):
    """The points with 0 <= x_i < pivot_i, the canonical residues of lat."""
    return [tuple(x) for x in itertools.product(*[range(p) for p in lat.pivots])]


def reference_convolution(lat, entries, value):
    """{x: sum_y w_y * value(reduce(x - y))} over the canonical residues x."""
    return {x: sum((w * Fraction(value(lat.reduce(vsub(x, y)))) for y, w in entries),
                   Fraction(0))
            for x in canonical_residues(lat)}


def reference_report(conv, target):
    """(ok, defects) of a verification against the constant target."""
    missed = [(x, v) for x, v in sorted(conv.items()) if v != target]
    return not missed, tuple(missed[:verify.DEFECT_CAP])


DENOMINATORS = (1, 2, 3, 6)
_fractions = st.builds(Fraction, st.integers(-6, 6), st.sampled_from(DENOMINATORS))


@st.composite
def _oracle_lattices(draw):
    # doubling reaches index 24 * 2^d, so a verification can miss at more
    # than DEFECT_CAP residues
    lat = draw(hnf_lattices(24))
    return lat.scale(2) if draw(st.booleans()) else lat


@st.composite
def convolution_cases(draw):
    """(g, f, level): a weighted tile with signed weights (possibly empty), a
    periodic function with denominators in {1, 2, 3, 6}, constant or not, and
    as level either (g * f)(0), which holds everywhere when f is constant, or
    a drawn fraction."""
    lat = draw(_oracle_lattices())
    d = lat.dim
    residues = canonical_residues(lat)
    if draw(st.booleans()):
        c = draw(_fractions)
        values = {r: c for r in residues}
    else:
        rng = draw(st.randoms(use_true_random=False))
        values = {r: Fraction(rng.randint(-6, 6), rng.choice(DENOMINATORS)) for r in residues}
    f = PeriodicRationalFunction.make(lat, values)
    point = st.tuples(*[st.integers(-5, 5)] * d)
    weight = st.sampled_from((-3, -2, -1, 1, 1, 2, 3))
    size = draw(st.integers(0, 9)) % 6    # 0 to 3 points twice as often as 4 or 5
    g = WeightedTile.make(d, draw(st.dictionaries(point, weight, min_size=size, max_size=size)))
    at_zero = sum((w * f.values[lat.reduce(vsub((0,) * d, y))] for y, w in g.entries),
                  Fraction(0))
    level = draw(st.one_of(st.just(at_zero), _fractions))
    return g, f, level


@st.composite
def tiling_cases(draw):
    """(tile, aset): a complete residue system moved by lattice vectors with
    the lattice as co-tile, the same with one point removed, or a drawn tile
    and a drawn set of members."""
    kind = draw(st.sampled_from(("tiling", "short", "drawn")))
    # a residue system has index-many points, so only a drawn tile gets the
    # larger lattices
    lat = draw(_oracle_lattices() if kind == "drawn" else hnf_lattices(24))
    d = lat.dim
    residues = canonical_residues(lat)
    if kind == "drawn":
        point = st.tuples(*[st.integers(-5, 5)] * d)
        tile = Tile.make(d, draw(st.sets(point, min_size=1, max_size=6)))
        rng = draw(st.randoms(use_true_random=False))
        members = [r for r in residues if rng.random() < 0.4]
        return tile, PeriodicSet.make(lat, members)
    rng = draw(st.randoms(use_true_random=False))
    points = []
    for r in residues:
        for col in lat.basis:
            r = vadd(r, vscale(rng.randint(-1, 1), col))
        points.append(r)
    if kind == "short" and len(points) > 1:
        points.pop(rng.randrange(len(points)))
    return Tile.make(d, points), PeriodicSet.make(lat, [(0,) * d])


# ---------------------------------------------------------------------------
# An oracle for sums and equality of periodic functions: every value is looked
# up through its own lattice's reduce, residue by residue.
# ---------------------------------------------------------------------------

def reference_values(fn, lat):
    """fn's values on the canonical residues of lat, a full-rank lattice
    inside fn.lattice."""
    assert all(not any(fn.lattice.reduce(col)) for col in lat.basis)
    return {x: fn.values[fn.lattice.reduce(x)] for x in canonical_residues(lat)}


@st.composite
def function_pairs(draw):
    """(f, g) of one dimension: on one lattice, on two drawn lattices, or two
    presentations of one function on lattices made by scaling the columns of
    its lattice, the second with one value changed half the time."""
    lat = draw(hnf_lattices(12))
    rng = draw(st.randoms(use_true_random=False))

    def drawn(on):
        return PeriodicRationalFunction.make(on, {
            r: Fraction(rng.randint(-3, 3), rng.choice(DENOMINATORS))
            for r in canonical_residues(on)})

    kind = draw(st.sampled_from(("same", "drawn", "presented")))
    if kind == "same":
        return drawn(lat), drawn(lat)
    if kind == "drawn":
        return drawn(lat), drawn(draw(hnf_lattices(12, dim=lat.dim)))
    h = drawn(lat)
    subs = [hnf(lat.dim, [vscale(rng.randint(1, 3), c) for c in lat.basis]) for _ in range(2)]
    f_values, g_values = (reference_values(h, sub) for sub in subs)
    if draw(st.booleans()):
        g_values[rng.choice(sorted(g_values))] += draw(st.sampled_from((1, Fraction(-1, 2))))
    return tuple(PeriodicRationalFunction.make(sub, values)
                 for sub, values in zip(subs, (f_values, g_values)))
