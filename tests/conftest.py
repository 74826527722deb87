import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from tilekit.lattice import Lattice, PeriodicSet, vadd, vscale
from tilekit.tiles import Tile, TileTuple
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
    from tilekit.tiles import PeriodicRationalFunction

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
def hnf_lattices(draw, max_index):
    """Canonical full-rank lattices of dimension 1 to 3 and index <= max_index."""
    d = draw(st.integers(1, 3))
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
