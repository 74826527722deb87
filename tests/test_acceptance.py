"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every check here is exact (integer or rational equality); the only
tolerances are the stated runtime budgets.
"""

import itertools
import random
import time

from tilekit.analysis import has_property_star, is_independent_tuple
from tilekit.construct import brother_tiles
from tilekit.decompose import (
    build_decomposition,
    compute_q,
    dilation_check,
    verify_decomposition,
)
from tilekit.lattice import (
    Lattice,
    PeriodicSet,
    enumerate_sublattices,
    hnf,
    stabilizer,
)
from tilekit.solve import (
    brute_force_quotient,
    lift_to_full_period,
    piecewise_to_periodic,
    search_Z_cotile,
    search_periodic_cotile,
    solve_quotient,
)
from tilekit.tiles import PeriodicRationalFunction, Tile, TileTuple, convolve, indicator
from tilekit.torsion import ring_inverse
from tilekit import verify
from conftest import (
    box_cotile,
    box_pair,
    seeded_independent_tuple,
    six_block,
    six_block_fn,
)


def _report(number, label, elapsed=None):
    suffix = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"criterion {number}: PASS - {label}{suffix}")


def test_criterion_01_box_pair_reproduction():
    start = time.monotonic()
    tiles = box_pair()
    aset = box_cotile()
    assert verify.is_tiling(tiles[0], aset).ok
    assert verify.is_tiling(tiles[1], aset).ok
    assert is_independent_tuple(tiles)
    assert has_property_star(tiles)
    lat = Lattice.diagonal([2, 2, 1])
    sols = solve_quotient(tiles, lat, mode="all")
    translates = {aset.translate(r).members for r in lat.quotient()}
    assert {s.members for s in sols} == translates
    assert len(sols) == 4
    oracle = brute_force_quotient(tiles, lat)  # 2^4 subsets
    assert [s.members for s in sols] == [s.members for s in oracle]
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(1, "box pair verified, independent, span-unique; quotient search "
               "complete against 2^4 enumeration", elapsed)


def test_criterion_02_six_block_reproduction():
    start = time.monotonic()
    tile = six_block()
    res = search_Z_cotile(tile)
    assert res.cotile is None
    assert res.period_bound == 256
    assert res.periods_checked
    diffs = {abs(a[0] - b[0]) for a in tile.points for b in tile.points if a != b}
    expected = tuple(p for p in range(6, 257, 6)
                     if not any(dd % p == 0 for dd in diffs))
    assert res.periods_checked == expected
    assert verify.is_level_tiling(tile, six_block_fn(), 1).ok
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(2, f"no tiling of Z after {len(res.periods_checked)} periods up to 256; "
               "integer-valued co-tile verified exactly", elapsed)


def test_criterion_03_decomposition_exactness():
    fixtures = []
    # d=1 unit pair on 2Z
    halves = PeriodicRationalFunction.from_callable(
        Lattice.diagonal([2]), lambda r: 1 if r[0] == 0 else 0)
    fixtures.append(("unit pair", TileTuple.make([Tile.make(1, [(0,), (1,)])]),
                     halves, None))
    # box pair at depth 2
    fixtures.append(("box pair", box_pair(), indicator(box_cotile()), None))
    # a level fixture: 1_{F_i} * f = 2 for two tiles
    doubled = PeriodicRationalFunction.from_callable(
        Lattice.diagonal([2]), lambda r: 2 if r[0] == 0 else 0)
    fixtures.append(("level two",
                     TileTuple.make([Tile.make(1, [(0,), (1,)]),
                                     Tile.make(1, [(0,), (3,)])]),
                     doubled, [2, 2]))
    for label, tiles, fn, levels in fixtures:
        start = time.monotonic()
        tree = build_decomposition(tiles, fn, levels=levels)
        report = verify_decomposition(tree)
        assert report.ok, (label, report)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, label
    _report(3, "all four identities hold with zero rational error on three fixtures")


def test_criterion_04_dilation_identity():
    f = indicator(box_cotile())
    tile = box_pair()[0]
    assert compute_q(f, tile.size) == 6
    for r in (7, 13, 19):
        assert dilation_check(tile, f, 1, r)
    halves = PeriodicRationalFunction.from_callable(
        Lattice.diagonal([2]), lambda r: 1 if r[0] == 0 else 0)
    assert dilation_check(Tile.make(1, [(0,), (1,)]), halves, 1, 2) is False
    _report(4, "dilation holds at r in {7,13,19} with q=6; probe r=2 correctly fails")


def test_criterion_05_full_tuples_periodic():
    start = time.monotonic()
    cases = [(Lattice.diagonal([2, 2]), 2, 1), (Lattice.diagonal([2, 1]), 2, 2),
             (Lattice.diagonal([3, 1]), 2, 3), (Lattice.diagonal([2, 3]), 2, 4),
             (hnf(2, [(2, 0), (1, 2)]), 2, 5), (Lattice.diagonal([4, 1]), 2, 6),
             (Lattice.diagonal([2, 2, 1]), 3, 7), (Lattice.diagonal([2, 1, 1]), 3, 8),
             (Lattice.diagonal([1, 2, 1]), 3, 9), (Lattice.diagonal([3, 1, 1]), 3, 10)]
    assert len(cases) == 10
    for lat, count, seed in cases:
        tiles, aset = seeded_independent_tuple(lat, count, seed)
        assert len(tiles.tiles) == lat.dim  # a d-tuple in Z^d
        sols = solve_quotient(tiles, lat, mode="all")
        assert aset.members in {s.members for s in sols}
        assert lat.index() <= 20
        oracle = brute_force_quotient(tiles, lat)
        assert [s.members for s in sols] == [s.members for s in oracle]
        found = search_periodic_cotile(tiles, lat.index())
        assert found and len(found) < 1000
        for stab_lat, sol in found:
            assert stab_lat.rank == lat.dim
            assert stabilizer(sol).rank == lat.dim
            assert verify.is_joint_cotile(tiles, sol).ok
    elapsed = time.monotonic() - start
    _report(5, "10 seeded independent d-tuples: solver complete vs brute force, "
               "every solution fully periodic", elapsed)


def test_criterion_06_brother_round_trip():
    start = time.monotonic()
    cases = [(Lattice.diagonal([2, 1]), 201), (Lattice.diagonal([2, 2]), 202),
             (hnf(2, [(2, 0), (1, 2)]), 203), (Lattice.diagonal([2, 2, 1]), 204),
             (Lattice.diagonal([2, 1, 1]), 205)]
    assert len(cases) == 5
    for lat, seed in cases:
        tiles, aset = seeded_independent_tuple(lat, 1, seed)
        f = tiles[0]
        brothers = brother_tiles(f, aset)
        d = lat.dim
        assert len(brothers) == d - 1
        full = TileTuple.make(list(brothers) + [f])
        assert verify.is_joint_cotile(full, aset).ok
        assert is_independent_tuple(full)
        assert has_property_star(TileTuple.make(list(brothers)[:d - 2] + [f]))
    elapsed = time.monotonic() - start
    _report(6, "5 seeded (tile, co-tile) pairs: companions tile jointly, "
               "are independent, and are span-unique", elapsed)


def test_criterion_07_lifting_and_piecewise():
    start = time.monotonic()
    tiles = TileTuple.make([Tile.make(2, [(0, 0), (1, 0)])])
    striped = PeriodicSet.make(Lattice.diagonal([2, 1]), [(0, 0)])
    gamma0 = hnf(2, [(0, 1)])
    lifted = lift_to_full_period(tiles, gamma0, striped)
    assert stabilizer(lifted).rank == 2
    assert verify.is_joint_cotile(tiles, lifted).ok

    a1 = PeriodicSet.make(Lattice.diagonal([2, 2]), [(0, 0)])
    a2 = PeriodicSet.make(Lattice.diagonal([2, 2]), [(0, 1)])
    declared = [hnf(2, [(0, 2)]), hnf(2, [(2, 0)])]
    merged = piecewise_to_periodic(tiles, [a1, a2], declared_stabilizers=declared)
    assert stabilizer(merged).rank == 2
    assert verify.is_joint_cotile(tiles, merged).ok
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(7, "rank-1 co-tile lifts to rank 2; two-piece pipeline returns a "
               "fully periodic joint co-tile", elapsed)


def test_criterion_08_ring_inverse_exhaustive():
    start = time.monotonic()
    count = 0
    for p in (2, 3, 5, 7):
        # g * 1_{F0} = delta_0 by the general convolution on the lattice pZ of Z
        ring = Lattice.diagonal([p])
        delta = indicator(PeriodicSet.make(ring, [(0,)]))
        for size in range(1, p):
            for subset in itertools.combinations(range(p), size):
                inv = ring_inverse(set(subset), p)
                g = PeriodicRationalFunction.make(
                    ring, {(t,): v for t, v in enumerate(inv.values)})
                assert convolve(Tile.make(1, [(s,) for s in subset]), g) == delta
                count += 1
    assert count == 164
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(8, "all 164 proper non-empty subsets invert exactly for p in {2,3,5,7}",
            elapsed)


def test_criterion_09_oracle_equivalence():
    start = time.monotonic()
    pairs = []
    f01 = Tile.make(1, [(0,), (1,)])
    f012 = Tile.make(1, [(0,), (1,), (2,)])
    f03 = Tile.make(1, [(0,), (3,)])
    for n in (2, 4, 6, 8, 10, 12, 14, 16, 18, 20):
        pairs.append((TileTuple.make([f01]), Lattice.diagonal([n])))
    for n in (3, 6, 9, 12, 15, 18):
        pairs.append((TileTuple.make([f012]), Lattice.diagonal([n])))
    for n in (2, 4, 6, 8):
        pairs.append((TileTuple.make([f03]), Lattice.diagonal([n])))
    pairs.append((TileTuple.make([f01, f03]), Lattice.diagonal([4])))
    pairs.append((TileTuple.make([f01, f03]), Lattice.diagonal([8])))
    pair2 = TileTuple.make([Tile.make(2, [(0, 0), (1, 0)]),
                            Tile.make(2, [(0, 0), (0, 1)])])
    for lat in enumerate_sublattices(2, 4):
        pairs.append((pair2, lat))
    pairs.append((box_pair(), Lattice.diagonal([2, 2, 1])))
    pairs.append((box_pair(), Lattice.diagonal([2, 2, 2])))
    assert len(pairs) >= 25
    checked = 0
    for tiles, lat in pairs:
        assert lat.index() <= 20
        fast = [s.members for s in solve_quotient(tiles, lat, mode="all")]
        slow = [s.members for s in brute_force_quotient(tiles, lat)]
        assert fast == slow, (tiles, lat)
        checked += 1
    elapsed = time.monotonic() - start
    _report(9, f"{checked} (tile set, lattice) pairs agree with subset enumeration",
            elapsed)


def test_criterion_10_lattice_algebra():
    start = time.monotonic()
    rng = random.Random(2024)
    pool = [lat for n in range(1, 13) for lat in enumerate_sublattices(2, n)]
    pool3 = [lat for n in range(1, 5) for lat in enumerate_sublattices(3, n)]
    for i in range(100):
        source = pool if i % 2 == 0 else pool3
        l1, l2 = rng.choice(source), rng.choice(source)
        assert (l1.intersect(l2).index() * l1.sum(l2).index()
                == l1.index() * l2.index())

    def sigma(n):
        return sum(d for d in range(1, n + 1) if n % d == 0)

    for n in range(1, 13):
        assert len(enumerate_sublattices(2, n)) == sigma(n)
    elapsed = time.monotonic() - start
    _report(10, "index product identity on 100 pairs; sublattice counts match "
                "the divisor sums", elapsed)
