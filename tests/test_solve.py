import collections
import itertools
import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tilekit.analysis import is_independent_tuple
from tilekit.errors import InputContractError, NotACotileError, NotAPartitionError, TilekitError
from tilekit.lattice import (
    _avoiding,
    Lattice,
    PeriodicSet,
    enumerate_sublattices,
    hnf,
    stabilizer,
    vadd,
    vsub,
)
from tilekit.solve import (
    _cycle_letters,
    _cyclotomic_obstruction,
    _differences,
    _on_stabilizer,
    _Recoder,
    AllDPeriodic,
    SearchProblem,
    brute_force_quotient,
    common_stabilizer,
    independent_cotile_index_bound,
    lift_to_full_period,
    piecewise_to_periodic,
    search_periodic_cotile,
    search_Z_cotile,
    solve_quotient,
)
from tilekit.tiles import Tile, TileTuple
from tilekit import solve as solve_module, verify
from conftest import (
    box_cotile,
    box_pair,
    hnf_lattices,
    placement_lattices,
    residue_order,
    six_block,
)


def test_solve_quotient_box_pair_all():
    tiles = box_pair()
    lat = Lattice.diagonal([2, 2, 1])
    sols = solve_quotient(tiles, lat, mode="all")
    assert len(sols) == 4
    members = {s.sorted_members for s in sols}
    assert members == {((0, 0, 0),), ((1, 0, 0),), ((0, 1, 0),), ((1, 1, 0),)}
    for s in sols:
        assert verify.is_joint_cotile(tiles, s).ok
    # completeness against plain subset enumeration (2^4 subsets)
    oracle = brute_force_quotient(tiles, lat)
    assert [s.members for s in sols] == [s.members for s in oracle]


def test_solve_quotient_unit_pair_in_z():
    tiles = TileTuple.make([Tile.make(1, [(0,), (1,)])])
    sols = solve_quotient(tiles, Lattice.diagonal([2]))
    assert [s.sorted_members for s in sols] == [((0,),), ((1,),)]


def test_solve_quotient_injectivity_infeasible():
    tiles = TileTuple.make([six_block()])
    problem = SearchProblem.build(tiles, Lattice.diagonal([6]))
    assert not problem.feasible and not all(problem.injective)
    assert solve_quotient(tiles, Lattice.diagonal([6])) == []


def test_solve_quotient_first_mode():
    tiles = box_pair()
    first = solve_quotient(tiles, Lattice.diagonal([2, 2, 1]), mode="first")
    assert len(first) == 1
    assert verify.is_joint_cotile(tiles, first[0]).ok


def test_solve_matches_brute_force_on_corpus():
    rng = random.Random(23)
    pairs = []
    f01 = Tile.make(1, [(0,), (1,)])
    f03 = Tile.make(1, [(0,), (3,)])
    f012 = Tile.make(1, [(0,), (1,), (2,)])
    for n in (2, 4, 6, 8, 12):
        pairs.append((TileTuple.make([f01]), Lattice.diagonal([n])))
    for n in (3, 6, 9):
        pairs.append((TileTuple.make([f012]), Lattice.diagonal([n])))
    pairs.append((TileTuple.make([f01, f03]), Lattice.diagonal([4])))
    for lat in enumerate_sublattices(2, 4)[:5]:
        pairs.append((TileTuple.make([Tile.make(2, [(0, 0), (1, 0)]),
                                      Tile.make(2, [(0, 0), (0, 1)])]), lat))
    for tiles, lat in pairs:
        assert ([s.members for s in solve_quotient(tiles, lat)]
                == [s.members for s in brute_force_quotient(tiles, lat)])


def test_solve_matches_brute_force_on_random_instances():
    # random tiles against random lattices, solvable or not
    rng = random.Random(77)
    for trial in range(60):
        d = rng.choice([1, 2])
        if d == 1:
            lat = Lattice.diagonal([rng.randrange(2, 13)])
        else:
            n = rng.randrange(2, 9)
            lat = rng.choice(enumerate_sublattices(2, n))
        k = rng.choice([1, 1, 2])
        tiles = []
        for _ in range(k):
            size = rng.randrange(1, 5)
            pts = {(0,) * d}
            while len(pts) < size:
                pts.add(tuple(rng.randrange(-4, 5) for _ in range(d)))
            tiles.append(Tile.make(d, pts))
        tup = TileTuple.make(tiles)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fast = [s.members for s in solve_quotient(tup, lat, mode="all")]
            slow = [s.members for s in brute_force_quotient(tup, lat)]
        assert fast == slow, (tup, lat)


@st.composite
def _quotient_instances(draw):
    lat = draw(hnf_lattices(12))
    d = lat.dim
    point = st.tuples(*[st.integers(-3, 3)] * d)
    tiles = [Tile.make(d, {(0,) * d} | draw(st.sets(point, max_size=3)))
             for _ in range(draw(st.integers(1, 2)))]
    return TileTuple.make(tiles), lat


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_quotient_instances())
def test_solve_matches_brute_force_on_drawn_hnf_lattices(instance):
    tiles, lat = instance
    assert hnf(lat.dim, lat.basis) == lat and lat.index() <= 12
    assert ([s.members for s in solve_quotient(tiles, lat, mode="all")]
            == [s.members for s in brute_force_quotient(tiles, lat)])


@st.composite
def _placement_instances(draw):
    lat = draw(placement_lattices())
    d = lat.dim
    point = st.tuples(*[st.integers(-6, 6)] * d)
    tiles = [Tile.make(d, {(0,) * d} | draw(st.sets(point, max_size=4)))
             for _ in range(draw(st.integers(1, 2)))]
    return TileTuple.make(tiles), lat


def _reference_cover_masks(tiles, lat):
    """Every exact cover of Z^d / L as a mask of placements, in the order of
    sorted_members.  Each placement's mask is built point by point: every
    sum a + f goes through Lattice.reduce and is numbered by its place in
    residue_order, so no head row, rotation or numbers call is shared with
    solve_quotient.  A tile that does not project one-to-one has no
    placement, as in brute_force_quotient."""
    residues = residue_order(lat)
    index_of = {r: a for a, r in enumerate(residues)}
    n = len(residues)
    masks = []
    for r in residues:
        cells = [i * n + index_of[lat.reduce(vadd(r, f))]
                 for i, tile in enumerate(tiles) for f in tile.sorted_points]
        if len(set(cells)) < len(cells):
            return []
        masks.append(sum(1 << c for c in cells))
    full = (1 << n * len(tiles.tiles)) - 1
    found = []
    stack = [(0, 0)]
    while stack:
        covered, chosen = stack.pop()
        if covered == full:
            found.append(chosen)
            continue
        y = next(c for c in range(n * len(tiles.tiles)) if not covered >> c & 1)
        for a, mask in enumerate(masks):
            if mask >> y & 1 and not mask & covered:
                stack.append((covered | mask, chosen | 1 << a))
    return sorted(found, key=lambda chosen: sorted(r for a, r in enumerate(residues)
                                                   if chosen >> a & 1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_placement_instances())
def test_solve_quotient_matches_a_per_point_exact_cover(instance):
    tiles, lat = instance
    assert ([s.mask for s in solve_quotient(tiles, lat)]
            == _reference_cover_masks(tiles, lat))


def test_solve_quotient_depth_beyond_recursion_limit():
    # one branch per residue: 1200 nested choices
    tiles = TileTuple.make([Tile.make(1, [(0,)])])
    sols = solve_quotient(tiles, Lattice.diagonal([1200]))
    assert len(sols) == 1
    assert len(sols[0].members) == 1200


FIRST_MODE_PINS = Path(__file__).resolve().parent / "first_mode_pins.json"


def test_first_mode_returns_pinned_members():
    # The first solution of every case, recorded from the counter-and-trail
    # search that the bitmask engine replaced: the instances above, the box
    # pair on every productive sublattice of index 8 and 12, and every tile of
    # Z with diameter at most 7 at its least period.  null pins no solution.
    cases = json.loads(FIRST_MODE_PINS.read_text())
    assert len(cases) == 170
    for case in cases:
        dim = len(case["lattice"])
        tiles = TileTuple.make([Tile.make(dim, [tuple(p) for p in t]) for t in case["tiles"]])
        lat = hnf(dim, case["lattice"])
        found = solve_quotient(tiles, lat, mode="first")
        got = [list(m) for m in found[0].sorted_members] if found else None
        assert got == case["members"], case


SWEEP_PINS = Path(__file__).resolve().parent / "sweep_pins.json"


def test_search_periodic_cotile_returns_pinned_sweeps():
    # The all-mode output, in order, recorded from the sweep that kept a
    # solution when stabilizer(aset) equalled its lattice: the domino, the
    # L-tromino, the 2x2 square and 20 seeded random 3- and 4-point tiles of
    # Z^2 to index 16, every tile of Z with diameter at most 5 to index 24,
    # and the box pair to index 8 in three unimodular frames.
    cases = json.loads(SWEEP_PINS.read_text())
    assert len(cases) == 58
    start = time.perf_counter()
    for case in cases:
        dim = len(case["tiles"][0][0])
        tiles = TileTuple.make([Tile.make(dim, [tuple(p) for p in t]) for t in case["tiles"]])
        found = search_periodic_cotile(tiles, case["max_index"], mode="all")
        got = [[[list(c) for c in lat.basis], [list(m) for m in aset.sorted_members]]
               for lat, aset in found]
        assert got == case["found"], case["case"]
    assert time.perf_counter() - start < 2.0


_MAX_INDEX = {1: 64, 2: 24, 3: 12}


@st.composite
def _feasibility_instances(draw):
    """(tiles, n): 1-3 tiles of drawn sizes with negative coordinates, or the
    box pair in a unimodular frame made, as sweep3d's are, of six elementary
    row additions; n up to 64, 24 or 12 in dimension 1, 2 or 3, half the
    time a multiple of the first tile's size, as the sweep asks."""
    d = draw(st.integers(1, 3))
    if d == 3 and draw(st.booleans()):
        frame = [[int(i == j) for j in range(3)] for i in range(3)]
        for _ in range(6):
            i, j = draw(st.permutations(range(3)))[:2]
            sign = draw(st.sampled_from((-1, 1)))
            frame = [[a + sign * b for a, b in zip(frame[r], frame[j])] if r == i else frame[r]
                     for r in range(3)]
        tiles = TileTuple.make([Tile.make(3, [tuple(sum(m * x for m, x in zip(row, p))
                                                    for row in frame) for p in t.points])
                                for t in box_pair()])
    else:
        point = st.tuples(*[st.integers(-12 // d, 12 // d)] * d)
        tiles = TileTuple.make([Tile.make(d, {(0,) * d} | draw(st.sets(point, max_size=4)))
                                for _ in range(draw(st.integers(1, 3)))])
    size, top = tiles[0].size, _MAX_INDEX[d]
    return tiles, draw(st.one_of(st.integers(1, top // size).map(size.__mul__),
                                 st.integers(1, top)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_feasibility_instances())
def test_hermite_row_walk_keeps_the_candidates_that_build_finds_feasible(instance):
    # The Hermite-row walk against the projection of every tile point, on the
    # same candidate list, position by position.
    tiles, n = instance
    divides = not any(n % t.size for t in tiles)
    assert [bool(flag) and divides for flag in _avoiding(tiles.dim, n, _differences(tiles))] == [
        SearchProblem.build(tiles, lat).feasible for lat in enumerate_sublattices(tiles.dim, n)]


def test_sweep_builds_and_solves_only_feasible_lattices(monkeypatch):
    # The box pair to index 12 has 645 candidates, of which 346 are feasible;
    # the 299 others are skipped before any quotient is built.  With sizes 2
    # and 3, only the indices 6 and 12 are built at all.
    problems, solved = [], []
    build, solve = SearchProblem.build, solve_module.solve_quotient

    def counted_build(tiles, lat):
        problems.append(build(tiles, lat))
        return problems[-1]

    def counted_solve(tiles, lat, mode="all"):
        solved.append(lat)
        return solve(tiles, lat, mode=mode)

    monkeypatch.setattr(SearchProblem, "build", staticmethod(counted_build))
    monkeypatch.setattr(solve_module, "solve_quotient", counted_solve)
    assert len(search_periodic_cotile(box_pair(), 12)) == 76
    assert sum(len(enumerate_sublattices(3, n)) for n in (4, 8, 12)) == 645
    assert (len(problems), len(solved)) == (346, 346)
    assert all(problem.feasible for problem in problems)
    problems.clear()
    domino = Tile.make(2, [(0, 0), (1, 0)])
    tromino = Tile.make(2, [(0, 0), (1, 0), (0, 1)])
    search_periodic_cotile(TileTuple.make([domino, tromino]), 12)
    assert problems
    assert all(p.feasible and p.lattice.index() in (6, 12) for p in problems)


@st.composite
def _bound_instances(draw):
    """One or two tiles of one size among 2, 4 and 6, in Z^2 or Z^3, on a
    canonical lattice of index at most 16; the size divides the index when
    one of them can."""
    d = draw(st.sampled_from((2, 3)))
    lat = draw(hnf_lattices(16, dim=d))
    size = draw(st.sampled_from([s for s in (2, 4, 6) if lat.index() % s == 0] or [2]))
    point = st.tuples(*[st.integers(-3, 3)] * d).filter(any)
    tiles = [Tile.make(d, [(0,) * d] + draw(st.lists(point, min_size=size - 1,
                                                     max_size=size - 1, unique=True)))
             for _ in range(draw(st.integers(1, 2)))]
    return TileTuple.make(tiles), lat


def test_cyclotomic_bound_fires_only_where_subset_enumeration_finds_no_cotile():
    # Wherever the bound proves a feasible quotient empty, brute_force_quotient,
    # which shares no code with it, finds no co-tile.  The feasible draws are
    # counted by (fired, has a co-tile, number of tiles) and the counts are
    # pinned, so the check is never vacuous: the bound fires on single tiles
    # and on pairs, and co-tiles occur for both.
    seen = collections.Counter()

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_bound_instances())
    def check(instance):
        tiles, lat = instance
        problem = SearchProblem.build(tiles, lat)
        if problem.feasible:
            empty = _cyclotomic_obstruction(problem)
            found = brute_force_quotient(tiles, lat)
            assert not (empty and found)
            seen[empty, bool(found), len(tiles.tiles)] += 1

    check()
    assert seen == {(True, False, 1): 30, (True, False, 2): 42, (False, False, 1): 1,
                    (False, True, 1): 62, (False, True, 2): 44}


def _plain_cyclotomic_bound(tiles, lat):
    """The bound counted plainly: every row c in (Z/p^k)^d, by
    itertools.product, that vanishes on the basis columns and has an entry
    prime to p is a hom chi onto Z/p^k, chi(f) = c.f mod p^k on the tile
    points, and Phi_(p^t) divides an image when the sorted image modulo p^t
    is unchanged by adding p^(t-1).  Shares no code with characters or the
    packed counts."""
    n, size, d = lat.index(), tiles[0].size, lat.dim

    def valuation(m, p):
        return next(v for v in itertools.count() if m % p ** (v + 1))

    for p in (p for p in range(2, size + 1) if size % p == 0
              and all(p % r for r in range(2, p))):
        e = valuation(n // size, p)
        for k in range(e + 1, valuation(n, p) + 1):
            q = p ** k
            for c in itertools.product(range(q), repeat=d):
                if not any(x % p for x in c) or any(
                        sum(a * b for a, b in zip(c, col)) % q for col in lat.basis):
                    continue
                images = [[sum(a * b for a, b in zip(c, f)) % q for f in t.sorted_points]
                          for t in tiles]
                levels = sum(1 for t in range(1, k + 1) if any(
                    sorted(v % p ** t for v in image)
                    != sorted((v + p ** (t - 1)) % p ** t for v in image) for image in images))
                if levels > e:
                    return True
    return False


# {0, 1, 4, 5} and {0, 3, 4, 7} on Z/8 share the co-tile {0, 2}: both images
# are divisible by Phi_8, with different counts in their upper halves, and
# only Phi_4 fails, once; the packed counts of the two must not mix.
_SHARED_COTILE = (TileTuple.make([Tile.make(2, [(x, 0) for x in xs])
                                  for xs in ((0, 1, 4, 5), (0, 3, 4, 7))]),
                  Lattice.diagonal([8, 1]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_bound_instances())
@example(_SHARED_COTILE)
def test_cyclotomic_bound_matches_a_plain_count(instance):
    tiles, lat = instance
    problem = SearchProblem.build(tiles, lat)
    if problem.feasible:
        assert _cyclotomic_obstruction(problem) == _plain_cyclotomic_bound(tiles, lat)
    if instance is _SHARED_COTILE:
        found = solve_quotient(tiles, lat)
        assert PeriodicSet.make(lat, [(0, 0), (2, 0)]) in found
        assert found == brute_force_quotient(tiles, lat)


def test_cyclotomic_bound_on_the_box_pair():
    # Of the box pair's feasible lattices, the bound empties 282 of 346 to
    # index 12 (45 at index 8, 237 at 12) and 2583 of 3217 to index 24;
    # 63 and 534 of them have co-tiles.
    feasible, fired = {}, {}
    for n in range(4, 25, 4):
        for lat in enumerate_sublattices(3, n):
            problem = SearchProblem.build(box_pair(), lat)
            if problem.feasible:
                feasible[n] = feasible.get(n, 0) + 1
                fired[n] = fired.get(n, 0) + _cyclotomic_obstruction(problem)
    assert fired == {4: 0, 8: 45, 12: 237, 16: 323, 20: 715, 24: 1263}
    assert sum(feasible[n] for n in (4, 8, 12)) == 346
    assert sum(feasible.values()) == 3217 and sum(fired.values()) == 2583


def test_solve_quotient_consults_the_bound_in_dimension_two_and_up(monkeypatch):
    # In dimension 1 the bound is left out; elsewhere solve_quotient asks it
    # once per feasible quotient, after the build, and an empty answer follows.
    asked = []

    def bound(problem):
        asked.append(problem.lattice)
        return True

    monkeypatch.setattr(solve_module, "_cyclotomic_obstruction", bound)
    assert solve_quotient(TileTuple.make([Tile.make(1, [(0,), (1,)])]), Lattice.diagonal([4]))
    assert asked == []
    assert solve_quotient(box_pair(), Lattice.diagonal([2, 2, 1])) == []
    assert solve_quotient(box_pair(), Lattice.diagonal([3, 1, 1])) == []
    assert asked == [Lattice.diagonal([2, 2, 1])]


@st.composite
def _periodic_sets(draw):
    """Non-empty member sets on a lattice of index at most 24, half of them
    closed under a drawn shift so that stabilizers beyond the lattice occur."""
    lat = draw(hnf_lattices(24))
    members = set(draw(st.sets(st.sampled_from(lat.quotient().residues), min_size=1)))
    if draw(st.booleans()):
        shift = draw(st.tuples(*[st.integers(-3, 3)] * lat.dim))
        frontier = list(members)
        while frontier:
            r = lat.reduce(vadd(frontier.pop(), shift))
            if r not in members:
                members.add(r)
                frontier.append(r)
    return PeriodicSet.make(lat, members)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_periodic_sets())
def test_keep_test_by_differences_matches_stabilizer(aset):
    assert _on_stabilizer(aset) == (stabilizer(aset) == aset.lattice)


def test_keep_test_matches_stabilizer_on_every_raw_box_pair_solution():
    # every raw solve_quotient solution of the sweep to index 16, kept or
    # not, against the stabilizer routine, which shares no code with the
    # head rows
    tiles = box_pair()
    raw = [aset for n in (4, 8, 12, 16) for lat in enumerate_sublattices(3, n)
           for aset in solve_quotient(tiles, lat)]
    kept = [aset for aset in raw if _on_stabilizer(aset)]
    assert kept == [aset for aset in raw if stabilizer(aset) == aset.lattice]
    assert len(kept) == 172 < len(raw)


def test_search_periodic_cotile_box_pair():
    tiles = box_pair()
    found = search_periodic_cotile(tiles, 4)
    assert found
    for lat, aset in found:
        assert verify.is_joint_cotile(tiles, aset).ok
        assert lat.rank == 3
        assert stabilizer(aset) == lat
    # the canonical co-tile is among them
    assert any(aset.same_set(box_cotile()) for _, aset in found)


def test_search_periodic_cotile_origin_tile():
    tiles = TileTuple.make([Tile.make(2, [(0, 0)])])
    found = search_periodic_cotile(tiles, 1)
    assert len(found) == 1
    assert found[0][1].same_set(PeriodicSet.make(Lattice.identity(2), [(0, 0)]))


def test_search_periodic_cotile_rejects_unknown_mode():
    tiles = TileTuple.make([Tile.make(1, [(0,), (1,)])])
    with pytest.raises(ValueError):
        search_periodic_cotile(tiles, 8, mode="frist")


def test_search_periodic_cotile_deduplicates():
    tiles = TileTuple.make([Tile.make(1, [(0,), (1,)])])
    found = search_periodic_cotile(tiles, 8)
    # 2Z and 1+2Z, regardless of how many presentation lattices produced them
    assert len(found) == 2
    assert all(lat == Lattice.diagonal([2]) for lat, _ in found)


def test_search_Z_cotile_six_block_no_tiling():
    res = search_Z_cotile(six_block())
    assert not res.tiles
    assert res.period_bound == 256
    assert all(p % 6 == 0 for p in res.periods_checked)


def test_search_Z_cotile_small_cases():
    res = search_Z_cotile(Tile.make(1, [(0,)]))
    assert res.tiles and res.cotile.lattice.index() == 1
    res = search_Z_cotile(Tile.make(1, [(0,), (2,)]))
    assert res.tiles
    assert verify.is_tiling(Tile.make(1, [(0,), (2,)]), res.cotile).ok


def _per_period_search_Z(tile):
    """Reference decider: one quotient search per candidate period, up to
    the pigeonhole bound 2^(diam+1)."""
    diam = tile.diameter()
    bound = 2 ** (diam + 1)
    diffs = {abs(a[0] - b[0]) for a in tile.points for b in tile.points if a != b}
    checked = []
    for p in range(tile.size, bound + 1, tile.size):
        if any(dd % p == 0 for dd in diffs):
            continue
        checked.append(p)
        found = solve_quotient(TileTuple.make([tile]), Lattice.diagonal([p]), mode="first")
        if found:
            return found[0], bound, tuple(checked)
    return None, bound, tuple(checked)


def test_search_Z_matches_per_period_search():
    # every normalized tile of diameter at most 6, with 0 as its least and
    # as its greatest point
    for diam in range(7):
        for inner in itertools.chain.from_iterable(
                itertools.combinations(range(1, diam), k) for k in range(diam)):
            points = {0, diam, *inner}
            for shift in {0, -diam}:
                tile = Tile.make(1, [(p + shift,) for p in points])
                res = search_Z_cotile(tile)
                assert (res.cotile, res.period_bound, res.periods_checked) \
                    == _per_period_search_Z(tile), tile


def _cross_validate_z(diams):
    for diam in diams:
        for inner in itertools.chain.from_iterable(
                itertools.combinations(range(1, diam), k) for k in range(diam)):
            tile = Tile.make(1, [(0,)] + [(i,) for i in inner] + [(diam,)])
            direct = search_Z_cotile(tile)
            via = search_periodic_cotile(TileTuple.make([tile]),
                                         2 ** (diam + 1), mode="first")
            assert direct.tiles == bool(via), tile
            if direct.tiles:
                assert verify.is_tiling(tile, direct.cotile).ok


def test_search_Z_agrees_with_lattice_search():
    # every normalized tile of diameter at most 6
    _cross_validate_z(range(1, 7))


@pytest.mark.slow
def test_search_Z_agrees_with_lattice_search_full_bound():
    # completes the cross-validation up to diameter 8
    _cross_validate_z((7, 8))


class _EagerBlockGraph:
    """Reference for _cycle_letters: the block graph built in full, every
    window word decided before the search looks at any node."""

    def __init__(self, alphabet, window, legal):
        self.window = window
        if window <= 1:
            self.nodes = ((),)
            self.edges = {(): tuple(a for a in alphabet if legal((a,)))}
            return
        nodes = set()
        edges = {}
        for word in itertools.product(alphabet, repeat=window):
            if legal(word):
                nodes.update((word[:-1], word[1:]))
                edges.setdefault(word[:-1], []).append(word[1:])
        self.nodes = tuple(sorted(nodes))
        self.edges = {n: tuple(sorted(edges.get(n, ()))) for n in self.nodes}

    def cycle_letters(self):
        if self.window <= 1:
            loops = self.edges[()]
            return (loops[0],) if loops else None
        color = {}
        for start in self.nodes:
            if color.get(start):
                continue
            stack = [(start, iter(self.edges[start]))]
            on_path = [start]
            color[start] = 1
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if color.get(nxt) == 1:
                        return tuple(n[0] for n in on_path[on_path.index(nxt):])
                    if color.get(nxt) != 2:
                        color[nxt] = 1
                        on_path.append(nxt)
                        stack.append((nxt, iter(self.edges[nxt])))
                        advanced = True
                        break
                if not advanced:
                    color[node] = 2
                    on_path.pop()
                    stack.pop()
        return None


def _extensions(alphabet, legal):
    """_cycle_letters' extensions from a predicate on whole window words."""
    return lambda node: (a for a in alphabet if legal(node + (a,)))


def test_block_graph_cycle():
    alphabet = ((0,), (1,))
    letters = _cycle_letters(alphabet, 2, _extensions(alphabet, lambda w: w[0] != w[1]))
    assert sorted(letters) == [(0,), (1,)]
    assert _cycle_letters(alphabet, 2, _extensions(alphabet, lambda w: False)) is None


@st.composite
def _window_systems(draw):
    """m, window and a set of legal window words over the 2^m letters."""
    m = draw(st.integers(1, 2))
    window = draw(st.integers(1, 4))
    alphabet = list(itertools.product((0, 1), repeat=m))
    words = list(itertools.product(alphabet, repeat=window))
    return m, window, frozenset(draw(st.sets(st.sampled_from(words))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_window_systems())
def test_cycle_letters_matches_eager_block_graph(system):
    m, window, legal_words = system
    calls = []

    def legal(word):
        calls.append(word)
        return word in legal_words

    alphabet = tuple(itertools.product((0, 1), repeat=m))
    expected = _EagerBlockGraph(alphabet, window, legal).cycle_letters()
    eager_calls = len(calls)
    calls.clear()
    assert _cycle_letters(alphabet, window, _extensions(alphabet, legal)) == expected
    assert len(calls) <= eager_calls


def test_lift_striped_cotile():
    tiles = TileTuple.make([Tile.make(2, [(0, 0), (1, 0)])])
    striped = PeriodicSet.make(Lattice.diagonal([2, 1]), [(0, 0)])
    gamma0 = hnf(2, [(0, 1)])
    lifted = lift_to_full_period(tiles, gamma0, striped)
    assert stabilizer(lifted).rank == 2
    assert verify.is_joint_cotile(tiles, lifted).ok


def test_lift_already_periodic_fixture():
    tiles = TileTuple.make([Tile.make(2, [(0, 0), (0, 1)])])
    aset = PeriodicSet.make(Lattice.diagonal([1, 2]), [(0, 0)])
    lifted = lift_to_full_period(tiles, hnf(2, [(1, 0)]), aset)
    assert stabilizer(lifted).rank == 2
    assert verify.is_joint_cotile(tiles, lifted).ok


def test_lift_degenerate_dimension_one():
    tiles = TileTuple.make([Tile.make(1, [(0,), (1,)])])
    aset = PeriodicSet.make(Lattice.diagonal([2]), [(0,)])
    lifted = lift_to_full_period(tiles, Lattice.zero(1), aset)
    assert verify.is_joint_cotile(tiles, lifted).ok


def test_lift_three_dimensional():
    tiles = box_pair()
    aset = box_cotile()
    gamma0 = hnf(3, [(2, 0, 0), (0, 2, 0)])
    out = lift_to_full_period(tiles, gamma0, aset)
    assert stabilizer(out).rank == 3
    assert verify.is_joint_cotile(tiles, out).ok


def test_lift_contract_checks():
    tiles = TileTuple.make([Tile.make(2, [(0, 0), (1, 0)])])
    striped = PeriodicSet.make(Lattice.diagonal([2, 1]), [(0, 0)])
    with pytest.raises(InputContractError):
        lift_to_full_period(tiles, Lattice.identity(2), striped)  # rank 2, not d-1
    with pytest.raises(InputContractError):
        # (1,0) does not stabilize the striped set
        lift_to_full_period(tiles, hnf(2, [(1, 0)]), striped)
    bad = PeriodicSet.make(Lattice.diagonal([2, 1]), [(0, 0), (1, 0)])
    with pytest.raises(NotACotileError):
        lift_to_full_period(tiles, hnf(2, [(0, 1)]), bad)


def test_lift_refuses_large_block_graph_before_building_it():
    # gamma0 = Z(0, 40) gives a 40-residue domain: 2^40 letters, refused
    # by the size test before any letter is built
    tiles = TileTuple.make([Tile.make(2, [(0, 0), (1, 0)])])
    striped = PeriodicSet.make(Lattice.diagonal([2, 1]), [(0, 0)])
    start = time.perf_counter()
    with pytest.raises(InputContractError, match="block graph too large"):
        lift_to_full_period(tiles, hnf(2, [(0, 40)]), striped)
    assert time.perf_counter() - start < 1.0


LIFT_PINS = Path(__file__).resolve().parent / "lift_pins.json"


def _pinned_set(dim, doc):
    return PeriodicSet.make(hnf(dim, doc["lattice"]), [tuple(m) for m in doc["members"]])


def test_lift_returns_pinned_results():
    # Lattice basis and members, or the exception type, recorded from the
    # eager block-graph build that the lazy walk replaced.  The corpus: a 4x3
    # rectangle on a sheared refined co-tile with gamma0 = Z(3, 3); the 3-D
    # box pair under several gamma0 and refinements; rectangles up to 4 cells
    # on sheared lattice co-tiles, plain and refined, under four gamma0 each;
    # contract failures; and 100 seeded piecewise inputs of the domino (rows of
    # 2Z x Z, shifted independently, grouped into pieces, with declared
    # stabilizers such as Z(0, 4) or none).
    cases = json.loads(LIFT_PINS.read_text())
    assert len(cases) == 208
    for case in cases:
        dim = len(case["tiles"][0][0])
        tiles = TileTuple.make([Tile.make(dim, [tuple(p) for p in t]) for t in case["tiles"]])
        try:
            if case["op"] == "lift":
                out = lift_to_full_period(tiles, hnf(dim, case["gamma0"]),
                                          _pinned_set(dim, case["cotile"]))
            else:
                declared = case["declared"]
                out = piecewise_to_periodic(
                    tiles, [_pinned_set(dim, p) for p in case["pieces"]],
                    None if declared is None else [hnf(dim, g) for g in declared])
        except TilekitError as exc:
            assert type(exc).__name__ == case["error"], case
            continue
        assert case["error"] is None, case
        assert [list(c) for c in out.lattice.basis] == case["lattice"], case
        assert [list(m) for m in out.sorted_members] == case["members"], case


def _domino_setup():
    tiles = TileTuple.make([Tile.make(2, [(0, 0), (1, 0)])])
    a1 = PeriodicSet.make(Lattice.diagonal([2, 2]), [(0, 0)])
    a2 = PeriodicSet.make(Lattice.diagonal([2, 2]), [(0, 1)])
    return tiles, a1, a2


def test_piecewise_disjoint_hyperplanes():
    tiles, a1, a2 = _domino_setup()
    declared = [hnf(2, [(0, 2)]), hnf(2, [(2, 0)])]
    out = piecewise_to_periodic(tiles, [a1, a2], declared_stabilizers=declared)
    assert verify.is_joint_cotile(tiles, out).ok
    assert stabilizer(out).rank == 2


def test_piecewise_merging_route():
    tiles, a1, a2 = _domino_setup()
    declared = [hnf(2, [(0, 2)]), hnf(2, [(0, 2)])]
    out = piecewise_to_periodic(tiles, [a1, a2], declared_stabilizers=declared)
    assert verify.is_joint_cotile(tiles, out).ok
    assert stabilizer(out).rank == 2


@pytest.mark.parametrize("order, members", [
    ("VVH", ((0, 5), (1, 0), (1, 1), (1, 2), (1, 3), (1, 4))),
    ("VHV", ((0, 4), (1, 0), (1, 1), (1, 2), (1, 3), (1, 5))),
])
def test_piecewise_merges_pieces_declared_on_one_hyperplane(order, members):
    # three rows of 2Z x Z on diag(2, 3); the declared stabilizers meet in {0},
    # so the pieces declared vertical are merged and each group re-solved
    tiles = TileTuple.make([Tile.make(2, [(0, 0), (1, 0)])])
    pieces = [PeriodicSet.make(Lattice.diagonal([2, 3]), [(0, k)]) for k in range(3)]
    lattice = {"V": hnf(2, [(0, 3)]), "H": hnf(2, [(2, 0)])}
    out = piecewise_to_periodic(tiles, pieces,
                                declared_stabilizers=[lattice[c] for c in order])
    assert out.lattice.basis == ((2, 0), (0, 6))
    assert out.sorted_members == members


def test_piecewise_default_route_returns_canonical_union():
    tiles, a1, a2 = _domino_setup()
    out = piecewise_to_periodic(tiles, [a1, a2])
    assert out.same_set(PeriodicSet.make(Lattice.diagonal([2, 1]), [(0, 0)]))


def test_piecewise_single_periodic_piece_unchanged():
    tiles, _, _ = _domino_setup()
    aset = PeriodicSet.make(Lattice.diagonal([2, 1]), [(0, 0)])
    assert piecewise_to_periodic(tiles, [aset]).same_set(aset)


def test_not_a_cotile_message_prints_rationals():
    tiles, a1, _ = _domino_setup()
    with pytest.raises(NotACotileError) as exc:
        piecewise_to_periodic(tiles, [a1])
    assert str(exc.value) == "tile 0 fails: ((0, 1), 0), ((1, 1), 0)"


def test_piecewise_rejects_non_cotile_and_overlap():
    tiles, a1, a2 = _domino_setup()
    with pytest.raises(NotACotileError):
        piecewise_to_periodic(tiles, [a1])
    with pytest.raises(InputContractError):
        piecewise_to_periodic(tiles, [a1, a1.translate((0, 0))])


def test_common_stabilizer_column_partition():
    evens = PeriodicSet.make(Lattice.diagonal([2, 1]), [(0, 0)])
    odds = PeriodicSet.make(Lattice.diagonal([2, 1]), [(1, 0)])
    verdict = common_stabilizer([evens, odds])
    assert isinstance(verdict, AllDPeriodic)
    # the carried intersection genuinely stabilizes every piece
    for piece in (evens, odds):
        for col in verdict.common.basis:
            assert piece.translate(col).members == piece.members


def test_common_stabilizer_single_full_piece():
    whole = PeriodicSet.make(Lattice.identity(2), [(0, 0)])
    assert isinstance(common_stabilizer([whole]), AllDPeriodic)


def test_common_stabilizer_rejects_non_partition():
    evens = PeriodicSet.make(Lattice.diagonal([2, 1]), [(0, 0)])
    with pytest.raises(NotAPartitionError):
        common_stabilizer([evens])
    with pytest.raises(NotAPartitionError):
        common_stabilizer([evens, evens])


def test_independent_index_bound_is_sufficient_for_unit_pair():
    tiles = TileTuple.make([Tile.make(2, [(0, 0), (1, 0)]),
                            Tile.make(2, [(0, 0), (0, 1)])])
    bound = independent_cotile_index_bound(tiles)
    assert bound == 4
    found = search_periodic_cotile(tiles, bound)
    assert found
    for lat, aset in found:
        assert lat.rank == 2
        assert verify.is_joint_cotile(tiles, aset).ok
    # searching beyond the bound discovers nothing new
    beyond = search_periodic_cotile(tiles, 2 * bound)
    assert {(l.basis, a.sorted_members) for l, a in found} == \
        {(l.basis, a.sorted_members) for l, a in beyond}


def test_independent_index_bound_with_origin_tile():
    # {0} forces the co-tile Z^2, so the bound is its stabilizer index
    tiles = TileTuple.make([Tile.make(2, [(0, 0), (1, 0)]), Tile.make(2, [(0, 0)])])
    assert is_independent_tuple(tiles)
    assert independent_cotile_index_bound(tiles) == 1


@st.composite
def _recoder_cases(draw):
    """A rank-(d-1) lattice gamma0 in Z^d, a vector v outside its span, and
    points to split."""
    d = draw(st.integers(2, 3))
    vector = st.tuples(*[st.integers(-4, 4)] * d)
    gamma0 = hnf(d, draw(st.lists(vector, min_size=d - 1, max_size=d - 1)))
    v = draw(vector)
    assume(gamma0.rank == d - 1 and hnf(d, gamma0.basis + (v,)).is_full_rank)
    return gamma0, v, draw(st.lists(st.tuples(*[st.integers(-20, 20)] * d),
                                    min_size=1, max_size=4))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_recoder_cases())
def test_recoder_split_matches_rational_solve(case):
    sympy = pytest.importorskip("sympy")
    gamma0, v, points = case
    d = gamma0.dim
    full = hnf(d, gamma0.basis + (v,))
    rec = _Recoder(gamma0, v)
    mixed = sympy.Matrix(d, d, [c[i] for i in range(d) for c in gamma0.basis + (v,)])
    for w in points:
        n, u = rec.split(w)
        assert u == full.reduce(w)
        x = mixed.LUsolve(sympy.Matrix(vsub(w, u)))
        assert all(c.is_integer for c in x) and x[-1] == n
