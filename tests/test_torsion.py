import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tilekit import torsion
from tilekit.decompose import is_prime
from tilekit.errors import EmptyOrFullError, InputContractError, NotACotileError, NotPrimeError
from tilekit.lattice import Lattice, PeriodicSet
from tilekit.tiles import PeriodicRationalFunction, Tile, convolve, indicator
from tilekit.torsion import (
    RING_INVERSE_MAX_P,
    MixedPeriodicSet,
    MixedTile,
    classify,
    cotile_conclusion,
    ring_inverse,
)
from tilekit.verify import is_tiling


def _inverts(inverse, subset):
    """g * 1_{F0} = delta_0, by the general convolution on the lattice pZ of Z."""
    ring = Lattice.diagonal([inverse.p])
    g = PeriodicRationalFunction.make(ring, {(t,): v for t, v in enumerate(inverse.values)})
    return (convolve(Tile.make(1, [(s,) for s in subset]), g)
            == indicator(PeriodicSet.make(ring, [(0,)])))


def _tiles(tile, aset):
    """1_F * 1_A = 1 on the mixed group, checked on the lifts to Z^2."""
    return is_tiling(tile.lifted(), aset.lifted()).ok


def test_ring_inverse_identity_and_group_element():
    assert ring_inverse({0}, 5).values == (1, 0, 0, 0, 0)
    assert ring_inverse({1}, 2).values == (Fraction(0), Fraction(1))


def test_ring_inverse_frozen_example():
    g = ring_inverse({0, 1}, 3)
    assert g.values == (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2))
    assert _inverts(g, {0, 1})
    assert not _inverts(ring_inverse({0, 2}, 3), {0, 1})


def test_ring_inverse_exhaustive_small_primes():
    count = 0
    for p in (2, 3, 5, 7):
        for size in range(1, p):
            for subset in itertools.combinations(range(p), size):
                assert _inverts(ring_inverse(set(subset), p), subset)
                count += 1
    assert count == 164


def test_ring_inverse_matches_sympy_invert():
    """The coefficients of sympy's inverse of sum_{i in F0} x^i modulo x^p - 1
    over QQ, an oracle that shares no code with the integer kernel: every
    subset for p <= 7, and drawn subsets for primes whose inverses have
    denominators of about p bits."""
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")

    def expected(subset, p):
        inv = sympy.Poly(sympy.invert(sum(x ** i for i in subset), x ** p - 1,
                                      domain=sympy.QQ), x)
        coeffs = inv.all_coeffs()[::-1]
        coeffs += [0] * (p - len(coeffs))
        return tuple(Fraction(int(c.p), int(c.q)) for c in map(sympy.Rational, coeffs))

    cases = [(set(subset), p) for p in (2, 3, 5, 7) for size in range(1, p)
             for subset in itertools.combinations(range(p), size)]
    assert len(cases) == 164
    rng = random.Random(61)
    cases += [(set(rng.sample(range(p), rng.randrange(1, p))), p)
              for p in (31, 61) for _ in range(3)]
    for subset, p in cases:
        assert ring_inverse(subset, p).values == expected(subset, p)


def test_ring_inverse_errors():
    with pytest.raises(NotPrimeError):
        ring_inverse({0}, 4)
    with pytest.raises(NotPrimeError):
        ring_inverse({0}, 1)
    with pytest.raises(EmptyOrFullError):
        ring_inverse(set(), 3)
    with pytest.raises(EmptyOrFullError):
        ring_inverse({0, 1, 2}, 3)


def test_ring_inverse_refuses_primes_above_the_limit(monkeypatch):
    assert is_prime(RING_INVERSE_MAX_P)
    assert ring_inverse({0}, RING_INVERSE_MAX_P).values == (1,) + (0,) * (RING_INVERSE_MAX_P - 1)
    p = next(q for q in itertools.count(RING_INVERSE_MAX_P + 1) if is_prime(q))

    def no_circulant(rows, width):
        raise AssertionError("the circulant was built")

    # refused at once: the circulant's kernel is never taken
    monkeypatch.setattr(torsion, "_integer_kernel", no_circulant)
    with pytest.raises(InputContractError, match=f"p = {p} is above {RING_INVERSE_MAX_P}"):
        ring_inverse({0, 1}, p)
    # classification and full-fiber verdicts need no inverse, at any prime
    full = MixedTile.make(p, [(0, t) for t in range(p)])
    assert classify(full).is_full_fiber
    assert cotile_conclusion(full, MixedPeriodicSet.make(p, 1, [(0, 0)])).kind == "full_fiber"
    assert classify(MixedTile.make(p, [(0, 0)])).kind == "generic"


def test_classify_product_form():
    tile = MixedTile.make(3, [(n, t) for n in (0, 1) for t in range(3)])
    cls = classify(tile)
    assert cls.is_full_fiber
    assert cls.base.points == frozenset({(0,), (1,)})
    # single full column is the product form with base {0}
    single = MixedTile.make(2, [(0, 0), (0, 1)])
    assert classify(single).is_full_fiber


def test_classify_generic():
    assert classify(MixedTile.make(2, [(0, 0)])).kind == "generic"
    assert classify(MixedTile.make(2, [(0, 0), (0, 1), (1, 0)])).kind == "generic"


def test_classify_round_trip_random_bases():
    rng = random.Random(41)
    for _ in range(20):
        p = rng.choice([2, 3, 5])
        cols = sorted(rng.sample(range(-5, 6), rng.randrange(1, 4)))
        tile = MixedTile.make(p, [(n, t) for n in cols for t in range(p)])
        cls = classify(tile)
        assert cls.is_full_fiber
        assert cls.base.points == frozenset((n,) for n in cols)


def test_generic_cotile_is_periodic():
    tile = MixedTile.make(2, [(0, 0), (1, 1)])
    aset = MixedPeriodicSet.make(2, 1, [(0, 0)])
    assert _tiles(tile, aset)
    verdict = cotile_conclusion(tile, aset)
    assert verdict.kind == "generic"
    assert verdict.periodic
    assert verdict.stabilizer_generator == (1, 0)
    assert verdict.recovered_via_inverse


def test_generic_cotile_inverse_round_trip_p3():
    # column 0 carries the partial fiber {0,1}; the ring inverse of that
    # column recovers the indicator of the co-tile exactly
    tile = MixedTile.make(3, [(0, 0), (0, 1), (1, 2)])
    aset = MixedPeriodicSet.make(3, 1, [(0, 0)])
    verdict = cotile_conclusion(tile, aset)
    assert verdict.kind == "generic"
    assert verdict.recovered_via_inverse


def test_full_fiber_cotile_projects_to_base_cotile():
    tile = MixedTile.make(3, [(n, t) for n in (0, 1) for t in range(3)])
    aset = MixedPeriodicSet.make(3, 4, [(0, 1), (2, 2)])
    verdict = cotile_conclusion(tile, aset)
    assert verdict.kind == "full_fiber"
    assert verdict.base_cotile.sorted_members == ((0,), (2,))
    from tilekit.verify import is_tiling
    assert is_tiling(verdict.base, verdict.base_cotile).ok


def test_full_column_tile_with_free_fiber_choices():
    # F = {1} x (Z/3Z): co-tiles pick one fiber element per column; any
    # periodic choice verifies, and the projection co-tiles {1} in Z
    tile = MixedTile.make(3, [(1, t) for t in range(3)])
    aset = MixedPeriodicSet.make(3, 2, [(0, 1), (1, 2)])
    assert _tiles(tile, aset)
    verdict = cotile_conclusion(tile, aset)
    assert verdict.kind == "full_fiber"
    assert verdict.base.points == frozenset({(1,)})
    assert verdict.base_cotile.sorted_members == ((0,), (1,))


def test_trivial_tile_cotile():
    tile = MixedTile.make(2, [(0, 0)])
    aset = MixedPeriodicSet.make(2, 1, [(0, 0), (0, 1)])
    verdict = cotile_conclusion(tile, aset)
    assert verdict.kind == "generic" and verdict.periodic


def test_mixed_makes_follow_the_document_integer_rule():
    # an integer-valued float reads as the int; a fraction, a bool or a
    # string is refused, never truncated
    assert MixedTile.make(3.0, [(0, 1.0), (1.0, 5)]) == MixedTile.make(3, [(0, 1), (1, 2)])
    assert type(MixedTile.make(3.0, [(0, 0)]).p) is int
    assert (MixedPeriodicSet.make(3.0, 2.0, [(1.0, 4.0)])
            == MixedPeriodicSet.make(3, 2, [(1, 1)]))
    for bad in (0.5, True, "1"):
        for build in (lambda: MixedTile.make(bad, [(0, 0)]),
                      lambda: MixedTile.make(3, [(bad, 0)]),
                      lambda: MixedTile.make(3, [(0, bad)]),
                      lambda: MixedPeriodicSet.make(bad, 2, [(0, 0)]),
                      lambda: MixedPeriodicSet.make(3, bad, [(0, 0)]),
                      lambda: MixedPeriodicSet.make(3, 2, [(bad, 0)]),
                      lambda: MixedPeriodicSet.make(3, 2, [(0, bad)])):
            with pytest.raises(InputContractError):
                build()
    with pytest.raises(InputContractError):
        MixedTile.make(3, [(0.5, 1.7)])
    with pytest.raises(InputContractError):
        MixedPeriodicSet.make(3, 2, [(1.5, 0)])


def test_cotile_conclusion_rejects_non_cotile():
    tile = MixedTile.make(2, [(0, 0), (0, 1)])
    with pytest.raises(NotACotileError):
        cotile_conclusion(tile, MixedPeriodicSet.make(2, 2, [(0, 0)]))


def test_cotile_conclusion_rejects_mismatched_moduli():
    tile = MixedTile.make(2, [(0, 0), (0, 1)])
    with pytest.raises(InputContractError, match="mismatched moduli"):
        cotile_conclusion(tile, MixedPeriodicSet.make(3, 1, [(0, 0)]))


def test_full_fiber_verdict_reports_the_least_generator():
    # presented on period 2, the co-tile {(0, 0), (1, 0)} is fixed by (1, 0)
    tile = MixedTile.make(2, [(0, 0), (0, 1)])
    verdict = cotile_conclusion(tile, MixedPeriodicSet.make(2, 2, [(0, 0), (1, 0)]))
    assert verdict.kind == "full_fiber"
    assert verdict.stabilizer_generator == (1, 0)


@pytest.mark.parametrize("tile, aset", [
    (MixedTile.make(3, [(0, 0), (0, 1), (1, 2)]), MixedPeriodicSet.make(3, 1, [(0, 0)])),
    (MixedTile.make(3, [(n, t) for n in (0, 1) for t in range(3)]),
     MixedPeriodicSet.make(3, 4, [(0, 1), (2, 2)])),
])
def test_cotile_conclusion_lifts_the_cotile_once(monkeypatch, tile, aset):
    # the check, the stabilizer generator and the ring-inverse round trip
    # share one lift of the co-tile, in the generic and full-fiber verdicts
    lifts = []
    lifted = MixedPeriodicSet.lifted

    def counted(self):
        lifts.append(self)
        return lifted(self)

    monkeypatch.setattr(MixedPeriodicSet, "lifted", counted)
    verdict = cotile_conclusion(tile, aset)
    assert lifts == [aset]
    assert verdict.stabilizer_generator == aset.stabilizer_generator()


def test_generic_verified_cotiles_have_positive_rank():
    # small sweep: every verified pair reports a Z-direction stabilizer element
    cases = [
        (MixedTile.make(2, [(0, 0), (1, 1)]), MixedPeriodicSet.make(2, 1, [(0, 0)])),
        (MixedTile.make(2, [(0, 0), (1, 0)]),
         MixedPeriodicSet.make(2, 2, [(0, 0), (0, 1)])),
        (MixedTile.make(3, [(0, 0), (1, 1), (2, 2)]),
         MixedPeriodicSet.make(3, 1, [(0, 0)])),
    ]
    for tile, aset in cases:
        if classify(tile).kind != "generic":
            continue
        if not _tiles(tile, aset):
            continue
        verdict = cotile_conclusion(tile, aset)
        assert verdict.stabilizer_generator[0] >= 1


def _reference_stabilizer_generator(aset):
    """Least (n, t), n from 1 and then t, that maps the set onto itself, by
    testing every translation on the period grid."""
    for n in range(1, aset.period + 1):
        for t in range(aset.p):
            if all(aset.contains(a + n, b + t) for a, b in aset.members) and \
                    len(aset.members) == len({((a + n) % aset.period, (b + t) % aset.p)
                                              for a, b in aset.members}):
                return (n, t)
    raise AssertionError("the presentation period itself must stabilize")


def _reference_convolution_is_one(tile, aset):
    """1_F * 1_A = 1, by counting representations at every grid point."""
    for x in range(aset.period):
        for s in range(aset.p):
            count = sum(1 for n, t in tile.points if aset.contains(x - n, s - t))
            if count != 1:
                return False
    return True


@st.composite
def _mixed_cases(draw):
    """A mixed tile and a periodic set with p in {2, 3, 5, 7} and period 1 to 8.

    Half the time the set is a subgroup H of the period grid and the tile
    picks one point of every coset of H, lifted by random multiples of the
    period, so the pair tiles; otherwise both are drawn at random."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    m = draw(st.integers(1, 8))
    grid = [(x, s) for x in range(m) for s in range(p)]
    if draw(st.booleans()):
        g1, g2 = draw(st.sampled_from(grid)), draw(st.sampled_from(grid))
        group = {((i * g1[0] + j * g2[0]) % m, (i * g1[1] + j * g2[1]) % p)
                 for i in range(m * p) for j in range(m * p)}
        cosets = {min(((x + h) % m, (s + h2) % p) for h, h2 in group) for x, s in grid}
        points = [(x + m * draw(st.integers(-2, 2)), s) for x, s in sorted(cosets)]
        return MixedTile.make(p, points), MixedPeriodicSet.make(p, m, group)
    members = draw(st.lists(st.sampled_from(grid), max_size=m * p))
    points = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(0, p - 1)),
                           min_size=1, max_size=5))
    return MixedTile.make(p, points), MixedPeriodicSet.make(p, m, members)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_mixed_cases())
def test_mixed_checks_match_reference_loops(case):
    tile, aset = case
    generator = _reference_stabilizer_generator(aset)
    assert aset.stabilizer_generator() == generator
    tiles = _reference_convolution_is_one(tile, aset)
    assert _tiles(tile, aset) == tiles
    if not tiles:
        with pytest.raises(NotACotileError):
            cotile_conclusion(tile, aset)
        return
    verdict = cotile_conclusion(tile, aset)
    assert verdict.stabilizer_generator == generator
    if verdict.kind == "generic":
        assert verdict.recovered_via_inverse
