"""Searching for periodic joint co-tiles.

Restricting the tiling equations to a finite quotient Z^d / L turns the search
into an exact cover problem, solved by a depth-first search over big-int
coverage masks.  Sweeping candidate lattices by index then finds every solution
whose stabilizer index stays under a bound.  In one dimension Newman's
forced-placement automaton decides tiling outright.
"""

from tilekit import (
    Lattice,
    Tile,
    TileTuple,
    brute_force_quotient,
    independent_cotile_index_bound,
    is_joint_cotile,
    search_periodic_cotile,
    search_Z_cotile,
    solve_quotient,
)

f1 = Tile.make(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
f2 = Tile.make(3, [(0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
pair = TileTuple.make([f1, f2])
lat = Lattice.diagonal([2, 2, 1])

sols = solve_quotient(pair, lat, mode="all")
print(f"co-tiles periodic under 2Z x 2Z x Z: {len(sols)}")
for s in sols:
    print("  members:", list(s.sorted_members))

# the backtracker agrees with plain subset enumeration
oracle = brute_force_quotient(pair, lat)
print("matches subset enumeration:", [s.members for s in sols] == [s.members for s in oracle])

# sweeping all candidate lattices up to index 4, keeping each co-tile on its stabilizer
found = search_periodic_cotile(pair, 4)
print(f"\ndistinct periodic joint co-tiles with index <= 4: {len(found)}")
for stab, aset in found[:4]:
    print("  stabilizer", [list(c) for c in stab.basis], "members", list(aset.sorted_members))
print("  ...")
print("all verified:", all(is_joint_cotile(pair, aset).ok for _, aset in found))

# for a full tuple of independent tiles a sufficient search bound is computable
unit_pair = TileTuple.make([Tile.make(2, [(0, 0), (1, 0)]),
                            Tile.make(2, [(0, 0), (0, 1)])])
bound = independent_cotile_index_bound(unit_pair)
print(f"\nindex bound for the unit pair: {bound}")
print(f"solutions within the bound: {len(search_periodic_cotile(unit_pair, bound))}")

# one dimension is decidable: {0,1,3,4,6,7} never tiles Z
six = Tile.make(1, [(0,), (1,), (3,), (4,), (6,), (7,)])
res = search_Z_cotile(six)
print(f"\nsix-point block tiles Z: {res.tiles}")
print(f"  periods checked: {len(res.periods_checked)} (multiples of 6, "
      f"injective, up to {res.period_bound})")

# a set that does tile
gap = Tile.make(1, [(0,), (2,)])
res = search_Z_cotile(gap)
print(f"{{0,2}} tiles Z with period {res.cotile.lattice.index()}: "
      f"members {list(res.cotile.sorted_members)}")
