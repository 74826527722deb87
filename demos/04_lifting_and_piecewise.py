"""From partial periodicity to full periodicity.

A joint co-tile invariant under a rank-(d-1) subgroup recodes, along a
transversal direction, into a one-dimensional sequence over the alphabet of
patterns on a fundamental domain.  The tiling equations become window
constraints, legal windows form a block graph, walked lazily from its first
node until a cycle closes, and that cycle decodes to a fully periodic joint
co-tile.  The same machinery upgrades a disjoint union of almost-periodic
pieces to a fully periodic solution piece by piece.
"""

from tilekit import (
    Lattice,
    PeriodicSet,
    Tile,
    TileTuple,
    hnf,
    is_joint_cotile,
    lift_to_full_period,
    piecewise_to_periodic,
    stabilizer,
)

domino = TileTuple.make([Tile.make(2, [(0, 0), (1, 0)])])

# A striped co-tile of the horizontal domino: the even columns.  Handing the
# lifter only the vertical invariance {0} x Z, it re-solves along the
# transversal and returns a fully periodic co-tile.
striped = PeriodicSet.make(Lattice.diagonal([2, 1]), [(0, 0)])
vertical = hnf(2, [(0, 1)])
lifted = lift_to_full_period(domino, vertical, striped)
print("lifted co-tile:", list(lifted.sorted_members), "on",
      [list(c) for c in lifted.lattice.basis])
print("stabilizer rank:", stabilizer(lifted).rank)
print("still a joint co-tile:", bool(is_joint_cotile(domino, lifted)))

# Piecewise input: even columns split into even and odd rows.  Declaring only
# rank-1 knowledge for each piece (vertical for one, horizontal for the other)
# forces the pipeline through its convolution and re-solving stages.
piece_a = PeriodicSet.make(Lattice.diagonal([2, 2]), [(0, 0)])
piece_b = PeriodicSet.make(Lattice.diagonal([2, 2]), [(0, 1)])
declared = [hnf(2, [(0, 2)]), hnf(2, [(2, 0)])]
merged = piecewise_to_periodic(domino, [piece_a, piece_b],
                               declared_stabilizers=declared)
print("\npiecewise result:", list(merged.sorted_members), "on",
      [list(c) for c in merged.lattice.basis])
print("verified:", bool(is_joint_cotile(domino, merged)))

# With both pieces declared inside the same vertical line the declared
# stabilizers meet in rank 1, so the pipeline lifts the union directly.
same_side = [hnf(2, [(0, 2)]), hnf(2, [(0, 2)])]
lifted2 = piecewise_to_periodic(domino, [piece_a, piece_b],
                                declared_stabilizers=same_side)
print("\nsame declared line, union lifted:", list(lifted2.sorted_members), "on",
      [list(c) for c in lifted2.lattice.basis])
print("verified:", bool(is_joint_cotile(domino, lifted2)))

# Merging needs declared stabilizers that meet in a smaller rank.  Three rows
# of the even columns, two declared vertical and one horizontal, meet in {0}:
# the two vertical pieces span one line, so they are merged onto the
# intersection of their stabilizers and re-solved as one group.
rows = [PeriodicSet.make(Lattice.diagonal([2, 3]), [(0, k)]) for k in range(3)]
mixed = [hnf(2, [(0, 3)]), hnf(2, [(0, 3)]), hnf(2, [(2, 0)])]
merged3 = piecewise_to_periodic(domino, rows, declared_stabilizers=mixed)
print("\nafter merging route:", list(merged3.sorted_members), "on",
      [list(c) for c in merged3.lattice.basis])
print("verified:", bool(is_joint_cotile(domino, merged3)))

# Full knowledge short-circuits: the union is already periodic.
direct = piecewise_to_periodic(domino, [piece_a, piece_b])
print("\nwith full stabilizers the union returns canonically:",
      direct.same_set(striped))
