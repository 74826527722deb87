"""Tilings of Z x (Z/pZ) for prime p.

The convolution ring of rational functions on Z/pZ is Q[x] modulo x^p - 1.
For prime p the indicator of any proper non-empty subset is invertible, which
forces a dichotomy on tiles of the mixed group: either some occupied column
misses part of the fiber and every co-tile is periodic, or the tile is a
product with the full fiber and co-tiles reduce to the integer factor with a
free fiber choice per column.
"""

from tilekit import (
    Lattice,
    MixedPeriodicSet,
    MixedTile,
    PeriodicRationalFunction,
    PeriodicSet,
    Tile,
    classify,
    convolve,
    cotile_conclusion,
    indicator,
    ring_inverse,
)
from tilekit.verify import is_tiling

# The inverse of 1_{0,1} in the ring on Z/3Z.  Functions on Z/3Z are the
# functions on Z periodic under 3Z, so the check is an ordinary convolution.
inv = ring_inverse({0, 1}, 3)
print("inverse of {0,1} mod 3:", tuple(str(v) for v in inv.values))
ring = Lattice.diagonal([3])
g = PeriodicRationalFunction.make(ring, {(t,): v for t, v in enumerate(inv.values)})
check = convolve(Tile.make(1, [(0,), (1,)]), g)
print("convolves back to delta:", check == indicator(PeriodicSet.make(ring, [(0,)])))

# Composite moduli are refused: invertibility genuinely fails there.
try:
    ring_inverse({0, 1}, 4)
except Exception as exc:
    print("p = 4 rejected:", exc)

# A generic tile: two points in different columns, partial fibers.
generic = MixedTile.make(2, [(0, 0), (1, 1)])
print("\ngeneric tile classification:", classify(generic).kind)
cot = MixedPeriodicSet.make(2, 1, [(0, 0)])
verdict = cotile_conclusion(generic, cot)
print("its co-tile is periodic with stabilizer generator",
      verdict.stabilizer_generator)

# A product tile: both columns carry the whole fiber modulo 3.  Co-tiles pick
# one fiber element per occupied column; the columns themselves must co-tile
# the base tile in Z.
product = MixedTile.make(3, [(n, t) for n in (0, 1) for t in range(3)])
cls = classify(product)
print("\nproduct tile classification:", cls.kind,
      "with base", list(cls.base.sorted_points))
cot2 = MixedPeriodicSet.make(3, 4, [(0, 1), (2, 2)])
verdict2 = cotile_conclusion(product, cot2)
print("column projection:", list(verdict2.base_cotile.sorted_members),
      "co-tiles the base:", bool(is_tiling(verdict2.base, verdict2.base_cotile)))
