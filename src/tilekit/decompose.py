"""Periodic decomposition of joint co-tiles, exactly.

Given tiles F_1..F_k and an integer-valued periodic f with 1_{F_i} * f = l_i,
builds the family of functions indexed by chains (v_1..v_i) of starred points,

    phi_chain(x) = avg over n_1..n_i of f(x - sum_j (1 + n_j q) v_j),

where q is the primorial of (max f - min f) * S.  Because f is L-periodic the
inner sequence is periodic in each n_j with period equal to the order of q*v_j
in Z^d / L, so the limiting average equals a finite average and is computed in
exact rationals; no compactness or subsequence choice is involved.  Each node
is built from its parent by one such average,

    phi_{c + (v,)}(x) = (1/m) sum_{n=1..m} phi_c(x - (1 + n q) v),

with m the order of q*v, a sum over the coset of x - v modulo q*v.  The four
defining identities are then re-checked value by value, on integer
numerators over one denominator, never assumed.

Also here: the dilation identity checker and span-grouped sums of
depth-(d-1) nodes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

from .errors import (
    InputContractError,
    InternalError,
    NonIntegerValuesError,
    NotACotileError,
    PreconditionUnverifiedError,
    PropertyStarRequiredError,
)
from .lattice import _integer_kernel, hnf, vneg, vscale
from .tiles import PeriodicRationalFunction, _canonical, dilate
from . import verify
from .analysis import has_property_star


def is_prime(n):
    """Trial division; False below 2."""
    return n >= 2 and all(n % p for p in range(2, int(n ** 0.5) + 1))


def primorial(bound):
    """Product of all primes up to bound (1 when bound < 2)."""
    return prod(filter(is_prime, range(2, bound + 1)))


def compute_q(fn, s):
    """The dilation modulus: primorial of (max f - min f) * s.

    In Z^d there is no torsion, so no extra factor enters.
    """
    if not fn.is_integer_valued():
        raise NonIntegerValuesError("the dilation modulus is defined for integer-valued functions")
    width = int(fn.max_value() - fn.min_value())
    return primorial(width * s)


def dilation_check(tile, fn, level, r):
    """Whether 1_{rF} * f equals `level`, after verifying 1_F * f = level.

    For r = 1 mod q the answer is guaranteed and asserted; any other r is a
    probe and may legitimately return False.
    """
    level = Fraction(level)
    if not verify.is_level_tiling(tile, fn, level):
        raise PreconditionUnverifiedError("1_F * f does not equal the stated level")
    ok = verify.is_level_tiling(dilate(tile, r), fn, level).ok
    if fn.is_integer_valued():
        q = compute_q(fn, tile.size)
        if r % q == 1 and not ok:
            raise InternalError("dilation identity failed for r = 1 mod q")
    return ok


@dataclass(frozen=True)
class DecompositionTree:
    """The chain-indexed family phi_{v_1..v_i} for a tuple and a co-tile function.

    nodes maps each chain (a tuple of starred points, one per tile prefix) to
    its periodic function; the empty chain is the root f itself.  levels holds
    the constant 1_{F_i} * f = l_i per tile (all ones for plain tilings).
    """

    tiles: tuple
    cotile_fn: PeriodicRationalFunction
    q: int
    levels: tuple
    nodes: dict

    @property
    def root(self):
        return self.cotile_fn

    @property
    def depth(self):
        return len(self.tiles.tiles)

    def chains(self, length):
        return itertools.product(*[t.sorted_star for t in self.tiles.tiles[:length]])

    def node(self, chain):
        if not chain:
            return self.cotile_fn
        return self.nodes[tuple(chain)]


def _cosets(quotient, q, v):
    """The cosets of q*v in Z^d / L, each the orbit of a residue number under
    the q*v translation table, so each has the order of q*v as its length;
    and for each residue number a, the coset of residues[a] - v."""
    step = quotient.translation(vscale(q, v))
    index = [None] * len(step)
    cosets = []
    for a in range(len(step)):
        if index[a] is None:
            cosets.append([])
            b = a
            while index[b] is None:
                index[b] = len(cosets) - 1
                cosets[-1].append(b)
                b = step[b]
    return cosets, [index[b] for b in quotient.translation(vneg(v))]


def _average(parent, cosets, pick):
    """The child of parent along v, from v's _cosets: the sum of parent over
    the coset of each x - v, divided by the coset length."""
    sums = [sum(map(parent.nums.__getitem__, coset)) for coset in cosets]
    return _canonical(parent.lattice, parent.den * len(cosets[0]), [sums[c] for c in pick])


def build_decomposition(tiles, fn, levels=None):
    """Build the full chain tree for a tuple and an integer-valued co-tile function.

    Verifies 1_{F_i} * f = l_i for every tile first.  Each node is stored on
    f's own lattice (averaging shifts of an L-periodic function stays
    L-periodic); the extra invariance under q*v_j is checked later by
    verify_decomposition rather than baked into the storage.
    """
    k = len(tiles.tiles)
    if levels is None:
        levels = (Fraction(1),) * k
    else:
        levels = tuple(Fraction(l) for l in levels)
        if len(levels) != k:
            raise InputContractError("one level per tile")
    if not fn.is_integer_valued():
        raise NonIntegerValuesError("decomposition requires an integer-valued function")
    for i, tile in enumerate(tiles):
        if not verify.is_level_tiling(tile, fn, levels[i]):
            raise NotACotileError(f"1_F * f is not the constant {levels[i]} for tile {i}")
    if all(l == 1 for l in levels):
        s_eff = tiles[0].size
    else:
        s_eff = max(int(l) for l in levels) * max(t.size for t in tiles)
    q = compute_q(fn, s_eff)

    cosets = {v: _cosets(fn.lattice.quotient(), q, v) for tile in tiles for v in tile.star}
    nodes = {}
    level = {(): fn}
    for tile in tiles:
        level = {chain + (v,): _average(parent, *cosets[v])
                 for chain, parent in level.items() for v in tile.sorted_star}
        nodes.update(level)
    return DecompositionTree(tiles, fn, q, levels, nodes)


@dataclass(frozen=True)
class DecompositionReport:
    """Violations found when re-checking the four tree identities.

    All lists are empty on healthy trees; a non-empty list indicates an
    implementation bug, not a mathematical surprise.
    """

    recursion: tuple      # (a) phi_chain = l_{i+1} - sum over next-star extensions
    reconstruction: tuple  # (b) f from depth-i nodes plus the alternating constant
    invariance: tuple      # (c) q*v_j stabilizes phi_chain
    convolution: tuple     # (d) 1_{F_j} * phi = l_j, and mean l_j / |F_j|

    @property
    def ok(self):
        return not (self.recursion or self.reconstruction
                    or self.invariance or self.convolution)

    def __bool__(self):
        return self.ok


def reconstruction_constant(levels, sizes, depth):
    """The integer constant in the depth-i reconstruction identity.

    Derived by unrolling the recursion: C_i = sum_{j<=i} (-1)^(j-1) l_j
    prod_{t<j} (|F_t| - 1); for plain tilings this is the alternating
    geometric sum in (S - 1).
    """
    c = 0
    for j in range(1, depth + 1):
        term = levels[j - 1]
        for t in range(1, j):
            term *= sizes[t - 1] - 1
        c += term if j % 2 == 1 else -term
    return c


def verify_decomposition(tree):
    """Exact re-check of the four identities on every node of the tree, as
    identities of integer lists: every node, level and constant over one
    denominator, on the root's lattice (or the intersection with a node's
    own, where it differs), with each translation table fetched once."""
    tiles, k = tree.tiles, tree.depth
    sizes = [t.size for t in tiles]
    chains = [list(tree.chains(i)) for i in range(k + 1)]
    fns = {chain: tree.node(chain) for layer in chains for chain in layer}
    lat = tree.cotile_fn.lattice
    for fn in fns.values():
        if fn.lattice != lat:
            lat = lat.intersect(fn.lattice)
    den = lcm(*[fn.den for fn in fns.values()], *[l.denominator for l in tree.levels])
    nums = {chain: [x * (den // fn.den) for x in fn.refine(lat).nums] for chain, fn in fns.items()}
    levels = [l.numerator * (den // l.denominator) for l in tree.levels]
    consts = [reconstruction_constant(levels, sizes, i) for i in range(k + 1)]
    n = len(nums[()])
    quotient = lat.quotient()
    shifts = {v: quotient.translation(vscale(tree.q, v)) for tile in tiles for v in tile.star}
    moves = [[quotient.translation(vneg(y)) for y in tile.sorted_points] for tile in tiles]
    recursion, reconstruction, invariance, convolution = [], [], [], []
    for i in range(1, k + 1):
        for chain in chains[i]:
            node = nums[chain]
            if i < k:
                total = _sum_lists([node] + [nums[chain + (v,)] for v in tiles[i].sorted_star])
                if total.count(levels[i]) != n:
                    recursion.append((chain, "recursion to depth %d fails" % (i + 1)))
            invariance += [(chain, v) for v in chain if [node[a] for a in shifts[v]] != node]
            for j, tables in enumerate(moves):
                if _sum_lists([map(node.__getitem__, t) for t in tables]).count(levels[j]) != n:
                    convolution.append((chain, j, "convolution"))
                elif sum(node) * sizes[j] != levels[j] * n:   # the mean, cross-multiplied
                    convolution.append((chain, j, "mean"))
        total = _sum_lists([[0] * n] + [nums[chain] for chain in chains[i]])
        if [consts[i] + (-1) ** i * t for t in total] != nums[()]:
            reconstruction.append((i, "depth-%d reconstruction fails" % i))
    return DecompositionReport(tuple(recursion), tuple(reconstruction),
                               tuple(invariance), tuple(convolution))


def _sum_lists(rows):
    """The entry-by-entry sum of one or more equally long integer sequences."""
    return list(map(sum, zip(*rows)))


def psi_by_span(tree, classes):
    """Sum depth-(d-1) nodes over each span class; the tuple must have the
    span-uniqueness property so each hyperplane determines its chain prefix.

    Verifies, exactly: (i) for every prefix chain p, l_{d-1} - phi_p equals the
    sum of psi_V over hyperplanes whose class extends p; and (ii) each psi_V
    has a rank-(d-1) stabilizer inside V.  Returns {subspace: psi_V}.
    """
    tiles = tree.tiles
    d = tiles.dim
    if len(tiles.tiles) != d - 1 or tree.depth != d - 1:
        raise PropertyStarRequiredError("tree must be built from a (d-1)-tuple")
    star = has_property_star(tiles)
    if not star:
        raise PropertyStarRequiredError(f"offending selections: {star.witness}")

    zero = PeriodicRationalFunction.constant(tree.cotile_fn.lattice, 0)
    psi = {}
    prefix_of = {}
    for space, tuples in classes:
        psi[space] = sum((tree.node(chain) for chain in tuples), zero)
        prefix_of[space] = tuples[0][:d - 2]

    failures = []
    for prefix in tree.chains(d - 2):
        group = [space for space, p in prefix_of.items() if p == prefix]
        lhs = tree.levels[d - 2] - tree.node(prefix)
        rhs = sum((psi[space] for space in group), zero)
        if lhs != rhs:
            failures.append(prefix)
    if failures:
        raise InternalError(f"span grouping identity fails at prefixes {failures}")

    for space, fn in psi.items():
        stab = fn.stabilizer()
        inside = _lattice_in_subspace(space)
        if stab.intersect(inside).rank < d - 1:
            raise InternalError(f"psi for {space} lacks a rank-{d-1} stabilizer in its hyperplane")
    return psi


def _lattice_in_subspace(space):
    """The lattice of integer points inside a rational subspace: the integer
    vectors orthogonal to the integer kernel of its Hermite rows."""
    d = space.dim_ambient
    return hnf(d, _integer_kernel(_integer_kernel(space.rows, d), d))
