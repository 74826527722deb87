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

with m the order of q*v.  The tree's four defining identities are then
re-checked value by value, never assumed.

Also here: the dilation identity checker, span-grouped sums of depth-(d-1)
nodes, and polynomial-map testing via iterated discrete derivatives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InputContractError,
    InternalError,
    NonIntegerValuesError,
    NotACotileError,
    PreconditionUnverifiedError,
    PropertyStarRequiredError,
    RankDeficientError,
)
from .lattice import _integer_kernel, hnf, vscale
from .tiles import PeriodicRationalFunction, WeightedTile, convolve, dilate
from . import verify
from .analysis import has_property_star


def is_prime(n):
    """Trial division; False below 2."""
    return n >= 2 and all(n % p for p in range(2, int(n ** 0.5) + 1))


def primorial(bound):
    """Product of all primes up to bound (1 when bound < 2)."""
    q = 1
    for n in range(2, bound + 1):
        if is_prime(n):
            q *= n
    return q


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


def _average_step(lat, q, v):
    """(w, 1/m) with m the order of q*v modulo lat and w the sum of the deltas
    at (1 + n q) v, n = 1..m: phi_{c + (v,)} = (1/m) w * phi_c."""
    m = lat.order_of(vscale(q, v))
    counts = {}
    for n in range(1, m + 1):
        shift = lat.reduce(vscale(1 + n * q, v))
        counts[shift] = counts.get(shift, 0) + 1
    return WeightedTile.make(lat.dim, counts), Fraction(1, m)


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

    steps = {v: _average_step(fn.lattice, q, v) for tile in tiles for v in tile.star}
    nodes = {}
    level = {(): fn}
    for tile in tiles:
        level = {chain + (v,): convolve(steps[v][0], parent).scale(steps[v][1])
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
    c = Fraction(0)
    for j in range(1, depth + 1):
        term = levels[j - 1]
        for t in range(1, j):
            term *= sizes[t - 1] - 1
        c += term if j % 2 == 1 else -term
    return c


def verify_decomposition(tree):
    """Exact re-check of the four identities on every node of the tree."""
    tiles = tree.tiles
    fn = tree.cotile_fn
    lat = fn.lattice
    k = len(tiles.tiles)
    sizes = [t.size for t in tiles]
    recursion = []
    reconstruction = []
    invariance = []
    convolution = []

    for i in range(1, k):
        for chain in tree.chains(i):
            lhs = tree.node(chain)
            rhs = tree.levels[i] - _sum_nodes(
                [tree.node(chain + (v,)) for v in tiles[i].sorted_star], lat)
            if lhs != rhs:
                recursion.append((chain, "recursion to depth %d fails" % (i + 1)))

    for i in range(1, k + 1):
        total = _sum_nodes([tree.node(chain) for chain in tree.chains(i)], lat)
        expected = total.scale(-1 if i % 2 else 1) + reconstruction_constant(
            tree.levels, sizes, i)
        if expected != fn:
            reconstruction.append((i, "depth-%d reconstruction fails" % i))

    for i in range(1, k + 1):
        for chain in tree.chains(i):
            node = tree.node(chain)
            for v in chain:
                qv = vscale(tree.q, v)
                if node.shift(qv) != node:
                    invariance.append((chain, v))

    for i in range(1, k + 1):
        for chain in tree.chains(i):
            node = tree.node(chain)
            for j, tile in enumerate(tiles):
                if not verify.is_level_tiling(tile, node, tree.levels[j]):
                    convolution.append((chain, j, "convolution"))
                elif verify.mean(node) != tree.levels[j] / sizes[j]:
                    convolution.append((chain, j, "mean"))

    return DecompositionReport(tuple(recursion), tuple(reconstruction),
                               tuple(invariance), tuple(convolution))


def _sum_nodes(fns, lattice):
    if not fns:
        return PeriodicRationalFunction.constant(lattice, 0)
    total = fns[0]
    for fn in fns[1:]:
        total = total + fn
    return total


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

    psi = {}
    prefix_of = {}
    for space, tuples in classes:
        psi[space] = _sum_nodes([tree.node(chain) for chain in tuples],
                                tree.cotile_fn.lattice)
        prefix_of[space] = tuples[0][:d - 2]

    failures = []
    for prefix in tree.chains(d - 2):
        group = [space for space, p in prefix_of.items() if p == prefix]
        lhs = tree.levels[d - 2] - tree.node(prefix)
        rhs = _sum_nodes([psi[space] for space in group], tree.cotile_fn.lattice)
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


def discrete_derivative(fn, v):
    """(D_v f)(w) = f(w) - f(w - v)."""
    weights = {(0,) * fn.dim: 1}
    weights[tuple(v)] = weights.get(tuple(v), 0) - 1
    return convolve(WeightedTile.make(fn.dim, weights), fn)


def is_polynomial_map(fn, gamma, degree):
    """Whether all (degree+1)-fold derivative products along gamma's basis
    generators annihilate f.

    Generators suffice: derivatives commute, and a derivative along a sum
    expands into shifted derivatives along the summands, so monomials in the
    generators of total order degree+1 span all the required products.
    """
    if not gamma.is_full_rank:
        raise RankDeficientError("polynomial testing needs a full-rank subgroup")
    if degree < 0:
        return fn == 0
    for combo in itertools.combinations_with_replacement(gamma.basis, degree + 1):
        g = fn
        for v in combo:
            g = discrete_derivative(g, v)
        if not g.is_constant(0):
            return False
    return True


def polynomial_degree(fn, gamma, max_degree):
    """Smallest degree at which f is polynomial along gamma, or None."""
    for r in range(max_degree + 1):
        if is_polynomial_map(fn, gamma, r):
            return r
    return None


@dataclass(frozen=True)
class PolynomialCheck:
    is_polynomial: bool
    degree: int | None
    constant_on_cosets: bool | None


def bounded_poly_is_constant_check(fn, gamma, max_degree=None):
    """Instance check that a bounded polynomial map along a finite-index
    subgroup is constant on its cosets.

    Periodic functions are bounded, so whenever f turns out polynomial along
    gamma the conclusion gamma <= stab(f) is asserted.
    """
    if not gamma.is_full_rank:
        raise RankDeficientError("the statement concerns finite-index subgroups")
    if max_degree is None:
        max_degree = 2 * fn.lattice.index()
    deg = polynomial_degree(fn, gamma, max_degree)
    if deg is None:
        return PolynomialCheck(False, None, None)
    constant = fn.stabilizer().contains_lattice(gamma)
    if not constant:
        raise InternalError("bounded polynomial map not constant on cosets")
    return PolynomialCheck(True, deg, True)
