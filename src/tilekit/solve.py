"""Search for periodic joint co-tiles.

Covers four layers of machinery: exact cover of a finite quotient by the
projected tiles (depth-first search over big-int coverage masks), enumeration
of candidate period lattices, the one-dimensional decision procedure (Newman's
forced-placement automaton), and the recoding of translation-invariant constraint
systems into one-dimensional block graphs, walked lazily until a cycle closes;
a cycle decodes to a fully periodic solution.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .errors import (
    InputContractError,
    InternalError,
    NoCycleError,
    NotACotileError,
    NotAPartitionError,
)
from .lattice import (
    Lattice,
    PeriodicSet,
    QuotientGroup,
    _avoiding,
    _bits,
    _integer,
    _integer_kernel,
    _mask,
    enumerate_sublattices,
    hnf,
    stabilizer,
    vadd,
    vscale,
    vsub,
)
from .tiles import PeriodicRationalFunction, TileTuple, convolve, indicator
from . import verify
from .analysis import RationalSubspace, avoid_subspaces
from .decompose import primorial


@dataclass(frozen=True)
class SearchProblem:
    """A tile tuple projected into a finite quotient Z^d / L, kept for
    solve_quotient: per tile, the numbers of its sorted points' residues."""

    tiles: TileTuple
    lattice: Lattice
    projected: tuple  # per tile, tuple of residue numbers of the tile's points
    injective: tuple  # per tile, whether the projection is one-to-one
    size_divides: bool
    quotient: QuotientGroup = field(compare=False)

    @staticmethod
    def build(tiles, lat):
        """Project on lat.quotient(), which raises RankDeficientError below
        full rank.  solve_quotient, the keep test and later sweeps share that
        quotient, and its tables and head rows, through the quotient cache."""
        if tiles.dim != lat.dim:
            raise InputContractError("tiles and lattice have different dimensions")
        quotient = lat.quotient()
        projected = tuple(quotient.numbers(tile.sorted_points) for tile in tiles)
        injective = tuple(len(set(res)) == len(res) for res in projected)
        divides = all(quotient.size % t.size == 0 for t in tiles)
        return SearchProblem(tiles, lat, projected, injective, divides, quotient)

    @property
    def feasible(self):
        return all(self.injective) and self.size_divides


def _plus(row, x, p0):
    """y + x, from the head row of y."""
    h = row[x // p0]
    return h - h % p0 + (h + x) % p0


def _valuation(n, p):
    """The exponent of the prime p in n > 0."""
    e = 0
    while not n % p:
        n //= p
        e += 1
    return e


def _cyclotomic_obstruction(problem):
    """Whether a cyclotomic bound proves that the tiles have no joint co-tile
    on G = Z^d / L, read off their projections (E. M. Coven and A.
    Meyerowitz, "Tiling the integers with translates of one finite set", J.
    Algebra 212, 1999, pushed forward to a cyclic quotient of G).

    Let F_i + A = G for every i, with n = |G| and |A| = n / |F_1|, and let
    chi: G -> Z/q, q = p^k, be onto.  Pushed forward by chi, F_i^chi(x) =
    sum of x^chi(f) over f in F_i, and g = chi_*(1_A), these satisfy
    F_i^chi(x) g(x) = (n / q)(1 + x + ... + x^(q-1)) mod x^q - 1, which
    vanishes at every primitive p^t-th root of unity, 1 <= t <= k.  So at
    each level t where the image of some tile is not divisible by the
    cyclotomic polynomial Phi_(p^t), g is.  The Phi_(p^t) are distinct and
    irreducible, so their product over those levels divides g, and as
    Phi_(p^t)(1) = p, p to the number of those levels divides g(1) = |A|.
    Hence more such levels than v_p(|A|) leave no co-tile, which needs
    v_p(|A|) < k <= v_p(n) and a prime p of |F_1|.

    Phi_(p^t) divides an image exactly when its counts modulo p^t are
    invariant under adding p^(t-1), as Phi_(p^t)(x) = Phi_p(x^(p^(t-1))).
    The counts of every tile are packed into one int, w bits a count (a
    count is at most |F_i| <= n < 2^w) and q counts a tile, and each level
    is one rotation test over all tiles at once; the counts modulo p^(t-1)
    are those modulo p^t folded p times.  Units of Z/q move no level, and a
    chi whose every level is that of a chi' onto Z/p^(k+1) adds nothing, so
    the homs are QuotientGroup.characters.
    """
    quotient, projected = problem.quotient, problem.projected
    size, n = problem.tiles[0].size, quotient.size
    w = n.bit_length()
    rest, p = size, 1
    while rest > 1:
        p += 1
        if rest % p:
            continue
        rest //= p ** _valuation(rest, p)   # a least divisor above 1 is prime
        e = _valuation(n // size, p)       # v_p(|A|)
        characters = quotient.characters(p)
        for i, (k, _) in enumerate(characters.homs):
            if k <= e:
                break
            table = characters.table(i)
            span = w * p ** k               # the bits of one tile's counts
            counts, base = 0, 1
            for res in projected:
                counts += sum([base << w * table[y] for y in res])
                base <<= span
            ones = (base - 1) // ((1 << span) - 1)   # bit 0 of each tile's counts
            levels = 0
            for t in range(k, 0, -1):
                m = p ** (t - 1) * w        # the bits of the counts modulo p^(t-1)
                low = ((1 << m) - 1) * ones
                ring = ((1 << m * p) - 1) * ones
                moved = (counts << m) & (ring - low) | (counts >> m * (p - 1)) & low
                if moved != counts:
                    levels += 1
                    if levels > e:
                        return True
                elif levels + t - 1 <= e:
                    break
                counts = sum((counts >> m * j) & low for j in range(p))
    return False


def solve_quotient(tiles, lat, mode="all"):
    """All (or the first) L-periodic joint co-tiles of the tuple.

    An exact cover of Z^d / L over big-int masks: one int holds the coverage
    of every tile, and a placement is legal when its mask misses the covered
    bits.  The tiles are projected once, to residue numbers, by
    SearchProblem.build, and the placements are read in place off the kept
    head rows of the quotient (QuotientGroup.heads).  With n the index, bit
    i*n + y of the mask of placement a is set when tile i covers residue
    number y from a.  The mask of a's block head is summed from the rows of
    the tile points the first time its block is tried, and a's own mask is
    that one rotated inside each block of p_0 bits, as the rows rotate; it
    is kept once made.  The placements covering cell y, y - f for the points
    f of the first tile, are read off their negated rows.

    A state, the covered bits and the mask of the placements chosen, is
    never changed in place; states wait on an explicit stack, so depth is
    not bounded by the recursion limit.  Each state branches on the least
    residue the first tile leaves uncovered and tries the placements
    covering it in the order of the first tile's points.  Placement a puts
    residue number a in the co-tile, so the placements chosen are a
    solution's mask.  The "all" mode is complete, and its solutions come in
    the order of sorted_members, compared on the kept rank of each member's
    residue number, with no decoding.  Infeasible projections return an
    empty list, and so, for d >= 2, does a quotient that
    _cyclotomic_obstruction proves empty, before any head row is read.
    """
    if mode not in ("all", "first"):
        raise InputContractError("mode must be 'all' or 'first'")
    problem = SearchProblem.build(tiles, lat)
    if not problem.feasible:
        return []
    quotient, projected = problem.quotient, problem.projected
    # d = 1 waits for ROADMAP item 1: there the bound empties most
    # quotients, and bench/worker.py, which keeps a record per request,
    # reads the faster zline workload as more memory
    if lat.dim > 1 and _cyclotomic_obstruction(problem):
        return []
    n, p0 = quotient.size, quotient.pivots[0]
    kept = quotient.heads(set().union(*projected), projected[0])
    cells = [(i * n, kept.rows[y]) for i, res in enumerate(projected) for y in res]
    full = (1 << n * len(projected)) - 1
    rep = full // ((1 << p0) - 1)  # bit 0 of every block of p_0 bits
    heads = [None] * (n // p0)     # the masks of the block heads
    masks = [None] * n
    rows = [kept.back[y] for y in reversed(projected[0])]
    found = []
    stack = [(0, 0)]
    while stack:
        covered, chosen = stack.pop()
        y = (~covered & (covered + 1)).bit_length() - 1
        if y >= n:  # the first tile is covered
            if covered == full:
                found.append(chosen)
                if mode == "first":
                    break
            continue
        # the placements covering y, last first, read inline: a call per
        # state costs a fifth of the search on zline
        block, c0 = divmod(y, p0)
        for row in rows:
            h = row[block]
            a = h - h % p0 + (h + c0) % p0
            mask = masks[a]
            if mask is None:
                b, t = divmod(a, p0)
                mask = heads[b]
                if mask is None:
                    mask = heads[b] = sum(1 << (i + cell[b]) for i, cell in cells)
                if t:
                    low = rep * ((1 << (p0 - t)) - 1)  # the bits that move up by t
                    mask = (mask & low) << t | (mask & ~low) >> (p0 - t)
                masks[a] = mask
            if not mask & covered:
                stack.append((covered | mask, chosen | 1 << a))
    if len(found) > 1:
        rank = kept.rank.__getitem__
        found.sort(key=lambda chosen: sorted(map(rank, _bits(chosen))))
    return [PeriodicSet(lat, chosen) for chosen in found]


def brute_force_quotient(tiles, lat):
    """Independent completeness oracle: subset enumeration over the quotient.

    Enumerates subsets of the fundamental domain directly and keeps the exact
    covers.  For quotients larger than 2^12 subsets, enumeration is restricted
    to subsets of the forced cardinality index/|F| (a tiling of a finite group
    satisfies |F| * |A| = |G| by counting).
    """
    residues = lat.quotient().residues
    index_of = {r: a for a, r in enumerate(residues)}
    n = len(residues)
    k = len(tiles.tiles)
    covers = []
    for tile in tiles:
        covers.append([tuple(index_of[lat.reduce(vadd(r, f))] for f in tile.sorted_points)
                       for r in residues])

    full_mask = (1 << n) - 1
    cover_masks = []
    exact = []
    for i in range(k):
        masks = [_mask(cov) for cov in covers[i]]
        cover_masks.append(masks)
        exact.append([len(set(cov)) == len(cov) for cov in covers[i]])

    def is_cover(indices):
        for i in range(k):
            acc = 0
            for a in indices:
                if not exact[i][a]:
                    return False
                m = cover_masks[i][a]
                if acc & m:
                    return False
                acc |= m
            if acc != full_mask:
                return False
        return True

    found = []
    if n <= 12:
        subsets = itertools.chain.from_iterable(
            itertools.combinations(range(n), size) for size in range(n + 1))
    else:
        sizes = {n // t.size for t in tiles if n % t.size == 0}
        if len(sizes) != 1:
            return []
        subsets = itertools.combinations(range(n), sizes.pop())
    for indices in subsets:
        if is_cover(indices):
            found.append(PeriodicSet(lat, _mask(indices)))
    found.sort(key=lambda a: a.sorted_members)
    return found


def _on_stabilizer(aset):
    """Whether the stabilizer of a periodic set is its lattice: no a - a0 keeps the
    mask (search_periodic_cotile), each sum read off the members' head rows."""
    quotient, mask = aset.lattice.quotient(), aset.mask
    a0, *others = members = _bits(mask)
    if not others:
        return True
    p0 = quotient.pivots[0]
    kept = quotient.heads(members, (a0,))
    rows, back = kept.rows, kept.back[a0]
    moved = [_plus(back, m, p0) for m in others]   # A - a0 without its 0
    return not any(all(mask >> _plus(rows[a], x, p0) & 1 for x in moved) for a in others)


def _differences(tiles):
    """The differences b - a, a < b, of two points of one tile: a tile
    projects one-to-one on Z^d / L exactly when L contains none of them."""
    return {vsub(b, a) for t in tiles for a, b in itertools.combinations(t.sorted_points, 2)}


def search_periodic_cotile(tiles, max_index, mode="all"):
    """Periodic joint co-tiles with stabilizer index up to max_index.

    Iterates candidate lattices whose index is a multiple of |F_1| and solves
    each quotient that SearchProblem.build would find feasible: the index is
    a multiple of every tile's size, and the lattice contains none of the
    _differences.  Where an index has more than one candidate, those are
    tested by the congruences of the Hermite rows (lattice._avoiding), so an
    infeasible candidate costs no build and no solve_quotient call; a lone
    candidate, as in dimension 1, costs one build either way.

    A solution is kept exactly when its stabilizer is the lattice it was
    solved on, that is when no difference a - a0 of a member a and a fixed
    member a0 maps it onto itself modulo the lattice: a stabilizing vector
    outside the lattice moves a0 onto some other member, so it is one of
    those differences modulo the lattice.  _on_stabilizer reads every such
    sum off the quotient's kept head rows, which a repeated sweep, meeting
    the same lattices, finds walked.  The stabilizer S of a co-tile A
    contains that lattice, and its index is |F_1| times the number of
    members of A modulo S, so a co-tile whose stabilizer is larger was
    already found on S, at a smaller index; each co-tile is thus kept once,
    on its stabilizer.  In the "first" mode the first solution is on its
    stabilizer for the same reason, and the sweep stops there.  Returns
    (stabilizer, set) pairs by index, basis and sorted_members.  max_index
    is read by lattice._integer.
    """
    if mode not in ("all", "first"):
        raise InputContractError("mode must be 'all' or 'first'")
    max_index = _integer(max_index)
    if max_index < 1:
        raise InputContractError("max_index must be positive")
    size = tiles[0].size
    sizes_lcm = math.lcm(*[t.size for t in tiles])
    differences = None   # made for the first index with more than one candidate
    out = []
    for n in range(size, max_index + 1, size):
        lattices = enumerate_sublattices(tiles.dim, n)
        if n % sizes_lcm:
            continue
        if len(lattices) > 1:  # a lone candidate costs one build either way
            if differences is None:
                differences = _differences(tiles)
            lattices = itertools.compress(lattices, _avoiding(tiles.dim, n, differences))
        for lat in lattices:
            for aset in solve_quotient(tiles, lat, mode=mode):
                if _on_stabilizer(aset):
                    out.append((lat, aset))
                    if mode == "first":
                        return out
    return out


@dataclass(frozen=True)
class ZTilingResult:
    """Outcome of the one-dimensional decision procedure.

    periods_checked lists the candidate periods up to the answer that pass
    the filters: multiples of |F| that divide no difference of two points of
    F.  A None co-tile is a no-tiling verdict, and the list then runs up to
    the pigeonhole bound 2^(diam+1); every tiling of Z is periodic with a
    period below that bound.
    """

    cotile: PeriodicSet | None
    period_bound: int
    periods_checked: tuple

    @property
    def tiles(self):
        return self.cotile is not None

    def __bool__(self):
        return self.tiles


Z_DECIDER_MAX_DIAM = 24  # search_Z_cotile walks 2^diam states; the README gives its cost


def search_Z_cotile(tile):
    """Decide whether a finite normalized subset of Z tiles the integers.

    Runs Newman's forced-placement automaton.  Scanning Z upwards, a state is
    the coverage of the next diam cells by the translates placed so far; an
    uncovered cell must be the least point of a new translate, so each state
    has at most one successor.  Tilings of Z are the cycles of this functional
    graph, and the shortest cycle is the least period of a tiling.  The
    co-tile is the first solution of the quotient search at that period.
    """
    if tile.dim != 1:
        raise InputContractError("this search is one-dimensional")
    if not tile.is_normalized:
        raise InputContractError("tile must contain 0; normalize it first")
    diam = tile.diameter()
    if diam > Z_DECIDER_MAX_DIAM:
        raise InputContractError(f"tile diameter {diam} is above {Z_DECIDER_MAX_DIAM}")
    bound = 2 ** (diam + 1)
    size = tile.size
    diffs = {abs(a[0] - b[0]) for a in tile.points for b in tile.points if a != b}
    low = min(p[0] for p in tile.points)
    shape = sum(1 << (p[0] - low) for p in tile.points)
    period = None
    seen = bytearray(1 << diam)
    for start in range(1 << diam):
        if seen[start]:
            continue
        position = {}
        state = start
        while not seen[state]:
            seen[state] = 1
            position[state] = len(position)
            if state & 1:
                state >>= 1
            elif state & shape:
                break  # the forced translate overlaps: a dead end
            else:
                state = (state | shape) >> 1
        else:
            # the walk reached a seen state; it closes a new cycle when that
            # state was seen on this walk
            if state in position:
                cycle = len(position) - position[state]
                if period is None or cycle < period:
                    period = cycle
    last = bound if period is None else period
    checked = tuple(p for p in range(size, last + 1, size)
                    if not any(dd % p == 0 for dd in diffs))
    if period is None:
        return ZTilingResult(None, bound, checked)
    found = solve_quotient(TileTuple.make([tile]), Lattice.diagonal([period]), mode="first")
    if not found:
        raise InternalError(f"no co-tile of period {period} for a cycle of the "
                            "placement automaton")
    return ZTilingResult(found[0], bound, checked)


def independent_cotile_index_bound(tiles):
    """Index bound for joint co-tiles of d independent tiles in Z^d.

    Every joint co-tile is periodic under the intersection of the lattices
    q*span(selection) over all selections, q the primorial of |F_1|.  The
    index of that intersection bounds the stabilizer index of every joint
    co-tile.  A tile {0} has no selections and forces the co-tile Z^d, so the
    intersection starts at Z^d.
    """
    d = tiles.dim
    if len(tiles.tiles) != d:
        raise InputContractError("the bound applies to d-tuples in Z^d")
    q = primorial(tiles[0].size)
    meet = Lattice.identity(d)
    for selection in itertools.product(*[t.sorted_star for t in tiles]):
        lat = hnf(d, [vscale(q, v) for v in selection])
        if not lat.is_full_rank:
            raise InputContractError("tuple is not independent")
        meet = meet.intersect(lat)
    return meet.index()


# ---------------------------------------------------------------------------
# Block graphs and periodic lifting
# ---------------------------------------------------------------------------


def _cycle_letters(alphabet, window, extensions):
    """Letters spelled along a cycle of the block graph of a one-dimensional
    window-constraint system, or None when the graph has no cycle.

    Letters are the {0,1} patterns of alphabet; extensions(node) yields, in
    alphabet order, the letters a that make node + (a,) a legal window.
    Nodes are (window-1)-words and each legal window is an edge from its
    prefix to its suffix, so every cycle spells a periodic sequence
    satisfying all constraints.  The graph is walked lazily: depth first
    from each node in lexicographic order, finding a node's successors only
    when the walk reaches it.
    """
    if window <= 1:
        return next(((a,) for a in extensions(())), None)

    def successors(node):
        return (node[1:] + (a,) for a in extensions(node))

    color = {}  # 1 while on the current path, 2 once fully explored
    for start in itertools.product(alphabet, repeat=window - 1):
        if start in color:
            continue
        color[start] = 1
        on_path = [start]
        stack = [successors(start)]
        while stack:
            for nxt in stack[-1]:
                state = color.get(nxt)
                if state == 1:
                    return tuple(node[0] for node in on_path[on_path.index(nxt):])
                if state is None:
                    color[nxt] = 1
                    on_path.append(nxt)
                    stack.append(successors(nxt))
                    break
            else:
                color[on_path.pop()] = 2
                stack.pop()
    return None


class _Recoder:
    """Decomposition w = gamma + n*v + u with gamma in gamma0, u in the
    fundamental domain of gamma0 + Zv.

    n is read through the integer normal of span(gamma0): gamma drops out of
    <normal, w - u> = n * <normal, v>.
    """

    def __init__(self, gamma0, v):
        dim = gamma0.dim
        self.full = hnf(dim, gamma0.basis + (tuple(v),))
        if not self.full.is_full_rank:
            raise InternalError("transversal vector does not complete the rank")
        self.quotient = self.full.quotient()
        (self.normal,) = _integer_kernel(gamma0.basis, dim)
        self.height = sum(a * b for a, b in zip(self.normal, v))

    def split(self, w):
        """Return (n, u)."""
        u = self.full.reduce(w)
        n, rest = divmod(sum(a * (x - y) for a, x, y in zip(self.normal, w, u)), self.height)
        if rest:
            raise InternalError("point does not decompose over gamma0 + Zv")
        return n, u


def periodic_point_from_constraints(constraints, gamma0, ambient):
    """Find a {0,1} configuration on Z^d, invariant under gamma0, satisfying
    every convolution constraint, with a full-rank stabilizer.

    constraints: list of (Tile, PeriodicRationalFunction) pairs demanding
    1_F * x = target.  gamma0: the invariance imposed on configurations
    (rank d-1, contained in every target's stabilizer).  ambient: a full-rank
    lattice of allowed transversal shifts (must stabilize every target).

    Recodes along a transversal direction v in `ambient` into a block graph
    over the alphabet of {0,1} patterns on the fundamental domain of
    gamma0 + Zv.  The graph is walked lazily, deciding a window only when the
    walk reaches its first node, and the first cycle it closes decodes to a
    (gamma0 + Z p v)-invariant solution.
    """
    dim = gamma0.dim
    for tile, target in constraints:
        if not target.stabilizer().contains_lattice(gamma0):
            raise InputContractError("invariance lattice does not fix a constraint target")
    # the transversal: the first point of `ambient` off span(gamma0)
    v = avoid_subspaces(ambient, [RationalSubspace.from_vectors(dim, gamma0.basis)])
    rec = _Recoder(gamma0, v)
    domain = rec.quotient.residues
    m = len(domain)

    compiled = []
    offsets = [0]
    for tile, target in constraints:
        for u in domain:
            items = []
            for f in tile.sorted_points:
                n_off, u_prime = rec.split(vsub(u, f))
                items.append((n_off, rec.quotient.numbers([u_prime])[0]))
                offsets.append(n_off)
            t = target(u)
            if t.denominator != 1:
                raise InputContractError("constraint target must be integer-valued")
            compiled.append((tuple(items), int(t)))
    lo, hi = min(offsets), max(offsets)
    window = hi - lo + 1

    if m * max(window, 1) > 22:  # more than 2^22 windows of 2^m letters each
        raise InputContractError("block graph too large for this fixture scale")
    # per constraint: its cells in a node, those in the letter after it, its target
    split = [([(n - lo, u) for n, u in items if n < hi], [u for n, u in items if n == hi], t)
             for items, t in compiled]
    alphabet = tuple(itertools.product((0, 1), repeat=m))

    def extensions(node):
        need = [(last, t - sum(node[i][u] for i, u in inner)) for inner, last, t in split]
        if any(rest for last, rest in need if not last):
            return ()
        need = [(last, rest) for last, rest in need if last]
        return (a for a in alphabet if all(sum(a[u] for u in last) == rest for last, rest in need))

    letters = _cycle_letters(alphabet, window, extensions)
    if letters is None:
        raise NoCycleError("constraint system admits no periodic sequence; "
                           "the input contract must have been violated")
    p = len(letters)
    out_lattice = hnf(dim, list(gamma0.basis) + [vscale(p, v)])
    mask = 0
    for a, r in enumerate(out_lattice.quotient().residues):
        n, u = rec.split(r)
        mask |= letters[n % p][rec.quotient.numbers([u])[0]] << a
    return PeriodicSet(out_lattice, mask)


def _failure(rep):
    """The failing tile and its defects of a JointReport, values as p/q strings."""
    defects = ", ".join(f"({r}, {v})" for r, v in rep.report.defects)
    return f"tile {rep.failing_tile} fails: {defects}"


def lift_to_full_period(tiles, gamma0, cotile):
    """From a joint co-tile invariant under a rank-(d-1) subgroup to a fully
    periodic one.

    Only the designated invariance gamma0 is used by the construction; the
    given co-tile guarantees the recoded constraint system is non-empty, so a
    cycle always exists.
    """
    d = tiles.dim
    if gamma0.rank != d - 1:
        raise InputContractError(f"gamma0 must have rank {d - 1}, got {gamma0.rank}")
    if not stabilizer(cotile).contains_lattice(gamma0):
        raise InputContractError("gamma0 does not stabilize the given co-tile")
    rep = verify.is_joint_cotile(tiles, cotile)
    if not rep:
        raise NotACotileError(_failure(rep))
    ambient = Lattice.identity(d)
    ones = PeriodicRationalFunction.constant(ambient, 1)
    constraints = [(tile, ones) for tile in tiles]
    result = periodic_point_from_constraints(constraints, gamma0, ambient)
    out = verify.is_joint_cotile(tiles, result)
    if not out:
        raise InternalError("decoded cycle fails verification")
    return result


def _rank_d_minus_1_sublattice(lat, d):
    """A rank-(d-1) sublattice of a rank-(d-1)-or-more lattice."""
    if lat.rank == d - 1:
        return lat
    return hnf(lat.dim, lat.basis[:d - 1])


def _disjoint_pieces(pieces):
    """(common, refined, union): the intersection of the piece lattices, the
    pieces refined to it and the mask of their union; raises
    NotAPartitionError when two pieces overlap."""
    common = pieces[0].lattice
    for piece in pieces[1:]:
        common = common.intersect(piece.lattice)
    refined = [p.refine(common) for p in pieces]
    union = 0
    for p in refined:
        if union & p.mask:
            raise NotAPartitionError("pieces overlap")
        union |= p.mask
    return common, refined, union


def piecewise_to_periodic(tiles, pieces, declared_stabilizers=None):
    """Turn a union of almost-periodic pieces that jointly co-tile into a fully
    periodic joint co-tile.

    declared_stabilizers optionally limits the periodicity knowledge the
    pipeline may use (each must be a rank-(d-1)-or-more sublattice of the true
    stabilizer of its piece); by default the full stabilizers are used.  When
    the declared stabilizers meet in rank d-1 or more, the union is lifted
    directly.  Otherwise pieces whose declared stabilizers span one hyperplane
    are merged, in the order of their first piece, onto the intersection of
    those stabilizers: two such stabilizers have a sum of infinite index
    exactly when they do.  Each group on a rank-(d-1) lattice is replaced by a
    fully periodic set with the same convolutions 1_F * group via the
    block-graph machinery, and the verified sum is returned.
    """
    d = tiles.dim
    if not pieces:
        raise InputContractError("need at least one piece")
    common, refined, covered = _disjoint_pieces(pieces)
    union = PeriodicSet(common, covered)
    rep = verify.is_joint_cotile(tiles, union)
    if not rep:
        raise NotACotileError(_failure(rep))

    if declared_stabilizers is None:
        stabs = [stabilizer(p) for p in refined]
    else:
        if len(declared_stabilizers) != len(pieces):
            raise InputContractError("one declared stabilizer per piece")
        stabs = []
        for lat, piece in zip(declared_stabilizers, refined):
            if lat.rank < d - 1:
                raise InputContractError("declared stabilizers need rank >= d-1")
            if not stabilizer(piece).contains_lattice(lat):
                raise InputContractError("declared stabilizer does not fix its piece")
            stabs.append(lat)

    meet = stabs[0]
    for s in stabs[1:]:
        meet = meet.intersect(s)
    if meet.rank >= d - 1:
        if meet.rank == d:
            return union.on_stabilizer()
        return lift_to_full_period(tiles, _rank_d_minus_1_sublattice(meet, d), union)

    # group by the hyperplane a rank-(d-1) stabilizer spans; a rank-d one
    # keeps its own group
    groups = {}
    for i, (piece, stab) in enumerate(zip(refined, stabs)):
        key = RationalSubspace.from_vectors(d, stab.basis) if stab.rank < d else i
        mask, lat = groups.get(key, (0, stab))
        groups[key] = (mask | piece.mask, lat.intersect(stab))

    replacements = []
    for mask, declared in groups.values():
        piece = indicator(PeriodicSet(common, mask))
        if declared.rank == d:
            replacements.append(piece)
            continue
        conv_targets = [(tile, convolve(tile, piece)) for tile in tiles]
        lam = conv_targets[0][1].stabilizer()
        for _, conv in conv_targets[1:]:
            lam = lam.intersect(conv.stabilizer())
        gamma0 = _rank_d_minus_1_sublattice(declared, d)
        solved = periodic_point_from_constraints(conv_targets, gamma0, lam)
        for tile, conv in conv_targets:
            if convolve(tile, indicator(solved)) != conv:
                raise InternalError("re-solved piece fails its convolution targets")
        replacements.append(indicator(solved))

    total = replacements[0]
    for fn in replacements[1:]:
        total = total + fn
    if total.den != 1 or not set(total.nums) <= {0, 1}:
        raise InternalError("sum of replacement pieces is not an indicator; "
                            "contradicts the exact-cover constraint")
    result = total.support_set().on_stabilizer()
    out = verify.is_joint_cotile(tiles, result)
    if not out:
        raise InternalError("assembled co-tile fails verification")
    return result


class AllDPeriodic:
    """Verdict: every piece in the partition is fully periodic."""

    def __init__(self, common):
        self.common = common

    def __repr__(self):
        return f"ALL_D_PERIODIC(common={self.common!r})"


def common_stabilizer(pieces):
    """The verdict on a partition of Z^d into periodic pieces: always
    AllDPeriodic.

    A piece presented on a full-rank lattice is stabilized by that lattice,
    so every stabilizer has full rank; the verdict carries the intersection
    of the stabilizers, which stabilizes every piece.
    """
    if not pieces:
        raise NotAPartitionError("empty piece list")
    common, refined, covered = _disjoint_pieces(pieces)
    if covered != (1 << common.index()) - 1:
        raise NotAPartitionError("pieces do not cover Z^d")
    meet = stabilizer(refined[0])
    for p in refined[1:]:
        meet = meet.intersect(stabilizer(p))
    return AllDPeriodic(meet)
