"""Exact arithmetic for subgroups of Z^d: canonical bases, quotients, stabilizers.

A subgroup is stored as a d x k integer matrix of generating columns in a
canonical Hermite form: the pivot of column j (its last nonzero entry) is
positive and sits at a strictly larger row than the pivot of column j-1, and
within each pivot row the entries to the right of the pivot are reduced into
[0, pivot).  Two values generate the same subgroup exactly when their stored
matrices are equal.  All arithmetic is on Python ints, so pivots and indices
never overflow.

The integer row Hermite form `_row_hnf` is the only routine that builds a
form.  It gives the canonical bases, membership in a lattice of deficient rank
(v lies in L when adding v leaves the canonical basis unchanged), the integer
kernel `_integer_kernel`, on which intersections and every other kernel
question rest, and the rows of `analysis.RationalSubspace`.  Membership and
rank there read those rows by one reduction; the reduced row echelon form over
Q is read off them on first use."""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .errors import InputContractError, RankDeficientError


class Infinite:
    """Index of a subgroup of deficient rank.  Singleton; unequal to every int."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITE"


INFINITE = Infinite()


def _integer(x):
    """x as an int: an int, or a float with an integer value such as 1.0;
    anything else, a bool among them, is an InputContractError.  The one
    reader for the integers of a document and of the public constructors."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, float) and x.is_integer():
        return int(x)
    raise InputContractError(f"{x!r} is not an integer")


def _integers(values):
    """The values as a tuple of ints, each read by _integer; plain ints, the
    common case, skip the call per entry."""
    values = tuple(values)
    return values if _INT.issuperset(map(type, values)) else tuple(map(_integer, values))


_INT = {int}


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vneg(u):
    return tuple(-a for a in u)


def vscale(c, u):
    return tuple(c * a for a in u)


def _row_hnf(rows, width):
    """Row Hermite form: leading pivots at strictly increasing columns, pivots
    positive, entries above each pivot reduced into [0, pivot).

    Each column is cleared below the pivot by taking the row of least absolute
    entry as pivot and reducing the others by it until one is left, and the
    rows above are reduced as soon as the pivot is placed.  Both keep the
    intermediate entries small: clearing with the first nonzero row and
    reducing upward only at the end let them grow past 160,000 bits for the
    ring inverse of a 21-element subset of Z/43Z.
    """
    work = [list(r) for r in rows if any(r)]
    nrows = len(work)
    r = 0
    for col in range(width):
        rest = [i for i in range(r, nrows) if work[i][col]]
        if not rest:
            continue
        while rest:
            pivot = min(rest, key=lambda i: abs(work[i][col]))
            work[r], work[pivot] = work[pivot], work[r]
            head, h = work[r], work[r][col]
            rest = []
            for i in range(r + 1, nrows):
                if work[i][col]:
                    q = work[i][col] // h
                    work[i] = [a - q * b for a, b in zip(work[i], head)]
                    if work[i][col]:
                        rest.append(i)
            if rest:
                rest.append(r)
        if h < 0:
            h = -h
            head = work[r] = [-a for a in head]
        for i in range(r):
            q = work[i][col] // h
            if q:
                work[i] = [a - q * b for a, b in zip(work[i], head)]
        r += 1
    return work[:r]


def hnf(dim, vectors):
    """Canonical Lattice generated by the given integer vectors.

    Zero vectors are dropped; an empty generating set yields the zero lattice.
    Idempotent: feeding back the columns of a canonical basis reproduces it.
    Every coordinate is read by _integer.
    """
    vecs = [_integers(v) for v in vectors]
    for v in vecs:
        if len(v) != dim:
            raise InputContractError(f"vector {v} does not have dimension {dim}")
    reduced = _row_hnf([list(reversed(v)) for v in vecs], dim)
    cols = [tuple(reversed(row)) for row in reduced]
    cols.reverse()
    return Lattice(dim, tuple(cols))


def _integer_kernel(rows, width):
    """Basis of {x in Z^width : r . x = 0 for every row r}.

    The rows of the Hermite form of the unit-extended columns [column_j | e_j]
    whose first len(rows) entries vanish (H. Cohen, A Course in Computational
    Algebraic Number Theory, 2.4).
    """
    m = len(rows)
    ext = [[r[j] for r in rows] + [int(t == j) for t in range(width)] for j in range(width)]
    return [tuple(h[m:]) for h in _row_hnf(ext, m + width) if not any(h[:m])]


@dataclass(frozen=True)
class Lattice:
    """Subgroup of Z^dim given by canonical generating columns.

    Construct through hnf(); the raw constructor trusts that `basis` is
    already canonical.
    """

    dim: int
    basis: tuple

    @property
    def rank(self):
        return len(self.basis)

    @property
    def is_full_rank(self):
        return len(self.basis) == self.dim

    @property
    def pivots(self):
        """Diagonal pivots; full-rank lattices only."""
        if not self.is_full_rank:
            raise RankDeficientError("pivots are defined for full-rank lattices")
        return tuple(self.basis[i][i] for i in range(self.dim))

    def index(self):
        """Number of cosets: product of pivots, or INFINITE below full rank."""
        if not self.is_full_rank:
            return INFINITE
        return math.prod(self.pivots)

    def reduce(self, v):
        """Canonical representative of v modulo this lattice (full rank only)."""
        if not self.is_full_rank:
            raise RankDeficientError("reduce requires a full-rank lattice")
        if len(v) != self.dim:
            raise InputContractError(f"vector {v} does not have dimension {self.dim}")
        w = list(v)
        for i in range(self.dim - 1, -1, -1):
            q = w[i] // self.basis[i][i]
            if q:
                col = self.basis[i]
                for t in range(i + 1):
                    w[t] -= q * col[t]
        return tuple(w)

    def contains(self, v):
        if len(v) != self.dim:
            return False
        if self.is_full_rank:
            return not any(self.reduce(v))
        return hnf(self.dim, self.basis + (tuple(v),)) == self

    def contains_lattice(self, other):
        return all(self.contains(c) for c in other.basis)

    def sum(self, other):
        self._check_dim(other)
        return hnf(self.dim, self.basis + other.basis)

    def intersect(self, other):
        """L meet M: the vectors B a with B a = C b, from the integer kernel of
        [B | -C] for the basis matrices B of L and C of M."""
        self._check_dim(other)
        rows = [[b[i] for b in self.basis] + [-c[i] for c in other.basis]
                for i in range(self.dim)]
        kernel = _integer_kernel(rows, self.rank + other.rank)
        return hnf(self.dim, [tuple(sum(a * b[i] for a, b in zip(x, self.basis))
                                    for i in range(self.dim)) for x in kernel])

    def quotient(self):
        """Z^dim / L with residues in mixed-radix order (full rank only).

        Equal lattices share one QuotientGroup in the solver and every other
        layer.  It is kept in a module-level cache, not on the lattice, so a
        lattice that outlives its computation does not pin it; the cache
        counts each quotient as its index and drops the oldest quotients,
        translation tables, head rows and homs once QUOTIENT_BUDGET is passed.
        """
        if not self.is_full_rank:
            raise RankDeficientError("quotient requires a full-rank lattice")
        return _quotients.get(self.basis, QuotientGroup, self)

    def scale(self, r):
        """The sublattice r * L."""
        return hnf(self.dim, [vscale(r, c) for c in self.basis])

    def _check_dim(self, other):
        if self.dim != other.dim:
            raise InputContractError("lattices live in different dimensions")

    @staticmethod
    def zero(dim):
        return Lattice(dim, ())

    @staticmethod
    def identity(dim):
        return Lattice(dim, tuple(tuple(1 if i == j else 0 for i in range(dim))
                                  for j in range(dim)))

    @staticmethod
    def diagonal(entries):
        """The lattice of the diagonal matrix of entries, each read by _integer."""
        entries = _integers(entries)
        dim = len(entries)
        if any(e <= 0 for e in entries):
            raise InputContractError("diagonal entries must be positive")
        return Lattice(dim, tuple(tuple(entries[j] if i == j else 0 for i in range(dim))
                                  for j in range(dim)))

    def __repr__(self):
        return f"Lattice(dim={self.dim}, basis={list(map(list, self.basis))})"


QUOTIENT_BUDGET = 1 << 21  # residue numbers in kept quotients, tables, head rows and homs
SUBLATTICE_CACHE = 4096    # lattices kept by enumerate_sublattices, in all


class _Cache:
    """Values by key, oldest first, each counted as len(value).  get makes a
    missing value with make(*args); while the counts sum to more than limit
    the oldest values go, but the value made last always stays."""

    def __init__(self, limit):
        self.limit, self.values, self.held = limit, {}, 0   # held: the counts, summed

    def get(self, key, make, *args):
        values = self.values
        value = values.get(key)
        if value is None:
            value = values[key] = make(*args)
            self.held += len(value)
            while self.held > self.limit and len(values) > 1:
                self.held -= len(values.pop(next(iter(values))))
        return value


class QuotientGroup:
    """Z^d / L for a full-rank L, with residues numbered 0..index-1.

    Residue number a has digits a_i in [0, pivot_i) with the first coordinate
    varying fastest: a = a_0 + p_0 * (a_1 + p_1 * (a_2 + ...)).  This class,
    with the rank of its kept head rows, is the only code that knows that
    order, which a function's numerators and the bits of a PeriodicSet's
    mask follow: numbers is its one encoder and decode its one decoder, and
    neither builds the residues tuple.  size is the index n.  The instance
    holds no table, row or hom: translation, heads and characters keep them
    in the cache of Lattice.quotient(), under (basis, shift), (basis, None)
    and (basis, p), where callers read them in place, so they outlive an
    evicted quotient and count against QUOTIENT_BUDGET.  Nothing here refers
    back to the instance, so it forms no reference cycle.
    """

    def __init__(self, lattice):
        self.lattice = lattice
        self.pivots = lattice.pivots
        self.size = math.prod(self.pivots)   # the index n

    @cached_property
    def residues(self):
        return tuple(self.decode(range(self.size)))

    def numbers(self, vectors):
        """Residue numbers of the integer vectors, each reduced on the way as
        Lattice.reduce does, read off the digits without residues."""
        pivots, basis = self.pivots, self.lattice.basis
        down = range(len(pivots) - 1, -1, -1)
        out = []
        for v in vectors:
            w = list(v)
            a = 0
            for k in down:
                p = pivots[k]
                x = w[k]
                q = x // p
                if q:
                    x -= q * p
                    col = basis[k]
                    for t in range(k):
                        w[t] -= q * col[t]
                a = a * p + x
            out.append(a)
        return tuple(out)

    def decode(self, numbers):
        """The canonical residues of a sequence of residue numbers, as a list,
        read off the digits one coordinate at a time for all the numbers."""
        columns, stride = [], 1
        for p in self.pivots:
            columns.append([a // stride % p for a in numbers])
            stride *= p
        return list(zip(*columns)) if columns else [()] * len(numbers)

    def heads(self, numbers, negated=()):
        """The kept head rows of this quotient (a _HeadRows), read in place:
        rows[y] is walked for every y in numbers, and back[y], the row of -y,
        is held for every y in negated, a subset of numbers.  Row y lists
        the number of residues[y] + residues[B * p_0] for each of the n / p_0
        blocks B, the heads of the digit-0 blocks, in order.  Digit 0 never
        carries (basis column 0 is p_0 e_0), so y + B * p_0 + t is entry B
        of row y rotated by t inside its block of p_0 numbers.

        A row is walked the first time it is asked for.  One walk serves the
        m new rows: their cells, interleaved, start at the numbers themselves
        and move p_k - 1 times along the kept table of each basis step e_k,
        k >= 1, and every move appends a copy, so row i is every m-th entry
        from i on.  The row of -y is row z, z the number of -y: row y has
        one entry h below p_0, at block B, and y + B * p_0 + (-h mod p_0) is
        0.  Row z is inverted from row y only when it is not held yet.
        """
        key = self.lattice.basis, None
        kept = _quotients.values.get(key)
        if kept is None:
            kept = _quotients.get(key, _HeadRows, self.pivots)
        rows = kept.rows
        new = [y for y in numbers if rows[y] is None]
        if new:
            pivots = self.pivots
            new = list(set(new))
            walked = new[:]
            for k in range(1, len(pivots)):
                if pivots[k] > 1:
                    step = self.translation([int(t == k) for t in range(len(pivots))])
                    run = walked
                    walked = walked[:]
                    for _ in range(pivots[k] - 1):
                        run = [step[x] for x in run]
                        walked += run
            for i, y in enumerate(new):
                rows[y] = tuple(walked[i::len(new)])
        back = kept.back
        for y in negated:
            if back[y] is None:
                p0, row = self.pivots[0], rows[y]
                h = min(row)
                z = row.index(h) * p0 + -h % p0
                if rows[z] is None:
                    rows[z] = _negated_row(row, p0)
                back[y], back[z] = rows[z], row
        return kept

    def characters(self, p):
        """The homomorphisms chi of this group onto Z/p^k, k >= 1, that are
        not chi' mod p^k for some chi' onto Z/p^(k+1), one per class under
        the units of Z/p^k: a _Characters, kept in the quotient cache under
        (basis, p)."""
        return _quotients.get((self.lattice.basis, p), _Characters, self.pivots,
                              self.lattice.basis, p)

    def translation(self, v):
        """Translation by the integer vector v as a permutation of residue numbers.

        Entry a is the number of lattice.reduce(residues[a] + v).  The table,
        a tuple, is kept in the quotient cache under (basis, v), as convolution
        and heads want, and read from it in place.
        """
        key = self.lattice.basis, tuple(v)
        table = _quotients.values.get(key)
        if table is None:
            table = _quotients.get(key, tuple, self._table(len(self.pivots), list(key[1])))
        return table

    def _table(self, k, g):
        """Translation table of the first k coordinates by the vector g, a
        list kept nowhere.  It is built from the top coordinate down: a carry
        out of digit k subtracts basis column k from the lower digits, exactly
        as Lattice.reduce does, so each run of residues with equal top digit
        is a lower-dimensional table for one of two vectors."""
        if not k:  # Z^0 / L, the trivial group
            return [0]
        col = self.lattice.basis[k - 1]
        p = self.pivots[k - 1]
        q, top = divmod(g[k - 1], p)
        if k == 1:
            return list(range(top, p)) + list(range(top))
        low = [g[t] - q * col[t] for t in range(k - 1)]
        kept = self._table(k - 1, low)
        if p == 1:
            return kept
        stride = len(kept)
        # top digits below p - top stay below p; the others carry once more
        out = [x + s for s in range(top * stride, p * stride, stride) for x in kept]
        if top:
            carried = self._table(k - 1, [a - c for a, c in zip(low, col)])
            out += [x + s for s in range(0, top * stride, stride) for x in carried]
        return out

    def __len__(self):
        return self.size

    def __iter__(self):
        return iter(self.residues)


class _HeadRows:
    """The head rows of one quotient of index n, read in place
    (QuotientGroup.heads): rows[y] is the row of y, a tuple, once walked or
    inverted, back[y] is rows[number of -y] once asked for, and rank[a] is
    the place of residue a in sorted order.  Counted at the most it can
    hold, n * n / p_0 row entries and n entries each for back and rank."""

    def __init__(self, pivots):
        n = math.prod(pivots)
        self.pivots = pivots
        self.rows = [None] * n
        self.back = [None] * n
        self.size = n * n // pivots[0] + 2 * n

    def __len__(self):
        return self.size

    @cached_property
    def rank(self):
        """Sorted order compares residues from coordinate 0 down, so residue
        a ranks at its digits read as a number with digit 0 highest."""
        rank = [0]
        for p in self.pivots:
            rank = [r * p + t for t in range(p) for r in rank]
        return rank


class _Characters:
    """The kept homomorphisms of QuotientGroup.characters: homs[i] = (k, c),
    chi(x) = c.x mod p^k, by k descending.  Counted as what it holds, one
    entry a hom, plus one for the record.

    A hom to Z/q, q = p^K with K = v_p(n), is x -> c.x mod q for a row c
    with c B = 0 (mod q), B the basis matrix, and the rows of n B^-1 (its
    adjugate, upper triangular like B) span them: each is such a row, and
    they span every c with c B in qZ^d modulo qZ^d, as multiplying by n / q
    permutes that p-group.  So the p-part G_p, of order q, is cyclic when a
    row has an entry prime to p; that row is then chi onto Z/q, one hom up
    to units, and every hom onto a smaller Z/p^k is one reduced.  Otherwise
    the rows are added up to all of their span.  A row whose entries have
    gcd p^v with q is p^v chi for the one chi onto Z/p^k, k = K - v, with
    row c / p^v, which is chi' mod p^k for a chi' onto Z/p^(k+1) exactly
    when the row is p times a row.  The row whose first entry of least
    valuation is p^v stands for its class under units.
    """

    __slots__ = ("homs",)

    def __init__(self, pivots, basis, p):
        n, q, level = math.prod(pivots), 1, {1: 0}   # level[p^k] = k
        while not n % (q * p):
            q *= p
            level[q] = len(level)
        d, rows = len(pivots), []
        for i in range(d):   # row i of n B^-1, by back substitution
            y = [0] * d
            y[i] = n // pivots[i]
            for j in range(i + 1, d):
                y[j] = -sum(map(operator.mul, y[i:j], basis[j][i:j])) // pivots[j]
            c = tuple([x % q for x in y])
            unit = next((x for x in c if x % p), None)
            if unit is not None:   # G_p is cyclic
                u = pow(unit, -1, q)
                homs = [(level[q], tuple([x * u % q for x in c]))]
                break
            rows.append(c)
        else:
            span = {(0,) * d}
            for c in rows:
                step, more = c, []
                while step not in span:
                    more.append(step)
                    step = tuple([(x + y) % q for x, y in zip(step, c)])
                span |= {tuple([(x + y) % q for x, y in zip(h, m)]) for h in span for m in more}
            homs, lifted = [], {tuple([p * x % q for x in c]) for c in span}
            for c in sorted(span):
                g = math.gcd(q, *c)
                if c not in lifted and next(x for x in c if x % (g * p)) == g:
                    homs.append((level[q // g], tuple([x // g for x in c])))
            homs.sort(key=lambda hom: -hom[0])
        self.homs = tuple(homs)

    def __len__(self):
        return len(self.homs) + 1


def _negated_row(row, p0):
    """The head row of -y from that of y: entry B of row y, h, makes entry
    h // p_0 of row -y B * p_0 + (-h mod p_0)."""
    out = [0] * len(row)
    for b, h in enumerate(row):
        out[h // p0] = b * p0 + -h % p0
    return tuple(out)


_quotients = _Cache(QUOTIENT_BUDGET)   # quotients by basis; tables, rows, homs by (basis, shift, None or p)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _ordered_factorizations(n, length):
    if length == 1:
        yield (n,)
        return
    for first in _divisors(n):
        for rest in _ordered_factorizations(n // first, length - 1):
            yield (first,) + rest


def enumerate_sublattices(dim, n):
    """All full-rank sublattices of Z^dim with index exactly n, canonically
    sorted, as a new list on each call.

    Enumerates canonical bases directly: positive pivots with product n on the
    diagonal, the entry at row i of a later column ranging over [0, pivot_i).
    The lattices are kept as a tuple, up to SUBLATTICE_CACHE in all, so a
    repeated sweep meets the same lattices and their kept quotients.  dim
    and n are read by _integer.
    """
    dim, n = _integer(dim), _integer(n)
    if dim < 1:
        raise InputContractError("dimension must be positive")
    if n < 1:
        raise InputContractError("index must be positive")
    return list(_sublattices.get((dim, n), _sorted_sublattices, dim, n))


class _Sublattices(tuple):
    """The kept candidate tuple of one dimension and index, with the grouping
    of its lattices by Hermite rows that _avoiding walks."""

    @cached_property
    def rows(self):
        """Positions in this tuple, grouped by rows from row d-1 up: for each
        row k >= 1, a dict by (p_k, the row's entries right of p_k), and under
        row 1 (the whole of it when d = 1), (p_0, positions) with positions[x]
        the lattice whose row-0 entries right of p_0 are the digits of x in
        base p_0, column 1 lowest."""
        d = self[0].dim
        root = {}
        for pos, lat in enumerate(self):
            b = lat.basis
            p0 = b[0][0]
            node, key = root, ()
            for k in range(d - 1, 0, -1):
                node = node.setdefault(key, {})
                key = b[k][k], tuple(c[k] for c in b[k + 1:])
            leaf = node.setdefault(key, (p0, [0] * p0 ** (d - 1)))
            leaf[1][sum(c[0] * p0 ** j for j, c in enumerate(b[1:]))] = pos
        return root[()]


def _sorted_sublattices(dim, n):
    out = []
    for pivots in _ordered_factorizations(n, dim):
        slots = [(i, j) for j in range(dim) for i in range(j)]
        ranges = [range(pivots[i]) for i, _ in slots]
        for fill in itertools.product(*ranges):
            cols = [[0] * dim for _ in range(dim)]
            for j in range(dim):
                cols[j][j] = pivots[j]
            for (i, j), val in zip(slots, fill):
                cols[j][i] = val
            out.append(Lattice(dim, tuple(tuple(c) for c in cols)))
    return _Sublattices(sorted(out, key=lambda lat: lat.basis))


_sublattices = _Cache(SUBLATTICE_CACHE)


def _avoiding(dim, n, vectors):
    """One flag per lattice of enumerate_sublattices(dim, n), in its order:
    1 where the lattice contains none of the integer vectors, else 0.  No
    lattice or quotient is built.

    v lies in L when every digit of v, reduced as QuotientGroup.numbers does,
    is 0.  Digits d-1 to 1 and their quotients q_k depend only on rows d-1 to
    1 of the basis, so the walk reduces each vector once per group of those
    rows, sharing each row's step among the groups below it, and drops the
    vector from a group at a nonzero digit.  Digit 0 is then 0 exactly when
    sum_j q_j * b_0j = v_0 (mod p_0) in the row-0 entries b_0j; the walk
    solves that congruence for the last entry, by its gcd with p_0 and one
    modular inverse, and clears the flags of exactly the lattices that
    satisfy it.
    """
    lattices = _sublattices.get((dim, n), _sorted_sublattices, dim, n)
    flags = bytearray(b"\1") * len(lattices)
    _walk(lattices.rows, dim - 1, vectors, flags)
    return flags


def _walk(node, k, states, flags):
    """Reduce the states through row k of node's groups and clear flags at
    row 0; see _avoiding.  A state is a vector whose entries past k hold its
    quotients q_k+1 .. q_d-1 in place of its own entries."""
    if k:
        for (p, row), child in node.items():
            kept = []
            for v in states:
                x = v[k] - sum(map(operator.mul, v[k + 1:], row))
                if not x % p:
                    kept.append(v[:k] + (x // p,) + v[k + 1:])
            if kept:
                _walk(child, k - 1, kept, flags)
        return
    p0, positions = node
    if len(positions) == 1:  # d = 1, or p_0 = 1: no row-0 entries to solve for
        for v in states:
            if not v[0] % p0:
                flags[positions[0]] = 0
                return
        return
    weight = len(positions) // p0
    for v in states:
        *lead, a = v[1:]
        g = math.gcd(a, p0)
        step = p0 // g
        inverse = pow(a // g, -1, step)
        for base in range(weight):  # the digits of base are b_01 .. b_0,d-2
            rest, digits = v[0], base
            for q in lead:
                digits, x = divmod(digits, p0)
                rest -= q * x
            if not rest % g:
                for x in range(rest // g * inverse % step, p0, step):
                    flags[positions[base + x * weight]] = 0


def enumerate_points(lat):
    """Lattice points by increasing sup-norm shell, lexicographic within a shell.

    The order is part of several contracts downstream; do not change it.
    """
    dim = lat.dim
    zero = (0,) * dim
    yield zero
    s = 1
    while True:
        for p in itertools.product(range(-s, s + 1), repeat=dim):
            if max(abs(a) for a in p) == s and lat.contains(p):
                yield p
        s += 1


def _mask(numbers):
    """The mask with bit a set for each residue number a in numbers."""
    return sum(1 << a for a in set(numbers))


def _bits(mask):
    """The residue numbers of the set bits of a mask, ascending."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


@dataclass(frozen=True, slots=True)
class PeriodicSet:
    """An L-periodic subset of Z^d: a full-rank lattice plus an int mask, bit a set
    for member residue number a of lattice.quotient(); members and sorted_members decode it."""

    lattice: Lattice
    mask: int

    @staticmethod
    def make(lattice, vectors):
        quotient = lattice.quotient()
        vectors = [_integers(v) for v in vectors]
        if any(len(v) != lattice.dim for v in vectors):
            raise InputContractError(f"a vector does not have dimension {lattice.dim}")
        return PeriodicSet(lattice, _mask(quotient.numbers(vectors)))

    @property
    def dim(self):
        return self.lattice.dim

    @property
    def members(self):
        return frozenset(self.lattice.quotient().decode(_bits(self.mask)))

    @property
    def sorted_members(self):
        return tuple(sorted(self.lattice.quotient().decode(_bits(self.mask))))

    def contains(self, v):
        if len(v) != self.dim:
            raise InputContractError(f"vector {v} does not have dimension {self.dim}")
        return self.mask >> self.lattice.quotient().numbers([v])[0] & 1 == 1

    def translate(self, v):
        table = self.lattice.quotient().translation(v)
        return PeriodicSet(self.lattice, _mask([table[a] for a in _bits(self.mask)]))

    def density(self):
        return Fraction(self.mask.bit_count(), self.lattice.index())

    def refine(self, sub):
        """Re-present on a finer full-rank lattice sub (sub must lie inside lattice)."""
        if not self.lattice.contains_lattice(sub):
            raise InputContractError("refinement lattice is not contained in the current one")
        numbers = self.lattice.quotient().numbers(sub.quotient().residues)
        return PeriodicSet(sub, _mask([b for b, a in enumerate(numbers) if self.mask >> a & 1]))

    def on_stabilizer(self):
        """Canonical presentation on the full stabilizer lattice (self when
        the lattice is already the stabilizer)."""
        stab = stabilizer(self)
        return self if stab == self.lattice else PeriodicSet.make(stab, self.members)

    def same_set(self, other):
        """Equality as subsets of Z^d, regardless of presentation lattice."""
        if self.dim != other.dim:
            return False
        common = self.lattice.intersect(other.lattice)
        return self.refine(common).mask == other.refine(common).mask

    def __repr__(self):
        return f"PeriodicSet({self.lattice!r}, members={self.sorted_members})"


def stabilizer(aset):
    """Full stabilizer {v : A + v = A} of a periodic set, as a canonical Lattice."""
    return label_stabilizer(aset.lattice, [aset.mask >> a & 1 for a in range(aset.lattice.index())])


def label_stabilizer(lat, labels):
    """Full stabilizer {v : label(x + v) = label(x) for all x} of a labelling.

    labels lists a hashable label for every residue of the full-rank lattice
    lat, in the residue order of lat.quotient().  A stabilizing v moves the
    least frequent label class C onto itself, so v = x - x0 for some x in C
    and a fixed x0 in C; only those shifts are tried, and a shift already in
    the lattice found so far needs no test.  A shift stabilizes when it keeps
    the label of every residue outside the largest class: translation is a
    bijection, so the largest class is then kept too.  Each test reads labels
    through a translation table built for it alone (QuotientGroup._table),
    so probing cannot evict the tables that convolution reuses.  The coset
    x0 + found is kept as residue numbers, the orbit of x0 under the tables
    of the shifts found, so a candidate already in found costs one set
    lookup.
    """
    quotient = lat.quotient()
    classes = {}
    for a, label in enumerate(labels):
        classes.setdefault(label, []).append(a)
    by_size = sorted(classes.values(), key=len)
    rare = by_size[0]
    tested = [a for cls in by_size[:-1] for a in cls]
    expected = [labels[a] for a in tested]
    found = lat
    coset = {rare[0]}   # numbers of the residues x with x - x0 in found
    moves = []          # translation tables of the shifts added to found
    cells = quotient.decode(rare)
    x0 = cells[0]
    for a, x in zip(rare, cells):
        if a in coset:
            continue
        v = vsub(x, x0)
        table = quotient._table(lat.dim, list(v))
        if [labels[table[b]] for b in tested] != expected:
            continue
        found = hnf(lat.dim, found.basis + (v,))
        moves.append(table)
        frontier = list(coset)
        while frontier:
            step = []
            for move in moves:
                for b in frontier:
                    c = move[b]
                    if c not in coset:
                        coset.add(c)
                        step.append(c)
            frontier = step
    return found
