"""Exact linear algebra over Q for tuples of tiles.

Independence of tuples, the span-uniqueness property for (d-1)-tuples,
classification of point selections by the hyperplane they span, quotient
dimensions modulo a subspace, and the first lattice point off a family of
subspaces.  There is one elimination, the integer Hermite form
`lattice._row_hnf`: every rank, span and membership question is an integer
rank question on its rows.  The reduced row echelon form over Q, read off the
Hermite form by back-substitution, is only the normal form that makes equal
spans compare and hash equal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputContractError, InternalError, NotIndependentError, WrongArityError
from .lattice import _row_hnf, enumerate_points, vadd


def _rref(hermite):
    """Reduced row echelon form over Q of the rows of a row Hermite form.

    The pivots are the leading entries of the Hermite rows, so no pivot is
    searched for: from the last row up, each row is cleared at the pivot
    columns of the rows below it in integers and then divided by its pivot.
    """
    done = []  # (pivot column, integer row cleared at the later pivots)
    for h in reversed(hermite):
        row = list(h)
        for c, r in done:
            if row[c]:
                f, g = row[c], r[c]
                row = [g * a - f * b for a, b in zip(row, r)]
        done.append((next(i for i, a in enumerate(row) if a), row))
    return tuple(tuple(Fraction(a, row[c]) for a in row) for c, row in reversed(done))


@dataclass(frozen=True)
class RationalSubspace:
    """A linear subspace of Q^dim_ambient.

    `rows` is the integer row Hermite form of its generators and answers
    `dim`, `contains` and `join`; `basis`, the reduced row echelon form over Q
    read off `rows`, is the canonical key that equality and hashing compare.
    """

    dim_ambient: int
    basis: tuple  # rref rows as tuples of Fractions; no zero rows
    rows: tuple = field(compare=False)  # integer row Hermite form; not canonical

    @staticmethod
    def from_vectors(dim_ambient, vectors):
        rows = tuple(map(tuple, _row_hnf(vectors, dim_ambient)))
        return RationalSubspace(dim_ambient, _rref(rows), rows)

    @staticmethod
    def zero(dim_ambient):
        return RationalSubspace(dim_ambient, (), ())

    @property
    def dim(self):
        return len(self.rows)

    def contains(self, v):
        """Whether adding v to the generators leaves the rank unchanged."""
        return len(_row_hnf(self.rows + (v,), self.dim_ambient)) == len(self.rows)

    def join(self, vectors):
        """Span of this subspace together with extra vectors."""
        return RationalSubspace.from_vectors(self.dim_ambient, self.rows + tuple(vectors))

    def __repr__(self):
        return f"RationalSubspace({self.dim_ambient}, {[list(map(str, r)) for r in self.basis]})"


def avoid_subspaces(lat, subspaces):
    """First lattice point (pinned enumeration order) in none of the subspaces.

    The subspaces are linear or affine; each must be proper, so the complement
    is infinite and the scan terminates.
    """
    d = lat.dim
    for sub in subspaces:
        if sub.dim >= d:
            raise InputContractError("subspaces must have dimension < d")
    for p in enumerate_points(lat):
        if not any(sub.contains(p) for sub in subspaces):
            return p
    raise InternalError("unreachable: proper subspaces cannot cover a lattice")


@dataclass(frozen=True)
class IndependenceResult:
    independent: bool
    witness: tuple | None

    def __bool__(self):
        return self.independent


def is_independent_tuple(t):
    """Whether every selection of one nonzero point per tile is independent over Q.

    On failure the witness is a full-length dependent selection.  Tiles equal
    to {0} contribute no selections, so they never break independence.
    """
    stars = [tile.sorted_star for tile in t]
    active = [s for s in stars if s]
    d = t.dim
    if len(active) > d:
        witness = tuple(s[0] for s in stars if s)
        return IndependenceResult(False, witness)
    bad = _dependent_completion(stars, 0, [], ())
    if bad is not None:
        return IndependenceResult(False, bad)
    return IndependenceResult(True, None)


def _dependent_completion(stars, index, rows, chosen):
    """A dependent full selection extending the picks `chosen` from stars[:index],
    whose Hermite form rows are `rows`; None if every branch stays independent."""
    if index == len(stars):
        return None
    if not stars[index]:
        return _dependent_completion(stars, index + 1, rows, chosen)
    for v in stars[index]:
        new_rows = _row_hnf(rows + [v], len(v))
        if len(new_rows) == len(rows):
            tail = tuple(s[0] for s in stars[index + 1:] if s)
            return chosen + (v,) + tail
        bad = _dependent_completion(stars, index + 1, new_rows, chosen + (v,))
        if bad is not None:
            return bad
    return None


@dataclass(frozen=True)
class SpanClassification:
    """Partition of the selection product by the subspace each selection spans."""

    classes: tuple  # sorted ((RationalSubspace, (selection, ...)), ...)

    def __iter__(self):
        return iter(self.classes)

    def __len__(self):
        return len(self.classes)

    def total_tuples(self):
        return sum(len(tuples) for _, tuples in self.classes)


def span_classes(t):
    """Group every selection from F_1* x ... x F_k* by its span."""
    ind = is_independent_tuple(t)
    if not ind:
        raise NotIndependentError(ind.witness)
    stars = [tile.sorted_star for tile in t]
    grouped = {}
    for selection in itertools.product(*stars):
        space = RationalSubspace.from_vectors(t.dim, selection)
        grouped.setdefault(space, []).append(selection)
    classes = tuple(sorted(((space, tuple(tuples)) for space, tuples in grouped.items()),
                           key=lambda item: item[0].basis))
    return SpanClassification(classes)


@dataclass(frozen=True)
class StarResult:
    holds: bool
    witness: tuple | None  # pair of selections with equal span, different prefix

    def __bool__(self):
        return self.holds


def has_property_star(t):
    """Span-uniqueness for a (d-1)-tuple: equal spans force equal first d-2 picks.

    Requires len(t) == dim - 1 and an independent tuple; vacuously true in
    dimension 2, where every prefix is empty.
    """
    d = t.dim
    if len(t) != d - 1:
        raise WrongArityError(f"expected a tuple of length {d - 1}, got {len(t)}")
    for _, tuples in span_classes(t):
        prefix = tuples[0][:d - 2]
        for other in tuples[1:]:
            if other[:d - 2] != prefix:
                return StarResult(False, (tuples[0], other))
    return StarResult(True, None)


def vw_dimension(vectors, assignment, subset, w):
    """Dimension of the projection of span{v_j + g_j : j in subset} into Q^d / W.

    Computed as the dimension of W joined with the selected shifted vectors,
    minus dim W.  Indices are 0-based.
    """
    return w.join([vadd(vectors[j], assignment[j]) for j in subset]).dim - w.dim
