"""Exact linear algebra over Q for tuples of tiles.

Independence of tuples, the span-uniqueness property for (d-1)-tuples,
classification of point selections by the hyperplane they span, and quotient
dimensions modulo a subspace.  Ranks of integer vectors come from the integer
Hermite form `lattice._row_hnf`; subspaces are made canonical by a reduced row
echelon form over Q, so equal spans compare and hash equal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotIndependentError, WrongArityError
from .lattice import _row_hnf, vadd


def _rref(rows):
    """Reduced row echelon form over Q, zero rows dropped."""
    work = [[Fraction(x) for x in row] for row in rows]
    if not work:
        return []
    row = 0
    for col in range(len(work[0])):
        pr = next((i for i in range(row, len(work)) if work[i][col]), None)
        if pr is None:
            continue
        work[row], work[pr] = work[pr], work[row]
        pivot = work[row][col]
        if pivot != 1:
            work[row] = [a / pivot for a in work[row]]
        for i in range(len(work)):
            f = work[i][col]
            if f and i != row:
                work[i] = [a - f * b for a, b in zip(work[i], work[row])]
        row += 1
    return work[:row]


@dataclass(frozen=True)
class RationalSubspace:
    """A linear subspace of Q^dim_ambient in canonical reduced row echelon form."""

    dim_ambient: int
    basis: tuple  # rref rows as tuples of Fractions; no zero rows

    @staticmethod
    def from_vectors(dim_ambient, vectors):
        return RationalSubspace(dim_ambient, tuple(map(tuple, _rref(vectors))))

    @staticmethod
    def zero(dim_ambient):
        return RationalSubspace(dim_ambient, ())

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, v):
        rem = [Fraction(x) for x in v]
        for row in self.basis:
            col = next(i for i, a in enumerate(row) if a != 0)
            if rem[col] != 0:
                f = rem[col]
                rem = [a - f * b for a, b in zip(rem, row)]
        return not any(rem)

    def join(self, vectors):
        """Span of this subspace together with extra vectors."""
        return RationalSubspace.from_vectors(
            self.dim_ambient, list(self.basis) + [list(v) for v in vectors])

    def __repr__(self):
        return f"RationalSubspace({self.dim_ambient}, {[list(map(str, r)) for r in self.basis]})"


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
    dimension 2.
    """
    d = t.dim
    if len(t) != d - 1:
        raise WrongArityError(f"expected a tuple of length {d - 1}, got {len(t)}")
    ind = is_independent_tuple(t)
    if not ind:
        raise NotIndependentError(ind.witness)
    if d == 2:
        return StarResult(True, None)
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
