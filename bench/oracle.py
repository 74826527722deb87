"""Exact reference checks that do not call tilekit.

They read the public fields of tilekit's results (a lattice basis in canonical
Hermite form, member residues, rational values) and redo the arithmetic here,
so a wrong answer from the solver or the lattice layer cannot confirm itself.
"""

from __future__ import annotations

from fractions import Fraction


def reduce(basis, v):
    """Representative of v modulo a full-rank lattice in canonical Hermite form.

    Column i of the basis has its pivot at row i and zeros below it, so
    clearing coordinates from the last row up leaves each in [0, pivot).
    """
    w = list(v)
    for i in range(len(w) - 1, -1, -1):
        q = w[i] // basis[i][i]
        if q:
            w = [a - q * b for a, b in zip(w, basis[i])]
    return tuple(w)


def index(basis):
    n = 1
    for i, col in enumerate(basis):
        n *= col[i]
    return n


def tiles_exactly(points, basis, members):
    """Whether F + A covers Z^d exactly once, A periodic under the lattice."""
    if len(basis) != len(next(iter(points))):
        return False
    seen = set()
    for a in members:
        for f in points:
            r = reduce(basis, tuple(x + y for x, y in zip(a, f)))
            if r in seen:
                return False
            seen.add(r)
    return len(seen) == index(basis)


def cyclic_convolution_is_delta(values, subset, p):
    """Whether g * 1_F = delta_0 on Z/pZ, recomputed in Fractions."""
    ind = [Fraction(1 if i in subset else 0) for i in range(p)]
    out = [Fraction(0)] * p
    for i in range(p):
        for j in range(p):
            out[(i + j) % p] += Fraction(values[i]) * ind[j]
    return out == [Fraction(1)] + [Fraction(0)] * (p - 1)


def mixed_shift_fixes(members, p, period, shift):
    """Whether translation by shift = (n, t), n >= 1, maps the mixed set onto itself."""
    n, t = shift
    if n < 1:
        return False
    moved = {((a + n) % period, (b + t) % p) for a, b in members}
    return moved == set(members)
