"""Integer row lattices with exact membership tests.

Rows are kept in Hermite normal form: one positive pivot per row, zeros
before it, and every entry above a pivot reduced to its least
nonnegative residue modulo that pivot.  That form is unique for the
lattice, so ``basis()`` does not depend on the order of insertion or on
how the rows were reduced.  Insertion uses extended-gcd row operations;
all arithmetic is exact, with no floating point anywhere.

The inner loops run in C.  A row is zero before its pivot, so a row
operation touches only the columns from that pivot on, as one ``map``
over the two tails.  The first nonzero entry is found with
``itertools.compress``.  The input is read with ``map(operator.index,
...)``, which takes ints (numpy's too) exactly and refuses a float, a
string or a ``Fraction`` with TypeError, so no entry is truncated.

A growing insert only adds rows at new pivots or replaces a row by one
whose pivot entry is a proper divisor of the old one; pivots appear or
shrink, never move.  Afterwards only two kinds of row can break the form:

- the rows the insert added or replaced, whose entries at later pivots
  are arbitrary;
- an untouched row above a new or shrunken pivot q whose entry at q has
  left [0, row_q[q]).

Every other row keeps its entries, and so do the pivot entries they are
measured against.  Each row of the two kinds is re-reduced at the later
pivots in ascending order.  Reducing by the row at pivot q changes only
the columns from q on, so the entries already settled stay in range, and
the condition on a row involves only that row and the pivot entries.
The result is therefore the Hermite normal form whichever order the rows
are visited in.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress, count, islice, repeat
from operator import add, index, mul, neg, sub

__all__ = ["IntegerLattice"]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) = a*x + b*y, g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _first_nonzero(v: list[int], start: int = 0) -> int | None:
    """Index of the first nonzero entry of v at or after start."""
    return next(compress(count(start), islice(v, start, None)), None)


def _subtract(v: list[int], q: int, row: list[int], p: int) -> None:
    """v -= q * row in place, for a row that is zero before column p."""
    if q == 1:
        v[p:] = map(sub, v[p:], row[p:])
    elif q == -1:
        v[p:] = map(add, v[p:], row[p:])
    else:
        v[p:] = map(sub, v[p:], map(mul, repeat(q), row[p:]))


class IntegerLattice:
    """Subgroup of Z^n spanned by added integer rows.

    ``add`` and ``contains`` take any length-n sequence of integers (ints,
    bools or numpy integers); an entry that is not an integer raises
    TypeError rather than being rounded.
    """

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("dimension must be >= 0")
        self.n = n
        # pivot column -> row; row[pivot] > 0 and row[c] == 0 for c < pivot
        self._rows: dict[int, list[int]] = {}

    def _vector(self, vec) -> list[int]:
        if len(vec) != self.n:
            raise ValueError(f"expected length {self.n}, got {len(vec)}")
        return list(map(index, vec))

    def add(self, vec: list[int]) -> bool:
        """Insert a vector; returns True when the lattice grew."""
        rows = self._rows
        changed: set[int] = set()  # pivots whose row was added or replaced
        stack = [self._vector(vec)]
        while stack:
            v = stack.pop()
            p = _first_nonzero(v)
            while p is not None:
                row = rows.get(p)
                if row is None:
                    if v[p] < 0:
                        v[p:] = map(neg, v[p:])
                    rows[p] = v
                    changed.add(p)
                    break
                rp, vp = row[p], v[p]
                if vp % rp == 0:
                    _subtract(v, vp // rp, row, p)
                else:
                    g, x, y = _xgcd(rp, vp)
                    comb = [0] * p
                    comb += map(add, map(mul, repeat(x), row[p:]), map(mul, repeat(y), v[p:]))
                    rows[p] = comb
                    changed.add(p)
                    # both the old row and v lose their pivot entry against
                    # comb; the old remainder re-enters through the stack
                    _subtract(row, rp // g, comb, p)
                    stack.append(row)
                    _subtract(v, vp // g, comb, p)
                p = _first_nonzero(v, p + 1)
        if changed:
            self._renormalize(changed)
        return bool(changed)

    def _renormalize(self, changed: set[int]) -> None:
        # Restore the least residues above the pivots after a growing
        # insert; the module docstring says which rows can need it.
        rows = self._rows
        pivots = sorted(rows)
        moved = sorted(changed)
        for i, p in enumerate(pivots):
            row = rows[p]
            if p not in changed:
                for q in moved:
                    if q > p and not 0 <= row[q] < rows[q][q]:
                        i = bisect_left(pivots, q) - 1
                        break
                else:
                    continue
            for q in islice(pivots, i + 1, None):
                qrow = rows[q]
                m = row[q] // qrow[q]
                if m:
                    _subtract(row, m, qrow, q)

    def contains(self, vec: list[int]) -> bool:
        rows = self._rows
        v = self._vector(vec)
        p = _first_nonzero(v)
        while p is not None:
            row = rows.get(p)
            if row is None:
                return False
            q, r = divmod(v[p], row[p])
            if r:
                return False
            _subtract(v, q, row, p)
            p = _first_nonzero(v, p + 1)
        return True

    @property
    def rank(self) -> int:
        return len(self._rows)

    def basis(self) -> list[list[int]]:
        return [list(self._rows[p]) for p in sorted(self._rows)]
