"""Integer row lattices with exact membership tests.

Rows are kept in Hermite normal form (one positive pivot per row, the
entries above each pivot reduced to least residues), maintained
incrementally by extended-gcd row operations.  Insertion and membership
are both O(rows * n) big-int work; no floating point anywhere.
"""

from __future__ import annotations

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


class IntegerLattice:
    """Subgroup of Z^n spanned by added integer rows."""

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("dimension must be >= 0")
        self.n = n
        # pivot column -> row; row[pivot] > 0 and row[c] == 0 for c < pivot
        self._rows: dict[int, list[int]] = {}

    def _reduce(self, vec: list[int]) -> list[int]:
        """Subtract row multiples so every pivot entry of vec is a least residue."""
        vec = list(vec)
        for pivot in sorted(self._rows):
            entry = vec[pivot]
            if entry:
                row = self._rows[pivot]
                q = entry // row[pivot]
                if q:
                    for c in range(pivot, self.n):
                        vec[c] -= q * row[c]
        return vec

    def add(self, vec: list[int]) -> bool:
        """Insert a vector; returns True when the lattice grew."""
        if len(vec) != self.n:
            raise ValueError(f"expected length {self.n}, got {len(vec)}")
        grew = False
        stack = [[int(x) for x in vec]]
        while stack:
            v = stack.pop()
            while True:
                pivot = next((c for c, x in enumerate(v) if x), None)
                if pivot is None:
                    break
                row = self._rows.get(pivot)
                if row is None:
                    if v[pivot] < 0:
                        v = [-x for x in v]
                    self._rows[pivot] = v
                    grew = True
                    break
                rp, vp = row[pivot], v[pivot]
                if vp % rp == 0:
                    q = vp // rp
                    v = [a - q * b for a, b in zip(v, row)]
                    continue
                g, x, y = _xgcd(rp, vp)
                comb = [x * a + y * b for a, b in zip(row, v)]
                self._rows[pivot] = comb
                grew = True
                # both the old row and v lose their pivot entry against comb;
                # the old remainder re-enters through the normal path
                stack.append([a - (rp // g) * c for a, c in zip(row, comb)])
                v = [a - (vp // g) * c for a, c in zip(v, comb)]
        if grew:
            self._renormalize()
        return grew

    def _renormalize(self):
        # Reduce the entries above each pivot to least residues, which puts
        # the basis in Hermite normal form and bounds its entries.  Pivots
        # go in ascending order: reducing by a row changes only the columns
        # from its pivot on, so no later step undoes an earlier one.
        for q in sorted(self._rows):
            qrow = self._rows[q]
            for p in sorted(self._rows):
                if p >= q:
                    break
                row = self._rows[p]
                m = row[q] // qrow[q]
                if m:
                    self._rows[p] = [a - m * b for a, b in zip(row, qrow)]

    def contains(self, vec: list[int]) -> bool:
        if len(vec) != self.n:
            raise ValueError(f"expected length {self.n}, got {len(vec)}")
        residue = self._reduce([int(x) for x in vec])
        return not any(residue)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def basis(self) -> list[list[int]]:
        return [list(self._rows[p]) for p in sorted(self._rows)]
