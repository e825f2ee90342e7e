"""Exact linear algebra over the two-element field.

Two representations share this module.  ``reduce_columns`` is the one
column-reduction kernel for homology: columns are Python sets of row
indices, each reduced by its pivot (largest row) against the pivots seen
so far.  The boundaries that cubical Betti numbers still reduce
(boundary_2 up to boundary_{d-2} with clearing, so only in complexes of
dimension 4 and more), the persistence pairing of filtered complexes and their unfiltered homology
all run on it, so complexes of ~1e5 cells and more cost memory in
proportion to the entries of their reduced columns, not to the square of
their cell count.

``reduce_faces`` runs the same reduction on an (n, w) array of face rows,
as the cubical boundaries are stored.  A few vectorized passes first find
its apparent columns (Bauer 2021, "Ripser"): a column that is the first to
list its own largest row, and lists no row twice, is already reduced, and
that row is its pivot, since every reduced column is a sum of earlier
columns, none of which lists the row.  Most boundary columns of a grid
mask are apparent.  Only the rest go through ``reduce_columns``, which
reads an apparent column as a set the first time its pivot is looked up.

``GF2Matrix`` and ``Subspace`` are a dense stack that serves only the
test oracles (the cycle/boundary pages, dense boundary matrices and their
products); no path of the library builds one.  A matrix holds each row as
one Python int, entry j at bit j, so elimination is XOR of ints.  Every
operation is pure: inputs are never mutated, so values can be shared
freely between threads.

Dense elimination pivots on the lowest set bit of each row and clears
every pivot from the other rows, which gives the unique reduced echelon
form of the row space.  Echelon forms, and therefore kernel and subspace
bases, are deterministic functions of the input.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np


class GF2Error(ValueError):
    """Dimension mismatch or containment violation in a GF(2) operation."""


def reduce_columns(columns: Iterable[Sequence[int]],
                   reduced: Optional[Dict[int, Set[int]]] = None) -> List[Optional[int]]:
    """Pivot of each column after the standard reduction over GF(2).

    Each column lists its row indices; a row listed twice cancels.  A
    column is reduced by adding earlier reduced columns with its pivot
    (its largest row) until the pivot is new or the column vanishes.
    Returns, in order, each column's final pivot, or None for a column
    that reduced to zero.  The pivot rows of the result are independent,
    so the number of pivots is the rank.

    ``reduced`` maps pivot to reduced column for columns reduced before
    these, and receives the new ones; ``reduce_faces`` passes a mapping
    that fills in its apparent columns as they are looked up.
    """
    if reduced is None:
        reduced = {}
    pivots: List[Optional[int]] = []
    for rows in columns:
        low = None
        if rows:
            col = set(rows)
            if len(col) != len(rows):
                col = {r for r in col if rows.count(r) % 2}
            while col:
                low = max(col)
                other = reduced.get(low)
                if other is None:
                    reduced[low] = col
                    break
                col ^= other
            else:
                low = None
        pivots.append(low)
    return pivots


def apparent_pivots(faces: np.ndarray) -> np.ndarray:
    """Pivot of each apparent column of an (n, w) face array, -1 elsewhere.

    Column j is apparent when no earlier column lists its largest row and
    it lists no row twice; that row is then its pivot under
    ``reduce_columns``.
    """
    n, w = faces.shape
    pivots = np.full(n, -1, dtype=np.int64)
    if n == 0 or w == 0:
        return pivots
    low = faces.max(axis=1)
    first = np.full(int(low.max()) + 1, n, dtype=np.int64)
    np.minimum.at(first, faces.ravel(), np.repeat(np.arange(n), w))
    apparent = first[low] == np.arange(n)
    for a, b in combinations(range(w), 2):
        apparent &= faces[:, a] != faces[:, b]
    pivots[apparent] = low[apparent]
    return pivots


class _ApparentColumns(dict):
    """Reduced columns by pivot, reading an apparent column on first lookup."""

    def __init__(self, faces: np.ndarray, pivots: np.ndarray):
        super().__init__()
        self.faces = faces
        owner = np.full(int(faces.max(initial=-1)) + 1, -1, dtype=np.int64)
        apparent = np.flatnonzero(pivots >= 0)
        owner[pivots[apparent]] = apparent
        self.owner = owner

    def get(self, row: int) -> Optional[Set[int]]:
        col = dict.get(self, row)
        if col is None:
            j = self.owner[row]
            if j >= 0:
                col = self[row] = set(self.faces[j].tolist())
        return col


def reduce_faces(faces: np.ndarray) -> np.ndarray:
    """``reduce_columns`` on the rows of an (n, w) face array.

    Returns each column's pivot as an int64 array, -1 for a column that
    reduced to zero.  Apparent columns keep their largest row with no
    additions; the others go through ``reduce_columns`` in order.
    """
    pivots = apparent_pivots(faces)
    rest = np.flatnonzero(pivots < 0)
    if rest.size:
        exact = reduce_columns(faces[rest].tolist(), _ApparentColumns(faces, pivots))
        pivots[rest] = [-1 if p is None else p for p in exact]
    return pivots


def _row_from_bits(bits) -> int:
    """A 0/1 sequence as an int row, entry j at bit j."""
    return sum(1 << j for j in np.flatnonzero(np.asarray(bits, dtype=np.int64) & 1).tolist())


def _support(row: int) -> List[int]:
    """Indices of the set bits of an int row, in increasing order."""
    out = []
    while row:
        low = row & -row
        out.append(low.bit_length() - 1)
        row ^= low
    return out


def _echelon(rows: Iterable[int], limit: int) -> Tuple[List[int], List[int]]:
    """Reduced echelon form of int rows, pivoting on the bits below ``limit``.

    Each pivot is the lowest bit of its row.  Returns the pivot rows in
    increasing pivot order, every pivot set in its own row only, and the
    rows that reduced to nothing below ``limit``.  With ``limit`` at the
    row width, the pivot rows are the unique reduced echelon basis of the
    rows' span, whatever the order of the input.
    """
    mask = (1 << limit) - 1
    by_pivot: Dict[int, int] = {}
    rest = []
    for row in rows:
        while row & mask:
            low = row & -row
            other = by_pivot.get(low)
            if other is None:
                by_pivot[low] = row
                break
            row ^= other
        else:
            rest.append(row)
    pivots = sorted(by_pivot)
    # clear each pivot from the rows above it, highest pivot first
    for i in range(len(pivots) - 1, -1, -1):
        row = by_pivot[pivots[i]]
        for low in pivots[:i]:
            if by_pivot[low] & pivots[i]:
                by_pivot[low] ^= row
    return [by_pivot[low] for low in pivots], rest


class GF2Matrix:
    """Dense bit matrix over GF(2), each row held as one Python int."""

    __slots__ = ("rows", "cols", "_r")

    def __init__(self, rows: int, cols: int, _rows: Optional[Sequence[int]] = None):
        self.rows = int(rows)
        self.cols = int(cols)
        self._r = (0,) * self.rows if _rows is None else tuple(_rows)
        if len(self._r) != self.rows or any(r >> self.cols for r in self._r):
            raise GF2Error(f"rows do not fit a {self.rows}x{self.cols} matrix")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "GF2Matrix":
        rows = list(rows)
        if cols is None:
            cols = len(rows[0]) if rows else 0
        if any(len(r) != cols for r in rows):
            raise GF2Error(f"rows must all have length {cols}")
        return cls(len(rows), cols, [_row_from_bits(r) for r in rows])

    @classmethod
    def from_dense(cls, arr) -> "GF2Matrix":
        arr = np.atleast_2d(np.asarray(arr))
        return cls(arr.shape[0], arr.shape[1], [_row_from_bits(r) for r in arr])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "GF2Matrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "GF2Matrix":
        return cls(n, n, [1 << i for i in range(n)])

    # -- basic access -------------------------------------------------

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols), dtype=np.uint8)
        for i, row in enumerate(self._r):
            out[i, _support(row)] = 1
        return out

    def is_zero(self) -> bool:
        return not any(self._r)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GF2Matrix):
            return NotImplemented
        return (self.rows, self.cols, self._r) == (other.rows, other.cols, other._r)

    def __hash__(self):
        return hash((self.rows, self.cols, self._r))

    def __repr__(self) -> str:
        return f"GF2Matrix({self.rows}x{self.cols})"

    # -- structural ops -----------------------------------------------

    def vstack(self, other: "GF2Matrix") -> "GF2Matrix":
        if self.cols != other.cols:
            raise GF2Error("vstack: column count mismatch")
        return GF2Matrix(self.rows + other.rows, self.cols, self._r + other._r)

    def submatrix(self, row_idx: Optional[Iterable[int]] = None,
                  col_idx: Optional[Iterable[int]] = None) -> "GF2Matrix":
        rows = self._r if row_idx is None else [self._r[i] for i in row_idx]
        cols = self.cols
        if col_idx is not None:
            col_idx = list(col_idx)
            rows = [sum(((r >> c) & 1) << k for k, c in enumerate(col_idx)) for r in rows]
            cols = len(col_idx)
        return GF2Matrix(len(rows), cols, rows)

    def mul(self, other: "GF2Matrix") -> "GF2Matrix":
        """Matrix product over GF(2)."""
        if self.cols != other.rows:
            raise GF2Error(f"mul: {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = []
        for row in self._r:
            acc = 0
            for j in _support(row):
                acc ^= other._r[j]
            out.append(acc)
        return GF2Matrix(self.rows, other.cols, out)

    def mul_vector(self, vec: np.ndarray) -> np.ndarray:
        """Apply to a dense 0/1 column vector; returns a dense 0/1 vector."""
        vec = np.asarray(vec)
        if vec.shape != (self.cols,):
            raise GF2Error("mul_vector: length mismatch")
        v = _row_from_bits(vec)
        return np.array([(r & v).bit_count() & 1 for r in self._r], dtype=np.uint8)

    # -- elimination --------------------------------------------------

    def rank(self) -> int:
        return len(_echelon(self._r, self.cols)[0])

    def rref(self) -> Tuple["GF2Matrix", Tuple[int, ...]]:
        """Reduced row echelon form (zero rows last) and its pivot columns."""
        basis, _ = _echelon(self._r, self.cols)
        rows = basis + [0] * (self.rows - len(basis))
        return (GF2Matrix(self.rows, self.cols, rows),
                tuple((r & -r).bit_length() - 1 for r in basis))

    def kernel_basis(self) -> "GF2Matrix":
        """Rows form a basis of the right null space {x : self @ x = 0}."""
        basis, _ = _echelon(self._r, self.cols)
        pivots = [(r & -r).bit_length() - 1 for r in basis]
        free = sorted(set(range(self.cols)) - set(pivots))
        return GF2Matrix(len(free), self.cols,
                         [1 << fc | sum(1 << pc for pc, r in zip(pivots, basis) if r >> fc & 1)
                          for fc in free])


def solve_row_combination(mat: GF2Matrix, target: np.ndarray) -> Optional[np.ndarray]:
    """Find coefficients c with c @ mat == target over GF(2), or None.

    target is a dense 0/1 vector of length mat.cols; the result is a dense
    0/1 vector of length mat.rows.  Each row i of mat is eliminated with
    bit mat.cols + i set above its entries, so the bits above mat.cols of
    a reduced row record which rows of mat sum to it.
    """
    target = np.asarray(target)
    if target.shape != (mat.cols,):
        raise GF2Error("solve_row_combination: target length mismatch")
    basis, _ = _echelon((r | 1 << (mat.cols + i) for i, r in enumerate(mat._r)), mat.cols)
    resid = _row_from_bits(target)
    for row in basis:
        if resid & row & -row:
            resid ^= row
    if resid & ((1 << mat.cols) - 1):
        return None
    coeff = np.zeros(mat.rows, dtype=np.uint8)
    coeff[_support(resid >> mat.cols)] = 1
    return coeff


class Subspace:
    """A subspace of GF(2)^n held as a canonical reduced-echelon basis."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: Optional[GF2Matrix] = None):
        self.ambient_dim = int(ambient_dim)
        if basis is None:
            basis = GF2Matrix(0, self.ambient_dim)
        if basis.cols != self.ambient_dim:
            raise GF2Error("basis width does not match ambient dimension")
        rows, _ = _echelon(basis._r, self.ambient_dim)
        self.basis = GF2Matrix(len(rows), self.ambient_dim, rows)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim)

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors) -> "Subspace":
        vectors = list(vectors)
        if not vectors:
            return cls(ambient_dim)
        return cls(ambient_dim, GF2Matrix.from_rows(vectors, cols=ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def _reduce(self, row: int) -> int:
        for b in self.basis._r:
            if row & b & -b:
                row ^= b
        return row

    def contains_vector(self, vec) -> bool:
        vec = np.asarray(vec)
        if vec.shape != (self.ambient_dim,):
            raise GF2Error("vector length does not match ambient dimension")
        return not self._reduce(_row_from_bits(vec))

    def contains(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise GF2Error("ambient dimension mismatch")
        return not any(self._reduce(r) for r in other.basis._r)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise GF2Error("subspace_sum: ambient dimension mismatch")
    return Subspace(a.ambient_dim, a.basis.vstack(b.basis))


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus: eliminate [A|A; B|0] on the left half; the rows whose
    left half vanishes carry the intersection in their right half."""
    if a.ambient_dim != b.ambient_dim:
        raise GF2Error("subspace_intersection: ambient dimension mismatch")
    n = a.ambient_dim
    _, rest = _echelon([r | r << n for r in a.basis._r] + list(b.basis._r), n)
    return Subspace(n, GF2Matrix(len(rest), n, [r >> n for r in rest]))


def quotient_dim(big: Subspace, small: Subspace) -> int:
    if big.ambient_dim != small.ambient_dim:
        raise GF2Error("quotient_dim: ambient dimension mismatch")
    if not big.contains(small):
        raise GF2Error("quotient_dim: small subspace is not contained in big")
    return big.dim - small.dim
