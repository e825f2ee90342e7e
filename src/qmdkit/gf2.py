"""Exact linear algebra over the two-element field.

Two representations share this module.  ``reduce_columns`` is the one
column-reduction kernel for homology: columns are Python sets of row
indices, each reduced by its pivot (largest row) against the pivots seen
so far.  Cubical Betti numbers (with clearing), the persistence pairing
of filtered complexes and their unfiltered homology all run on it, so
complexes of ~1e5 cells and more cost memory in proportion to the entries
of their reduced columns, not to the square of their cell count.

``reduce_faces`` runs the same reduction on an (n, w) array of face rows,
as the cubical boundaries are stored.  A few vectorized passes first find
its apparent columns (Bauer 2021, "Ripser"): a column that is the first to
list its own largest row, and lists no row twice, is already reduced, and
that row is its pivot, since every reduced column is a sum of earlier
columns, none of which lists the row.  Most boundary columns of a grid
mask are apparent.  Only the rest go through ``reduce_columns``, which
reads an apparent column as a set the first time its pivot is looked up.

The dense matrices are stored bit-packed, 64 columns per machine word.
In the library they serve only ``Page.differentials``, the page-k
differentials of ``specseq``; ``FilteredComplex.differential`` builds one
on demand for the test oracles, which also use the ``Subspace`` stack.
All their operations are pure: inputs are never mutated, so values can be
shared freely between threads.

Dense elimination pivots on the first nonzero entry in column order,
swapping rows in place on a working copy.  Echelon forms, and therefore
kernel and subspace bases, are deterministic functions of the input.
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


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a (rows, cols) 0/1 array into (rows, ceil(cols/64)) uint64 words."""
    bits = np.ascontiguousarray(bits, dtype=np.uint64) & np.uint64(1)
    rows, cols = bits.shape
    nwords = (cols + 63) // 64
    words = np.zeros((rows, nwords), dtype=np.uint64)
    for w in range(nwords):
        chunk = bits[:, 64 * w : min(64 * (w + 1), cols)]
        shifts = np.arange(chunk.shape[1], dtype=np.uint64)
        if chunk.shape[1]:
            words[:, w] = np.bitwise_or.reduce(chunk << shifts, axis=1)
    return words


def _unpack_bits(words: np.ndarray, cols: int) -> np.ndarray:
    rows = words.shape[0]
    bits = np.zeros((rows, cols), dtype=np.uint8)
    for c in range(cols):
        w, b = divmod(c, 64)
        bits[:, c] = (words[:, w] >> np.uint64(b)) & np.uint64(1)
    return bits


class GF2Matrix:
    """Dense bit matrix over GF(2) with row-major packed storage."""

    __slots__ = ("rows", "cols", "_w")

    def __init__(self, rows: int, cols: int, _words: Optional[np.ndarray] = None):
        self.rows = int(rows)
        self.cols = int(cols)
        nwords = (self.cols + 63) // 64
        if _words is None:
            _words = np.zeros((self.rows, nwords), dtype=np.uint64)
        if _words.shape != (self.rows, nwords):
            raise GF2Error(f"word buffer shape {_words.shape} does not match "
                           f"{self.rows}x{self.cols}")
        self._w = _words

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "GF2Matrix":
        rows = [list(r) for r in rows]
        if cols is None:
            cols = len(rows[0]) if rows else 0
        bits = np.array(rows, dtype=np.uint64).reshape(len(rows), cols)
        return cls(len(rows), cols, _pack_bits(bits))

    @classmethod
    def from_dense(cls, arr) -> "GF2Matrix":
        arr = np.atleast_2d(np.asarray(arr))
        return cls(arr.shape[0], arr.shape[1], _pack_bits(arr))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "GF2Matrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "GF2Matrix":
        return cls.from_dense(np.eye(n, dtype=np.uint8))

    # -- basic access -------------------------------------------------

    def to_dense(self) -> np.ndarray:
        return _unpack_bits(self._w, self.cols)

    def get(self, i: int, j: int) -> int:
        w, b = divmod(j, 64)
        return int((self._w[i, w] >> np.uint64(b)) & np.uint64(1))

    def copy(self) -> "GF2Matrix":
        return GF2Matrix(self.rows, self.cols, self._w.copy())

    def is_zero(self) -> bool:
        return not self._w.any()

    def row_support(self, i: int) -> list:
        """Column indices of the nonzero entries of row i."""
        out = []
        for w in range(self._w.shape[1]):
            word = int(self._w[i, w])
            while word:
                low = word & -word
                out.append(64 * w + low.bit_length() - 1)
                word ^= low
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, GF2Matrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and np.array_equal(self._w, other._w))

    def __hash__(self):
        return hash((self.rows, self.cols, self._w.tobytes()))

    def __repr__(self) -> str:
        return f"GF2Matrix({self.rows}x{self.cols})"

    # -- structural ops -----------------------------------------------

    def vstack(self, other: "GF2Matrix") -> "GF2Matrix":
        if self.cols != other.cols:
            raise GF2Error("vstack: column count mismatch")
        return GF2Matrix(self.rows + other.rows, self.cols,
                         np.vstack([self._w, other._w]))

    def hstack(self, other: "GF2Matrix") -> "GF2Matrix":
        if self.rows != other.rows:
            raise GF2Error("hstack: row count mismatch")
        return GF2Matrix.from_dense(
            np.hstack([self.to_dense(), other.to_dense()]))

    def submatrix(self, row_idx: Optional[Iterable[int]] = None,
                  col_idx: Optional[Iterable[int]] = None) -> "GF2Matrix":
        dense = self.to_dense()
        if row_idx is not None:
            dense = dense[np.asarray(list(row_idx), dtype=int).reshape(-1), :]
        if col_idx is not None:
            dense = dense[:, np.asarray(list(col_idx), dtype=int).reshape(-1)]
        return GF2Matrix.from_dense(dense)

    def transpose(self) -> "GF2Matrix":
        return GF2Matrix.from_dense(self.to_dense().T)

    def mul(self, other: "GF2Matrix") -> "GF2Matrix":
        """Matrix product over GF(2)."""
        if self.cols != other.rows:
            raise GF2Error(f"mul: {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = np.zeros((self.rows, other._w.shape[1]), dtype=np.uint64)
        for i in range(self.rows):
            sel = self.row_support(i)
            if sel:
                out[i] = np.bitwise_xor.reduce(other._w[sel], axis=0)
        return GF2Matrix(self.rows, other.cols, out)

    def mul_vector(self, vec: np.ndarray) -> np.ndarray:
        """Apply to a dense 0/1 column vector; returns a dense 0/1 vector."""
        vec = np.asarray(vec, dtype=np.uint8) & 1
        if vec.shape != (self.cols,):
            raise GF2Error("mul_vector: length mismatch")
        sel = np.nonzero(vec)[0]
        out = np.zeros(self.rows, dtype=np.uint8)
        if sel.size:
            dense = self.to_dense()
            out = np.bitwise_xor.reduce(dense[:, sel], axis=1)
        return out

    # -- elimination --------------------------------------------------

    def _echelon(self, full: bool, pivot_cols_limit: Optional[int] = None):
        """Row echelon form on a working copy.

        Returns (words, pivots).  With full=True the result is reduced
        (entries above pivots cleared as well), which makes the output
        basis canonical.
        """
        W = self._w.copy()
        limit = self.cols if pivot_cols_limit is None else pivot_cols_limit
        pivots = []
        r = 0
        for c in range(limit):
            if r == self.rows:
                break
            w, b = divmod(c, 64)
            mask = np.uint64(1) << np.uint64(b)
            below = np.nonzero(W[r:, w] & mask)[0]
            if below.size == 0:
                continue
            p = r + int(below[0])
            if p != r:
                W[[r, p]] = W[[p, r]]
            if full:
                hit = np.nonzero(W[:, w] & mask)[0]
                hit = hit[hit != r]
            else:
                hit = r + 1 + np.nonzero(W[r + 1:, w] & mask)[0]
            if hit.size:
                W[hit] ^= W[r]
            pivots.append(c)
            r += 1
        return W, pivots

    def rank(self) -> int:
        _, pivots = self._echelon(full=False)
        return len(pivots)

    def rref(self) -> Tuple["GF2Matrix", Tuple[int, ...]]:
        W, pivots = self._echelon(full=True)
        return GF2Matrix(self.rows, self.cols, W), tuple(pivots)

    def kernel_basis(self) -> "GF2Matrix":
        """Rows form a basis of the right null space {x : self @ x = 0}."""
        R, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = np.zeros((len(free), self.cols), dtype=np.uint8)
        for k, fc in enumerate(free):
            basis[k, fc] = 1
            for i, pc in enumerate(pivots):
                basis[k, pc] = R.get(i, fc)
        return GF2Matrix.from_dense(basis) if free else GF2Matrix(0, self.cols)


def solve_row_combination(mat: GF2Matrix, target: np.ndarray) -> Optional[np.ndarray]:
    """Find coefficients c with c @ mat == target over GF(2), or None.

    target is a dense 0/1 vector of length mat.cols; the result is a dense
    0/1 vector of length mat.rows (free coefficients set to 0).
    """
    target = np.asarray(target, dtype=np.uint8) & 1
    if target.shape != (mat.cols,):
        raise GF2Error("solve_row_combination: target length mismatch")
    if mat.rows == 0:
        return np.zeros(0, dtype=np.uint8) if not target.any() else None
    aug = mat.hstack(GF2Matrix.identity(mat.rows))
    W, pivots = aug._echelon(full=True, pivot_cols_limit=mat.cols)
    red_dense = _unpack_bits(W, aug.cols)
    resid = target.copy()
    coeff = np.zeros(mat.rows, dtype=np.uint8)
    for i, pc in enumerate(pivots):
        if resid[pc]:
            row = red_dense[i]
            resid ^= row[:mat.cols]
            coeff ^= row[mat.cols:]
    if resid.any():
        return None
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
        R, pivots = basis.rref()
        dense = R.to_dense()[: len(pivots)]
        self.basis = GF2Matrix.from_dense(dense) if len(pivots) else GF2Matrix(0, self.ambient_dim)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim)

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, GF2Matrix.identity(ambient_dim))

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors) -> "Subspace":
        vectors = list(vectors)
        if not vectors:
            return cls(ambient_dim)
        return cls(ambient_dim, GF2Matrix.from_rows(vectors, cols=ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def contains_vector(self, vec) -> bool:
        vec = np.asarray(vec, dtype=np.uint8) & 1
        if vec.shape != (self.ambient_dim,):
            raise GF2Error("vector length does not match ambient dimension")
        resid = vec.copy()
        dense = self.basis.to_dense()
        for i in range(self.basis.rows):
            pivot = int(np.argmax(dense[i])) if dense[i].any() else -1
            if pivot >= 0 and resid[pivot]:
                resid ^= dense[i]
        return not resid.any()

    def contains(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise GF2Error("ambient dimension mismatch")
        return all(self.contains_vector(other.basis.to_dense()[i])
                   for i in range(other.dim))

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
    """Zassenhaus: echelonize [A|A; B|0]; left-zero rows carry the intersection."""
    if a.ambient_dim != b.ambient_dim:
        raise GF2Error("subspace_intersection: ambient dimension mismatch")
    n = a.ambient_dim
    top = a.basis.hstack(a.basis)
    bot = b.basis.hstack(GF2Matrix(b.basis.rows, n))
    stacked = top.vstack(bot)
    W, _ = stacked._echelon(full=False)
    dense = _unpack_bits(W, 2 * n)
    inter_rows = [dense[i, n:] for i in range(dense.shape[0])
                  if not dense[i, :n].any() and dense[i, n:].any()]
    return Subspace.from_vectors(n, inter_rows)


def quotient_dim(big: Subspace, small: Subspace) -> int:
    if big.ambient_dim != small.ambient_dim:
        raise GF2Error("quotient_dim: ambient dimension mismatch")
    if not big.contains(small):
        raise GF2Error("quotient_dim: small subspace is not contained in big")
    return big.dim - small.dim
