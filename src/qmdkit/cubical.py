"""Cubical complexes of grid masks and their GF(2) homology.

A GridMask is a binary image on a regular grid: one membership bit per
top-dimensional cell, with optional periodic axes (index n identifies
with index 0).  The complex of a mask is the closure of its included top
cells under taking faces.

Cells are points of the doubled grid (Wagner-Chen-Vucini 2012): an axis
of n top cells has 2n+1 doubled coordinates when open and 2n when
periodic, top cell i sits at 2i+1, and a cell's dimension is its number
of odd coordinates.  The closure is one dilation per axis that ORs the
odd neighbours into the even positions; periodic axes wrap mod 2n, so
identifications are index arithmetic, never ghost cells, and the square
of the boundary operator vanishes exactly.  The faces of a k-cell are its
two neighbours along each of its k odd axes.

``build_complex`` first crops every axis to ``axis_interval``, the smallest
run of slabs that covers the mask, so the cost follows the mask and not the
grid: an open axis to its bounding interval, and a periodic axis with an
empty slab cut open at its largest run of empty slabs.  No cell of the
closure lies inside an empty slab, and a cell inside the run finds both
neighbours of each odd coordinate there too, so the open build gives the
same cells and faces; a full periodic axis stays whole and periodic.  The
build then works in whole-array passes, one per cell type: the
cells whose odd axes are those where tau in {0,1}^d is 1 are the set
entries of the strided view ``grid[tau_0::2, tau_1::2, ...]``, and their
faces along an odd axis are the entries of the row-number grid (each
cell's row within its dimension) on the even views just below and just
above it on that axis, the upper one rolled by one on a periodic axis.
Each type's face rows are scattered to its cells' own rows, so a cell's
faces keep the order lower neighbour first, odd axes ascending.  The cell
indices are translated back to the full doubled grid, which keeps their
sorted order unless a cut axis's run reaches the seam (start + length >= n:
its last hyperplane lands on 0); then each level is numbered in full-grid
order as it is found, so the face rows need no renumbering.

Homology is taken over GF(2), and a boundary is reduced only where its
pivots are needed.  Three exact facts give the other ranks:

(a) rank boundary_1 = n_0 - b_0 over any field, and b_0 is the number of
    roots after one union-find (``join``) over the (n_1, 2) vertex rows of
    boundary_1; an edge that lists one vertex twice (a periodic axis of
    size 1) is a zero column and joins nothing.
(b) For d >= 2, rank boundary_d = n_d - b_d, and b_d is 1 exactly when
    every axis is periodic and the mask is full.  A mod-2 d-cycle that
    holds a top cell holds the other top coface of each of its faces
    (itself, on a periodic axis of size 1); a face at the end of an open
    axis has none.  The top cells are connected across faces, so the one
    nonzero d-cycle possible is the sum of every top cell of the d-torus,
    its fundamental class.
(c) The boundaries between, boundary_k for 2 <= k < d, are reduced with
    ``gf2.reduce_faces`` from the top down with clearing (Chen-Kerber
    2011): a k-cell that is the pivot of a reduced (k+1)-column has a
    column that reduces to zero, so it is skipped.  Clearing any subset of
    the true pivots is sound, so boundary_d is not reduced at all: the
    pivots of its apparent columns (``gf2.apparent_pivots``), which are
    true pivots, clear boundary_{d-1}.

So a 1-D or 2-D mask needs no column reduction, and a 3-D mask one
apparent pass on boundary_3 and one reduction of boundary_2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .gf2 import apparent_pivots, reduce_faces


class EmptyMaskError(ValueError):
    pass


@dataclass(frozen=True)
class GridMask:
    dims: Tuple[int, ...]
    periodic: Tuple[bool, ...]
    cells: np.ndarray

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        periodic = tuple(bool(p) for p in self.periodic)
        if len(dims) != len(periodic):
            raise ValueError("dims and periodic must have equal length")
        if any(n < 1 for n in dims):
            raise ValueError("all axis sizes must be >= 1")
        cells = np.array(self.cells, dtype=bool).reshape(dims)    # a copy: never a view
        cells.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "periodic", periodic)
        object.__setattr__(self, "cells", cells)

    @classmethod
    def full(cls, dims: Sequence[int], periodic: Sequence[bool]) -> "GridMask":
        return cls(tuple(dims), tuple(periodic), np.ones(tuple(dims), dtype=bool))

    @property
    def ndim(self) -> int:
        return len(self.dims)

    def count(self) -> int:
        return int(self.cells.sum())

    def product(self, other: "GridMask") -> "GridMask":
        cells = np.multiply.outer(self.cells, other.cells)
        return GridMask(self.dims + other.dims, self.periodic + other.periodic, cells)

    def refine(self, factor: int = 2) -> "GridMask":
        cells = self.cells
        for axis in range(self.ndim):
            cells = np.repeat(cells, factor, axis=axis)
        return GridMask(tuple(n * factor for n in self.dims), self.periodic, cells)

    def to_json(self) -> dict:
        return {
            "dims": list(self.dims),
            "periodic": [int(p) for p in self.periodic],
            "cells": [int(v) for v in self.cells.reshape(-1)],
        }

    @classmethod
    def from_json(cls, data: dict) -> "GridMask":
        dims = tuple(int(n) for n in data["dims"])
        periodic = tuple(bool(p) for p in data["periodic"])
        cells = np.array(data["cells"], dtype=bool).reshape(dims)
        return cls(dims, periodic, cells)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GridMask):
            return NotImplemented
        return (self.dims == other.dims and self.periodic == other.periodic
                and np.array_equal(self.cells, other.cells))

    def __hash__(self):
        return hash((self.dims, self.periodic, self.cells.tobytes()))


@dataclass(frozen=True, eq=False)
class CubicalComplex:
    """Cells and boundaries of a closed set of doubled-grid cells.

    ``cells_by_dim[k]`` is the sorted array of flat indices, into the
    doubled grid of shape ``grid_shape``, of the k-cells; a cell's row in
    dimension k is its position in that array.  ``boundary[k]`` is the
    (n_k, 2k) array of face rows of each k-cell, two per odd axis, lower
    neighbour first; a face listed twice (a periodic axis of size 1)
    cancels mod 2.
    """
    dims: Tuple[int, ...]
    periodic: Tuple[bool, ...]
    cells_by_dim: Tuple[np.ndarray, ...]
    boundary: Dict[int, np.ndarray]

    @property
    def grid_shape(self) -> Tuple[int, ...]:
        return _grid_shape(self.dims, self.periodic)

    def n_cells(self, k: int) -> int:
        if 0 <= k < len(self.cells_by_dim):
            return len(self.cells_by_dim[k])
        return 0

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * self.n_cells(k) for k in range(len(self.cells_by_dim)))


def _grid_shape(dims, periodic) -> Tuple[int, ...]:
    return tuple(2 * n if p else 2 * n + 1 for n, p in zip(dims, periodic))


def _along(axis: int, step: slice, at: Sequence[slice]) -> Tuple[slice, ...]:
    """The view `at` with its slice on `axis` replaced by `step`."""
    return tuple(step if a == axis else s for a, s in enumerate(at))


def axis_interval(present: np.ndarray, periodic: bool, margin: int) -> Tuple[int, int]:
    """The smallest run of slabs, circular on a periodic axis, that covers
    the set entries of `present`, widened by `margin` slabs on each side
    and clipped to the axis: (start, length) with 0 <= start < n, and
    (0, n) for the whole axis.

    On a periodic axis the run is the complement of the largest run of
    unset entries (the last such run on ties), whole once the margin
    makes it cover the axis."""
    n = len(present)
    idx = np.flatnonzero(present)
    if len(idx) == n:
        return 0, n
    if not periodic:
        start = max(0, int(idx[0]) - margin)
        return start, min(n, int(idx[-1]) + margin + 1) - start
    # gaps[i] is the step from idx[i] to the next set entry
    gaps = np.diff(idx, append=idx[0] + n)
    gi = len(gaps) - 1 - int(np.argmax(gaps[::-1]))
    length = n - int(gaps[gi]) + 1 + 2 * margin
    if length >= n:
        return 0, n
    return (int(idx[(gi + 1) % len(idx)]) - margin) % n, length


def build_complex(mask: GridMask) -> CubicalComplex:
    """Closure of the included top cells, with sparse face arrays, built on
    each axis's ``axis_interval`` of the mask and indexed in the full grid."""
    if not mask.cells.any():
        raise EmptyMaskError("mask contains no cells")
    d, cells = mask.ndim, mask.cells
    whole = (slice(None),) * d
    start, periodic, seam = [], [], False
    for a, n in enumerate(mask.dims):
        s, m = axis_interval(cells.any(axis=tuple(b for b in range(d) if b != a)),
                             mask.periodic[a], 0)
        start.append(s)
        periodic.append(m == n and mask.periodic[a])
        seam |= mask.periodic[a] and m < n and s + m >= n
        if s + m > n:
            cells = cells.take(np.arange(s, s + m), axis=a, mode="wrap")
        elif m < n:
            cells = cells[_along(a, slice(s, s + m), whole)]
    shape = _grid_shape(cells.shape, periodic)
    grid = np.zeros(shape, dtype=bool)
    grid[tuple(slice(1, None, 2) for _ in shape)] = cells
    for a in range(d):
        # only odd coordinates along `a` are set yet: OR each into its two
        # even neighbours, the upper one wrapping to 0 on a periodic axis
        odd = grid[_along(a, slice(1, None, 2), whole)]
        grid[_along(a, slice(0, -1, 2), whole)] |= odd
        if periodic[a]:
            grid[_along(a, slice(0, None, 2), whole)] |= np.roll(odd, 1, a)
        else:
            grid[_along(a, slice(2, None, 2), whole)] |= odd

    level = np.zeros(shape, dtype=np.int8)
    for a in range(d):
        level[_along(a, slice(1, None, 2), whole)] += 1
    level[~grid] = -1
    full = _grid_shape(mask.dims, mask.periodic)
    row = np.empty(shape, dtype=np.int64)
    cells_by_dim = []
    for k in range(d + 1):
        at = found = np.flatnonzero(level == k)
        if shape != full:
            # back to the full grid: a translation, which keeps each level
            # sorted unless it wraps across the seam of a cut axis
            found = np.ravel_multi_index(tuple(c + 2 * s for c, s in zip(
                np.unravel_index(at, shape), start)), full, mode="wrap" if seam else "raise")
            if seam:
                order = np.argsort(found)
                at, found = at[order], found[order]
        row.reshape(-1)[at] = np.arange(len(at))
        cells_by_dim.append(found)
    boundary = {k: np.empty((len(c), 2 * k), dtype=np.int64) for k, c in enumerate(cells_by_dim)}

    for tau in itertools.product((0, 1), repeat=d):
        axes = [a for a in range(d) if tau[a]]
        if not axes:
            continue
        at = tuple(slice(t, None, 2) for t in tau)
        sel = grid[at]
        own = row[at][sel]
        faces = boundary[len(axes)]
        for j, a in enumerate(axes):
            faces[:, 2 * j][own] = row[_along(a, slice(0, -1, 2), at)][sel]
            if periodic[a]:
                upper = np.roll(row[_along(a, slice(0, None, 2), at)], -1, a)
            else:
                upper = row[_along(a, slice(2, None, 2), at)]
            faces[:, 2 * j + 1][own] = upper[sel]
    return CubicalComplex(mask.dims, mask.periodic, tuple(cells_by_dim), boundary)


def join(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Root of each of n nodes once u[i] is joined with v[i] for every i:
    the least node of its component.

    A union-find in array passes: every pair that joins two roots hooks the
    larger to the smaller, then pointer jumping makes each node point at its
    root; this repeats until no pair joins two roots.  A root only ever
    moves to a smaller index, so each component ends rooted at its least
    node.  ``u`` and ``v`` are only read.
    """
    parent = np.arange(n)
    while True:
        ru, rv = parent[u], parent[v]
        split = ru != rv
        if not split.any():
            return parent
        np.minimum.at(parent, np.maximum(ru, rv)[split], np.minimum(ru, rv)[split])
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped


def betti(cx: CubicalComplex) -> Tuple[int, ...]:
    """betti_k = n_k - rank boundary_k - rank boundary_{k+1} over GF(2).

    rank boundary_1 = n_0 - b_0, with b_0 the roots of a union-find over the
    edges; for d >= 2, rank boundary_d = n_d - 1 on a whole torus and n_d
    otherwise; boundary_{d-1} down to boundary_2 are reduced with clearing,
    boundary_{d-1} cleared by the apparent pivots of boundary_d alone.
    """
    d = len(cx.cells_by_dim) - 1
    n = [cx.n_cells(k) for k in range(d + 1)]
    ranks = [0] * (d + 2)
    if d >= 1:
        roots = join(n[0], cx.boundary[1][:, 0], cx.boundary[1][:, 1])
        ranks[1] = n[0] - int(np.count_nonzero(roots == np.arange(n[0])))
    if d >= 2:
        whole = all(cx.periodic) and n[d] == int(np.prod(cx.dims))
        ranks[d] = n[d] - int(whole)
    if d >= 3:
        pivots = apparent_pivots(cx.boundary[d])
        for k in range(d - 1, 1, -1):
            cleared = np.zeros(n[k], dtype=bool)
            cleared[pivots[pivots >= 0]] = True
            pivots = reduce_faces(cx.boundary[k][~cleared])
            ranks[k] = int(np.count_nonzero(pivots >= 0))
    return tuple(n[k] - ranks[k] - ranks[k + 1] for k in range(d + 1))


def betti_of_mask(mask: GridMask) -> Tuple[int, ...]:
    """Betti numbers of the mask's complex, built on its crop."""
    return betti(build_complex(mask))


def betti_product_check(a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
    """Graded convolution c_n = sum_k a_k * b_{n-k} (field Kuenneth rule)."""
    a = list(a)
    b = list(b)
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(out)
