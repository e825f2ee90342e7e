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

A complex lives on its mask's crop, so its cost follows the mask and not
the grid.  ``crop`` cuts every axis to ``axis_interval``, the smallest run of
slabs that covers the mask: an open axis to its bounding interval, and a
periodic axis with an empty slab cut open at its largest run of empty slabs.
No cell of the closure lies inside an empty slab, and a cell inside the run
finds both neighbours of each odd coordinate there too, so the open build
gives the same complex; a full periodic axis stays whole and periodic.
``build_complex`` builds on the crop as if it were the whole grid, and its
``dims``, ``periodic`` and cell indices are the crop's.  Every axis has 2n+1
doubled coordinates there: on a periodic axis the last one, 2n, is a pad
slab that stands for slab 0.  It holds no cell, so it does not change the
order of the cells, and once the cells are numbered it takes slab 0's row
numbers, so that every face of every cell is a fixed flat offset away and
the wrap is index arithmetic.  The build makes a fixed number of whole-array
passes per axis and per dimension, not per cell type.  The closure widens
the crop one axis at a time, each top cell ORed into its two even neighbours
(the last one's upper face into slab 0 too on a periodic axis).  A cell's
type, the set of its odd axes, gives its dimension and its face offsets
through small tables; the k-cells are the set entries of dimension k in flat
order, and their faces come from one gather pair,
``row[at -/+ stride of each odd axis]`` (each cell's row within its
dimension), odd axes ascending and the lower neighbour first.

Homology is taken over GF(2), and a boundary is reduced only where its
pivots are needed.  Four exact facts give the other ranks:

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

(d) A 3-D complex open on its crop needs no reduction at all (Alexander
    duality, as in Delfinado-Edelsbrunner 1995): it lies in R^3, so b_2 is
    the number of bounded components of its complement and b_3 = 0, and
    then b_1 = b_0 + b_2 - chi.  Two empty top cells that share a face are
    joined through it, and a lower cell is outside the complex only when
    every top cell around it is empty, so the components of the complement
    are those of the empty top cells under face adjacency.  ``mask_roots``
    finds them in the bounding box of the complex's top cells padded by one
    slab, whose connected padding holds the one unbounded component; the
    box follows the mask's cells, not the grid.

So a 1-D or 2-D mask and a 3-D mask open on its crop need no column
reduction, and a 3-D mask with a whole periodic axis one apparent pass on
boundary_3 and one reduction of boundary_2.

``morse`` takes its boxes, chart slices, distances and components from two
rules here.  The run rule: a run is (start, length) on one axis, circular on
a periodic one; ``axis_interval`` covers a set of slabs with one,
``run_steps`` is each slab's distance to one, ``box_mask`` a product of them.
The component rule: ``mask_roots``, one ``join`` over set axis neighbours.
"""

from __future__ import annotations

import functools
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
        cells = np.array(self.cells, dtype=bool)    # a copy: never a view
        if cells.shape != dims:
            raise ValueError(f"cells of shape {cells.shape} do not match dims {dims}")
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

    ``dims`` and ``periodic`` are those of the mask's crop, and
    ``cells_by_dim[k]`` is the sorted array of flat indices, into the crop's
    doubled grid of shape ``grid_shape`` (2n+1 per axis, the last slab of a
    periodic axis an empty pad), of the k-cells; a cell's row in
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
        return tuple(2 * n + 1 for n in self.dims)

    def n_cells(self, k: int) -> int:
        if 0 <= k < len(self.cells_by_dim):
            return len(self.cells_by_dim[k])
        return 0

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * self.n_cells(k) for k in range(len(self.cells_by_dim)))


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


def run_steps(n: int, periodic: bool, run: Tuple[int, int]) -> np.ndarray:
    """Each slab's step distance to the run (start, length) of an axis of n
    slabs: 0 inside, circular on a periodic axis."""
    start, length = run
    idx = np.arange(n)
    if not periodic:
        return np.maximum(0, np.maximum(start - idx, idx - (start + length - 1)))
    past = (idx - start) % n    # steps from the run's start, forward
    return np.where(past < length, 0, np.minimum(past - (length - 1), n - past))


def box_mask(dims: Sequence[int], periodic: Sequence[bool],
             runs: Sequence[Tuple[int, int]]) -> np.ndarray:
    """The product of one run (start, length) per axis, a boolean array."""
    box = np.ones(tuple(dims), dtype=bool)
    for a, (n, p, run) in enumerate(zip(dims, periodic, runs)):
        if run[1] < n:
            box &= (run_steps(n, p, run) == 0).reshape((n,) + (1,) * (len(dims) - 1 - a))
    return box


@functools.lru_cache(maxsize=None)
def _odd_axes(d: int) -> Tuple[Tuple[np.ndarray, ...], np.ndarray]:
    """Tables indexed by a cell's type t, whose bit a is set when the cell's
    coordinate on axis a is odd: per k, the k odd axes of each type of
    dimension k, ascending (0 for the other types), and the dimension of
    each type."""
    axes = [np.zeros((2 ** d, k), dtype=np.int64) for k in range(d + 1)]
    level = np.zeros(2 ** d, dtype=np.int8)
    for t in range(2 ** d):
        odd = [a for a in range(d) if t >> a & 1]
        level[t] = len(odd)
        axes[len(odd)][t] = odd
    for table in axes + [level]:
        table.flags.writeable = False
    return tuple(axes), level


def crop(mask: GridMask) -> GridMask:
    """The mask on each axis's ``axis_interval`` (margin 0): an open axis cut
    to its bounding run, a periodic axis with an empty slab cut open there,
    a full periodic axis kept whole."""
    if not mask.cells.any():
        raise EmptyMaskError("mask contains no cells")
    d, cells, periodic = mask.ndim, mask.cells, list(mask.periodic)
    for a, n in enumerate(mask.dims):
        s, m = axis_interval(cells.any(axis=tuple(b for b in range(d) if b != a)),
                             periodic[a], 0)
        if m < n:
            periodic[a] = False
            cells = cells.take(np.arange(s, s + m), axis=a, mode="wrap")
    return GridMask(cells.shape, tuple(periodic), cells)


def build_complex(mask: GridMask) -> CubicalComplex:
    """Closure of the included top cells, with sparse face arrays, built on
    ``crop(mask)`` and indexed in the doubled grid of the crop."""
    mask = crop(mask)
    d, periodic = mask.ndim, mask.periodic
    whole = (slice(None),) * d
    shape = tuple(2 * n + 1 for n in mask.dims)
    wrapped = [a for a in range(d) if periodic[a]]
    grid = mask.cells
    for a in range(d):
        # top cell i sits at 2i + 1 on axis a and closes onto 2i and 2i + 2;
        # slab 0 of a periodic axis also takes the upper face of the last one
        closed = np.empty(shape[:a + 1] + grid.shape[a + 1:], dtype=bool)
        closed[_along(a, slice(1, None, 2), whole)] = grid
        closed[_along(a, slice(2, None, 2), whole)] = grid
        closed[_along(a, slice(0, 1), whole)] = \
            grid[_along(a, slice(-1, None), whole)] if periodic[a] else False
        closed[_along(a, slice(0, -1, 2), whole)] |= grid
        grid = closed
    kind = np.zeros(shape, dtype=np.intp)
    for a in range(d):
        kind[_along(a, slice(1, None, 2), whole)] += 1 << a
    for a in wrapped:
        grid[_along(a, slice(-1, None), whole)] = False
    odd_axes, level_of = _odd_axes(d)
    level = np.where(grid, level_of.take(kind), -1)

    row = np.empty(shape, dtype=np.int64)
    flat_row, flat_kind = row.reshape(-1), kind.reshape(-1)
    cells_by_dim = tuple(np.flatnonzero(level == k) for k in range(d + 1))
    for at in cells_by_dim:
        flat_row[at] = np.arange(len(at))
    for a in wrapped:
        # the upper face of the last slab's cells is in slab 0
        row[_along(a, slice(-1, None), whole)] = row[_along(a, slice(0, 1), whole)]
    # a cell's faces sit at its index less and plus the stride of each odd axis
    stride = np.array(row.strides, dtype=np.int64) // row.itemsize
    boundary = {}
    for k, at in enumerate(cells_by_dim):
        step = (stride[odd_axes[k]][:, :, None] * (-1, 1)).reshape(2 ** d, 2 * k)
        boundary[k] = flat_row.take(at[:, None] + step.take(flat_kind.take(at), axis=0))
    return CubicalComplex(mask.dims, periodic, cells_by_dim, boundary)


def join(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Root of each of n nodes once u[i] is joined with v[i] for every i:
    the least node of its component.

    A union-find in array passes: every pair hooks the larger of its two
    roots to the smaller (a pair within one tree hooks its root to itself),
    then pointer jumping, two jumps per check, makes each node point at its
    root; this repeats until every pair has one root.  Each node starts as
    its own root, so the first pass hooks the pairs as given.  A root only
    ever moves to a smaller index, so each component ends rooted at its
    least node.  ``u`` and ``v`` are only read.
    """
    parent = np.arange(n)
    ru, rv = u, v
    while True:
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            parent = parent[parent]
            jumped = parent[parent]
            if (jumped == parent).all():
                break
            parent = jumped
        ru, rv = parent[u], parent[v]
        if (ru == rv).all():
            return parent


def mask_roots(mask: np.ndarray, periodic: Sequence[bool]) -> np.ndarray:
    """Root of each entry of a boolean array by flat index, after one ``join``
    of the set entries to their set axis neighbours (wrapping on a periodic
    axis): the least flat index of its component, itself when unset."""
    whole = (slice(None),) * mask.ndim
    index = np.arange(mask.size).reshape(mask.shape)
    u, v = [], []
    for a in range(mask.ndim):
        if periodic[a]:
            both = mask & np.roll(mask, -1, a)
            u.append(index[both])
            v.append(np.roll(index, -1, a)[both])
        else:
            lower, upper = _along(a, slice(0, -1), whole), _along(a, slice(1, None), whole)
            both = mask[lower] & mask[upper]
            u.append(index[lower][both])
            v.append(index[upper][both])
    return join(mask.size, np.concatenate(u), np.concatenate(v))


def _complement_components(cx: CubicalComplex) -> int:
    """Components of the complement of an open complex, the unbounded one
    among them: the ``mask_roots`` of the empty top cells of the bounding
    box of its top cells, padded by one slab on each side."""
    top = np.unravel_index(cx.cells_by_dim[-1], cx.grid_shape)
    lo = [int(c.min()) for c in top]
    box = tuple((int(c.max()) - low) // 2 + 3 for c, low in zip(top, lo))
    empty = np.ones(box, dtype=bool)
    empty[tuple((c - low) // 2 + 1 for c, low in zip(top, lo))] = False
    roots = mask_roots(empty, (False,) * empty.ndim)
    return int(np.count_nonzero(roots == np.arange(empty.size))) - len(cx.cells_by_dim[-1])


def betti(cx: CubicalComplex) -> Tuple[int, ...]:
    """betti_k = n_k - rank boundary_k - rank boundary_{k+1} over GF(2).

    rank boundary_1 = n_0 - b_0, with b_0 the roots of a union-find over the
    edges.  A 3-D complex open on its crop takes b_2 from the components of
    its complement and b_1 from the Euler characteristic.  Otherwise, for
    d >= 2, rank boundary_d = n_d - 1 on a whole torus and n_d otherwise;
    boundary_{d-1} down to boundary_2 are reduced with clearing,
    boundary_{d-1} cleared by the apparent pivots of boundary_d alone.
    """
    d = len(cx.cells_by_dim) - 1
    n = [cx.n_cells(k) for k in range(d + 1)]
    ranks = [0] * (d + 2)
    if d >= 1:
        roots = join(n[0], cx.boundary[1][:, 0], cx.boundary[1][:, 1])
        ranks[1] = n[0] - int(np.count_nonzero(roots == np.arange(n[0])))
    if d == 3 and not any(cx.periodic):
        b0, b2 = n[0] - ranks[1], _complement_components(cx) - 1
        return b0, b0 + b2 - cx.euler_characteristic(), b2, 0
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
