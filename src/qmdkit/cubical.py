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
order.  Their face array is built on the first read of ``boundary[k]`` and
kept: the (k-1)-cells are numbered in a fresh row array, the pad slabs take
slab 0's rows, and one gather pair ``row[at -/+ stride of each odd axis]``
gives each cell's face rows, odd axes ascending and the lower neighbour
first.  Every cell and face array is read-only, since later readers share it.

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
(c) For d >= 3, b_{d-1} needs no reduction, by duality in the d-torus
    (Alexander duality in R^3 is Delfinado-Edelsbrunner 1995), and then
    rank boundary_{d-1} = n_{d-1} - rank boundary_d - b_{d-1}.  Each open
    axis of the crop is closed up by one empty slab, so the complex K lies
    in the d-torus T; let U be its complement.  Over GF(2) H_{d-1}(K) is
    H^1(T, U), and the exact sequence of the pair gives
    b_{d-1} = c(U) - 1 + d - r, with c(U) the components of U and r the
    rank of H_1(U) -> H_1(T) = GF(2)^d, the span of the winding parities of
    the loops in U; the whole torus, U empty, gives d.  Two empty top cells
    that share a face are joined through it, and a lower cell is outside K
    only when every top cell around it is empty, so the components of U are
    those of the empty top cells under face adjacency.  The closing slab of
    an open axis winds along every other axis, so their windings are in the
    span whatever the mask: one ``mask_roots`` keeps those axes glued and
    cuts only the rest at their seam, every axis of a crop with no open
    axis, the open axis of a crop with one, none otherwise.  Each wrap pair
    of a cut axis (empty on its last slab and on its first) joins the
    labels of its ends with winding e_a, in a cover of the labels with one
    copy per winding: copy g of one end to copy g + e_a of the other, one
    ``join``, as wrapping clusters are found in percolation (Newman-Ziff
    2001).  A label's copy g meets its copy 0 exactly when a loop through
    it winds g, so r is the rank of those g, and c(U) counts the labels
    whose copy 0 roots their component of the cover.
(d) The boundaries below, boundary_k for 2 <= k < d - 1, are reduced with
    ``gf2.reduce_faces`` from the top down with clearing (Chen-Kerber
    2011): a k-cell that is the pivot of a reduced (k+1)-column has a
    column that reduces to zero, so it is skipped.  Clearing any subset of
    the true pivots is sound, so boundary_{d-1} is not reduced at all: the
    pivots of its apparent columns (``gf2.apparent_pivots``), which are
    true pivots, clear boundary_{d-2}.

So a mask of dimension 3 or less needs no column reduction, and a 4-D mask
one apparent pass on boundary_3 and one reduction, of boundary_2.  Below
4-D ``betti`` reads no face array but boundary_1, so no other is built; a
4-D mask builds boundary_1 to boundary_3 and never boundary_4.

``morse`` takes its boxes, chart slices, distances, neighbours and
components from three rules here.  The run rule: a run is (start, length) on
one axis, circular on a periodic one; ``axis_interval`` covers a set of slabs
with one, ``mask_runs`` is a mask's extent (one ``axis_interval`` per axis, as
``crop`` cuts it), ``run_steps`` each slab's distance to a run, ``box_mask`` a
product of runs.  The step rule: ``step`` moves flat node indices one slab
along an axis, wrapping on a periodic axis and staying on the node past the
end of an open one.  The component rule: ``mask_roots``, one ``join`` of set
nodes to their set upper ``step`` on each axis.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

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
    cancels mod 2.  ``boundary`` is a mapping with keys 0..d.  That of
    ``build_complex`` is read-only and builds each face array on its first
    read, so ``betti`` builds only boundary_1 below 4-D, and every array it
    holds is read-only.
    """
    dims: Tuple[int, ...]
    periodic: Tuple[bool, ...]
    cells_by_dim: Tuple[np.ndarray, ...]
    boundary: Mapping[int, np.ndarray]

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


def mask_runs(mask: GridMask, margin: int) -> List[Tuple[int, int]]:
    """Each axis's ``axis_interval`` of the mask's set slabs, widened by
    `margin` slabs on each side: its extent, one run (start, length) per
    axis."""
    d = mask.ndim
    return [axis_interval(mask.cells.any(axis=tuple(b for b in range(d) if b != a)),
                          mask.periodic[a], margin)
            for a in range(d)]


def crop(mask: GridMask) -> GridMask:
    """The mask on its ``mask_runs`` (margin 0): an open axis cut to its
    bounding run, a periodic axis with an empty slab cut open there, a full
    periodic axis kept whole; the mask itself when no axis is cut."""
    if not mask.cells.any():
        raise EmptyMaskError("mask contains no cells")
    runs = mask_runs(mask, 0)
    if all(m == n for n, (_, m) in zip(mask.dims, runs)):
        return mask
    cells, periodic = mask.cells, list(mask.periodic)
    for a, (n, (s, m)) in enumerate(zip(mask.dims, runs)):
        if m < n:
            periodic[a] = False
            cells = cells.take(np.arange(s, s + m), axis=a, mode="wrap")
    return GridMask(cells.shape, tuple(periodic), cells)


def build_complex(mask: GridMask) -> CubicalComplex:
    """Closure of the included top cells, built on ``crop(mask)`` and indexed
    in the doubled grid of the crop; each face array is built by
    ``_face_rows`` on its first read."""
    mask = crop(mask)
    d, periodic = mask.ndim, mask.periodic
    whole = (slice(None),) * d
    shape = tuple(2 * n + 1 for n in mask.dims)
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
        if periodic[a]:
            grid[_along(a, slice(-1, None), whole)] = False
    level = np.where(grid, _odd_axes(d)[1].take(kind), -1)
    cells_by_dim = tuple(np.flatnonzero(level == k) for k in range(d + 1))
    for at in cells_by_dim:
        at.flags.writeable = False
    return CubicalComplex(mask.dims, periodic, cells_by_dim,
                          _FaceArrays(kind, periodic, cells_by_dim))


class _FaceArrays(Mapping):
    """``CubicalComplex.boundary`` of a built complex, keys 0..d: face array k
    is built by ``_face_rows`` on its first read and kept.  Two first reads
    at once may both build it, each on its own row array, and the first one
    kept is returned to both."""

    def __init__(self, kind: np.ndarray, periodic: Tuple[bool, ...],
                 cells_by_dim: Tuple[np.ndarray, ...]):
        self._kind, self._periodic, self._cells = kind, periodic, cells_by_dim
        self._built: Dict[int, np.ndarray] = {}

    def __getitem__(self, k: int) -> np.ndarray:
        faces = self._built.get(k)
        if faces is None:
            if k not in self:
                raise KeyError(k)
            faces = self._built.setdefault(k, _face_rows(self._kind, self._periodic,
                                                         self._cells, k))
        return faces

    def __contains__(self, k) -> bool:
        return k in range(len(self._cells))

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self._cells)))

    def __len__(self) -> int:
        return len(self._cells)


def _face_rows(kind: np.ndarray, periodic: Tuple[bool, ...],
               cells_by_dim: Tuple[np.ndarray, ...], k: int) -> np.ndarray:
    """The (n_k, 2k) face rows of the k-cells, a read-only array: the
    (k-1)-cells numbered in a fresh row array over the grid of cell types
    `kind`, then one gather pair."""
    d, whole = kind.ndim, (slice(None),) * kind.ndim
    row = np.empty(kind.shape, dtype=np.int64)
    flat_row = row.reshape(-1)
    if k:
        flat_row[cells_by_dim[k - 1]] = np.arange(len(cells_by_dim[k - 1]))
    for a in range(d):
        if periodic[a]:
            # the upper face of the last slab's cells is in slab 0
            row[_along(a, slice(-1, None), whole)] = row[_along(a, slice(0, 1), whole)]
    # a cell's faces sit at its index less and plus the stride of each odd axis
    stride = np.array(row.strides, dtype=np.int64) // row.itemsize
    step = (stride[_odd_axes(d)[0][k]][:, :, None] * (-1, 1)).reshape(2 ** d, 2 * k)
    at = cells_by_dim[k]
    faces = flat_row.take(at[:, None] + step.take(kind.reshape(-1).take(at), axis=0))
    faces.flags.writeable = False
    return faces


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


def step(dims: Sequence[int], periodic: Sequence[bool], flat: np.ndarray,
         axis: int, sign: int) -> np.ndarray:
    """Flat index of node + sign * e_axis for each node of a C-order grid of
    shape `dims` in `flat` (flat indices): wrapped on a periodic axis, the
    node itself past the end of an open one."""
    stride, n = math.prod(dims[axis + 1:]), dims[axis]
    edge = (flat // stride % n) == (n - 1 if sign > 0 else 0)
    return flat + np.where(edge, -sign * (n - 1) * stride if periodic[axis] else 0,
                           sign * stride)


def mask_roots(mask: np.ndarray, periodic: Sequence[bool]) -> np.ndarray:
    """Root of each entry of a boolean array by flat index, after one ``join``
    of each set entry to its upper ``step`` on every axis when that is set:
    the least flat index of its component, itself when unset.  A step that
    stays on its node (an open axis's end) joins nothing."""
    flat, cells = np.flatnonzero(mask), mask.ravel()
    u, v = [], []
    for a in range(mask.ndim):
        up = step(mask.shape, periodic, flat, a, 1)
        both = cells[up]
        u.append(flat[both])
        v.append(up[both])
    return join(mask.size, np.concatenate(u), np.concatenate(v))


def _torus_duality(cx: CubicalComplex) -> int:
    """b_{d-1} of a complex of dimension d >= 2 by duality in the d-torus
    (fact (c)): c(U) - 1 + d - r, and d for the whole torus."""
    d = len(cx.dims)
    top = np.zeros(cx.grid_shape, dtype=bool)
    top.reshape(-1)[cx.cells_by_dim[-1]] = True
    # each open axis closed up by one empty slab past its last one
    empty = np.ones(tuple(n + (not p) for n, p in zip(cx.dims, cx.periodic)), dtype=bool)
    empty[tuple(slice(n) for n in cx.dims)] = ~top[(slice(1, None, 2),) * d]
    if not empty.any():
        return d
    closed = [a for a in range(d) if not cx.periodic[a]]
    cut = range(d) if not closed else closed if len(closed) == 1 else ()
    roots = mask_roots(empty, [a not in cut for a in range(d)])
    components = int(np.count_nonzero(roots == np.arange(empty.size))) - len(cx.cells_by_dim[-1])
    if not cut:
        return components - 1
    # the wrap pairs of each cut axis, empty on its last slab and its first
    grid, last, first, winding = roots.reshape(empty.shape), [], [], []
    for bit, a in enumerate(cut):
        both = empty.take(-1, axis=a) & empty.take(0, axis=a)
        last.append(grid.take(-1, axis=a)[both])
        first.append(grid.take(0, axis=a)[both])
        winding.append(np.full(len(first[-1]), 1 << bit))
    last, first = np.concatenate(last), np.concatenate(first)
    label = np.zeros(empty.size, dtype=np.intp)
    label[last] = label[first] = 1
    label = np.cumsum(label) - 1    # the roots at wrap pairs, numbered in order
    # copy g of a label is node label * copies + g; a pair of winding w joins
    # copy g of its last end to copy g ^ w of its first
    copies, n_labels = 1 << len(cut), int(label[-1]) + 1
    g = np.arange(copies)
    cover = join(n_labels * copies, (label[last][:, None] * copies + g).ravel(),
                 (label[first][:, None] * copies + (g ^ np.concatenate(winding)[:, None])).ravel())
    cover = cover.reshape(n_labels, copies)
    # the least label of each component of U keeps copy 0 as its root, and a
    # label's copy g meets its copy 0 when a loop through it winds g
    components -= n_labels - int(np.count_nonzero(cover[:, 0] == np.arange(n_labels) * copies))
    span = {0}    # the windings of loops in U, of 2^r elements
    for x in np.flatnonzero((cover == cover[:, :1]).any(axis=0)).tolist():
        span |= {y ^ x for y in span}
    return components - 1 + len(cut) - (len(span).bit_length() - 1)


def betti(cx: CubicalComplex) -> Tuple[int, ...]:
    """betti_k = n_k - rank boundary_k - rank boundary_{k+1} over GF(2).

    rank boundary_1 = n_0 - b_0, with b_0 the roots of a union-find over the
    edges.  For d >= 2, rank boundary_d = n_d - 1 on a whole torus and n_d
    otherwise.  For d >= 3, rank boundary_{d-1} follows from b_{d-1}, which
    duality in the d-torus gives without a reduction; boundary_{d-2} down
    to boundary_2 are reduced with clearing, boundary_{d-2} cleared by the
    apparent pivots of boundary_{d-1} alone.
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
        ranks[d - 1] = n[d - 1] - ranks[d] - _torus_duality(cx)
    if d >= 4:
        pivots = apparent_pivots(cx.boundary[d - 1])
        for k in range(d - 2, 1, -1):
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
