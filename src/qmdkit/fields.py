"""Sampled scalar fields on regular grids, with finite-difference calculus.

Fields carry per-axis spacing and periodicity.  Derivatives use central
stencils: exact for quadratics, O(h^2) otherwise.  Nodes on a
non-periodic boundary have no trustworthy stencil and are excluded from
gradient/Hessian queries rather than approximated one-sidedly.

`gradient` takes every node at once from np.roll-shifted copies of the
values; `gradient_at_nodes` gathers the same stencil at given nodes only,
for callers whose work is local to a box.  The Hessian stencil is written
once, in `hessian_at_nodes`, which gathers it at a given array of nodes
only, and `hessian_at` is the gather at one node.  Both gathers read the
raveled values by flat index: each node's index is computed once, and
each stencil point is that index plus one flat step per axis and sign (a
constant +-stride on an open axis, a per-node wrapped step on a periodic
one), so no coordinate array is formed per stencil offset.  Each gather
checks its node array once, and one node is read through `stencil_node`
by the same rule: BoundaryNodeError for an array that is not (n, d) and
integer, a node that is not a node of the grid (each index in [0, n)) and
a node on an open boundary; no index is read modulo the grid.
`eig_sym` is numpy.linalg.eigh behind square/symmetric checks; it and
`hessian_at` serve the tests' per-node oracles and the benchmark's tracer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np


class GridMismatchError(ValueError):
    pass


class BoundaryNodeError(ValueError):
    pass


@dataclass(frozen=True)
class ScalarField:
    dims: Tuple[int, ...]
    spacing: Tuple[float, ...]
    periodic: Tuple[bool, ...]
    values: np.ndarray

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        spacing = tuple(float(h) for h in self.spacing)
        periodic = tuple(bool(p) for p in self.periodic)
        if not (len(dims) == len(spacing) == len(periodic)):
            raise ValueError("dims, spacing, periodic must have equal length")
        if not dims:
            raise ValueError("a field needs at least one axis")
        if any(n < 1 for n in dims):
            raise ValueError("all axis sizes must be >= 1")
        if not all(0.0 < h < np.inf for h in spacing):
            raise ValueError("spacing must be finite and positive on every axis")
        values = np.array(self.values, dtype=float, order="C").reshape(dims)  # never a view
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "periodic", periodic)
        object.__setattr__(self, "values", values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScalarField):
            return NotImplemented
        return (self.dims == other.dims and self.spacing == other.spacing
                and self.periodic == other.periodic
                and np.array_equal(self.values, other.values))

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which it equals
        return hash((self.dims, self.spacing, self.periodic,
                     (self.values + 0.0).tobytes()))

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @classmethod
    def sample(cls, dims: Sequence[int], spacing: Sequence[float],
               periodic: Sequence[bool], fn: Callable[..., float],
               origin: Optional[Sequence[float]] = None) -> "ScalarField":
        """Evaluate fn on the grid nodes origin + i*h (vectorized per node)."""
        dims = tuple(int(n) for n in dims)
        spacing = tuple(float(h) for h in spacing)
        if origin is None:
            origin = (0.0,) * len(dims)
        axes = [origin[a] + spacing[a] * np.arange(dims[a]) for a in range(len(dims))]
        grids = np.meshgrid(*axes, indexing="ij") if len(dims) > 1 else [axes[0]]
        values = fn(*grids)
        return cls(dims, spacing, tuple(periodic), np.asarray(values, dtype=float))

    def same_grid(self, other: "ScalarField") -> bool:
        return (self.dims == other.dims and self.spacing == other.spacing
                and self.periodic == other.periodic)

    def require_same_grid(self, other: "ScalarField") -> None:
        if not self.same_grid(other):
            raise GridMismatchError("fields live on different grids")

    def with_values(self, values: np.ndarray) -> "ScalarField":
        return ScalarField(self.dims, self.spacing, self.periodic, values)

    def sub(self, other: "ScalarField", scale: float = 1.0) -> "ScalarField":
        self.require_same_grid(other)
        return self.with_values(self.values - scale * other.values)

    def shift(self, constant: float) -> "ScalarField":
        return self.with_values(self.values - constant)

    def to_json(self) -> dict:
        return {
            "dims": list(self.dims),
            "spacing": list(self.spacing),
            "periodic": [int(p) for p in self.periodic],
            "values": [float(v) for v in self.values.reshape(-1)],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ScalarField":
        """Read `to_json` output.  Each key must hold a JSON array (a string
        would be read one character at a time), dims integers, periodic
        flags 0, 1, true or false, and spacing and values JSON numbers
        (numpy would read "0.25" and true as numbers)."""
        dims, spacing, periodic, values = (data[k] for k in
                                           ("dims", "spacing", "periodic", "values"))
        if not all(isinstance(v, list) for v in (dims, spacing, periodic, values)):
            raise ValueError("dims, spacing, periodic and values must be arrays")
        if not all(isinstance(n, int) and not isinstance(n, bool) for n in dims):
            raise ValueError(f"axis sizes must be integers: {dims}")
        if not all(isinstance(p, int) and p in (0, 1) for p in periodic):
            raise ValueError(f"periodic flags must be 0, 1, true or false: {periodic}")
        if not {int, float}.issuperset(map(type, spacing + values)):
            raise ValueError("spacing and values must be arrays of numbers")
        return cls(tuple(dims), tuple(float(h) for h in spacing),
                   tuple(bool(p) for p in periodic),
                   np.array(values, dtype=float))


def stencil_mask(field: ScalarField) -> np.ndarray:
    """Nodes where central differences are available on every axis."""
    ok = np.ones(field.dims, dtype=bool)
    for a in range(field.ndim):
        if field.periodic[a]:
            continue
        sl_lo = [slice(None)] * field.ndim
        sl_hi = [slice(None)] * field.ndim
        sl_lo[a] = 0
        sl_hi[a] = field.dims[a] - 1
        ok[tuple(sl_lo)] = False
        ok[tuple(sl_hi)] = False
    return ok


def gradient(field: ScalarField) -> Tuple[np.ndarray, np.ndarray]:
    """Central-difference gradient.

    Returns (grad, valid) where grad has shape dims + (ndim,) and valid
    marks nodes whose full stencil exists; grad is zero-filled elsewhere.
    """
    v = field.values
    grad = np.zeros(field.dims + (field.ndim,), dtype=float)
    for a in range(field.ndim):
        fwd = np.roll(v, -1, axis=a)
        bwd = np.roll(v, 1, axis=a)
        grad[..., a] = (fwd - bwd) / (2.0 * field.spacing[a])
    valid = stencil_mask(field)
    grad[~valid] = 0.0
    return grad, valid


def _stencil_nodes(field: ScalarField, nodes) -> np.ndarray:
    """`nodes` as an (n, d) intp array, checked once: BoundaryNodeError
    unless it is an (n, d) integer array of nodes of the grid (each index in
    [0, n)) off every open boundary."""
    nodes = np.asarray(nodes)
    if nodes.ndim != 2 or nodes.shape[1] != field.ndim or nodes.dtype.kind not in "iu":
        raise BoundaryNodeError(f"an array of shape {nodes.shape} and dtype {nodes.dtype} "
                                f"is not an (n, {field.ndim}) integer array of nodes")
    dims = np.array(field.dims)
    edge = np.array([0 if p else 1 for p in field.periodic])
    inside = (nodes >= edge) & (nodes < dims - edge)
    if not inside.all():
        node = nodes[~inside.all(axis=1)][0]
        if ((node >= 0) & (node < dims)).all():
            raise BoundaryNodeError(f"stencil leaves the grid at node {tuple(node.tolist())}")
        raise BoundaryNodeError(f"node {tuple(node.tolist())} is not a node of the grid "
                                f"{field.dims}")
    return nodes.astype(np.intp, copy=False)


def _flat_stencil(field: ScalarField, nodes: np.ndarray):
    """Flat index of each of the (n, d) `nodes` into the values, and per
    axis the flat steps (up, down) to node +- e_a, wrapped on a periodic
    axis; the nodes are checked by `_stencil_nodes`.

    On an open axis the steps are +-stride, one integer for every node,
    since a stencil-valid node is not on that axis's boundary; on a
    periodic axis they are per-node arrays that wrap.  The open-axis step
    stays a constant rather than a ``cubical.step`` array: only a node at
    an axis's end would tell the two apart, none is stencil-valid, and the
    per-node array makes every gather slower (``gradient_at_nodes`` at the
    stencil-valid box nodes of the 13 jobs of a benchmark fields round took
    about 380 against 660 us on one Xeon core)."""
    nodes = _stencil_nodes(field, nodes)
    strides = np.cumprod((1,) + field.dims[:0:-1], dtype=np.intp)[::-1]
    steps = []
    for c, n, p, stride in zip(nodes.T, field.dims, field.periodic, strides):
        steps.append((((c + 1) % n - c) * stride, ((c - 1) % n - c) * stride) if p
                     else (stride, -stride))
    return nodes @ strides, steps


def gradient_at_nodes(field: ScalarField, nodes: np.ndarray) -> np.ndarray:
    """Central-difference gradients at the given nodes, as an (n, d) array.

    `nodes` is an (n, d) integer array of stencil-valid nodes, gathered
    by flat index as in `hessian_at_nodes`.  Each entry is `gradient`'s
    expression in the same order, so the two agree bit for bit at every
    stencil-valid node.
    """
    v = field.values.ravel()
    flat, steps = _flat_stencil(field, nodes)
    grad = np.empty((len(flat), field.ndim), dtype=float)
    for a, (up, down) in enumerate(steps):
        grad[:, a] = (v[flat + up] - v[flat + down]) / (2.0 * field.spacing[a])
    return grad


def norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis.  Every gradient norm in the
    package is taken here, so a norm gathered at a few nodes equals the
    whole-grid one bit for bit."""
    return np.sqrt((v ** 2).sum(axis=-1))


def gradient_magnitude(field: ScalarField) -> Tuple[np.ndarray, np.ndarray]:
    grad, valid = gradient(field)
    return norms(grad), valid


def hessian_at_nodes(field: ScalarField, nodes: np.ndarray) -> np.ndarray:
    """Central-difference Hessians at the given nodes, as an (n, d, d) stack.

    `nodes` is an (n, d) integer array of stencil-valid nodes, else
    BoundaryNodeError, so nodes on an open boundary must be filtered out by
    the caller; stencil values are gathered by flat index, each node's own
    plus its flat steps to node +- e_a, wrapped on a periodic axis.  Every
    entry is the same expression, in the same order, wherever a Hessian is
    taken, so `hessian_at` agrees with it bit for bit.
    """
    v = field.values.ravel()
    h = field.spacing
    d = field.ndim
    flat, steps = _flat_stencil(field, nodes)
    H = np.zeros((len(flat), d, d), dtype=float)
    f0 = v[flat]
    for a, (up, down) in enumerate(steps):
        H[:, a, a] = (v[flat + up] - 2.0 * f0 + v[flat + down]) / (h[a] * h[a])
    for a in range(d):
        for b in range(a + 1, d):
            (ua, da), (ub, db) = steps[a], steps[b]
            val = (v[flat + ua + ub] - v[flat + ua + db] - v[flat + da + ub]
                   + v[flat + da + db])
            H[:, a, b] = H[:, b, a] = val / (4.0 * h[a] * h[b])
    return H


def hessian_at(field: ScalarField, node: Sequence[int]) -> np.ndarray:
    """Symmetric central second differences at a grid node.

    Raises BoundaryNodeError when the node is not a node of the grid or
    sits on a non-periodic boundary (one-sided stencils are not trusted).
    """
    return hessian_at_nodes(field, stencil_node(field, node))[0]


def stencil_node(field: ScalarField, node: Sequence[int]) -> np.ndarray:
    """The node as a (1, d) array, by `_stencil_nodes`' rule:
    BoundaryNodeError unless it is a node of the grid (one index per axis,
    each in [0, n)) off every open boundary."""
    return _stencil_nodes(field, np.array([[int(i) for i in node]]))


def eig_sym(m: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a symmetric matrix (numpy.linalg.eigh).

    Returns (w, V) with w ascending and V[:, i] the unit eigenvector for
    w[i].  Rejects non-square input and input that is not symmetric up to
    1e-9 * max(1, |m|_max); the symmetric part is what gets decomposed.
    """
    A = np.array(m, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("eig_sym expects a square matrix")
    if A.shape[0] == 0:
        return np.zeros(0), np.zeros((0, 0))
    scale = max(1.0, float(np.abs(A).max()))
    if float(np.abs(A - A.T).max()) > 1e-9 * scale:
        raise ValueError("eig_sym expects a symmetric matrix")
    w, V = np.linalg.eigh(0.5 * (A + A.T))
    return w, V


def check_difference_range(field: ScalarField) -> None:
    """Raise ValueError unless every stencil output is a finite float.

    Bounds what the calculus forms from values of magnitude <= m and
    spacings in [h_lo, h_hi]: value differences (4 m), squared gradient
    norms (ndim (m / h_lo)^2), Hessian spectra (ndim 4 m / h_lo^2), the
    truncation floor (4 h_hi^2) and `default_grad_tol`.  m is 4 max|value|,
    which leaves room for a shift by a critical value and for the
    difference of two fields.  Spacing [1e300, 1] or [1e-300, 1], or values
    near 1e300, fail it.
    """
    m = 4.0 * float(np.abs(field.values).max(initial=0.0))
    h_lo, h_hi = np.float64(min(field.spacing)), np.float64(max(field.spacing))
    d = field.ndim
    with np.errstate(all="ignore"):
        g = m / h_lo
        h2 = h_lo * h_lo
        bounds = np.array([4.0 * m, d * g * g, d * 4.0 * m / h2,
                           4.0 * h_hi * h_hi, 10.0 * h_hi * h_hi * d * g])
    if h2 == 0.0 or not np.isfinite(bounds).all():
        raise ValueError("spacing and values overflow the difference stencils")


def default_grad_tol(field: ScalarField) -> float:
    """O(h^2) stencil accuracy scaled by the field's gradient range."""
    mag, valid = gradient_magnitude(field)
    grange = float(mag[valid].max()) if valid.any() else 1.0
    hbar = float(np.mean(field.spacing))
    return 10.0 * hbar * hbar * max(grange, 1e-12)


def c1_distance(f: ScalarField, g: ScalarField) -> float:
    """max |f - g| plus max |grad f - grad g| over stencil-valid nodes."""
    f.require_same_grid(g)
    d0 = float(np.abs(f.values - g.values).max())
    gf, valid = gradient(f)
    gg, _ = gradient(g)
    diff = norms(gf - gg)
    d1 = float(diff[valid].max()) if valid.any() else 0.0
    return d0 + d1
