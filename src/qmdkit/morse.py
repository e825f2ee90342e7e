"""Critical-set degeneracy analysis for sampled functions.

The degeneracy ladder, from most to least rigid:

  morse            isolated nondegenerate critical points
  morse_bott       critical submanifold, Hessian kernel = its tangent space
  flattened        f|_S minimal along C and ker Hess_x f = T_x S on C
  minimally        f|_S minimal along C and T_x S a maximal subspace on
  degenerate       which Hess_x f is positive semi-definite
  qmd              an auxiliary tau >= 0 with tau^-1(0) = C, Hessian-kernel
                   transversality, and f - tau flattened along (C, S)

The companion submanifold S is restricted to coordinate-aligned charts:
S = {off-chart coordinates frozen to a base node}.  A minimally
degenerate pair (C, S) always admits a compliant tau, built here as
tau = dist(x, S)^4 + f(project_S(x)) - min_C f near C and certified by
`check_qmd` alone.

The geometry follows `cubical`'s three rules.  Runs: an isolating box is
the `box_mask` of the component's `mask_runs` widened by BOX_MARGIN, a
chart's slice the `box_mask` of its `runs` (a chart meets a grid there, so a
base off the grid is a ChartError), tau's distances to both are one
`_box_distance` over `run_steps`, and the Morse-Bott rung's extent axes are
those whose margin-0 run is longer than one slab.  Steps: the strict guard
band's dilation and each descent step read node neighbours through `step`.
Components: `mask_roots`, split by root.

The flattening perturbation replaces f by rho(f) where rho vanishes
below delta/2 and is the identity above delta; the sublevel set
{f <= delta/2} becomes a codimension-0 thickening of C with the same
homotopy type, which the thickening verifier checks through Betti
numbers and discrete gradient descent.  `flatten_along_chart` applies
rho to f|_S; `flatten` is its full-chart case, where S is the whole
neighbourhood.  The regular-value check and the thickening's descent
work on the isolating box (and sigma) only, not on the grid; each
component's box is built once and kept by its `CriticalSet.box`, beside
the runs it was built from, which `construct_tau` reads.

The Hessian tests visit every stencil-valid node of C.  Every rung reads
a field's Hessians from one sampler, `_spectra`: it gathers them at those
nodes alone (`fields.hessian_at_nodes`), so its cost follows |C| rather
than the grid, takes their eigenpairs with one batched numpy.linalg.eigh
and each node's kernel threshold.  The flattened and minimally
degenerate rungs share one body that reads both verdicts off one sample
of f, and `classify` passes it the sample its Morse rungs read: one
`classify` samples f once, and `check_qmd` samples tau at most once.  A
`CriticalSet` keeps each component's last `check_qmd` certificate, so
`construct_tau` followed by `classify(tau=...)` or `check_qmd` on the tau
it returned certifies once.
`index_preserved` gathers only the off-chart blocks of both fields at the
same nodes.  The kernel tests are batched too: alignment
with the chart is one SVD over the stack of kernel vectors, and
transversality one matrix_rank per distinct kernel dimension.  The chart
terms of tau are broadcast from per-axis arrays, and the thickening's
descent walks advance together by pointer doubling.
`transverse_negative_index` shares `index_preserved`'s batched body;
`negative_index` is its point chart.

A full chart (every axis a chart axis) settles three checks by exact
facts, so they sample or scan nothing.  tau's Hessian kernel is
transverse to it at every node: the chart axes span R^n alone, so
[K | I] has singular values >= 1 whatever the kernel vectors K, and
`check_qmd` takes no Hessian of tau (also where C has no stencil-valid
node, where the per-node test passes vacuously).  The Hessian restricted
to its axes is the Hessian itself, so the minimally degenerate rung's PSD
test reads the spectra the sample already holds.  And C lies in it, so
`_require_contained` returns at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cubical import GridMask, betti_of_mask, box_mask, mask_roots, mask_runs, run_steps, step
# hessian_at and eig_sym are unused here but the benchmark tracer patches them by these names
from .fields import (ScalarField, eig_sym, gradient_at_nodes, gradient_magnitude,  # noqa: F401
                     hessian_at, hessian_at_nodes, norms, stencil_mask, stencil_node)


class NoCriticalPointsError(ValueError):
    pass


class ChartError(ValueError):
    pass


class RegularValueError(RuntimeError):
    """delta/2 could not be nudged onto a regular value."""


class DescentEscapeError(RuntimeError):
    """Steepest descent left the isolating box: the input is not isolated."""


class ConstructionError(RuntimeError):
    pass


BOX_MARGIN = 3      # cells added on each side of a component's bounding box
ANGLE_TOL = 1e-6    # radians, Hessian kernel vs chart alignment
MAX_NUDGES = 10     # 1% raises of delta tried before RegularValueError


@dataclass(frozen=True)
class Tolerances:
    grad_tol: float = 1e-6
    eig_tol: float = 1e-6       # relative: |lam| < eig_tol * max(1, spectral radius)
    value_tol: float = 1e-9


@dataclass(frozen=True)
class SubmanifoldChart:
    """Coordinate-aligned submanifold: off-chart coordinates pinned to base.

    axes may be empty: the chart degenerates to the single point `base`.
    """
    axes: Tuple[int, ...]
    base: Tuple[int, ...]

    def __post_init__(self):
        axes = tuple(sorted(int(a) for a in self.axes))
        base = tuple(int(b) for b in self.base)
        if len(set(axes)) != len(axes):
            raise ChartError("chart axes must be distinct")
        if any(a < 0 or a >= len(base) for a in axes):
            raise ChartError("chart axis outside the grid")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "base", base)

    @property
    def dim(self) -> int:
        return len(self.axes)

    def off_axes(self, ndim: int) -> Tuple[int, ...]:
        return tuple(a for a in range(ndim) if a not in self.axes)

    def runs(self, dims: Sequence[int]) -> List[Tuple[int, int]]:
        """Each axis's run of the chart's slice: the whole axis on a chart axis,
        the base's slab elsewhere.  ChartError unless base is a node of dims."""
        if len(self.base) != len(dims) or not all(0 <= b < n for b, n in zip(self.base, dims)):
            raise ChartError(f"chart base {self.base} lies outside the grid {tuple(dims)}")
        return [(0, n) if a in self.axes else (b, 1)
                for a, (b, n) in enumerate(zip(self.base, dims))]

    def slice_mask(self, dims: Sequence[int]) -> np.ndarray:
        # no run of a chart crosses the seam, so every axis reads as open
        return box_mask(dims, (False,) * len(dims), self.runs(dims))


@dataclass(frozen=True)
class CriticalSet:
    components: Tuple[GridMask, ...]
    grad_tol: float
    # per component, the runs of its isolating box and the box
    _boxes: Dict[int, tuple] = dc_field(default_factory=dict, init=False,
                                        repr=False, compare=False)
    # per component, the last (f, tau, chart, tols, strict, report) of check_qmd
    _certificates: Dict[int, tuple] = dc_field(default_factory=dict, init=False,
                                               repr=False, compare=False)

    def box(self, i: int) -> np.ndarray:
        """Component i's isolating box, built on first use and kept (read-only)."""
        return self._box(i)[1]

    def box_runs(self, i: int) -> List[Tuple[int, int]]:
        """Each axis's run (start, length) of component i's isolating box,
        kept with the box."""
        return self._box(i)[0]

    def _box(self, i: int) -> tuple:
        if i not in self._boxes:
            comp = self.components[i]
            runs = _box_runs(comp)
            box = box_mask(comp.dims, comp.periodic, runs)
            box.flags.writeable = False
            self._boxes[i] = runs, box
        return self._boxes[i]

    def component_nodes(self, i: int) -> List[Tuple[int, ...]]:
        return [tuple(int(v) for v in idx)
                for idx in np.argwhere(self.components[i].cells)]


@dataclass
class DegeneracyReport:
    classification: str
    details: Dict[str, bool] = dc_field(default_factory=dict)
    hessian_spectra: List[List[float]] = dc_field(default_factory=list)
    negative_index: Optional[int] = None
    sampled_nodes: List[Tuple[int, ...]] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.classification != "unclassified"

    def _copy(self) -> "DegeneracyReport":
        """A copy that shares no mutable container with this report."""
        return DegeneracyReport(self.classification, dict(self.details),
                                [list(s) for s in self.hessian_spectra],
                                self.negative_index, list(self.sampled_nodes))

    def to_json(self) -> dict:
        return {
            "classification": self.classification,
            "details": {k: bool(v) for k, v in sorted(self.details.items())},
            "hessian_spectra": [[float(x) for x in spec] for spec in self.hessian_spectra],
            "negative_index": self.negative_index,
            "sampled_nodes": [list(n) for n in self.sampled_nodes],
        }


# -- detection ---------------------------------------------------------


def critical_node_mask(f: ScalarField, grad_tol: float) -> np.ndarray:
    """Stencil-valid nodes with |grad f| < grad_tol."""
    if grad_tol <= 0:
        raise ValueError("grad_tol must be positive")
    mag, valid = gradient_magnitude(f)
    return (mag < grad_tol) & valid


def connected_components(mask: np.ndarray, periodic: Sequence[bool]) -> List[np.ndarray]:
    """Components of `mask` under axis adjacency (wrapping on periodic axes),
    each a boolean array, ordered by their least flat index: the
    ``cubical.mask_roots`` of the mask, split by root."""
    parent = mask_roots(mask, periodic)
    nodes = np.flatnonzero(mask)
    nodes = nodes[np.argsort(parent[nodes], kind="stable")]
    _, starts = np.unique(parent[nodes], return_index=True)
    comps = []
    for lo, hi in zip(starts, list(starts[1:]) + [len(nodes)]):
        comp = np.zeros(mask.size, dtype=bool)
        comp[nodes[lo:hi]] = True
        comps.append(comp.reshape(mask.shape))
    return comps


def detect_critical_set(f: ScalarField, grad_tol: float) -> CriticalSet:
    mask = critical_node_mask(f, grad_tol)
    if not mask.any():
        raise NoCriticalPointsError("no nodes below the gradient threshold")
    comps = connected_components(mask, f.periodic)
    return CriticalSet(tuple(GridMask(f.dims, f.periodic, c) for c in comps),
                       float(grad_tol))


def _box_runs(component: GridMask) -> List[Tuple[int, int]]:
    """Each axis's run (start, length) of the component's isolating box: its
    ``cubical.mask_runs`` widened by BOX_MARGIN cells."""
    if not component.cells.any():
        raise ValueError("empty component")
    return mask_runs(component, BOX_MARGIN)


def isolating_box(component: GridMask) -> np.ndarray:
    """Bounding box of a component inflated by BOX_MARGIN cells, as a node
    mask: the ``cubical.box_mask`` of its ``_box_runs``."""
    return box_mask(component.dims, component.periodic, _box_runs(component))


# -- Hessian sampling helpers -------------------------------------------


def default_hessian_floor(f: ScalarField) -> float:
    """Central second differences carry O(h^2) truncation error (2*h^2
    exactly for a flat quartic), so eigenvalues below 4 h_max^2 are
    indistinguishable from zero regardless of the matrix's own scale."""
    return 4.0 * max(f.spacing) ** 2


def _kernel_threshold(w: np.ndarray, eig_tol: float, floor: float):
    """Kernel threshold of a spectrum w, or one per row of a stack of spectra."""
    radius = np.abs(w).max(axis=-1, initial=0.0)
    return np.maximum(eig_tol * np.maximum(1.0, radius), floor)


def _spectra(g: ScalarField, comp: GridMask, eig_tol: float):
    """The Hessian sample of g on a component, (nodes, H, w, V, thresh):
    the stencil-valid nodes in argwhere order, the (n, d, d) Hessians
    gathered at them alone, their eigenpairs from one batched
    np.linalg.eigh, and each node's kernel threshold."""
    nodes = np.argwhere(comp.cells & stencil_mask(g))
    H = hessian_at_nodes(g, nodes)
    w, V = np.linalg.eigh(H)
    return (list(map(tuple, nodes.tolist())), H, w, V,
            _kernel_threshold(w, eig_tol, default_hessian_floor(g)))


def negative_index(f: ScalarField, node: Sequence[int], eig_tol: float) -> int:
    """The transverse index at the point chart, whose off-axes are every axis."""
    return transverse_negative_index(f, node, SubmanifoldChart((), node), eig_tol)


def transverse_negative_index(f: ScalarField, node: Sequence[int],
                              chart: SubmanifoldChart, eig_tol: float) -> int:
    nodes = stencil_node(f, node)
    off = list(chart.off_axes(f.ndim))
    if not off:
        return 0
    return int(_transverse_indices(f, nodes, off, eig_tol)[0])


def _transverse_indices(g: ScalarField, nodes: np.ndarray, off: List[int],
                        eig_tol: float) -> np.ndarray:
    """Negative eigenvalues of g's Hessian block on the off-axes at each
    stencil-valid node, from one gather and one batched np.linalg.eigh."""
    w = np.linalg.eigh(hessian_at_nodes(g, nodes)[:, off][:, :, off])[0]
    return np.sum(w < -_kernel_threshold(w, eig_tol, default_hessian_floor(g))[:, None], axis=1)


def index_preserved(f: ScalarField, f_check: ScalarField, crit: CriticalSet,
                    chart: SubmanifoldChart, eig_tol: float = 1e-6,
                    component: int = 0) -> bool:
    """Transverse negative index identical before/after the perturbation,
    at every stencil-valid node of the component."""
    f.require_same_grid(f_check)
    off = list(chart.off_axes(f.ndim))
    if not off:
        return True
    nodes = np.argwhere(crit.components[component].cells & stencil_mask(f))
    return bool(np.array_equal(_transverse_indices(f, nodes, off, eig_tol),
                               _transverse_indices(f_check, nodes, off, eig_tol)))


# -- degeneracy checkers -------------------------------------------------


def _dilate(cells: np.ndarray, periodic: Sequence[bool]) -> np.ndarray:
    """Nodes within one one-axis ``cubical.step`` of `cells`."""
    out = cells.copy()
    flat = np.flatnonzero(cells)
    for a in range(cells.ndim):
        for sign in (-1, 1):
            out.reshape(-1)[step(cells.shape, periodic, flat, a, sign)] = True
    return out


def _check_minimum_on_slice(f: ScalarField, comp: GridMask, chart: SubmanifoldChart,
                            box: np.ndarray, tols: Tolerances, strict: bool) -> bool:
    """f restricted to the chart slice attains its minimum on C (within tolerance).

    In strict mode, slice nodes farther than 2 cells from C must exceed
    the minimum by more than value_tol (guard band against grid noise).
    """
    slice_mask = chart.slice_mask(f.dims) & box
    comp_vals = f.values[comp.cells]
    fmin = float(comp_vals.min())
    on_c_flat = bool((comp_vals <= fmin + tols.value_tol).all())
    others = slice_mask & ~comp.cells
    no_lower = True
    if others.any():
        no_lower = bool((f.values[others] >= fmin - tols.value_tol).all())
    cond = on_c_flat and no_lower
    if strict and cond:
        far = others & ~_dilate(_dilate(comp.cells, comp.periodic), comp.periodic)
        if far.any():
            cond = bool((f.values[far] > fmin + tols.value_tol).all())
    return cond


def _require_contained(comp: GridMask, chart: SubmanifoldChart):
    chart.runs(comp.dims)   # ChartError unless the base is a node of the grid
    off = list(chart.off_axes(len(comp.dims)))
    if not off:
        return
    nodes = np.argwhere(comp.cells)
    outside = (nodes[:, off] != np.array(chart.base, dtype=int)[off]).any(axis=1)
    if outside.any():
        node = tuple(int(v) for v in nodes[outside.argmax()])
        raise ChartError(f"critical component leaves the chart at node {node}")


def _kernel_vectors(kernel: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Rows of an (n, k, d) stack: node i's k kernel eigenvectors, in
    eigenvalue order, for nodes that all have the same kernel dimension k."""
    rows, cols = np.nonzero(kernel)
    return V[rows, :, cols].reshape(len(kernel), -1, V.shape[-1])


def _kernel_spans_axes(kernel: np.ndarray, V: np.ndarray, axes: Sequence[int]) -> bool:
    """At every node (row of `kernel`, selecting eigenvectors in V), the
    Hessian kernel has dimension len(axes) and lies along those axes: the
    smallest cosine of the principal angles between the two spans, read
    off one batched SVD, is within ANGLE_TOL of 1."""
    if not (kernel.sum(axis=1) == len(axes)).all():
        return False
    if not axes or not len(kernel):
        return True
    K = _kernel_vectors(kernel, V)
    sv = np.linalg.svd(K[:, :, list(axes)], compute_uv=False)
    return bool((np.arccos(np.clip(sv[:, -1], -1.0, 1.0)) <= ANGLE_TOL).all())


def _kernel_transverse(kernel: np.ndarray, V: np.ndarray, axes: Sequence[int]) -> bool:
    """At every node, the Hessian kernel and the chart axes together span
    the ambient space: [kernel vectors | chart axes] has full rank, tested
    with one batched matrix_rank per distinct kernel dimension."""
    ndim = V.shape[-1]
    dims = kernel.sum(axis=1)
    for k in map(int, np.unique(dims)):
        sel = dims == k
        span = np.zeros((int(sel.sum()), ndim, k + len(axes)))
        span[:, :, :k] = _kernel_vectors(kernel[sel], V[sel]).transpose(0, 2, 1)
        span[:, np.array(axes, dtype=int), np.arange(k, k + len(axes))] = 1.0
        if not (np.linalg.matrix_rank(span, tol=1e-8) == ndim).all():
            return False
    return True


def _chart_rungs(f: ScalarField, crit: CriticalSet, chart: SubmanifoldChart,
                 tols: Tolerances, strict: bool, component: int, sample: tuple
                 ) -> Tuple[DegeneracyReport, DegeneracyReport]:
    """The flattened and the minimally degenerate report of one component,
    both read off one `_spectra` sample of f on C."""
    comp = crit.components[component]
    _require_contained(comp, chart)
    cond_min = _check_minimum_on_slice(f, comp, chart, crit.box(component),
                                       tols, strict)
    nodes, H, w, V, thresh = sample
    n_neg = np.sum(w < -thresh[:, None], axis=1)
    axes = list(chart.axes)
    psd_ok = True
    if axes:
        # on the full chart the restricted Hessians are H itself, with spectra w
        full = chart.axes == tuple(range(f.ndim))
        w_chart = w if full else np.linalg.eigh(H[:, axes][:, :, axes])[0]
        psd_ok = not bool(np.any(w_chart.min(axis=1) < -thresh))

    def report(label: str, **checks: bool) -> DegeneracyReport:
        details = {"restricted_minimum_on_c": cond_min, **checks}
        passed = all(details.values()) and bool(nodes)
        return DegeneracyReport(label if passed else "unclassified", details,
                                w.tolist(), sampled_nodes=nodes)

    flat = report("flattened_degenerate", hessian_kernel_equals_chart=_kernel_spans_axes(
        np.abs(w) < thresh[:, None], V, chart.axes))
    mindeg = report("minimally_degenerate", hessian_psd_on_chart=psd_ok,
                    chart_dimension_maximal=bool(np.all(chart.dim == f.ndim - n_neg)))
    if len(set(n_neg.tolist())) == 1:
        mindeg.negative_index = int(n_neg[0])
    return flat, mindeg


def check_flattened_degenerate(f: ScalarField, crit: CriticalSet,
                               chart: SubmanifoldChart, tols: Tolerances,
                               strict: bool = False, component: int = 0) -> DegeneracyReport:
    """f|_S minimal along C and ker Hess_x f = T_x S at sampled x in C."""
    return _chart_rungs(f, crit, chart, tols, strict, component,
                        _spectra(f, crit.components[component], tols.eig_tol))[0]


def check_minimally_degenerate(f: ScalarField, crit: CriticalSet,
                               chart: SubmanifoldChart, tols: Tolerances,
                               strict: bool = False, component: int = 0) -> DegeneracyReport:
    """f|_S minimal along C; T_x S maximal among Hessian-nonnegative subspaces.

    Maximality is tested as: Hess restricted to the chart axes has no
    eigenvalue below -tol, and dim S equals the ambient dimension minus
    the number of negative Hessian eigenvalues at every sampled node.
    """
    return _chart_rungs(f, crit, chart, tols, strict, component,
                        _spectra(f, crit.components[component], tols.eig_tol))[1]


def check_qmd(f: ScalarField, tau: ScalarField, crit: CriticalSet,
              chart: SubmanifoldChart, tols: Tolerances,
              strict: bool = False, component: int = 0) -> DegeneracyReport:
    """tau >= 0 vanishing exactly on C, kernel transversality, f - tau
    flattened, each a report detail; ChartError if C leaves the chart.
    Transversality to a full chart holds without sampling tau.

    `crit` keeps each component's last result: a call with the very same
    f and tau objects (by identity, not field equality) and an equal
    chart, tols and strict returns a fresh copy of it without checking
    again.  The fields' values are read-only and the entry holds them, so
    identity settles that nothing changed.  A call that raises keeps
    nothing."""
    kept = crit._certificates.get(component)
    if not (kept and kept[0] is f and kept[1] is tau
            and kept[2:5] == (chart, tols, strict)):
        kept = (f, tau, chart, tols, strict,
                _certify_qmd(f, tau, crit, chart, tols, strict, component))
        crit._certificates[component] = kept
    return kept[5]._copy()


def _certify_qmd(f: ScalarField, tau: ScalarField, crit: CriticalSet,
                 chart: SubmanifoldChart, tols: Tolerances, strict: bool,
                 component: int) -> DegeneracyReport:
    """The body of `check_qmd`, run on every call it has not kept."""
    f.require_same_grid(tau)
    comp = crit.components[component]
    report = DegeneracyReport("unclassified")
    report.details["tau_nonnegative"] = float(tau.values.min()) >= -tols.value_tol

    # the zero set is compared on stencil-valid nodes only, consistent with
    # the boundary policy used by detection
    valid = stencil_mask(f)
    zero_set = (np.abs(tau.values) <= tols.value_tol) & valid
    report.details["tau_zero_set_equals_c"] = bool(
        np.array_equal(zero_set, comp.cells & valid))

    # the full chart's axes span R^n alone: [K | I] has singular values >= 1
    transverse = chart.axes == tuple(range(f.ndim))
    if not transverse:
        _, _, w, V, thresh = _spectra(tau, comp, tols.eig_tol)
        transverse = _kernel_transverse(np.abs(w) < thresh[:, None], V, chart.axes)
    report.details["tau_kernel_transverse_to_chart"] = transverse

    flat = check_flattened_degenerate(f.sub(tau), crit, chart, tols,
                                      strict=strict, component=component)
    report.details["difference_flattened_degenerate"] = flat.passed
    report.hessian_spectra = flat.hessian_spectra
    report.sampled_nodes = flat.sampled_nodes

    if all(report.details.values()) and report.sampled_nodes:
        report.classification = "qmd"
    return report


# -- tau construction ------------------------------------------------------


def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def _box_distance(f: ScalarField, runs: Sequence[Tuple[int, int]]) -> np.ndarray:
    """Physical distance from each node of f's grid to the box of `runs` (0
    inside), from each axis's ``run_steps``: the squares are summed in axis
    order, broadcast, and a whole-axis run adds nothing, so only the last
    sum and the root can be full-grid passes."""
    square_sum = np.zeros((1,) * f.ndim)
    for a, (n, run) in enumerate(zip(f.dims, runs)):
        if run[1] < n:
            steps = run_steps(n, f.periodic[a], run) * f.spacing[a]
            square_sum = square_sum + (steps ** 2).reshape((n,) + (1,) * (f.ndim - 1 - a))
    return np.sqrt(square_sum)


def _chart_terms(f: ScalarField, chart: SubmanifoldChart) -> Tuple[np.ndarray, np.ndarray]:
    """r^4 and f o project_S at every node, r the distance to the chart's
    `runs` and project_S f on them: broadcast views over the grid.  r^4 is
    taken on Python floats, as the per-node formula takes it (numpy's
    vectorized pow may round differently)."""
    runs = chart.runs(f.dims)
    r = _box_distance(f, runs)
    r4 = np.array([x ** 4 for x in r.ravel().tolist()]).reshape(r.shape)
    proj = f.values[tuple(slice(start, start + length) for start, length in runs)]
    return np.broadcast_to(r4, f.dims), np.broadcast_to(proj, f.dims)


def construct_tau(f: ScalarField, crit: CriticalSet, chart: SubmanifoldChart,
                  tols: Tolerances, component: int = 0) -> ScalarField:
    """Auxiliary tau = dist(x, S)^4 + (f o project_S - min_C f) near C.

    Away from the isolating box the data term is faded out by a
    smoothstep and a quartic box-distance guard keeps tau positive, so
    the zero set stays exactly C on the full grid.

    The output is returned only if `check_qmd`, the definition of a
    compliant tau, passes it; else ConstructionError names the failing
    conditions, and check_qmd's ChartError propagates if C leaves the
    chart.  Minimal degeneracy guarantees a pass but is not checked first.
    """
    comp = crit.components[component]
    fmin = float(f.values[comp.cells].min())

    r4, proj_vals = _chart_terms(f, chart)
    d_box = _box_distance(f, crit.box_runs(component))
    ramp_width = 2.0 * BOX_MARGIN * float(np.mean(f.spacing))
    ramp = 1.0 - _smoothstep(d_box / ramp_width)
    tau_vals = r4 + ramp * (proj_vals - fmin) + d_box ** 4
    tau = f.with_values(tau_vals)

    post = check_qmd(f, tau, crit, chart, tols, component=component)
    if not post.passed:
        failing = [k for k, v in post.details.items() if not v]
        raise ConstructionError(f"constructed tau violates: {failing}")
    return tau


# -- flattening -------------------------------------------------------------


@dataclass(frozen=True)
class RhoProfile:
    """Flattening profile: 0 below delta/2, identity above delta.

    On the transition band the derivative ramps 0 -> plateau -> 1 with a
    quintic-smoothstep rise of relative width `w`; the plateau height
    (2 - w/2)/(1 - w) makes the profile meet the identity exactly at
    delta.  For w = 0.2 the derivative peaks at 2.375, safely inside the
    required (0, 3) band, and the profile is twice differentiable.
    """
    delta: float
    w: ClassVar[float] = 0.2

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")

    @property
    def plateau(self) -> float:
        return (2.0 - self.w / 2.0) / (1.0 - self.w)

    def _p(self, u: np.ndarray) -> np.ndarray:
        """Derivative profile on the unit transition coordinate."""
        M, w = self.plateau, self.w
        u = np.asarray(u, dtype=float)
        out = np.full(u.shape, M)
        rise = u < w
        fall = u > 1.0 - w
        out = np.where(rise, M * _smoothstep(u / w), out)
        out = np.where(fall, 1.0 + (M - 1.0) * _smoothstep((1.0 - u) / w), out)
        return out

    def _P(self, u: np.ndarray) -> np.ndarray:
        """Antiderivative of _p with P(0) = 0 (piecewise closed form)."""
        M, w = self.plateau, self.w

        def s5_int(x):
            return x ** 4 * (x * (x - 3.0) + 2.5)

        u = np.asarray(u, dtype=float)
        out = np.empty(u.shape)
        rise = u < w
        fall = u > 1.0 - w
        mid = ~(rise | fall)
        out[rise] = M * w * s5_int(np.clip(u[rise] / w, 0.0, 1.0))
        out[mid] = M * w * 0.5 + M * (u[mid] - w)
        uf = u[fall]
        out[fall] = (M * w * 0.5 + M * (1.0 - 2.0 * w)
                     + (uf - (1.0 - w))
                     + (M - 1.0) * w * (0.5 - s5_int(np.clip((1.0 - uf) / w, 0.0, 1.0))))
        return out

    def __call__(self, x) -> np.ndarray:
        """0 at x <= delta/2, x at x >= delta; `_P` runs on the band between
        (and on NaN) only."""
        x = np.asarray(x, dtype=float)
        half = self.delta / 2.0
        out = np.where(x >= self.delta, x, 0.0)
        band = ~((x <= half) | (x >= self.delta))
        if band.any():
            u = np.clip(2.0 * x[band] / self.delta - 1.0, 0.0, 1.0)
            out[band] = half * self._P(u)
        return out

    def deriv(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        half = self.delta / 2.0
        u = np.clip(2.0 * x / self.delta - 1.0, 0.0, 1.0)
        return np.where(x <= half, 0.0, np.where(x >= self.delta, 1.0, self._p(u)))


def build_rho(delta: float) -> RhoProfile:
    return RhoProfile(float(delta))


@dataclass(frozen=True)
class FlattenResult:
    f_check: ScalarField
    sigma: GridMask
    delta_used: float


def _regular_delta(g: ScalarField, region: np.ndarray, delta: float,
                   grad_tol: float, value_tol: float) -> float:
    """delta, scanned upward in 1% steps (at most MAX_NUDGES) until delta/2
    is a regular level of g on `region`: no stencil-valid node of the
    region within (locally) one cell of the level has |grad g| <= grad_tol.
    |grad g| is gathered at those nodes alone."""
    nodes = region & stencil_mask(g)
    mag = norms(gradient_at_nodes(g, np.argwhere(nodes)))
    values = g.values[nodes]
    hmax = max(g.spacing)
    d = float(delta)
    for _ in range(MAX_NUDGES + 1):
        band = np.abs(values - d / 2.0) <= mag * hmax + value_tol
        if not band.any() or float(mag[band].min()) > grad_tol:
            return d
        d *= 1.01
    raise RegularValueError("could not nudge delta/2 onto a regular value")


def flatten(f: ScalarField, delta: float, crit: CriticalSet, tols: Tolerances,
            component: int = 0) -> FlattenResult:
    """Apply rho(f) and return the thickening sigma = {f <= delta/2} in the box.

    This is `flatten_along_chart` on the full chart: S is the whole
    neighbourhood, r = 0 and the output is rho(f).  Requires f >= 0 near C
    with minimum 0 on C (shift first).
    """
    full = SubmanifoldChart(tuple(range(f.ndim)), (0,) * f.ndim)
    return flatten_along_chart(f, delta, crit, full, tols, component)


def flatten_along_chart(f: ScalarField, delta: float, crit: CriticalSet,
                        chart: SubmanifoldChart, tols: Tolerances,
                        component: int = 0) -> FlattenResult:
    """Flatten the restriction of f to a chart.

    The restriction f|_S is replaced by rho(f|_S); sigma is its sublevel
    set {f|_S <= delta/2} inside the chart slice and the isolating box.
    If the level delta/2 fails the regular-value check (some node on the
    level band has |grad f|_S| <= grad_tol), delta is scanned upward in 1%
    steps, MAX_NUDGES at most; the check gathers |grad f|_S| at the
    stencil-valid nodes of the box's slice only.  The ambient output
    covers the grid (rho's transition polynomial runs on its band only)
    and extends the flattened restriction by the radial weight
    (1 + r^4) with r the distance to the chart, so it agrees with
    rho(f|_S) on the slice.
    The weight cannot remove fiber criticality over sigma's interior
    (the restricted profile is flat there), so the critical set of the
    extension is the fiber slab over sigma, which carries the same
    homotopy type.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    comp = crit.components[component]
    _require_contained(comp, chart)
    box = crit.box(component)
    slice_mask = chart.slice_mask(f.dims)
    if float(np.abs(f.values[comp.cells]).max()) > tols.value_tol:
        raise ValueError("f must vanish on C (shift by the critical value first)")
    if float(f.values[slice_mask & box].min()) < -tols.value_tol:
        raise ValueError("f must be nonnegative on the chart slice near C")

    r4, proj_vals = _chart_terms(f, chart)
    d = _regular_delta(f.with_values(proj_vals), box & slice_mask, delta,
                       crit.grad_tol, tols.value_tol)
    rho = build_rho(d)
    f_check = f.with_values((1.0 + r4) * rho(proj_vals))
    sigma = GridMask(f.dims, f.periodic,
                     (proj_vals <= d / 2.0) & slice_mask & box & stencil_mask(f))
    return FlattenResult(f_check, sigma, d)


@dataclass
class ThickeningReport:
    betti_c: Tuple[int, ...]
    betti_sigma: Tuple[int, ...]
    betti_match: bool
    descent_reached_c: bool
    passed: bool
    failures: List[Tuple[int, ...]] = dc_field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "betti_c": list(self.betti_c),
            "betti_sigma": list(self.betti_sigma),
            "betti_match": self.betti_match,
            "descent_reached_c": self.descent_reached_c,
            "passed": self.passed,
            "failures": [list(n) for n in self.failures],
        }


def _steepest_neighbour(f: ScalarField, flat: np.ndarray) -> np.ndarray:
    """Flat index of the steepest-descent step of each node in `flat` (flat
    indices): its lowest ``cubical.step`` if that lies strictly below it
    (on ties the first such in the order axis 0 down, axis 0 up, axis 1
    down, ...), else the node itself.  Past the end of an open axis the step
    stays on the node, which is never lower."""
    v = f.values.ravel()
    best, best_val = flat.copy(), v[flat]
    for a in range(f.ndim):
        for sign in (-1, 1):
            nb = step(f.dims, f.periodic, flat, a, sign)
            nb_val = v[nb]
            lower = nb_val < best_val
            best = np.where(lower, nb, best)
            best_val = np.where(lower, nb_val, best_val)
    return best


def verify_thickening(f: ScalarField, crit: CriticalSet, sigma: GridMask,
                      tols: Tolerances, component: int = 0) -> ThickeningReport:
    """Betti equality of C and sigma, plus descent from sigma back into C
    (each walk at most 4 * sum(dims) steps).

    All walks advance together by pointer doubling over the steepest-step
    array, with a flag for a step that leaves the isolating box carried
    along each doubled jump; the first start in argwhere order whose walk
    leaves the box raises DescentEscapeError.  A walk that has not left
    the box stays in box | sigma, so the steps and the doubling run over
    those nodes only; a step out of the box is flagged and then held in
    place, since the walk has escaped whatever it does next.  `tols` is
    unused.
    """
    comp = crit.components[component]
    if not (comp.cells <= sigma.cells).all():
        raise ValueError("C must be contained in sigma")
    box = crit.box(component)
    b_c = betti_of_mask(comp)
    b_s = betti_of_mask(sigma)
    betti_match = b_c == b_s

    nodes = np.flatnonzero(box | sigma.cells)
    down = _steepest_neighbour(f, nodes)
    leaves = (down != nodes) & ~box.ravel()[down]
    # nodes is sorted, and every step that stays in the box lands in it
    jump = np.where(leaves, np.arange(len(nodes)), np.searchsorted(nodes, down))
    starts = np.argwhere(sigma.cells)
    pos = np.searchsorted(nodes, np.ravel_multi_index(tuple(starts.T), f.dims))
    escaped = np.zeros(len(pos), dtype=bool)
    budget = 4 * sum(f.dims)
    while budget:
        if budget & 1:
            escaped |= leaves[pos]
            pos = jump[pos]
        budget >>= 1
        if budget:
            leaves = leaves | leaves[jump]
            jump = jump[jump]
    if escaped.any():
        start = tuple(starts[escaped.argmax()].tolist())
        raise DescentEscapeError(f"descent from {start} left the box")
    failures = list(map(tuple, starts[~comp.cells.ravel()[nodes[pos]]].tolist()))
    descent_ok = not failures
    return ThickeningReport(b_c, b_s, betti_match, descent_ok,
                            betti_match and descent_ok, failures)


# -- classification ladder ---------------------------------------------------


def _component_extent_axes(comp: GridMask) -> Tuple[int, ...]:
    """The axes on which the component spans more than one slab: those whose
    ``cubical.mask_runs`` run (margin 0) is longer than one."""
    return tuple(a for a, (_, length) in enumerate(mask_runs(comp, 0)) if length > 1)


def classify(f: ScalarField, crit: CriticalSet, chart: Optional[SubmanifoldChart] = None,
             tau: Optional[ScalarField] = None, tols: Tolerances = Tolerances(),
             strict: bool = False, component: int = 0) -> DegeneracyReport:
    """Run the degeneracy ladder and report the finest classification."""
    comp = crit.components[component]
    sample = _spectra(f, comp, tols.eig_tol)
    nodes, _, w, V, thresh = sample
    kernel = np.abs(w) < thresh[:, None]
    report = DegeneracyReport("unclassified")

    morse_ok = bool(nodes) and comp.count() == 1 and not kernel.any()
    f_on_c = f.values[comp.cells]
    bott_ok = (bool(nodes)
               and float(f_on_c.max() - f_on_c.min()) <= tols.value_tol
               and _kernel_spans_axes(kernel, V, _component_extent_axes(comp)))
    report.hessian_spectra = w.tolist()
    report.sampled_nodes = nodes
    report.details["morse"] = morse_ok
    report.details["morse_bott"] = bott_ok

    flat_ok = mindeg_ok = qmd_ok = False
    if chart is not None:
        try:
            flat, mindeg = _chart_rungs(f, crit, chart, tols, strict, component,
                                        sample)
            flat_ok, mindeg_ok = flat.passed, mindeg.passed
            report.negative_index = mindeg.negative_index
        except ChartError:
            pass
        if tau is not None:
            try:
                qmd_ok = check_qmd(f, tau, crit, chart, tols, strict,
                                   component).passed
            except ChartError:
                pass
    report.details.update(flattened_degenerate=flat_ok, minimally_degenerate=mindeg_ok,
                          qmd=qmd_ok)
    # details holds the rungs in ladder order: the first that passes is the finest
    report.classification = next((rung for rung, ok in report.details.items() if ok),
                                 "unclassified")
    return report
