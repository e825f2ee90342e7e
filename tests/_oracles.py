"""Independent oracles used by the test suite.

Ranks come from a naive list-of-lists elimination, eigenvalues from
bisection on a Sturm chain of leading principal minors, and homology from
the naive rank; these avoid the package's own linear algebra.  Random
filtered complexes are assembled from elementary pieces with known
homology and scrambled by a filtration-respecting change of basis.

``oracle_page`` computes spectral-sequence pages by the cycle/boundary
formula, with the subspace sums, quotients and row solves of
``qmdkit.gf2``'s ``Subspace`` stack; its pages hold each d_k as a
``GF2Matrix`` in the basis of the chosen class representatives.  The
production ``qmdkit.specseq.page`` reads pages off a persistence pairing
and holds d_k as generator pairs; ``differential_ranks`` counts those
pairs, ``oracle_differential_ranks`` takes the matrices' ranks, and
``page_dims_via_differential`` predicts E^{k+1}'s dimensions from page k's pairs.
``oracle_differential`` is d_n of a ``FilteredComplex`` as a dense
``GF2Matrix``, which the complex itself no longer builds.

``oracle_validate`` is the filtration and d^2 = 0 checks of ``FilteredComplex``
construction as they were before it counted boundary-of-boundary names:
d^2 = 0 by dense ``GF2Matrix`` products, on raw (generators, boundary) data.
``random_shifted_sum`` and ``random_raw_complex`` draw such raw data with
negative degrees and degree gaps, with and without d^2 = 0, for the
cross-checks of construction, ``homology_dims`` and the stored pairing.

``oracle_build_complex`` is the tuple-cell closure with dense ``GF2Matrix``
boundaries that ``qmdkit.cubical`` used before its doubled-grid engine:
cells are (anchor, extent) pairs and ``oracle_betti`` takes dense ranks.
``oracle_doubled_grid_complex`` is ``qmdkit.cubical.build_complex`` before its
passes per cell type, with per-cell index arithmetic over the whole doubled
grid of the mask it is given and no crop, every face array built at once: on
``crop(mask)``, the exact reference for the arrays the builder returns, in the
same padded frame.
``validate_boundary`` checks d^2 = 0 on a ``CubicalComplex``'s face arrays.
``oracle_reduction_betti`` is ``qmdkit.cubical.betti`` before it read the
bottom rank off a union-find and the top rank off the fundamental class:
every boundary reduced with ``reduce_faces`` from the top down, with
clearing by the full pivots of the boundary above.

``oracle_classify``, the ``oracle_check_*`` checkers, ``oracle_index_preserved``,
``oracle_transverse_negative_index``, ``oracle_construct_tau``,
``oracle_flatten_along_chart`` and ``oracle_isolation_scan`` are the
morse/graphlag code before the Hessian was taken in one pass per field: one
``hessian_at`` and ``eig_sym`` per node, the chart terms from a per-node loop
and one ``flow_translate`` per scan step.
``oracle_flatten`` is the full-grid flattening body that ``qmdkit.morse.flatten``
had before it became ``flatten_along_chart`` on the full chart, with its own
whole-grid nudge loop; both flattening oracles apply ``oracle_rho``, the
whole-array ``RhoProfile.__call__`` that evaluated the transition profile at
every node, not on its band only.  ``oracle_isolation_scan`` takes a whole-grid
gradient per step, with no filter.
``_principal_alignment``, ``oracle_kernel_spans_axes`` and
``oracle_kernel_transverse`` are the per-node kernel tests (one SVD or one
``matrix_rank`` per node) that the checkers ran before they were batched.

``oracle_hessian_at_nodes`` and ``oracle_gradient_at_nodes`` are the node
gathers of ``qmdkit.fields`` before they read the values by flat index: one
((nodes + offset) % dims) coordinate gather per stencil offset.
``hessian`` is the whole-grid Hessian that ``qmdkit.fields`` exported before
only the tests read it: ``hessian_at_nodes`` at every stencil-valid node.
``oracle_gradient`` and ``oracle_norms`` are the whole-grid calculus of
``qmdkit.fields`` before each axis's difference became its own contiguous
array: every axis from two np.roll-shifted copies of the values, written into
a strided dims + (d,) array and zeroed off the stencil mask, and norms as
``(v ** 2).sum(axis=-1)``.  ``oracle_gradient_magnitude``,
``oracle_default_grad_tol`` and ``oracle_c1_distance`` are the formulas that
read them; the flattening oracles take their |grad f| from them too.

``oracle_connected_components`` is the depth-first labelling that
``qmdkit.morse.connected_components`` ran before its union-find, and
``oracle_axis_interval`` the per-index loop over a periodic axis that the
isolating box ran before ``qmdkit.cubical.axis_interval`` made it numpy passes.

``oracle_verify_thickening`` is ``verify_thickening`` with one Python
``_steepest_descent`` walk per sigma node, and
``oracle_grid_distance_to_component`` the BFS distance that strict mode read
before it became two one-step dilations of C.

``oracle_crossings``, ``oracle_continuous_lift`` and ``oracle_maslov`` are the
Maslov crossing search and angle lift with one Python step per breakpoint, as
``qmdkit.maslov`` had them before they became numpy passes (the crossing search
with today's rule that a segment whose two ends lie within tol of one integer
signs its breakpoints 0), and
``oracle_refine`` and ``oracle_concat`` the path subdivision and concatenation
loops over tuples of floats from before a path held its breakpoints as arrays.

``oracle_dumps`` is ``qmdkit.cli._dumps`` before it wrote its JSON in one pass:
``json.dumps`` with an indent, which runs the json module's pure-Python encoder.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from qmdkit.cubical import CubicalComplex, EmptyMaskError, GridMask, betti_of_mask
from qmdkit.fields import ScalarField, eig_sym, hessian_at, hessian_at_nodes, stencil_mask
from qmdkit.gf2 import (GF2Matrix, Subspace, quotient_dim, reduce_faces,
                        solve_row_combination, subspace_sum)
from qmdkit.graphlag import GraphSection, IsolationReport, flow_translate
from qmdkit.maslov import (CrossingRecord, LagrangianLinePath,
                           NonRegularCrossingError, PathError, _values_at)
from qmdkit.morse import (ANGLE_TOL, BOX_MARGIN, MAX_NUDGES, ChartError,
                          ConstructionError, CriticalSet, DegeneracyReport,
                          DescentEscapeError, FlattenResult, RegularValueError,
                          RhoProfile, SubmanifoldChart, ThickeningReport,
                          Tolerances, _check_minimum_on_slice,
                          _kernel_threshold, _require_contained, _smoothstep,
                          critical_node_mask, default_hessian_floor,
                          isolating_box)
from qmdkit.specseq import BoundaryError, FilteredComplex, FiltrationError, Generator, Page


def naive_gf2_rank(rows) -> int:
    """Text-book Gaussian elimination over GF(2) on python lists."""
    mat = [list(int(x) % 2 for x in row) for row in rows]
    if not mat:
        return 0
    n_cols = len(mat[0])
    rank = 0
    for col in range(n_cols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                mat[r] = [(a ^ b) for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _count_eigs_below(A: np.ndarray, x: float) -> int:
    """Sign changes in the Sturm chain of leading principal minors of A - xI."""
    n = A.shape[0]
    for jitter in (0.0, 1e-12, -1e-12, 1e-11, -1e-11):
        B = A - (x + jitter) * np.eye(n)
        seq = [1.0]
        ok = True
        for k in range(1, n + 1):
            d = float(np.linalg.det(B[:k, :k]))
            if d == 0.0:
                ok = False
                break
            seq.append(d)
        if ok:
            changes = sum(1 for a, b in zip(seq, seq[1:]) if (a > 0) != (b > 0))
            return changes
    raise RuntimeError("could not find a regular shift for the Sturm chain")


def sturm_eigenvalues(A: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """All eigenvalues of a symmetric matrix by bisection on the Sturm chain."""
    A = 0.5 * (A + A.T)
    n = A.shape[0]
    radius = float(np.abs(A).sum(axis=1).max()) + 1.0
    eigs = []
    for k in range(n):
        lo, hi = -radius, radius
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if _count_eigs_below(A, mid) >= k + 1:
                hi = mid
            else:
                lo = mid
        eigs.append(0.5 * (lo + hi))
    return np.array(eigs)


def oracle_differential(fc: FilteredComplex, n: int) -> GF2Matrix:
    """d_n as a dense matrix, rows and columns in generator order."""
    return _raw_differential(fc.generators, fc.boundary_names, n)


def _raw_differential(generators: Sequence[Generator], boundary: dict, n: int) -> GF2Matrix:
    row = {g.name: i for i, g in enumerate(g for g in generators if g.degree == n - 1)}
    cols = [g.name for g in generators if g.degree == n]
    dense = np.zeros((len(row), len(cols)), dtype=np.uint8)
    for j, name in enumerate(cols):
        for tname in boundary.get(name, ()):
            dense[row[tname], j] ^= 1
    return GF2Matrix.from_dense(dense)


def naive_homology_dims(fc: FilteredComplex) -> dict:
    """GF(2) homology of the total complex via the naive rank oracle."""
    out = {}
    for n in fc.degrees():
        d_n = oracle_differential(fc, n).to_dense().tolist()
        d_n1 = oracle_differential(fc, n + 1).to_dense().tolist()
        rank_n = naive_gf2_rank(d_n) if fc.dim(n) else 0
        rank_n1 = naive_gf2_rank(d_n1) if fc.dim(n + 1) else 0
        out[n] = fc.dim(n) - rank_n - rank_n1
    return out


def oracle_validate(generators: Sequence[Generator], boundary: dict) -> None:
    """The checks ``FilteredComplex`` construction makes after names and
    degrees, on raw data whose names and degrees are sound, by dense
    products: the filtration check in generator order, then
    d_{n-1} d_n = 0 as a packed ``GF2Matrix`` product, degree by degree."""
    filtration = {g.name: g.filtration for g in generators}
    for g in generators:
        for tname in boundary.get(g.name, ()):
            if filtration[tname] > g.filtration:
                raise FiltrationError(
                    f"differential raises filtration: {g.name} (p={g.filtration}) "
                    f"-> {tname} (p={filtration[tname]})")
    for n in sorted({g.degree for g in generators}):
        lower = _raw_differential(generators, boundary, n)
        lower2 = _raw_differential(generators, boundary, n - 1)
        if lower.rows and lower2.rows:
            if not lower2.mul(lower).is_zero():
                raise BoundaryError(f"d^2 != 0 out of degree {n}")


def _gf2_inverse(U: np.ndarray) -> np.ndarray:
    n = U.shape[0]
    aug = np.concatenate([U.copy() % 2, np.eye(n, dtype=np.uint8)], axis=1)
    r = 0
    for c in range(n):
        pivot = None
        for i in range(r, n):
            if aug[i, c]:
                pivot = i
                break
        assert pivot is not None, "change of basis must be invertible"
        aug[[r, pivot]] = aug[[pivot, r]]
        for i in range(n):
            if i != r and aug[i, c]:
                aug[i] ^= aug[r]
        r += 1
    return aug[:, n:]


def random_filtered_complex(rng: np.random.Generator, max_gens: int = 40):
    """(complex, expected_homology): elementary pairs plus free generators,
    scrambled by a random filtration-respecting change of basis."""
    r = int(rng.integers(2, 6))
    degrees = list(range(0, 4))
    gens = []          # (degree, filtration)
    pairs = []         # (killer_index, killed_index)
    n_pairs = int(rng.integers(1, max(2, max_gens // 4)))
    for _ in range(n_pairs):
        n = int(rng.integers(1, len(degrees)))
        p_low = int(rng.integers(1, r + 1))
        p_high = int(rng.integers(p_low, r + 1))
        killed = len(gens)
        gens.append((n - 1, p_low))
        killer = len(gens)
        gens.append((n, p_high))
        pairs.append((killer, killed))
    expected = {n: 0 for n in degrees}
    n_free = int(rng.integers(1, max(2, max_gens - len(gens))))
    for _ in range(n_free):
        if len(gens) >= max_gens:
            break
        n = int(rng.integers(0, len(degrees)))
        gens.append((n, int(rng.integers(1, r + 1))))
        expected[n] += 1

    by_degree = {n: [i for i, (d, _) in enumerate(gens) if d == n]
                 for n in degrees}
    diff = {}
    for n in degrees:
        rows, cols = by_degree.get(n - 1, []), by_degree[n]
        D = np.zeros((len(rows), len(cols)), dtype=np.uint8)
        for killer, killed in pairs:
            if gens[killer][0] == n:
                D[rows.index(killed), cols.index(killer)] = 1
        diff[n] = D

    # scramble: e'_j = e_j + (random generators of <= filtration); mixing
    # strictly below j in a filtration-refining order keeps U unitriangular
    U = {}
    for n in degrees:
        idx = by_degree[n]
        m = len(idx)
        order = sorted(range(m), key=lambda i: (gens[idx[i]][1], i))
        pos = {i: k for k, i in enumerate(order)}
        mat = np.eye(m, dtype=np.uint8)
        for j in range(m):
            for i in range(m):
                if pos[i] < pos[j] and rng.random() < 0.3:
                    mat[i, j] = 1
        U[n] = mat
    for n in degrees:
        if diff[n].size:
            diff[n] = (_gf2_inverse(U[n - 1]) @ diff[n] @ U[n]) % 2

    generators = []
    name_of = {}
    for n in degrees:
        for local, i in enumerate(by_degree[n]):
            name = f"g{i}"
            name_of[(n, local)] = name
            generators.append(Generator(name, n, gens[i][1]))
    boundary = {}
    for n in degrees:
        D = diff[n]
        for j in range(D.shape[1]):
            targets = [name_of[(n - 1, i)] for i in range(D.shape[0]) if D[i, j]]
            if targets:
                boundary[name_of[(n, j)]] = targets
    return FilteredComplex(generators, boundary), {n: d for n, d in expected.items()}


def random_shifted_sum(rng: np.random.Generator, max_gens: int = 20):
    """(generators, boundary) of the direct sum of two ``random_filtered_complex``
    draws, one moved to negative degrees and one above a gap of at least one
    empty degree, so d^2 = 0 and d respects the filtration."""
    generators, boundary = [], {}
    for tag, shift in (("lo", int(rng.integers(-7, -3))), ("hi", int(rng.integers(2, 4)))):
        fc, _ = random_filtered_complex(rng, max_gens=max_gens)
        for g in fc.generators:
            generators.append(Generator(f"{tag}.{g.name}", g.degree + shift, g.filtration))
            boundary[f"{tag}.{g.name}"] = [f"{tag}.{t}" for t in fc.boundary_names[g.name]]
    return generators, boundary


def random_raw_complex(rng: np.random.Generator, max_gens: int = 20):
    """(generators, boundary) in degrees -3..-1 and 1..3 (0 is left empty)
    with random levels and random boundaries one degree down, a target
    sometimes listed twice; d^2 = 0 is left to chance.  In about half the
    draws every boundary stays within its level, otherwise it may raise it."""
    r = int(rng.integers(1, 5))
    respect = bool(rng.integers(0, 2))
    generators = [Generator(f"g{i}", int(rng.choice([-3, -2, -1, 1, 2, 3])),
                            int(rng.integers(1, r + 1)))
                  for i in range(int(rng.integers(1, max_gens + 1)))]
    boundary = {}
    for g in generators:
        lower = [t.name for t in generators if t.degree == g.degree - 1
                 and (t.filtration <= g.filtration or not respect)]
        targets = [t for t in lower if rng.random() < 0.4]
        if targets and rng.random() < 0.2:
            targets.append(targets[0])
        boundary[g.name] = targets
    return generators, boundary


# -- spectral-sequence pages by the cycle/boundary formula ---------------


@dataclass
class OracleEntry:
    dim: int
    representatives: Subspace          # spanned by the chosen class representatives
    cycle_space: Subspace
    boundary_space: Subspace
    rep_vectors: List[np.ndarray] = dc_field(default_factory=list)


def _z_space(fc: FilteredComplex, p: int, k: int, n: int,
             cache: Dict[Tuple[int, int, int], Subspace]) -> Subspace:
    """Z^k at filtration p in total degree n (as a subspace of C_n)."""
    key = (p, k, n)
    if key in cache:
        return cache[key]
    dim_n = fc.dim(n)
    if dim_n == 0:
        sp = Subspace.zero(0)
        cache[key] = sp
        return sp
    filt_n = fc.filtrations(n)
    cols = [i for i in range(dim_n) if filt_n[i] <= p]
    if not cols:
        sp = Subspace.zero(dim_n)
        cache[key] = sp
        return sp
    d = oracle_differential(fc, n)
    filt_low = fc.filtrations(n - 1)
    bad_rows = [j for j in range(fc.dim(n - 1)) if filt_low[j] > p - k]
    if not bad_rows or d.rows == 0:
        vectors = []
        for c in cols:
            v = np.zeros(dim_n, dtype=np.uint8)
            v[c] = 1
            vectors.append(v)
        sp = Subspace.from_vectors(dim_n, vectors)
        cache[key] = sp
        return sp
    sub = d.submatrix(row_idx=bad_rows, col_idx=cols)
    kern = sub.kernel_basis().to_dense()
    vectors = []
    for row in kern:
        v = np.zeros(dim_n, dtype=np.uint8)
        v[cols] = row
        vectors.append(v)
    sp = Subspace.from_vectors(dim_n, vectors)
    cache[key] = sp
    return sp


def _apply_d(fc: FilteredComplex, n: int, vectors: Iterable[np.ndarray]) -> List[np.ndarray]:
    d = oracle_differential(fc, n)
    return [d.mul_vector(v) for v in vectors]


def _complement_reps(numerator: Subspace, denominator: Subspace) -> List[np.ndarray]:
    """Representatives of numerator/denominator, deterministic in basis order."""
    reps = []
    acc = denominator
    for v in numerator.basis.to_dense():
        if not acc.contains_vector(v):
            reps.append(v)
            acc = subspace_sum(acc, Subspace.from_vectors(len(v), [v]))
    return reps


def oracle_page(fc: FilteredComplex, k: int) -> Page:
    """Page E^k by the cycle/boundary formula of ``qmdkit.specseq``'s docstring.

    Asserts that every d_k class lands at (p-k, q+k-1) and that d_k squares
    to zero.
    """
    if k < 1:
        raise ValueError("pages are defined for k >= 1")
    r = fc.max_filtration
    cache: Dict[Tuple[int, int, int], Subspace] = {}
    entries: Dict[Tuple[int, int], OracleEntry] = {}
    if fc.is_empty():
        return Page(k, {}, {})
    for n in fc.degrees():
        dim_n = fc.dim(n)
        if dim_n == 0:
            continue
        for p in range(1, r + 1):
            q = n - p
            Z = _z_space(fc, p, k, n, cache)
            Zm = _z_space(fc, p - 1, k - 1, n, cache)
            Bsrc = _z_space(fc, p + k - 1, k - 1, n + 1, cache)
            bvecs = _apply_d(fc, n + 1, Bsrc.basis.to_dense()) if fc.dim(n + 1) else []
            B = Subspace.from_vectors(dim_n, bvecs)
            W = subspace_sum(Zm, B)
            if not Z.contains(W):
                # always holds for a valid filtered complex
                raise AssertionError("cycle/boundary containment violated")
            dim_e = quotient_dim(Z, W)
            reps = _complement_reps(Z, W)
            entries[(p, q)] = OracleEntry(dim_e, Subspace.from_vectors(dim_n, reps),
                                          Z, W, reps)

    differentials: Dict[Tuple[int, int], GF2Matrix] = {}
    for (p, q), entry in entries.items():
        tgt = entries.get((p - k, q + k - 1))
        n = p + q
        src_dim = entry.dim
        tgt_dim = tgt.dim if tgt else 0
        dense = np.zeros((tgt_dim, src_dim), dtype=np.uint8)
        if src_dim and tgt_dim:
            basis_rows = list(tgt.boundary_space.basis.to_dense()) + tgt.rep_vectors
            mat = GF2Matrix.from_rows(basis_rows, cols=fc.dim(n - 1))
            d = oracle_differential(fc, n)
            for j, x in enumerate(entry.rep_vectors):
                y = d.mul_vector(x)
                if not tgt.cycle_space.contains_vector(y):
                    raise AssertionError("page differential violates its bidegree")
                coeff = solve_row_combination(mat, y)
                if coeff is None:
                    raise AssertionError("page differential failed to reduce")
                dense[:, j] = coeff[tgt.boundary_space.dim:]
        elif src_dim and tgt is not None:
            # target entry vanishes: the class of d(x) must already be zero
            d = oracle_differential(fc, n)
            for x in entry.rep_vectors:
                y = d.mul_vector(x)
                if not tgt.boundary_space.contains_vector(y):
                    raise AssertionError("nonzero differential into an empty entry")
        differentials[(p, q)] = GF2Matrix.from_dense(dense)

    _assert_d_squared_zero(entries, differentials, k)
    return Page(k, {pq: e.dim for pq, e in entries.items()}, differentials)


def _assert_d_squared_zero(entries, differentials, k: int) -> None:
    for (p, q), d1 in differentials.items():
        up = differentials.get((p + k, q - k + 1))
        if up is not None and d1.cols and up.rows:
            if d1.rows and not d1.mul(up).is_zero():
                raise AssertionError(f"d_{k} squared is nonzero at {(p, q)}")


def differential_ranks(pg: Page) -> Dict[Tuple[int, int], int]:
    """Nonzero ranks of a ``qmdkit.specseq.page``'s d_k, keyed by source
    bidegree: the number of its generator pairs."""
    return {pq: len(pairs) for pq, pairs in pg.differentials.items() if pairs}


def oracle_differential_ranks(pg: Page) -> Dict[Tuple[int, int], int]:
    """Nonzero ranks of an ``oracle_page``'s d_k matrices, keyed by source
    bidegree."""
    ranks = {pq: d.rank() for pq, d in pg.differentials.items()}
    return {pq: r for pq, r in ranks.items() if r}


def page_dims_via_differential(pg: Page) -> Dict[Tuple[int, int], int]:
    """E^{k+1} dimensions predicted from page k's differential (kernel/image):
    each d_k pair removes its source's class and its target's."""
    out: Dict[Tuple[int, int], int] = {}
    k = pg.k
    for (p, q), dim in pg.entries.items():
        dim -= (len(pg.differentials[(p, q)])
                + len(pg.differentials.get((p + k, q - k + 1), ())))
        if dim:
            out[(p, q)] = dim
    return out


# -- cubical homology by dense boundary matrices ----------------------------------

Cell = Tuple[Tuple[int, ...], Tuple[int, ...]]  # (anchor per axis, extent bit per axis)


@dataclass(frozen=True)
class OracleComplex:
    cells_by_dim: Tuple[Tuple[Cell, ...], ...]
    boundary: Dict[int, GF2Matrix]


def _cell_faces(cell: Cell, dims, periodic):
    anchors, extents = cell
    for a, e in enumerate(extents):
        if not e:
            continue
        low_ext = extents[:a] + (0,) + extents[a + 1:]
        yield (anchors, low_ext)
        up = anchors[a] + 1
        if periodic[a]:
            up %= dims[a]
        yield (anchors[:a] + (up,) + anchors[a + 1:], low_ext)


def oracle_build_complex(mask: GridMask) -> OracleComplex:
    """Closure of the included top cells with dense GF(2) boundary matrices."""
    if not mask.cells.any():
        raise EmptyMaskError("mask contains no cells")
    d = mask.ndim
    dims, periodic = mask.dims, mask.periodic

    levels: List[set] = [set() for _ in range(d + 1)]
    top_extent = (1,) * d
    for idx in np.argwhere(mask.cells):
        levels[d].add((tuple(int(i) for i in idx), top_extent))
    for k in range(d, 0, -1):
        for cell in levels[k]:
            for face in _cell_faces(cell, dims, periodic):
                levels[k - 1].add(face)

    cells_by_dim = tuple(tuple(sorted(level)) for level in levels)
    index = [{cell: i for i, cell in enumerate(level)} for level in cells_by_dim]

    boundary: Dict[int, GF2Matrix] = {}
    for k in range(1, d + 1):
        n_rows = len(cells_by_dim[k - 1])
        n_cols = len(cells_by_dim[k])
        dense = np.zeros((n_rows, n_cols), dtype=np.uint8)
        for j, cell in enumerate(cells_by_dim[k]):
            for face in _cell_faces(cell, dims, periodic):
                dense[index[k - 1][face], j] ^= 1  # repeated face cancels mod 2
        boundary[k] = GF2Matrix.from_dense(dense)
    return OracleComplex(cells_by_dim, boundary)


def oracle_betti(cx: OracleComplex) -> Tuple[int, ...]:
    """betti_k = n_k - rank boundary_k - rank boundary_{k+1}, dense ranks."""
    d = len(cx.cells_by_dim) - 1
    ranks = [0] + [cx.boundary[k].rank() for k in range(1, d + 1)] + [0]
    return tuple(len(cx.cells_by_dim[k]) - ranks[k] - ranks[k + 1] for k in range(d + 1))


# -- the doubled-grid builder with per-cell index arithmetic ----------------------
#
# `qmdkit.cubical.build_complex` before its passes per cell type: one coordinate
# array over every cell of the full doubled grid, a modulo per axis and a 2-D
# fancy-index scatter per axis and side.  Its output is the exact reference.
# A periodic axis of n top cells has 2n coordinates, wrapped mod 2n; cells are
# indexed in the padded frame of `CubicalComplex.grid_shape` (2n + 1 per axis),
# whose last slab on a periodic axis holds no cell.

def oracle_doubled_grid_complex(mask: GridMask) -> CubicalComplex:
    """Closure of the included top cells, with sparse face arrays."""
    if not mask.cells.any():
        raise EmptyMaskError("mask contains no cells")
    d = mask.ndim
    wrap = tuple(2 * n if p else 2 * n + 1 for n, p in zip(mask.dims, mask.periodic))
    shape = tuple(2 * n + 1 for n in mask.dims)
    grid = np.zeros(wrap, dtype=bool)
    grid[tuple(slice(1, None, 2) for _ in wrap)] = mask.cells
    for axis in range(d):
        # before this pass only odd coordinates along `axis` are set, so the
        # rolls fill even positions only; on an open axis the wrapped-in
        # value comes from the even end position and is False
        grid = grid | np.roll(grid, 1, axis) | np.roll(grid, -1, axis)

    flat = np.flatnonzero(grid)
    coords = np.unravel_index(flat, wrap) if d else ()
    if d:
        flat = np.ravel_multi_index(coords, shape)
    odd = [c & 1 for c in coords]
    dim_of = np.sum(odd, axis=0) if d else np.zeros(len(flat), dtype=int)
    strides = [int(np.prod(shape[a + 1:])) for a in range(d)]
    row = np.empty(math.prod(shape), dtype=np.int64)
    cells_by_dim = []
    boundary: Dict[int, np.ndarray] = {}
    for k in range(d + 1):
        sel = dim_of == k
        cells = flat[sel]
        row[cells] = np.arange(len(cells))
        faces = np.empty((len(cells), 2 * k), dtype=np.int64)
        slot = np.zeros(len(cells), dtype=np.int64)
        for a in range(d):
            has = np.flatnonzero(odd[a][sel])
            c, base = coords[a][sel][has], cells[has]
            for side, step in ((0, -1), (1, 1)):
                neighbour = base + ((c + step) % wrap[a] - c) * strides[a]
                faces[has, 2 * slot[has] + side] = row[neighbour]
            slot[has] += 1
        cells_by_dim.append(cells)
        boundary[k] = faces
    return CubicalComplex(mask.dims, mask.periodic, tuple(cells_by_dim), boundary)


def validate_boundary(cx: CubicalComplex) -> None:
    """Assert boundary(k-1) @ boundary(k) == 0 for every k: every (k-2)-face
    of a k-cell's faces is reached an even number of times."""
    for k in range(2, len(cx.cells_by_dim)):
        n_k, n_low = cx.n_cells(k), cx.n_cells(k - 2)
        twice = cx.boundary[k - 1][cx.boundary[k]].reshape(n_k, -1)
        keys = (np.arange(n_k)[:, None] * n_low + twice).ravel()
        _, counts = np.unique(keys, return_counts=True)
        if np.any(counts % 2):
            raise AssertionError(f"boundary squared is nonzero between dims {k} and {k-2}")


# -- Betti numbers by reducing every boundary -------------------------------------
#
# `qmdkit.cubical.betti` before it reduced only the boundaries whose pivots it
# needs: every boundary through `reduce_faces`, the top one first, each cleared
# by the full pivots of the one above.

def oracle_reduction_betti(cx: CubicalComplex) -> Tuple[int, ...]:
    """betti_k = n_k - rank boundary_k - rank boundary_{k+1} over GF(2).

    Reduces the top boundary first; a k-cell that is the pivot of a reduced
    (k+1)-column is cleared from boundary_k, whose rank is its pivot count.
    """
    d = len(cx.cells_by_dim) - 1
    ranks = [0] * (d + 2)
    cleared = np.zeros(cx.n_cells(d), dtype=bool)
    for k in range(d, 0, -1):
        pivots = reduce_faces(cx.boundary[k][~cleared])
        cleared = np.zeros(cx.n_cells(k - 1), dtype=bool)
        cleared[pivots[pivots >= 0]] = True
        ranks[k] = int(np.count_nonzero(cleared))
    return tuple(cx.n_cells(k) - ranks[k] - ranks[k + 1] for k in range(d + 1))


# -- per-node Hessians, per-node tau terms and the per-step isolation scan ---------
#
# The morse/graphlag code as it was before one `hessian` pass per field, batched
# eigh, vectorized chart terms and the two-gradient scan: every Hessian from
# `hessian_at`, every spectrum from `eig_sym`, tau and the chart flattening from
# per-node `_project`/`_distance_to` loops, and one `flow_translate` per scan step.

def _principal_alignment(kernel_vectors: np.ndarray, axes: Sequence[int], ndim: int) -> float:
    """Largest principal angle (radians) between span(kernel) and the chart axes."""
    if kernel_vectors.shape[1] == 0:
        return 0.0
    E = np.zeros((ndim, len(axes)))
    for j, a in enumerate(axes):
        E[a, j] = 1.0
    sv = np.linalg.svd(kernel_vectors.T @ E, compute_uv=False)
    k = min(kernel_vectors.shape[1], len(axes))
    smallest_cos = float(sv[k - 1]) if k >= 1 else 1.0
    return float(np.arccos(np.clip(smallest_cos, -1.0, 1.0)))


def oracle_kernel_spans_axes(kernel: np.ndarray, V: np.ndarray, axes: Sequence[int],
                             ndim: int) -> bool:
    """At every node (row of `kernel`, selecting eigenvectors in V), the
    Hessian kernel has dimension len(axes) and lies along those axes."""
    return all(k.sum() == len(axes)
               and _principal_alignment(Vn[:, k], axes, ndim) <= ANGLE_TOL
               for k, Vn in zip(kernel, V))


def oracle_kernel_transverse(kernel: np.ndarray, V: np.ndarray, axes: Sequence[int],
                             ndim: int) -> bool:
    """[kernel vectors | chart axes] has full rank at every node, one
    matrix_rank per node."""
    chart_span = np.eye(ndim)[:, list(axes)]
    return all(np.linalg.matrix_rank(np.hstack([Vn[:, k], chart_span]), tol=1e-8) == ndim
               for k, Vn in zip(kernel, V))


def _project(chart: SubmanifoldChart, node) -> Tuple[int, ...]:
    """The node with its off-chart coordinates replaced by the chart base."""
    return tuple(node[a] if a in chart.axes else chart.base[a]
                 for a in range(len(chart.base)))


def _distance_to(chart: SubmanifoldChart, node, spacing, periodic, dims) -> float:
    """Physical distance from a node to the chart slice."""
    total = 0.0
    for a in range(len(dims)):
        if a in chart.axes:
            continue
        d = abs(node[a] - chart.base[a])
        if periodic[a]:
            d = min(d, dims[a] - d)
        x = d * spacing[a]
        total += x * x    # as numpy squares: Python's ** may round differently
    return float(np.sqrt(total))


def _oracle_sample_nodes(f: ScalarField, comp: GridMask) -> List[Tuple[int, ...]]:
    ok = stencil_mask(f)
    return [tuple(int(v) for v in idx)
            for idx in np.argwhere(comp.cells & ok)]


def oracle_transverse_negative_index(f: ScalarField, node: Sequence[int],
                                     chart: SubmanifoldChart, eig_tol: float) -> int:
    """Negative eigenvalues of the off-chart Hessian block at one node, from
    one ``hessian_at`` and one ``eig_sym``."""
    H = hessian_at(f, node)
    off = chart.off_axes(f.ndim)
    if not off:
        return 0
    sub = H[np.ix_(off, off)]
    w, _ = eig_sym(sub)
    return int(np.sum(w < -_kernel_threshold(w, eig_tol, default_hessian_floor(f))))


def oracle_index_preserved(f: ScalarField, f_check: ScalarField, crit: CriticalSet,
                    chart: SubmanifoldChart, eig_tol: float = 1e-6,
                    component: int = 0) -> bool:
    """Transverse negative index identical before/after the perturbation."""
    f.require_same_grid(f_check)
    comp = crit.components[component]
    for node in _oracle_sample_nodes(f, comp):
        before = oracle_transverse_negative_index(f, node, chart, eig_tol)
        after = oracle_transverse_negative_index(f_check, node, chart, eig_tol)
        if before != after:
            return False
    return True


def oracle_check_flattened_degenerate(f: ScalarField, crit: CriticalSet,
                               chart: SubmanifoldChart, tols: Tolerances,
                               strict: bool = False, component: int = 0) -> DegeneracyReport:
    """f|_S minimal along C and ker Hess_x f = T_x S at sampled x in C."""
    comp = crit.components[component]
    _require_contained(comp, chart)
    box = isolating_box(comp)
    report = DegeneracyReport("unclassified")
    cond_min = _check_minimum_on_slice(f, comp, chart, box, tols, strict)
    report.details["restricted_minimum_on_c"] = cond_min

    kernel_ok = True
    floor = default_hessian_floor(f)
    for node in _oracle_sample_nodes(f, comp):
        w, V = eig_sym(hessian_at(f, node))
        report.sampled_nodes.append(node)
        report.hessian_spectra.append([float(x) for x in w])
        thresh = _kernel_threshold(w, tols.eig_tol, floor)
        kernel_idx = np.nonzero(np.abs(w) < thresh)[0]
        if len(kernel_idx) != chart.dim:
            kernel_ok = False
            continue
        angle = _principal_alignment(V[:, kernel_idx], chart.axes, f.ndim)
        if angle > ANGLE_TOL:
            kernel_ok = False
    report.details["hessian_kernel_equals_chart"] = kernel_ok

    if cond_min and kernel_ok and report.sampled_nodes:
        report.classification = "flattened_degenerate"
    return report


def oracle_check_minimally_degenerate(f: ScalarField, crit: CriticalSet,
                               chart: SubmanifoldChart, tols: Tolerances,
                               strict: bool = False, component: int = 0) -> DegeneracyReport:
    """f|_S minimal along C; T_x S maximal among Hessian-nonnegative subspaces.

    Maximality is tested as: Hess restricted to the chart axes has no
    eigenvalue below -tol, and dim S equals the ambient dimension minus
    the number of negative Hessian eigenvalues at every sampled node.
    """
    comp = crit.components[component]
    _require_contained(comp, chart)
    box = isolating_box(comp)
    report = DegeneracyReport("unclassified")
    cond_min = _check_minimum_on_slice(f, comp, chart, box, tols, strict)
    report.details["restricted_minimum_on_c"] = cond_min

    psd_ok = True
    maximal_ok = True
    neg_counts = set()
    axes = list(chart.axes)
    floor = default_hessian_floor(f)
    for node in _oracle_sample_nodes(f, comp):
        H = hessian_at(f, node)
        w, _ = eig_sym(H)
        report.sampled_nodes.append(node)
        report.hessian_spectra.append([float(x) for x in w])
        thresh = _kernel_threshold(w, tols.eig_tol, floor)
        n_neg = int(np.sum(w < -thresh))
        neg_counts.add(n_neg)
        if axes:
            ws, _ = eig_sym(H[np.ix_(axes, axes)])
            if ws.size and float(ws.min()) < -thresh:
                psd_ok = False
        if chart.dim != f.ndim - n_neg:
            maximal_ok = False
    report.details["hessian_psd_on_chart"] = psd_ok
    report.details["chart_dimension_maximal"] = maximal_ok
    if len(neg_counts) == 1:
        report.negative_index = neg_counts.pop()

    if cond_min and psd_ok and maximal_ok and report.sampled_nodes:
        report.classification = "minimally_degenerate"
    return report


def oracle_check_qmd(f: ScalarField, tau: ScalarField, crit: CriticalSet,
              chart: SubmanifoldChart, tols: Tolerances,
              strict: bool = False, component: int = 0) -> DegeneracyReport:
    """tau >= 0 vanishing exactly on C, kernel transversality, f - tau flattened."""
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

    transverse_ok = True
    floor = default_hessian_floor(f)
    for node in _oracle_sample_nodes(f, comp):
        w, V = eig_sym(hessian_at(tau, node))
        thresh = _kernel_threshold(w, tols.eig_tol, floor)
        kernel_idx = np.nonzero(np.abs(w) < thresh)[0]
        span = np.zeros((f.ndim, len(kernel_idx) + chart.dim))
        span[:, :len(kernel_idx)] = V[:, kernel_idx]
        for j, a in enumerate(chart.axes):
            span[a, len(kernel_idx) + j] = 1.0
        if np.linalg.matrix_rank(span, tol=1e-8) != f.ndim:
            transverse_ok = False
    report.details["tau_kernel_transverse_to_chart"] = transverse_ok

    flat = oracle_check_flattened_degenerate(f.sub(tau), crit, chart, tols,
                                      strict=strict, component=component)
    report.details["difference_flattened_degenerate"] = flat.passed
    report.hessian_spectra = flat.hessian_spectra
    report.sampled_nodes = flat.sampled_nodes

    if all(report.details.values()) and report.sampled_nodes:
        report.classification = "qmd"
    return report


def _oracle_extent_axes(comp: GridMask) -> Tuple[int, ...]:
    """The axes on which the component's nodes take more than one distinct
    coordinate."""
    nodes = np.argwhere(comp.cells)
    axes = []
    for a in range(len(comp.dims)):
        if len(np.unique(nodes[:, a])) > 1:
            axes.append(a)
    return tuple(axes)


def oracle_classify(f: ScalarField, crit: CriticalSet, chart: Optional[SubmanifoldChart] = None,
             tau: Optional[ScalarField] = None, tols: Tolerances = Tolerances(),
             strict: bool = False, component: int = 0) -> DegeneracyReport:
    """Run the degeneracy ladder and report the finest classification."""
    comp = crit.components[component]
    nodes = _oracle_sample_nodes(f, comp)
    report = DegeneracyReport("unclassified")

    is_singleton = comp.count() == 1
    morse_ok = bool(nodes) and is_singleton
    bott_axes = _oracle_extent_axes(comp)
    f_on_c = f.values[comp.cells]
    bott_ok = (bool(nodes)
               and float(f_on_c.max() - f_on_c.min()) <= tols.value_tol)
    spectra = []
    floor = default_hessian_floor(f)
    for node in nodes:
        w, V = eig_sym(hessian_at(f, node))
        spectra.append([float(x) for x in w])
        thresh = _kernel_threshold(w, tols.eig_tol, floor)
        kernel_idx = np.nonzero(np.abs(w) < thresh)[0]
        if len(kernel_idx) != 0:
            morse_ok = False
        if len(kernel_idx) != len(bott_axes):
            bott_ok = False
        elif bott_axes and _principal_alignment(V[:, kernel_idx], bott_axes,
                                                f.ndim) > ANGLE_TOL:
            bott_ok = False
    report.hessian_spectra = spectra
    report.sampled_nodes = nodes
    report.details["morse"] = morse_ok
    report.details["morse_bott"] = bott_ok

    flat_ok = mindeg_ok = qmd_ok = False
    if chart is not None:
        try:
            flat = oracle_check_flattened_degenerate(f, crit, chart, tols, strict,
                                              component)
            flat_ok = flat.passed
        except ChartError:
            flat_ok = False
        try:
            mindeg = oracle_check_minimally_degenerate(f, crit, chart, tols, strict,
                                                component)
            mindeg_ok = mindeg.passed
            report.negative_index = mindeg.negative_index
        except ChartError:
            mindeg_ok = False
        if tau is not None:
            try:
                qmd_ok = oracle_check_qmd(f, tau, crit, chart, tols, strict,
                                   component).passed
            except ChartError:
                qmd_ok = False
    report.details["flattened_degenerate"] = flat_ok
    report.details["minimally_degenerate"] = mindeg_ok
    report.details["qmd"] = qmd_ok

    for label, ok in (("morse", morse_ok), ("morse_bott", bott_ok),
                      ("flattened_degenerate", flat_ok),
                      ("minimally_degenerate", mindeg_ok), ("qmd", qmd_ok)):
        if ok:
            report.classification = label
            break
    return report


def _box_excess_distance(box: np.ndarray, spacing, periodic) -> np.ndarray:
    """Physical distance from each node to the box (0 inside)."""
    dims = box.shape
    axis_dist = []
    for a, n in enumerate(dims):
        others = tuple(i for i in range(len(dims)) if i != a)
        proj = box.any(axis=others) if others else box
        inside = np.nonzero(proj)[0]
        idx = np.arange(n)
        d = np.abs(idx[:, None] - inside[None, :])
        if periodic[a]:
            d = np.minimum(d, n - d)
        axis_dist.append(d.min(axis=1) * spacing[a])
    grids = np.meshgrid(*axis_dist, indexing="ij") if len(dims) > 1 else [axis_dist[0]]
    return np.sqrt(sum(g ** 2 for g in grids))


def oracle_construct_tau(f: ScalarField, crit: CriticalSet, chart: SubmanifoldChart,
                  tols: Tolerances, component: int = 0,
                  check_precondition: bool = True) -> ScalarField:
    """Auxiliary tau = dist(x, S)^4 + (f o project_S - min_C f) near C.

    Away from the isolating box the data term is faded out by a
    smoothstep and a quartic box-distance guard keeps tau positive, so
    the zero set stays exactly C on the full grid.  The output is
    validated against the qmd conditions before being returned.

    The radial formula is well-defined whenever C lies in the chart;
    minimal degeneracy is the guarantee that it succeeds, and
    check_precondition=False skips that gate for callers who only need
    the formula (the output is still validated).
    """
    if check_precondition:
        pre = oracle_check_minimally_degenerate(f, crit, chart, tols,
                                         component=component)
        if not pre.passed:
            raise ConstructionError("input is not minimally degenerate along "
                                    "the chart")
    comp = crit.components[component]
    box = isolating_box(comp)
    fmin = float(f.values[comp.cells].min())

    dims = f.dims
    r4 = np.zeros(dims)
    proj_vals = np.zeros(dims)
    for node in itertools.product(*(range(n) for n in dims)):
        r = _distance_to(chart, node, f.spacing, f.periodic, dims)
        r4[node] = r ** 4
        proj_vals[node] = f.values[_project(chart, node)]

    d_box = _box_excess_distance(box, f.spacing, f.periodic)
    ramp_width = 2.0 * BOX_MARGIN * float(np.mean(f.spacing))
    ramp = 1.0 - _smoothstep(d_box / ramp_width)
    tau_vals = r4 + ramp * (proj_vals - fmin) + d_box ** 4
    tau = f.with_values(tau_vals)

    post = oracle_check_qmd(f, tau, crit, chart, tols, component=component)
    if not post.passed:
        failing = [k for k, v in post.details.items() if not v]
        raise ConstructionError(f"constructed tau violates: {failing}")
    return tau


def oracle_rho(delta: float, x) -> np.ndarray:
    """rho_delta(x) with the transition profile evaluated at every x."""
    rho = RhoProfile(float(delta))
    x = np.asarray(x, dtype=float)
    half = rho.delta / 2.0
    u = np.clip(2.0 * x / rho.delta - 1.0, 0.0, 1.0)
    mid_val = half * rho._P(u)
    return np.where(x <= half, 0.0, np.where(x >= rho.delta, x, mid_val))


def oracle_flatten(f: ScalarField, delta: float, crit: CriticalSet, tols: Tolerances,
            component: int = 0) -> FlattenResult:
    """Apply rho(f) and return the thickening sigma = {f <= delta/2} in the box.

    Requires f >= 0 near C with minimum 0 on C (shift first).  If the
    level delta/2 fails the regular-value check (some node on the level
    band has |grad f| <= grad_tol), delta is scanned upward in 1% steps
    up to MAX_NUDGES tries.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    comp = crit.components[component]
    box = isolating_box(comp)
    if float(np.abs(f.values[comp.cells]).max()) > tols.value_tol:
        raise ValueError("f must vanish on C (shift by the critical value first)")
    if float(f.values[box].min()) < -tols.value_tol:
        raise ValueError("f must be nonnegative on the chart slice near C")

    mag, valid = oracle_gradient_magnitude(f)
    hmax = max(f.spacing)
    d = float(delta)
    for _ in range(MAX_NUDGES + 1):
        band = box & valid & (np.abs(f.values - d / 2.0)
                              <= mag * hmax + tols.value_tol)
        if not band.any() or float(mag[band].min()) > crit.grad_tol:
            break
        d *= 1.01
    else:
        raise RegularValueError("could not nudge delta/2 onto a regular value")

    f_check = f.with_values(oracle_rho(d, f.values))
    sigma = GridMask(f.dims, f.periodic,
                     (f.values <= d / 2.0) & box & stencil_mask(f))
    return FlattenResult(f_check, sigma, d)


def oracle_flatten_along_chart(f: ScalarField, delta: float, crit: CriticalSet,
                        chart: SubmanifoldChart, tols: Tolerances,
                        component: int = 0) -> FlattenResult:
    """Flatten the restriction of f to a lower-dimensional chart.

    The restriction f|_S is flattened as in `flatten`; sigma is its
    sublevel set inside the chart slice.  The ambient output extends the
    flattened restriction by the radial weight (1 + r^4) with r the
    distance to the chart, so it agrees with rho(f|_S) on the slice.
    The weight cannot remove fiber criticality over sigma's interior
    (the restricted profile is flat there), so the critical set of the
    extension is the fiber slab over sigma, which carries the same
    homotopy type.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    comp = crit.components[component]
    _require_contained(comp, chart)
    box = isolating_box(comp)
    slice_mask = chart.slice_mask(f.dims)
    if float(np.abs(f.values[comp.cells]).max()) > tols.value_tol:
        raise ValueError("f must vanish on C (shift by the critical value first)")
    if float(f.values[slice_mask & box].min()) < -tols.value_tol:
        raise ValueError("f must be nonnegative on the chart slice near C")

    dims = f.dims
    proj_vals = np.zeros(dims)
    r4 = np.zeros(dims)
    for node in itertools.product(*(range(n) for n in dims)):
        proj_vals[node] = f.values[_project(chart, node)]
        r4[node] = _distance_to(chart, node, f.spacing, f.periodic, dims) ** 4

    restricted = f.with_values(proj_vals)
    mag, valid = oracle_gradient_magnitude(restricted)
    hmax = max(f.spacing)
    d = float(delta)
    for _ in range(MAX_NUDGES + 1):
        band = box & valid & slice_mask & (np.abs(proj_vals - d / 2.0)
                                           <= mag * hmax + tols.value_tol)
        if not band.any() or float(mag[band].min()) > crit.grad_tol:
            break
        d *= 1.01
    else:
        raise RegularValueError("could not nudge delta/2 onto a regular value")

    f_check = f.with_values((1.0 + r4) * oracle_rho(d, proj_vals))
    sigma = GridMask(f.dims, f.periodic,
                     (proj_vals <= d / 2.0) & slice_mask & box & stencil_mask(f))
    return FlattenResult(f_check, sigma, d)


def oracle_isolation_scan(f: ScalarField, tau: ScalarField, crit: CriticalSet,
                   chart: SubmanifoldChart, steps: int = 64,
                   component: int = 0) -> IsolationReport:
    """Check C stays the in-box intersection for t in [0, 1 - 1/steps].

    At t = 1 the intersection need only be contained in the chart slice
    of S (the flattened endpoint is a neighborhood in S, not C itself);
    both facts are reported separately.
    """
    f.require_same_grid(tau)
    comp = crit.components[component]
    box = isolating_box(comp)
    section = GraphSection(f)
    report = IsolationReport()
    for j in range(steps):
        t = j / steps
        moved = flow_translate(section, tau, t)
        near = critical_node_mask(moved.generator, crit.grad_tol) & box
        ok = bool(np.array_equal(near, comp.cells & box))
        report.per_t.append((t, ok))
        if not ok and report.first_violation is None:
            report.first_violation = t
            report.isolated_on_scan = False
    end = flow_translate(section, tau, 1.0)
    near_end = critical_node_mask(end.generator, crit.grad_tol) & box
    in_chart = chart.slice_mask(f.dims)
    report.t1_contained_in_chart = bool((near_end <= in_chart).all())
    return report


# -- stencil gathers by wrapped coordinates --------------------------------------------


def _oracle_at(field: ScalarField, nodes: np.ndarray, offset) -> np.ndarray:
    nodes = np.asarray(nodes, dtype=np.intp).reshape(-1, field.ndim)
    return field.values[tuple(((nodes + offset) % np.array(field.dims, dtype=np.intp)).T)]


def oracle_gradient_at_nodes(field: ScalarField, nodes: np.ndarray) -> np.ndarray:
    d = field.ndim
    grad = np.empty((len(np.reshape(nodes, (-1, d))), d), dtype=float)
    for a, e in enumerate(np.eye(d, dtype=np.intp)):
        grad[:, a] = ((_oracle_at(field, nodes, e) - _oracle_at(field, nodes, -e))
                      / (2.0 * field.spacing[a]))
    return grad


# -- whole-grid calculus by np.roll ----------------------------------------------------


def oracle_gradient(field: ScalarField) -> Tuple[np.ndarray, np.ndarray]:
    v = field.values
    grad = np.zeros(field.dims + (field.ndim,), dtype=float)
    for a in range(field.ndim):
        fwd = np.roll(v, -1, axis=a)
        bwd = np.roll(v, 1, axis=a)
        grad[..., a] = (fwd - bwd) / (2.0 * field.spacing[a])
    valid = stencil_mask(field)
    grad[~valid] = 0.0
    return grad, valid


def oracle_norms(v: np.ndarray) -> np.ndarray:
    return np.sqrt((v ** 2).sum(axis=-1))


def oracle_gradient_magnitude(field: ScalarField) -> Tuple[np.ndarray, np.ndarray]:
    grad, valid = oracle_gradient(field)
    return oracle_norms(grad), valid


def oracle_default_grad_tol(field: ScalarField) -> float:
    mag, valid = oracle_gradient_magnitude(field)
    grange = float(mag[valid].max()) if valid.any() else 1.0
    hbar = float(np.mean(field.spacing))
    return 10.0 * hbar * hbar * max(grange, 1e-12)


def oracle_c1_distance(f: ScalarField, g: ScalarField) -> float:
    f.require_same_grid(g)
    d0 = float(np.abs(f.values - g.values).max())
    gf, valid = oracle_gradient(f)
    gg, _ = oracle_gradient(g)
    diff = oracle_norms(gf - gg)
    d1 = float(diff[valid].max()) if valid.any() else 0.0
    return d0 + d1


def hessian(field: ScalarField) -> Tuple[np.ndarray, np.ndarray]:
    """Central-difference Hessian at every node.

    Returns (H, valid) where H has shape dims + (ndim, ndim) and valid is
    the stencil mask; H is `hessian_at_nodes` at the valid nodes and zero
    elsewhere.
    """
    d = field.ndim
    valid = stencil_mask(field)
    H = np.zeros(field.dims + (d, d), dtype=float)
    H[valid] = hessian_at_nodes(field, np.argwhere(valid))
    return H, valid


def oracle_hessian_at_nodes(field: ScalarField, nodes: np.ndarray) -> np.ndarray:
    h, d = field.spacing, field.ndim
    eye = np.eye(d, dtype=np.intp)
    f0 = _oracle_at(field, nodes, 0 * eye[0])
    H = np.zeros((len(f0), d, d), dtype=float)
    for a in range(d):
        H[:, a, a] = ((_oracle_at(field, nodes, eye[a]) - 2.0 * f0
                       + _oracle_at(field, nodes, -eye[a])) / (h[a] * h[a]))
        for b in range(a + 1, d):
            def corner(sa, sb):
                return _oracle_at(field, nodes, sa * eye[a] + sb * eye[b])

            val = corner(1, 1) - corner(1, -1) - corner(-1, 1) + corner(-1, -1)
            H[:, a, b] = H[:, b, a] = val / (4.0 * h[a] * h[b])
    return H


# -- component labelling by depth-first search ------------------------------------
#
# `qmdkit.morse.connected_components` before it became a union-find in array
# passes: one Python DFS over `_neighbors`, one generator per node.

def _neighbors(node, dims, periodic):
    for a in range(len(dims)):
        for d in (-1, 1):
            j = node[a] + d
            if periodic[a]:
                j %= dims[a]
            elif not (0 <= j < dims[a]):
                continue
            yield node[:a] + (j,) + node[a + 1:]


def oracle_connected_components(mask: np.ndarray, periodic: Sequence[bool]) -> List[np.ndarray]:
    dims = mask.shape
    seen = np.zeros(dims, dtype=bool)
    comps = []
    for start in map(tuple, np.argwhere(mask)):
        if seen[start]:
            continue
        comp = np.zeros(dims, dtype=bool)
        stack = [start]
        seen[start] = True
        while stack:
            node = stack.pop()
            comp[node] = True
            for nb in _neighbors(node, dims, periodic):
                if mask[nb] and not seen[nb]:
                    seen[nb] = True
                    stack.append(nb)
        comps.append(comp)
    comps.sort(key=lambda c: tuple(int(v) for v in np.argwhere(c)[0]))
    return comps


def oracle_axis_interval(indices: np.ndarray, n: int, periodic: bool) -> np.ndarray:
    """Smallest (circular) index interval covering `indices`, inflated."""
    present = np.zeros(n, dtype=bool)
    present[indices] = True
    if present.all():
        return np.ones(n, dtype=bool)
    if not periodic:
        lo = max(0, int(indices.min()) - BOX_MARGIN)
        hi = min(n - 1, int(indices.max()) + BOX_MARGIN)
        out = np.zeros(n, dtype=bool)
        out[lo:hi + 1] = True
        return out
    # periodic: cover the complement of the largest circular run of absences
    idx = np.sort(np.unique(indices))
    m = len(idx)
    strides = [((int(idx[(i + 1) % m] - idx[i]) - 1) % n + 1, i) for i in range(m)]
    stride, gi = max(strides)
    start = int(idx[(gi + 1) % m]) - BOX_MARGIN
    covered = (n - stride + 1) + 2 * BOX_MARGIN
    if covered >= n:
        return np.ones(n, dtype=bool)
    out = np.zeros(n, dtype=bool)
    for k in range(covered):
        out[(start + k) % n] = True
    return out


# -- per-walk steepest descent and the BFS distance to a component ----------------
#
# `verify_thickening` before its walks were advanced together by pointer doubling:
# one Python walk per sigma node over `_neighbors`.  The loop yields int tuples,
# so the escape message and the failures list print plain ints.

def _steepest_descent(f: ScalarField, start, box, budget: int):
    node = tuple(start)
    for _ in range(budget):
        best = node
        best_val = f.values[node]
        for nb in _neighbors(node, f.dims, f.periodic):
            if f.values[nb] < best_val:
                best, best_val = nb, f.values[nb]
        if best == node:
            return node
        if not box[best]:
            raise DescentEscapeError(f"descent from {tuple(start)} left the box")
        node = best
    return node


def oracle_verify_thickening(f: ScalarField, crit: CriticalSet, sigma: GridMask,
                             tols: Tolerances, component: int = 0) -> ThickeningReport:
    """Betti equality of C and sigma, plus descent from sigma back into C
    (each walk at most 4 * sum(dims) steps)."""
    comp = crit.components[component]
    if not (comp.cells <= sigma.cells).all():
        raise ValueError("C must be contained in sigma")
    box = isolating_box(comp)
    b_c = betti_of_mask(comp)
    b_s = betti_of_mask(sigma)
    betti_match = b_c == b_s

    budget = 4 * sum(f.dims)
    failures = []
    for node in (tuple(int(v) for v in idx) for idx in np.argwhere(sigma.cells)):
        end = _steepest_descent(f, node, box, budget)
        if not comp.cells[end]:
            failures.append(node)
    descent_ok = not failures
    return ThickeningReport(b_c, b_s, betti_match, descent_ok,
                            betti_match and descent_ok, failures)


def oracle_grid_distance_to_component(comp: GridMask) -> np.ndarray:
    """BFS distance (in cells) from every node to the component: the L1
    graph distance of one-axis steps, wrapping on periodic axes."""
    dims = comp.dims
    dist = np.full(dims, -1, dtype=int)
    frontier = [tuple(int(v) for v in idx) for idx in np.argwhere(comp.cells)]
    for node in frontier:
        dist[node] = 0
    d = 0
    while frontier:
        nxt = []
        for node in frontier:
            for nb in _neighbors(node, dims, comp.periodic):
                if dist[nb] < 0:
                    dist[nb] = d + 1
                    nxt.append(nb)
        frontier = nxt
        d += 1
    return dist


# -- Maslov crossings and lifts, one Python step per breakpoint -----------------
#
# `qmdkit.maslov.crossings` and `_continuous_lift` before they became numpy
# passes, with the merged difference as lists of floats, as `_merged_difference`
# returned it then.

def oracle_continuous_lift(raw_pi_units: Sequence[float]) -> List[float]:
    """Resolve mod-1 jumps by picking the representative nearest the previous value."""
    lift = [float(raw_pi_units[0])]
    for u in raw_pi_units[1:]:
        u = float(u)
        k = round(lift[-1] - u)
        lift.append(u + k)
    return lift


def oracle_crossings(g: LagrangianLinePath, g2: LagrangianLinePath,
                     tol: float = 1e-9) -> List[CrossingRecord]:
    """Crossing records of the pair, or NonRegularCrossingError."""
    merged = np.union1d(g.times, g2.times)
    times = merged.tolist()
    diff = (_values_at(g, merged) - _values_at(g2, merged)).tolist()
    if not all(math.isfinite(d) for d in diff):
        raise PathError("the lifted angle difference of the pair is not finite")
    m = len(times) - 1
    slopes = [(diff[i + 1] - diff[i]) / (times[i + 1] - times[i]) for i in range(m)]

    near_int = [abs(d - round(d)) <= tol for d in diff]
    if all(near_int) and all(abs(s) <= tol for s in slopes):
        if len(set(round(d) for d in diff)) != 1:
            raise NonRegularCrossingError("difference hops between integer levels")
        return []

    records: List[CrossingRecord] = []
    for j, (t, d) in enumerate(zip(times, diff)):
        if not near_int[j]:
            continue
        s_in = slopes[j - 1] if j > 0 else None
        s_out = slopes[j] if j < m else None
        for s in (s_in, s_out):
            if s is not None and abs(s) <= tol:
                raise NonRegularCrossingError(
                    f"tangential crossing at t={t}: relative angular velocity "
                    f"below tolerance; perturb the paths")
        si = int(np.sign(s_in)) if s_in is not None else 0
        so = int(np.sign(s_out)) if s_out is not None else 0
        # a side whose segment ends within tol of the same integer stays on
        # that level: it contributes sign 0
        if j > 0 and near_int[j - 1] and round(diff[j - 1]) == round(d):
            si = 0
        if j < m and near_int[j + 1] and round(diff[j + 1]) == round(d):
            so = 0
        contribution = Fraction(si + so, 2)
        records.append(CrossingRecord(t, j == 0 or j == m, si, so, contribution))

    for i in range(m):
        lo, hi = sorted((diff[i], diff[i + 1]))
        k_first = math.ceil(lo - tol)
        k_last = math.floor(hi + tol)
        for k in range(k_first, k_last + 1):
            if abs(diff[i] - k) <= tol or abs(diff[i + 1] - k) <= tol:
                continue  # breakpoint crossing, already recorded
            if not lo < k < hi:
                continue  # admitted by float slop in the tol bounds
            s = slopes[i]
            t_star = times[i] + (k - diff[i]) / s
            records.append(CrossingRecord(t_star, False, int(np.sign(s)),
                                          int(np.sign(s)), Fraction(int(np.sign(s)))))
    records.sort(key=lambda r: r.time)
    return records


def oracle_maslov(g: LagrangianLinePath, g2: LagrangianLinePath,
                  tol: float = 1e-9) -> Fraction:
    return sum((r.contribution for r in oracle_crossings(g, g2, tol)), Fraction(0))


def oracle_refine(g: LagrangianLinePath, k: int) -> LagrangianLinePath:
    """Subdivide each segment into k equal pieces, one Python step per piece."""
    t, u = g.times.tolist(), g.lift.tolist()
    times: List[float] = []
    lift: List[float] = []
    for i in range(len(t) - 1):
        for j in range(k):
            s = j / k
            times.append(t[i] * (1 - s) + t[i + 1] * s)
            lift.append(u[i] * (1 - s) + u[i + 1] * s)
    times.append(t[-1])
    lift.append(u[-1])
    return LagrangianLinePath(tuple(times), tuple(lift))


def oracle_concat(g1: LagrangianLinePath, g2: LagrangianLinePath,
                  tol: float = 1e-9) -> LagrangianLinePath:
    """Time-rescaled concatenation over lists of Python floats."""
    gap = float(g1.lift[-1]) - float(g2.lift[0])
    k = round(gap)
    if abs(gap - k) > tol:
        raise PathError("concatenation endpoints are distinct lines")
    times = [0.5 * t for t in g1.times.tolist()] + [0.5 + 0.5 * t for t in g2.times[1:].tolist()]
    lift = g1.lift.tolist() + [u + k for u in g2.lift[1:].tolist()]
    return LagrangianLinePath(tuple(times), tuple(lift))


def oracle_dumps(payload) -> str:
    """The CLI's JSON text of ``payload``, as ``json.dumps`` writes it."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
