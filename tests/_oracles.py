"""Independent oracles used by the test suite.

Ranks come from a naive list-of-lists elimination, eigenvalues from
bisection on a Sturm chain of leading principal minors, and homology from
the naive rank; these avoid the package's own linear algebra.  Random
filtered complexes are assembled from elementary pieces with known
homology and scrambled by a filtration-respecting change of basis.

``oracle_page`` computes spectral-sequence pages by the cycle/boundary
formula, with the subspace sums, quotients and row solves of
``qmdkit.gf2``'s ``Subspace`` stack; the production ``qmdkit.specseq.page``
reads them off a persistence pairing and no longer touches that stack.

``oracle_build_complex`` is the tuple-cell closure with dense ``GF2Matrix``
boundaries that ``qmdkit.cubical`` used before its doubled-grid engine:
cells are (anchor, extent) pairs and ``oracle_betti`` takes dense ranks.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, Iterable, List, Tuple

import numpy as np

from qmdkit.cubical import EmptyMaskError, GridMask
from qmdkit.gf2 import (GF2Matrix, Subspace, quotient_dim, solve_row_combination,
                        subspace_sum)
from qmdkit.specseq import FilteredComplex, Generator, Page


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


def naive_homology_dims(fc: FilteredComplex) -> dict:
    """GF(2) homology of the total complex via the naive rank oracle."""
    out = {}
    for n in fc.degrees():
        d_n = fc.differential(n).to_dense().tolist()
        d_n1 = fc.differential(n + 1).to_dense().tolist()
        rank_n = naive_gf2_rank(d_n) if fc.dim(n) else 0
        rank_n1 = naive_gf2_rank(d_n1) if fc.dim(n + 1) else 0
        out[n] = fc.dim(n) - rank_n - rank_n1
    return out


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
    fc = FilteredComplex(generators, boundary)
    fc.validate()
    return fc, {n: d for n, d in expected.items()}


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
    d = fc.differential(n)
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
    d = fc.differential(n)
    return [d.mul_vector(v) for v in vectors]


def _complement_reps(numerator: Subspace, denominator: Subspace) -> List[np.ndarray]:
    """Representatives of numerator/denominator, deterministic in basis order."""
    reps = []
    acc = denominator
    for i in range(numerator.basis.rows):
        v = numerator.basis.to_dense()[i]
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
            bvecs = _apply_d(fc, n + 1, [Bsrc.basis.to_dense()[i]
                                         for i in range(Bsrc.dim)]) if fc.dim(n + 1) else []
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
            basis_rows = [tgt.boundary_space.basis.to_dense()[i]
                          for i in range(tgt.boundary_space.dim)]
            basis_rows += list(tgt.rep_vectors)
            mat = GF2Matrix.from_rows(basis_rows, cols=fc.dim(n - 1)) if basis_rows \
                else GF2Matrix(0, fc.dim(n - 1))
            for j, x in enumerate(entry.rep_vectors):
                y = fc.differential(n).mul_vector(x)
                if not tgt.cycle_space.contains_vector(y):
                    raise AssertionError("page differential violates its bidegree")
                coeff = solve_row_combination(mat, y)
                if coeff is None:
                    raise AssertionError("page differential failed to reduce")
                dense[:, j] = coeff[tgt.boundary_space.dim:]
        elif src_dim and tgt is not None:
            # target entry vanishes: the class of d(x) must already be zero
            for x in entry.rep_vectors:
                y = fc.differential(n).mul_vector(x)
                if not tgt.boundary_space.contains_vector(y):
                    raise AssertionError("nonzero differential into an empty entry")
        differentials[(p, q)] = GF2Matrix.from_dense(dense) if dense.size \
            else GF2Matrix(tgt_dim, src_dim)

    _assert_d_squared_zero(entries, differentials, k)
    return Page(k, {pq: e.dim for pq, e in entries.items()}, differentials)


def _assert_d_squared_zero(entries, differentials, k: int) -> None:
    for (p, q), d1 in differentials.items():
        up = differentials.get((p + k, q - k + 1))
        if up is not None and d1.cols and up.rows:
            if d1.rows and not d1.mul(up).is_zero():
                raise AssertionError(f"d_{k} squared is nonzero at {(p, q)}")


def differential_ranks(pg: Page) -> Dict[Tuple[int, int], int]:
    """Nonzero ranks of a page's d_k, keyed by source bidegree."""
    ranks = {pq: d.rank() for pq, d in pg.differentials.items()}
    return {pq: r for pq, r in ranks.items() if r}


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
        boundary[k] = GF2Matrix.from_dense(dense) if n_cols else GF2Matrix(n_rows, 0)
    return OracleComplex(cells_by_dim, boundary)


def oracle_betti(cx: OracleComplex) -> Tuple[int, ...]:
    """betti_k = n_k - rank boundary_k - rank boundary_{k+1}, dense ranks."""
    d = len(cx.cells_by_dim) - 1
    ranks = [0] + [cx.boundary[k].rank() for k in range(1, d + 1)] + [0]
    return tuple(len(cx.cells_by_dim[k]) - ranks[k] - ranks[k + 1] for k in range(d + 1))
