import os

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from qmdkit.gf2 import (GF2Error, GF2Matrix, Subspace, apparent_pivots,
                        quotient_dim, reduce_columns, reduce_faces,
                        solve_row_combination, subspace_intersection,
                        subspace_sum)

from _oracles import naive_gf2_rank

SEED = int(os.environ.get("QMD_SEED", "0"))


def test_rank_identity():
    assert GF2Matrix.identity(2).rank() == 2


def test_rank_equal_rows():
    assert GF2Matrix.from_rows([[1, 1], [1, 1]]).rank() == 1


def test_rank_dependent_third_row():
    # row 3 = row 1 + row 2
    m = GF2Matrix.from_rows([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    assert m.rank() == 2


def test_kernel_of_identity_is_zero():
    assert GF2Matrix.identity(2).kernel_basis().rows == 0


def test_kernel_of_zero_matrix_is_full():
    assert GF2Matrix.zeros(3, 3).kernel_basis().rows == 3


def test_kernel_solved_by_hand():
    k = GF2Matrix.from_rows([[1, 1, 0], [0, 1, 1]]).kernel_basis()
    assert k.to_dense().tolist() == [[1, 1, 1]]


def test_axes_sum_spans_plane():
    x = Subspace.from_vectors(2, [[1, 0]])
    y = Subspace.from_vectors(2, [[0, 1]])
    assert subspace_sum(x, y).dim == 2


def test_intersection_with_itself():
    s = Subspace.from_vectors(4, [[1, 0, 1, 0], [0, 1, 1, 1]])
    assert subspace_intersection(s, s) == s


def test_quotient_dim_by_diagonal():
    big = Subspace.from_vectors(2, [[1, 0], [0, 1]])
    small = Subspace.from_vectors(2, [[1, 1]])
    assert quotient_dim(big, small) == 1


def test_quotient_requires_containment():
    big = Subspace.from_vectors(3, [[1, 0, 0]])
    small = Subspace.from_vectors(3, [[0, 1, 0]])
    with pytest.raises(GF2Error):
        quotient_dim(big, small)


def test_ambient_mismatch_rejected():
    with pytest.raises(GF2Error):
        subspace_sum(Subspace.zero(2), Subspace.zero(3))


def _random_shapes(rng, n, max_rows=40):
    """The empty shapes, then n random (rows, cols): rows 0..max_rows, cols
    0-40 or 63-130, across the 64-column edge of a machine word."""
    yield from ((0, 0), (0, 9), (9, 0), (max_rows, 64), (max_rows, 65))
    for _ in range(n):
        wide = rng.random() < 0.4
        yield (int(rng.integers(0, max_rows + 1)),
               int(rng.integers(63, 131) if wide else rng.integers(0, 41)))


def test_rank_nullity_on_random_matrices():
    rng = np.random.default_rng(SEED)
    for rows, cols in _random_shapes(rng, 120):
        m = GF2Matrix.from_dense(rng.integers(0, 2, size=(rows, cols)))
        assert m.rank() + m.kernel_basis().rows == cols
        assert (m.rows, m.cols) == (rows, cols)
        assert m.to_dense().shape == (rows, cols)


def test_rank_matches_naive_oracle():
    rng = np.random.default_rng(1)
    for rows, cols in _random_shapes(rng, 100, max_rows=16):
        dense = rng.integers(0, 2, size=(rows, cols))
        m = GF2Matrix.from_dense(dense)
        assert np.array_equal(m.to_dense(), dense)
        assert m.rank() == naive_gf2_rank(dense.tolist())


def test_dimension_formula_on_random_subspaces():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(1, 20))
        a = Subspace.from_vectors(n, rng.integers(0, 2, size=(rng.integers(0, n + 1), n)))
        b = Subspace.from_vectors(n, rng.integers(0, 2, size=(rng.integers(0, n + 1), n)))
        lhs = subspace_sum(a, b).dim + subspace_intersection(a, b).dim
        assert lhs == a.dim + b.dim


def test_kernel_vectors_annihilated():
    rng = np.random.default_rng(3)
    for rows, cols in _random_shapes(rng, 50):
        m = GF2Matrix.from_dense(rng.integers(0, 2, size=(rows, cols)))
        k = m.kernel_basis()
        assert k.to_dense().shape == (cols - m.rank(), cols)
        for vec in k.to_dense():
            assert not m.mul_vector(vec).any()


def test_solve_row_combination_roundtrip():
    rng = np.random.default_rng(4)
    for rows, cols in _random_shapes(rng, 50):
        mat = GF2Matrix.from_dense(rng.integers(0, 2, size=(rows, cols)))
        coeff = rng.integers(0, 2, size=rows).astype(np.uint8)
        target = np.zeros(cols, dtype=np.uint8)
        dense = mat.to_dense()
        for i in np.nonzero(coeff)[0]:
            target ^= dense[i]
        solved = solve_row_combination(mat, target)
        assert solved is not None and solved.shape == (rows,)
        recon = np.zeros(cols, dtype=np.uint8)
        for i in np.nonzero(solved)[0]:
            recon ^= dense[i]
        assert np.array_equal(recon, target)


def test_mul_matches_dense_product():
    rng = np.random.default_rng(5)
    a = GF2Matrix.from_dense(rng.integers(0, 2, size=(7, 5)))
    b = GF2Matrix.from_dense(rng.integers(0, 2, size=(5, 9)))
    expect = (a.to_dense().astype(int) @ b.to_dense().astype(int)) % 2
    assert np.array_equal(a.mul(b).to_dense(), expect.astype(np.uint8))


@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_rank_bounded_by_shape(rows, cols, seed):
    rng = np.random.default_rng(seed)
    m = GF2Matrix.from_dense(rng.integers(0, 2, size=(rows, cols)))
    assert 0 <= m.rank() <= min(rows, cols)


@given(st.integers(1, 10), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_rref_is_idempotent(n, seed):
    rng = np.random.default_rng(seed)
    m = GF2Matrix.from_dense(rng.integers(0, 2, size=(n, n)))
    r1, piv1 = m.rref()
    r2, piv2 = r1.rref()
    assert r1 == r2 and piv1 == piv2


# -- apparent columns of face arrays -------------------------------------------------


def _plain_pivots(faces):
    return [-1 if p is None else p for p in reduce_columns(faces.tolist())]


def test_reduce_faces_matches_reduce_columns_on_random_faces():
    rng = np.random.default_rng(SEED + 3)
    for trial in range(400):
        n, w = int(rng.integers(0, 40)), int(rng.integers(0, 7))
        faces = rng.integers(0, int(rng.integers(1, 3 * n + 2)), (n, w))
        if n and w > 1:
            # some columns list a row twice, some three times
            twice = rng.random(n) < 0.2
            faces[twice, 1] = faces[twice, 0]
            if w > 2:
                thrice = rng.random(n) < 0.1
                faces[thrice, 1:3] = faces[thrice, :1]
        assert reduce_faces(faces).tolist() == _plain_pivots(faces), faces
        fed = faces[rng.random(n) < 0.6]
        assert reduce_faces(fed).tolist() == _plain_pivots(fed), fed


def test_reduce_faces_on_empty_arrays():
    for shape in ((0, 0), (0, 3), (4, 0)):
        faces = np.zeros(shape, dtype=np.int64)
        assert reduce_faces(faces).tolist() == [-1] * shape[0]
        assert apparent_pivots(faces).tolist() == [-1] * shape[0]


def test_lookup_lands_on_apparent_columns():
    # the boundary of a triangle: edges 01 and 12 are apparent, and edge 02
    # reduces to zero through both of them
    faces = np.array([[0, 1], [1, 2], [0, 2]])
    assert apparent_pivots(faces).tolist() == [1, 2, -1]
    assert reduce_faces(faces).tolist() == [1, 2, -1]
    # column 1 is first to list its largest row but lists it twice, so it is
    # not apparent and cancels to zero; column 2 adds apparent column 0 and
    # takes row 1
    faces = np.array([[0, 3], [2, 2], [3, 1]])
    assert apparent_pivots(faces).tolist() == [3, -1, -1]
    assert reduce_faces(faces).tolist() == [3, -1, 1] == _plain_pivots(faces)
