import math
import os

import numpy as np
import pytest

from qmdkit.fields import (BoundaryNodeError, GridMismatchError, ScalarField,
                           c1_distance, default_grad_tol, eig_sym, gradient,
                           gradient_at_nodes, hessian_at, hessian_at_nodes, stencil_mask)

from qmdkit.catalog import field_torus_height
from qmdkit.cubical import GridMask
from qmdkit.morse import Tolerances, detect_critical_set, flatten

from _oracles import (hessian, oracle_gradient_at_nodes, oracle_hessian_at_nodes,
                      sturm_eigenvalues)

SEED = int(os.environ.get("QMD_SEED", "0"))


def _plane(fn, n=17, lo=-1.0):
    h = 2.0 * abs(lo) / (n - 1)
    return ScalarField.sample((n, n), (h, h), (False, False), fn,
                              origin=(lo, lo))


def test_field_copies_its_source_array():
    base = np.zeros((4, 4))
    f = ScalarField((4, 4), (1.0, 1.0), (False, False), base)
    view = ScalarField((4, 4), (1.0, 1.0), (False, False), base[:, :])
    flat = ScalarField((4, 4), (1.0, 1.0), (False, False), base.ravel())
    base[1, 1] = 5.0
    for field in (f, view, flat):
        assert field.values.sum() == 0.0
        assert not np.shares_memory(field.values, base)


def test_field_equality_and_hash_follow_the_values():
    f = _plane(lambda x, y: x * y)
    same = ScalarField(f.dims, f.spacing, f.periodic, f.values.copy())
    assert f == same and hash(f) == hash(same) and len({f, same}) == 1
    for other in (f.with_values(f.values + 1e-12),
                  ScalarField(f.dims, f.spacing, (True, False), f.values),
                  ScalarField(f.dims, (0.5, f.spacing[1]), f.periodic, f.values),
                  ScalarField((289,), (0.125,), (False,), f.values)):
        assert f != other
    assert f != GridMask(f.dims, f.periodic, np.ones(f.dims, bool)) and f != "f"
    # -0.0 == 0.0, so the two fields are equal and hash alike
    zero = ScalarField((3, 2), (1.0, 1.0), (False, True), np.zeros((3, 2)))
    negative_zero = zero.with_values(-np.zeros((3, 2)))
    assert np.signbit(negative_zero.values).all()
    assert zero == negative_zero and hash(zero) == hash(negative_zero)


def test_flatten_result_equality_compares_fields():
    f = ScalarField.sample((33,), (1.0 / 16.0,), (False,), lambda x: x * x,
                           origin=(-1.0,))
    crit = detect_critical_set(f, 1e-6)
    first = flatten(f, 0.02, crit, Tolerances())
    again = flatten(f, 0.02, crit, Tolerances())
    assert first == again and hash(first) == hash(again)
    assert first != flatten(f, 0.2, crit, Tolerances())


def test_hessian_exact_for_quadratic():
    f = _plane(lambda x, y: x * x + y * y)
    H = hessian_at(f, (8, 8))
    assert np.allclose(H, np.diag([2.0, 2.0]), atol=1e-12)


def test_hessian_saddle():
    f = _plane(lambda x, y: x * x - y * y)
    H = hessian_at(f, (8, 8))
    assert np.allclose(H, np.diag([2.0, -2.0]), atol=1e-12)


def test_hessian_mixed_term():
    f = _plane(lambda x, y: x * y)
    H = hessian_at(f, (8, 8))
    assert np.allclose(H, [[0, 1], [1, 0]], atol=1e-12)


def test_flat_quartic_hessian_is_small():
    n = 17
    h = 2.0 / (n - 1)
    f = ScalarField.sample((n,), (h,), (False,), lambda x: x ** 4, origin=(-1.0,))
    H = hessian_at(f, (8,))
    assert abs(H[0, 0] - 2.0 * h * h) < 1e-12  # exact truncation-error value


def test_hessian_second_order_convergence():
    # quartic away from the flat point: error halves by 4x per refinement
    errs = []
    for n in (17, 33, 65):
        h = 2.0 / (n - 1)
        f = ScalarField.sample((n,), (h,), (False,), lambda x: x ** 4,
                               origin=(-1.0,))
        node = ((n - 1) * 3 // 4,)
        x = -1.0 + node[0] * h
        errs.append(abs(hessian_at(f, node)[0, 0] - 12.0 * x * x))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


def test_boundary_node_rejected():
    f = _plane(lambda x, y: x * x + y * y)
    with pytest.raises(BoundaryNodeError):
        hessian_at(f, (0, 5))


def test_periodic_axis_has_no_boundary():
    n = 16
    h = 2 * math.pi / n
    f = ScalarField.sample((n,), (h,), (True,), np.sin)
    H = hessian_at(f, (0,))
    assert H.shape == (1, 1)


def _gather_grids(rng):
    """Random 1-D to 4-D grids, axes of size 1 to 6 and mixed periodicity;
    every fourth has periodic axes of size 1 or 2, whose stencils meet the
    node itself.  Asserts that 4-D grids with mixed axes, periodic axes of
    size 1 and 2 and grids with no stencil-valid node all occur."""
    seen = set()
    for i in range(120):
        d = int(rng.integers(1, 5))
        periodic = tuple(bool(p) for p in rng.integers(0, 2, d))
        dims = tuple(int(n) for n in rng.integers(1, 7, d))
        if i % 4 == 0:
            dims = tuple(int(rng.choice([1, 2])) if p else n
                         for n, p in zip(dims, periodic))
        spacing = tuple(float(h) for h in rng.uniform(0.1, 2.0, d))
        f = ScalarField(dims, spacing, periodic, rng.normal(size=dims))
        seen.update(n for n, p in zip(dims, periodic) if p)
        if d == 4 and len(set(periodic)) == 2:
            seen.add("4-D mixed")
        if not stencil_mask(f).any():
            seen.add("no valid node")
        yield f
    assert {1, 2, "4-D mixed", "no valid node"} <= seen


def test_hessian_field_matches_hessian_at_bit_for_bit():
    """`hessian`, `hessian_at` and the flat-index gather agree with each
    other and with the coordinate gather they replaced, at any node order
    and on an empty node array."""
    for f in _gather_grids(np.random.default_rng(SEED)):
        d = f.ndim
        H, valid = hessian(f)
        assert H.shape == f.dims + (d, d)
        assert np.array_equal(valid, stencil_mask(f))
        assert not H[~valid].any()
        nodes = np.argwhere(valid)
        G = hessian_at_nodes(f, nodes)
        assert G.shape == (len(nodes), d, d)
        assert G.tobytes() == oracle_hessian_at_nodes(f, nodes).tobytes()
        assert np.array_equal(G, H[valid])
        assert np.array_equal(hessian_at_nodes(f, nodes[::-1]), G[::-1])
        assert hessian_at_nodes(f, np.zeros((0, d), dtype=int)).shape == (0, d, d)
        for node, Hn in zip(map(tuple, nodes), G):
            assert np.array_equal(Hn, hessian_at(f, node))


def test_eig_diag():
    w, _ = eig_sym(np.diag([2.0, -2.0]))
    assert np.allclose(w, [-2.0, 2.0])


def test_eig_reflection():
    w, V = eig_sym(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0])
    for i, lam in enumerate(w):
        assert np.allclose(np.array([[0, 1], [1, 0]]) @ V[:, i], lam * V[:, i])


def test_eig_rejects_asymmetric():
    with pytest.raises(ValueError):
        eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_matches_sturm_bisection_oracle():
    rng = np.random.default_rng(7)
    for _ in range(60):
        A = rng.normal(size=(5, 5))
        A = A + A.T
        w, _ = eig_sym(A)
        assert np.allclose(w, sturm_eigenvalues(A), atol=1e-8)


def test_eigenvectors_satisfy_definition():
    rng = np.random.default_rng(8)
    for _ in range(20):
        A = rng.normal(size=(4, 4))
        A = A + A.T
        w, V = eig_sym(A)
        assert np.allclose(A @ V, V @ np.diag(w), atol=1e-9)


def test_gradient_of_linear_field_is_exact():
    f = _plane(lambda x, y: 3.0 * x - 2.0 * y)
    g, valid = gradient(f)
    assert np.allclose(g[valid][:, 0], 3.0)
    assert np.allclose(g[valid][:, 1], -2.0)


def test_gradient_at_nodes_matches_gradient_bit_for_bit():
    """The flat-index gather equals `gradient` and the coordinate gather it
    replaced, at any node order and on an empty node array."""
    for f in _gather_grids(np.random.default_rng(SEED + 1)):
        grad, valid = gradient(f)
        nodes = np.argwhere(valid)
        G = gradient_at_nodes(f, nodes)
        assert G.shape == (len(nodes), f.ndim)
        assert G.tobytes() == grad[valid].tobytes()
        assert G.tobytes() == oracle_gradient_at_nodes(f, nodes).tobytes()
        assert gradient_at_nodes(f, nodes[::-1]).tobytes() == G[::-1].tobytes()
        assert gradient_at_nodes(f, np.zeros((0, f.ndim), dtype=int)).shape == (0, f.ndim)


def test_c1_distance_to_self_is_zero():
    f = _plane(lambda x, y: x * y + y * y)
    assert c1_distance(f, f) == 0.0


def test_c1_distance_grid_mismatch():
    f = _plane(lambda x, y: x, n=17)
    g = _plane(lambda x, y: x, n=9)
    with pytest.raises(GridMismatchError):
        c1_distance(f, g)


def test_default_grad_tol_positive():
    f = _plane(lambda x, y: x * x)
    assert default_grad_tol(f) > 0


def test_field_json_roundtrip():
    f = _plane(lambda x, y: x * y, n=5)
    g = ScalarField.from_json(f.to_json())
    assert g.same_grid(f) and np.array_equal(g.values, f.values)


def test_field_needs_an_axis():
    with pytest.raises(ValueError, match="a field needs at least one axis"):
        ScalarField((), (), (), np.array(1.0))


def test_sample_rejects_nonfinite():
    with pytest.raises(ValueError):
        ScalarField((2,), (1.0,), (False,), np.array([1.0, np.inf]))


def test_node_off_the_grid_rejected():
    """A node has one index per axis, each in [0, n): on a torus, which has
    no boundary, a node with more indices or one past an axis's end raises
    rather than being read modulo the grid."""
    f = field_torus_height()
    for node in ((8, 0, 24, 0), (40, 0), (-1, 0), (8,)):
        with pytest.raises(BoundaryNodeError):
            hessian_at(f, node)
    assert hessian_at(f, (8, 0)).shape == (2, 2)


def test_gathers_check_their_node_array():
    """The gathers refuse what `hessian_at` refuses, for the whole array at
    once: a node past an axis's end is not read modulo the grid, an array
    that is not (n, d) is not reshaped into nodes, a float array and a node
    on an open boundary raise too; an empty (0, d) array still works."""
    f = field_torus_height()
    for gather in (gradient_at_nodes, hessian_at_nodes):
        for nodes in (np.array([[40, 0]]), np.array([[8, 0], [8, -1]]),
                      np.array([[8, 0, 1], [2, 3, 4]]), np.array([8, 0]),
                      np.array([[8.0, 0.0]])):
            with pytest.raises(BoundaryNodeError):
                gather(f, nodes)
        assert gather(f, np.zeros((0, 2), dtype=int)).shape[0] == 0
        assert gather(f, np.array([[8, 0], [31, 31]])).shape[0] == 2
    plane = _plane(lambda x, y: x * y)
    with pytest.raises(BoundaryNodeError, match="stencil leaves the grid"):
        hessian_at_nodes(plane, np.array([[4, 4], [0, 4]]))
    with pytest.raises(BoundaryNodeError, match="not a node of the grid"):
        gradient_at_nodes(plane, np.array([[4, 4], [4, 17]]))
