import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from qmdkit import cubical
from qmdkit.cubical import (EmptyMaskError, GridMask, betti, betti_of_mask, betti_product_check,
                            build_complex, crop, join)
from qmdkit.gf2 import apparent_pivots, reduce_columns, reduce_faces

from _oracles import (oracle_betti, oracle_build_complex, oracle_doubled_grid_complex,
                      oracle_reduction_betti, validate_boundary)

SEED = int(os.environ.get("QMD_SEED", "0"))


def test_single_square_cell_counts():
    cx = build_complex(GridMask.full((1, 1), (False, False)))
    assert [cx.n_cells(k) for k in range(3)] == [4, 4, 1]


def test_periodic_line_is_a_circle():
    n = 8
    cx = build_complex(GridMask.full((n,), (True,)))
    assert cx.n_cells(0) == n and cx.n_cells(1) == n
    assert betti(cx) == (1, 1)


def test_annulus_euler_characteristic_zero():
    cx = build_complex(GridMask.full((8, 3), (True, False)))
    # V = 8*4, E = 8*4 + 8*3, F = 8*3
    assert (cx.n_cells(0), cx.n_cells(1), cx.n_cells(2)) == (32, 56, 24)
    assert cx.euler_characteristic() == 0


def test_point_betti():
    assert betti_of_mask(GridMask.full((1,), (False,))) == (1, 0)


def test_circle_betti():
    assert betti_of_mask(GridMask.full((12,), (True,))) == (1, 1)


def test_annulus_betti():
    assert betti_of_mask(GridMask.full((8, 3), (True, False))) == (1, 1, 0)


def test_torus_betti():
    assert betti_of_mask(GridMask.full((5, 7), (True, True))) == (1, 2, 1)


def test_degenerate_one_cell_torus():
    assert betti_of_mask(GridMask.full((1, 1), (True, True))) == (1, 2, 1)


def test_empty_mask_rejected():
    with pytest.raises(EmptyMaskError):
        build_complex(GridMask((2, 2), (False, False), np.zeros((2, 2), bool)))


def test_kunneth_convolution_rules():
    assert betti_product_check((1, 1), (1, 1)) == (1, 2, 1)
    assert betti_product_check((1,), (1, 4, 2)) == (1, 4, 2)
    assert betti_product_check((1, 2, 1), (1, 1)) == (1, 3, 3, 1)


def test_product_mask_realizes_kunneth():
    circle = GridMask.full((6,), (True,))
    interval = GridMask.full((4,), (False,))
    annulus = circle.product(interval)
    assert betti_of_mask(annulus) == (1, 1, 0)
    torus = circle.product(GridMask.full((5,), (True,)))
    assert betti_of_mask(torus) == (1, 2, 1)
    expected = betti_product_check(betti_of_mask(circle), betti_of_mask(interval))
    assert betti_of_mask(annulus) == expected


def test_betti_invariant_under_refinement():
    masks = [GridMask.full((6,), (True,)),
             GridMask.full((4, 3), (True, False)),
             GridMask.full((3, 3), (True, True))]
    cells = np.ones((5, 5), bool)
    cells[2, 2] = False
    masks.append(GridMask((5, 5), (False, False), cells))
    for mask in masks:
        assert betti_of_mask(mask.refine(2)) == betti_of_mask(mask)


def test_euler_characteristic_equals_alternating_betti():
    cells = np.ones((6, 6), bool)
    cells[2:4, 2:4] = False
    cx = build_complex(GridMask((6, 6), (False, False), cells))
    b = betti(cx)
    assert cx.euler_characteristic() == sum((-1) ** k * v for k, v in enumerate(b))


def test_mask_json_roundtrip():
    cells = np.zeros((3, 4), bool)
    cells[1, 2] = cells[0, 0] = True
    mask = GridMask((3, 4), (True, False), cells)
    assert GridMask.from_json(mask.to_json()) == mask


def test_mask_copies_its_source_array():
    base = np.ones((4, 4), bool)
    mask = GridMask((4, 4), (False, False), base)
    before = hash(mask)
    base[1:3, 1:3] = False
    assert hash(mask) == before and mask.count() == 16
    assert betti_of_mask(mask) == (1, 0, 0)


def test_mask_copies_the_base_of_a_view():
    base = np.ones((4, 4), bool)
    mask = GridMask((4, 4), (False, False), base[:, :])
    before = hash(mask)
    base[1:3, 1:3] = False
    assert hash(mask) == before
    assert betti_of_mask(mask) == (1, 0, 0)


@given(st.integers(1, 4), st.integers(1, 4), st.booleans(), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_boundary_squares_to_zero(n0, n1, p0, p1, seed):
    rng = np.random.default_rng(seed)
    cells = rng.random((n0, n1)) < 0.6
    if not cells.any():
        cells[0, 0] = True
    cx = build_complex(GridMask((n0, n1), (p0, p1), cells))
    validate_boundary(cx)


@given(st.integers(2, 5), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_components_of_scattered_cells_add_up(n, seed):
    rng = np.random.default_rng(seed)
    cells = rng.random((n, n)) < 0.5
    if not cells.any():
        cells[0, 0] = True
    b = betti_of_mask(GridMask((n, n), (False, False), cells))
    assert b[0] >= 1
    cx = build_complex(GridMask((n, n), (False, False), cells))
    assert cx.euler_characteristic() == sum((-1) ** k * v for k, v in enumerate(b))


def _assert_matches_oracle(mask):
    """Same cell counts and boundaries as the dense oracle of the crop, the
    boundaries compared through the bijection between a doubled-grid
    coordinate c and (anchor c // 2, extent c % 2) per axis, and the Betti
    numbers of the dense oracle of the uncropped mask."""
    cx, oracle = build_complex(mask), oracle_build_complex(crop(mask))
    validate_boundary(cx)
    assert [cx.n_cells(k) for k in range(mask.ndim + 1)] == \
        [len(level) for level in oracle.cells_by_dim], mask
    assert betti(cx) == oracle_betti(oracle_build_complex(mask)), mask
    oracle_index = []
    for k, cells in enumerate(cx.cells_by_dim):
        position = {cell: i for i, cell in enumerate(oracle.cells_by_dim[k])}
        coords = zip(*np.unravel_index(cells, cx.grid_shape))
        oracle_index.append(np.array(
            [position[(tuple(int(c) // 2 for c in cell), tuple(int(c) % 2 for c in cell))]
             for cell in coords], dtype=int))
    for k in range(1, mask.ndim + 1):
        dense = np.zeros((cx.n_cells(k - 1), cx.n_cells(k)), dtype=np.int64)
        np.add.at(dense, (oracle_index[k - 1][cx.boundary[k]], oracle_index[k][:, None]), 1)
        assert np.array_equal(dense % 2, oracle.boundary[k].to_dense()), (mask, k)


def test_sparse_engine_matches_dense_oracle():
    for dims, periodic in (((1,), (True,)), ((1, 1), (True, True)), ((1, 3), (True, False)),
                           ((2, 1, 3), (False, True, True)), ((1, 1, 1, 2), (True,) * 4)):
        _assert_matches_oracle(GridMask.full(dims, periodic))
    rng = np.random.default_rng(SEED + 11)
    max_side = {1: 9, 2: 6, 3: 4, 4: 3}
    for trial in range(120):
        ndim = 1 + trial % 4
        dims = tuple(int(n) for n in rng.integers(1, max_side[ndim] + 1, ndim))
        periodic = tuple(bool(p) for p in rng.random(ndim) < 0.5)
        cells = rng.random(dims) < rng.uniform(0.3, 0.9)
        cells.flat[int(rng.integers(cells.size))] = True
        _assert_matches_oracle(GridMask(dims, periodic, cells))


def _assert_same_arrays(mask, reverse=False):
    """The arrays of the per-cell builder on the crop, the same dtype, shape
    and values; the face arrays read from boundary_0 up, or from boundary_d
    down when `reverse`."""
    cx, ref = build_complex(mask), oracle_doubled_grid_complex(crop(mask))
    assert len(cx.cells_by_dim) == len(ref.cells_by_dim), mask
    assert cx.boundary.keys() == ref.boundary.keys(), mask
    keys = sorted(ref.boundary, reverse=reverse)
    pairs = list(zip(cx.cells_by_dim, ref.cells_by_dim))
    pairs += [(cx.boundary[k], ref.boundary[k]) for k in keys]
    for got, want in pairs:
        assert got.dtype == want.dtype and got.shape == want.shape, mask
        assert np.array_equal(got, want), mask


def test_per_type_builder_matches_per_cell_builder():
    """``build_complex`` returns the arrays of the per-cell builder it replaced:
    the same cells and face rows in the same slots, so every pivot agrees."""
    masks = [GridMask((), (), True)]
    for dims in ((1,), (2,), (1, 1), (2, 1), (1, 2, 2), (3, 3, 3), (2, 1, 2, 1)):
        masks.append(GridMask.full(dims, (True,) * len(dims)))
    rng = np.random.default_rng(SEED + 23)
    max_side = {1: 12, 2: 9, 3: 6, 4: 3}
    for trial in range(240):
        ndim = 1 + trial % 4
        dims = tuple(int(n) for n in rng.integers(1, max_side[ndim] + 1, ndim))
        if trial % 6 == 0:
            dims = tuple(int(n) for n in rng.integers(1, 3, ndim))
        periodic = tuple(bool(p) for p in rng.random(ndim) < 0.4)
        kind = trial % 4
        if kind == 0:
            cells = rng.random(dims) < rng.uniform(0.2, 0.9)
        else:
            # a random box, so the crop has margins to remove: anywhere
            # (kind 1), from the low end of every axis (2), or spanning
            # axis 0 end to end (3)
            lo = [int(rng.integers(0, n)) for n in dims]
            hi = [int(rng.integers(l, n)) + 1 for l, n in zip(lo, dims)]
            if kind == 2:
                lo = [0] * ndim
            if kind == 3:
                lo[0], hi[0] = 0, dims[0]
            cells = np.zeros(dims, bool)
            box = tuple(slice(l, h) for l, h in zip(lo, hi))
            cells[box] = rng.random(cells[box].shape) < rng.uniform(0.5, 1.0)
        if trial % 8 == 1:
            cells = np.zeros(dims, bool)
        cells.flat[int(rng.integers(cells.size))] = True
        masks.append(GridMask(dims, periodic, cells))
    for n in (9, 17):
        small = np.zeros((n, n, n), bool)
        small[n // 2 - 1:n // 2 + 2, n // 2, n // 2 - 2:n // 2 + 1] = True
        masks.append(GridMask(small.shape, (False,) * 3, small))
        masks.append(GridMask(small.shape, (False, True, False), small))
    # the crop of a periodic axis at its seam: cells in the last slab(s)
    # only, so the run ends at n - 1; runs that straddle the seam; one slab
    # on an axis of 2; and the empty run at every position of the axis
    for n in (2, 3, 7):
        for p0 in (False, True):
            for first in range(n):
                for size in range(1, n + 1):
                    cells = np.zeros((n, 3), bool)
                    cells[(first + np.arange(size)) % n, 1] = True
                    masks.append(GridMask((n, 3), (True, p0), cells))
                    masks.append(GridMask((3, n), (p0, True), cells.T))
    for cells in (np.zeros((5, 6, 4), bool), np.zeros((4, 4, 4, 3), bool)):
        cells[(-1, 0) + (slice(1, 3),) * (cells.ndim - 2)] = True
        cells[-2, (-1,) * (cells.ndim - 1)] = True
        masks.append(GridMask(cells.shape, (True,) * cells.ndim, cells))
    for mask in masks:
        _assert_same_arrays(mask)
        _assert_same_arrays(mask, reverse=True)


def _recorded_builds(monkeypatch):
    """The k of every face array built from here on, in build order."""
    built, face_rows = [], cubical._face_rows

    def recording(*args):
        built.append(args[-1])
        return face_rows(*args)
    monkeypatch.setattr(cubical, "_face_rows", recording)
    return built


def test_betti_builds_only_the_faces_it_reads(monkeypatch):
    """``build_complex`` builds no face array.  ``betti`` of a 1-, 2- or 3-D
    mask, open, mixed or periodic, builds boundary_1 alone, of a 4-D mask
    boundary_1, boundary_2 and boundary_3, each once, and of a 0-D mask
    none."""
    built = _recorded_builds(monkeypatch)
    cx = build_complex(GridMask((), (), True))
    assert betti(cx) == (1,) and built == []
    rng = np.random.default_rng(SEED + 79)
    seen = set()
    for trial in range(72):
        d = 1 + trial % 4
        dims = tuple(int(n) for n in rng.integers(1, (7 if d < 4 else 3) + 1, d))
        kind = trial // 4 % 3
        periodic = (tuple(bool(p) for p in rng.random(d) < 0.5), (False,) * d, (True,) * d)[kind]
        cells = rng.random(dims) < rng.uniform(0.3, 1.0) if trial % 9 else np.ones(dims, bool)
        cells.flat[int(rng.integers(cells.size))] = True
        mask = GridMask(dims, periodic, cells)
        want = oracle_reduction_betti(build_complex(mask))
        built.clear()
        cx = build_complex(mask)
        assert built == [], mask
        assert betti(cx) == betti(cx) == want, mask
        assert sorted(built) == ([1] if d < 4 else [1, 2, 3]), mask
        built.clear()
        seen.add((d, kind))
    assert len(seen) == 12


def test_shared_arrays_are_read_only():
    """Every cell array and face array is read-only, and ``boundary`` is a
    read-only mapping with keys 0..d that builds nothing to answer ``in``."""
    cx = build_complex(GridMask.full((3, 4, 2), (True, False, True)))
    assert list(cx.boundary) == [0, 1, 2, 3] and len(cx.boundary) == 4
    assert 4 not in cx.boundary and -1 not in cx.boundary and "1" not in cx.boundary
    for k in (4, -1, "1"):
        with pytest.raises(KeyError):
            cx.boundary[k]
    with pytest.raises(TypeError):
        cx.boundary[1] = cx.boundary[1].copy()
    with pytest.raises(ValueError):
        cx.boundary[1][0, 0] = 1
    for array in cx.cells_by_dim + tuple(cx.boundary.values()):
        with pytest.raises(ValueError):
            array[...] = 0


def test_first_reads_from_two_threads_agree():
    """Two threads that first read every face array of one complex at once,
    in opposite orders, get the same arrays, equal to those of a complex
    read by one thread."""
    masks = [GridMask.full((6, 5, 4), (True, False, True)),
             GridMask.full((3, 2, 3, 2), (True,) * 4)]
    rng = np.random.default_rng(SEED + 83)
    for dims in ((40, 37), (9, 8, 10), (4, 3, 4, 3)):
        masks.append(GridMask(dims, tuple(rng.random(len(dims)) < 0.5), rng.random(dims) < 0.7))
    for mask in masks:
        want = build_complex(mask).boundary
        for _ in range(4):
            cx, barrier = build_complex(mask), threading.Barrier(2)

            def read(keys):
                barrier.wait()
                return {k: cx.boundary[k] for k in keys}
            keys = list(cx.boundary)
            with ThreadPoolExecutor(max_workers=2) as pool:
                first, second = pool.map(read, (keys, keys[::-1]))
            for k in keys:
                assert first[k] is second[k], (mask, k)
                assert first[k].dtype == want[k].dtype and np.array_equal(first[k], want[k])


def test_square_with_three_holes_at_128():
    cells = np.ones((128, 128), bool)
    cells[10:30, 10:40] = False
    cells[60:61, 60:100] = False
    cells[100:120, 20:21] = False
    assert betti_of_mask(GridMask((128, 128), (False, False), cells)) == (1, 3, 0)


def test_cube_with_two_cavities_at_16():
    cells = np.ones((16, 16, 16), bool)
    cells[2:5, 3:7, 4:6] = False
    cells[9:13, 10:11, 8:14] = False
    assert betti_of_mask(GridMask((16, 16, 16), (False,) * 3, cells)) == (1, 0, 2, 0)


def test_apparent_pass_matches_plain_reduction_on_every_boundary():
    """Column by column, ``reduce_faces`` gives the pivots of ``reduce_columns``
    on the columns of the full top-down reduction with clearing
    (``oracle_reduction_betti``), in every dimension of random masks,
    periodic axes of size 1 and 2 and whole tori among them."""
    rng = np.random.default_rng(SEED + 17)
    masks = [GridMask.full(dims, (True,) * len(dims))
             for dims in ((1,), (2,), (1, 1), (2, 2), (3, 1), (5, 4), (2, 1, 2), (3, 3, 3))]
    max_side = {1: 9, 2: 7, 3: 4}
    for trial in range(90):
        ndim = 1 + trial % 3
        dims = tuple(int(n) for n in rng.integers(1, max_side[ndim] + 1, ndim))
        if trial % 5 == 0:
            dims = tuple(int(n) for n in rng.integers(1, 3, ndim))
        periodic = tuple(bool(p) for p in rng.random(ndim) < 0.5)
        cells = rng.random(dims) < rng.uniform(0.3, 1.0)
        cells.flat[int(rng.integers(cells.size))] = True
        masks.append(GridMask(dims, periodic, cells))
    for mask in masks:
        cx = build_complex(mask)
        cleared = np.zeros(cx.n_cells(mask.ndim), dtype=bool)
        for k in range(mask.ndim, 0, -1):
            fed = cx.boundary[k][~cleared]
            pivots = reduce_faces(fed)
            assert pivots.tolist() == [-1 if p is None else p
                                       for p in reduce_columns(fed.tolist())], (mask, k)
            cleared = np.zeros(cx.n_cells(k - 1), dtype=bool)
            cleared[pivots[pivots >= 0]] = True


def _betti_masks(seed):
    """Random 0-4-D masks with open and periodic axes, sizes 1 and 2 among
    them, whole tori and tori with one hole."""
    rng = np.random.default_rng(seed)
    masks = [GridMask((), (), True)]
    for dims in ((1,), (2,), (5,), (1, 1), (1, 2), (2, 2), (4, 3), (2, 1, 2), (3, 3, 3),
                 (1, 2, 1, 2), (3, 2, 2, 3)):
        whole = GridMask.full(dims, (True,) * len(dims))
        masks.append(whole)
        if whole.count() > 1:
            holed = whole.cells.copy()
            holed.flat[int(rng.integers(holed.size))] = False
            masks.append(GridMask(dims, whole.periodic, holed))
    max_side = {1: 9, 2: 6, 3: 4, 4: 3}
    for trial in range(160):
        ndim = 1 + trial % 4
        dims = tuple(int(n) for n in rng.integers(1, max_side[ndim] + 1, ndim))
        if trial % 5 == 0:
            dims = tuple(int(n) for n in rng.integers(1, 3, ndim))
        periodic = tuple(bool(p) for p in rng.random(ndim) < 0.5)
        cells = rng.random(dims) < rng.uniform(0.3, 1.0)
        if trial % 6 == 1:
            periodic = (True,) * ndim
            cells = np.ones(dims, bool)
            cells.flat[int(rng.integers(cells.size))] = False
        cells.flat[int(rng.integers(cells.size))] = True
        masks.append(GridMask(dims, periodic, cells))
    return masks


def test_betti_matches_the_reduction_and_dense_oracles():
    """``betti`` equals every boundary reduced with clearing and the dense
    ranks of the tuple-cell complex."""
    for mask in _betti_masks(SEED + 29):
        cx = build_complex(mask)
        assert betti(cx) == oracle_reduction_betti(cx) == \
            oracle_betti(oracle_build_complex(mask)), mask


def test_union_find_gives_the_rank_of_the_bottom_boundary():
    """rank boundary_1 = n_0 - b_0, b_0 the roots of ``join`` over the edges."""
    for mask in _betti_masks(SEED + 31):
        if mask.ndim == 0:
            continue
        cx = build_complex(mask)
        edges = cx.boundary[1]
        b0 = len(np.unique(join(cx.n_cells(0), edges[:, 0], edges[:, 1])))
        rank = sum(p is not None for p in reduce_columns(edges.tolist()))
        assert rank == cx.n_cells(0) - b0, mask


def test_top_rank_is_the_cells_less_the_fundamental_class():
    """rank boundary_d = n_d - 1 on a whole torus and n_d otherwise."""
    for mask in _betti_masks(SEED + 37):
        d = mask.ndim
        if d < 2:
            continue
        cx = build_complex(mask)
        whole = all(mask.periodic) and bool(mask.cells.all())
        rank = int(np.count_nonzero(reduce_faces(cx.boundary[d]) >= 0))
        assert rank == cx.n_cells(d) - whole, mask


def test_apparent_clearing_keeps_the_rank_of_full_clearing():
    """Clearing boundary_{d-1} by the apparent pivots of boundary_d alone
    gives the same rank as clearing it by all of its pivots."""
    for mask in _betti_masks(SEED + 41):
        d = mask.ndim
        if d < 2:
            continue
        cx = build_complex(mask)
        ranks = []
        for pivots in (apparent_pivots(cx.boundary[d]), reduce_faces(cx.boundary[d])):
            cleared = np.zeros(cx.n_cells(d - 1), dtype=bool)
            cleared[pivots[pivots >= 0]] = True
            ranks.append(int(np.count_nonzero(reduce_faces(cx.boundary[d - 1][~cleared]) >= 0)))
        assert ranks[0] == ranks[1], mask


def _holed(dims, periodic, holes):
    cells = np.ones(dims, bool)
    for hole in holes:
        cells[hole] = False
    return GridMask(dims, periodic, cells)


def test_betti_reduces_no_column_below_three_dimensions(monkeypatch):
    def refuse(faces):
        raise AssertionError("a boundary was reduced")
    monkeypatch.setattr(cubical, "reduce_faces", refuse)
    monkeypatch.setattr(cubical, "apparent_pivots", refuse)
    assert betti_of_mask(GridMask.full((9,), (True,))) == (1, 1)
    assert betti_of_mask(_holed((12, 12), (False, False),
                                [np.s_[2:4, 2:5], np.s_[7:9, 6:10]])) == (1, 2, 0)
    assert betti_of_mask(_holed((8, 10), (True, True), [np.s_[3, 4]])) == (1, 2, 0)
    assert betti_of_mask(GridMask.full((8, 10), (True, True))) == (1, 2, 1)


def test_betti_reduces_no_column_in_three_dimensions(monkeypatch):
    """b_2 comes by duality in the 3-torus, so no 3-D mask, open, mixed or
    periodic on its crop, reduces a boundary."""
    def refuse(faces):
        raise AssertionError("a boundary was reduced")
    monkeypatch.setattr(cubical, "reduce_faces", refuse)
    monkeypatch.setattr(cubical, "apparent_pivots", refuse)
    mask = _holed((10, 10, 10), (False, True, False), [np.s_[2:4, 2:4, 2:4], np.s_[6, 6:8, 6]])
    assert betti_of_mask(mask) == (1, 1, 2, 0)
    assert betti_of_mask(GridMask.full((4, 3, 2), (True,) * 3)) == (1, 3, 3, 1)
    assert betti_of_mask(_holed((4, 3, 2), (True,) * 3, [np.s_[1, 2, 0]])) == (1, 3, 3, 0)
    slab = np.zeros((24, 24, 24), dtype=bool)
    slab[:, :, 5] = True    # T^2 x I, its crop one slab thick
    assert betti_of_mask(GridMask(slab.shape, (True,) * 3, slab)) == (1, 2, 1, 0)
    for mask in _three_dimensional_masks(SEED + 53)[:40]:
        betti_of_mask(mask)


def test_betti_reduces_one_boundary_in_four_dimensions(monkeypatch):
    """b_3 comes by duality in the 4-torus: one reduction, of boundary_2
    (two faces per odd axis, four per column), cleared by the apparent
    pivots of boundary_3."""
    calls = []

    def counted(faces):
        calls.append(faces.shape[1])
        return reduce_faces(faces)
    monkeypatch.setattr(cubical, "reduce_faces", counted)
    masks = [GridMask.full((2, 3, 2, 2), (True,) * 4),
             _holed((4, 3, 4, 3), (True, False, True, True), [np.s_[1:3, 1, 1:3, :]])]
    masks += [mask for mask in _betti_masks(SEED + 79) if mask.ndim == 4][:12]
    for mask in masks:
        calls.clear()
        cx = build_complex(mask)
        assert betti(cx) == oracle_reduction_betti(cx), mask
        assert calls == [4], mask


def test_whole_torus_at_256_squared():
    assert betti_of_mask(GridMask.full((256, 256), (True, True))) == (1, 2, 1)


def test_whole_three_torus_at_32_cubed():
    assert betti_of_mask(GridMask.full((32, 32, 32), (True,) * 3)) == (1, 3, 3, 1)


def test_torus_with_one_hole_at_128_squared():
    assert betti_of_mask(_holed((128, 128), (True, True), [np.s_[40:50, 60:75]])) == (1, 2, 0)


def test_betti_of_mask_cuts_periodic_axes_open_at_a_gap():
    """``betti_of_mask``, built on the cut, equals ``betti`` of the uncropped
    periodic complex and the reduction oracle on random 1-D to 4-D masks
    whose periodic axes have runs of empty slabs (some across the seam) or
    none."""
    rng = np.random.default_rng(SEED + 43)
    max_side = {1: 9, 2: 7, 3: 5, 4: 3}
    seen = set()
    for trial in range(200):
        ndim = 1 + trial % 4
        dims = tuple(int(n) for n in rng.integers(1, max_side[ndim] + 1, ndim))
        periodic = tuple(bool(p) for p in rng.random(ndim) < 0.7)
        cells = rng.random(dims) < rng.uniform(0.3, 1.0)
        for a in range(ndim):
            if rng.random() < 0.5:
                run = (int(rng.integers(dims[a])) + np.arange(rng.integers(dims[a]))) % dims[a]
                cells[(slice(None),) * a + (run,)] = False
        cells.flat[int(rng.integers(cells.size))] = True
        mask = GridMask(dims, periodic, cells)
        gaps = [p and not cells.any(axis=tuple(b for b in range(ndim) if b != a)).all()
                for a, p in enumerate(periodic)]
        seen.add(any(gaps))
        cx = oracle_doubled_grid_complex(mask)
        assert betti_of_mask(mask) == betti(cx) == oracle_reduction_betti(cx), mask
    assert seen == {False, True}


def test_small_mask_in_a_large_torus_is_cut_open():
    """A 3x5 ring on a 256^2 torus, across the seam and in the middle of
    the grid, is built on open axes of its own size."""
    for rows in ([255, 0, 1], [127, 128, 129]):
        cells = np.zeros((256, 256), dtype=bool)
        cells[np.ix_(rows, range(100, 105))] = True
        cells[rows[1], 102] = False
        mask = GridMask((256, 256), (True, True), cells)
        cx = build_complex(mask)
        assert (cx.dims, cx.periodic) == ((3, 5), (False, False))
        assert betti_of_mask(mask) == betti(cx) == oracle_reduction_betti(cx) == (1, 1, 0)
        _assert_same_arrays(mask)


def _three_dimensional_masks(seed):
    """Random 3-D masks, open, mixed and periodic: axes 1-8 (sizes 1 and 2
    among them), fill 0.3-0.95, single cells, masks that touch every face
    of the grid and masks cut to a box inside it, whole tori and tori with
    one empty cell, and a one-slab T^2 x I in a 24^3 torus."""
    rng = np.random.default_rng(seed)
    masks = [GridMask.full((1, 1, 1), (False,) * 3), GridMask.full((2, 1, 3), (False,) * 3)]
    for dims in ((1, 1, 1), (2, 1, 2), (3, 2, 4), (1, 5, 2)):
        whole = GridMask.full(dims, (True,) * 3)
        masks.append(whole)
        if whole.count() > 1:
            holed = whole.cells.copy()
            holed.flat[int(rng.integers(holed.size))] = False
            masks.append(GridMask(dims, whole.periodic, holed))
    for trial in range(90):
        dims = tuple(int(n) for n in rng.integers(1, 9, 3))
        if trial % 4 == 3:
            dims = tuple(int(n) for n in rng.integers(1, 3, 3))
        periodic = tuple(bool(p) for p in rng.random(3) < (0.0, 0.5, 1.0)[trial % 3])
        cells = rng.random(dims) < rng.uniform(0.3, 0.95)
        if trial % 5 == 0:
            cells = np.zeros(dims, bool)
        elif trial % 5 == 1:
            # a shell on the grid's boundary with random cavities inside
            cells = np.ones(dims, bool)
            cells[1:-1, 1:-1, 1:-1] = rng.random(cells[1:-1, 1:-1, 1:-1].shape) < 0.5
        elif trial % 5 == 2:
            lo = [int(rng.integers(0, n)) for n in dims]
            box = tuple(slice(l, int(rng.integers(l, n)) + 1) for l, n in zip(lo, dims))
            cells = np.zeros(dims, bool)
            cells[box] = rng.random(cells[box].shape) < rng.uniform(0.3, 0.95)
        cells.flat[int(rng.integers(cells.size))] = True
        masks.append(GridMask(dims, periodic, cells))
    slab = np.zeros((24, 24, 24), dtype=bool)
    slab[:, :, 5] = True
    masks.append(GridMask(slab.shape, (True,) * 3, slab))
    return masks


def test_three_dimensional_betti_by_duality_matches_the_oracles():
    """A 3-D mask's Betti numbers, b_2 by duality in the 3-torus and b_1
    from the Euler characteristic, equal every boundary reduced with
    clearing and the dense ranks of the tuple-cell complex."""
    for mask in _three_dimensional_masks(SEED + 47):
        cx = build_complex(mask)
        assert betti(cx) == oracle_reduction_betti(cx) == \
            oracle_betti(oracle_build_complex(mask)), mask


def test_open_three_dimensional_mask_reduces_no_boundary(monkeypatch):
    def refuse(faces):
        raise AssertionError("a boundary was reduced")
    monkeypatch.setattr(cubical, "reduce_faces", refuse)
    monkeypatch.setattr(cubical, "apparent_pivots", refuse)
    mask = _holed((10, 10, 10), (False,) * 3, [np.s_[2:4, 2:4, 2:4], np.s_[6, 6:8, 6]])
    assert betti_of_mask(mask) == (1, 0, 2, 0)
    # the same cube in a 16^3 torus, which its crop cuts open on every axis:
    # in the middle of the grid and across the seam of each axis
    cells = np.zeros((16, 16, 16), bool)
    cells[3:13, 3:13, 3:13] = mask.cells
    for shift in (0, 8):
        rolled = np.roll(cells, shift, axis=(0, 1, 2))
        assert betti_of_mask(GridMask(rolled.shape, (True,) * 3, rolled)) == (1, 0, 2, 0)
    ring = _holed((5, 5, 1), (False,) * 3, [np.s_[2, 2, 0]])
    assert betti_of_mask(ring) == (1, 1, 0, 0)


def test_duality_box_follows_the_mask_not_the_grid(monkeypatch):
    """One cell on a 64^3 open grid: every union-find runs on at most the
    27 cells of its box padded by one (8 vertices for b_0)."""
    sizes = []
    monkeypatch.setattr(cubical, "join", lambda n, u, v: sizes.append(n) or join(n, u, v))
    cells = np.zeros((64, 64, 64), dtype=bool)
    cells[40, 7, 63] = True
    assert betti_of_mask(GridMask(cells.shape, (False,) * 3, cells)) == (1, 0, 0, 0)
    assert sizes and max(sizes) <= 27, sizes


def test_betti_is_invariant_under_seam_shifts_and_axis_permutations():
    """Duality cuts the periodic axes of a crop at their seam: rolling a
    periodic 3-D or 4-D mask along any periodic axis, or permuting its
    axes, leaves its Betti numbers as they were."""
    rng = np.random.default_rng(SEED + 73)
    for trial in range(80):
        ndim = 3 + trial % 2
        dims = tuple(int(n) for n in rng.integers(1, (8 if ndim == 3 else 4) + 1, ndim))
        periodic = (True,) * ndim if trial % 4 < 2 else \
            tuple(bool(p) for p in rng.random(ndim) < 0.7)
        cells = rng.random(dims) < rng.uniform(0.3, 0.97)
        cells.flat[int(rng.integers(cells.size))] = True
        expected = betti_of_mask(GridMask(dims, periodic, cells))
        for a in range(ndim):
            if periodic[a] and dims[a] > 1:
                rolled = np.roll(cells, int(rng.integers(1, dims[a])), axis=a)
                assert betti_of_mask(GridMask(dims, periodic, rolled)) == expected, (dims, a)
        order = [int(a) for a in rng.permutation(ndim)]
        permuted = GridMask(tuple(dims[a] for a in order), tuple(periodic[a] for a in order),
                            cells.transpose(order))
        assert betti_of_mask(permuted) == expected, (dims, periodic, order)


def _bfs_least_nodes(n, u, v):
    """The least node of each node's component, by breadth-first search."""
    neighbours = [[] for _ in range(n)]
    for a, b in zip(u.tolist(), v.tolist()):
        neighbours[a].append(b)
        neighbours[b].append(a)
    least = [-1] * n
    for s in range(n):
        if least[s] >= 0:
            continue
        least[s], queue = s, [s]
        for x in queue:
            for y in neighbours[x]:
                if least[y] < 0:
                    least[y] = s
                    queue.append(y)
    return least


def test_join_roots_each_component_at_its_least_node():
    """Random edge lists with self-loops, repeated edges and isolated nodes:
    ``join`` gives each node the least node of its component and leaves
    ``u`` and ``v`` as they were."""
    rng = np.random.default_rng(SEED + 59)
    cases = [(0, np.zeros(0, np.int64), np.zeros(0, np.int64)),
             (3, np.zeros(0, np.int64), np.zeros(0, np.int64)),
             (1, np.zeros(2, np.int64), np.zeros(2, np.int64))]
    for trial in range(200):
        n = int(rng.integers(1, 60))
        m = int(rng.integers(0, 2 * n))
        u = rng.integers(0, n, m)
        v = rng.integers(0, n, m)
        loops = rng.random(m) < 0.1
        v[loops] = u[loops]
        if m:
            again = rng.integers(0, m, m // 4)
            u, v = np.concatenate([u, v[again]]), np.concatenate([v, u[again]])
        cases.append((n, u, v))
    for n, u, v in cases:
        before = u.copy(), v.copy()
        roots = join(n, u, v)
        assert roots.tolist() == _bfs_least_nodes(n, u, v), (n, u, v)
        assert np.array_equal(u, before[0]) and np.array_equal(v, before[1])


def test_mask_of_the_wrong_shape_is_refused():
    cells = np.zeros((3, 4), bool)
    cells[0, :3] = True
    with pytest.raises(ValueError, match=r"\(3, 4\).*\(4, 3\)"):
        GridMask((4, 3), (False, False), cells)
    with pytest.raises(ValueError, match="shape"):
        GridMask((12,), (False,), cells)
    assert GridMask.from_json({"dims": [4, 3], "periodic": [0, 0],
                               "cells": cells.reshape(-1).tolist()}).cells.shape == (4, 3)


def _loop_run_steps(n, periodic, start, length):
    """Each slab's least step count to a slab of the run, per slab."""
    slabs = [(start + k) % n for k in range(length)]
    return [min(min(abs(i - j), n - abs(i - j)) if periodic else abs(i - j) for j in slabs)
            for i in range(n)]


def _loop_box(dims, runs):
    """The nodes whose every coordinate lies in its axis's run, node by node."""
    box = np.zeros(dims, dtype=bool)
    for node in itertools.product(*map(range, dims)):
        box[node] = all((i - start) % n < length for i, n, (start, length)
                        in zip(node, dims, runs))
    return box


def test_run_rule_matches_a_per_node_loop():
    """``run_steps`` and ``box_mask`` equal a per-node loop on random 1-3-D
    grids with open and periodic axes, for random runs, runs across the
    seam, whole-axis runs and one-node runs; ``morse.isolating_box`` and
    ``SubmanifoldChart.slice_mask``, boxes of the same rule, equal the loop
    over their runs and their base."""
    from qmdkit.morse import SubmanifoldChart, _box_runs, isolating_box
    rng = np.random.default_rng(SEED + 61)
    seams = 0
    for trial in range(300):
        d = 1 + trial % 3
        dims = tuple(int(n) for n in rng.integers(1, (14 if d < 3 else 7) + 1, d))
        periodic = tuple(bool(p) for p in rng.integers(0, 2, d))
        runs = []
        for n, p in zip(dims, periodic):
            kind = int(rng.integers(0, 3))    # whole axis, one node, random
            length = (n, 1, int(rng.integers(1, n + 1)))[kind]
            # only a periodic run may cross the seam; a whole one starts at 0
            start = int(rng.integers(0, n if p else n - length + 1)) if length < n else 0
            seams += start + length > n
            runs.append((start, length))
        for n, p, (start, length) in zip(dims, periodic, runs):
            steps = cubical.run_steps(n, p, (start, length))
            assert steps.tolist() == _loop_run_steps(n, p, start, length), (n, p, start, length)
        box = cubical.box_mask(dims, runs)
        assert box.shape == dims and box.dtype == bool
        assert np.array_equal(box, _loop_box(dims, runs)), (dims, periodic, runs)

        comp = GridMask(dims, periodic, rng.random(dims) < rng.choice([0.05, 0.3]))
        if comp.cells.any():
            box_runs = _box_runs(comp)
            assert np.array_equal(isolating_box(comp), _loop_box(dims, box_runs))
        axes = tuple(a for a in range(d) if rng.random() < 0.5)
        base = tuple(int(rng.integers(0, n)) for n in dims)
        want = np.zeros(dims, dtype=bool)
        for node in itertools.product(*map(range, dims)):
            want[node] = all(node[a] == base[a] for a in range(d) if a not in axes)
        assert np.array_equal(SubmanifoldChart(axes, base).slice_mask(dims), want)
    assert seams


def _loop_step(dims, periodic, flat, axis, sign):
    """node + sign * e_axis node by node: unravel, step, wrap on a periodic
    axis or stay past the end of an open one, ravel."""
    out = []
    for i in flat.tolist():
        node = [int(c) for c in np.unravel_index(i, dims)]
        c = node[axis] + sign
        if periodic[axis]:
            node[axis] = c % dims[axis]
        elif 0 <= c < dims[axis]:
            node[axis] = c
        out.append(int(np.ravel_multi_index(node, dims)))
    return out


def test_step_matches_a_per_node_loop():
    """``step`` equals the per-node loop on random 1-4-D grids with mixed
    periodicity, axes of size 1 and 2 among them, in both directions."""
    rng = np.random.default_rng(SEED + 67)
    seen = set()
    for trial in range(300):
        d = 1 + trial % 4
        dims = tuple(int(n) for n in rng.integers(1, (9 if d < 3 else 5) + 1, d))
        periodic = tuple(bool(p) for p in rng.integers(0, 2, d))
        flat = rng.integers(0, int(np.prod(dims)), int(rng.integers(1, 40)))
        for a in range(d):
            seen.add((dims[a], periodic[a]))
            for sign in (-1, 1):
                got = cubical.step(dims, periodic, flat, a, sign)
                assert got.tolist() == _loop_step(dims, periodic, flat, a, sign), \
                    (dims, periodic, a, sign)
    assert {(1, False), (1, True), (2, False), (2, True)} <= seen


def test_mask_runs_are_the_runs_that_crop_cuts():
    """On random 1-3-D masks, ``mask_runs(mask, 0)`` is on each axis the run
    that ``crop`` cuts: the crop holds the mask's cells on those runs and
    stays periodic only on a whole periodic axis.  Each run covers the
    axis's set slabs and no shorter run (circular on a periodic axis)
    does."""
    rng = np.random.default_rng(SEED + 71)
    cut = 0
    for trial in range(200):
        d = 1 + trial % 3
        dims = tuple(int(n) for n in rng.integers(1, (12 if d < 3 else 6) + 1, d))
        periodic = tuple(bool(p) for p in rng.integers(0, 2, d))
        mask = GridMask(dims, periodic, rng.random(dims) < rng.choice([0.05, 0.3, 0.8]))
        if not mask.cells.any():
            continue
        runs = cubical.mask_runs(mask, 0)
        cropped = crop(mask)
        assert cropped.dims == tuple(m for _, m in runs)
        assert (cropped is mask) == (cropped.dims == dims)
        assert cropped.periodic == tuple(p and m == n for n, p, (_, m) in zip(dims, periodic, runs))
        on_runs = np.ix_(*[(s + np.arange(m)) % n for n, (s, m) in zip(dims, runs)])
        assert np.array_equal(cropped.cells, mask.cells[on_runs])
        for a, (n, p, (s, m)) in enumerate(zip(dims, periodic, runs)):
            present = np.flatnonzero(mask.cells.any(axis=tuple(b for b in range(d) if b != a)))

            def covers(t, length):
                off = (present - t) % n if p else present - t
                return bool(((off >= 0) & (off < length)).all())
            assert covers(s, m)
            assert not any(covers(t, m - 1) for t in range(n))
            cut += m < n
    assert cut
