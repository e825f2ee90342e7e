import os

import numpy as np
import pytest

from qmdkit.catalog import (CATALOG_DESCRIPTORS, descriptor_annulus_kunneth,
                            descriptor_cancellation_pair, descriptor_five_piece,
                            descriptor_log_corner)
from qmdkit.specseq import (BoundaryError, CrossTermError, DescriptorError,
                            FilteredComplex, FiltrationError, Generator,
                            QMDDescriptor, QMDPiece, build_from_qmd, converge,
                            directed_limit_check, page, truncate_by_action)

from _oracles import (differential_ranks, naive_homology_dims,
                      oracle_differential_ranks, oracle_page, oracle_validate,
                      page_dims_via_differential,
                      random_filtered_complex, random_raw_complex,
                      random_shifted_sum)

SEED = int(os.environ.get("QMD_SEED", "0"))


def _two_gen_pair():
    return FilteredComplex([Generator("x", 0, 1), Generator("y", 1, 2)],
                           {"y": ["x"]})


def test_validate_zero_differential():
    fc = FilteredComplex([Generator("a", 0, 1), Generator("b", 2, 3)], {})
    fc.validate()


def test_validate_action_decreasing_differential():
    _two_gen_pair().validate()


def test_validate_rejects_filtration_raise():
    fc = FilteredComplex([Generator("x", 0, 2), Generator("y", 1, 1)],
                         {"y": ["x"]})
    with pytest.raises(FiltrationError) as err:
        fc.validate()
    assert "y" in str(err.value) and "x" in str(err.value)


def test_validate_rejects_broken_square():
    fc = FilteredComplex([Generator("x", 0, 1), Generator("y", 1, 1),
                          Generator("z", 2, 1)],
                         {"z": ["y"], "y": ["x"]})
    with pytest.raises(BoundaryError):
        fc.validate()


def test_boundary_must_drop_degree():
    with pytest.raises(BoundaryError):
        FilteredComplex([Generator("x", 0, 1), Generator("y", 2, 1)],
                        {"y": ["x"]})


def test_page_zero_differential_is_generator_count():
    fc = FilteredComplex([Generator("a", 0, 1), Generator("b", 0, 1),
                          Generator("c", 1, 2)], {})
    e1 = page(fc, 1)
    assert e1.dims() == {(1, -1): 2, (2, -1): 1}
    for k in (2, 3, 4):
        assert page(fc, k).dims() == e1.dims()


def test_cancellation_pair_pages():
    fc = _two_gen_pair()
    e1 = page(fc, 1)
    assert e1.dims() == {(1, -1): 1, (2, -1): 1}
    assert len(e1.differentials[(2, -1)]) == 1
    assert page(fc, 2).dims() == {}
    stable, einf = converge(fc)
    assert stable == 2 and einf.dims() == {}
    assert fc.homology_dims() == {0: 0, 1: 0}


def test_length_two_cross_term_fires_on_page_two():
    fc = FilteredComplex([Generator("x", 0, 1), Generator("y", 0, 2),
                          Generator("z", 1, 3)],
                         {"z": ["x"]})
    fc.validate()
    e1 = page(fc, 1)
    assert e1.dims() == {(1, -1): 1, (2, -2): 1, (3, -2): 1}
    assert e1.differentials[(3, -2)] == []
    e2 = page(fc, 2)
    assert e2.differentials[(3, -2)] == [(fc.generators[2], fc.generators[0])]
    stable, einf = converge(fc)
    assert stable == 3
    assert einf.dims() == {(2, -2): 1}


def test_page_rejects_filtration_raise():
    fc = FilteredComplex([Generator("x", 0, 2), Generator("y", 1, 1)],
                         {"y": ["x"]})
    with pytest.raises(FiltrationError):
        page(fc, 1)
    with pytest.raises(FiltrationError):
        converge(fc)


def test_catalog_pages_match_oracle():
    for name, make in CATALOG_DESCRIPTORS.items():
        fc = build_from_qmd(make())
        for k in range(1, fc.max_filtration + 3):
            got, want = page(fc, k), oracle_page(fc, k)
            assert got.dims() == want.dims(), (name, k)
            assert differential_ranks(got) == oracle_differential_ranks(want), (name, k)


def test_invalid_page_index():
    with pytest.raises(ValueError):
        page(_two_gen_pair(), 0)


def test_page_dims_monotone_and_euler_constant():
    rng = np.random.default_rng(11)
    for _ in range(10):
        fc, _ = random_filtered_complex(rng, max_gens=24)
        r = fc.max_filtration
        prev = None
        euler = None
        for k in range(1, r + 2):
            dims = page(fc, k).dims()
            if prev is not None:
                for pq, d in dims.items():
                    assert d <= prev.get(pq, 0)
            chi = sum((-1) ** (p + q) * d for (p, q), d in dims.items())
            if euler is None:
                euler = chi
            assert chi == euler
            prev = dims


def test_next_page_matches_kernel_mod_image():
    rng = np.random.default_rng(12)
    for _ in range(20):
        fc, _ = random_filtered_complex(rng, max_gens=30)
        for k in range(1, fc.max_filtration + 1):
            pg = page(fc, k)
            assert page_dims_via_differential(pg) == page(fc, k + 1).dims()
            # each d_k pair lands at (p - k, q + k - 1), and no class is in two pairs
            ends = []
            for (p, q), pairs in pg.differentials.items():
                for src, tgt in pairs:
                    assert (src.filtration, src.degree - src.filtration) == (p, q)
                    assert (tgt.filtration, tgt.degree - tgt.filtration) == (p - k, q + k - 1)
                    ends += [src, tgt]
            assert len(ends) == len(set(ends))


def test_stable_page_recovers_homology_against_oracle():
    rng = np.random.default_rng(13)
    for _ in range(30):
        fc, expected = random_filtered_complex(rng, max_gens=30)
        _, einf = converge(fc)
        graded = einf.total_dims()
        oracle = naive_homology_dims(fc)
        for n in set(expected) | set(oracle):
            assert expected.get(n, 0) == oracle.get(n, 0)
            assert graded.get(n, 0) == oracle.get(n, 0)


def test_build_single_circle_piece():
    desc = QMDDescriptor(pieces=(QMDPiece("c", action=0.0, iota=0, betti=(1, 1)),))
    fc = build_from_qmd(desc)
    e1 = page(fc, 1)
    assert e1.dims() == {(1, -1): 1, (1, 0): 1}
    stable, einf = converge(fc)
    assert stable == 1 and einf.dims() == e1.dims()


def test_build_annulus_kunneth_descriptor():
    fc = build_from_qmd(descriptor_annulus_kunneth())
    e1 = page(fc, 1)
    assert e1.dims() == {(1, -1): 1, (1, 0): 2, (1, 1): 1}
    assert converge(fc)[1].dims() == e1.dims()


def test_build_cancellation_descriptor():
    fc = build_from_qmd(descriptor_cancellation_pair())
    assert converge(fc) == (2, converge(fc)[1])
    assert converge(fc)[1].dims() == {}


def test_build_shifts_by_iota():
    desc = QMDDescriptor(pieces=(QMDPiece("pt", action=0.0, iota=3, betti=(1,)),))
    fc = build_from_qmd(desc)
    assert page(fc, 1).dims() == {(1, 2): 1}


def test_local_complex_fragment():
    frag = {"generators": [{"name": "v", "degree": 0},
                           {"name": "w", "degree": 0},
                           {"name": "e", "degree": 1}],
            "boundary": {"e": ["v", "w"]}}
    desc = QMDDescriptor(pieces=(QMDPiece("seg", action=0.0, iota=1,
                                          local_complex=frag),))
    fc = build_from_qmd(desc)
    # interval: one homology class in local degree 0, shifted to total degree 1
    assert page(fc, 1).dims() == {(1, 0): 1}


@pytest.mark.parametrize("piece", [
    {"name": "a", "action": 0.0, "iota": 1.5, "betti": [1]},
    {"name": "a", "action": 0.0, "iota": 0, "betti": [0.5]},
    {"name": "a", "action": float("inf"), "iota": 0, "betti": [1]},
    {"name": "a", "action": 0.0, "iota": 0,
     "complex": {"generators": [{"name": "v", "degree": "0"}]}},
    {"name": "a", "action": 0.0, "iota": 0,
     "complex": {"generators": [{"name": "v", "degree": 0}], "boundary": ["v"]}},
    # a string target would be read as its characters: d(xx) = y + y
    {"name": "a", "action": 0.0, "iota": 0,
     "complex": {"generators": [{"name": "xx", "degree": 1}, {"name": "y", "degree": 0}],
                 "boundary": {"xx": "yy"}}},
    {"name": "a", "action": "1.5", "iota": 0, "betti": [1]},
    {"name": "a", "action": True, "iota": 0, "betti": [1]},
])
def test_descriptor_rejects_bad_values(piece):
    with pytest.raises(DescriptorError):
        QMDDescriptor.from_json({"pieces": [piece]})


def test_cross_term_must_decrease_action():
    desc = QMDDescriptor(
        pieces=(QMDPiece("a", action=0.0, iota=0, betti=(1,)),
                QMDPiece("b", action=1.0, iota=1, betti=(1,))),
        cross_terms=(("a/h0.0", "b/h0.0"),))
    with pytest.raises(CrossTermError):
        build_from_qmd(desc)


def test_cross_term_must_drop_degree():
    desc = QMDDescriptor(
        pieces=(QMDPiece("a", action=0.0, iota=0, betti=(1,)),
                QMDPiece("b", action=1.0, iota=0, betti=(1,))),
        cross_terms=(("b/h0.0", "a/h0.0"),))
    with pytest.raises(CrossTermError):
        build_from_qmd(desc)


def test_cross_term_to_unknown_name_is_a_descriptor_error():
    pieces = (QMDPiece("a", action=0.0, iota=0, betti=(1,)),
              QMDPiece("b", action=1.0, iota=1, betti=(1,)))
    with pytest.raises(DescriptorError, match="a/h0.9"):
        QMDDescriptor(pieces, cross_terms=(("b/h0.0", "a/h0.9"),))
    with pytest.raises(DescriptorError, match="zz"):
        QMDDescriptor(pieces, cross_terms=(("zz", "a/h0.0"),))


def test_piece_expands_itself_once():
    piece = QMDPiece("a", action=0.5, iota=2, local_complex={
        "generators": [{"name": "v", "degree": 0}, {"name": "e", "degree": 1}],
        "boundary": {"e": ["v", "v"]}})
    assert piece.generators == (("a/v", 2), ("a/e", 3))
    assert piece.boundary == {"a/e": ("a/v", "a/v")}
    assert QMDPiece("b", 0.0, -1, betti=(2, 1)).generators == (
        ("b/h0.0", -1), ("b/h0.1", -1), ("b/h1.0", 0))
    # derived fields take no part in construction, equality or repr
    twin = QMDPiece("a", action=0.5, iota=2, local_complex=piece.local_complex)
    assert twin == piece and "a/e" not in repr(piece)


def test_action_ties_get_consecutive_levels():
    desc = QMDDescriptor(pieces=(QMDPiece("a", action=1.0, iota=0, betti=(1,)),
                                 QMDPiece("b", action=1.0, iota=0, betti=(1,))))
    fc = build_from_qmd(desc)
    assert page(fc, 1).dims() == {(1, -1): 1, (2, -2): 1}


def test_truncation_below_everything_is_empty():
    desc = descriptor_five_piece()
    trunc = truncate_by_action(desc, 0.1)
    assert not trunc.pieces
    assert converge(build_from_qmd(trunc) if trunc.pieces else _empty())[1].dims() == {}


def _empty():
    return FilteredComplex([], {})


def test_truncation_above_everything_is_identity():
    desc = descriptor_five_piece()
    full = truncate_by_action(desc, float("inf"))
    assert page(build_from_qmd(full), 1).dims() == page(build_from_qmd(desc), 1).dims()


def test_directed_limit_five_pieces():
    desc = descriptor_five_piece()
    actions = sorted(p.action for p in desc.pieces)
    cuts = [actions[1] + 1e-9, actions[3] + 1e-9, float("inf")]
    assert directed_limit_check(desc, cuts)


def test_directed_limit_all_catalog_descriptors():
    for name, make in CATALOG_DESCRIPTORS.items():
        desc = make()
        actions = sorted(p.action for p in desc.pieces)
        cuts = [actions[0] + 1e-9, actions[len(actions) // 2] + 1e-9, float("inf")]
        assert directed_limit_check(desc, cuts), name


def test_descriptor_json_roundtrip():
    desc = descriptor_log_corner()
    again = QMDDescriptor.from_json(desc.to_json())
    assert page(build_from_qmd(again), 1).dims() == \
        page(build_from_qmd(desc), 1).dims()


def test_complex_json_roundtrip():
    fc = _two_gen_pair()
    again = FilteredComplex.from_json(fc.to_json())
    again.validate()
    assert page(again, 1).dims() == page(fc, 1).dims()


def test_boundary_of_unknown_generator_rejected():
    with pytest.raises(BoundaryError, match="zz"):
        FilteredComplex([Generator("x", 0, 1)], {"zz": ["x"]})
    # a bad target is still reported first
    with pytest.raises(BoundaryError, match="names unknown generator w"):
        FilteredComplex([Generator("x", 0, 1), Generator("y", 1, 1)],
                        {"zz": ["x"], "y": ["w"]})


def test_complex_json_rejects_boundary_of_unknown_generator():
    data = {"generators": [{"name": "x", "degree": 0}], "boundary": {"zz": ["x"]}}
    with pytest.raises(BoundaryError, match="zz"):
        FilteredComplex.from_json(data)


def test_complex_json_rejects_string_boundary():
    data = {"generators": [{"name": "xx", "degree": 1}, {"name": "y", "degree": 0}],
            "boundary": {"xx": "yy"}}
    with pytest.raises(DescriptorError):
        FilteredComplex.from_json(data)


# -- sparse paths against the dense oracles ----------------------------------------


def _random_complexes(count=80):
    rng = np.random.default_rng(SEED)
    return [random_shifted_sum(rng) if i % 2 else random_raw_complex(rng)
            for i in range(count)]


def _raised(fn):
    try:
        fn()
    except (BoundaryError, FiltrationError) as exc:
        return type(exc), str(exc)
    return None


def _copy(fc):
    return FilteredComplex(fc.generators, fc.boundary_names)


def test_boundary_names_are_read_only():
    fc = _two_gen_pair()
    want = converge(fc)
    with pytest.raises(TypeError):
        fc.boundary_names["x"] = ()
    assert all(isinstance(t, tuple) for t in fc.boundary_names.values())
    assert converge(fc) == want == converge(_copy(fc))


def test_validate_matches_dense_oracle():
    seen = set()
    for fc in _random_complexes():
        got = _raised(fc.validate)
        assert got == _raised(lambda: oracle_validate(fc))
        seen.add(got[0] if got else None)
    assert seen == {None, BoundaryError, FiltrationError}


def test_homology_dims_matches_naive_oracle():
    for fc in _random_complexes():
        assert fc.homology_dims() == naive_homology_dims(fc)


def test_pages_after_converge_match_a_fresh_complex():
    reduced = 0
    for fc in _random_complexes():
        if _raised(fc.persistence):
            # a failed reduction stores nothing: every later call fails too
            for call in (fc.persistence, lambda: converge(fc), lambda: page(fc, 1)):
                assert _raised(call)[0] is FiltrationError
            continue
        reduced += 1
        assert converge(fc) == converge(_copy(fc))
        for k in range(1, fc.max_filtration + 3):
            assert page(fc, k) == page(_copy(fc), k), k
    assert reduced


def test_persistence_returns_fresh_lists():
    for fc in _random_complexes(20):
        if _raised(fc.persistence):
            continue
        pairs, unpaired = fc.persistence()
        want = (list(pairs), list(unpaired))
        pairs.clear()
        unpaired.append(Generator("stray", 0, 1))
        assert fc.persistence() == want
