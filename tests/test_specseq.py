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
    assert dict(fc.boundary_names) == {"a": (), "b": ()}


def test_validate_action_decreasing_differential():
    assert dict(_two_gen_pair().boundary_names) == {"x": (), "y": ("x",)}


def test_validate_rejects_filtration_raise():
    with pytest.raises(FiltrationError) as err:
        FilteredComplex([Generator("x", 0, 2), Generator("y", 1, 1)], {"y": ["x"]})
    assert str(err.value) == "differential raises filtration: y (p=1) -> x (p=2)"


def test_validate_rejects_broken_square():
    # d(d z) = x: no page or Betti number of it may be read, so none is built
    with pytest.raises(BoundaryError) as err:
        FilteredComplex([Generator("x", 0, 1), Generator("y", 1, 1),
                         Generator("z", 2, 1)],
                        {"z": ["y"], "y": ["x"]})
    assert str(err.value) == "d^2 != 0 out of degree 2"


def test_construction_reports_names_and_degrees_before_the_filtration():
    gens = [Generator("x", 0, 2), Generator("y", 1, 1), Generator("z", 1, 1),
            Generator("w", 2, 1)]
    # y -> x raises the level first in the walk; later bad names or degrees win
    for boundary, message in (
            ({"y": ["x"], "z": ["q"]}, "boundary of z names unknown generator q"),
            ({"y": ["x"], "w": ["x"]}, "boundary of w (degree 2) hits x of degree 0"),
            ({"y": ["x"], "q": ["x"]}, "boundary given for unknown generator q")):
        with pytest.raises(BoundaryError) as err:
            FilteredComplex(gens, boundary)
        assert str(err.value) == message
    # and a raised level wins over d^2 != 0
    with pytest.raises(FiltrationError):
        FilteredComplex(gens, {"y": ["x"], "w": ["z"], "z": ["x"]})


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
    e1 = page(fc, 1)
    assert e1.dims() == {(1, -1): 1, (2, -2): 1, (3, -2): 1}
    assert e1.differentials[(3, -2)] == []
    e2 = page(fc, 2)
    assert e2.differentials[(3, -2)] == [(fc.generators[2], fc.generators[0])]
    stable, einf = converge(fc)
    assert stable == 3
    assert einf.dims() == {(2, -2): 1}


def test_page_rejects_filtration_raise():
    # there is no complex to take a page of: construction reports the first
    # raise in generator order, u -> s, not v -> t, the first in the
    # (filtration, degree) order that the reduction walks
    gens = [Generator("u", 1, 2), Generator("v", 1, 1), Generator("s", 0, 3),
            Generator("t", 0, 2)]
    with pytest.raises(FiltrationError) as err:
        FilteredComplex(gens, {"u": ["s"], "v": ["t"]})
    assert str(err.value) == "differential raises filtration: u (p=2) -> s (p=3)"


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


@pytest.mark.parametrize("data, message", [
    ({"generators": [{"name": "x", "degree": 1.7}]}, "degree of x must be an integer, got 1.7"),
    ({"generators": [{"name": "x", "degree": True}]}, "degree of x must be an integer, got True"),
    ({"generators": [{"name": "x", "degree": 0, "filtration": "2"}]},
     "filtration of x must be an integer, got '2'"),
    ({"generators": [{"name": 5, "degree": 0}]}, "generator 0: name must be a string, got 5"),
    ({"generators": ["x"]}, "generator 0 must be an object, got 'x'"),
    ({"generators": {"x": 0}}, "generators must be an array, got {'x': 0}"),
    ({"generators": [], "boundary": [["x"]]}, "boundary must be an object, got [['x']]"),
], ids=["float-degree", "bool-degree", "string-filtration", "int-name", "string-generator",
        "object-generators", "list-boundary"])
def test_complex_json_rejects_bad_values(data, message):
    with pytest.raises(DescriptorError) as err:
        FilteredComplex.from_json(data)
    assert str(err.value) == message


def test_complex_json_rejects_string_boundary():
    data = {"generators": [{"name": "xx", "degree": 1}, {"name": "y", "degree": 0}],
            "boundary": {"xx": "yy"}}
    with pytest.raises(DescriptorError):
        FilteredComplex.from_json(data)


# -- sparse paths against the dense oracles ----------------------------------------


def _random_draws(count=80):
    """Raw (generators, boundary) draws, valid or not."""
    rng = np.random.default_rng(SEED)
    return [random_shifted_sum(rng) if i % 2 else random_raw_complex(rng)
            for i in range(count)]


def _random_complexes(count=80):
    """The complexes of the draws that construct."""
    out = []
    for generators, boundary in _random_draws(count):
        try:
            out.append(FilteredComplex(generators, boundary))
        except (BoundaryError, FiltrationError):
            pass
    assert out
    return out


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
    for generators, boundary in _random_draws():
        got = _raised(lambda: FilteredComplex(generators, boundary))
        assert got == _raised(lambda: oracle_validate(generators, boundary))
        seen.add(got[0] if got else None)
    assert seen == {None, BoundaryError, FiltrationError}


def test_homology_dims_matches_naive_oracle():
    for fc in _random_complexes():
        assert fc.homology_dims() == naive_homology_dims(fc)


def test_pages_after_converge_match_a_fresh_complex():
    for fc in _random_complexes():
        assert converge(fc) == converge(_copy(fc))
        for k in range(1, fc.max_filtration + 3):
            assert page(fc, k) == page(_copy(fc), k), k


def test_persistence_returns_fresh_lists():
    for fc in _random_complexes(20):
        pairs, unpaired = fc.persistence()
        want = (list(pairs), list(unpaired))
        pairs.clear()
        unpaired.append(Generator("stray", 0, 1))
        assert fc.persistence() == want
