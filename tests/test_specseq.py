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


def _piece(**changes):
    """A valid one-class piece whose name would break a %-template."""
    piece = {"name": "100%s", "action": 0.0, "iota": 0, "betti": [1], **changes}
    if "complex" in piece:
        del piece["betti"]
    return piece


def _read(*pieces, **rest):
    return lambda: QMDDescriptor.from_json({"pieces": list(pieces), **rest})


# one input per type check in specseq, each with its full message
CHECK_MESSAGES = {
    "piece-name": (_read(_piece(name=5)), "piece name must be a string, got 5"),
    "iota": (_read(_piece(iota=1.5)), "piece 100%s: iota must be an integer, got 1.5"),
    "betti-entry": (_read(_piece(betti=[1, "2"])),
                    "piece 100%s: betti must be an integer, got '2'"),
    "betti-array": (_read(_piece(), _piece(name="b", betti={"0": 1})),
                    "piece 1: betti must be an array, got {'0': 1}"),
    "pieces": (lambda: QMDDescriptor.from_json({"pieces": {"a": 1}}),
               "pieces must be an array, got {'a': 1}"),
    "piece-object": (_read(_piece(), "b"), "piece 1 must be an object, got 'b'"),
    "cross-terms": (_read(_piece(), cross_terms="x"), "cross_terms must be an array, got 'x'"),
    "generators": (_read(_piece(complex={"generators": {"v": 0}})),
                   "piece 100%s: generators must be an array, got {'v': 0}"),
    "generator-object": (_read(_piece(complex={"generators": [{"name": "v", "degree": 0},
                                                              "w"]})),
                         "piece 100%s: generator 1 must be an object, got 'w'"),
    "generator-name": (_read(_piece(complex={"generators": [{"name": 7, "degree": 0}]})),
                       "piece 100%s: generator name must be a string, got 7"),
    "generator-degree": (_read(_piece(complex={"generators": [{"name": "v%s",
                                                               "degree": True}]})),
                         "piece 100%s: degree of v%s must be an integer, got True"),
    "boundary-name": (_read(_piece(complex={"generators": [{"name": "v", "degree": 0}],
                                            "boundary": {"v": [3]}})),
                      "piece 100%s: boundary name must be a string, got 3"),
    "cross-term-object": (_read(_piece(), cross_terms=[{"from": "a", "to": "b"}, ["x"]]),
                          "cross term 1 must be an object, got ['x']"),
    "cross-term-name": (_read(_piece(), cross_terms=[{"from": "100%s/h0.0", "to": 4}]),
                        "cross term name must be a string, got 4"),
    "degree": (lambda: Generator("100%s", 0.5, 1),
               "generator 100%s: degree must be an integer, got 0.5"),
    "filtration": (lambda: Generator("100%s", 0, "1"),
                   "generator 100%s: filtration must be an integer, got '1'"),
}


@pytest.mark.parametrize("case", sorted(CHECK_MESSAGES))
def test_type_checks_give_their_full_message(case):
    build, message = CHECK_MESSAGES[case]
    with pytest.raises(DescriptorError) as err:
        build()
    assert str(err.value) == message


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


def test_boundary_of_unknown_generator_rejected():
    with pytest.raises(BoundaryError, match="zz"):
        FilteredComplex([Generator("x", 0, 1)], {"zz": ["x"]})
    # a bad target is still reported first
    with pytest.raises(BoundaryError, match="names unknown generator w"):
        FilteredComplex([Generator("x", 0, 1), Generator("y", 1, 1)],
                        {"zz": ["x"], "y": ["w"]})


@pytest.mark.parametrize("value", [0.5, 1.7, True, "2"],
                         ids=["half", "float", "bool", "string"])
def test_generator_requires_integer_degree_and_filtration(value):
    with pytest.raises(DescriptorError) as err:
        Generator("x", value, 1)
    assert str(err.value) == f"generator x: degree must be an integer, got {value!r}"
    with pytest.raises(DescriptorError) as err:
        Generator("x", 0, value)
    assert str(err.value) == f"generator x: filtration must be an integer, got {value!r}"
    with pytest.raises(DescriptorError):
        FilteredComplex([Generator("x", 0.5, 1), Generator("y", 1.5, 2)], {"y": ["x"]})
    assert Generator("x", np.int64(2), np.int64(3)) == Generator("x", 2, 3)


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
