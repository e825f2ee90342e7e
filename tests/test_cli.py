import hashlib
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from qmdkit.catalog import (CATALOG_DESCRIPTORS, descriptor_annulus_kunneth,
                            descriptor_cancellation_pair, descriptor_five_piece,
                            field_1d_quadratic, field_saddle, tau_saddle)
from qmdkit.cli import main
from qmdkit.fields import ScalarField, gradient_magnitude
from qmdkit.morse import detect_critical_set

SEED = int(os.environ.get("QMD_SEED", "0"))


@pytest.fixture
def saddle_file(tmp_path):
    path = tmp_path / "saddle.json"
    path.write_text(json.dumps(field_saddle().to_json()))
    return str(path)


@pytest.fixture
def tau_file(tmp_path):
    path = tmp_path / "tau.json"
    path.write_text(json.dumps(tau_saddle().to_json()))
    return str(path)


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_analyze_qmd_passes(saddle_file, tau_file, capsys):
    code = main(["analyze", "--field", saddle_file, "--tau", tau_file,
                 "--chart", "0", "--base", "16,16", "--expect", "qmd"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["details"]["qmd"] is True


def test_analyze_minimally_degenerate(saddle_file, capsys):
    code = main(["analyze", "--field", saddle_file, "--chart", "0",
                 "--base", "16,16", "--expect", "minimally_degenerate"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["negative_index"] == 1


def test_analyze_wrong_expectation_fails(saddle_file, capsys):
    # kernel of the saddle Hessian is zero, never the chart tangent
    code = main(["analyze", "--field", saddle_file, "--chart", "0",
                 "--base", "16,16", "--expect", "flattened_degenerate"])
    assert code == 1


def test_analyze_boxes_cross_the_seam_of_a_torus(tmp_path, capsys):
    """f = cos(theta) on the periodic 32^2 torus: the max circle's rows 30, 31,
    0, 1, 2 print as theta 30..2, the min circle's as theta 14..18."""
    h = 2 * math.pi / 32
    f = ScalarField.sample((32, 32), (h, h), (True, True), lambda t, p: np.cos(t))
    main(["analyze", "--field", _write(tmp_path, "torus.json", f.to_json())])
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_components"] == 2
    assert payload["component_boxes"] == [{"lo": [30, 0], "hi": [2, 31], "size": 160},
                                          {"lo": [14, 0], "hi": [18, 31], "size": 160}]


def test_analyze_boxes_on_open_grids_are_the_bounding_boxes(tmp_path, capsys):
    """On open grids no run wraps, so each component's box is the min and max
    of its nodes; seeded random 1-3-D fields, the third of the stencil-valid
    nodes of least gradient taken as critical."""
    rng = np.random.default_rng(SEED)
    for _ in range(12):
        dims = tuple(int(n) for n in rng.integers(4, 10, size=rng.integers(1, 4)))
        f = ScalarField(dims, (0.5,) * len(dims), (False,) * len(dims), rng.normal(size=dims))
        mag, valid = gradient_magnitude(f)
        tol = float(np.sort(mag[valid])[valid.sum() // 3]) * (1 + 1e-9)
        code = main(["analyze", "--field", _write(tmp_path, "f.json", f.to_json()),
                     "--grad-tol", repr(tol)])
        assert code in (0, 1)
        payload = json.loads(capsys.readouterr().out)
        comps = detect_critical_set(f, tol).components
        assert payload["n_components"] == len(comps)
        want = [{"lo": np.argwhere(c.cells).min(axis=0).tolist(),
                 "hi": np.argwhere(c.cells).max(axis=0).tolist(), "size": c.count()}
                for c in comps]
        assert payload["component_boxes"] == want, dims


def test_analyze_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    assert main(["analyze", "--field", str(bad)]) == 2


def test_analyze_missing_file():
    assert main(["analyze", "--field", "/nonexistent/f.json"]) == 2


def test_flatten_writes_mask_and_field(tmp_path, capsys):
    field_file = _write(tmp_path, "f.json", field_1d_quadratic().to_json())
    sigma_out = str(tmp_path / "sigma.json")
    fcheck_out = str(tmp_path / "fcheck.json")
    code = main(["flatten", "--field", field_file, "--delta", "0.08",
                 "--out", sigma_out, "--out-field", fcheck_out])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["betti_c"] == [1, 0] and report["betti_sigma"] == [1, 0]
    assert report["thickening_verified"] is True
    with open(sigma_out) as fh:
        sigma = json.load(fh)
    assert sum(sigma["cells"]) == 7
    with open(fcheck_out) as fh:
        fcheck = json.load(fh)
    assert min(fcheck["values"]) == 0.0


def test_flatten_zero_delta_is_usage_error(tmp_path):
    field_file = _write(tmp_path, "f.json", field_1d_quadratic().to_json())
    assert main(["flatten", "--field", field_file, "--delta", "0"]) == 2


def test_flatten_corner_fixture(tmp_path, capsys):
    from qmdkit.catalog import field_corner
    field_file = _write(tmp_path, "corner.json", field_corner().to_json())
    code = main(["flatten", "--field", field_file, "--delta", "0.005",
                 "--grad-tol", "1e-6"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["betti_c"] == [1, 0, 0]
    assert report["betti_sigma"] == [1, 0, 0]


def test_flatten_descent_escape_is_domain_failure(tmp_path, capsys):
    # C = {10}, box 7..13; from the box edge x = 7 the steepest step is the
    # dip at x = 6, outside the box
    x = np.arange(21.0)
    values = 0.001 * (x - 10.0) ** 2
    values[[5, 6, 14, 15]] = -1.0
    field = {"dims": [21], "spacing": [1.0], "periodic": [0],
             "values": values.tolist()}
    code = main(["flatten", "--field", _write(tmp_path, "f.json", field),
                 "--delta", "0.02", "--grad-tol", "1e-6"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "failed: descent from (7,) left the box\n"


def test_specseq_cancellation(tmp_path, capsys):
    desc = _write(tmp_path, "d.json", descriptor_cancellation_pair().to_json())
    code = main(["specseq", "--descriptor", desc, "--pages", "all"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stable_page"] == 2
    assert payload["einf"]["entries"] == []
    assert payload["graded_sum_matches_homology"] is True


def test_specseq_builds_each_printed_page_once(tmp_path, capsys, monkeypatch):
    from qmdkit import specseq
    built = []
    build = specseq._page_from_pairs
    monkeypatch.setattr(specseq, "_page_from_pairs",
                        lambda *args: built.append(args[-1]) or build(*args))
    desc = _write(tmp_path, "d.json", descriptor_five_piece().to_json())
    assert main(["specseq", "--descriptor", desc, "--pages", "all"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # the stable page is the last one listed, and converge's
    assert built == [6, 1, 2, 3, 4, 5]
    assert [pg["page"] for pg in payload["pages"]] == [1, 2, 3, 4, 5, 6]
    assert payload["pages"][-1] == payload["einf"]
    # a complex with no generator lists no page and builds none; its stable
    # page is page 1
    built.clear()
    desc = _write(tmp_path, "e.json", {"pieces": [_piece("a", 0.0, betti=[0])]})
    assert main(["specseq", "--descriptor", desc, "--pages", "all"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert built == []
    assert payload["pages"] == []
    assert payload["stable_page"] == 1 and payload["einf"] == {"entries": [], "page": 1}


def test_specseq_kunneth_ranks(tmp_path, capsys):
    desc = _write(tmp_path, "d.json", descriptor_annulus_kunneth().to_json())
    code = main(["specseq", "--descriptor", desc, "--pages", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    dims = {(e["p"], e["q"]): e["dim"] for e in payload["pages"][0]["entries"]}
    assert dims == {(1, -1): 1, (1, 0): 2, (1, 1): 1}


def test_specseq_cutoff_below_all_actions(tmp_path, capsys):
    desc = _write(tmp_path, "d.json", descriptor_cancellation_pair().to_json())
    code = main(["specseq", "--descriptor", desc, "--cutoff", "-1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pages"] == [] and payload["total_homology"] == {}
    assert payload["einf"] == {"entries": [], "page": 1}
    assert payload["graded_sum_matches_homology"] is True
    assert main(["specseq", "--descriptor", desc]) == 0
    assert set(payload) == set(json.loads(capsys.readouterr().out))


def test_specseq_empty_complex_lists_no_page(tmp_path, capsys):
    """A descriptor with no piece and one whose pieces have no generator
    both describe the empty complex, and print the same stdout, with no
    page listed, for every --pages choice."""
    outs = set()
    for i, desc in enumerate(({"pieces": []},
                              {"pieces": [_piece("A", 1.0, betti=[])]},
                              {"pieces": [_piece("A", 0.0, betti=[0]),
                                          _piece("B", 1.0, betti=[0, 0])]})):
        path = _write(tmp_path, f"e{i}.json", desc)
        for pages in ("all", "1", "3"):
            assert main(["specseq", "--descriptor", path, "--pages", pages]) == 0
            outs.add(capsys.readouterr().out)
    assert len(outs) == 1
    payload = json.loads(outs.pop())
    assert payload["pages"] == [] and payload["stable_page"] == 1
    assert payload["einf"] == {"entries": [], "page": 1}


def test_specseq_rejects_filtration_violation(tmp_path):
    desc = {"pieces": [{"name": "a", "action": 0.0, "iota": 0, "betti": [1]},
                       {"name": "b", "action": 1.0, "iota": 1, "betti": [1]}],
            "cross_terms": [{"from": "a/h0.0", "to": "b/h0.0"}]}
    path = _write(tmp_path, "d.json", desc)
    assert main(["specseq", "--descriptor", path]) == 1


def _piece(name, action, **body):
    return {"name": name, "action": action, "iota": 0, **body}


_V, _E = {"name": "v", "degree": 0}, {"name": "e", "degree": 1}

MALFORMED_DESCRIPTORS = {
    "unknown-boundary-name": [_piece("a", 0.0, complex={
        "generators": [_V, _E], "boundary": {"e": ["v", "zz"]}})],
    "duplicate-name-in-piece": [_piece("a", 0.0, complex={
        "generators": [_V, _V, _E], "boundary": {"e": ["v"]}})],
    "duplicate-name-across-pieces": [_piece("a", 0.0, betti=[1]),
                                     _piece("a", 1.0, betti=[1])],
    "nan-action-negative-betti": [_piece("a", "nan", betti=[-1])],
    "nan-cutoff": [_piece("a", 0.0, betti=[1])],
    # a string target would be read as its characters: d(xx) = y + y = 0
    "string-boundary": [_piece("a", 0.0, complex={
        "generators": [{"name": "xx", "degree": 1}, {"name": "y", "degree": 0}],
        "boundary": {"xx": "yy"}})],
    # --pages is checked before any piece is read or dropped
    "empty-pages-word": [],
    "empty-pages-zero": [],
    "empty-pages-negative": [],
    "cutoff-drops-all-pages-zero": [_piece("a", 0.0, betti=[1])],
    # an action is a JSON number, not a string or a boolean read as one
    "action-string": [_piece("a", "1.5", betti=[1])],
    "action-bool": [_piece("a", True, betti=[1])],
    # a cross term is checked against the whole descriptor, so a cutoff
    # between the pieces, which drops it, does not hide the typo
    "cross-term-unknown-name": [_piece("a", 0.0, betti=[1]), _piece("b", 1.0, betti=[1])],
    "cross-term-unknown-name-cutoff": [_piece("a", 0.0, betti=[1]),
                                       _piece("b", 1.0, betti=[1])],
}
_TYPO = [{"from": "b/h0.0", "to": "a/h0.9"}]
MALFORMED_CROSS_TERMS = {"cross-term-unknown-name": _TYPO,
                         "cross-term-unknown-name-cutoff": _TYPO}
MALFORMED_ARGS = {"nan-cutoff": ["--cutoff", "nan"],
                  "empty-pages-word": ["--pages", "banana"],
                  "empty-pages-zero": ["--pages", "0"],
                  "empty-pages-negative": ["--pages", "-3"],
                  "cutoff-drops-all-pages-zero": ["--cutoff", "-1", "--pages", "0"],
                  "cross-term-unknown-name-cutoff": ["--cutoff", "0.5"]}


@pytest.mark.parametrize("case", sorted(MALFORMED_DESCRIPTORS))
def test_specseq_rejects_malformed_descriptor(case, tmp_path, capsys):
    path = _write(tmp_path, "d.json", {"pieces": MALFORMED_DESCRIPTORS[case],
                                       "cross_terms": MALFORMED_CROSS_TERMS.get(case, [])})
    assert main(["specseq", "--descriptor", path, *MALFORMED_ARGS.get(case, [])]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


# a container that is not an array, or an entry of one that is not an
# object: the whole descriptor, and the words that name the entry
MALFORMED_ENTRIES = {
    "piece-not-object": ({"pieces": [[1]]}, "piece 0 must be an object"),
    "pieces-not-array": ({"pieces": 5}, "pieces must be an array"),
    "cross-term-not-object": ({"pieces": [_piece("a", 0.0, betti=[1])], "cross_terms": [1]},
                              "cross term 0 must be an object"),
    "generator-not-object": ({"pieces": [_piece("a", 0.0, complex={
        "generators": [_V, 5], "boundary": {}})]}, "piece a: generator 1 must be an object"),
    "betti-not-array": ({"pieces": [_piece("a", 0.0, betti=5)]}, "piece 0: betti must be an array"),
    "boundary-target-not-name": ({"pieces": [_piece("a", 0.0, complex={
        "generators": [_V, _E], "boundary": {"e": [["v"]]}})]},
        "piece a: boundary name must be a string"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ENTRIES))
def test_specseq_names_the_malformed_entry(case, tmp_path, capsys):
    descriptor, named = MALFORMED_ENTRIES[case]
    path = _write(tmp_path, "d.json", descriptor)
    assert main(["specseq", "--descriptor", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert named in captured.err


def _named_descriptor(position, name):
    """A valid descriptor, cross term a/e -> b/h0.0 included, with `name`
    put in one of its four name positions."""
    piece_a = _piece("a", 1.0, complex={"generators": [_V, _E], "boundary": {}})
    piece_b = _piece("b", 0.0, betti=[1])
    term = {"from": "a/e", "to": "b/h0.0"}
    if position == "piece":
        piece_b["name"] = name
    elif position == "generator":
        piece_a["complex"]["generators"][1] = {"name": name, "degree": 1}
    else:
        term[position] = name
    return {"pieces": [piece_a, piece_b], "cross_terms": [term]}


NON_STRING_NAMES = {"null": None, "list": ["b"], "int": 5, "bool": True}


@pytest.mark.parametrize("value", sorted(NON_STRING_NAMES))
@pytest.mark.parametrize("position", ["piece", "generator", "from", "to"])
def test_specseq_rejects_non_string_names(position, value, tmp_path, capsys):
    path = _write(tmp_path, "d.json", _named_descriptor(position, NON_STRING_NAMES[value]))
    assert main(["specseq", "--descriptor", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert "must be a string" in captured.err


def test_specseq_accepts_the_string_named_descriptor(tmp_path, capsys):
    path = _write(tmp_path, "d.json", _named_descriptor("piece", "b"))
    assert main(["specseq", "--descriptor", path]) == 0
    assert json.loads(capsys.readouterr().out)["total_homology"] == {"0": 1, "1": 0}


def test_specseq_rejects_a_huge_betti_number_at_once(tmp_path, capsys):
    path = _write(tmp_path, "d.json", {"pieces": [_piece("a", 0.0, betti=[1, 10 ** 400])]})
    start = time.perf_counter()
    assert main(["specseq", "--descriptor", path]) == 2
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == "" and "generators" in captured.err


@pytest.mark.parametrize("boundary, message", [
    ({"e": ["v"], "f": ["e"]}, "d^2 != 0 out of degree 2"),
    ({"f": ["v"]}, "boundary of a/f (degree 2) hits a/v of degree 0"),
], ids=["d-squared", "degree-skip"])
def test_specseq_local_complex_that_is_not_a_chain_complex_fails(boundary, message,
                                                                 tmp_path, capsys):
    frag = {"generators": [_V, _E, {"name": "f", "degree": 2}], "boundary": boundary}
    path = _write(tmp_path, "d.json", {"pieces": [_piece("a", 0.0, complex=frag)]})
    assert main(["specseq", "--descriptor", path]) == 1
    assert capsys.readouterr() == ("", f"failed: {message}\n")


def _quarter_turn_paths(tmp_path):
    a = _write(tmp_path, "a.json",
               {"times": [0.0, 1.0], "angles": [0.0, math.pi / 2]})
    b = _write(tmp_path, "b.json", {"times": [0.0, 1.0], "angles": [0.0, 0.0]})
    return ["--path-a", a, "--path-b", b]


BAD_NUMBERS = {
    "analyze-eig-tol-nan": ("analyze", ["--eig-tol", "nan"]),
    "analyze-value-tol-nan": ("analyze", ["--value-tol", "nan"]),
    "analyze-grad-tol-nan": ("analyze", ["--grad-tol", "nan"]),
    "flatten-delta-nan": ("flatten", ["--delta", "nan"]),
    "flatten-delta-inf": ("flatten", ["--delta", "inf"]),
    "maslov-tol-nan": ("maslov", ["--tol", "nan"]),
    "maslov-tol-negative": ("maslov", ["--tol", "-1"]),
    "maslov-tol-half": ("maslov", ["--tol", "0.5"]),
    "maslov-tol-two": ("maslov", ["--tol", "2"]),
    "analyze-base-beyond-grid": ("analyze", ["--chart", "0", "--base", "16,99"]),
    "analyze-base-negative": ("analyze", ["--chart", "0", "--base", "16,-1"]),
    "analyze-base-too-short": ("analyze", ["--chart", "0", "--base", "16"]),
    "analyze-base-too-long": ("analyze", ["--chart", "0", "--base", "16,16,16"]),
}


@pytest.mark.parametrize("case", sorted(BAD_NUMBERS))
def test_bad_numeric_argument_is_usage_error(case, saddle_file, tmp_path, capsys):
    command, extra = BAD_NUMBERS[case]
    if command == "analyze":
        argv = ["analyze", "--field", saddle_file]
    elif command == "flatten":
        argv = ["flatten", "--field",
                _write(tmp_path, "f.json", field_1d_quadratic().to_json())]
        if "--delta" not in extra:
            argv += ["--delta", "0.08"]
    else:
        argv = ["maslov", *_quarter_turn_paths(tmp_path)]
    assert main(argv + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: " in captured.err and "Traceback" not in captured.err


def _bowl(spacing, scale=1.0, n=9):
    x = np.arange(n) - n // 2
    values = scale * (x[:, None] ** 2 + x[None, :] ** 2)
    return {"dims": [n, n], "spacing": spacing, "periodic": [0, 0],
            "values": values.ravel().tolist()}


# finite, but the stencils overflow (h^2, (f / h)^2) or divide by h^2 = 0
EXTREME_FIELDS = {
    "spacing-1e300": _bowl([1e300, 1.0]),
    "spacing-1e-300": _bowl([1e-300, 1.0]),
    "values-1e300": _bowl([1.0, 1.0], 1e300 / 32),
    "values-minus-1e300": _bowl([1.0, 1.0], -1e300 / 32),
}


@pytest.mark.parametrize("command", ["analyze", "flatten"])
@pytest.mark.parametrize("case", sorted(EXTREME_FIELDS))
def test_extreme_finite_field_is_usage_error(case, command, tmp_path, capsys):
    argv = [command, "--field", _write(tmp_path, "f.json", EXTREME_FIELDS[case])]
    if command == "flatten":
        argv += ["--delta", "0.08"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: " in captured.err and "Traceback" not in captured.err


def _with(payload, **changes):
    return {**payload, **changes}


# each once read without complaint: "33" and [3.5, 3] as dims (3, 3), "00" as
# two periodic axes (bool("0") is True); a zero axis crashed in stencil_mask
# and a -1 axis was inferred by reshape
MALFORMED_FIELDS = {
    "dims-zero": {"dims": [0], "spacing": [1.0], "periodic": [0], "values": []},
    "dims-negative": _with(_bowl([1.0, 1.0], n=3), dims=[3, -1], values=[0.0, 1.0, 2.0]),
    "dims-string": _with(_bowl([1.0, 1.0], n=3), dims="33"),
    "dims-fraction": _with(_bowl([1.0, 1.0], n=3), dims=[3.5, 3]),
    "periodic-string": _with(_bowl([1.0, 1.0], n=3), periodic="00"),
    "periodic-two": _with(_bowl([1.0, 1.0], n=3), periodic=[2, 0]),
    # float() of an integer beyond the float range raises OverflowError
    "spacing-huge-int": _with(_bowl([1.0, 1.0], n=3), spacing=[10 ** 400, 1.0]),
    # numpy reads "0.25" and true as numbers
    "spacing-string": _with(_bowl([1.0, 1.0], n=3), spacing=["0.25", 1.0]),
    "spacing-bool": _with(_bowl([1.0, 1.0], n=3), spacing=[True, 1.0]),
    "values-string": _with(_bowl([1.0, 1.0], n=3), values=["2"] + [0.0] * 8),
    "values-bool": _with(_bowl([1.0, 1.0], n=3), values=[True] + [0.0] * 8),
    # one value fills a 0-D grid, which failed only in check_difference_range
    "dims-empty": {"dims": [], "spacing": [], "periodic": [], "values": [1.0]},
}


@pytest.mark.parametrize("command", ["analyze", "flatten"])
@pytest.mark.parametrize("case", sorted(MALFORMED_FIELDS))
def test_malformed_field_file_is_usage_error(case, command, tmp_path, capsys):
    argv = [command, "--field", _write(tmp_path, "f.json", MALFORMED_FIELDS[case])]
    if command == "flatten":
        argv += ["--delta", "0.08"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: " in captured.err and "Traceback" not in captured.err


# path files hold at least two JSON numbers within float range in each array
# (numpy would read "0.5" or true as a number)
MALFORMED_PATHS = {
    "times-not-array": {"times": "01", "angles": [0.0, math.pi / 2]},
    "time-not-number": {"times": [0, "x", 1], "angles": [0.0, 0.5, 1.0]},
    "time-numeric-string": {"times": [0, "0.5", 1], "angles": [0.0, 0.5, 1.0]},
    "time-bool": {"times": [0, True], "angles": [0.0, 0.5]},
    "time-nested": {"times": [0, [0.5], 1], "angles": [0.0, 0.5, 1.0]},
    "angle-numeric-string": {"times": [0, 1], "angles": [0.0, "0.5"]},
    "empty": {"times": [], "angles": []},
    "time-huge-int": {"times": [0, 10 ** 400, 1], "angles": [0.0, 0.5, 1.0]},
    "angle-huge-int": {"times": [0, 1], "angles": [0, 10 ** 400]},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PATHS))
def test_malformed_path_file_is_usage_error(case, tmp_path, capsys):
    a = _write(tmp_path, "a.json", MALFORMED_PATHS[case])
    b = _write(tmp_path, "b.json", {"times": [0.0, 1.0], "angles": [0.0, 0.0]})
    assert main(["maslov", "--path-a", a, "--path-b", b]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


# per subcommand: its argv around the file under test, what the message
# calls that file, and a JSON object lacking the key named
_VALID_PATH = {"times": [0.0, 1.0], "angles": [0.0, 0.0]}
INPUT_FILES = {
    "analyze": (["analyze", "--field", "{}"], "field file",
                {"spacing": [1.0], "periodic": [0], "values": [0.0]}, "dims"),
    "flatten": (["flatten", "--field", "{}", "--delta", "0.08"], "field file",
                {"dims": [1], "periodic": [0], "values": [0.0]}, "spacing"),
    "specseq": (["specseq", "--descriptor", "{}"], "descriptor file", {}, "pieces"),
    "maslov-a": (["maslov", "--path-a", "{}", "--path-b", "valid"], "--path-a file",
                 {"times": [0.0, 1.0]}, "angles"),
    "maslov-b": (["maslov", "--path-a", "valid", "--path-b", "{}"], "--path-b file",
                 {"angles": [0.0, 0.0]}, "times"),
}


@pytest.mark.parametrize("shape", ["top-level-list", "missing-key", "not-utf8", "too-deep"])
@pytest.mark.parametrize("command", sorted(INPUT_FILES))
def test_input_file_of_the_wrong_shape_is_named(command, shape, tmp_path, capsys):
    template, what, lacking, key = INPUT_FILES[command]
    path = tmp_path / "in.json"
    if shape == "not-utf8":
        path.write_bytes(b"\xff\xfe")
    elif shape == "too-deep":
        path.write_text("[" * 100_000 + "]" * 100_000)
    else:
        path.write_text(json.dumps([1, 2] if shape == "top-level-list" else lacking))
    valid = _write(tmp_path, "valid.json", _VALID_PATH)
    argv = [{"{}": str(path), "valid": valid}.get(a, a) for a in template]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if shape in ("not-utf8", "too-deep"):
        assert captured.err.startswith(f"error: cannot read {path}: ")
    elif shape == "top-level-list":
        assert captured.err == f"error: bad {what} {path}: expected a JSON object\n"
    else:
        assert captured.err == f"error: bad {what} {path}: missing key '{key}'\n"


def test_analyze_tau_on_another_grid_is_usage_error(saddle_file, tmp_path, capsys):
    other = _write(tmp_path, "other.json", field_1d_quadratic().to_json())
    argv = ["analyze", "--field", saddle_file, "--tau", other,
            "--chart", "0", "--base", "16,16"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_analyze_tau_without_chart_is_usage_error(saddle_file, tau_file, tmp_path, capsys):
    # classify reads tau only along a chart; a tau on another grid was ignored too
    other = _write(tmp_path, "other.json", field_1d_quadratic().to_json())
    for tau in (tau_file, other):
        assert main(["analyze", "--field", saddle_file, "--tau", tau]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


def test_maslov_quarter_turn(tmp_path, capsys):
    a = _write(tmp_path, "a.json",
               {"times": [0.0, 1.0], "angles": [0.0, math.pi / 2]})
    b = _write(tmp_path, "b.json", {"times": [0.0, 1.0], "angles": [0.0, 0.0]})
    assert main(["maslov", "--path-a", a, "--path-b", b]) == 0
    assert capsys.readouterr().out.strip() == "1/2"


def test_maslov_tangential_crossing_fails(tmp_path):
    a = _write(tmp_path, "a.json",
               {"times": [0.0, 0.5, 1.0], "angles": [0.0, 0.0, 1.0]})
    b = _write(tmp_path, "b.json",
               {"times": [0.0, 1.0], "angles": [0.0, 0.0]})
    assert main(["maslov", "--path-a", a, "--path-b", b]) == 1


def test_maslov_flat_stretch_next_to_a_level_crosses_nothing(tmp_path, capsys):
    # the difference stays at the float just beyond 1 + tol: a window
    # ceil(lo - tol)..floor(hi + tol) would admit level 1, which the flat
    # stretch never reaches
    angle = 3.141592656731386
    a = _write(tmp_path, "a.json", {"times": [0, 1], "angles": [angle, angle]})
    b = _write(tmp_path, "b.json", {"times": [0, 1], "angles": [0, 0]})
    assert main(["maslov", "--path-a", a, "--path-b", b]) == 0
    assert capsys.readouterr() == ("0\n", "")


def test_maslov_level_beyond_the_float_range_is_a_usage_error(tmp_path, capsys):
    # the lifted difference, about 1.08e308 half-turns, is finite, but its
    # level 2k is not
    a = _write(tmp_path, "a.json", {"times": [0, 1], "angles": [1.7e308, 1.7e308]})
    b = _write(tmp_path, "b.json", {"times": [0, 1], "angles": [-1.7e308, -1.7e308]})
    assert main(["maslov", "--path-a", a, "--path-b", b]) == 2
    assert capsys.readouterr() == (
        "", "error: the lifted angle difference of the pair is not finite\n")


def test_maslov_crossing_between_two_near_level_breakpoints_counts_once(tmp_path, capsys):
    # the difference passes 1 between t = 0.5 and 0.51, 4e-10 on either side
    # at both breakpoints: one crossing, not one at each breakpoint
    a = _write(tmp_path, "a.json", {"times": [0, 0.5, 0.51, 1],
                                    "angles": [x * math.pi for x in (0.5, 1 - 4e-10, 1 + 4e-10, 1.5)]})
    b = _write(tmp_path, "b.json", {"times": [0, 1], "angles": [0, 0]})
    assert main(["maslov", "--path-a", a, "--path-b", b]) == 0
    assert capsys.readouterr() == ("1\n", "")


def test_example_monodromy(capsys):
    assert main(["example", "monodromy"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True


# sha256 of the stdout of `qmdkit specseq --descriptor <catalog descriptor>
# --pages <all|1|2>` and `qmdkit example <name>`, stdout that must stay
# byte-identical.  The specseq and cancellation-pair hashes were taken when
# the page differentials were dense matrices; the degeneracy-ladder examples'
# hashes when each chart rung sampled f's Hessians on its own.  None of these
# outputs prints a float, so the pins do not depend on LAPACK rounding.
PINNED_EXAMPLES = ("cancellation-pair", "torus-height", "saddle-qmd", "genus2-figure8",
                   "flattened-mask", "corner-smoothing", "quartic-flow")
STDOUT_SHA256 = {
    ("cancellation-pair", "all"): "29420b065c9869617ac6071c07cc5d329a44a8e7080c467c04337f9f34cfa010",
    ("cancellation-pair", "1"): "be15388389b48cf28c6d04f38b86ca405a9f153339fc5a35a6f895fc3bdc2fb6",
    ("cancellation-pair", "2"): "f4d99e00907ee98ab7dd2bbd03a6f0a2ee6571e95af8cc7934af93d47bf4f8b4",
    ("annulus-kunneth", "all"): "4c4230acfc25fea3d24f49983900a651ab48fe6e342cb947107b125d36e9640a",
    ("annulus-kunneth", "1"): "f51be053d61fbd137dff29c7ad720c90b7fc1eec4ddf13a326df3ed5ef89330d",
    ("annulus-kunneth", "2"): "402aebbba79a42e525f8ac041d5834e17ba8d5da427e97440aa2483dc06e5b6c",
    ("log-corner", "all"): "9262c2f0e478d3549fb12bfe067291bcfa46818409fc020daa7a018d75ce3406",
    ("log-corner", "1"): "e5a0f5ba05c6c5fe91b56b2ac4ef579eab437f2fa2b3c25ca6f97f0670ec93bb",
    ("log-corner", "2"): "451c20fde32b69bfd9c49a414ab6d152790d334f3af1c9ebb4efed362d3ae337",
    ("five-piece", "all"): "aa1327571be91c91ccae3b63f77593b055f0d47cf089aa25f26639bd1fbdcba0",
    ("five-piece", "1"): "19bba7717a6fd8511163ef90a66de232ee86e1514b3a8189dbbe41430c26635e",
    ("five-piece", "2"): "a1a2388a51d8b2f90f698f929dbe7403d1c4cd2759f934308c954aef8ae3ffdc",
    ("example", "cancellation-pair"): "23536ee559e70e062a4bab290bec0ab9bcf4b8be69a810516a1cefc597a2523d",
    ("example", "torus-height"): "70315607efa0591e8dd5eb3a174185aac2d15bb40cb39fe3a902711793601cf7",
    ("example", "saddle-qmd"): "05372b13e80058ad55bccfab0dc5be9c353991126878ae915f7c572b690823a0",
    ("example", "genus2-figure8"): "42515b48b023b7e0d733f8e8c741616b432d41b63e5777cfdb714f6cf6e4e45a",
    ("example", "flattened-mask"): "eff70530f4389d237e8608ebc6e6e72427c96720b09a466f6157eb7eca2c9b79",
    ("example", "corner-smoothing"): "6598a0ee9f6f9dfc45c99cde2c8973e9d1190e23456a3d1a349d11c34be4b6dc",
    ("example", "quartic-flow"): "bb70b56f3fbe6122ace207116fc7e4f5263ca50f5acf5ba342436a05535a48bf",
}


def test_specseq_and_example_stdout_is_pinned(tmp_path, capsys):
    got = {}
    for name, make in CATALOG_DESCRIPTORS.items():
        desc = _write(tmp_path, f"{name}.json", make().to_json())
        for pages in ("all", "1", "2"):
            assert main(["specseq", "--descriptor", desc, "--pages", pages]) == 0
            got[(name, pages)] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    for name in PINNED_EXAMPLES:
        assert main(["example", name]) == 0
        got[("example", name)] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == STDOUT_SHA256


# every flag that names an output file, before the path; "{...}" names an input
OUT_FLAGS = {
    "analyze-out": ["analyze", "--field", "{field}", "--out"],
    "flatten-out": ["flatten", "--field", "{field}", "--delta", "0.08", "--out"],
    "flatten-out-field": ["flatten", "--field", "{field}", "--delta", "0.08", "--out-field"],
    "specseq-out": ["specseq", "--descriptor", "{descriptor}", "--out"],
    "example-out": ["example", "monodromy", "--out"],
}


@pytest.mark.parametrize("case", ["analyze-out", "specseq-out", "example-out"])
def test_out_file_holds_what_stdout_prints(case, tmp_path, capsys):
    inputs = {"field": _write(tmp_path, "f.json", field_saddle().to_json()),
              "descriptor": _write(tmp_path, "d.json",
                                   descriptor_five_piece().to_json())}
    argv = [arg.format(**inputs) for arg in OUT_FLAGS[case][:-1]]  # all but --out
    out = tmp_path / "out.json"
    code = main(argv)
    printed = capsys.readouterr().out
    assert main(argv + ["--out", str(out)]) == code
    assert capsys.readouterr().out == ""
    assert out.read_text() == printed


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize("case", sorted(OUT_FLAGS))
def test_unwritable_out_path_is_usage_error(case, target, tmp_path, capsys):
    inputs = {"field": _write(tmp_path, "f.json", field_1d_quadratic().to_json()),
              "descriptor": _write(tmp_path, "d.json",
                                   descriptor_cancellation_pair().to_json())}
    out = str(tmp_path / "missing" / "x.json") if target == "missing-directory" \
        else str(tmp_path)
    argv = [arg.format(**inputs) for arg in OUT_FLAGS[case]] + [out]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")


@pytest.mark.parametrize("existing", [False, True])
def test_flatten_with_one_unwritable_output_writes_neither(existing, tmp_path, capsys):
    """`--out` is writable and `--out-field` is not: exit 2 before either file
    is written, so no new file is left and an existing one keeps its bytes."""
    field = _write(tmp_path, "f.json", field_1d_quadratic().to_json())
    sigma = tmp_path / "sigma.json"
    if existing:
        sigma.write_text("old\n")
    bad = str(tmp_path / "missing" / "x.json")
    assert main(["flatten", "--field", field, "--delta", "0.08",
                 "--out", str(sigma), "--out-field", bad]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {bad}: ")
    assert "Traceback" not in captured.err
    if existing:
        assert sigma.read_text() == "old\n"
    else:
        assert not sigma.exists()


def test_example_unknown_name():
    assert main(["example", "definitely-not-a-case"]) == 2


def test_example_list(capsys):
    assert main(["example", "--list"]) == 0
    names = capsys.readouterr().out.split()
    assert "monodromy" in names and "annulus-kunneth" in names


def test_python_dash_m_runs_the_cli():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    paths = [os.path.join(root, "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run([sys.executable, "-m", "qmdkit", "example", "--list"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "monodromy" in proc.stdout.split()


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_reused_parser_matches_a_fresh_one(saddle_file, tmp_path, capsys, monkeypatch):
    """Each call of an interleaved sequence, usage errors in between and
    optional flags on and off, gives what it gives first in a fresh parser."""
    from qmdkit import cli
    desc = _write(tmp_path, "d.json", descriptor_five_piece().to_json())
    field = _write(tmp_path, "f.json", field_1d_quadratic().to_json())
    out = str(tmp_path / "out.json")
    saddle = ["--field", saddle_file, "--chart", "0", "--base", "16,16"]
    calls = [
        ["specseq", "--descriptor", desc, "--cutoff", "1.2", "--out", out],
        ["specseq", "--descriptor", desc, "--pages", "banana"],
        ["specseq", "--descriptor", desc],
        ["analyze", *saddle, "--strict", "--expect", "qmd"],
        ["frobnicate"],
        ["analyze", *saddle],
        ["flatten", "--field", field, "--delta", "0.08", "--out", out],
        ["flatten", "--field", field, "--delta", "nan"],
        ["flatten", "--field", field, "--delta", "0.08"],
        ["maslov", *_quarter_turn_paths(tmp_path), "--tol", "1e-6"],
        ["maslov"],
        ["maslov", *_quarter_turn_paths(tmp_path)],
        ["example", "monodromy", "--out", out],
        ["example"],
        ["example", "--list"],
        ["specseq", "--descriptor", desc, "--pages", "2"],
    ]

    def run(argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        written = None
        if os.path.exists(out):
            with open(out) as fh:
                written = fh.read()
            os.remove(out)
        return code, captured.out, captured.err, written

    fresh = {}
    for argv in calls:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh[tuple(argv)] = run(argv)
    assert {result[0] for result in fresh.values()} == {0, 1, 2}
    monkeypatch.setattr(cli, "_PARSER", None)
    parser = None
    for argv in calls + calls[::-1]:
        assert run(argv) == fresh[tuple(argv)], argv
        parser = parser or cli._PARSER
        assert cli._PARSER is parser


def test_output_is_byte_identical_across_runs(saddle_file, tau_file, capsys):
    args = ["analyze", "--field", saddle_file, "--tau", tau_file,
            "--chart", "0", "--base", "16,16"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second
