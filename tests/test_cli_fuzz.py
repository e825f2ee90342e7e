"""Hypothesis fuzz over ``cli.main``: hostile numbers never crash the CLI.

Small fields (at most 9 x 9) and short paths are written to a temporary
directory and passed to ``analyze``, ``flatten`` and ``maslov`` together
with nan, +-inf, zero, negative and out-of-grid arguments, and spacings of
1e300 and 1e-300.  Small descriptors go to ``specseq`` with ``--pages``
and ``--cutoff``; now and then a value in them is a string, a boolean,
null, a nested list or nan, an action or a Betti number has 400 digits,
a name is unknown or used twice, or a boundary is not a list.  Every run
must return exit code 0, 1 or 2 without an exception escaping, print no
NaN or Infinity, and print the same stdout when repeated.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, seed, settings, strategies as st

from qmdkit.cli import main

SEED = int(os.environ.get("QMD_SEED", "0"))

HOSTILE = ["nan", "inf", "-inf", "0", "-0.0", "-1", "-1e-9", "1e-300", "1e300"]
# most draws are usable values, so that runs also get past parsing
numbers = st.one_of(st.sampled_from(["1e-9", "1e-6", "0.005", "0.02", "0.5", "2"]),
                    st.floats(1e-9, 2.0).map(repr),
                    st.sampled_from(HOSTILE),
                    st.floats(allow_nan=True, allow_infinity=True).map(repr))
usable = st.one_of(st.sampled_from(["1e-6", "0.005", "0.02", "0.5"]), numbers)


def _spoil(draw, values):
    """Now and then one entry replaced by nan or +-inf (one in ten fields or paths)."""
    if values and draw(st.integers(0, 9)) == 0:
        i = draw(st.integers(0, len(values) - 1))
        values[i] = draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    return values

components = st.sampled_from(["0"] * 6 + ["1", "-1", "3"])


@st.composite
def fields(draw):
    ndim = draw(st.integers(1, 2))
    dims = [draw(st.integers(3, 9)) for _ in range(ndim)]
    n = 1
    for d in dims:
        n *= d
    if draw(st.booleans()):
        # a bowl about a random node, so that the analysis runs to the end
        center = [draw(st.integers(0, d - 1)) for d in dims]
        values = []
        for flat in range(n):
            idx, rest = [], flat
            for d in reversed(dims):
                idx.append(rest % d)
                rest //= d
            idx.reverse()
            values.append(float(sum((i - c) ** 2 for i, c in zip(idx, center))))
    else:
        values = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    spacing = [draw(st.sampled_from([0.25] * 4 + [1.0] * 4
                                    + [0.0, -1.0, float("nan"), 1e300, 1e-300]))
               for _ in dims]
    periodic = [draw(st.integers(0, 1)) for _ in dims]
    return {"dims": dims, "spacing": spacing, "periodic": periodic,
            "values": _spoil(draw, values)}


@st.composite
def paths(draw):
    inner = draw(st.lists(st.floats(0.0, 1.0), max_size=3, unique=True))
    times = [0.0] + sorted(inner) + [1.0]
    if draw(st.integers(0, 9)) == 0:  # not strictly increasing, or off [0, 1]
        times = sorted(draw(st.lists(st.floats(-1.0, 2.0), min_size=2, max_size=5)))
    angles = draw(st.lists(st.floats(-7.0, 7.0), min_size=len(times),
                           max_size=len(times)))
    return {"times": times, "angles": _spoil(draw, angles)}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def _check(argv):
    first = _run(argv)
    assert first[0] in (0, 1, 2)
    assert "NaN" not in first[1] and "Infinity" not in first[1]
    assert _run(argv) == first


def _tol_flags(draw):
    argv = []
    if draw(st.booleans()):
        argv.append("--grad-tol=" + draw(usable))
    for flag in ("--eig-tol", "--value-tol"):
        if draw(st.integers(0, 2)) == 0:
            argv.append(f"{flag}={draw(usable)}")
    return argv


@seed(SEED)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(field=fields(), data=st.data())
def test_analyze_survives_hostile_numbers(field, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.json")
        with open(path, "w") as fh:
            json.dump(field, fh)
        argv = ["analyze", "--field", path, *_tol_flags(data.draw)]
        if data.draw(st.booleans()):
            axes = [a for a in range(len(field["dims"])) if data.draw(st.booleans())]
            base = [data.draw(st.integers(-2, n + 1)) for n in field["dims"]]
            argv += ["--chart=" + ",".join(map(str, axes)),
                     "--base=" + ",".join(map(str, base))]
        argv.append("--component=" + data.draw(components))
        if data.draw(st.booleans()):
            argv += ["--tau", path]
        _check(argv)


@seed(SEED)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(field=fields(), data=st.data())
def test_flatten_survives_hostile_numbers(field, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.json")
        with open(path, "w") as fh:
            json.dump(field, fh)
        argv = ["flatten", "--field", path, "--delta=" + data.draw(usable),
                "--component=" + data.draw(components),
                *_tol_flags(data.draw)]
        _check(argv)


@seed(SEED)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(a=paths(), b=paths(), tol=usable)
def test_maslov_survives_hostile_numbers(a, b, tol):
    with tempfile.TemporaryDirectory() as tmp:
        files = []
        for name, payload in (("a.json", a), ("b.json", b)):
            files.append(os.path.join(tmp, name))
            with open(files[-1], "w") as fh:
                json.dump(payload, fh)
        _check(["maslov", "--path-a", files[0], "--path-b", files[1], "--tol=" + tol])


HOSTILE_VALUES = st.sampled_from(["1.5", "", True, False, None, [], [[0]], {},
                                  float("nan"), float("inf")])


def _mostly(valid, hostile=HOSTILE_VALUES):
    """`valid`, or one time in ten a hostile JSON value."""
    return st.integers(0, 9).flatmap(lambda i: hostile if i == 0 else valid)


LOCAL_NAMES = ["v", "w", "e", "zz"]
# pieces are named a, b, c (now and then a again, or a hostile name), so
# these names exist when their pieces do; x/h0.0 never does
CROSS_NAMES = ["a/h0.0", "a/h1.0", "b/h0.0", "b/h1.0", "b/e", "c/v", "c/e", "x/h0.0"]


@st.composite
def pieces(draw, name):
    entry = {"name": draw(_mostly(st.just(name), st.one_of(HOSTILE_VALUES, st.just("a")))),
             # an integer too large for a float is still a finite action
             "action": draw(_mostly(st.sampled_from([-1.5, 0, 0.5, 1.0, 2.0]),
                                    st.one_of(HOSTILE_VALUES, st.just(10 ** 400)))),
             "iota": draw(_mostly(st.integers(-1, 2)))}
    if draw(st.booleans()):
        # a piece expands b_m into b_m generators, so usable Betti numbers
        # stay small; a 400-digit one must be refused before any is named
        entry["betti"] = draw(_mostly(st.lists(
            _mostly(st.integers(0, 2), st.one_of(HOSTILE_VALUES, st.just(10 ** 400))),
            max_size=3)))
    else:
        gens = st.fixed_dictionaries({"name": _mostly(st.sampled_from(LOCAL_NAMES[:3])),
                                      "degree": _mostly(st.integers(0, 1))})
        targets = _mostly(st.lists(st.sampled_from(LOCAL_NAMES), max_size=3))
        entry["complex"] = {
            "generators": draw(_mostly(st.lists(gens, max_size=4))),
            "boundary": draw(_mostly(st.dictionaries(st.sampled_from(LOCAL_NAMES[:3]),
                                                     targets, max_size=3)))}
    return entry


@st.composite
def descriptors(draw):
    term = st.fixed_dictionaries({"from": _mostly(st.sampled_from(CROSS_NAMES)),
                                  "to": _mostly(st.sampled_from(CROSS_NAMES))})
    count = draw(st.integers(0, 3))
    return {"pieces": draw(_mostly(st.tuples(*(pieces(n) for n in "abc"[:count])))),
            "cross_terms": draw(_mostly(st.lists(term, max_size=2)))}


@seed(SEED)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(desc=descriptors(), data=st.data())
def test_specseq_survives_hostile_descriptors(desc, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.json")
        with open(path, "w") as fh:
            json.dump(desc, fh)
        argv = ["specseq", "--descriptor", path,
                "--pages=" + data.draw(st.sampled_from(["all", "all", "1", "2", "0", "x"]))]
        if data.draw(st.booleans()):
            argv.append("--cutoff=" + data.draw(st.sampled_from(
                ["0.25", "0.75", "1.5", "-2", "nan", "inf", "1e400"])))
        _check(argv)
