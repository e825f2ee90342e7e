"""The CLI's JSON writer against ``json.dumps(indent=2, sort_keys=True)``.

``qmdkit.cli._dumps`` must write the same bytes as ``oracle_dumps`` on random
nested payloads and on the payloads the subcommands build, numpy scalars
included, and must raise ``TypeError`` wherever json does.  Its keys are str
only: it raises ``TypeError`` on the int, float, bool and None keys that json
would coerce.
"""

import os

import numpy as np
import pytest

from qmdkit import catalog, cli
from qmdkit.catalog import field_1d_quadratic, field_saddle
from qmdkit.cli import _dumps

from _oracles import oracle_dumps

SEED = int(os.environ.get("QMD_SEED", "0"))

_CHARS = list("az09 ") + ['"', "\\", "/", "\n", "\r", "\t", "\b", "\f", "\x00",
                          "\x1f", "\x7f", "é", "ß", "中", " ", "\ud800", "😀"]
_FLOATS = [0.0, -0.0, 5e-324, 1e16, 1e22, 1e-7, 0.1, 1 / 3, 1.7976931348623157e308,
           float("nan"), float("inf"), float("-inf")]
_INTS = [0, 1, -1, 2 ** 53 + 1, 2 ** 64, -(10 ** 30), 10 ** 200]


def _string(rng) -> str:
    return "".join(_CHARS[rng.integers(len(_CHARS))] for _ in range(rng.integers(0, 6)))


def _float(rng) -> float:
    x = _FLOATS[rng.integers(len(_FLOATS))] if rng.random() < 0.5 \
        else float(rng.normal() * 10.0 ** rng.integers(-8, 9))
    return np.float64(x) if rng.random() < 0.3 else x


def _int(rng) -> int:
    return _INTS[rng.integers(len(_INTS))] if rng.random() < 0.5 \
        else int(rng.integers(-1000, 1000))


def _scalar(rng):
    return [_string, _float, _int, lambda r: bool(r.integers(2)),
            lambda r: None][rng.integers(5)](rng)


def _keys(rng, n: int) -> list:
    return [_string(rng) for _ in range(n)]


def _value(rng, depth: int):
    kind = rng.integers(5) if depth < 4 else 4
    n = int(rng.integers(0, 5))
    if kind == 0:
        return {k: _value(rng, depth + 1) for k in _keys(rng, n)}
    if kind == 1:
        return [_value(rng, depth + 1) for _ in range(n)]
    if kind == 2:
        return tuple(_value(rng, depth + 1) for _ in range(n))
    if kind == 3:
        return [{}, [], ()][rng.integers(3)]
    return _scalar(rng)


def test_random_payloads_match_json_dumps():
    rng = np.random.default_rng(SEED)
    for _ in range(1000):
        payload = {k: _value(rng, 1) for k in _keys(rng, int(rng.integers(0, 6)))}
        assert _dumps(payload) == oracle_dumps(payload), payload
    # a top level that is no dict, and the specials on their own
    for payload in [[], (), {}, "é\n", 7, -0.0, np.float64("nan"), None, True]:
        assert _dumps(payload) == oracle_dumps(payload)


@pytest.mark.parametrize("bad", [
    {1, 2}, b"bytes", np.int64(1), np.float32(0.5), np.bool_(True), object(),
    {"a": 1, 2: 3}, {(1, 2): 0}, {np.int64(1): 0}, {None: 0, "a": 1}],
    ids=["set", "bytes", "int64", "float32", "bool_", "object",
         "mixed-keys", "tuple-key", "int64-key", "none-and-str-keys"])
@pytest.mark.parametrize("where", ["top", "in-list", "in-dict"])
def test_what_json_refuses_raises_type_error(bad, where):
    payload = {"top": bad, "in-list": {"x": [1, bad]},
               "in-dict": {"a": {"b": bad}, "c": 1.5}}[where]
    with pytest.raises(TypeError):
        oracle_dumps(payload)
    with pytest.raises(TypeError):
        _dumps(payload)


@pytest.mark.parametrize("key", [1, 2 ** 64, 0.5, float("nan"), True, None],
                         ids=["int", "big-int", "float", "nan", "bool", "none"])
def test_non_str_key_raises_type_error(key):
    """json coerces these keys to strings; the CLI's writer refuses them and
    names the key's type."""
    payload = {"a": [1, {"b": {key: 0}}]}
    oracle_dumps(payload)
    with pytest.raises(TypeError, match=f"not {type(key).__name__}$"):
        _dumps(payload)


def _has_float(o) -> bool:
    if isinstance(o, dict):
        return any(_has_float(v) for v in o.values())
    if isinstance(o, (list, tuple)):
        return any(_has_float(v) for v in o)
    return isinstance(o, float)


@pytest.mark.parametrize("name", catalog.list_examples())
def test_catalog_report_matches_json_dumps(name):
    payload = catalog.run_example(name).to_json()
    assert _dumps(payload) == oracle_dumps(payload)


def _written_payloads(monkeypatch, argv) -> list:
    """Every payload `main(argv)` hands to the writer, as objects."""
    seen = []

    def record(payload):
        seen.append(payload)
        return _dumps(payload)

    monkeypatch.setattr(cli, "_dumps", record)
    cli.main(argv)
    return seen


def test_analyze_and_flatten_payloads_match_json_dumps(tmp_path, monkeypatch, capsys):
    saddle, line = tmp_path / "saddle.json", tmp_path / "line.json"
    saddle.write_text(oracle_dumps(field_saddle().to_json()))
    line.write_text(oracle_dumps(field_1d_quadratic().to_json()))
    analyze = _written_payloads(monkeypatch, ["analyze", "--field", str(saddle),
                                              "--chart", "0", "--base", "16,16"])
    flat = _written_payloads(monkeypatch, [
        "flatten", "--field", str(line), "--delta", "0.08",
        "--out", str(tmp_path / "sigma.json"), "--out-field", str(tmp_path / "f.json")])
    capsys.readouterr()
    # flatten writes the sigma mask, the flattened field, then its report
    assert len(analyze) == 1 and len(flat) == 3
    assert _has_float(analyze[0]["hessian_spectra"]) and _has_float(flat[1])
    assert all(isinstance(flat[2][k], float) for k in ("delta_used", "shift", "c1_distance"))
    for payload in analyze + flat:
        assert _dumps(payload) == oracle_dumps(payload)
