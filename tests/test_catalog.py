import json
import math

import pytest

from qmdkit.catalog import (CATALOG_DESCRIPTORS, EXAMPLES, UnknownExampleError,
                            line_arrangement_counts, list_examples, monodromy,
                            reeb_chord_oracle, reeb_chord_table, run_example)


def test_monodromy_product():
    assert monodromy() == [[2, 1], [-1, 0]]


def test_monodromy_det_and_trace():
    m = monodromy()
    assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1
    assert m[0][0] + m[1][1] == 2


def test_reeb_slope_53_joins_diagonal():
    table = reeb_chord_table(5, 3)
    assert table[((0, 0), (1, 1))]
    assert not table[((0, 0), (0, 1))]
    assert not table[((0, 0), (1, 0))]


def test_reeb_even_q_rule():
    assert reeb_chord_table(1, 2)[((0, 0), (0, 1))]


def test_reeb_even_p_rule():
    assert reeb_chord_table(2, 1)[((0, 0), (1, 0))]


def test_reeb_requires_lowest_terms():
    with pytest.raises(ValueError):
        reeb_chord_table(2, 4)
    with pytest.raises(ValueError):
        reeb_chord_oracle(6, 3)


def test_reeb_rules_match_oracle_small_sweep():
    for p in range(1, 13):
        for q in range(1, 13):
            if math.gcd(p, q) != 1:
                continue
            assert reeb_chord_table(p, q) == reeb_chord_oracle(p, q), (p, q)


def test_reeb_exactly_two_connections_per_slope():
    for p, q in ((1, 1), (2, 1), (1, 2), (5, 3), (7, 4), (9, 8)):
        assert sum(reeb_chord_table(p, q).values()) == 2


def test_line_arrangement_counts():
    counts = line_arrangement_counts(4)
    assert counts["intersections"] == 6
    assert counts["exceptional_curves"] == 6
    assert counts["nodes"] == 12
    assert counts["punctures_per_line"] == 3


def test_every_example_passes():
    for name in list_examples():
        report = run_example(name)
        failing = [c.name for c in report.checks if not c.passed]
        assert report.passed, f"{name}: {failing}"


def test_examples_are_reproducible():
    for name in ("monodromy", "cancellation-pair", "torus-height"):
        first = json.dumps(run_example(name).to_json(), sort_keys=True)
        second = json.dumps(run_example(name).to_json(), sort_keys=True)
        assert first == second


def test_every_check_carries_provenance():
    for name in list_examples():
        report = run_example(name)
        for check in report.checks:
            assert check.provenance in ("pinned", "analytic", "oracle")


def test_unknown_example_rejected():
    with pytest.raises(UnknownExampleError):
        run_example("no-such-example")


def test_descriptor_registry_builds():
    from qmdkit.specseq import build_from_qmd
    for name, make in CATALOG_DESCRIPTORS.items():
        # construction checks names, degrees, the filtration and d^2 = 0
        build_from_qmd(make())
