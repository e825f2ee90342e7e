import math
import os
import warnings
from fractions import Fraction

import numpy as np
import pytest

from qmdkit.maslov import (CrossingRecord, LagrangianLinePath,
                           NonRegularCrossingError, PathError, concat,
                           conjugate, crossings, index_shift,
                           intersection_dim, maslov)
from qmdkit.maslov import _continuous_lift, _merged_difference

from _oracles import (oracle_concat, oracle_continuous_lift, oracle_crossings,
                      oracle_maslov, oracle_refine)

SEED = int(os.environ.get("QMD_SEED", "0"))


def _rot(theta):
    return np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])


def random_path(rng, n_seg=4, span=16):
    times = tuple(i / n_seg for i in range(n_seg + 1))
    lift = tuple(int(rng.integers(-span, span + 1)) / 8 for _ in range(n_seg + 1))
    return LagrangianLinePath.from_pi_units(times, lift)


def random_regular_pair(rng, n_seg=4):
    for _ in range(100):
        a = random_path(rng, n_seg)
        b = random_path(rng, n_seg)
        try:
            maslov(a, b)
            return a, b
        except NonRegularCrossingError:
            continue
    raise RuntimeError("could not draw a regular pair")


# -- pinned small cases ------------------------------------------------------


def test_equal_constant_paths_vanish():
    g = LagrangianLinePath.constant(0.3)
    assert maslov(g, g) == 0


def test_quarter_turn_against_horizontal():
    g = LagrangianLinePath.from_pi_units((0.0, 1.0), (0.0, 0.5))
    g2 = LagrangianLinePath.constant(0.0)
    assert maslov(g, g2) == Fraction(1, 2)


def test_half_turn_against_horizontal():
    g = LagrangianLinePath.from_pi_units((0.0, 1.0), (0.0, 1.0))
    g2 = LagrangianLinePath.constant(0.0)
    assert maslov(g, g2) == 1


def test_half_turn_splits_into_quarter_turns():
    a = LagrangianLinePath.from_pi_units((0.0, 1.0), (0.0, 0.5))
    b = LagrangianLinePath.from_pi_units((0.0, 1.0), (0.5, 1.0))
    const = LagrangianLinePath.constant(0.0)
    total = concat(a, b)
    assert maslov(total, concat(const, const)) == 1
    assert maslov(a, const) + maslov(b, const) == 1


def test_concatenation_with_constant_tail():
    g = LagrangianLinePath.from_pi_units((0.0, 1.0), (0.1, 0.7))
    tail = LagrangianLinePath.from_pi_units((0.0, 1.0), (0.7, 0.7))
    g2 = LagrangianLinePath.constant(0.4)
    assert maslov(concat(g, tail), concat(g2, g2)) == maslov(g, g2)


def test_reversal_flips_sign():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(50):
        a, b = random_regular_pair(rng)
        assert maslov(a.reverse(), b.reverse()) == -maslov(a, b)


def test_concat_endpoint_mismatch():
    a = LagrangianLinePath.from_pi_units((0.0, 1.0), (0.0, 0.25))
    b = LagrangianLinePath.from_pi_units((0.0, 1.0), (0.5, 0.75))
    with pytest.raises(PathError):
        concat(a, b)


def test_tangential_crossing_rejected():
    g = LagrangianLinePath.from_pi_units((0.0, 0.5, 1.0), (0.0, 0.0, 0.5))
    g2 = LagrangianLinePath.constant(0.0)
    with pytest.raises(NonRegularCrossingError):
        maslov(g, g2)


def test_hop_between_integer_levels_rejected():
    # with tol 0.4 both ends are near an integer and the segment is flat,
    # but the ends are near different integers
    g = LagrangianLinePath.from_pi_units((0.0, 1.0), (0.4, 0.6))
    g2 = LagrangianLinePath.constant(0.0)
    with pytest.raises(NonRegularCrossingError, match="hops between integer levels"):
        maslov(g, g2, tol=0.4)
    assert crossings(g, g2, tol=0.35) == oracle_crossings(g, g2, tol=0.35) == []


def test_crossing_records_have_nonzero_signs():
    g = LagrangianLinePath.from_pi_units((0.0, 1.0), (-0.3, 1.3))
    g2 = LagrangianLinePath.constant(0.25)
    recs = crossings(g, g2)
    assert len(recs) == 2  # levels 0.25 and 1.25 of the difference... lift passes 0 and 1
    assert all(r.sign_in != 0 or r.sign_out != 0 for r in recs)


def _random_times(rng, n):
    inner = np.sort(rng.random(n))
    return (0.0, *inner.tolist(), 1.0)


def test_merged_difference_matches_value_at_exactly():
    rng = np.random.default_rng(SEED + 9)
    for _ in range(60):
        ta = _random_times(rng, int(rng.integers(0, 40)))
        tb = _random_times(rng, int(rng.integers(0, 40)))
        if rng.random() < 0.5:  # share some breakpoints
            tb = tuple(sorted(set(tb) | set(ta[:: int(rng.integers(2, 5))])))
        a = LagrangianLinePath.from_pi_units(ta, rng.normal(0.0, 3.0, len(ta)))
        b = LagrangianLinePath.from_pi_units(tb, rng.normal(0.0, 3.0, len(tb)))
        times, diff = (x.tolist() for x in _merged_difference(a, b))
        assert times == sorted(set(a.times) | set(b.times))
        assert diff == [a.value_at(t) - b.value_at(t) for t in times]


# -- numpy passes against the per-breakpoint loops ----------------------------


def _grid_pair(rng):
    """1/8-grid lifts: crossings at breakpoints, tangential rejections and
    stretches parallel to the other path."""
    n = int(rng.integers(2, 12))
    times = np.linspace(0.0, 1.0, n)
    lift = rng.integers(-16, 17, n) / 8
    if rng.random() < 0.3:  # a stretch parallel to the other path
        return times, lift, times, lift + rng.integers(-2, 3) / 2
    m = int(rng.integers(2, 12))
    return times, lift, np.linspace(0.0, 1.0, m), rng.integers(-16, 17, m) / 8


def _walk_pair(rng):
    """Random walks of the lift as in the benchmark's paths workload, on
    shared or disjoint breakpoints."""
    def walk(times):
        steps = rng.uniform(-0.45, 0.45, len(times) - 1)
        return np.cumsum(np.concatenate([[rng.uniform(0, 1)], steps]))

    def breakpoints():
        inner = np.unique(rng.random(int(rng.integers(0, 200))))
        return np.concatenate([[0.0], inner[inner > 0.0], [1.0]])
    ta = breakpoints()
    tb = ta if rng.random() < 0.5 else breakpoints()
    return ta, walk(ta), tb, walk(tb)


def _near_level_pair(rng, tol):
    """Differences within 2 tol of the integer levels, often flat: tangential
    crossings on either side of a breakpoint, hops between neighbouring
    levels, and flat stretches at the float nearest a level +- tol."""
    n = int(rng.integers(2, 8))
    level = np.cumsum(rng.integers(-1, 2, n)) if rng.random() < 0.5 else np.full(n, rng.integers(-3, 4))
    off = rng.choice([-2.0, -1.05, -1.0, -0.95, 0.0, 0.95, 1.0, 1.05, 2.0], n)
    if rng.random() < 0.5:
        off[:] = off[0]
    times = np.linspace(0.0, 1.0, n)
    return times, level + off * tol, np.array([0.0, 1.0]), np.zeros(2)


def _outcome(fn, *args):
    """Each record's fields with their types, or the error's type and message."""
    try:
        return [tuple((type(v), v) for v in vars(r).values()) for r in fn(*args)]
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def test_crossings_match_per_breakpoint_oracle():
    rng = np.random.default_rng(SEED + 10)
    raised = 0
    for trial in range(900):
        tol = float(rng.choice([1e-9, 1e-3, 0.13, 0.4]))
        if trial % 3 == 2:
            ta, ua, tb, ub = _near_level_pair(rng, tol)
        else:
            ta, ua, tb, ub = (_grid_pair if trial % 3 else _walk_pair)(rng)
        a = LagrangianLinePath.from_pi_units(ta, ua)
        b = LagrangianLinePath.from_pi_units(tb, ub)
        want = _outcome(oracle_crossings, a, b, tol)
        assert _outcome(crossings, a, b, tol) == want
        if isinstance(want, tuple):
            raised += 1
        else:
            index = maslov(a, b, tol)
            assert isinstance(index, Fraction) and index == oracle_maslov(a, b, tol)
    assert 0 < raised < 900


def test_maslov_builds_no_records(monkeypatch):
    built = []
    init = CrossingRecord.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)
    monkeypatch.setattr(CrossingRecord, "__init__", counting_init)
    rng = np.random.default_rng(SEED + 12)
    regular = 0
    for trial in range(600):
        tol = float(rng.choice([1e-9, 1e-3, 0.13, 0.4]))
        if trial % 3 == 2:
            ta, ua, tb, ub = _near_level_pair(rng, tol)
        else:
            ta, ua, tb, ub = (_grid_pair if trial % 3 else _walk_pair)(rng)
        a = LagrangianLinePath.from_pi_units(ta, ua)
        b = LagrangianLinePath.from_pi_units(tb, ub)
        before = len(built)
        try:
            index = maslov(a, b, tol)
        except (ArithmeticError, ValueError) as exc:
            index = type(exc), str(exc)
        assert len(built) == before
        if isinstance(index, tuple):  # raised as crossings raises
            assert _outcome(crossings, a, b, tol) == index
            continue
        records = crossings(a, b, tol)
        assert index == oracle_maslov(a, b, tol)
        assert index == sum((r.contribution for r in records), Fraction(0))
        regular += 1
    assert regular > 0 and built    # the count sees the records crossings builds


def test_non_finite_difference_is_path_error():
    # the difference overflows to inf at t = 1; a lift spanning the float
    # range makes it nan at t = 0 (an inf slope times a zero step); the
    # oracle evaluates the lifts without silencing numpy's overflow warnings
    for ua, ub in (((0.0, 1e308), (0.0, -1e308)), ((-1e308, 1e308), (0.0, 0.0))):
        a = LagrangianLinePath.from_pi_units((0.0, 1.0), ua)
        b = LagrangianLinePath.from_pi_units((0.0, 1.0), ub)
        for fn in (crossings, oracle_crossings, maslov):
            with pytest.raises(PathError), np.errstate(all="ignore"):
                fn(a, b)


def test_continuous_lift_matches_step_rule():
    assert _continuous_lift([0.75, 0.0, 0.5]).tolist() == [0.75, 1.0, 0.5]
    assert oracle_continuous_lift([0.75, 0.0, 0.5]) == [0.75, 1.0, 0.5]
    rng = np.random.default_rng(SEED + 11)
    for _ in range(300):
        n = int(rng.integers(1, 60))
        if rng.random() < 0.5:  # quarter-turn grid: half-turn ties everywhere
            raw = (rng.integers(0, 4, n) / 4).tolist()
        else:  # angles read mod pi, as from_angles gets them
            raw = (rng.uniform(-40.0, 40.0, n) % 1.0).tolist()
        got = _continuous_lift(raw)
        assert got.dtype == np.float64
        assert got.tolist() == oracle_continuous_lift(raw)


def test_tiny_time_step_warns_nothing():
    # a subnormal step overflows the slope to inf (a 1e-300 step would need a
    # jump of 1e8 half-turns); the loop took that silently.  Its crossing
    # lands at t = 0.0, tied with the endpoint crossing, which stays first.
    times = (0.0, 1e-310, 0.5, 1.0)
    a = LagrangianLinePath.from_pi_units(times, (1.0, 2.3, 2.5, 2.7))
    b = LagrangianLinePath.constant(0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        recs = crossings(a, b)
        index = maslov(a, b)
    assert recs == oracle_crossings(a, b)
    assert [(r.time, r.endpoint) for r in recs] == [(0.0, True), (0.0, False)]
    assert index == oracle_maslov(a, b) == Fraction(3, 2)


# -- the level walk: one tolerance rule ----------------------------------------

TOLS = (1e-9, 1e-3, 0.13, 0.4)


def test_unusable_tol_is_rejected():
    # at tol = 2 every value is near three integers: the line from 0.2 to
    # 3.2 crosses three levels
    g = LagrangianLinePath.from_pi_units((0.0, 1.0), (0.2, 3.2))
    h = LagrangianLinePath.constant(0.0)
    assert maslov(g, h) == 3
    for tol in (2.0, 0.5, 0.0, -1e-9, float("nan")):
        for call in (lambda: maslov(g, h, tol), lambda: crossings(g, h, tol),
                     lambda: intersection_dim(g, h, 0.5, tol),
                     lambda: concat(g, LagrangianLinePath.constant(0.2 * math.pi), tol)):
            with pytest.raises(ValueError, match="tol must lie strictly between 0 and 0.5"):
                call()


def test_line_across_one_level_reads_one_at_every_sampling():
    h = LagrangianLinePath.constant(0.0)
    for n in (2, 3, 6, 11):
        g = LagrangianLinePath.from_pi_units(np.linspace(0.0, 1.0, n), np.linspace(0.5, 1.5, n))
        for tol in TOLS:
            assert maslov(g, h, tol) == 1
            assert sum(r.contribution for r in crossings(g, h, tol)) == 1


def test_crossing_between_two_near_level_breakpoints_counts_once():
    g = LagrangianLinePath.from_angles(
        (0.0, 0.5, 0.51, 1.0), [x * math.pi for x in (0.5, 1 - 4e-10, 1 + 4e-10, 1.5)])
    h = LagrangianLinePath.constant(0.0)
    assert maslov(g, h) == 1
    assert [(r.sign_in, r.sign_out) for r in crossings(g, h)] == [(1, 0), (0, 1)]


def _regular_pairs(rng, tol, count):
    """Pairs whose index exists at ``tol``: 1/8-grid paths on shared
    breakpoints and random walks on shared or disjoint ones."""
    found = 0
    while found < count:
        if rng.random() < 0.5:
            a, b = random_path(rng), random_path(rng)
        else:
            ta, ua, tb, ub = _walk_pair(rng)
            a = LagrangianLinePath.from_pi_units(ta, ua)
            b = LagrangianLinePath.from_pi_units(tb, ub)
        try:
            maslov(a, b, tol)
        except NonRegularCrossingError:
            continue
        found += 1
        yield a, b


def test_index_is_invariant_under_refinement():
    rng = np.random.default_rng(SEED + 15)
    for tol in TOLS:
        for a, b in _regular_pairs(rng, tol, 60):
            index = maslov(a, b, tol)
            for k in (2, 3, 5):
                assert maslov(a.refine(k), b, tol) == index
                assert maslov(a, b.refine(k), tol) == index


def test_index_is_invariant_under_nudges_within_a_level():
    rng = np.random.default_rng(SEED + 16)
    h = LagrangianLinePath.constant(0.0)
    for tol in TOLS:
        nudged = 0
        while nudged < 150:
            # breakpoints on levels or halfway between, no segment flat
            n = int(rng.integers(3, 12))
            times = np.linspace(0.0, 1.0, n)
            level = np.cumsum(rng.integers(-1, 2, n)) + (rng.random(n) < 0.2) / 2
            lift = level + rng.uniform(-0.99, 0.99, n) * tol * (level % 1 == 0)
            j = int(rng.integers(0, n))
            moved = lift.copy()
            moved[j] = level[j] + rng.uniform(-0.99, 0.99) * tol
            if level[j] % 1 or any((np.abs(np.diff(u) / np.diff(times)) <= tol).any()
                                   for u in (lift, moved)):
                continue
            index = maslov(LagrangianLinePath.from_pi_units(times, lift), h, tol)
            assert maslov(LagrangianLinePath.from_pi_units(times, moved), h, tol) == index
            nudged += 1


# -- axioms on random pairs --------------------------------------------------


def test_additivity_under_concatenation():
    rng = np.random.default_rng(SEED + 2)
    done = 0
    while done < 100:
        a, a2 = random_regular_pair(rng)
        b = random_path(rng)
        b2 = random_path(rng)
        # align starts with the first pair's endpoints
        b = LagrangianLinePath.from_pi_units(
            b.times, tuple(u - b.lift[0] + a.lift[-1] for u in b.lift))
        b2 = LagrangianLinePath.from_pi_units(
            b2.times, tuple(u - b2.lift[0] + a2.lift[-1] for u in b2.lift))
        try:
            total = maslov(concat(a, b), concat(a2, b2))
            parts = maslov(a, a2) + maslov(b, b2)
        except NonRegularCrossingError:
            continue
        assert total == parts
        done += 1


def test_endpoint_parity_relation():
    rng = np.random.default_rng(SEED + 3)
    for _ in range(100):
        a, b = random_regular_pair(rng)
        mu = maslov(a, b)
        d0 = intersection_dim(a, b, 0.0)
        d1 = intersection_dim(a, b, 1.0)
        assert (2 * mu - (d0 - d1)) % 2 == 0


def test_constant_intersection_dimension_vanishes():
    rng = np.random.default_rng(SEED + 4)
    for _ in range(100):
        a = random_path(rng)
        offsets = [int(rng.integers(2, 15)) / 16 for _ in a.lift]
        b = LagrangianLinePath.from_pi_units(
            a.times, tuple(u - o for u, o in zip(a.lift, offsets)))
        # difference stays strictly inside (0, 1): never crosses a level
        assert maslov(a, b) == 0
    # identically equal paths, arbitrary representative shift
    g = random_path(np.random.default_rng(SEED + 5))
    shifted = LagrangianLinePath.from_pi_units(g.times,
                                               tuple(u + 2 for u in g.lift))
    assert maslov(g, shifted) == 0


def test_reparameterization_invariance():
    rng = np.random.default_rng(SEED + 6)
    for _ in range(100):
        a, b = random_regular_pair(rng)
        increments = rng.integers(1, 5, size=len(a.times) - 1).astype(float)
        knots = np.concatenate([[0.0], np.cumsum(increments)])
        knots /= knots[-1]
        a2 = a.reparameterize(tuple(knots))
        b2 = b.reparameterize(tuple(knots))
        assert maslov(a2, b2) == maslov(a, b)


def test_constant_conjugation_invariance_rotation():
    g = LagrangianLinePath.from_pi_units((0.0, 1.0), (0.0, 0.5))
    g2 = LagrangianLinePath.constant(0.0)
    m = _rot(math.pi / 4)
    assert maslov(conjugate(g, m), conjugate(g2, m)) == Fraction(1, 2)


def test_constant_conjugation_invariance_shear():
    g = LagrangianLinePath.from_pi_units((0.0, 1.0), (0.0, 0.5))
    g2 = LagrangianLinePath.constant(0.0)
    m = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert maslov(conjugate(g.refine(4), m), conjugate(g2.refine(4), m)) == \
        Fraction(1, 2)


def _fine_enough(path):
    # conjugation tracks lifts faithfully only for slowly turning samples;
    # keep each refined segment under a sixteenth of a turn
    worst = max(abs(b - a) for a, b in zip(path.lift, path.lift[1:]))
    return path.refine(max(1, math.ceil(worst * 16)))


def test_conjugation_invariance_random():
    rng = np.random.default_rng(SEED + 7)
    done = 0
    while done < 100:
        a, b = random_regular_pair(rng, n_seg=3)
        theta = float(rng.uniform(0, math.pi))
        s = float(rng.uniform(-0.8, 0.8))
        m = _rot(theta) @ np.array([[1.0, s], [0.0, 1.0]])
        try:
            before = maslov(a, b)
            after = maslov(conjugate(_fine_enough(a), m),
                           conjugate(_fine_enough(b), m))
        except NonRegularCrossingError:
            continue
        assert before == after
        done += 1


def test_conjugate_requires_unit_determinant():
    g = LagrangianLinePath.constant(0.0)
    with pytest.raises(ValueError):
        conjugate(g, np.array([[2.0, 0.0], [0.0, 1.0]]))


def test_identity_conjugation_is_identity():
    g = LagrangianLinePath.from_pi_units((0.0, 0.5, 1.0), (0.1, 0.4, 0.9))
    h = conjugate(g, np.eye(2))
    assert np.allclose(h.lift, g.lift)


# -- index shift ---------------------------------------------------------------


def test_index_shift_half_and_one():
    assert index_shift(Fraction(1, 2), 1) == 0
    assert index_shift(2, 2) == 1


def test_index_shift_parity_violation():
    with pytest.raises(ValueError):
        index_shift(Fraction(1, 2), 2)


def test_index_shift_integrality_on_coherent_inputs():
    rng = np.random.default_rng(SEED + 8)
    for _ in range(100):
        dim_c = int(rng.integers(0, 6))
        k = int(rng.integers(-6, 7))
        i_c = Fraction(2 * k + dim_c, 2)  # coherent by construction
        out = index_shift(i_c, dim_c)
        assert isinstance(out, int)
        assert Fraction(out) == i_c - Fraction(dim_c, 2)


# -- serialization ---------------------------------------------------------------


def test_path_json_roundtrip():
    g = LagrangianLinePath.from_pi_units((0.0, 0.25, 1.0), (0.1, 0.45, 0.8))
    h = LagrangianLinePath.from_json(g.to_json())
    assert np.allclose(h.lift, g.lift) and np.array_equal(h.times, g.times)


def test_path_holds_read_only_float64_copies():
    times, lift = np.array([0.0, 0.5, 1.0]), np.array([0.1, 0.4, 0.9])
    paths = [LagrangianLinePath(times, lift), LagrangianLinePath.from_pi_units(times, lift)]
    for a in (array for g in paths for array in (g.times, g.lift)):
        assert a.dtype == np.float64 and a.ndim == 1 and not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 2.0
    times[1], lift[1] = 0.25, 7.0  # the caller's arrays, after the fact
    for g in paths:
        assert g.times.tolist() == [0.0, 0.5, 1.0] and g.lift.tolist() == [0.1, 0.4, 0.9]
    with pytest.raises(PathError, match="1-D"):
        LagrangianLinePath([[0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]])


def test_path_equality_and_hash_ignore_container_and_sign_of_zero():
    as_list = LagrangianLinePath([0.0, 0.5, 1.0], [0.0, 0.25, -1.5])
    as_tuple = LagrangianLinePath((-0.0, 0.5, 1.0), (-0.0, 0.25, -1.5))
    as_array = LagrangianLinePath(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.25, -1.5]))
    assert as_list == as_tuple == as_array
    assert hash(as_list) == hash(as_tuple) == hash(as_array)
    assert {as_list, as_tuple, as_array} == {as_array} and as_tuple in {as_list}
    other = LagrangianLinePath((0.0, 0.5, 1.0), (0.0, 0.25, -1.0))
    assert other != as_list and other not in {as_list, as_tuple}
    assert as_list != as_list.to_json()


def test_to_json_emits_python_floats_that_from_json_reads():
    rng = np.random.default_rng(SEED + 14)
    g = LagrangianLinePath.from_pi_units(_random_times(rng, 20), rng.normal(0.0, 3.0, 22))
    data = g.to_json()
    assert all(type(v) is float for v in data["times"] + data["angles"])
    h = LagrangianLinePath.from_json(data)  # passes the number-type check
    assert h.times.tobytes() == g.times.tobytes() and np.allclose(h.lift % 1.0, g.lift % 1.0)


def _bits(g):
    return g.times.tobytes(), g.lift.tobytes()


def test_refine_and_concat_match_their_loops():
    rng = np.random.default_rng(SEED + 13)
    for _ in range(150):
        ta, ua, tb, ub = _walk_pair(rng)
        a = LagrangianLinePath.from_pi_units(ta, ua)
        for k in range(1, 6):
            assert _bits(a.refine(k)) == _bits(oracle_refine(a, k))
        # b starts on a's final line, whole half-turns away in the lift
        b = LagrangianLinePath.from_pi_units(tb, ub - ub[0] + a.lift[-1] + rng.integers(-3, 4))
        assert _bits(concat(a, b)) == _bits(oracle_concat(a, b))
        unaligned = LagrangianLinePath.from_pi_units(tb, ub + 0.5 - (ub[0] - a.lift[-1]) % 1.0)
        for fn in (concat, oracle_concat):
            with pytest.raises(PathError, match="distinct lines"):
                fn(a, unaligned)


def test_index_is_exact_rational():
    g = LagrangianLinePath.from_pi_units((0.0, 1.0), (0.0, 0.5))
    idx = maslov(g, LagrangianLinePath.constant(0.0))
    assert isinstance(idx, Fraction) and str(idx) == "1/2"
