import itertools
import math
import os

import numpy as np
import pytest

from qmdkit.catalog import (TOLS, field_1d_quadratic, field_1d_quartic,
                            field_corner, field_figure8_max, field_figure8_min,
                            field_figure8_perturbed, field_saddle,
                            field_torus_height, tau_1d_quartic, tau_saddle,
                            torus_circle_indices)
from qmdkit.cubical import GridMask, axis_interval, betti_of_mask
from qmdkit.fields import BoundaryNodeError, GridMismatchError, ScalarField, c1_distance
from qmdkit.graphlag import isolation_scan
from qmdkit.morse import (BOX_MARGIN, ChartError, ConstructionError, CriticalSet,
                          NoCriticalPointsError, SubmanifoldChart, Tolerances,
                          _box_distance, _dilate, _kernel_spans_axes,
                          _kernel_transverse, build_rho,
                          check_flattened_degenerate,
                          check_minimally_degenerate, check_qmd, classify,
                          connected_components, construct_tau, critical_node_mask,
                          detect_critical_set, flatten, index_preserved,
                          flatten_along_chart, isolating_box, negative_index,
                          transverse_negative_index, verify_thickening)

from _oracles import (_box_excess_distance as oracle_box_excess_distance,
                      oracle_axis_interval, oracle_check_flattened_degenerate,
                      oracle_check_minimally_degenerate, oracle_check_qmd,
                      oracle_classify, oracle_connected_components,
                      oracle_construct_tau, oracle_flatten,
                      oracle_flatten_along_chart, oracle_grid_distance_to_component,
                      oracle_index_preserved, oracle_kernel_spans_axes,
                      oracle_kernel_transverse, oracle_rho,
                      oracle_transverse_negative_index, oracle_verify_thickening)

SEED = int(os.environ.get("QMD_SEED", "0"))


def _singleton(dims, periodic, node):
    cells = np.zeros(dims, bool)
    cells[node] = True
    return CriticalSet((GridMask(dims, periodic, cells),), 1e-6)


def _plane(fn, n=33):
    h = 2.0 / (n - 1)
    return ScalarField.sample((n, n), (h, h), (False, False), fn,
                              origin=(-1.0, -1.0))


# -- detection -----------------------------------------------------------


def test_detect_paraboloid_minimum():
    f = _plane(lambda x, y: x * x + y * y)
    crit = detect_critical_set(f, 1e-6)
    assert len(crit.components) == 1
    assert crit.component_nodes(0) == [(16, 16)]


def test_detect_torus_height_circles():
    f = field_torus_height()
    crit = detect_critical_set(f, 1e-6)
    assert len(crit.components) == 2
    i_max, i_min = torus_circle_indices()
    rows = sorted(np.argwhere(comp.cells)[0][0] for comp in crit.components)
    assert rows == sorted([i_max, i_min])
    for comp in crit.components:
        assert comp.count() == f.dims[1]


def test_detect_requires_critical_nodes():
    f = _plane(lambda x, y: 3.0 * x + y)
    with pytest.raises(NoCriticalPointsError):
        detect_critical_set(f, 1e-8)


def test_boundary_nodes_never_detected():
    f = _plane(lambda x, y: x * x * y * y)
    mask = critical_node_mask(f, 1e-6)
    assert not mask[0, :].any() and not mask[:, 0].any()
    assert not mask[-1, :].any() and not mask[:, -1].any()


def test_union_find_components_match_dfs_oracle():
    """Component for component and in the same order, on random 1-3-D masks
    with open and periodic axes, sizes 1 and 2 among them, and the empty mask."""
    rng = np.random.default_rng(SEED + 5)
    for trial in range(300):
        d = 1 + trial % 3
        dims = tuple(int(m) for m in rng.integers(1, (3 if trial % 5 == 0 else 12) + 1, d))
        periodic = tuple(bool(p) for p in rng.integers(0, 2, d))
        mask = rng.random(dims) < float(rng.choice([0.0, 0.1, 0.3, 0.5, 0.7, 1.0]))
        got = connected_components(mask, periodic)
        want = oracle_connected_components(mask, periodic)
        assert len(got) == len(want), (mask, periodic)
        for a, b in zip(got, want):
            assert a.dtype == bool and np.array_equal(a, b), (mask, periodic)


def test_isolating_box_wraps_periodic_axis():
    f = field_torus_height()
    crit = detect_critical_set(f, 1e-6)
    box = isolating_box(crit.components[0])
    assert box.all(axis=1).sum() == 7  # 1 + 2*3 theta rows, full phi circle


def test_axis_interval_matches_loop_oracle():
    """The shared crop rule, ``cubical.axis_interval`` at the box's margin,
    equals the per-index loop on open and periodic axes of 1-40 cells:
    random index sets, one index, full axes, runs across the seam and
    evenly spaced sets, whose largest gaps tie."""
    rng = np.random.default_rng(SEED + 7)
    for trial in range(2000):
        n = int(rng.integers(1, 41))
        kind = trial % 5
        if kind == 0:
            idx = rng.integers(0, n, int(rng.integers(1, n + 1)))
        elif kind == 1:
            idx = rng.integers(0, n, 1)
        elif kind == 2:
            idx = rng.permutation(n)
        elif kind == 3:
            idx = (int(rng.integers(0, n)) + np.arange(int(rng.integers(1, n + 1)))) % n
        else:
            step = int(rng.integers(1, n + 1))
            idx = (np.arange(0, n, step) + int(rng.integers(0, n))) % n
        present = np.zeros(n, dtype=bool)
        present[idx] = True
        for periodic in (False, True):
            start, length = axis_interval(present, periodic, BOX_MARGIN)
            assert 0 <= start < n and 1 <= length <= n
            box = np.zeros(n, dtype=bool)
            box[(start + np.arange(length)) % n] = True
            assert np.array_equal(box, oracle_axis_interval(idx, n, periodic)), (idx, n, periodic)


def test_box_distance_reads_the_box_runs():
    """The distance to a component's isolating box, taken from its runs,
    equals in bytes the distance read off the box mask: 1-3-D components
    of one node to all nodes, open and periodic axes, runs across the seam
    and whole axes."""
    rng = np.random.default_rng(SEED + 8)
    for trial in range(300):
        ndim = int(rng.integers(1, 4))
        dims = tuple(int(n) for n in rng.integers(1, 20 if ndim < 3 else 9, ndim))
        periodic = tuple(bool(p) for p in rng.integers(0, 2, ndim))
        cells = rng.random(dims) < rng.choice([0.0, 0.05, 0.3, 1.0])
        cells[tuple(int(rng.integers(0, n)) for n in dims)] = True
        comp = GridMask(dims, periodic, cells)
        spacing = tuple(float(h) for h in rng.uniform(0.1, 2.0, ndim))
        got = np.broadcast_to(_box_distance(ScalarField(dims, spacing, periodic, np.zeros(dims)),
                                            CriticalSet((comp,), 1e-6).box_runs(0)), dims)
        want = oracle_box_excess_distance(isolating_box(comp), spacing, periodic)
        assert got.shape == want.shape and got.dtype == want.dtype, (dims, periodic)
        assert got.tobytes() == want.tobytes(), (dims, periodic)


def test_critical_set_keeps_each_box_read_only():
    f = field_torus_height()
    crit = detect_critical_set(f, 1e-6)
    for i, comp in enumerate(crit.components):
        box = crit.box(i)
        assert crit.box(i) is box and not box.flags.writeable
        assert np.array_equal(box, isolating_box(comp))
    with pytest.raises(ValueError):
        box[0, 0] = True
    # the kept boxes take no part in equality
    assert crit == CriticalSet(crit.components, crit.grad_tol)
    hand = _singleton((9, 9), (False, True), (4, 0))
    assert np.array_equal(hand.box(0), isolating_box(hand.components[0]))


def test_field_job_builds_its_box_once_and_runs_no_gate(monkeypatch):
    """The call sequence of a benchmark fields job builds the component's
    box once, certifies tau once (construct_tau's check_qmd, which
    classify(tau=...) reuses) and runs no minimal-degeneracy check."""
    from qmdkit import graphlag, morse
    calls = {"_box_runs": 0, "check_minimally_degenerate": 0, "_certify_qmd": 0}
    for name in calls:
        def counted(*args, _raw=getattr(morse, name), _name=name, **kwargs):
            calls[_name] += 1
            return _raw(*args, **kwargs)
        monkeypatch.setattr(morse, name, counted)
    f = field_figure8_min()
    crit = detect_critical_set(f, TOLS.grad_tol)
    chart = SubmanifoldChart((0, 1), (16, 16))
    tau = construct_tau(f, crit, chart, TOLS)
    report = classify(f, crit, chart=chart, tau=tau, tols=TOLS)
    scan = graphlag.isolation_scan(f, tau, crit, chart, steps=64)
    flat = flatten(f, 0.005, crit, TOLS)
    thick = verify_thickening(f, crit, flat.sigma, TOLS)
    assert report.details["qmd"] and scan.passed and thick.passed
    assert calls == {"_box_runs": 1, "check_minimally_degenerate": 0, "_certify_qmd": 1}


def test_construct_tau_reads_the_kept_box_runs(monkeypatch):
    """The box runs are derived once per component: ``construct_tau`` reads
    the runs its ``CriticalSet`` keeps beside the box that check_qmd uses."""
    from qmdkit import morse
    raw, calls = morse._box_runs, []
    monkeypatch.setattr(morse, "_box_runs", lambda comp: calls.append(comp) or raw(comp))
    f = field_figure8_min()
    crit = detect_critical_set(f, TOLS.grad_tol)
    chart = SubmanifoldChart((0, 1), (16, 16))
    tau = construct_tau(f, crit, chart, TOLS)
    assert classify(f, crit, chart=chart, tau=tau, tols=TOLS).details["qmd"]
    assert calls == [crit.components[0]]
    assert crit.box_runs(0) == raw(crit.components[0])


# -- degeneracy checkers --------------------------------------------------


def test_flattened_nondegenerate_point_chart():
    n = 33
    h = 2.0 / (n - 1)
    f = ScalarField.sample((n,), (h,), (False,), lambda x: x * x, origin=(-1.0,))
    crit = _singleton((n,), (False,), (16,))
    chart = SubmanifoldChart(axes=(), base=(16,))
    assert check_flattened_degenerate(f, crit, chart, TOLS).passed


def test_flattened_negative_quartic_along_axis():
    f = _plane(lambda x, y: -y * y - y ** 4)
    crit = _singleton((33, 33), (False, False), (16, 16))
    chart = SubmanifoldChart(axes=(0,), base=(16, 16))
    assert check_flattened_degenerate(f, crit, chart, TOLS).passed


def test_flattened_fails_for_saddle():
    f = field_saddle()
    crit = _singleton((33, 33), (False, False), (16, 16))
    chart = SubmanifoldChart(axes=(0,), base=(16, 16))
    report = check_flattened_degenerate(f, crit, chart, TOLS)
    assert not report.passed
    assert not report.details["hessian_kernel_equals_chart"]


def test_qmd_quartic_pair():
    f = field_1d_quartic()
    tau = tau_1d_quartic()
    crit = detect_critical_set(f, 1e-6)
    chart = SubmanifoldChart(axes=(), base=(16,))
    assert check_qmd(f, tau, crit, chart, TOLS).passed


def test_qmd_saddle_pair():
    f = field_saddle()
    crit = detect_critical_set(f, 1e-6)
    chart = SubmanifoldChart(axes=(0,), base=(16, 16))
    assert check_qmd(f, tau_saddle(), crit, chart, TOLS).passed


def test_qmd_fails_for_zero_tau():
    f = field_saddle()
    crit = detect_critical_set(f, 1e-6)
    chart = SubmanifoldChart(axes=(0,), base=(16, 16))
    zero_tau = f.with_values(np.zeros(f.dims))
    report = check_qmd(f, zero_tau, crit, chart, TOLS)
    assert not report.passed
    assert not report.details["tau_zero_set_equals_c"]


def test_qmd_reports_negative_tau_without_raising():
    f = field_saddle()
    crit = detect_critical_set(f, 1e-6)
    chart = SubmanifoldChart(axes=(0,), base=(16, 16))
    negative = tau_saddle().with_values(-tau_saddle().values)
    report = check_qmd(f, negative, crit, chart, TOLS)
    assert report.details["tau_nonnegative"] is False
    assert not report.passed


def _count_certificates(monkeypatch) -> list:
    """Patch check_qmd's body to record each run; returns the record."""
    from qmdkit import morse
    runs = []

    def counted(*args, _raw=morse._certify_qmd):
        runs.append(args)
        return _raw(*args)
    monkeypatch.setattr(morse, "_certify_qmd", counted)
    return runs


def _tube3(rng, n=13):
    """b (y - y0)^2 + a (z - z0)^2 over a periodic x axis, y0 and z0 a
    random interior node: C is the circle through it along x."""
    h = 2.0 / (n - 1)
    y0, z0 = (int(v) for v in rng.integers(3, n - 3, 2))
    a, b = (float(v) for v in rng.uniform(0.8, 2.0, 2))
    f = ScalarField.sample((n, n, n), (2.0 * math.pi / n, h, h), (True, False, False),
                           lambda x, y, z: b * (y + 1.0 - y0 * h) ** 2
                           + a * (z + 1.0 - z0 * h) ** 2, origin=(0.0, -1.0, -1.0))
    return f, (0, y0, z0)


def _certificate_cases():
    rng = np.random.default_rng(SEED)
    f, node = _tube3(rng)
    cases = [("tube3-circle-chart", f, SubmanifoldChart((0,), node)),
             ("tube3-full-chart", f, SubmanifoldChart((0, 1, 2), node))]
    n = 17
    node = tuple(int(v) for v in rng.integers(4, n - 4, 2))
    a, b = (float(v) for v in rng.uniform(0.8, 2.0, 2))
    cases.append(("bowl2-full-chart",
                  _plane(lambda x, y: a * (x + 1.0 - node[0] * 2.0 / (n - 1)) ** 2
                         + b * (y + 1.0 - node[1] * 2.0 / (n - 1)) ** 2, n),
                  SubmanifoldChart((0, 1), node)))
    i_max, _ = torus_circle_indices()
    cases.append(("torus-max-circle-chart", field_torus_height(),
                  SubmanifoldChart((1,), (i_max, 0))))
    return [pytest.param(f, chart, id=name) for name, f, chart in cases]


@pytest.mark.parametrize("f,chart", _certificate_cases())
def test_check_qmd_reuses_construct_tau_certificate(f, chart, monkeypatch):
    """check_qmd and classify(tau=...) after construct_tau run no second
    check, and report what a CriticalSet that kept nothing reports."""
    crit = detect_critical_set(f, TOLS.grad_tol)
    comp = next(i for i, c in enumerate(crit.components) if c.cells[chart.base])
    runs = _count_certificates(monkeypatch)
    tau = construct_tau(f, crit, chart, TOLS, component=comp)
    warm = check_qmd(f, tau, crit, chart, TOLS, component=comp)
    warm_ladder = classify(f, crit, chart, tau, TOLS, component=comp)
    assert warm.passed and warm_ladder.details["qmd"] and len(runs) == 1
    cold = CriticalSet(crit.components, crit.grad_tol)
    assert warm.to_json() == check_qmd(f, tau, cold, chart, TOLS, component=comp).to_json()
    cold = CriticalSet(crit.components, crit.grad_tol)
    assert (warm_ladder.to_json()
            == classify(f, cold, chart, tau, TOLS, component=comp).to_json())
    assert len(runs) == 3


def test_check_qmd_returns_a_fresh_report():
    f, tau = field_saddle(), tau_saddle()
    crit = detect_critical_set(f, TOLS.grad_tol)
    chart = SubmanifoldChart((0,), (16, 16))
    first = check_qmd(f, tau, crit, chart, TOLS)
    expected = first.to_json()
    first.details["tau_nonnegative"] = False
    first.hessian_spectra[0][0] = 99.0
    first.hessian_spectra.append([1.0])
    first.sampled_nodes.clear()
    second = check_qmd(f, tau, crit, chart, TOLS)
    assert second.to_json() == expected
    second.hessian_spectra[0].append(1.0)
    assert check_qmd(f, tau, crit, chart, TOLS).to_json() == expected


def test_check_qmd_checks_again_on_any_other_input(monkeypatch):
    """The kept result answers the very same f and tau objects with an
    equal chart, tols and strict; a call that differs in any one of them
    is checked, and its result replaces the kept one."""
    f, tau = field_saddle(), tau_saddle()
    chart = SubmanifoldChart((0,), (16, 16))
    runs = _count_certificates(monkeypatch)
    crit = detect_critical_set(f, TOLS.grad_tol)
    check_qmd(f, tau, crit, chart, TOLS)
    check_qmd(f, tau, crit, SubmanifoldChart((0,), (16, 16)), Tolerances(), False)
    assert len(runs) == 1
    for g, t, c, tols, strict in [(f.with_values(f.values), tau, chart, TOLS, False),
                                  (f, tau.with_values(tau.values), chart, TOLS, False),
                                  (f, tau, SubmanifoldChart((), (16, 16)), TOLS, False),
                                  (f, tau, chart, Tolerances(value_tol=1e-8), False),
                                  (f, tau, chart, TOLS, True)]:
        assert g == f and t == tau
        crit = CriticalSet(crit.components, crit.grad_tol)
        check_qmd(f, tau, crit, chart, TOLS)
        before = len(runs)
        check_qmd(g, t, crit, c, tols, strict)
        check_qmd(g, t, crit, c, tols, strict)
        check_qmd(f, tau, crit, chart, TOLS)
        assert len(runs) == before + 2


def test_check_qmd_keeps_no_failure(monkeypatch):
    f, tau = field_saddle(), tau_saddle()
    crit = detect_critical_set(f, TOLS.grad_tol)
    runs = _count_certificates(monkeypatch)
    off_chart = SubmanifoldChart((), (16, 15))
    other_grid = ScalarField.sample((9, 9), (0.25, 0.25), (False, False), lambda x, y: x * y)
    for _ in range(2):
        with pytest.raises(ChartError):
            check_qmd(f, tau, crit, off_chart, TOLS)
        with pytest.raises(GridMismatchError):
            check_qmd(f, other_grid, crit, off_chart, TOLS)
    assert len(runs) == 4


def test_mindeg_saddle_along_x_axis():
    f = field_saddle()
    crit = detect_critical_set(f, 1e-6)
    chart = SubmanifoldChart(axes=(0,), base=(16, 16))
    report = check_minimally_degenerate(f, crit, chart, TOLS)
    assert report.passed
    assert report.negative_index == 1


def test_qmd_with_nonpositive_difference_hessian_is_minimally_degenerate():
    # converse direction: a qmd triple whose difference Hessian has no
    # positive eigenvalues is minimally degenerate along the same chart
    f = field_saddle()
    tau = tau_saddle()
    crit = detect_critical_set(f, 1e-6)
    chart = SubmanifoldChart(axes=(0,), base=(16, 16))
    qmd = check_qmd(f, tau, crit, chart, TOLS)
    assert qmd.passed
    for spec in qmd.hessian_spectra:  # spectra of Hess(f - tau) on C
        scale = max(1.0, max(abs(x) for x in spec))
        assert max(spec) <= TOLS.eig_tol * scale
    assert check_minimally_degenerate(f, crit, chart, TOLS).passed


def test_mindeg_figure8_minimum_full_chart():
    f = field_figure8_min()
    crit = detect_critical_set(f, 1e-6)
    chart = SubmanifoldChart(axes=(0, 1), base=(16, 16))
    assert check_minimally_degenerate(f, crit, chart, TOLS).passed


def test_mindeg_figure8_maximum_fails_everywhere():
    f = field_figure8_max()
    crit = detect_critical_set(f, 1e-6)
    full = SubmanifoldChart(axes=(0, 1), base=(16, 16))
    assert not check_minimally_degenerate(f, crit, full, TOLS).passed
    for axes in ((0,), (1,), ()):
        with pytest.raises(ChartError):
            check_minimally_degenerate(
                f, crit, SubmanifoldChart(axes=axes, base=(16, 16)), TOLS)


def test_chart_containment_enforced():
    f = field_saddle()
    crit = detect_critical_set(f, 1e-6)
    with pytest.raises(ChartError):
        check_flattened_degenerate(
            f, crit, SubmanifoldChart(axes=(0,), base=(16, 10)), TOLS)


def test_chart_base_off_the_grid_is_a_chart_error():
    """A base with too few coordinates, one past the grid or a negative one
    is refused wherever the chart meets the grid: ChartError from its runs,
    its slice, tau's construction, the flattening and the scan, and the
    chart rungs of `classify` read False."""
    f = field_saddle()
    crit = detect_critical_set(f, TOLS.grad_tol)
    tau = tau_saddle()
    chartless = classify(f, crit, tols=TOLS).to_json()
    for base in ((16,), (16, 40), (16, -1)):
        chart = SubmanifoldChart(axes=(0,), base=base)
        for call in (lambda: chart.runs(f.dims), lambda: chart.slice_mask(f.dims),
                     lambda: construct_tau(f, crit, chart, TOLS),
                     lambda: flatten_along_chart(f, 0.02, crit, chart, TOLS),
                     lambda: isolation_scan(f, tau, crit, chart)):
            with pytest.raises(ChartError):
                call()
        assert classify(f, crit, chart, tau, TOLS).to_json() == chartless, base


# -- construct_tau ---------------------------------------------------------


def test_construct_tau_saddle_formula():
    f = field_saddle()
    crit = detect_critical_set(f, 1e-6)
    chart = SubmanifoldChart(axes=(0,), base=(16, 16))
    tau = construct_tau(f, crit, chart, TOLS)
    box = isolating_box(crit.components[0])
    xs = np.linspace(-1.0, 1.0, 33)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    assert np.allclose(tau.values[box], (Y ** 4 + X ** 2)[box], atol=1e-12)
    assert check_qmd(f, tau, crit, chart, TOLS).passed


def test_construct_tau_point_chart_quartic():
    # radial construction at a point chart: tau = x^4.  x^2 is not minimally
    # degenerate along a point chart, but its tau passes the qmd certificate
    n = 33
    h = 2.0 / (n - 1)
    f = ScalarField.sample((n,), (h,), (False,), lambda x: x * x, origin=(-1.0,))
    crit = detect_critical_set(f, 1e-6)
    chart = SubmanifoldChart(axes=(), base=(16,))
    tau = construct_tau(f, crit, chart, TOLS)
    box = isolating_box(crit.components[0])
    xs = np.linspace(-1.0, 1.0, n)
    assert np.allclose(tau.values[box], (xs ** 4)[box], atol=1e-12)
    assert check_qmd(f, tau, crit, chart, TOLS).passed


def test_construct_tau_torus_minimum():
    f = field_torus_height()
    crit = detect_critical_set(f, 1e-6)
    _, i_min = torus_circle_indices()
    comp = next(i for i, c in enumerate(crit.components) if c.cells[i_min, 0])
    chart = SubmanifoldChart(axes=(0, 1), base=(0, 0))
    tau = construct_tau(f, crit, chart, TOLS, component=comp)
    assert check_qmd(f, tau, crit, chart, TOLS, component=comp).passed


def test_construct_tau_without_a_compliant_tau_is_a_construction_error():
    # along the saddle's full chart the formula's tau dips below zero: no
    # compliant tau is built, and that is reported one way
    f = field_saddle()
    crit = detect_critical_set(f, 1e-6)
    chart = SubmanifoldChart(axes=(0, 1), base=(16, 16))
    with pytest.raises(ConstructionError,
                       match=r"\['tau_nonnegative', 'tau_zero_set_equals_c'\]"):
        construct_tau(f, crit, chart, TOLS)


# -- rho and flattening ------------------------------------------------------


def test_rho_clauses_exact():
    delta = 0.08
    rho = build_rho(delta)
    xs = np.linspace(-0.2, delta / 2, 200)
    assert (rho(xs) == 0.0).all()
    ys = np.linspace(delta, 5 * delta, 200)
    assert (rho(ys) == ys).all()
    assert float(rho(delta / 4)) == 0.0
    assert float(rho(2 * delta)) == 2 * delta


def _same_bits(a, b) -> bool:
    return (type(a) is type(b) and np.shape(a) == np.shape(b)
            and np.asarray(a).tobytes() == np.asarray(b).tobytes())


def test_rho_on_its_band_matches_whole_array_oracle():
    rng = np.random.default_rng(SEED)
    for delta in [0.08, 0.02, 1.0, 3e-7] + [float(x) for x in rng.uniform(1e-3, 5.0, 8)]:
        rho = build_rho(delta)
        edges = []
        for x in (delta / 2.0, delta):
            edges += [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]
        xs = np.array(edges + [0.0, -0.0, -delta, -1e300, 1e300]
                      + list(np.linspace(-delta, 2.0 * delta, 301)))
        assert _same_bits(rho(xs), oracle_rho(delta, xs))
        grid = rng.uniform(-delta, 2.0 * delta, (7, 9))
        assert _same_bits(rho(grid), oracle_rho(delta, grid))
        for x in xs[:12]:
            assert _same_bits(rho(float(x)), oracle_rho(delta, float(x)))
            assert _same_bits(rho(np.array(x)), oracle_rho(delta, np.array(x)))
        assert _same_bits(rho(np.zeros(0)), oracle_rho(delta, np.zeros(0)))


def test_rho_derivative_band():
    rho = build_rho(0.08)
    xs = np.linspace(0.04, 0.08, 10001)[1:-1]
    d = rho.deriv(xs)
    assert (d > 0).all() and (d < 3).all()
    assert 1.0 < float(d.max()) < 3.0


def test_rho_rejects_nonpositive_delta():
    with pytest.raises(ValueError):
        build_rho(0.0)


def test_rho_is_monotone_and_below_identity():
    rho = build_rho(0.5)
    xs = np.linspace(0.0, 1.0, 5000)
    vals = rho(xs)
    assert (np.diff(vals) >= 0).all()
    assert (vals <= xs + 1e-15).all()


def test_flatten_quadratic_interval():
    f = field_1d_quadratic()
    crit = detect_critical_set(f, 1e-6)
    res = flatten(f, 0.08, crit, TOLS)
    nodes = np.argwhere(res.sigma.cells).ravel()
    xs = -1.0 + nodes * (2.0 / 32)
    assert abs(xs.min() + 0.2) <= 2.0 / 32 and abs(xs.max() - 0.2) <= 2.0 / 32
    # pointwise zero-set identity of the composed field
    assert np.array_equal(res.f_check.values == 0.0,
                          f.values <= res.delta_used / 2)


def test_flatten_requires_shifted_field():
    f = field_1d_quadratic().shift(-1.0)  # min now at +1
    crit = CriticalSet(detect_critical_set(field_1d_quadratic(), 1e-6).components,
                       1e-6)
    with pytest.raises(ValueError):
        flatten(f, 0.08, crit, TOLS)


def test_flatten_no_spurious_criticals_on_band():
    f = field_corner()
    crit = detect_critical_set(f, 1e-6)
    res = flatten(f, 0.01, crit, TOLS)
    from qmdkit.fields import gradient_magnitude
    mag, valid = gradient_magnitude(res.f_check)
    box = isolating_box(crit.components[0])
    band = box & valid & (f.values > res.delta_used / 2) & (f.values < res.delta_used)
    assert (mag[band] > 0).all()


def test_flatten_detected_set_equals_sigma_up_to_one_cell():
    f = field_1d_quadratic()
    crit = detect_critical_set(f, 1e-6)
    res = flatten(f, 0.08, crit, TOLS)
    near = critical_node_mask(res.f_check, crit.grad_tol)
    box = isolating_box(crit.components[0])
    near &= box

    def dilate(m):
        out = m.copy()
        out[1:] |= m[:-1]
        out[:-1] |= m[1:]
        return out

    sigma = res.sigma.cells
    # symmetric difference confined to one cell around either boundary
    assert (near <= dilate(sigma)).all() and (sigma <= dilate(near)).all()


def test_flatten_along_chart_saddle():
    # lower-dimensional chart: flatten the restriction x^2 along the x-axis
    f = field_saddle()
    crit = detect_critical_set(f, 1e-6)
    chart = SubmanifoldChart(axes=(0,), base=(16, 16))
    from qmdkit.morse import flatten_along_chart
    res = flatten_along_chart(f, 0.08, crit, chart, TOLS)
    nodes = np.argwhere(res.sigma.cells)
    assert set(nodes[:, 1]) == {16}
    xs = -1.0 + nodes[:, 0] * (2.0 / 32)
    assert abs(xs.min() + 0.2) <= 2.0 / 32 and abs(xs.max() - 0.2) <= 2.0 / 32
    assert betti_of_mask(res.sigma) == betti_of_mask(crit.components[0])
    # extension restricts to the flattened restriction on the slice
    rho = build_rho(res.delta_used)
    slice_vals = res.f_check.values[:, 16]
    xs_full = np.linspace(-1.0, 1.0, 33)
    assert np.allclose(slice_vals, rho(xs_full ** 2), atol=1e-15)
    # fiber slab over sigma is critical: same homotopy type as sigma
    slab = critical_node_mask(res.f_check, 1e-6) & isolating_box(crit.components[0])
    assert betti_of_mask(GridMask(f.dims, f.periodic, slab)) == (1, 0, 0)


def test_verify_thickening_circle_band():
    f = field_torus_height().shift(-1.0)  # min circle at level 0
    crit = detect_critical_set(f, 1e-6)
    _, i_min = torus_circle_indices()
    comp = next(i for i, c in enumerate(crit.components) if c.cells[i_min, 0])
    res = flatten(f, 0.1, crit, TOLS, component=comp)
    assert betti_of_mask(res.sigma) == (1, 1, 0)
    report = verify_thickening(f, crit, res.sigma, TOLS, component=comp)
    assert report.passed and report.betti_c == report.betti_sigma


def test_verify_thickening_rejects_mismatched_sigma():
    # adversarial: C is a point, sigma an annular band around it
    n = 33
    f = _plane(lambda x, y: x * x + y * y)
    crit = detect_critical_set(f, 1e-6)
    cells = np.zeros((n, n), bool)
    for i in range(n):
        for j in range(n):
            r2 = (i - 16) ** 2 + (j - 16) ** 2
            cells[i, j] = 4 <= r2 <= 9
    cells[16, 16] = True  # keep C inside sigma
    sigma = GridMask((n, n), (False, False), cells)
    report = verify_thickening(f, crit, sigma, TOLS)
    assert not report.betti_match and not report.passed


# -- index and distance -------------------------------------------------------


def test_negative_index_counts():
    f = field_saddle()
    assert negative_index(f, (16, 16), 1e-6) == 1
    g = _plane(lambda x, y: x * x + y * y)
    assert negative_index(g, (16, 16), 1e-6) == 0


def test_transverse_index_preserved_through_flattening():
    f = field_saddle()
    crit = detect_critical_set(f, 1e-6)
    chart = SubmanifoldChart(axes=(0,), base=(16, 16))
    tau = construct_tau(f, crit, chart, TOLS)
    assert transverse_negative_index(f, (16, 16), chart, 1e-6) == 1
    assert transverse_negative_index(f.sub(tau), (16, 16), chart, 1e-6) == 1
    assert index_preserved(f, f.sub(tau), crit, chart)


def test_transverse_index_matches_per_node_oracle():
    """At every node of random 2-, 3- and 4-D fields and every chart, the
    batched body counts what one `hessian_at` and `eig_sym` count, and a
    node on an open boundary raises BoundaryNodeError in both."""
    rng = np.random.default_rng(SEED)
    seen = set()
    for n, ndim in ((7, 2), (7, 2), (5, 3), (3, 4)):
        f = ScalarField((n,) * ndim, rng.uniform(0.2, 0.5, ndim),
                        rng.integers(0, 2, ndim).astype(bool), rng.normal(size=(n,) * ndim))
        charts = [SubmanifoldChart(axes, (0,) * ndim) for k in range(ndim + 1)
                  for axes in itertools.combinations(range(ndim), k)]
        for node, chart in itertools.product(np.ndindex(f.dims), charts):
            eig_tol = rng.choice((1e-6, 0.3))
            got = _outcome(transverse_negative_index, f, node, chart, eig_tol)
            assert got == _outcome(oracle_transverse_negative_index, f, node, chart, eig_tol)
            seen.add(got[1] if got[0] == "raised" else got[1] > 0)
    assert seen == {"BoundaryNodeError", False, True}


def test_index_at_a_node_off_the_grid_raises():
    """On a torus, which has no boundary, a node with more indices than
    axes or one past an axis's end raises BoundaryNodeError rather than
    being read modulo the grid."""
    f = field_torus_height()
    chart = SubmanifoldChart((1,), (8, 0))
    for node in ((8, 0, 24, 0), (40, 0), (-1, 0), (8,)):
        with pytest.raises(BoundaryNodeError):
            negative_index(f, node, 1e-6)
        with pytest.raises(BoundaryNodeError):
            transverse_negative_index(f, node, chart, 1e-6)
    assert negative_index(f, (8, 0), 1e-6) == 1


def test_c1_distance_bound_and_monotonicity():
    f = field_1d_quadratic()
    crit = detect_critical_set(f, 1e-6)
    dists = []
    for delta in (0.2, 0.1, 0.05, 0.025):
        res = flatten(f, delta, crit, TOLS)
        d = c1_distance(f, res.f_check)
        bound = delta + 2.0 * 2.0 * math.sqrt(delta)
        assert d <= bound
        dists.append(d)
    assert all(a > b for a, b in zip(dists, dists[1:]))


def test_classify_ladder_labels():
    g = _plane(lambda x, y: x * x + y * y)
    crit = detect_critical_set(g, 1e-6)
    assert classify(g, crit, tols=TOLS).classification == "morse"
    f = field_torus_height()
    crit = detect_critical_set(f, 1e-6)
    assert classify(f, crit, tols=TOLS).classification == "morse_bott"


def test_classify_with_chart_gathers_hessians_once(monkeypatch):
    """Both chart rungs read the sample classify takes of f's Hessians."""
    from qmdkit import morse
    calls = []
    gather = morse.hessian_at_nodes

    def counted(field, nodes):
        calls.append(len(nodes))
        return gather(field, nodes)

    f = field_saddle()
    crit = detect_critical_set(f, TOLS.grad_tol)
    monkeypatch.setattr(morse, "hessian_at_nodes", counted)
    report = classify(f, crit, SubmanifoldChart((0,), (16, 16)), tols=TOLS)
    assert report.details["minimally_degenerate"] and report.negative_index == 1
    assert len(calls) == 1


@pytest.mark.parametrize("axes,gathers", [((0, 1), 1), ((0,), 2), ((), 2)])
def test_check_qmd_samples_tau_off_the_full_chart_only(axes, gathers, monkeypatch):
    """A full chart settles tau's kernel transversality without tau's
    Hessians; only f - tau is sampled.  Reports match the oracle."""
    from qmdkit import morse
    calls = []
    gather = morse.hessian_at_nodes

    def counted(field, nodes):
        calls.append(len(nodes))
        return gather(field, nodes)

    f, tau = field_saddle(), tau_saddle()
    crit = detect_critical_set(f, TOLS.grad_tol)
    chart = SubmanifoldChart(axes, (16, 16))
    expected = oracle_check_qmd(f, tau, crit, chart, TOLS).to_json()
    monkeypatch.setattr(morse, "hessian_at_nodes", counted)
    report = check_qmd(f, tau, crit, chart, TOLS)
    assert report.to_json() == expected
    assert len(calls) == gathers


# -- batched Hessians and vectorized chart terms against the per-node code -------


def valley_field(rng, ndim, max_n=9):
    """Random grid with a coordinate-aligned valley through a random node.

    Off the chart axes f grows like c (x - x0)^2 (1 - cos on a periodic
    axis) with c of either sign; along them it is flat or a small quartic,
    so C is a slice of the chart, a blob on it, or a saddle set.
    """
    dims = tuple(int(n) for n in rng.integers(5, max_n + 1, ndim))
    periodic = tuple(bool(p) for p in rng.integers(0, 2, ndim))
    axes = tuple(a for a in range(ndim) if rng.random() < 0.5)
    base = tuple(int(rng.integers(1, n - 1)) for n in dims)
    spacing, terms = [], []
    for a, n in enumerate(dims):
        h = 2.0 * math.pi / n if periodic[a] else 2.0 / (n - 1)
        spacing.append(h)
        x = (np.arange(n) - base[a]) * h
        prof = 1.0 - np.cos(x) if periodic[a] else x * x
        coef = float(rng.uniform(0.5, 2.0) * rng.choice([1.0, 1.0, -1.0]))
        if a in axes:
            prof, coef = prof * prof, float(rng.choice([0.0, 0.3]))
        shape = [1] * ndim
        shape[a] = n
        terms.append(coef * prof.reshape(shape))
    values = np.zeros(dims) + sum(terms)
    return ScalarField(dims, spacing, periodic, values), SubmanifoldChart(axes, base)


def _plateau_field():
    """x^2 capped at 0.01 on 33 nodes: C is the node x = 0, and the cap's
    flat nodes inside its box sit on the level delta/2 of delta = 0.02, so
    flattening at 0.02 nudges delta once."""
    h = 1.0 / 16.0
    x = (np.arange(33) - 16) * h
    return ScalarField((33,), (h,), (False,), np.minimum(x * x, 0.01))


def _bowl83():
    """A bowl about node (27, 27) of an 83^2 open grid of spacing 2/82.  With
    the point chart there, the per-node distance squared with Python's **
    (libm pow) gave 53 r^4 values off `_chart_terms`' in the last bit."""
    x = (np.arange(83) - 27) * (2.0 / 82)
    return ScalarField((83, 83), (2.0 / 82,) * 2, (False, False),
                       x[:, None] ** 2 + x[None, :] ** 2)


def cross_check_cases():
    """(f, tau or None, chart, nudges) over catalog pairs and random valleys;
    `nudges` marks a case whose flattening at delta = 0.02 must nudge."""
    cases = [("saddle", field_saddle(), tau_saddle(), SubmanifoldChart((0,), (16, 16))),
             ("saddle-point-chart", field_saddle(), tau_saddle(),
              SubmanifoldChart((), (16, 16))),
             ("quartic", field_1d_quartic(), tau_1d_quartic(), SubmanifoldChart((), (16,))),
             ("quartic-full-chart", field_1d_quartic(), None, SubmanifoldChart((0,), (16,))),
             ("figure8-min", field_figure8_min(), None, SubmanifoldChart((0, 1), (16, 16))),
             ("figure8-max", field_figure8_max(), None, SubmanifoldChart((0, 1), (16, 16))),
             ("figure8-perturbed", field_figure8_perturbed(), None,
              SubmanifoldChart((0,), (16, 16))),
             ("corner", field_corner(), None, SubmanifoldChart((0, 1), (16, 16))),
             ("torus", field_torus_height(), None, SubmanifoldChart((0, 1), (0, 0))),
             ("plateau-nudge", _plateau_field(), None, SubmanifoldChart((0,), (16,))),
             ("bowl83-point-chart", _bowl83(), None, SubmanifoldChart((), (27, 27)))]
    rng = np.random.default_rng(SEED)
    for i in range(36):
        ndim = 1 + i % 4
        f, chart = valley_field(rng, ndim, max_n=7 if ndim == 4 else 9)
        cases.append((f"valley-{i}", f, None, chart))
    return [pytest.param(*case[1:], case[0].endswith("nudge"), id=case[0])
            for case in cases]


def _outcome(fn, *args, **kwargs):
    """A comparable record of a call: its result, or the exception it raised."""
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # compared, not swallowed
        return ("raised", type(exc).__name__, str(exc))
    if isinstance(result, ScalarField):
        return ("ok", result.values.tobytes())
    if hasattr(result, "f_check"):
        return ("ok", result.f_check.values.tobytes(), result.sigma.cells.tobytes(),
                result.delta_used)
    if hasattr(result, "to_json"):
        return ("ok", result.to_json())
    return ("ok", result)


@pytest.mark.parametrize("f,tau,chart,nudges", cross_check_cases())
def test_fast_paths_match_per_node_oracle(f, tau, chart, nudges):
    try:
        crit = detect_critical_set(f, 1e-6)
    except NoCriticalPointsError:
        pytest.skip("no critical node")
    comp = next((i for i, c in enumerate(crit.components) if c.cells[chart.base]), 0)
    kw = dict(component=comp)

    built = _outcome(construct_tau, f, crit, chart, TOLS, **kw)
    assert built == _outcome(oracle_construct_tau, f, crit, chart, TOLS,
                             check_precondition=False, **kw)
    # f^2 keeps the transverse index, 2f flips it (f - 2f = -f)
    taus = [t for t in (tau, f.with_values(f.values ** 2), f.with_values(2.0 * f.values))
            if t is not None]
    if built[0] == "ok":
        taus.append(f.with_values(np.frombuffer(built[1]).reshape(f.dims)))

    for strict in (False, True):
        for fast, slow in ((check_flattened_degenerate, oracle_check_flattened_degenerate),
                           (check_minimally_degenerate, oracle_check_minimally_degenerate)):
            assert (_outcome(fast, f, crit, chart, TOLS, strict, **kw)
                    == _outcome(slow, f, crit, chart, TOLS, strict, **kw))
        for t in taus:
            assert (_outcome(check_qmd, f, t, crit, chart, TOLS, strict, **kw)
                    == _outcome(oracle_check_qmd, f, t, crit, chart, TOLS, strict, **kw))
            assert (_outcome(classify, f, crit, chart, t, TOLS, strict, **kw)
                    == _outcome(oracle_classify, f, crit, chart, t, TOLS, strict, **kw))
    assert (_outcome(classify, f, crit, None, None, TOLS, **kw)
            == _outcome(oracle_classify, f, crit, None, None, TOLS, **kw))
    for t in taus:
        assert (_outcome(index_preserved, f, f.sub(t), crit, chart, **kw)
                == _outcome(oracle_index_preserved, f, f.sub(t), crit, chart, **kw))

    f0 = f.shift(float(f.values[crit.components[comp].cells].min()))
    for delta in (0.02, 0.2):
        assert (_outcome(flatten_along_chart, f0, delta, crit, chart, TOLS, **kw)
                == _outcome(oracle_flatten_along_chart, f0, delta, crit, chart, TOLS, **kw))
        flat = _outcome(flatten, f0, delta, crit, TOLS, **kw)
        assert flat == _outcome(oracle_flatten, f0, delta, crit, TOLS, **kw)
        if nudges and delta == 0.02:
            assert flat[0] == "ok" and flat[3] > delta


# -- batched kernel tests, vectorized descent, strict-mode guard band -------------


def _eigenvector_stack(rng, n, d, axes):
    """n orthogonal d x d matrices whose first len(axes) columns lie along
    `axes`, turned by a small random rotation: none, well inside ANGLE_TOL,
    near it, or well beyond it."""
    V = np.empty((n, d, d))
    order = list(axes) + [a for a in range(d) if a not in axes]
    for i in range(n):
        eps = float(rng.choice([0.0, 1e-9, 1e-6, 1e-3]))
        Q, _ = np.linalg.qr(np.eye(d) + eps * rng.normal(size=(d, d)))
        V[i] = Q[:, order]
    return V


def test_batched_kernel_tests_match_per_node_oracle():
    rng = np.random.default_rng(SEED)
    seen = set()
    for _ in range(400):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(0, 7))
        axes = tuple(sorted(int(a) for a in
                            rng.choice(d, size=int(rng.integers(0, d + 1)), replace=False)))
        V = _eigenvector_stack(rng, n, d, axes)
        if rng.random() < 0.3:  # unrelated eigenvectors
            V = np.linalg.qr(rng.normal(size=(n, d, d)))[0]
        kernel = np.zeros((n, d), dtype=bool)
        kernel[:, :len(axes)] = True
        for i in range(n):  # kernel dimension other than len(axes) at some nodes
            if rng.random() < 0.15:
                kernel[i] = rng.random(d) < 0.5
        spans = _kernel_spans_axes(kernel, V, axes)
        assert spans == oracle_kernel_spans_axes(kernel, V, axes, d)
        transverse = _kernel_transverse(kernel, V, axes)
        assert transverse == oracle_kernel_transverse(kernel, V, axes, d)
        seen.add((spans, transverse))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_check_qmd_without_stencil_valid_nodes_matches_oracle():
    f = ScalarField.sample((9,), (0.25,), (False,), lambda x: x * x)
    tau = f.with_values(f.values ** 2)
    crit = _singleton((9,), (False,), (0,))
    for chart in (SubmanifoldChart((), (0,)), SubmanifoldChart((0,), (0,))):
        for strict in (False, True):
            fast = _outcome(check_qmd, f, tau, crit, chart, TOLS, strict)
            assert fast == _outcome(oracle_check_qmd, f, tau, crit, chart, TOLS, strict)
            assert fast[0] == "ok" and fast[1]["sampled_nodes"] == []


def _spiral_field(n):
    """A strictly decreasing walled spiral corridor on an n x n grid:
    from the corner (0, 0), steepest descent follows the corridor."""
    values = np.full((n, n), 10.0 * n * n)
    path = [(0, 0)]
    moves = [(0, 1), (1, 0), (0, -1), (-1, 0)]
    lengths = [n - 1, n - 1, n - 1] + [m for k in range(n - 3, 0, -2) for m in (k, k)]
    for turn, length in enumerate(lengths):
        di, dj = moves[turn % 4]
        for _ in range(length):
            i, j = path[-1]
            path.append((i + di, j + dj))
    for k, node in enumerate(path):
        values[node] = float(len(path) - k)
    return ScalarField((n, n), (1.0, 1.0), (False, False), values), path


def test_vectorized_descent_matches_per_walk_oracle():
    rng = np.random.default_rng(SEED)
    cases = []
    # integer values make ties; sizes 1 and 2 on periodic axes come up often
    for i in range(80):
        d = int(rng.integers(1, 4))
        dims = tuple(int(m) for m in rng.integers(1, 9, d))
        periodic = tuple(bool(p) for p in rng.integers(0, 2, d))
        if i % 4 == 0:
            dims = tuple(int(rng.choice([1, 2])) if p else m
                         for m, p in zip(dims, periodic))
        f = ScalarField(dims, (1.0,) * d, periodic,
                        rng.integers(0, 4, dims).astype(float))
        comp = rng.random(dims) < float(rng.choice([0.05, 0.3, 0.9]))
        comp.flat[int(rng.integers(comp.size))] = True
        sigma = comp | (rng.random(dims) < 0.5)
        cases.append((f, comp, sigma))
    # one-node C on larger grids, so that the box is smaller than the grid,
    # and sigma nodes anywhere: walks start outside the box, step out of it,
    # into it, and across a periodic seam
    for i in range(40):
        d = int(rng.integers(1, 4))
        dims = tuple(int(m) for m in rng.integers(9, 15, d))
        periodic = tuple(bool(p) for p in rng.integers(0, 2, d))
        centre = tuple(int(rng.integers(m)) for m in dims)
        values = rng.integers(0, 3, dims) * float(rng.choice([0.0, 0.4]))
        for a, (m, c, p) in enumerate(zip(dims, centre, periodic)):
            k = np.abs(np.arange(m) - c)
            if p:
                k = np.minimum(k, m - k)
            values = values + k.reshape([m if b == a else 1 for b in range(d)])
        f = ScalarField(dims, (1.0,) * d, periodic, values)
        comp = np.zeros(dims, dtype=bool)
        comp[centre] = True
        cases.append((f, comp, comp | (rng.random(dims) < 0.2)))
    n_random = len(cases)
    # hand-built sigma around C = {10}, whose box is 7..13; the dip at 2 is
    # outside it
    x = np.arange(21.0)
    v = np.abs(x - 10.0)
    v[2] = -1.0
    f = ScalarField((21,), (1.0,), (False,), v)
    cases.append((f, x == 10, np.isin(x, [10, 2])))      # stays put outside the box
    cases.append((f, x == 10, np.isin(x, [10, 2, 3])))   # steps within sigma minus the box
    cases.append((f, x == 10, np.isin(x, [10, 6, 14])))  # steps into the box
    # C = {0} on a 20-node circle: the box 17..3 wraps the seam
    y = np.arange(20.0)
    v = np.minimum(y, 20.0 - y)
    cases.append((ScalarField((20,), (1.0,), (True,), v), y == 0, np.isin(y, [0, 4, 16])))
    v[15] = -1.0
    cases.append((ScalarField((20,), (1.0,), (True,), v), y == 0, np.isin(y, [0, 16])))
    # the walk from the box edge x = 7 steps to the dip at x = 6, outside the box
    values = 0.001 * (x - 10.0) ** 2
    values[[5, 6, 14, 15]] = -1.0
    f = ScalarField((21,), (1.0,), (False,), values)
    cases.append((f, x == 10, np.abs(x - 10) <= 3))
    # from x = 10 the walk leaves the box 7..13 on its fourth step and stops
    # at the minimum x = 6 just outside it
    f = ScalarField((21,), (1.0,), (False,), np.abs(x - 6.0))
    cases.append((f, x == 10, x == 10))
    # a spiral longer than the 4 * sum(dims) budget that ends in C; two far
    # corners make the box the whole grid, so the walk from (0, 0) runs out
    # of steps before it reaches C
    f, path = _spiral_field(21)
    assert len(path) > 4 * sum(f.dims) + 1
    comp = np.zeros(f.dims, dtype=bool)
    comp[0, 20] = comp[20, 0] = comp[path[-1]] = True
    cases.append((f, comp, np.ones(f.dims, dtype=bool)))

    outcomes = []
    for f, comp, sigma in cases:
        crit = CriticalSet((GridMask(f.dims, f.periodic, comp),), 1e-6)
        sigma = GridMask(f.dims, f.periodic, sigma)
        fast = _outcome(verify_thickening, f, crit, sigma, TOLS)
        assert fast == _outcome(oracle_verify_thickening, f, crit, sigma, TOLS)
        outcomes.append(fast)
    assert {o[0] for o in outcomes[:80]} == {"ok", "raised"}
    assert {o[0] for o in outcomes[80:n_random]} == {"ok", "raised"}
    stay, within, into, seam_in, seam_out = outcomes[n_random:n_random + 5]
    assert stay[0] == "ok" and stay[1]["failures"] == [[2]]
    assert within == ("raised", "DescentEscapeError", "descent from (3,) left the box")
    assert into[0] == seam_in[0] == "ok"
    assert into[1]["descent_reached_c"] and seam_in[1]["descent_reached_c"]
    assert seam_out == ("raised", "DescentEscapeError", "descent from (16,) left the box")
    assert outcomes[-3] == ("raised", "DescentEscapeError",
                            "descent from (7,) left the box")
    assert outcomes[-2] == ("raised", "DescentEscapeError",
                            "descent from (10,) left the box")
    assert outcomes[-1][0] == "ok" and [0, 0] in outcomes[-1][1]["failures"]


def test_dilation_matches_bfs_distance():
    rng = np.random.default_rng(SEED)
    for _ in range(60):
        d = int(rng.integers(1, 4))
        dims = tuple(int(m) for m in rng.integers(1, 9, d))
        periodic = tuple(bool(p) for p in rng.integers(0, 2, d))
        cells = rng.random(dims) < float(rng.choice([0.02, 0.1, 0.3]))
        cells.flat[int(rng.integers(cells.size))] = True
        dist = oracle_grid_distance_to_component(GridMask(dims, periodic, cells))
        near = cells
        for k in range(4):
            assert np.array_equal(near, dist <= k)
            near = _dilate(near, periodic)
