import os

import numpy as np
import pytest

from qmdkit.catalog import (TOLS, field_1d_quartic, field_saddle,
                            field_torus_height, tau_1d_quartic, tau_saddle,
                            torus_circle_indices)
from qmdkit.fields import GridMismatchError, ScalarField, gradient_magnitude
from qmdkit.graphlag import (GraphSection, IsolationReport, flow_translate,
                             isolation_scan, zero_section_intersection)
from qmdkit.cubical import GridMask
from qmdkit.morse import (CriticalSet, SubmanifoldChart, construct_tau,
                          detect_critical_set)

from _oracles import oracle_isolation_scan

SEED = int(os.environ.get("QMD_SEED", "0"))


def test_flow_at_time_zero_is_identity():
    f = field_1d_quartic()
    section = GraphSection(f)
    moved = flow_translate(section, tau_1d_quartic(), 0.0)
    assert np.array_equal(moved.generator.values, f.values)


def test_flow_is_generator_subtraction():
    f = field_1d_quartic()
    moved = flow_translate(GraphSection(f), tau_1d_quartic(), 1.0)
    xs = np.linspace(-1.0, 1.0, 33)
    assert np.allclose(moved.generator.values, xs * xs, atol=1e-15)


def test_flow_2d_generator_arithmetic():
    f = field_saddle()
    moved = flow_translate(GraphSection(f), tau_saddle(), 1.0)
    xs = np.linspace(-1.0, 1.0, 33)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    assert np.allclose(moved.generator.values, -Y * Y - Y ** 4, atol=1e-15)


def test_flow_grid_mismatch():
    f = field_1d_quartic()
    other = ScalarField((5,), (0.5,), (False,), np.zeros(5))
    with pytest.raises(GridMismatchError):
        flow_translate(GraphSection(f), other, 0.5)


def test_flow_time_range():
    f = field_1d_quartic()
    with pytest.raises(ValueError):
        flow_translate(GraphSection(f), tau_1d_quartic(), 1.5)


def test_translation_semigroup_exact_on_integer_fixture():
    vals = np.arange(25, dtype=float).reshape(5, 5)
    tau_vals = (np.arange(25, dtype=float) % 7).reshape(5, 5)
    f = ScalarField((5, 5), (1.0, 1.0), (False, False), vals)
    tau = ScalarField((5, 5), (1.0, 1.0), (False, False), tau_vals)
    one = flow_translate(flow_translate(GraphSection(f), tau, 0.25), tau, 0.75)
    direct = flow_translate(GraphSection(f), tau, 1.0)
    assert np.array_equal(one.generator.values, direct.generator.values)


def test_zero_section_matches_detection():
    f = field_saddle()
    crit = zero_section_intersection(GraphSection(f), 1e-6)
    assert crit.component_nodes(0) == detect_critical_set(f, 1e-6).component_nodes(0)


def test_zero_section_of_quadratic_generator():
    h = 2.0 / 32
    f = ScalarField.sample((33,), (h,), (False,), lambda x: x * x, origin=(-1.0,))
    crit = zero_section_intersection(GraphSection(f), 1e-6)
    assert crit.component_nodes(0) == [(16,)]


def test_zero_section_of_flattened_limit_is_the_axis():
    # generator -y^2 - y^4: the flattened endpoint meets the zero section
    # along the whole x-axis (interior nodes)
    h = 2.0 / 32
    f = ScalarField.sample((33, 33), (h, h), (False, False),
                           lambda x, y: -y * y - y ** 4, origin=(-1.0, -1.0))
    crit = zero_section_intersection(GraphSection(f), 1e-6)
    nodes = crit.component_nodes(0)
    assert nodes == [(i, 16) for i in range(1, 32)]


def test_degenerate_flow_covers_chart():
    # generator minus itself: the zero generator meets the zero section everywhere
    f = field_saddle()
    moved = flow_translate(GraphSection(f), f, 1.0)
    crit = zero_section_intersection(moved, 1e-6)
    assert crit.components[0].count() == 31 * 31  # all stencil-valid nodes


def test_isolation_scan_quartic_pair():
    f = field_1d_quartic()
    crit = detect_critical_set(f, 1e-6)
    chart = SubmanifoldChart(axes=(), base=(16,))
    report = isolation_scan(f, tau_1d_quartic(), crit, chart, steps=64)
    assert report.isolated_on_scan and report.t1_contained_in_chart
    assert len(report.per_t) == 64
    assert report.per_t[0][0] == 0.0 and report.per_t[-1][0] == 1.0 - 1.0 / 64


def test_isolation_scan_saddle_pair():
    f = field_saddle()
    crit = detect_critical_set(f, 1e-6)
    chart = SubmanifoldChart(axes=(0,), base=(16, 16))
    report = isolation_scan(f, tau_saddle(), crit, chart, steps=64)
    assert report.passed


def test_isolation_scan_ignores_outside_critical_points():
    # the torus flow keeps the other circle critical, but outside the box
    f = field_torus_height()
    crit = detect_critical_set(f, 1e-6)
    _, i_min = torus_circle_indices()
    comp = next(i for i, c in enumerate(crit.components) if c.cells[i_min, 0])
    chart = SubmanifoldChart(axes=(0, 1), base=(0, 0))
    tau = construct_tau(f, crit, chart, TOLS, component=comp)
    report = isolation_scan(f, tau, crit, chart, steps=64, component=comp)
    assert report.passed


def test_isolation_report_json():
    f = field_1d_quartic()
    crit = detect_critical_set(f, 1e-6)
    chart = SubmanifoldChart(axes=(), base=(16,))
    report = isolation_scan(f, tau_1d_quartic(), crit, chart, steps=8)
    data = report.to_json()
    assert data["passed"] and len(data["per_t"]) == 8


def _catalog_scan_cases():
    torus = field_torus_height()
    crit = detect_critical_set(torus, 1e-6)
    _, i_min = torus_circle_indices()
    comp = next(i for i, c in enumerate(crit.components) if c.cells[i_min, 0])
    chart = SubmanifoldChart(axes=(0, 1), base=(0, 0))
    return [
        pytest.param(field_1d_quartic(), tau_1d_quartic(), SubmanifoldChart((), (16,)),
                     1e-6, 0, id="quartic"),
        pytest.param(field_saddle(), tau_saddle(), SubmanifoldChart((0,), (16, 16)),
                     1e-6, 0, id="saddle"),
        pytest.param(torus, construct_tau(torus, crit, chart, TOLS, component=comp),
                     chart, 1e-6, comp, id="torus"),
    ]


def _random_scan_cases(n_cases=40):
    """Random 1-D to 4-D fields and taus; grad_tol sits between two of f's
    distinct gradient magnitudes, so that some valid nodes are critical."""
    rng = np.random.default_rng(SEED)
    cases = []
    for i in range(n_cases):
        ndim = 1 + i % 4
        dims = tuple(int(n) for n in rng.integers(4, 10 if ndim < 4 else 6, ndim))
        periodic = tuple(bool(p) for p in rng.integers(0, 2, ndim))
        spacing = tuple(float(h) for h in rng.uniform(0.2, 1.0, ndim))
        f = ScalarField(dims, spacing, periodic, rng.normal(size=dims))
        tau = f.with_values(rng.uniform(0.0, 2.0, dims))
        mag, valid = gradient_magnitude(f)
        mag = np.unique(mag[valid])
        k = max(1, len(mag) // 3)
        grad_tol = 0.5 * (mag[k - 1] + mag[k]) if k < len(mag) else mag[-1] + 1.0
        axes = tuple(a for a in range(ndim) if rng.random() < 0.5)
        base = tuple(int(rng.integers(0, n)) for n in dims)
        cases.append(pytest.param(f, tau, SubmanifoldChart(axes, base), float(grad_tol),
                                  None, id=f"random-{i}"))
    return cases


@pytest.mark.parametrize("f,tau,chart,grad_tol,comp",
                         _catalog_scan_cases() + _random_scan_cases())
def test_isolation_scan_matches_per_step_oracle(f, tau, chart, grad_tol, comp):
    crit = detect_critical_set(f, grad_tol)
    components = range(len(crit.components)) if comp is None else [comp]
    for c in components:
        for steps in (64, 7):
            fast = isolation_scan(f, tau, crit, chart, steps=steps, component=c)
            slow = oracle_isolation_scan(f, tau, crit, chart, steps=steps, component=c)
            assert fast.to_json() == slow.to_json()



def test_isolation_scan_never_matches_a_node_without_stencil():
    # a hand-built C holding a boundary node: no scan step can match it
    f = field_saddle()
    cells = np.zeros(f.dims, bool)
    cells[16, 16] = cells[0, 16] = True
    crit = CriticalSet((GridMask(f.dims, f.periodic, cells),), 1e-6)
    chart = SubmanifoldChart(axes=(0,), base=(16, 16))
    report = isolation_scan(f, tau_saddle(), crit, chart, steps=8)
    assert report.first_violation == 0.0 and not report.isolated_on_scan
    assert report.to_json() == oracle_isolation_scan(f, tau_saddle(), crit, chart,
                                                     steps=8).to_json()
