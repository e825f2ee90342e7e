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


def test_isolation_scan_needs_a_step():
    """A scan of no step would certify anything: tau = 2f flips the saddle's
    section at t = 1/2, which 64 steps find, and steps < 1 is refused."""
    f = field_saddle()
    crit = detect_critical_set(f, 1e-6)
    chart = SubmanifoldChart(axes=(0,), base=(16, 16))
    tau = f.with_values(2.0 * f.values)
    report = isolation_scan(f, tau, crit, chart, steps=64)
    assert not report.passed and report.first_violation == 0.5
    for steps in (0, -3):
        with pytest.raises(ValueError):
            isolation_scan(f, tau, crit, chart, steps=steps)


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


def _tie(values, rng):
    """Make one random interior node's stencil neighbours equal in pairs,
    so that its central gradient is exactly 0."""
    node = tuple(int(rng.integers(1, n - 1)) for n in values.shape)
    for a in range(values.ndim):
        lo, hi = list(node), list(node)
        lo[a] -= 1
        hi[a] += 1
        values[tuple(hi)] = values[tuple(lo)]
    return values


def _random_grid(rng, i):
    ndim = 1 + i % 4
    dims = tuple(int(n) for n in rng.integers(4, 10 if ndim < 4 else 6, ndim))
    periodic = tuple(bool(p) for p in rng.integers(0, 2, ndim))
    return ndim, dims, periodic


def _random_chart(rng, dims):
    axes = tuple(a for a in range(len(dims)) if rng.random() < 0.5)
    return SubmanifoldChart(axes, tuple(int(rng.integers(0, n)) for n in dims))


def _random_scan_cases(n_cases=40):
    """Random 1-D to 4-D fields and taus; grad_tol sits between two of f's
    distinct gradient magnitudes, so that some valid nodes are critical."""
    rng = np.random.default_rng(SEED)
    cases = []
    for i in range(n_cases):
        ndim, dims, periodic = _random_grid(rng, i)
        spacing = tuple(float(h) for h in rng.uniform(0.2, 1.0, ndim))
        f = ScalarField(dims, spacing, periodic, rng.normal(size=dims))
        tau = f.with_values(rng.uniform(0.0, 2.0, dims))
        mag, valid = gradient_magnitude(f)
        mag = np.unique(mag[valid])
        k = max(1, len(mag) // 3)
        grad_tol = 0.5 * (mag[k - 1] + mag[k]) if k < len(mag) else mag[-1] + 1.0
        cases.append(pytest.param(f, tau, _random_chart(rng, dims), float(grad_tol),
                                  None, id=f"random-{i}"))
    return cases


def _edge_scan_cases(n_cases=24):
    """tau = f - c, so grad tau = grad f as in a full-chart job, on integer
    fields with spacing 1/2: every gradient and every t grad tau with t a
    multiple of 1/64 is exact, in the scan and in the oracle alike.
    grad_tol sits exactly at |grad f|/steps of a random node, or one ulp
    above it, for steps 64 or 2, so that the node's |grad f - t grad tau|
    at t = (steps - 1)/steps equals grad_tol or falls just below it."""
    rng = np.random.default_rng(SEED + 1)
    cases = []
    for i in range(n_cases):
        ndim, dims, periodic = _random_grid(rng, i)
        values = _tie(rng.integers(-4, 5, dims).astype(float), rng)
        f = ScalarField(dims, (0.5,) * ndim, periodic, values)
        tau = f.shift(float(rng.integers(-3, 4)))
        mag, valid = gradient_magnitude(f)
        mag = mag[valid & (mag > 0)]
        a = float(rng.choice(mag)) if len(mag) else 1.0
        grad_tol = a / float(rng.choice([64, 2]))
        if i % 2:
            grad_tol = float(np.nextafter(grad_tol, np.inf))
        cases.append(pytest.param(f, tau, _random_chart(rng, dims), grad_tol, None,
                                  id=f"edge-{i}"))
    # di^2 + 2 dj^2 + di dj about (4, 4): its least nonzero |grad f| is
    # sqrt(20), at two nodes of the box, and no other node can be near at
    # any scanned t.  At grad_tol one ulp above sqrt(20)/64 those two are
    # near at t = 63/64 alone, while the rounded bound
    # sqrt(20) - (63/64) sqrt(20) exceeds grad_tol: only the slack keeps them.
    i, j = np.meshgrid(np.arange(9) - 4.0, np.arange(9) - 4.0, indexing="ij")
    f = ScalarField((9, 9), (0.5, 0.5), (False, False), i * i + 2.0 * j * j + i * j)
    edge = np.sqrt(20.0) / 64.0
    for name, grad_tol in (("at", edge), ("above", float(np.nextafter(edge, np.inf)))):
        cases.append(pytest.param(f, f.shift(1.0), SubmanifoldChart((), (4, 4)), grad_tol,
                                  0, id=f"edge-quadratic-{name}"))
    return cases


def _huge_scan_cases(n_cases=16):
    """Values near 1e154 and 1e300: squared gradient norms overflow, the
    filter's bound is NaN and the scan takes the exact path."""
    rng = np.random.default_rng(SEED + 2)
    cases = []
    for i in range(n_cases):
        ndim, dims, periodic = _random_grid(rng, i)
        scale = 1e154 if i % 2 else 1e300
        spacing = tuple(float(h) for h in rng.uniform(0.2, 1.0, ndim))
        f = ScalarField(dims, spacing, periodic, _tie(scale * rng.normal(size=dims), rng))
        if i % 4 < 2:
            tau = f.shift(scale * float(rng.normal()))
        else:
            tau = f.with_values(scale * rng.uniform(0.0, 2.0, dims))
        # 0.3 times the least positive finite |grad f|: not a multiple
        # 1 - t of it for any scanned t, where the two roundings could differ
        with np.errstate(over="ignore"):
            mag, valid = gradient_magnitude(f)
        mag = mag[valid & np.isfinite(mag) & (mag > 0)]
        grad_tol = 0.3 * mag.min() if len(mag) else 1.0
        cases.append(pytest.param(f, tau, _random_chart(rng, dims), float(grad_tol),
                                  None, id=f"huge-{i}"))
    return cases


def _underflow_scan_case():
    """f = tau, flat on 0..7 and rising from there: node 7's |grad f| is
    2^-532 (the others' 0 or 2^-531), so at t = 63/64 its section is
    2^-538, whose square underflows to 0.  The node is near there although
    its bound |grad f|/64 lies far above grad_tol."""
    k = np.array([0.0] * 8 + [float(i) for i in range(1, 10)])
    f = ScalarField((17,), (1.0,), (False,), k * 2.0 ** -531)
    return [pytest.param(f, f, SubmanifoldChart((0,), (0,)), 1e-300, None,
                         id="underflow")]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("f,tau,chart,grad_tol,comp",
                         _catalog_scan_cases() + _random_scan_cases()
                         + _edge_scan_cases() + _huge_scan_cases()
                         + _underflow_scan_case())
def test_isolation_scan_matches_per_step_oracle(f, tau, chart, grad_tol, comp):
    crit = detect_critical_set(f, grad_tol)
    components = range(len(crit.components)) if comp is None else [comp]
    for c in components:
        for steps in (64, 7, 2, 1):
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
