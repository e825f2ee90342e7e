"""Executable worked examples tying the analysis pipeline together.

Every case builds its fixtures deterministically, runs the relevant
module pipeline, and compares against expected values.  Each expectation
carries a provenance tag:

  pinned     frozen reference constant
  analytic   closed-form derivation from the fixture definition
  oracle     compared against an independent computation in the same run

Cases are independent and bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Dict, List, Tuple

import numpy as np

from .cubical import GridMask, betti_of_mask, betti_product_check
from .fields import ScalarField
from .graphlag import GraphSection, flow_translate, isolation_scan, zero_section_intersection
from .morse import (ChartError, SubmanifoldChart, Tolerances,
                    check_flattened_degenerate, check_minimally_degenerate,
                    check_qmd, classify, construct_tau, detect_critical_set,
                    flatten, index_preserved, verify_thickening)
from .specseq import (QMDDescriptor, QMDPiece, build_from_qmd, converge,
                      directed_limit_check, page)


class UnknownExampleError(KeyError):
    pass


@dataclass
class CheckResult:
    name: str
    passed: bool
    expected: object
    actual: object
    provenance: str

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "expected": _jsonable(self.expected),
                "actual": _jsonable(self.actual),
                "provenance": self.provenance}


@dataclass
class ExampleReport:
    name: str
    checks: List[CheckResult] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def expect(self, name: str, expected, actual, provenance: str) -> None:
        self.checks.append(CheckResult(name, expected == actual, expected,
                                       actual, provenance))

    def require(self, name: str, condition: bool, provenance: str,
                detail: object = None) -> None:
        self.checks.append(CheckResult(name, bool(condition), True,
                                       detail if detail is not None else bool(condition),
                                       provenance))

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "checks": [c.to_json() for c in self.checks]}


def _jsonable(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, tuple):
        return [_jsonable(x) for x in v]
    if isinstance(v, list):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    return v


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

TOLS = Tolerances(grad_tol=1e-6)


def field_1d_quadratic(n: int = 33) -> ScalarField:
    h = 2.0 / (n - 1)
    return ScalarField.sample((n,), (h,), (False,), lambda x: x * x, origin=(-1.0,))


def field_1d_quartic(n: int = 33) -> ScalarField:
    h = 2.0 / (n - 1)
    return ScalarField.sample((n,), (h,), (False,),
                              lambda x: x * x + x ** 4, origin=(-1.0,))


def tau_1d_quartic(n: int = 33) -> ScalarField:
    h = 2.0 / (n - 1)
    return ScalarField.sample((n,), (h,), (False,), lambda x: x ** 4, origin=(-1.0,))


def _plane(fn: Callable[[np.ndarray, np.ndarray], np.ndarray], n: int = 33) -> ScalarField:
    h = 2.0 / (n - 1)
    return ScalarField.sample((n, n), (h, h), (False, False), fn,
                              origin=(-1.0, -1.0))


def field_saddle(n: int = 33) -> ScalarField:
    return _plane(lambda x, y: x * x - y * y, n)


def tau_saddle(n: int = 33) -> ScalarField:
    return _plane(lambda x, y: x * x + y ** 4, n)


def field_corner(n: int = 33) -> ScalarField:
    """Nonnegative realization of the coordinate-product corner model."""
    return _plane(lambda x, y: (x * y) ** 2, n)


def field_figure8_min(n: int = 33) -> ScalarField:
    """Two-saddle merge: the minimum set is a coordinate cross."""
    return _plane(lambda x, y: x * x * y * y, n)


def field_figure8_max(n: int = 33) -> ScalarField:
    return _plane(lambda x, y: -(x * x * y * y), n)


def field_figure8_perturbed(n: int = 33, c: float = 0.5) -> ScalarField:
    return _plane(lambda x, y: c * (x * x + y * y) - x * x * y * y, n)


def field_torus_height(n_theta: int = 32, n_phi: int = 32) -> ScalarField:
    h_t = 2.0 * math.pi / n_theta
    h_p = 2.0 * math.pi / n_phi
    return ScalarField.sample((n_theta, n_phi), (h_t, h_p), (True, True),
                              lambda th, ph: np.sin(th))


def torus_circle_indices(n_theta: int = 32) -> Tuple[int, int]:
    """(max circle index, min circle index) for the torus height fixture."""
    return n_theta // 4, 3 * n_theta // 4


def mask_region_with_holes() -> np.ndarray:
    """41x41 node mask: a rectangle with two square holes (two eyes)."""
    region = np.zeros((41, 41), dtype=bool)
    region[8:33, 12:29] = True
    region[14:17, 22:25] = False
    region[24:27, 22:25] = False
    return region


def field_flattened_mask() -> ScalarField:
    """Quartic of the distance to the masked region: flat exactly on it."""
    region = mask_region_with_holes()
    h = 1.0 / 16.0
    nodes = np.argwhere(region) * h
    ii, jj = np.meshgrid(np.arange(41) * h, np.arange(41) * h, indexing="ij")
    pts = np.stack([ii.reshape(-1), jj.reshape(-1)], axis=1)
    d2 = ((pts[:, None, :] - nodes[None, :, :]) ** 2).sum(axis=2).min(axis=1)
    vals = (np.sqrt(d2) ** 4).reshape(41, 41)
    return ScalarField((41, 41), (h, h), (False, False), vals)


def _ramp(s: np.ndarray, a: float, b: float) -> np.ndarray:
    return np.maximum(s - b, 0.0) ** 4 + np.maximum(a - s, 0.0) ** 4


def field_annulus_pair_hamiltonian(n_s: int = 9, n_t: int = 4) -> ScalarField:
    """Split Hamiltonian H1(s1) + H2(s2) on cylinder x cylinder."""
    h_s = 2.0 / (n_s - 1)
    h_t = 2.0 * math.pi / n_t
    return ScalarField.sample(
        (n_s, n_t, n_s, n_t), (h_s, h_t, h_s, h_t), (False, True, False, True),
        lambda s1, t1, s2, t2: _ramp(s1, 0.5, 1.5) + _ramp(s2, 0.5, 1.5))


def mask_annulus(n_radial: int, n_angular: int) -> GridMask:
    return GridMask.full((n_radial, n_angular), (False, True))


def mask_pair_of_pants() -> GridMask:
    """Disc with two holes: retract of a thrice-punctured sphere."""
    cells = np.ones((12, 20), dtype=bool)
    cells[4:7, 4:7] = False
    cells[4:7, 13:16] = False
    return GridMask((12, 20), (False, False), cells)


# descriptors -----------------------------------------------------------------


def descriptor_cancellation_pair() -> QMDDescriptor:
    return QMDDescriptor(
        pieces=(QMDPiece("low", action=0.0, iota=0, betti=(1,)),
                QMDPiece("high", action=1.0, iota=1, betti=(1,))),
        cross_terms=(("high/h0.0", "low/h0.0"),))


def descriptor_annulus_kunneth() -> QMDDescriptor:
    return QMDDescriptor(pieces=(QMDPiece("a1xa2", action=0.0, iota=0,
                                          betti=(1, 2, 1)),))


def descriptor_log_corner() -> QMDDescriptor:
    """Divisor-complement style fixture: interior family, two edge annuli,
    one corner piece, with a single action-decreasing cross term."""
    return QMDDescriptor(
        pieces=(QMDPiece("interior", action=0.1, iota=0, betti=(1, 2, 1)),
                QMDPiece("edge-a", action=0.7, iota=1, betti=(1, 1)),
                QMDPiece("edge-b", action=0.9, iota=1, betti=(1, 1)),
                QMDPiece("corner", action=1.5, iota=2, betti=(1,))),
        cross_terms=(("edge-a/h0.0", "interior/h0.0"),))


def descriptor_five_piece() -> QMDDescriptor:
    pieces = tuple(QMDPiece(f"p{i}", action=0.5 * (i + 1), iota=i % 2, betti=(1, 1))
                   for i in range(5))
    return QMDDescriptor(pieces=pieces,
                         cross_terms=(("p1/h0.0", "p0/h0.0"),
                                      ("p3/h0.0", "p2/h0.0"),
                                      ("p4/h1.0", "p2/h0.0")))


CATALOG_DESCRIPTORS: Dict[str, Callable[[], QMDDescriptor]] = {
    "cancellation-pair": descriptor_cancellation_pair,
    "annulus-kunneth": descriptor_annulus_kunneth,
    "log-corner": descriptor_log_corner,
    "five-piece": descriptor_five_piece,
}


# ---------------------------------------------------------------------------
# torus-bundle monodromy and Reeb chords
# ---------------------------------------------------------------------------


def _mat2_mul(a, b):
    return [[a[0][0] * b[0][0] + a[0][1] * b[1][0],
             a[0][0] * b[0][1] + a[0][1] * b[1][1]],
            [a[1][0] * b[0][0] + a[1][1] * b[1][0],
             a[1][0] * b[0][1] + a[1][1] * b[1][1]]]


def monodromy() -> List[List[int]]:
    """Torus-bundle monodromy of the four-node plumbing circle.

    One plumbing swap J per node; the three degree -1 sections twist by
    the inverse Dehn matrix and the degree 2 section twists twice.  The
    basis is ordered (fiber, section), where the twist acts
    lower-triangularly; the section-first ordering would produce the
    transposed-conjugate representative of the same bundle.
    """
    J = [[0, -1], [1, 0]]
    T = [[1, 0], [1, 1]]
    T_inv = [[1, 0], [-1, 1]]
    word = [J, T_inv, J, T_inv, J, T_inv, J, T, T]
    out = [[1, 0], [0, 1]]
    for m in word:
        out = _mat2_mul(out, m)
    det = out[0][0] * out[1][1] - out[0][1] * out[1][0]
    assert det == 1, "monodromy left SL(2, Z)"
    return out


REEB_POINTS: Tuple[Tuple[int, int], ...] = ((0, 0), (1, 0), (0, 1), (1, 1))
# coordinates in half-units: (1, 0) means (1/2, 0) on the unit torus


def reeb_chord_table(p: int, q: int) -> Dict[Tuple[Tuple[int, int], Tuple[int, int]], bool]:
    """Chord connectivity among the four half-period points by parity rules.

    Flow direction is (q, p) on the unit torus.  In lowest terms exactly
    one of three parities holds, and it decides which two of the six
    point pairs are joined by a chord.
    """
    if math.gcd(p, q) != 1:
        raise ValueError("slope must be in lowest terms: gcd(p, q) = 1 required")
    q_even = q % 2 == 0
    p_even = p % 2 == 0
    both_odd = (not p_even) and (not q_even)
    rules = {
        ((0, 0), (0, 1)): q_even,
        ((0, 0), (1, 0)): p_even,
        ((0, 0), (1, 1)): both_odd,
        ((1, 0), (0, 1)): both_odd,
        ((1, 0), (1, 1)): q_even,
        ((0, 1), (1, 1)): p_even,
    }
    return {tuple(sorted(k)): v for k, v in rules.items()}


def reeb_chord_oracle(p: int, q: int) -> Dict[Tuple[Tuple[int, int], Tuple[int, int]], bool]:
    """Brute-force forward-flow incidence on the flat torus.

    A chord from u to v exists iff u + t*(q, p) = v (mod Z^2) for some
    t > 0.  Matching the first coordinate forces t = (d1/2 + a)/q with
    integer a, so scanning a in [0, 2q] is exhaustive; the congruence is
    checked in exact integer arithmetic (everything scaled by 2q).
    """
    if math.gcd(p, q) != 1:
        raise ValueError("slope must be in lowest terms: gcd(p, q) = 1 required")
    out = {}
    for i in range(len(REEB_POINTS)):
        for j in range(i + 1, len(REEB_POINTS)):
            u, v = REEB_POINTS[i], REEB_POINTS[j]
            connected = _chord_exists(u, v, p, q) or _chord_exists(v, u, p, q)
            out[tuple(sorted((u, v)))] = connected
    return out


def _chord_exists(u, v, p: int, q: int) -> bool:
    d1 = (v[0] - u[0]) % 2   # in half-units
    d2 = (v[1] - u[1]) % 2
    for a in range(0, 2 * q + 1):
        num = d1 + 2 * a     # t = num / (2q)
        if num == 0:
            continue
        if (p * num - d2 * q) % (2 * q) == 0:
            return True
    return False


def line_arrangement_counts(n_lines: int = 4) -> Dict[str, int]:
    """Pairwise-generic line arrangement: intersections, blowups, nodes."""
    intersections = n_lines * (n_lines - 1) // 2
    exceptional = intersections
    nodes = 2 * exceptional  # each exceptional curve meets two proper transforms
    return {"lines": n_lines,
            "intersections": intersections,
            "exceptional_curves": exceptional,
            "nodes": nodes,
            "punctures_per_line": n_lines - 1}


# ---------------------------------------------------------------------------
# example runners
# ---------------------------------------------------------------------------


def example_monodromy() -> ExampleReport:
    rep = ExampleReport("monodromy")
    m = monodromy()
    rep.expect("product", [[2, 1], [-1, 0]], m, "pinned")
    rep.expect("det", 1, m[0][0] * m[1][1] - m[0][1] * m[1][0], "analytic")
    rep.expect("trace", 2, m[0][0] + m[1][1], "analytic")
    return rep


def example_reeb_chords() -> ExampleReport:
    rep = ExampleReport("reeb-chords")
    key = lambda u, v: tuple(sorted((u, v)))
    t53 = reeb_chord_table(5, 3)
    rep.expect("slope-5/3 joins (0,0)-(1/2,1/2)", True,
               t53[key((0, 0), (1, 1))], "pinned")
    t12 = reeb_chord_table(1, 2)
    rep.expect("even q joins (0,0)-(0,1/2)", True,
               t12[key((0, 0), (0, 1))], "pinned")
    t21 = reeb_chord_table(2, 1)
    rep.expect("even p joins (0,0)-(1/2,0)", True,
               t21[key((0, 0), (1, 0))], "pinned")
    agree = all(reeb_chord_table(p, q) == reeb_chord_oracle(p, q)
                for p in range(1, 11) for q in range(1, 11)
                if math.gcd(p, q) == 1)
    rep.require("parity rules match flow oracle (p,q <= 10)", agree, "oracle")
    counts = [sum(reeb_chord_table(p, q).values())
              for p in range(1, 11) for q in range(1, 11) if math.gcd(p, q) == 1]
    rep.require("exactly two pairs connect per slope", set(counts) == {2}, "analytic")
    return rep


def example_four_lines() -> ExampleReport:
    rep = ExampleReport("four-lines-count")
    counts = line_arrangement_counts(4)
    rep.expect("intersections", 6, counts["intersections"], "analytic")
    rep.expect("nodes after blowup", 12, counts["nodes"], "pinned")
    rep.expect("annulus piece betti", (1, 1, 0),
               betti_of_mask(mask_annulus(6, 8)), "oracle")
    rep.expect("thrice-punctured sphere betti", (1, 2, 0),
               betti_of_mask(mask_pair_of_pants()), "oracle")
    return rep


def example_torus_height() -> ExampleReport:
    rep = ExampleReport("torus-height")
    f = field_torus_height()
    crit = detect_critical_set(f, TOLS.grad_tol)
    rep.expect("two circle components", 2, len(crit.components), "analytic")
    i_max, i_min = torus_circle_indices()
    for comp in crit.components:
        rep.expect(f"component betti {np.argwhere(comp.cells)[0][0]}",
                   (1, 1, 0), betti_of_mask(comp), "analytic")

    full_chart = SubmanifoldChart(axes=(0, 1), base=(0, 0))
    min_comp_idx = next(i for i, comp in enumerate(crit.components)
                        if comp.cells[i_min, 0])
    max_comp_idx = 1 - min_comp_idx
    min_report = classify(f, crit, chart=full_chart, tols=TOLS,
                          component=min_comp_idx)
    rep.expect("min circle classification", "morse_bott",
               min_report.classification, "analytic")
    rep.require("min circle minimally degenerate (full chart)",
                min_report.details["minimally_degenerate"], "analytic")
    circle_chart = SubmanifoldChart(axes=(1,), base=(i_max, 0))
    max_report = classify(f, crit, chart=circle_chart, tols=TOLS,
                          component=max_comp_idx)
    rep.expect("max circle classification", "morse_bott",
               max_report.classification, "analytic")
    rep.require("max circle minimally degenerate (own chart)",
                max_report.details["minimally_degenerate"], "analytic")

    tau = construct_tau(f, crit, circle_chart, TOLS, component=max_comp_idx)
    qmd = check_qmd(f, tau, crit, circle_chart, TOLS, component=max_comp_idx)
    rep.require("constructed tau passes qmd (max circle)", qmd.passed, "oracle")
    rep.require("transverse index preserved (max circle)",
                index_preserved(f, f.sub(tau), crit, circle_chart,
                                TOLS.eig_tol, component=max_comp_idx), "analytic")
    return rep


def example_genus2() -> ExampleReport:
    rep = ExampleReport("genus2-figure8")
    tols = TOLS
    f_min = field_figure8_min()
    crit_min = detect_critical_set(f_min, tols.grad_tol)
    rep.expect("minimum cross is one component", 1, len(crit_min.components),
               "analytic")
    full_chart = SubmanifoldChart(axes=(0, 1), base=(16, 16))
    res = check_minimally_degenerate(f_min, crit_min, full_chart, tols)
    rep.require("minimum figure-8 minimally degenerate (full chart)",
                res.passed, "analytic")
    tau = construct_tau(f_min, crit_min, full_chart, tols)
    qmd = check_qmd(f_min, tau, crit_min, full_chart, tols)
    rep.require("constructed tau passes qmd (minimum)", qmd.passed, "oracle")
    spectra = qmd.hessian_spectra
    no_positive = all(max(spec) <= tols.eig_tol * max(1.0, max(abs(x) for x in spec) if spec else 1.0)
                      for spec in spectra)
    rep.require("difference Hessian has no positive eigenvalues", no_positive,
                "analytic")

    f_max = field_figure8_max()
    crit_max = detect_critical_set(f_max, tols.grad_tol)
    chart_list = [full_chart,
                  SubmanifoldChart(axes=(0,), base=(16, 16)),
                  SubmanifoldChart(axes=(1,), base=(16, 16))]
    all_fail = True
    for chart in chart_list:
        try:
            if check_minimally_degenerate(f_max, crit_max, chart, tols).passed:
                all_fail = False
        except ChartError:
            pass  # component not contained in the chart counts as failure
    rep.require("maximum figure-8 fails every chart", all_fail, "analytic")

    f_pert = field_figure8_perturbed()
    crit_pert = detect_critical_set(f_pert, tols.grad_tol)
    origin_idx = next(i for i, comp in enumerate(crit_pert.components)
                      if comp.cells[16, 16])
    pert = check_minimally_degenerate(f_pert, crit_pert, full_chart, tols,
                                      component=origin_idx)
    rep.require("perturbed maximum becomes minimally degenerate", pert.passed,
                "analytic")
    return rep


def example_flattened_mask() -> ExampleReport:
    rep = ExampleReport("flattened-mask")
    f = field_flattened_mask()
    crit = detect_critical_set(f, 1e-6)
    big = max(range(len(crit.components)),
              key=lambda i: crit.components[i].count())
    rep.expect("region betti", (1, 2, 0), betti_of_mask(crit.components[big]),
               "analytic")
    chart = SubmanifoldChart(axes=(0, 1), base=(20, 20))
    res = check_flattened_degenerate(f, crit, chart, TOLS, component=big)
    rep.require("flattened degenerate along the full chart", res.passed,
                "analytic")
    return rep


def example_annulus_kunneth() -> ExampleReport:
    rep = ExampleReport("annulus-kunneth")
    b_factor = betti_of_mask(mask_annulus(16, 16))
    rep.expect("annulus betti (16x16)", (1, 1, 0), b_factor, "analytic")
    conv = betti_product_check(b_factor, b_factor)
    rep.expect("graded convolution", (1, 2, 1, 0, 0), conv[:5], "pinned")
    product = mask_annulus(4, 5).product(mask_annulus(4, 5))
    b4 = betti_of_mask(product)
    rep.expect("product mask betti", (1, 2, 1, 0, 0), b4, "oracle")

    f4 = field_annulus_pair_hamiltonian()
    crit = detect_critical_set(f4, TOLS.grad_tol)
    rep.expect("one critical component", 1, len(crit.components), "analytic")
    comp = crit.components[0]
    nodes = np.argwhere(comp.cells)
    rep.require("component is a product of annuli",
                bool((np.unique(nodes[:, 0]) == [3, 4, 5]).all()
                     and (np.unique(nodes[:, 2]) == [3, 4, 5]).all()
                     and len(np.unique(nodes[:, 1])) == 4
                     and len(np.unique(nodes[:, 3])) == 4), "analytic")
    rep.expect("component betti", (1, 2, 1, 0, 0), betti_of_mask(comp),
               "analytic")

    fc = build_from_qmd(descriptor_annulus_kunneth())
    e1 = page(fc, 1)
    stable, einf = converge(fc)
    dims = {q: e1.dim_at(1, q) for q in (-1, 0, 1)}
    rep.expect("first page ranks", {-1: 1, 0: 2, 1: 1}, dims, "pinned")
    rep.expect("stabilizes immediately", 1, stable, "analytic")
    rep.expect("stable page equals first page", e1.dims(), einf.dims(), "oracle")
    return rep


def example_corner_smoothing() -> ExampleReport:
    rep = ExampleReport("corner-smoothing")
    f = field_corner()
    crit = detect_critical_set(f, TOLS.grad_tol)
    rep.expect("critical cross is one component", 1, len(crit.components),
               "analytic")
    result = flatten(f, 0.005, crit, TOLS)
    rep.expect("cross betti", (1, 0, 0), betti_of_mask(crit.components[0]),
               "analytic")
    rep.expect("thickening betti", (1, 0, 0), betti_of_mask(result.sigma),
               "pinned")
    thick = verify_thickening(f, crit, result.sigma, TOLS)
    rep.require("thickening verified", thick.passed, "oracle")
    return rep


def example_saddle_qmd() -> ExampleReport:
    rep = ExampleReport("saddle-qmd")
    f = field_saddle()
    tau = tau_saddle()
    crit = detect_critical_set(f, TOLS.grad_tol)
    chart = SubmanifoldChart(axes=(0,), base=(16, 16))
    rep.require("saddle minimally degenerate along x-axis",
                check_minimally_degenerate(f, crit, chart, TOLS).passed,
                "analytic")
    rep.require("explicit tau passes qmd",
                check_qmd(f, tau, crit, chart, TOLS).passed, "analytic")
    built = construct_tau(f, crit, chart, TOLS)
    rep.require("constructed tau passes qmd",
                check_qmd(f, built, crit, chart, TOLS).passed, "oracle")
    rep.require("transverse index preserved",
                index_preserved(f, f.sub(built), crit, chart, TOLS.eig_tol),
                "analytic")
    scan = isolation_scan(f, tau, crit, chart, steps=64)
    rep.require("isolated for t in [0, 1-1/64]", scan.isolated_on_scan,
                "analytic")
    rep.require("t=1 intersection inside the chart",
                scan.t1_contained_in_chart, "analytic")
    return rep


def example_quartic_flow() -> ExampleReport:
    rep = ExampleReport("quartic-flow")
    f = field_1d_quartic()
    tau = tau_1d_quartic()
    crit = detect_critical_set(f, TOLS.grad_tol)
    chart = SubmanifoldChart(axes=(), base=(16,))
    rep.require("explicit tau passes qmd",
                check_qmd(f, tau, crit, chart, TOLS).passed, "analytic")
    scan = isolation_scan(f, tau, crit, chart, steps=64)
    rep.require("isolated for t in [0, 1-1/64]", scan.isolated_on_scan,
                "analytic")
    rep.require("t=1 intersection inside the chart",
                scan.t1_contained_in_chart, "analytic")
    section = GraphSection(f)
    moved = flow_translate(section, tau, 1.0)
    end_crit = zero_section_intersection(moved, TOLS.grad_tol)
    rep.expect("flat endpoint critical set", [(16,)],
               end_crit.component_nodes(0), "analytic")
    return rep


def example_log_corner_pieces() -> ExampleReport:
    rep = ExampleReport("log-corner-pieces")
    desc = descriptor_log_corner()
    fc = build_from_qmd(desc)
    e1 = page(fc, 1)
    expected = {}
    order = sorted(range(len(desc.pieces)), key=lambda i: desc.pieces[i].action)
    for p, i in enumerate(order, start=1):
        piece = desc.pieces[i]
        for m, b in enumerate(piece.betti):
            if b:
                expected[(p, m + piece.iota - p)] = b
    rep.expect("first page realizes local homology", expected, e1.dims(),
               "analytic")
    cuts = [0.5, 1.0, float("inf")]
    rep.require("directed limit stabilizes over three cutoffs",
                directed_limit_check(desc, cuts), "oracle")
    return rep


def example_cancellation_pair() -> ExampleReport:
    rep = ExampleReport("cancellation-pair")
    fc = build_from_qmd(descriptor_cancellation_pair())
    e1 = page(fc, 1)
    rep.expect("first page dims", {(1, -1): 1, (2, -1): 1}, e1.dims(), "analytic")
    rep.expect("d1 is an isomorphism", 1, len(e1.differentials.get((2, -1), ())),
               "analytic")
    stable, einf = converge(fc)
    rep.expect("stabilizes on page two", 2, stable, "analytic")
    rep.expect("stable page vanishes", {}, einf.dims(), "analytic")
    rep.expect("total homology vanishes", {0: 0, 1: 0}, fc.homology_dims(),
               "oracle")
    return rep


EXAMPLES: Dict[str, Callable[[], ExampleReport]] = {
    "monodromy": example_monodromy,
    "reeb-chords": example_reeb_chords,
    "four-lines-count": example_four_lines,
    "torus-height": example_torus_height,
    "genus2-figure8": example_genus2,
    "flattened-mask": example_flattened_mask,
    "annulus-kunneth": example_annulus_kunneth,
    "corner-smoothing": example_corner_smoothing,
    "saddle-qmd": example_saddle_qmd,
    "quartic-flow": example_quartic_flow,
    "log-corner-pieces": example_log_corner_pieces,
    "cancellation-pair": example_cancellation_pair,
}


def list_examples() -> List[str]:
    return sorted(EXAMPLES)


def run_example(name: str) -> ExampleReport:
    if name not in EXAMPLES:
        raise UnknownExampleError(name)
    return EXAMPLES[name]()
