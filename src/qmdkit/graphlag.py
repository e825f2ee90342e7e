"""Graph Lagrangians over a chart and the fiberwise translation flow.

A section generated by f is the graph of df over the chart; the
Hamiltonian flow of a lifted function tau acts on such graphs purely by
fiber translation, so the time-t image is again a graph, generated by
f - t*tau.  Everything here is exact generator arithmetic: points are
never moved, only generators recombined.

The isolation scan certifies that the zero-section intersection of the
flowed graph stays pinned to C for t in [0, 1 - eps] and is swallowed by
the chart of S at the flattened endpoint t = 1, which is exactly what a
compliant (f, tau) pair must achieve.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import List, Tuple

import numpy as np

from .fields import ScalarField, gradient, stencil_mask
from .morse import (CriticalSet, SubmanifoldChart, detect_critical_set,
                    isolating_box)


@dataclass(frozen=True)
class GraphSection:
    """Lagrangian graph of d(generator) over the chart; exact by construction."""
    generator: ScalarField


def flow_translate(l: GraphSection, tau: ScalarField, t: float) -> GraphSection:
    """Time-t fiber translation: the graph of d(f - t*tau)."""
    if not (0.0 <= t <= 1.0):
        raise ValueError("flow time must lie in [0, 1]")
    l.generator.require_same_grid(tau)
    return GraphSection(l.generator.sub(tau, scale=float(t)))


def zero_section_intersection(l: GraphSection, grad_tol: float) -> CriticalSet:
    return detect_critical_set(l.generator, grad_tol)


@dataclass
class IsolationReport:
    per_t: List[Tuple[float, bool]] = dc_field(default_factory=list)
    isolated_on_scan: bool = True
    t1_contained_in_chart: bool = True
    first_violation: float | None = None

    @property
    def passed(self) -> bool:
        return self.isolated_on_scan and self.t1_contained_in_chart

    def to_json(self) -> dict:
        return {
            "per_t": [{"t": t, "isolated": ok} for t, ok in self.per_t],
            "isolated_on_scan": self.isolated_on_scan,
            "t1_contained_in_chart": self.t1_contained_in_chart,
            "first_violation": self.first_violation,
            "passed": self.passed,
        }


def isolation_scan(f: ScalarField, tau: ScalarField, crit: CriticalSet,
                   chart: SubmanifoldChart, steps: int = 64,
                   component: int = 0) -> IsolationReport:
    """Check C stays the in-box intersection for t in [0, 1 - 1/steps].

    At t = 1 the intersection need only be contained in the chart slice
    of S (the flattened endpoint is a neighborhood in S, not C itself);
    both facts are reported separately.  The section at time t is
    grad f - t grad tau (the gradient is linear), so the scan takes two
    gradient passes in all, not one per step.
    """
    f.require_same_grid(tau)
    comp = crit.components[component]
    # only stencil-valid nodes of the box can be critical; a node of C
    # outside them (a hand-built set) is never matched
    box = isolating_box(comp)
    region = stencil_mask(f) & box
    c_inside = not (comp.cells & box & ~region).any()
    grad_f = gradient(f)[0][region]
    grad_tau = gradient(tau)[0][region]
    on_c = comp.cells[region]

    def near(t: float) -> np.ndarray:
        g = grad_f - t * grad_tau
        return np.sqrt((g ** 2).sum(axis=-1)) < crit.grad_tol

    report = IsolationReport()
    for j in range(steps):
        t = j / steps
        ok = c_inside and bool(np.array_equal(near(t), on_c))
        report.per_t.append((t, ok))
        if not ok and report.first_violation is None:
            report.first_violation = t
            report.isolated_on_scan = False
    report.t1_contained_in_chart = bool(
        (near(1.0) <= chart.slice_mask(f.dims)[region]).all())
    return report
