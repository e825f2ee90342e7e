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

# gradient is unused here but the benchmark tracer patches it by this name
# (ROADMAP item 1b retires that patching)
from .fields import ScalarField, gradient, gradient_at_nodes, stencil_mask  # noqa: F401
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


# float64 entries of one block of scan steps, so that the scan's temporaries
# stay bounded however large the box is
STEP_BLOCK = 1 << 16
# squares below ~1e-308 underflow, which puts an absolute error of up to
# ~1e-162 on a computed norm; the filter's slack must exceed it
UNDERFLOW_SLACK = 1e-150


def _norms(g: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, summed as the whole-grid
    `gradient_magnitude` sums them."""
    return np.sqrt((g ** 2).sum(axis=-1))


def isolation_scan(f: ScalarField, tau: ScalarField, crit: CriticalSet,
                   chart: SubmanifoldChart, steps: int = 64,
                   component: int = 0) -> IsolationReport:
    """Check C stays the in-box intersection for t in [0, 1 - 1/steps].

    At t = 1 the intersection need only be contained in the chart slice
    of S (the flattened endpoint is a neighborhood in S, not C itself);
    both facts are reported separately.  The section at time t is
    grad f - t grad tau (the gradient is linear), so grad f and grad tau
    are gathered once, at the stencil-valid nodes of the isolating box
    only.

    A node off C with a - t_last b > grad_tol + slack, where a = |grad f|,
    b = |grad tau| and t_last = (steps - 1)/steps, is never near for any
    scanned t, since |grad f - t grad tau| >= a - t b.  The slack,
    1e-9 (a + b + grad_tol) plus UNDERFLOW_SLACK, covers the rounding of
    the norms, and a NaN bound (overflowing squares) keeps the node.  The
    steps then evaluate C and the kept nodes only, with the same float
    expression as a whole-box pass, in blocks of at most STEP_BLOCK
    entries.  When tau = f - c in the box, as with a full chart, almost
    every node drops out.  The t = 1 containment check is one exact pass
    over the box.
    """
    f.require_same_grid(tau)
    comp = crit.components[component]
    # only stencil-valid nodes of the box can be critical; a node of C
    # outside them (a hand-built set) is never matched
    box = isolating_box(comp)
    region = stencil_mask(f) & box
    c_inside = not (comp.cells & box & ~region).any()
    nodes = np.argwhere(region)
    grad_f = gradient_at_nodes(f, nodes)
    grad_tau = gradient_at_nodes(tau, nodes)
    on_c = comp.cells[region]
    tol = crit.grad_tol

    report = IsolationReport()
    ts = [j / steps for j in range(steps)]
    if c_inside and ts:
        with np.errstate(over="ignore", invalid="ignore"):
            a, b = _norms(grad_f), _norms(grad_tau)
            never = a - ts[-1] * b > tol + 1e-9 * (a + b + tol) + UNDERFLOW_SLACK
        keep = on_c | ~never
        gf, gt, want = grad_f[keep], grad_tau[keep], on_c[keep]
        block = max(1, STEP_BLOCK // max(1, gf.size))
        for j0 in range(0, steps, block):
            t = np.array(ts[j0:j0 + block])[:, None, None]
            ok = ((_norms(gf - t * gt) < tol) == want).all(axis=1)
            report.per_t.extend(zip(ts[j0:j0 + block], ok.tolist()))
    else:
        report.per_t = [(t, False) for t in ts]
    bad = [t for t, ok in report.per_t if not ok]
    if bad:
        report.first_violation = bad[0]
        report.isolated_on_scan = False
    near_end = _norms(grad_f - grad_tau) < tol
    report.t1_contained_in_chart = bool(
        (near_end <= chart.slice_mask(f.dims)[region]).all())
    return report
