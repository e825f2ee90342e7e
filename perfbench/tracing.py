"""Spans around the library's public calls, installed from the benchmark.

``Tracer`` patches the layer functions and methods with timing wrappers,
keeps every span in memory as ``[name, start, end, parent, job]`` and
restores the originals on exit.  Names that a module re-binds with
``from .x import y`` are patched at each binding, so a call is seen
whichever module makes it.  Self time is a span's duration minus the part
of it covered by its children.

``LAYER_METRICS`` lists the per-layer metrics: where each is measured and
which end-to-end metric it should move.  On every other workload the
prediction is no change.  Values are means per traced job: self times in
seconds, counts per job, and ratios as defined in ``layer_metrics``.
"""

from __future__ import annotations

import importlib
import math
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from qmdkit import cli, cubical, fields, gf2, graphlag, morse, specseq

# the package re-exports the function maslov under the module's name
maslov = importlib.import_module("qmdkit.maslov")

JOB_SPAN = "job"

# (metric, unit, better, workloads it is measured on, what it should move)
LAYER_METRICS: Tuple[Tuple[str, str, str, Tuple[str, ...], str], ...] = (
    ("gf2.rank.calls", "count", "lower", ("masks", "descriptors", "fields"),
     "jobs_per_s, job_tail_s, peak_rss_mib on masks"),
    ("gf2.rank.self_s", "s", "lower", ("masks", "descriptors", "fields"),
     "jobs_per_s, job_tail_s, peak_rss_mib on masks"),
    ("gf2.kernel_basis.self_s", "s", "lower", ("descriptors",),
     "job_p50_s, jobs_per_s on descriptors"),
    ("gf2.from_dense.self_s", "s", "lower", ("masks", "descriptors", "fields"),
     "jobs_per_s, peak_rss_mib on masks"),
    ("gf2.mul.self_s", "s", "lower", ("descriptors",),
     "job_p50_s, jobs_per_s on descriptors"),
    ("gf2.subspace.calls", "count", "lower", ("descriptors",),
     "job_p50_s, jobs_per_s on descriptors"),
    ("gf2.subspace.self_s", "s", "lower", ("descriptors",),
     "job_p50_s, jobs_per_s on descriptors"),
    ("cubical.build_complex.self_s", "s", "lower", ("masks", "fields"),
     "jobs_per_s, job_tail_s, peak_rss_mib on masks; job_tail_s on fields"),
    ("cubical.betti.self_s", "s", "lower", ("masks", "fields"),
     "jobs_per_s, job_tail_s on masks; job_tail_s on fields"),
    ("cubical.cells", "count", "lower", ("masks", "fields"),
     "input invariant: cells of all dimensions"),
    ("cubical.boundary_nnz", "count", "lower", ("masks", "fields"),
     "input invariant: sum of 2k n_k"),
    ("specseq.build_from_qmd.self_s", "s", "lower", ("descriptors",),
     "job_p50_s on descriptors"),
    ("specseq.page.calls", "count", "lower", ("descriptors",),
     "job_p50_s, jobs_per_s on descriptors"),
    ("specseq.page.self_s", "s", "lower", ("descriptors",),
     "job_p50_s, jobs_per_s on descriptors"),
    ("specseq.converge.self_s", "s", "lower", ("descriptors",),
     "job_p50_s, jobs_per_s on descriptors"),
    ("specseq.homology_dims.self_s", "s", "lower", ("descriptors",),
     "job_p50_s on descriptors"),
    ("specseq.generators", "count", "higher", ("descriptors",),
     "input invariant: generators per complex"),
    ("specseq.page_reuse_ratio", "ratio", "higher", ("descriptors",),
     "job_p50_s, jobs_per_s on descriptors"),
    ("cli.main.self_s", "s", "lower", ("descriptors", "paths"),
     "job_p50_s on descriptors and paths, as a small share"),
    ("cli.stdout_bytes", "bytes", "lower", ("descriptors", "paths"),
     "job_p50_s on descriptors and paths, as a small share"),
    ("fields.gradient.calls", "count", "lower", ("fields",),
     "jobs_per_s, job_p50_s on fields"),
    ("fields.gradient.self_s", "s", "lower", ("fields",),
     "jobs_per_s, job_p50_s on fields"),
    ("fields.hessian_at.calls", "count", "lower", ("fields",),
     "jobs_per_s, job_p50_s on fields"),
    ("fields.hessian_at.self_s", "s", "lower", ("fields",),
     "jobs_per_s, job_p50_s on fields"),
    ("fields.eig_sym.calls", "count", "lower", ("fields",),
     "jobs_per_s, job_p50_s on fields"),
    ("fields.eig_sym.self_s", "s", "lower", ("fields",),
     "jobs_per_s, job_p50_s on fields"),
    ("morse.detect_critical_set.self_s", "s", "lower", ("fields",),
     "jobs_per_s, job_p50_s on fields"),
    ("morse.construct_tau.self_s", "s", "lower", ("fields",),
     "jobs_per_s, job_p50_s, job_tail_s on fields"),
    ("morse.classify.self_s", "s", "lower", ("fields",),
     "jobs_per_s, job_p50_s on fields"),
    ("morse.check_qmd.self_s", "s", "lower", ("fields",),
     "jobs_per_s, job_p50_s on fields"),
    ("morse.flatten.self_s", "s", "lower", ("fields",),
     "jobs_per_s on fields"),
    ("morse.flatten.nudges", "count", "lower", ("fields",),
     "none: delta nudges are a property of the input"),
    ("morse.verify_thickening.self_s", "s", "lower", ("fields",),
     "job_tail_s on fields"),
    ("morse.hessian_per_node", "ratio", "lower", ("fields",),
     "jobs_per_s, job_p50_s on fields"),
    ("graphlag.isolation_scan.self_s", "s", "lower", ("fields",),
     "jobs_per_s on fields"),
    ("graphlag.gradient_passes", "count", "lower", ("fields",),
     "jobs_per_s on fields"),
    ("maslov.maslov.self_s", "s", "lower", ("paths",),
     "jobs_per_s, job_tail_s on paths"),
    ("maslov.from_json.self_s", "s", "lower", ("paths",),
     "job_p50_s on paths"),
    ("maslov.breakpoints", "count", "higher", ("paths",),
     "input invariant: merged breakpoints per pair"),
    ("maslov.crossings", "count", "higher", ("paths",),
     "input invariant: crossing records per pair"),
    ("trace_overhead", "ratio", "lower", ("masks", "descriptors", "fields", "paths"),
     "none: untraced jobs_per_s over traced jobs_per_s"),
)

# measured and printed, but left out of BENCHMARK.json's per-layer list:
# 0 on every generated field, since no generated level needs a nudge
CONSTANT_METRICS = ("morse.flatten.nudges",)


def per_layer_names() -> List[Tuple[str, str, str]]:
    """(workload.metric, unit, better) for every per-layer metric reported."""
    return [(f"{w}.{metric}", unit, better)
            for metric, unit, better, workloads, _ in LAYER_METRICS
            if metric not in CONSTANT_METRICS for w in workloads]


class Tracer:
    """Records spans and counters while installed (use as a context manager)."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[Tuple[int, str], float] = defaultdict(float)
        self.pages: Dict[int, set] = defaultdict(set)
        self.job: Optional[int] = None
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[(self.job, name)] += value

    def wrap(self, fn: Callable, name: Optional[str],
             on_return: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            span = self.open(name) if name else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if span is not None:
                    self.close(span)
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, name: Optional[str], on_return=None) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(raw.__func__, name, on_return)))
        else:
            setattr(owner, attr, self.wrap(raw, name, on_return))

    def __enter__(self) -> "Tracer":
        p = self._patch
        for attr in ("rank", "kernel_basis", "from_dense", "mul"):
            p(gf2.GF2Matrix, attr, f"gf2.{attr}")
        for attr in ("__init__", "contains_vector", "contains", "from_vectors"):
            p(gf2.Subspace, attr, "gf2.subspace")
        for attr in ("subspace_sum", "subspace_intersection", "quotient_dim",
                     "solve_row_combination"):
            p(gf2, attr, "gf2.subspace")
        for attr in ("subspace_sum", "quotient_dim", "solve_row_combination"):
            p(specseq, attr, "gf2.subspace")

        p(cubical, "build_complex", "cubical.build_complex", _count_cells)
        p(cubical, "betti", "cubical.betti")

        for owner in (specseq, cli):
            p(owner, "build_from_qmd", "specseq.build_from_qmd", _count_generators)
            p(owner, "page", "specseq.page", _count_page)
            p(owner, "converge", "specseq.converge")
        p(specseq.FilteredComplex, "homology_dims", "specseq.homology_dims")
        p(cli, "main", "cli.main")

        p(fields, "gradient", "fields.gradient")
        p(graphlag, "gradient", "fields.gradient")
        for owner in (fields, morse):
            p(owner, "gradient_magnitude", "fields.gradient_magnitude")
            p(owner, "hessian_at", "fields.hessian_at")
            p(owner, "eig_sym", "fields.eig_sym")

        for attr in ("detect_critical_set", "construct_tau", "check_qmd",
                     "verify_thickening"):
            p(morse, attr, f"morse.{attr}")
        p(morse, "classify", "morse.classify", _count_sampled_nodes)
        p(morse, "flatten", "morse.flatten", _count_nudges)
        p(graphlag, "isolation_scan", "graphlag.isolation_scan")

        for owner in (maslov, cli):
            p(owner, "maslov", "maslov.maslov", _count_breakpoints)
        p(maslov.LagrangianLinePath, "from_json", "maslov.from_json")
        p(maslov, "crossings", None, _count_crossings)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()


def _count_cells(tr, args, kwargs, cx) -> None:
    n = [cx.n_cells(k) for k in range(len(cx.cells_by_dim))]
    tr.count("cubical.cells", sum(n))
    tr.count("cubical.boundary_nnz", sum(2 * k * nk for k, nk in enumerate(n)))


def _count_generators(tr, args, kwargs, fc) -> None:
    tr.count("specseq.generators", len(fc.generators))


def _count_page(tr, args, kwargs, pg) -> None:
    tr.pages[tr.job].add(pg.k)


def _count_sampled_nodes(tr, args, kwargs, report) -> None:
    tr.count("morse.sampled_nodes", len(report.sampled_nodes))


def _count_nudges(tr, args, kwargs, result) -> None:
    delta = kwargs.get("delta", args[1] if len(args) > 1 else None)
    tr.count("morse.flatten.nudges", round(math.log(result.delta_used / delta) / math.log(1.01)))


def _count_breakpoints(tr, args, kwargs, index) -> None:
    a, b = args[0], args[1]
    tr.count("maslov.breakpoints", len(set(a.times) | set(b.times)))


def _count_crossings(tr, args, kwargs, records) -> None:
    tr.count("maslov.crossings", len(records))


# -- analysis --------------------------------------------------------------------


def self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children.get(i, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer: Tracer, workload: str) -> Tuple[Dict[str, float], float]:
    """Per-job means of the layer metrics measured on ``workload``, and the
    largest share of a job's wall time covered by its layer self times."""
    spans = tracer.spans
    selfs = self_times(spans)
    jobs = sorted({s[4] for s in spans if s[0] == JOB_SPAN})
    n_jobs = max(len(jobs), 1)
    self_sum: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    layer_self_by_job: Dict[int, float] = defaultdict(float)
    page_calls: Dict[int, int] = defaultdict(int)
    job_wall: Dict[int, float] = {}
    scans: Dict[int, int] = {}
    for i, span in enumerate(spans):
        name = span[0]
        if name == JOB_SPAN:
            job_wall[span[4]] = span[2] - span[1]
            continue
        self_sum[name] += selfs[i]
        calls[name] += 1
        layer_self_by_job[span[4]] += selfs[i]
        if name == "specseq.page":
            page_calls[span[4]] += 1
        elif name == "graphlag.isolation_scan":
            scans[i] = 0
    for i, span in enumerate(spans):
        if span[0] == "fields.gradient":
            parent = span[3]
            while parent >= 0:
                if parent in scans:
                    scans[parent] += 1
                    break
                parent = spans[parent][3]

    totals: Dict[str, float] = defaultdict(float)
    for (_, name), value in tracer.counts.items():
        totals[name] += value

    values: Dict[str, float] = {}
    for metric, _, _, workloads, _ in LAYER_METRICS:
        if workload not in workloads or metric == "trace_overhead":
            continue
        if metric.endswith(".self_s"):
            values[metric] = self_sum[metric[:-len(".self_s")]] / n_jobs
        elif metric.endswith(".calls"):
            values[metric] = calls[metric[:-len(".calls")]] / n_jobs
        elif metric == "specseq.page_reuse_ratio":
            values[metric] = sum(len(tracer.pages[j]) / max(1, page_calls[j])
                                 for j in jobs) / n_jobs
        elif metric == "graphlag.gradient_passes":
            values[metric] = sum(scans.values()) / max(1, len(scans))
        elif metric == "morse.hessian_per_node":
            values[metric] = calls["fields.hessian_at"] / max(1.0, totals["morse.sampled_nodes"])
        else:
            values[metric] = totals[metric] / n_jobs
    worst_share = max((layer_self_by_job[j] / job_wall[j] for j in jobs if job_wall.get(j)),
                      default=0.0)
    return values, worst_share
