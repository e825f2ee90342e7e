"""Tests of the benchmark itself: generators, checkers and span arithmetic.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import copy
import json
import os

import numpy as np
import pytest

from probe import import_layers

import_layers()

import check  # noqa: E402
import gen  # noqa: E402
import jobs  # noqa: E402
from tracing import JOB_SPAN, Tracer, layer_metrics, per_layer_names, self_times  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _fingerprint(job):
    p = job.payload
    if isinstance(p, dict) and "field" in p:
        return (job.name, p["field"].values.tobytes(), p["node"], p["delta"])
    if hasattr(p, "cells"):
        return (job.name, p.cells.tobytes(), p.periodic)
    return (job.name, json.dumps(p, sort_keys=True), repr(job.expect))


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(workload):
    make = gen.ROUNDS[workload]
    first = [_fingerprint(j) for j in make(7, 1)]
    assert first == [_fingerprint(j) for j in make(7, 1)]
    assert first != [_fingerprint(j) for j in make(8, 1)]
    assert first != [_fingerprint(j) for j in make(7, 2)]


def _run(workload, job, directory):
    jobs.prepare(workload, [job], directory)
    return jobs.RUNNERS[workload](job)


def test_mask_checker_rejects_wrong_betti():
    job = next(j for j in gen.masks_round(3, 0) if j.name == "torus2d-24")
    betti, n_cells = jobs.run_mask(job)
    assert check.check_mask(job, (betti, n_cells), {}) is None
    # same Euler characteristic and b0, but not the torus
    assert check.check_mask(job, ((1, 1, 0), n_cells), {}) is not None
    # Euler characteristic broken
    assert check.check_mask(job, ((1, 2, 2), n_cells), {}) is not None
    blob = gen.masks_round(3, 0)[0]
    betti, n_cells = jobs.run_mask(blob)
    assert check.check_mask(blob, (betti, n_cells), {}) is None
    # b0 and b1 both off by one keep the Euler characteristic; flood fill catches it
    wrong = (betti[0] + 1, betti[1] + 1) + tuple(betti[2:])
    assert check.check_mask(blob, (wrong, n_cells), {}) is not None


def test_flood_fill_joins_across_periodic_seam_and_corners():
    cells = np.zeros((6, 6), dtype=bool)
    cells[0, 2] = cells[5, 2] = True          # touch only across the seam of axis 0
    cells[2, 2] = cells[3, 3] = True          # touch only at a vertex
    assert check.flood_fill_components(cells, (True, False)) == 2
    assert check.flood_fill_components(cells, (False, False)) == 3


def test_descriptor_checker_rejects_flipped_homology(tmp_path):
    job = gen.descriptors_round(3, 0)[0]
    code, text = _run("descriptors", job, str(tmp_path))
    assert check.check_descriptor(job, (code, text), {}) is None
    out = json.loads(text)
    n = next(iter(out["total_homology"]))
    bad = copy.deepcopy(out)
    bad["total_homology"][n] += 1
    assert check.check_descriptor(job, (code, json.dumps(bad)), {}) is not None
    bad = copy.deepcopy(out)
    bad["pages"][0]["entries"][0]["dim"] += 1
    assert check.check_descriptor(job, (code, json.dumps(bad)), {}) is not None
    assert check.check_descriptor(job, (1, text), {}) is not None


def test_descriptor_generator_pages_match_library():
    """The persistence pairing predicts every page the library computes."""
    from qmdkit.specseq import QMDDescriptor, build_from_qmd, page, truncate_by_action
    for job in gen.descriptors_round(5, 0)[:4]:
        desc = QMDDescriptor.from_json(job.payload["descriptor"])
        if job.payload["cutoff"] is not None:
            desc = truncate_by_action(desc, job.payload["cutoff"])
        fc = build_from_qmd(desc)
        for k, want in enumerate(job.expect["pages"], start=1):
            assert page(fc, k).dims() == want


def test_field_checker_rejects_wrong_class():
    job = next(j for j in gen.fields_round(3, 0) if j.name == "bowl2-33")
    out = jobs.run_field(job)
    assert check.check_field(job, out, {}) is None
    report = copy.copy(out[0])
    report.classification = "morse_bott"
    assert check.check_field(job, (report,) + out[1:], {}) is not None
    wrong = copy.copy(job)
    wrong.expect = dict(job.expect, betti=(1, 1, 0))
    assert check.check_field(wrong, out, {}) is not None


def test_path_checker_rejects_off_by_one(tmp_path):
    round_jobs = gen.paths_round(3, 0)
    ab, ba = round_jobs[0], round_jobs[1]
    outputs = {0: _run("paths", ab, str(tmp_path))}
    assert check.check_path(ab, outputs[0], outputs) is None
    out_ba = _run("paths", ba, str(tmp_path))
    assert check.check_path(ba, out_ba, outputs) is None
    off = (0, f"{ab.expect['index'] + 1}\n")
    assert check.check_path(ab, off, {}) is not None
    # a mirror that disagrees with its partner is rejected even if it matches
    assert check.check_path(ba, out_ba, {0: off}) is not None
    known = next(j for j in round_jobs if j.name.startswith("halfturns"))
    assert check.check_path(known, (0, f"{known.expect['index'] - 1}\n"), {}) is not None


def test_self_times_on_nested_tree():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],      # overlaps a: the root loses their union
        ["a.child", 2.0, 3.0, 1, 0],
        ["root2", 20.0, 21.0, -1, 1],
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0, 1.0])


def test_layer_metrics_on_synthetic_trace():
    tr = Tracer()
    tr.spans = [
        [JOB_SPAN, 0.0, 4.0, -1, 0],
        ["gf2.rank", 1.0, 3.0, 0, 0],
        ["gf2.from_dense", 1.5, 2.0, 1, 0],
        [JOB_SPAN, 5.0, 7.0, -1, 1],
        ["gf2.rank", 5.0, 6.0, 3, 1],
    ]
    tr.counts[(0, "cubical.cells")] = 10
    tr.counts[(1, "cubical.cells")] = 30
    values, worst = layer_metrics(tr, "masks")
    assert values["gf2.rank.calls"] == 1.0
    assert values["gf2.rank.self_s"] == pytest.approx((1.5 + 1.0) / 2)
    assert values["gf2.from_dense.self_s"] == pytest.approx(0.25)
    assert values["cubical.cells"] == 20
    assert worst == pytest.approx(0.5)


def test_tracer_restores_patched_functions():
    from qmdkit import cubical, gf2
    before = (cubical.build_complex, gf2.GF2Matrix.__dict__["from_dense"],
              gf2.Subspace.__init__)
    with Tracer() as tr:
        assert cubical.build_complex is not before[0]
        tr.job = 0
        mask = gen.masks_round(1, 0)[0].payload
        cubical.betti(cubical.build_complex(mask))
    assert (cubical.build_complex, gf2.GF2Matrix.__dict__["from_dense"],
            gf2.Subspace.__init__) == before
    names = {s[0] for s in tr.spans}
    assert {"cubical.build_complex", "cubical.betti", "gf2.rank", "gf2.from_dense"} <= names


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_names()
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "jobs_per_s", "job_p50_s", "job_tail_s", "peak_rss_mib"]
