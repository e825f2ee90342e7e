"""Per-job output checks, run outside the timed spans.

Each checker returns None when the output is right and a one-line reason
otherwise.  The oracles here are independent of the library under test:
a flood fill for b0, the Euler characteristic from cell counts, pages
known from the generator's persistence pairing, and the continuity
formula for the Maslov index.
"""

from __future__ import annotations

import itertools
import json
from typing import Dict, List, Optional, Sequence

import numpy as np


def _shift(labels: np.ndarray, offset: Sequence[int], periodic: Sequence[bool],
           outside: int) -> np.ndarray:
    """labels[i - offset] at every i; `outside` where that leaves an open axis."""
    out = labels
    for axis, (d, wrap) in enumerate(zip(offset, periodic)):
        if d == 0:
            continue
        out = np.roll(out, d, axis=axis)
        if not wrap:
            edge = [slice(None)] * labels.ndim
            edge[axis] = 0 if d > 0 else -1
            out[tuple(edge)] = outside
    return out


def flood_fill_components(cells: np.ndarray, periodic: Sequence[bool]) -> int:
    """Components of the closure of the top cells: cells touching at any face
    (a vertex is enough) are connected, across periodic seams too.

    Label propagation: every cell starts with its own flat index, takes the
    least label among its neighbours and jumps to its label's label until
    nothing changes; a component is a cell that kept its own index.
    """
    offsets = [o for o in itertools.product((-1, 0, 1), repeat=cells.ndim) if any(o)]
    outside = cells.size
    own = np.arange(cells.size).reshape(cells.shape)
    labels = np.where(cells, own, outside)
    while True:
        new = labels
        for off in offsets:
            new = np.minimum(new, _shift(labels, off, periodic, outside))
        new = np.where(cells, new, outside)
        flat = np.append(new.ravel(), outside)
        new = np.minimum(new, flat[new])
        if np.array_equal(new, labels):
            return int(np.count_nonzero(cells & (labels == own)))
        labels = new


def check_mask(job, output, _round_outputs) -> Optional[str]:
    betti, n_cells = output
    euler = sum((-1) ** k * n for k, n in enumerate(n_cells))
    if euler != sum((-1) ** k * b for k, b in enumerate(betti)):
        return f"Euler characteristic {euler} != alternating Betti sum of {betti}"
    b0 = flood_fill_components(job.payload.cells, job.payload.periodic)
    if betti[0] != b0:
        return f"b0 {betti[0]} != {b0} components by flood fill"
    if "betti" in job.expect and tuple(betti) != tuple(job.expect["betti"]):
        return f"Betti {tuple(betti)} != known {tuple(job.expect['betti'])}"
    return None


def _stable_page(pages: List[Dict]) -> int:
    return next(k for k, dims in enumerate(pages, start=1) if dims == pages[-1])


def check_descriptor(job, output, _round_outputs) -> Optional[str]:
    code, text = output
    if code != 0:
        return f"exit code {code}"
    out = json.loads(text)
    if out.get("graded_sum_matches_homology") is not True:
        return "graded_sum_matches_homology is not true"
    homology = {int(n): d for n, d in out["total_homology"].items()}
    if homology != job.expect["homology"]:
        return f"total_homology {homology} != known {job.expect['homology']}"
    pages = [{(e["p"], e["q"]): e["dim"] for e in pg["entries"]} for pg in out["pages"]]
    expect_pages = job.expect["pages"]
    if [pg["page"] for pg in out["pages"]] != list(range(1, len(expect_pages) + 1)):
        return "pages are not 1..r+1"
    for k, (got, want) in enumerate(zip(pages, expect_pages), start=1):
        if got != want:
            return f"page {k} dims {sorted(got.items())} != known {sorted(want.items())}"
    einf = {(e["p"], e["q"]): e["dim"] for e in out["einf"]["entries"]}
    if einf != expect_pages[-1]:
        return "einf differs from the last page"
    if out["stable_page"] != _stable_page(expect_pages):
        return f"stable_page {out['stable_page']} != {_stable_page(expect_pages)}"
    return None


def check_field(job, output, _round_outputs) -> Optional[str]:
    report, scan, flat, thick, field = output
    if report.classification != job.expect["classification"]:
        return f"classified {report.classification}, expected {job.expect['classification']}"
    if not report.details.get("qmd"):
        return "constructed tau does not pass the qmd check"
    if not scan.passed:
        return f"isolation scan failed (first violation t={scan.first_violation})"
    if not thick.passed:
        return f"thickening not verified: {thick.to_json()}"
    if tuple(thick.betti_c) != tuple(job.expect["betti"]):
        return f"Betti of C {thick.betti_c} != known {job.expect['betti']}"
    zero = flat.f_check.values == 0.0
    if not np.array_equal(zero, field.values <= flat.delta_used / 2.0):
        return "flattened zero set differs from {f <= delta_used / 2}"
    return None


def check_path(job, output, round_outputs) -> Optional[str]:
    code, text = output
    if code != 0:
        return f"exit code {code}"
    got = text.strip()
    if got != str(job.expect["index"]):
        return f"index {got} != known {job.expect['index']}"
    mirror = job.expect.get("mirror_of")
    if mirror is not None:
        other = round_outputs.get(mirror)
        if other is None or other[1].strip() != str(-int(got)):
            return "maslov(a, b) != -maslov(b, a)"
    return None


CHECKS = {"masks": check_mask, "descriptors": check_descriptor,
          "fields": check_field, "paths": check_path}
