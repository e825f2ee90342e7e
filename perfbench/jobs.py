"""How one job of each workload calls into the library.

``prepare`` runs before a round's timed loop (it writes the CLI inputs);
``run`` is the timed call.  Every call goes through a module attribute
(``cubical.build_complex``, ``cli.main``, ...) so that the traced run's
wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from typing import List

from qmdkit import cli, cubical, graphlag, morse
from qmdkit.morse import SubmanifoldChart, Tolerances

TOLS = Tolerances(grad_tol=1e-6)


def _write(directory: str, name: str, data: dict) -> str:
    path = os.path.join(directory, name)
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


def prepare(workload: str, jobs: List, directory: str) -> None:
    for i, job in enumerate(jobs):
        if workload == "descriptors":
            path = _write(directory, f"descriptor-{i}.json", job.payload["descriptor"])
            argv = ["specseq", "--descriptor", path, "--pages", "all"]
            if job.payload["cutoff"] is not None:
                argv += ["--cutoff", repr(job.payload["cutoff"])]
            job.payload["argv"] = argv
        elif workload == "paths":
            job.payload["argv"] = ["maslov",
                                   "--path-a", _write(directory, f"path-{i}-a.json", job.payload["a"]),
                                   "--path-b", _write(directory, f"path-{i}-b.json", job.payload["b"])]


def run_cli(job):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(job.payload["argv"])
    return code, buf.getvalue()


def run_mask(job):
    cx = cubical.build_complex(job.payload)
    betti = cubical.betti(cx)
    return betti, [cx.n_cells(k) for k in range(len(cx.cells_by_dim))]


def run_field(job):
    f, node = job.payload["field"], job.payload["node"]
    crit = morse.detect_critical_set(f, TOLS.grad_tol)
    comp = next(i for i, c in enumerate(crit.components) if c.cells[node])
    chart = SubmanifoldChart(axes=tuple(range(f.ndim)), base=node)
    tau = morse.construct_tau(f, crit, chart, TOLS, component=comp)
    report = morse.classify(f, crit, chart=chart, tau=tau, tols=TOLS, component=comp)
    scan = graphlag.isolation_scan(f, tau, crit, chart, steps=64, component=comp)
    flat = morse.flatten(f, job.payload["delta"], crit, TOLS, component=comp)
    thick = morse.verify_thickening(f, crit, flat.sigma, TOLS, component=comp)
    return report, scan, flat, thick, f


RUNNERS = {"masks": run_mask, "descriptors": run_cli, "fields": run_field,
           "paths": run_cli}
