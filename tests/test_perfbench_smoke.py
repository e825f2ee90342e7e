"""One round of each benchmark workload, every job checked by the
benchmark's own checker.

The jobs come from perfbench/gen.py, run through perfbench/jobs.py and
are judged by perfbench/check.py, in the order the benchmark runs them,
so a library change that breaks a workload's output fails here and not
only in a benchmark run.  The CLI inputs are written under the test's
temporary directory."""

import importlib
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
SEED = int(os.environ.get("QMD_SEED", "0"))


@pytest.mark.parametrize("workload", ["masks", "descriptors", "fields", "paths"])
def test_one_round_passes_the_benchmark_checks(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    gen, jobs, check = (importlib.import_module(m) for m in ("gen", "jobs", "check"))
    round_jobs = gen.ROUNDS[workload](SEED, 0)
    jobs.prepare(workload, round_jobs, str(tmp_path))
    outputs = {}
    for i, job in enumerate(round_jobs):
        outputs[i] = jobs.RUNNERS[workload](job)
        assert check.CHECKS[workload](job, outputs[i], outputs) is None, job.name
