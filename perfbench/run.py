"""qmdkit benchmark: four seeded closed-loop workloads and a traced run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload masks --seed 1 --seconds 20 --trace 0

Workloads (one process, one client, each job waits for the previous one):

- ``masks``: ``cubical.build_complex`` + ``cubical.betti`` on grid masks.
- ``descriptors``: ``qmdkit specseq --pages all`` on QMD descriptors.
- ``fields``: detect, construct tau, classify, isolation scan, flatten and
  verify the thickening, on fields with known critical sets.
- ``paths``: ``qmdkit maslov`` on pairs of Lagrangian line paths.

Inputs come from ``--seed`` (see ``gen.py``); every output is checked
(see ``check.py``), outside the timed span.  The run repeats rounds of
the workload's job ladder until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics of the chosen workload:

- ``setup_s``: fresh interpreter to all layers imported, the median of
  nine probes spread over the run;
- ``jobs_per_s``, ``job_p50_s``, ``job_tail_s``: from each rung's latency,
  the fastest of its runs (see ``rung_latencies``): jobs per second over
  one round, the median rung and the costliest rung;
- ``peak_rss_mib``: peak resident memory of this process;
- ``failed_frac``: failed over attempted jobs (printed; the JSON result
  carries the two counts as ``failed`` and ``attempted``).

``--trace 1`` runs every workload twice on the same rounds, untraced and
traced, and prints the per-layer metrics of all four (``tracing.py``).
The last line of stdout is one JSON object with the results.  Exit code 2
means the benchmark could not start (no ``src/qmdkit`` next to it).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROBE = os.path.join(HERE, "probe.py")
# one worker thread: the loop has one client, and BLAS must not fan out
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
SETUP_SAMPLES = 9
TAIL_BEYOND = 10


def setup_sample() -> float:
    """Time from starting a fresh interpreter to all layers imported."""
    t0 = time.monotonic()
    done = subprocess.run([sys.executable, PROBE], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.split()[-1]) - t0


def tail(values):
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples above it; the maximum when there are too few."""
    ordered = sorted(values)
    i = len(ordered) - TAIL_BEYOND - 1 if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def rung_latencies(samples):
    """Each rung's latency: the fastest of its runs over the rounds.

    Other tenants of a shared host slow it down in spells of seconds (a
    fixed Python loop measured 42 to 76 ms within one minute), so a single
    job's time says more about the host than about the program.  Every
    round runs each rung once (the rung that sets job_tail_s twice on
    masks and fields) on fresh inputs of the same cost, and the fastest of
    a rung's runs is the estimate that repeats run to run; it settles only
    after some twenty runs, which is why the ladders in ``gen.py`` keep
    their jobs short.
    """
    best = {}
    for name, elapsed in samples:
        best[name] = min(elapsed, best.get(name, elapsed))
    return best


def jobs_per_s(best):
    """Jobs per second over one round, each rung at its best latency."""
    return len(best) / sum(best.values())


def run_workload(workload, seed, seconds, tracer=None, rounds=None, after_round=None):
    """Run whole rounds until `seconds` have passed (or exactly `rounds`);
    `after_round` is called between rounds, outside the timed jobs."""
    from check import CHECKS
    from gen import ROUNDS
    from jobs import RUNNERS, prepare
    from tracing import JOB_SPAN

    run, check = RUNNERS[workload], CHECKS[workload]
    latencies, failures = [], []
    attempted = done_rounds = 0
    start = perf_counter()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        while True:
            jobs = ROUNDS[workload](seed, done_rounds)
            prepare(workload, jobs, tmp)
            outputs = {}
            for i, job in enumerate(jobs):
                if tracer is not None:
                    tracer.job = attempted
                    span = tracer.open(JOB_SPAN)
                attempted += 1
                error = None
                t0 = perf_counter()
                try:
                    out = run(job)
                except Exception as exc:  # a failed job is counted, the run goes on
                    error = f"{type(exc).__name__}: {exc}"
                elapsed = perf_counter() - t0
                if tracer is not None:
                    tracer.close(span)
                    if workload in ("descriptors", "paths") and error is None:
                        tracer.count("cli.stdout_bytes", len(out[1].encode()))
                if error is None:
                    outputs[i] = out
                    try:
                        error = check(job, out, outputs)
                    except Exception as exc:
                        error = f"checker raised {type(exc).__name__}: {exc}"
                if error is None:
                    latencies.append((job.name, elapsed))
                else:
                    failures.append(f"{job.name} (round {done_rounds}): {error}")
            done_rounds += 1
            if after_round is not None:
                after_round()
            if rounds is not None:
                if done_rounds >= rounds:
                    break
            elif perf_counter() - start >= seconds:
                break
    return {"latencies": latencies, "attempted": attempted,
            "failures": failures, "rounds": done_rounds}


def end_to_end(workload, seed, seconds):
    setup = [setup_sample()]

    def probe_between_rounds():  # spreads the set-up samples over the run
        if len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample())

    res = run_workload(workload, seed, seconds, after_round=probe_between_rounds)
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample())
    best = rung_latencies(res["latencies"]) or {"none": float("nan")}
    raw_tail, raw_pct = tail([t for _, t in res["latencies"]] or [float("nan")])
    rung = f"{len(best)} rungs, each the fastest of its runs over {res['rounds']} rounds"
    failed, attempted = len(res["failures"]), res["attempted"]
    metrics = {
        "setup_s": (statistics.median(setup), "s",
                    f"median of {SETUP_SAMPLES} fresh interpreters, spread over the run"),
        "jobs_per_s": (jobs_per_s(best), "jobs/s", f"one round of {rung}"),
        "job_p50_s": (statistics.median(best.values()), "s", f"p50 of {rung}"),
        "job_tail_s": (max(best.values()), "s",
                       f"p100 of {rung}; raw p{raw_pct:.1f} of {len(res['latencies'])} "
                       f"jobs: {raw_tail:.4g} s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB",
                         "workload process"),
        "failed_frac": (failed / attempted, "ratio", f"{failed} failed / {attempted} attempted"),
    }
    print(f"workload {workload}  seed {seed}  rounds {res['rounds']}  closed loop, 1 client")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<14} {value:>12.6g} {unit:<7} ({note})")
    for line in res["failures"]:
        print(f"  FAILED {line}")
    reported = {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()
                if k != "failed_frac"}  # failures are the result's own fields
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": reported}


def traced(seed, seconds):
    from gen import WORKLOADS
    from tracing import LAYER_METRICS, CONSTANT_METRICS, Tracer, layer_metrics

    units = {metric: unit for metric, unit, *_ in LAYER_METRICS}
    metrics, attempted, failed, spans = {}, 0, 0, []
    for workload in WORKLOADS:
        plain = run_workload(workload, seed, seconds / len(WORKLOADS) / 2)
        with Tracer() as tracer:
            res = run_workload(workload, seed, 0, tracer=tracer, rounds=plain["rounds"])
        values, worst_share = layer_metrics(tracer, workload)
        overhead = (jobs_per_s(rung_latencies(plain["latencies"]))
                    / jobs_per_s(rung_latencies(res["latencies"])))
        values["trace_overhead"] = overhead
        attempted += plain["attempted"] + res["attempted"]
        failed += len(plain["failures"]) + len(res["failures"])
        print(f"workload {workload}  seed {seed}  rounds {res['rounds']}  "
              f"traced {len(res['latencies'])} jobs, {len(tracer.spans)} spans; "
              f"tracing overhead x{overhead:.3f} (untraced over traced jobs_per_s); "
              f"layer self time <= {worst_share:.3f} of each job's wall time")
        for metric, value in values.items():
            unit = units[metric]
            note = "  (not in the per-layer list: 0 on every input)" \
                if metric in CONSTANT_METRICS else ""
            print(f"  {workload}.{metric:<34} {value:>14.6g} {unit}{note}")
            if metric not in CONSTANT_METRICS:
                metrics[f"{workload}.{metric}"] = {"value": value, "unit": unit}
        for line in plain["failures"] + res["failures"]:
            print(f"  FAILED {line}")
        if worst_share > 1.0 + 1e-9:
            failed += 1
            print(f"  FAILED self times exceed a job's wall time ({worst_share:.4f})")
        spans += [[workload] + s for s in tracer.spans]
    out_dir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "spans.json"), "w") as fh:
        json.dump({"fields": ["workload", "name", "start", "end", "parent", "job"],
                   "spans": spans}, fh)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("masks", "descriptors", "fields", "paths"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qmdkit", "__init__.py")):
        sys.stderr.write(f"error: no qmdkit sources under {ROOT}/src\n")
        return 2
    os.environ.update(THREAD_ENV)
    from probe import import_layers
    import_layers()
    result = traced(args.seed, args.seconds) if args.trace else \
        end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
