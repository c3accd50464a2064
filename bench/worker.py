"""One workload run in a fresh process, started by run.py.

It imports randlab from ./src, writes the seeded inputs, runs the workload's
job list through `randlab.cli.main` over and over, one job after another,
until --seconds have passed (and at least once), checks every job's output,
and prints one JSON object as its last stdout line.  Each job's time is the
median of its samples, which lie a whole pass apart, each scaled by the
host-speed gauge read around it (gauge.py); the set-up time is scaled by
gauge readings taken right after it.
With --trace 1 it runs one untraced pass, one traced pass and one pass under
tracemalloc instead.  With --setup-only it only times the set-up.

After the timed jobs it runs the known-failure probe, untimed, in a process
of its own.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gauge  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

_CHECKED = re.compile(r"\((\d+) checked\)")


def setup(seed: int):
    """Import randlab and write the inputs; the set-up that setup_s times."""
    start = time.perf_counter()
    sys.path.insert(0, os.path.abspath("src"))
    import randlab
    import randlab.cli  # noqa: F401

    inputs = workloads.Inputs(seed)
    inputs.write(randlab)
    return randlab, inputs, time.perf_counter() - start


def check(job, code, text, reference):
    """Why the job's outcome is wrong, or None."""
    lines = workloads.report_lines(text)
    if job.expect is not None:
        if code != 0:
            return f"exit {code}, expected 0"
        if lines != job.expect:
            return "report differs from the independent recomputation"
        return None
    want = reference.get(workloads.reference_key(job))
    if want is None:
        return "no recorded reference for these inputs"
    got = workloads.fingerprint(code, lines)
    if got["exit"] != want["exit"]:
        return f"exit {code}, expected {want['exit']}"
    if any(got[k] != want[k] for k in got):
        return "report differs from the recorded reference"
    return None


def probe():
    """The known-failure probe: (exit code or None on timeout, last stderr line)."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "randlab"] + workloads.PROBE_ARGV,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
            env=dict(os.environ, PYTHONPATH="src"),
        )
    except subprocess.TimeoutExpired:
        return None, "timed out after 60 s"
    tail = proc.stderr.strip().splitlines()
    return proc.returncode, (tail[-1] if tail else "")


def run_job(randlab, job, reference, tracer=None):
    """Run one job; only the cli.main call is timed.
    Returns (seconds, failure or None, (N checked) count, CSV bytes)."""
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.job = job.id
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = randlab.cli.main(list(job.argv))
        problem = None
    except Exception as exc:  # a job that raises is a failed job; the run goes on
        code, problem = None, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    text = out.getvalue()
    problem = problem or check(job, code, text, reference)
    failure = problem and {"job": job.id, "problem": problem, "stderr": err.getvalue()[-300:]}
    csv_bytes = 0
    if job.csv and os.path.exists(job.csv):
        csv_bytes = os.path.getsize(job.csv)
        os.remove(job.csv)
    return elapsed, failure, sum(int(n) for n in _CHECKED.findall(text)), csv_bytes


def run_jobs(randlab, jobs, reference, seconds=0.0, tracer=None):
    """Cycle through the job list until `seconds` have passed and every job
    has run.  The host-speed gauge (gauge.py) is read before every job and
    after the last; each sample is scaled by the median of the two readings
    on either side of it, and each job's time is the median of its samples."""
    readings, records, failures = [], [], []
    checked = [0] * len(jobs)
    csv_bytes = 0
    start = time.monotonic()
    k = 0
    while k < len(jobs) or time.monotonic() - start < seconds:
        i = k % len(jobs)
        readings.append(gauge.gauge_s())
        elapsed, failure, checked[i], size = run_job(randlab, jobs[i], reference, tracer)
        records.append((i, elapsed))
        failures += [failure] if failure else []
        csv_bytes += size
        k += 1
    readings.append(gauge.gauge_s())
    scaled, raw = [[] for _ in jobs], [[] for _ in jobs]
    for k, (i, elapsed) in enumerate(records):
        # readings[k] is taken just before sample k, readings[k + 1] just after
        scaled[i].append(elapsed * gauge.scale(readings[max(k - 1, 0) : k + 3]))
        raw[i].append(elapsed)
    job_s = [statistics.median(s) for s in scaled]
    return {
        "job_s": job_s,
        "wall_s": sum(job_s),
        "raw_wall_s": sum(statistics.median(s) for s in raw),
        "gauge_s": statistics.median(readings),
        "checked": sum(checked),
        "steps": sum(job.steps for job in jobs),
        "csv_bytes": csv_bytes,
        "attempted": k,
        "failures": failures,
    }


def traced_layers(randlab, inputs, jobs, reference, untraced, workload):
    """Traced pass (set-up writes included) and tracemalloc pass."""
    tracer = tracing.Tracer()
    tracer.install(randlab)
    try:
        tracer.job = "setup"
        inputs.write(randlab)
        traced = run_jobs(randlab, jobs, reference, tracer=tracer)
    finally:
        tracer.remove()
    tracemalloc.start()
    try:
        malloc = run_jobs(randlab, jobs, reference)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tracer.write(f"{workloads.WORKDIR}/spans-{workload}-{inputs.seed}.jsonl")
    selfs = tracer.self_times()
    layers = {f"{name}_s": selfs.get(name, (0.0, 0))[0] for name in tracing.SPAN_NAMES}
    layers.update({name: tracer.counts.get(name, 0) for name in tracing.COUNT_NAMES})
    layers["cli.csv_mb"] = traced["csv_bytes"] / 1e6
    layers["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
    layers["trace.py_peak_mb"] = peak / 1e6
    calls = {name: n for name, (_, n) in selfs.items()}
    return layers, calls, [traced, malloc]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.JOB_LISTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    opts = ap.parse_args()

    randlab, inputs, raw_setup_s = setup(opts.seed)
    setup_s = raw_setup_s * gauge.scale([gauge.gauge_s() for _ in range(5)])
    if opts.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0
    reference = workloads.load_reference(os.path.join(os.path.dirname(__file__), "reference.json"))
    jobs = workloads.JOB_LISTS[opts.workload](inputs)

    result = {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "rat": randlab.rationals.RAT.__name__,
        "jobs": len(jobs),
    }
    if opts.trace:
        untraced = run_jobs(randlab, jobs, reference)
        result["layers"], result["calls"], traced = traced_layers(
            randlab, inputs, jobs, reference, untraced, opts.workload
        )
        runs = [untraced] + traced
    else:
        timed = run_jobs(randlab, jobs, reference, opts.seconds)
        result["timed"] = {k: v for k, v in timed.items() if k != "failures"}
        runs = [timed]
    result["probe"] = probe()
    result["attempted"] = sum(r["attempted"] for r in runs)
    result["failures"] = [f for r in runs for f in r["failures"]]
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
