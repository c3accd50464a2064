"""randlab benchmark: time to an exact verdict on three CLI workloads.

Run from the root of a randlab checkout:

    python3 bench/run.py --workload audit-tree --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for the job lists):
  audit-tree     23 exhaustive audits: additivity at depth 14, battery at 12
  convert-chain  17 conversion-chain, transfer and refine jobs at depth 9-12
  long-path      86 jobs: 4000-step bets, Monte-Carlo Ville, naming, deficiency

Each workload run happens in a fresh worker process that drives
`randlab.cli.main(argv)` in-process, one job after another, cycling through
the job list until --seconds have passed, and then runs the known-failure
probe once, untimed, in a process of its own.  Each job's time is the median
of its samples in the run, which lie a whole pass apart.  The set-up (import
randlab, write the seeded inputs) is timed in separate fresh processes, half
of them before the worker and half after it.

Every time is scaled by a host-speed gauge (gauge.py) to seconds on a host
where the gauge loop takes 8 ms; the unscaled figures are printed beside them.

--trace 0 prints the end-to-end metrics: setup_s (median set-up), wall_s
(sum of the job times: one pass over the job list), verdict_p50_s (median
job time; with fewer than 20 jobs this is also the highest percentile with
ten samples beyond it), work_per_s ((N checked) counts plus bet and
Monte-Carlo steps of one pass per second of wall_s) and peak_rss_mb (the
worker's ru_maxrss).
--trace 1 prints the per-layer metrics of one traced pass: self time and
counts per layer, the tracing overhead and the tracemalloc peak.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Every job's exit code and report are checked against
bench/reference.json or an independent recomputation; a mismatch is a failed
job.  The exit code is 0 whenever a result was printed.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import gauge  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 10
DEADLINE_S = 175

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_p50_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name == "trace.overhead_ratio":
        return "ratio"
    if name == "betting.max_bits":
        return "bits"
    return "count"


def _worker_env():
    """Fixed string hashing, and byte-compiled modules wherever the caller's
    environment would otherwise recompile them on every import."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def worker(args, timeout):
    """Run bench/worker.py with args; its last stdout line is JSON.  The worker
    and the probe it starts get a session of their own, killed whole on timeout."""
    with subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "worker.py")] + args,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_worker_env(),
        start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(setup_samples, result):
    timed = result["timed"]
    wall = timed["wall_s"]
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": wall,
        "verdict_p50_s": statistics.median(timed["job_s"]),
        "work_per_s": (timed["checked"] + timed["steps"]) / wall,
        "peak_rss_mb": result["rss_mb"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="randlab benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.JOB_LISTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "randlab", "__init__.py")):
        sys.stderr.write("bench: no src/randlab here; run from the root of a randlab checkout\n")
        return 2
    started = time.monotonic()
    common = ["--workload", opts.workload, "--seed", str(opts.seed)]

    def sample_setups(n):
        return [worker(common + ["--seconds", "0", "--setup-only"], 60) for _ in range(n)]

    setups = []
    if not opts.trace:
        sample_setups(1)  # warm-up: byte-compiles src
        setups += sample_setups(SETUP_SAMPLES // 2)
    result = worker(
        common + ["--seconds", str(opts.seconds), "--trace", str(opts.trace)],
        DEADLINE_S - (time.monotonic() - started),
    )
    if not opts.trace:
        setups += sample_setups(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    setups.append(result)
    setup_samples = [s["setup_s"] for s in setups]
    probe_exit, probe_tail = result["probe"]

    inputs = workloads.Inputs(opts.seed)
    counts = " ".join(f"{w}={len(make(inputs))}" for w, make in sorted(workloads.JOB_LISTS.items()))
    print(
        f"env: python={platform.python_version()} rat={result['rat']} nproc={os.cpu_count()} "
        f"seed={opts.seed} jobs: {counts}"
    )
    attempted, failed = result["attempted"], len(result["failures"])
    print(
        f"workload {opts.workload}: jobs={result['jobs']} "
        f"attempted={attempted} failed={failed} fail_ratio={failed / attempted:.4f}"
    )
    for failure in result["failures"]:
        print(f"FAILED {failure['job']}: {failure['problem']} {failure['stderr'].strip()}")
    if opts.trace:
        metrics = {k: (v, layer_unit(k)) for k, v in sorted(result["layers"].items())}
        for name, calls in sorted(result["calls"].items()):
            print(f"calls {name}: {calls}")
    else:
        e2e = end_to_end(setup_samples, result)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in e2e.items()}
        timed = result["timed"]
        print(
            f"checked_per_s={timed['checked'] / e2e['wall_s']:.1f} "
            f"steps_per_s={timed['steps'] / e2e['wall_s']:.1f} "
            f"setup_samples={len(setup_samples)} job_samples={timed['attempted']}"
        )
        print(
            f"unscaled: wall_s={timed['raw_wall_s']:.6g} "
            f"setup_s={statistics.median(s['raw_setup_s'] for s in setups):.6g} "
            f"gauge_ms={timed['gauge_s'] * 1e3:.4g} (reference {gauge.GAUGE_REF_S * 1e3:g})"
        )
    for name, (value, unit) in metrics.items():
        print(f"metric {name}: {value:.6g} {unit}")
    verdict = "passes" if probe_exit == workloads.PROBE_EXPECTED_EXIT else "KNOWN FAILURE"
    print(
        f"probe {workloads.PROBE_NAME}: {verdict}: exit {probe_exit}, "
        f"expected {workloads.PROBE_EXPECTED_EXIT} ({probe_tail})"
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
