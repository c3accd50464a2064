"""Record bench/reference.json: exit code and report fingerprint of every job
that the benchmark checks against a reference rather than a recomputation.

Run from the root of a checkout whose program is the one to record, e.g.
before a change that must keep every report byte-identical:

    python3 bench/record_reference.py

Seeds 0..VARIANTS-1 cover every recorded variant of the seeded inputs.
"""

import contextlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from worker import setup  # noqa: E402


def main() -> int:
    jobs = {}
    for seed in range(workloads.VARIANTS):
        randlab, inputs, _ = setup(seed)
        for workload, make_jobs in sorted(workloads.JOB_LISTS.items()):
            for job in make_jobs(inputs):
                if job.expect is not None:
                    continue
                key = workloads.reference_key(job)
                # jobs that write a doc a later job reads always run
                if key in jobs and "--out-test" not in job.argv:
                    continue
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = randlab.cli.main(list(job.argv))
                jobs[key] = dict(workloads.fingerprint(code, workloads.report_lines(out.getvalue())), job=job.id)
                print(f"seed {seed} {workload} {job.id}: exit {code}", file=sys.stderr)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w") as fh:
        json.dump({"jobs": dict(sorted(jobs.items()))}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
