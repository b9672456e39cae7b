"""Regenerate ``reference.json``: the output of every job any workload seed can produce.

Run from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/make_reference.py

Every job stores its verdict and its wall time in seconds on the machine
that made the file; ``jobs.jobs_for`` uses the times only to rank a
template's inputs by cost.  Exact-mode jobs also store the SHA-256 of their
report bytes.  Float verdicts that differ from the known answer are listed
on stderr: they are the tolerance defects the benchmark counts in
``failed_share`` without failing the gate.
"""

from __future__ import annotations

import json
import sys
import time

import jobs
from run import import_program


def main() -> int:
    heavenly = import_program()
    for workload in jobs.TEMPLATES:  # untimed, so the first timings are warm
        jobs.run_job(heavenly.cli.main, jobs.pool_jobs(workload)[0])
    reference = {}
    for workload in jobs.TEMPLATES:
        for job in jobs.pool_jobs(workload):
            start = time.perf_counter()
            outcome = jobs.run_job(heavenly.cli.main, job)
            seconds = round(time.perf_counter() - start, 4)
            if outcome.code not in (0, 1):
                print(f"{job.key}: {outcome.error or outcome.code}", file=sys.stderr)
                return 1
            verdict = json.loads(outcome.stdout)["verdict"]
            entry = {"verdict": verdict, "seconds": seconds}
            if job.exact:
                entry["digest"] = jobs.digest(outcome.stdout)
            if verdict != job.expect:
                print(f"{'exact' if job.exact else 'float'} verdict {verdict} "
                      f"(known answer {job.expect}): {job.key}", file=sys.stderr)
            reference[job.key] = entry
    jobs.REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} entries to {jobs.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
