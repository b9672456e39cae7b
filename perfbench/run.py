"""Closed-loop benchmark of ``heavenly`` verification jobs.

One client in one process calls ``heavenly.cli.main(argv)`` in-process with
stdout captured; each job starts when the previous one has returned.  A run
makes its job list from ``--seed`` (see ``jobs.py``), runs it once to fill
caches, then repeats whole passes of it until ``--seconds`` have elapsed,
and checks every report against the known answer and the stored reference.
Job and set-up times are calibrated against the machine's current speed
(see ``calibration.py``).  ``BENCHMARK.md`` defines every metric.

    python3 perfbench/run.py --workload curvature --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
table from a separate traced run; ``--workload all`` runs every workload in
its own process.  The last line of stdout is one JSON object; the exit code
is 1 when the correctness gate fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs
from calibration import REFERENCE_S, calibrate
from tracer import LAYERS, Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 11
TAIL_BEYOND = 10
MIN_PASSES = 3

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import heavenly
from heavenly.catalog import load_catalog
load_catalog()
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
from calibration import calibrate
print(heavenly.__file__)
print(repr(elapsed), repr(sorted(calibrate() for _ in range(5))[2]))
"""

clock = time.perf_counter


def import_program():
    """Import ``heavenly`` from this checkout's ``src/`` and nowhere else."""
    package = SRC / "heavenly"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {package}")
    sys.path.insert(0, str(SRC))
    import heavenly
    import heavenly.cli
    if Path(heavenly.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported heavenly from {heavenly.__file__}, not {package}")
    return heavenly


def setup_seconds(repeats: int) -> tuple[float, float]:
    """``import heavenly`` plus ``load_catalog()`` in fresh interpreters.

    Returns the median of the calibrated times and of the raw times.
    """
    calibrated, raw = [], []
    for i in range(repeats + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        where, elapsed, cal = proc.stdout.split()
        if Path(where).resolve().parent != (SRC / "heavenly").resolve():
            raise SystemExit(f"perfbench: set-up child imported {where}")
        if i:  # the first child may be compiling bytecode
            raw.append(float(elapsed))
            calibrated.append(float(elapsed) * REFERENCE_S / float(cal))
    return statistics.median(calibrated), statistics.median(raw)


def run_pass(main, joblist, tracer=None):
    """Run the job list once.

    Returns one (job, seconds, outcome, calibration) row per job, where
    calibration is the mean of the calibration blocks run just before and
    just after the job.
    """
    rows = []
    cal = calibrate()
    for i, job in enumerate(joblist):
        if tracer is not None:
            tracer.job = i
        t0 = clock()
        outcome = jobs.run_job(main, job)
        seconds = clock() - t0
        after = calibrate()
        rows.append((job, seconds, outcome, (cal + after) / 2))
        cal = after
    return rows


def calibrated_times(rows) -> list[float]:
    """Each job's time at the speed of the machine that made the baseline."""
    return [t * REFERENCE_S / cal for _, t, _, cal in rows]


def job_times(passes):
    """Each job's time: the median of its calibrated repeats over the timed passes."""
    return [statistics.median(repeats) for repeats in zip(*passes)]


def tail(times, repeats):
    """The highest percentile with at least TAIL_BEYOND job runs beyond it.

    Every job ran ``repeats`` times; each run counts with its job's time.
    """
    ordered = sorted(t for t in times for _ in range(repeats))
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Checker:
    """Judges every job run and keeps the counts for ``attempted``/``failed``.

    Both count the jobs of the list, not their runs: a job fails when any of
    its runs fails.  How many passes fit in ``--seconds`` varies with the
    machine's speed, so counting runs would give the same seed different
    counts from run to run.
    """

    def __init__(self, reference: dict, size: int):
        self.reference = reference
        self.job_failed = [False] * size
        self.problems: list[str] = []
        self.gate_ok = True

    @property
    def attempted(self) -> int:
        return len(self.job_failed)

    @property
    def failed(self) -> int:
        return sum(self.job_failed)

    def check(self, rows) -> list[int]:
        records = []
        for i, (job, seconds, outcome, cal) in enumerate(rows):
            v = jobs.judge(job, outcome, self.reference)
            self.job_failed[i] |= v.failed
            self.gate_ok &= v.gate_ok
            if v.reason and v.reason not in self.problems:
                self.problems.append(v.reason)
            records.append(v.records)
        return records


def measure(heavenly, workload, seed, seconds):
    """Untraced run: the end-to-end metrics."""
    reference = jobs.load_reference()
    joblist = jobs.jobs_for(workload, seed, reference)
    checker = Checker(reference, len(joblist))
    setup, setup_raw = setup_seconds(SETUP_REPEATS)
    main = heavenly.cli.main
    checker.check(run_pass(main, joblist))
    gc.collect()
    passes, raw = [], []
    deadline = clock() + seconds
    while clock() < deadline or len(passes) < MIN_PASSES:
        rows = run_pass(main, joblist)
        records = sum(checker.check(rows))
        passes.append(calibrated_times(rows))
        raw += [t for _, t, _, _ in rows]
    times = job_times(passes)
    tail_s, tail_pct = tail(times, len(passes))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    metrics = {
        "records_per_s": (records / sum(times), "1/s"),
        "verdict_s_p50": (statistics.median(times), "s"),
        "verdict_s_tail": (tail_s, "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = [f"{len(passes)} timed passes, {records} records per pass; a job's time is the "
             f"median of its calibrated repeats",
             f"verdict_s_tail is p{tail_pct:.2f} of {len(passes) * len(joblist)} job runs "
             f"({TAIL_BEYOND} beyond it)",
             f"setup_s is the median of {SETUP_REPEATS} fresh interpreters",
             f"uncalibrated: verdict_s_p50 {statistics.median(raw):.6f} s, "
             f"setup_s {setup_raw:.6f} s"]
    return joblist, checker, metrics, notes


def trace(heavenly, workload, seed, seconds):
    """Traced run: per-layer self times, counters and the tracing overhead."""
    reference = jobs.load_reference()
    joblist = jobs.jobs_for(workload, seed, reference)
    checker = Checker(reference, len(joblist))
    main = heavenly.cli.main
    checker.check(run_pass(main, joblist))
    deadline = clock() + seconds  # the counting pass is part of the measured time
    tracer = Tracer(heavenly)
    tracer.install(count_fractions=True)
    try:
        rows = run_pass(main, joblist, tracer)
    finally:
        tracer.remove()
    checker.check(rows)
    counters = tracer.counters()
    gc.collect()
    plain, traced, layer_self = [], [], []
    while clock() < deadline or not traced:
        rows = run_pass(main, joblist)
        plain.append(sum(calibrated_times(rows)))
        checker.check(rows)
        tracer.reset()
        tracer.install()
        try:
            rows = run_pass(main, joblist, tracer)
        finally:
            tracer.remove()
        traced.append(sum(calibrated_times(rows)))
        checker.check(rows)
        layer_self.append(self_times(tracer.spans))
    span_file = write_spans(workload, seed, tracer.spans)
    metrics = {f"{layer}.self_s": (statistics.median(s[layer] for s in layer_self), "s")
               for layer in LAYERS}
    units = {"max_coeff_bits": "bits", "bytes": "bytes"}
    for name, value in counters.items():
        metrics[name] = (value, units.get(name.rsplit(".", 1)[1], "count"))
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain),
                                       "ratio")
    notes = [f"self_s: median seconds per pass over {len(traced)} traced passes; "
             f"counts: one counting pass after the warm-up pass",
             f"spans of the last traced pass written to {span_file.relative_to(ROOT)}"]
    return joblist, checker, metrics, notes


def write_spans(workload, seed, spans) -> Path:
    """One JSON array per span: [name, start, end, parent index or -1, job index]."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-{seed}.jsonl"
    with path.open("w") as fh:
        fh.writelines(json.dumps(span) + "\n" for span in spans)
    return path


def report(workload, joblist, checker, metrics, notes) -> dict:
    print(f"workload {workload}: {len(joblist)} jobs per pass, closed loop, one client")
    for job in joblist:
        print(f"  job  heavenly {job.key}  (known answer {job.expect})")
    for name, (value, unit) in metrics.items():
        shown = f"{value:>16.6f}" if isinstance(value, float) else f"{value:>16}"
        print(f"  {name:<36} {shown} {unit}")
    share = checker.failed / checker.attempted
    print(f"  {'failed_share':<36} {share:>16.6f} share ({checker.failed} of "
          f"{checker.attempted} jobs)")
    for line in notes:
        print(f"  note {line}")
    for problem in checker.problems:
        print(f"  fail {problem}")
    print(f"  gate {'ok' if checker.gate_ok else 'FAILED'}")
    return {"correct": checker.gate_ok, "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def run_all(args) -> int:
    """Every workload in its own process, so peak_rss_mb is per workload."""
    results, status = {}, 0
    for workload in jobs.TEMPLATES:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        results[workload] = json.loads(lines[-1]) if lines else None
    print(json.dumps(results))
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*jobs.TEMPLATES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args)
    heavenly = import_program()
    run = trace if args.trace else measure
    result = report(args.workload, *run(heavenly, args.workload, args.seed, args.seconds))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
