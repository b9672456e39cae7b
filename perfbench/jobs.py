"""Workload job lists, job execution and the correctness gate.

A job is one ``heavenly`` argv.  Each workload is a list of job templates;
the workload seed picks every template's ``--seed`` from ``JOB_SEEDS``, the
pool whose exact-mode report digests, verdicts and job times were stored in
``reference.json`` at the seed commit by ``make_reference.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")
JOB_SEEDS = tuple(range(1, 25))

# (argv without --seed, known answer, instances per job list).  Each instance
# draws its own job seed; an argv that already names --seed is pinned.  Every
# list has an odd number of jobs, so verdict_s_p50 is the middle of one job's
# samples rather than the mean of two neighbouring jobs' extremes.
TEMPLATES: dict[str, list[tuple[str, str, int]]] = {
    "curvature": [
        ("curvature-report --background sparling-tod --points 1", "pass", 4),
        ("curvature-report --background sparling-tod --sigma 1/2 --points 1", "pass", 1),
        ("curvature-report --background phi2-eguchi-hanson --points 1", "pass", 4),
        ("curvature-report --background plane-wave --f q^3 --points 2", "pass", 1),
        ("curvature-report --background plane-wave --f q^4-2*q --points 2", "pass", 1),
        ("verify-solution --background plane-wave --points 2", "pass", 1),
        ("verify-solution --background plane-wave --f q^3 --points 2", "pass", 1),
    ],
    "chain": [
        # ROADMAP item 2's reproduction of the float absolute-tolerance defect.
        ("recursion-chain --background st --n 8 --sigma 1/2 --mode float --seed 1", "pass", 1),
        # The slowest job, five times: verdict_s_tail then falls inside its
        # samples whatever the number of passes.
        ("recursion-chain --background st --n 10 --sigma 1/2 --points 3", "pass", 5),
        ("recursion-chain --background st --n 10 --sigma 1/2 --points 3 --mode float", "pass", 1),
        ("recursion-chain --background st --n 12 --points 2", "pass", 1),
        ("recursion-chain --background st --n 12 --points 2 --mode float", "pass", 1),
        ("twistor-series --background st --order 10 --points 3", "pass", 1),
        ("twistor-series --background st --order 10 --points 3 --mode float", "pass", 1),
        ("twistor-series --background st --order 8 --sigma 2/3 --points 3", "pass", 1),
        ("twistor-series --background st --order 8 --sigma 2/3 --points 3 --mode float",
         "pass", 1),
    ],
    "flows": [
        ("hierarchy-check --n 2", "pass", 1),
        ("hierarchy-check --n 3", "pass", 1),
        ("hierarchy-check --n 4 --points 1", "pass", 2),
        ("symplectic-check --degree 2 --pairs 4", "pass", 1),
        ("symplectic-check --degree 4 --pairs 4", "pass", 1),
        ("symplectic-check --degree 6 --pairs 4", "pass", 1),
        ("penrose --f 1/(mu0*mu1*lam^2) --pole=-w/y", "pass", 1),
        ("verify-solution --background flat-second", "pass", 1),
        ("verify-solution --background flat-first", "pass", 1),
        ("verify-solution --background sparling-tod", "pass", 1),
        ("verify-solution --background sparling-tod --sigma 1/2", "pass", 1),
        ("verify-solution --background phi2-eguchi-hanson", "pass", 1),
        ("verify-solution --background poly-solution", "pass", 1),
        ("verify-solution --background poly-witness", "fail", 1),
    ],
}


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    expect: str

    @property
    def exact(self) -> bool:
        return "float" not in self.argv

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def jobs_for(workload: str, seed: int, reference: dict) -> list[Job]:
    """The workload's job list for one workload seed (same seed, same list).

    Job cost depends on the sampled points (the bit sizes of their
    rationals), so the instances of a template are stratified: the pool is
    ranked by the job time stored in the reference and cut into one stratum
    per instance, and the seed picks one job seed in each stratum.  Every
    list so has the same cost profile, while its inputs vary with the seed.
    """
    rng = random.Random(f"{workload}/{seed}")
    joblist = []
    for args, expect, count in TEMPLATES[workload]:
        argv = tuple(args.split())
        if "--seed" in argv:
            joblist += [Job(argv, expect)] * count
            continue
        pool = sorted(JOB_SEEDS, key=lambda s: (reference[Job(argv + ("--seed", str(s)),
                                                              expect).key]["seconds"], s))
        for i in range(count):
            stratum = pool[i * len(pool) // count:(i + 1) * len(pool) // count]
            joblist.append(Job(argv + ("--seed", str(rng.choice(stratum))), expect))
    return joblist


def pool_jobs(workload: str) -> list[Job]:
    """Every job any workload seed can produce; the reference covers exactly these."""
    pool = []
    for args, expect, _ in TEMPLATES[workload]:
        argv = tuple(args.split())
        seeds = [()] if "--seed" in argv else [("--seed", str(s)) for s in JOB_SEEDS]
        pool += [Job(argv + s, expect) for s in seeds]
    return pool


@dataclass
class Outcome:
    code: int | None      # exit code; None when the call raised
    stdout: str
    error: str


def run_job(main, job: Job) -> Outcome:
    """Call the CLI entry point in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(job.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a raising job is a measured failure, not a crash
        return Outcome(None, out.getvalue(), f"{type(exc).__name__}: {exc}")
    return Outcome(code, out.getvalue(), err.getvalue().strip())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


@dataclass
class Verdict:
    records: int
    failed: bool       # counts toward failed_share
    gate_ok: bool      # False fails the run
    reason: str


def judge(job: Job, outcome: Outcome, reference: dict) -> Verdict:
    """Check one job against its known answer and the seed commit's output.

    ``failed`` follows the known answer: a wrong verdict, an exit other than
    0/1, a raise, or exact report bytes that differ from the stored digest.
    The gate is the same except for a float verdict that was already wrong at
    the seed commit (ROADMAP item 2's tolerance defect): that is counted in
    ``failed`` but does not fail the run, so fixing it is not a gate failure.
    """
    if outcome.code not in (0, 1):
        why = outcome.error or f"exit {outcome.code}"
        return Verdict(0, True, False, f"{job.key}: {why}")
    try:
        report = json.loads(outcome.stdout)
        verdict, records = report["verdict"], len(report["records"])
    except (ValueError, KeyError, TypeError) as exc:
        return Verdict(0, True, False, f"{job.key}: unreadable report ({exc})")
    ref = reference.get(job.key)
    if ref is None:
        return Verdict(records, True, False, f"{job.key}: no stored reference")
    if job.exact and digest(outcome.stdout) != ref["digest"]:
        return Verdict(records, True, False, f"{job.key}: report differs from reference")
    if verdict != job.expect:
        known = ref["verdict"] != job.expect
        return Verdict(records, True, known,
                       f"{job.key}: verdict {verdict}, known answer {job.expect}"
                       + (" (wrong at seed commit too)" if known else ""))
    return Verdict(records, False, True, "")
