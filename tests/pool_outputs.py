"""Record every benchmark pool job's output, check it against the stored digests,
and compare two recordings.

The benchmark's correctness gate checks the exact-mode report digests of the
jobs a run happens to draw.  This script covers the whole pool
(``perfbench.jobs.pool_jobs`` of every workload): it runs each job's argv
in-process through ``heavenly.cli.main``, with the checkout's own ``src/``
on the path, and writes one JSON file per job holding its argv, exit code,
stdout and stderr.  It reads ``perfbench/`` and never writes to it.

    # record a checkout's outputs (default: the checkout this file is in)
    python3 tests/pool_outputs.py record OUT_DIR [--root CHECKOUT] [--workload chain]
    # check a recording's exact reports against perfbench/reference.json
    python3 tests/pool_outputs.py check OUT_DIR [--root CHECKOUT]
    # every job's exit code, stdout and stderr equal in two recordings
    python3 tests/pool_outputs.py compare OUT_DIR OTHER_DIR

``--workload curvature-sweep`` records a named extra set instead, which no
benchmark workload covers: curvature in float mode.  It runs
``curvature-report`` on every catalog background and ``verify-solution`` on
its metric entries, a background with a sigma also at ``--sigma 1/2`` and a
metric entry also with each of ``SWEEP_PROFILES`` as ``--f``, at seeds 1-12
with ``--points 3``, in exact and float mode.  ``check`` passes over it (the
reference holds benchmark jobs only).

Each command prints a summary and exits 1 when a check fails, naming the
first jobs that differ; ``compare`` counts changed exit codes apart from
output that changed under the same exit code.  It is a tool, not a test: a
recording runs every one of the pool's jobs.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

HERE_ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("curvature", "chain", "flows")
SWEEP = "curvature-sweep"
SWEEP_PROFILES = ("q^2", "q^3", "q^4-2*q", "1/q")
SHOWN = 10


def _jobs_module(root: Path):
    sys.path.insert(0, str(root / "perfbench"))
    return importlib.import_module("jobs")


def _file_name(workload: str, index: int) -> str:
    return f"{workload}-{index:03d}.json"


def _sweep_jobs(jobs) -> list:
    """The curvature sweep's jobs (see the module docstring), on the recorded
    checkout's catalog."""
    from heavenly.catalog import load_catalog
    out = []
    for entry in load_catalog().values():
        variants = [()]
        if "sigma" in entry.params:
            variants.append(("--sigma", "1/2"))
        commands = ["curvature-report"]
        if entry.kind == "metric":
            variants += [("--f", f) for f in SWEEP_PROFILES]
            commands.append("verify-solution")
        out += [jobs.Job((command, "--background", entry.name, *variant, "--points", "3",
                          "--seed", str(seed), "--mode", mode), "")
                for command in commands for variant in variants
                for seed in range(1, 13) for mode in ("exact", "float")]
    return out


def record(out: Path, root: Path, workloads) -> int:
    sys.path.insert(0, str(root / "src"))
    from heavenly.cli import main
    jobs = _jobs_module(root)
    out.mkdir(parents=True, exist_ok=True)
    count = 0
    for workload in workloads:
        pool = _sweep_jobs(jobs) if workload == SWEEP else jobs.pool_jobs(workload)
        for i, job in enumerate(pool):
            outcome = jobs.run_job(main, job)
            entry = {"argv": list(job.argv), "code": outcome.code, "stdout": outcome.stdout,
                     "stderr": outcome.error}
            (out / _file_name(workload, i)).write_text(json.dumps(entry, indent=1) + "\n")
            count += 1
    print(f"recorded {count} jobs in {out}")
    return 0


def _recording(out: Path) -> dict[str, dict]:
    return {path.name: json.loads(path.read_text()) for path in sorted(out.glob("*.json"))}


def check(out: Path, root: Path) -> int:
    jobs = _jobs_module(root)
    reference = jobs.load_reference()
    exact, bad = 0, []
    for name, entry in _recording(out).items():
        job = jobs.Job(tuple(entry["argv"]), "")
        if not job.exact or name.startswith(SWEEP + "-"):
            continue
        exact += 1
        ref = reference.get(job.key)
        if ref is None or jobs.digest(entry["stdout"]) != ref["digest"]:
            bad.append(f"{name}: {job.key}" + (" (no reference)" if ref is None else ""))
    print(f"{exact - len(bad)} of {exact} exact reports match perfbench/reference.json")
    for line in bad[:SHOWN]:
        print(f"  differs: {line}")
    return 1 if bad or not exact else 0


def compare(out: Path, other: Path) -> int:
    a, b = _recording(out), _recording(other)
    both = sorted(set(a) & set(b))
    codes = [name for name in both if a[name]["code"] != b[name]["code"]]
    output = [name for name in both if a[name]["code"] == b[name]["code"] and a[name] != b[name]]
    alone = sorted(set(a) ^ set(b))   # a job in one recording only
    print(f"{len(both) - len(codes) - len(output)} of {len(set(a) | set(b))} "
          "jobs identical (exit code, stdout, stderr)")
    print(f"{len(codes)} exit codes changed; {len(output)} outputs changed under the same "
          f"exit code; {len(alone)} jobs in one recording only")
    for name in codes[:SHOWN]:
        print(f"  exit {a[name]['code']} -> {b[name]['code']}: {name}: {' '.join(a[name]['argv'])}")
    for name in (output + alone)[:SHOWN]:
        print(f"  differs: {name}: {' '.join((a.get(name) or b[name])['argv'])}")
    return 1 if codes or output or alone else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run every pool job and write its outputs")
    rec.add_argument("out", type=Path)
    rec.add_argument("--root", type=Path, default=HERE_ROOT, help="checkout to run")
    rec.add_argument("--workload", choices=(*WORKLOADS, SWEEP), action="append")
    chk = sub.add_parser("check", help="exact reports against perfbench/reference.json")
    chk.add_argument("out", type=Path)
    chk.add_argument("--root", type=Path, default=HERE_ROOT, help="checkout whose reference")
    cmp_ = sub.add_parser("compare", help="two recordings, job by job")
    cmp_.add_argument("out", type=Path)
    cmp_.add_argument("other", type=Path)
    args = ap.parse_args(argv)
    if args.command == "record":
        return record(args.out, args.root.resolve(), args.workload or WORKLOADS)
    if args.command == "check":
        return check(args.out, args.root.resolve())
    return compare(args.out, args.other)


if __name__ == "__main__":
    sys.exit(main())
