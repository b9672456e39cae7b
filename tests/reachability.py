"""List the functions of ``src/heavenly`` that no golden argv and no benchmark pool job calls.

It imports the package and runs every golden argv (the table ``_GOLDENS`` in
``tests/test_cli.py``, read from its source) and every job of every
workload's pool (``perfbench.jobs.pool_jobs``) in-process through
``heavenly.cli.main``, all under one ``sys.setprofile`` hook, so functions
called while the package is imported count as called.  A function is every
``def`` in a module of the checkout's ``src/heavenly`` (methods and nested
functions included; lambdas and comprehensions are not), known by its
module and the line its code starts on.  Each one never called is printed
with its executable line count (the distinct lines of its own body's
bytecode), per module, then the totals.  It reads ``perfbench/`` and never
writes to it.

    python3 tests/reachability.py [--root CHECKOUT]

It is a tool, not a test: a run executes every one of the pool's jobs.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import sys
from collections import defaultdict
from pathlib import Path

HERE_ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("curvature", "chain", "flows")


def golden_argvs(root: Path) -> list[list[str]]:
    """The argvs of the golden table in tests/test_cli.py, without importing it."""
    tree = ast.parse((root / "tests" / "test_cli.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_GOLDENS" for t in node.targets):
            return [list(argv) for _, argv, _ in ast.literal_eval(node.value)]
    raise SystemExit("reachability: no _GOLDENS table in tests/test_cli.py")


def _code_lines(code) -> int:
    """Distinct source lines of a code object's own bytecode, its ``def`` line aside."""
    return len({line for _, _, line in code.co_lines()
                if line is not None and line != code.co_firstlineno})


def functions(package: Path) -> dict[tuple[str, int], tuple[str, int]]:
    """(file, first line) -> (qualified name, executable lines) of every ``def``."""
    out = {}
    for path in sorted(package.glob("*.py")):
        todo = [compile(path.read_text(), str(path), "exec")]
        while todo:
            code = todo.pop()
            for const in code.co_consts:
                if hasattr(const, "co_code"):
                    todo.append(const)
            if code.co_name in ("<module>", "<lambda>", "<listcomp>", "<dictcomp>",
                                "<setcomp>", "<genexpr>"):
                continue
            out[str(path), code.co_firstlineno] = (f"{path.stem}.{code.co_qualname}",
                                                   _code_lines(code))
    return out


def run(root: Path) -> dict[tuple[str, int], tuple[str, int]]:
    """Every function of the checkout's package that the argvs never call."""
    src = root / "src"
    sys.path[:0] = [str(src), str(root / "perfbench")]
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(hook)
    try:
        heavenly = importlib.import_module("heavenly")
        from heavenly.cli import main
        jobs = importlib.import_module("jobs")
        argvs = golden_argvs(root) + [list(job.argv) for workload in WORKLOADS
                                      for job in jobs.pool_jobs(workload)]
        raised = sum(jobs.run_job(main, jobs.Job(tuple(argv), "")).code is None
                     for argv in argvs)
    finally:
        sys.setprofile(None)
    package = Path(heavenly.__file__).resolve().parent
    if package != (src / "heavenly").resolve():
        raise SystemExit(f"reachability: imported heavenly from {package}, not {src}")
    seen = {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in called}
    print(f"ran {len(argvs)} argvs, {raised} of them raised")
    return {key: value for key, value in functions(package).items() if key not in seen}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=HERE_ROOT, help="checkout to trace")
    args = ap.parse_args(argv)
    never = run(args.root.resolve())
    by_module = defaultdict(list)
    for name, lines in sorted(never.values()):
        by_module[name.split(".")[0]].append((name, lines))
    for module, rows in sorted(by_module.items()):
        print(f"{module}: {len(rows)} functions, {sum(n for _, n in rows)} lines")
        for name, lines in rows:
            print(f"  {name} ({lines})")
    print(f"never called: {len(never)} functions, {sum(n for _, n in never.values())} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
