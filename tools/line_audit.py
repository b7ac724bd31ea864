"""List the lines of ``src/hsiscale`` that a pytest run, or the program's traffic, never executes.

Runs pytest in this process under a ``sys.settrace`` hook that follows
only frames whose code lives in ``src/hsiscale``, then prints each
executable line that never ran, file by file, and their total.

    PYTHONPATH=src python tools/line_audit.py [pytest args]
    python tools/line_audit.py --traffic

Without arguments it runs ``tests/`` without the acceptance module. With
``--traffic`` it runs, in place of pytest, one job of each workload of
``perfbench/workloads.py`` (set-up, job and check, workload seed 1) and
then README's CLI walkthrough (``tools/artifact_diff.py``), with BLAS
pinned to one thread; it imports perfbench and changes nothing there.
"""

import contextlib
import os
import sys
import tempfile
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hsiscale"
DEFAULT_ARGS = ["-q", "-p", "no:cacheprovider", "tests", "--ignore", "tests/test_acceptance.py"]
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def executable_lines(path: Path) -> set[int]:
    lines = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traffic() -> int:
    """One job of each benchmark workload, then README's walkthrough; 1 if a workload's check fails."""
    sys.path[:0] = [str(SRC.parent), str(ROOT / "perfbench"), str(ROOT / "tools")]
    import artifact_diff
    import workloads

    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in workloads.WORKLOADS.items():
            workdir = Path(tmp) / name
            state = workload.setup(1, workdir)
            result = workload.run(state, 1, 0, workdir / "job0", contextlib.nullcontext)
            _, problems = workload.check(state, result, True)
            for problem in problems:
                print(f"{name}: {problem}")
            failed |= bool(problems)
        artifact_diff.walk(Path(tmp) / "walkthrough", SRC.parent, "readme")
    return int(failed)


def main(argv: list[str]) -> int:
    traffic = argv == ["--traffic"]
    if traffic:
        for var in BLAS_ENV:
            os.environ.setdefault(var, "1")
    ran: dict[str, set[int]] = {str(path): set() for path in SRC.glob("*.py")}

    def local(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def follow(frame, event, arg):
        if frame.f_code.co_filename not in ran:
            return None
        return local(frame, event, arg)

    threading.settrace(follow)
    sys.settrace(follow)
    try:
        status = run_traffic() if traffic else pytest.main(argv or DEFAULT_ARGS)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for name in sorted(ran):
        path = Path(name)
        missing = sorted(executable_lines(path) - ran[name])
        source = path.read_text().splitlines()
        for line in missing:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
        total += len(missing)
    runner = "traffic" if traffic else "pytest"
    print(f"{total} lines of {SRC.relative_to(ROOT)} never ran ({runner} exit {int(status)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
