"""List the lines of ``src/hsiscale`` that a pytest run never executes.

Runs pytest in this process under a ``sys.settrace`` hook that follows
only frames whose code lives in ``src/hsiscale``, then prints each
executable line that never ran, file by file, and their total.

    PYTHONPATH=src python tools/line_audit.py [pytest args]

Without arguments it runs ``tests/`` without the acceptance module.
"""

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hsiscale"
DEFAULT_ARGS = ["-q", "-p", "no:cacheprovider", "tests", "--ignore", "tests/test_acceptance.py"]


def executable_lines(path: Path) -> set[int]:
    lines = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
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
        status = pytest.main(argv or DEFAULT_ARGS)
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
    print(f"{total} lines of {SRC.relative_to(ROOT)} never ran (pytest exit {int(status)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
