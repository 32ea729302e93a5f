"""Run the tests in this process under a line tracer and check that every
executable line of src/hyperrank ran.

    python3 .github/line_coverage.py [PYTEST_ARG...]

The arguments go to `pytest.main`, from the current directory. A module's
executable lines are those its code objects map instructions to
(`co_lines`); none is exempt. The script lists every one that did not run
and exits non-zero when there is one, or when pytest fails.
"""

import sys
import threading
import types
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hyperrank"


def executable_lines(source: str, path: Path) -> set[int]:
    """The lines that `co_lines` names in any code object of the module."""
    lines, stack = set(), [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    import pytest

    ran: dict[str, set[int]] = {str(p): set() for p in sorted(SRC.glob("*.py"))}
    local_tracers = {}  # code file name -> the tracer of its frames, None outside SRC

    def tracer_into(hits: set[int]):
        def local(frame, event, arg):  # every event of the frame: record its line
            hits.add(frame.f_lineno)
            return local
        return local

    def trace(frame, event, arg):  # called on each new frame
        name = frame.f_code.co_filename
        if name not in local_tracers:
            hits = ran.get(str(Path(name).resolve()))
            local_tracers[name] = None if hits is None else tracer_into(hits)
        local = local_tracers[name]
        if local is None:
            return None  # no line events for code outside SRC
        return local(frame, event, arg)

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for path, hits in ran.items():
        source = Path(path).read_text(encoding="utf-8")
        lines = executable_lines(source, Path(path))
        total += len(lines)
        for line in sorted(lines - hits):
            missed += 1
            print(f"not run: {Path(path).relative_to(SRC.parents[1])}:{line}: "
                  f"{source.splitlines()[line - 1].strip()}")
    print(f"{total - missed} of {total} executable lines of {SRC.relative_to(SRC.parents[1])} ran")
    return int(code) or int(missed > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
