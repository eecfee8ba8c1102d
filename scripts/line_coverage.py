#!/usr/bin/env python3
"""Lines of src/scgscale that a pytest run never reaches, from a stdlib tracer.

  python3 scripts/line_coverage.py -m "not slow" tests
  python3 scripts/line_coverage.py tests/test_cli.py -k plan

The arguments go to pytest, which runs in this process under sys.settrace
(coverage.py is not a dependency). A line of a module counts as executable
when the module's compiled code maps an instruction to it, and as reached
when a traced frame reports a "line" event on it. Per module the script
prints the unreached executable lines as ranges, then a total, and exits
with pytest's exit code. Code that runs only in a worker process (the
process pool of run_sweep with jobs > 1) is not seen. Tracing makes the
run about twice as slow.
"""

import glob
import os
import sys
import threading
import types
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def executable_lines(path) -> set[int]:
    """The lines of the Python file at path that its compiled code maps an
    instruction to, over the module and every code object nested in it."""
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        stack.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


class LineTracer:
    """Records, per file, the lines that frames of the given files execute.

    Frames of other files are not traced line by line. Leaving the context
    restores the trace functions that were set on entry.
    """

    def __init__(self, paths):
        self.paths = {os.path.realpath(p) for p in paths}
        self.reached = defaultdict(set)  # real path -> line numbers
        self._keys = {}  # co_filename -> its real path, or None if not traced

    def _call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in self._keys:
            real = os.path.realpath(filename)
            self._keys[filename] = real if real in self.paths else None
        return self._line if self._keys[filename] else None

    def _line(self, frame, event, arg):
        if event == "line":
            self.reached[self._keys[frame.f_code.co_filename]].add(frame.f_lineno)
        return self._line

    def __enter__(self):
        self._saved = sys.gettrace(), threading.gettrace()
        sys.settrace(self._call)
        threading.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._saved[0])
        threading.settrace(self._saved[1])

    def unreached(self, path) -> list[int]:
        """The executable lines of path that no traced frame reached."""
        return sorted(executable_lines(path) - self.reached[os.path.realpath(path)])


def ranges(lines) -> str:
    """'3-5, 9' for [3, 4, 5, 9]."""
    spans = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv=None) -> int:
    import pytest

    paths = sorted(glob.glob(os.path.join(SRC, "scgscale", "*.py")))
    sys.path.insert(0, SRC)
    with LineTracer(paths) as tracer:
        rc = pytest.main(sys.argv[1:] if argv is None else list(argv))
    total = missed = 0
    for path in paths:
        lines = tracer.unreached(path)
        total += len(executable_lines(path))
        missed += len(lines)
        if lines:
            print(f"{os.path.relpath(path, ROOT)}: {len(lines)} unreached: {ranges(lines)}")
    print(f"total: {missed} of {total} executable lines unreached")
    return int(rc)


if __name__ == "__main__":
    sys.exit(main())
