"""The line tracer of scripts/line_coverage.py, on one small traced module
(pytest is not run under it)."""

import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "line_coverage.py"
_spec = importlib.util.spec_from_file_location("line_coverage", _PATH)
line_coverage = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_coverage)

_CHECKED = '''\
def check(x):
    """Docstring."""
    if x < 0:
        raise ValueError("negative")
    return x + 1
'''


def load(path):
    spec = importlib.util.spec_from_file_location("checked", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_an_unreached_raise_is_listed_and_reached_lines_are_not(tmp_path):
    path = tmp_path / "checked.py"
    path.write_text(_CHECKED)
    outer = sys.gettrace()
    with line_coverage.LineTracer([path]) as tracer:
        assert load(path).check(1) == 2
    assert sys.gettrace() is outer
    lines = line_coverage.executable_lines(path)
    assert {1, 3, 4, 5} <= lines and 2 not in lines  # a docstring runs no code
    assert tracer.unreached(path) == [4]


def test_ranges_join_consecutive_lines():
    assert line_coverage.ranges([3, 4, 5, 9, 11, 12]) == "3-5, 9, 11-12"
    assert line_coverage.ranges([]) == ""
