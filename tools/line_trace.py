"""A pytest plugin that lists the lines of ``src/mathkernel`` no test runs.

Run it from the repository root::

    PYTHONPATH=src:tools python -m pytest -p line_trace

Tracing starts when pytest loads the plugin, before any test module
imports ``mathkernel``, so module-level lines count as run.  A line is
executable when a code object compiled from its module maps an
instruction to it.  A function stops being traced once each of its lines
has run; even so the suite takes about four times as long as without the
plugin.  The report lists, per module, its count of executable lines and
the ranges of those that did not run.  Code run in a child process, such
as a test that starts ``python -m mathkernel``, is not traced, and a
module edited during the run is reported against its new line numbers.
If tracing stops during a test, as when traced code raises
``RecursionError`` inside the plugin's own trace function, it is restarted
after that test, and the report names the test.

The plugin loads a Hypothesis profile with ``derandomize=True``, so the
property tests draw the same inputs on every run, and two runs on the same
source list the same lines.  Apart from that profile, only the standard
library is used.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path
from types import CodeType, FrameType

from hypothesis import settings

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mathkernel"

_inside: dict[str, bool] = {}  # file name -> whether it is in PACKAGE
_todo: dict[CodeType, set[int]] = {}  # code object -> its lines not yet run
_ran: dict[str, set[int]] = {}  # file name -> the lines that ran
_retraced: list[str] = []  # tests after which tracing had to be restarted


def _own_lines(code: CodeType) -> set[int]:
    # a module's code starts with an instruction at line 0
    return {line for _, _, line in code.co_lines() if line}


def _mark(code: CodeType, line: int) -> bool:
    """Record that ``line`` of ``code`` ran; whether any line is left."""
    todo = _todo[code]
    if line in todo:
        todo.discard(line)
        _ran.setdefault(code.co_filename, set()).add(line)
    return bool(todo)


def _local(frame: FrameType, event: str, arg):
    if event == "line" and not _mark(frame.f_code, frame.f_lineno):
        return None
    return _local


def _global(frame: FrameType, event: str, arg):
    code = frame.f_code
    if code not in _todo:
        name = code.co_filename
        if name not in _inside:
            _inside[name] = Path(name).resolve().is_relative_to(PACKAGE)
        if not _inside[name]:
            return None
        _todo[code] = _own_lines(code)
    return _local if _mark(code, frame.f_lineno) else None


def _executable(code: CodeType) -> set[int]:
    out = _own_lines(code)
    for const in code.co_consts:
        if isinstance(const, CodeType):
            out |= _executable(const)
    return out


def unrun_lines() -> dict[str, tuple[int, set[int]]]:
    """Per module file name: its count of executable lines, and those no
    traced code ran."""
    ran = {Path(f).resolve(): lines for f, lines in _ran.items()}
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = _executable(compile(source, str(path), "exec"))
        out[path.name] = (len(lines), lines - ran.get(path, set()))
    return out


def _ranges(lines: set[int]) -> str:
    spans: list[list[int]] = []
    for n in sorted(lines):
        if spans and spans[-1][1] == n - 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def pytest_runtest_logfinish(nodeid: str, location) -> None:
    # CPython unsets a trace function that raises, as _global and _local do
    # when they are the frames that cross the recursion limit; every later
    # test would run untraced
    if sys.gettrace() is not _global:
        _retraced.append(nodeid)
        sys.settrace(_global)


def pytest_sessionfinish(session, exitstatus) -> None:
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter) -> None:
    write = terminalreporter.write_line
    terminalreporter.section("lines no test ran")
    total = missed = 0
    for name, (count, unrun) in unrun_lines().items():
        total += count
        missed += len(unrun)
        write(f"{name}: {len(unrun)} of {count} not run"
              + (f": {_ranges(unrun)}" if unrun else ""))
    write(f"total: {missed} of {total} executable lines not run")
    for nodeid in _retraced:
        write(f"tracing stopped in {nodeid} and was restarted after it")


settings.register_profile("line_trace", derandomize=True)
settings.load_profile("line_trace")
sys.settrace(_global)
threading.settrace(_global)
