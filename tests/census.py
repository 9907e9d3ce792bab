"""Census: which functions of ``src/repro`` no program reaches in a test run.

A pytest plugin that loads only when named, so default runs do not pay for
its profile hook (tier-1 takes roughly three times as long under it)::

    PYTHONPATH=src python -m pytest -p tests.census --census-out census.txt

The denominator is an ``ast`` walk of ``src/repro``: every top-level
function and every method of a top-level class, keyed by the line its code
object starts on (the first decorator, else the ``def``).  The numerator is
every code object a profile hook (``sys.setprofile`` and
``threading.setprofile``) sees entered, and for each one whether any call
came from a program: the nearest calling frame that lies in the
repository is under ``src/repro/``, ``examples/`` or ``benchmarks/``
rather than ``tests/`` (frames of the standard library and site-packages
are skipped; a call with no repository frame above it counts as a
program's, the module code of a ``python -c`` script as a test's).  The
hook runs:

* in the pytest process itself;
* in a launched ``python`` — the plugin puts a generated ``sitecustomize``
  on each child's ``PYTHONPATH`` that installs the same hook and writes what
  it saw at exit (a child killed with SIGKILL writes nothing);
* in a forked pool worker, which keeps its parent's hook and writes what it
  saw when it exits.

Each function is labelled ``never entered`` (no process entered it),
``tests only`` (entered, but only ever called from tests), ``launched
python only`` or ``pool worker only`` (reached by a program only in a
child process).  A function may carry its reason to stay on its ``def``
line (or the comment line right above it)::

    def covers_all(self) -> bool:  # census: reference tests compare against

The report lists labelled functions without a verdict first — the
worklist — and those with one under it, each with its verdict.  It
publishes; it does not fail a run.
"""

from __future__ import annotations

import ast
import inspect
import multiprocessing.util
import os
import re
import subprocess
import sys
import shutil
import tempfile
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
#: Where a calling frame counts as a program's, and where as a test's.
PROGRAM_ROOTS = tuple(str(ROOT / d) + os.sep for d in ("src", "examples", "benchmarks"))
TESTS_ROOT = str(ROOT / "tests") + os.sep

_VERDICT = re.compile(r"#\s*census:\s*(.+?)\s*$")


# The next three functions run in the pytest process and, copied into the
# generated sitecustomize, in every launched python.
def _caller_kind(code, program_roots, tests_root):
    """1 for a program's frame, 0 for a test's, None for any other."""
    name = code.co_filename
    if name.startswith(program_roots):
        return 1
    if name.startswith(tests_root) or (name == "<string>" and code.co_name == "<module>"):
        return 0
    return None


def _make_hook(seen, program, src, program_roots, tests_root):
    kinds, watched = {}, {}

    def hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        seen.add(code)
        if code in program:
            return
        try:
            mine = watched[code]
        except KeyError:
            mine = watched[code] = code.co_filename.startswith(src)
        if not mine:
            return
        frame = frame.f_back
        while frame is not None:
            caller = frame.f_code
            try:
                kind = kinds[caller]
            except KeyError:
                kind = kinds[caller] = _caller_kind(caller, program_roots, tests_root)
            if kind == 0:
                return
            if kind == 1:
                break
            frame = frame.f_back
        program.add(code)

    return hook


def _lines(seen, program, src):
    entered = {f"{c.co_filename}:{c.co_firstlineno}" for c in seen
               if c.co_filename.startswith(src)}
    called = {f"{c.co_filename}:{c.co_firstlineno}" for c in program
              if c.co_filename.startswith(src)}
    return sorted(f"E {key}\n" for key in entered) + sorted(f"P {key}\n" for key in called)


#: The hook a launched python runs (formatted with the source of the three
#: functions above, the roots, and the directory its entries go to).
_SITECUSTOMIZE = '''\
import atexit, os, sys, threading

{caller}

_seen, _program = set(), set()


@atexit.register
def _dump():
    sys.setprofile(None)
    with open(os.path.join({out!r}, f"launched-{{os.getpid()}}.txt"), "w") as fh:
        fh.writelines(_lines(_seen, _program, {src!r}))


_hook = _make_hook(_seen, _program, {src!r}, {program_roots!r}, {tests_root!r})
sys.setprofile(_hook)
threading.setprofile(_hook)
'''


def _verdict(lines, func, first):
    """The ``# census:`` verdict right above *func* (above its decorators)
    or on a line of its signature, which ends at the first line whose code
    ends with ``:``."""
    numbers = [first - 1]
    for number in range(func.lineno, func.body[0].lineno + 1):
        numbers.append(number)
        if lines[number - 1].split("#", 1)[0].rstrip().endswith(":"):
            break
    for number in numbers:
        match = _VERDICT.search(lines[number - 1]) if number >= 1 else None
        if match:
            return match.group(1)
    return None


def function_table(root: Path = SRC):
    """``{(file, first line): (qualified name, line count, verdict)}`` for
    every top-level function and method of a top-level class under *root*
    (*verdict* is ``None`` where the function carries none)."""
    table = {}
    for path in sorted(root.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
            for func in members:
                if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                first = min([func.lineno] + [d.lineno for d in func.decorator_list])
                table[(str(path), first)] = (
                    prefix + func.name, func.end_lineno - first + 1,
                    _verdict(lines, func, first),
                )
    return table


class _Census:
    def __init__(self, out: Path) -> None:
        self.out = out
        self.seen = set()
        self.program = set()
        self.active = False
        self.child_dir = Path(tempfile.mkdtemp(prefix="census-"))
        (self.child_dir / "sitecustomize.py").write_text(
            _SITECUSTOMIZE.format(
                caller="\n\n".join(
                    inspect.getsource(f) for f in (_caller_kind, _make_hook, _lines)
                ), src=str(SRC), out=str(self.child_dir),
                program_roots=PROGRAM_ROOTS, tests_root=TESTS_ROOT,
            )
        )
        self._popen_init = subprocess.Popen.__init__

    def start(self) -> None:
        census = self
        hook = _make_hook(self.seen, self.program, str(SRC), PROGRAM_ROOTS, TESTS_ROOT)

        def popen_init(popen, args, *rest, env=None, **kwargs):
            env = dict(os.environ if env is None else env)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(census.child_dir), env.get("PYTHONPATH")])
            )
            census._popen_init(popen, args, *rest, env=env, **kwargs)

        self.active = True
        subprocess.Popen.__init__ = popen_init
        multiprocessing.util.register_after_fork(self, _Census._in_worker)
        sys.setprofile(hook)
        threading.setprofile(hook)

    def stop(self) -> None:
        self.active = False
        sys.setprofile(None)
        threading.setprofile(None)
        subprocess.Popen.__init__ = self._popen_init

    def _in_worker(self) -> None:
        # A forked pool worker keeps the hook and the parent's entries
        # (those count as the parent's anyway).  It leaves through
        # os._exit, which skips atexit; multiprocessing finalizers still run.
        if self.active:
            multiprocessing.util.Finalize(None, self._dump_worker, exitpriority=-100)

    def _dump_worker(self) -> None:
        sys.setprofile(None)
        path = self.child_dir / f"worker-{os.getpid()}.txt"
        path.write_text("".join(_lines(self.seen, self.program, str(SRC))))

    def report(self) -> str:
        # (process, "E" for entered or "P" for called from a program) -> keys
        seen = {}
        sources = [("here", _lines(self.seen, self.program, str(SRC)))] + [
            (path.name.split("-", 1)[0], path.read_text().splitlines())
            for path in self.child_dir.glob("*-*.txt")
        ]
        for where, lines in sources:
            for line in lines:
                seen.setdefault((where, line[0]), set()).add(line[2:].rstrip("\n"))
        entered = set().union(*[keys for (_where, kind), keys in seen.items() if kind == "E"])

        def called(where):
            return seen.get((where, "P"), set())

        table = function_table()
        rows = []
        for (path, line), (name, n_lines, verdict) in sorted(table.items()):
            key = f"{path}:{line}"
            if key in called("here"):
                label = "entered from a program"
            elif key not in entered:
                label = "never entered"
            elif key in called("launched"):
                label = "launched python only"
            elif key in called("worker"):
                label = "pool worker only"
            else:
                label = "tests only"
            if label == "entered from a program" and verdict is None:
                continue
            rel = Path(path).relative_to(ROOT).as_posix()
            text = f"{rel}:{line}  {name}  ({n_lines} lines)  {label}"
            rows.append((label, n_lines, verdict, text))
        total = sum(n for _name, n, _verdict in table.values())

        def count(label, with_verdict=None):
            picked = [
                n for lab, n, verdict, _text in rows if lab == label
                and (with_verdict is None or (verdict is not None) == with_verdict)
            ]
            return len(picked), sum(picked)

        never, never_lines = count("never entered")
        header = [
            f"# functions and methods of src/repro: {len(table)} ({total} lines)",
            f"# never entered in any process: {never} ({never_lines} lines, "
            f"{never_lines / max(total, 1):.1%} of function lines); "
            f"without a verdict: {count('never entered', False)[0]}",
            f"# tests only (entered, never called from src/, examples/ or "
            f"benchmarks/): {count('tests only')[0]}; "
            f"without a verdict: {count('tests only', False)[0]}",
            "# reached by a program only in a child process: "
            f"{count('launched python only')[0] + count('pool worker only')[0]}",
        ]
        bare = [text for _label, _n, verdict, text in rows if verdict is None]
        kept = [f"{text}  -- {verdict}" for _label, _n, verdict, text in rows
                if verdict is not None]
        body = (
            [f"## without a verdict: {len(bare)}"] + bare
            + [f"## with a verdict: {len(kept)}"] + kept
        )
        return "\n".join(header + body) + "\n"


_KEY = pytest.StashKey[_Census]()


def pytest_addoption(parser):
    parser.addoption(
        "--census-out", default="census.txt", metavar="FILE",
        help="where the never-entered census is written (tests.census plugin)",
    )


def pytest_configure(config):
    census = _Census(Path(config.getoption("census_out")))
    config.stash[_KEY] = census
    census.start()


def pytest_unconfigure(config):
    census = config.stash.get(_KEY, None)
    if census is None:
        return
    census.stop()
    text = census.report()
    shutil.rmtree(census.child_dir, ignore_errors=True)
    census.out.write_text(text)
    header = [line for line in text.splitlines(True) if line.startswith("# ")]
    sys.stdout.write("".join(header))
    sys.stdout.write(f"# census written to {census.out}\n")
