"""Never-entered census: which functions of ``src/repro`` a test run never runs.

A pytest plugin that loads only when named, so default runs do not pay for
its profile hook (tier-1 takes roughly twice as long under it)::

    PYTHONPATH=src python -m pytest -p tests.census --census-out census.txt

The denominator is an ``ast`` walk of ``src/repro``: every top-level
function and every method of a top-level class, keyed by the line its code
object starts on (the first decorator, else the ``def``).  The numerator is
every code object a profile hook (``sys.setprofile`` and
``threading.setprofile``) sees entered:

* in the pytest process itself;
* in a launched ``python`` — the plugin puts a generated ``sitecustomize``
  on each child's ``PYTHONPATH`` that installs the same hook and writes what
  it entered at exit (a child killed with SIGKILL writes nothing);
* in a forked pool worker, which keeps its parent's hook and writes what it
  entered when it exits.

The report lists each function entered by no process as ``never entered``,
and each one entered only in a child process as ``launched python only`` or
``pool worker only``, with ``file:line`` and its line count.  It publishes;
it does not fail a run.
"""

from __future__ import annotations

import ast
import multiprocessing.util
import os
import subprocess
import sys
import shutil
import tempfile
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The hook a launched python runs (formatted with the source root and the
#: directory its entries go to).
_SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_seen = set()


def _hook(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


@atexit.register
def _dump():
    sys.setprofile(None)
    lines = sorted({{f"{{c.co_filename}}:{{c.co_firstlineno}}\\n" for c in _seen
                    if c.co_filename.startswith({src!r})}})
    with open(os.path.join({out!r}, f"launched-{{os.getpid()}}.txt"), "w") as fh:
        fh.writelines(lines)


sys.setprofile(_hook)
threading.setprofile(_hook)
'''


def function_table(root: Path = SRC):
    """``{(file, first line): (qualified name, line count)}`` for every
    top-level function and method of a top-level class under *root*."""
    table = {}
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
            for func in members:
                if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                first = min([func.lineno] + [d.lineno for d in func.decorator_list])
                table[(str(path), first)] = (
                    prefix + func.name, func.end_lineno - first + 1
                )
    return table


class _Census:
    def __init__(self, out: Path) -> None:
        self.out = out
        self.seen = set()
        self.active = False
        self.child_dir = Path(tempfile.mkdtemp(prefix="census-"))
        (self.child_dir / "sitecustomize.py").write_text(
            _SITECUSTOMIZE.format(src=str(SRC), out=str(self.child_dir))
        )
        self._popen_init = subprocess.Popen.__init__

    def start(self) -> None:
        census, seen = self, self.seen

        def hook(frame, event, arg):
            if event == "call":
                seen.add(frame.f_code)

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
        path.write_text("".join(f"{key}\n" for key in self._keys(self.seen)))

    @staticmethod
    def _keys(codes):
        root = str(SRC)
        return {f"{c.co_filename}:{c.co_firstlineno}" for c in codes
                if c.co_filename.startswith(root)}

    def report(self) -> str:
        here = self._keys(self.seen)
        children = {"launched": set(), "worker": set()}
        for path in self.child_dir.glob("*-*.txt"):
            children[path.name.split("-", 1)[0]].update(path.read_text().splitlines())
        table = function_table()
        rows = []
        for (path, line), (name, n_lines) in sorted(table.items()):
            key = f"{path}:{line}"
            if key in here:
                continue
            if key in children["launched"]:
                label = "launched python only"
            elif key in children["worker"]:
                label = "pool worker only"
            else:
                label = "never entered"
            rel = Path(path).relative_to(SRC.parent.parent).as_posix()
            rows.append((label, n_lines, f"{rel}:{line}  {name}  ({n_lines} lines)  {label}"))
        total = sum(n for _name, n in table.values())
        never = [n for label, n, _text in rows if label == "never entered"]
        header = [
            f"# functions and methods of src/repro: {len(table)} ({total} lines)",
            f"# never entered in any process: {len(never)} ({sum(never)} lines, "
            f"{sum(never) / max(total, 1):.1%} of function lines)",
            f"# entered only in a child process: {len(rows) - len(never)}",
        ]
        return "\n".join(header + [text for _label, _n, text in rows]) + "\n"


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
    sys.stdout.write("".join(text.splitlines(True)[:3]))
    sys.stdout.write(f"# census written to {census.out}\n")
