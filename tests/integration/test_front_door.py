"""The front door pinned across commits.

``repro.core.Rack`` is the documented way into the library (README
quickstart, three examples, ``repro rates``), yet nothing else compares
its output between commits: the golden runs pin the packet simulator and
the daemon, not the rack facade.  ``examples/interrack_fabric.py`` rides
along for the wire codec: it encodes a data packet and tunnels it through
an Ethernet frame end to end.  These pins are the SHA-256 of each
program's stdout with default arguments, taken at ``a86d786`` (the
interrack example at ``4942712``).  A change
to what the front door prints must re-pin here on purpose (print the
current values with ``python tests/integration/test_front_door.py``).
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

#: program (argv after the interpreter) -> SHA-256 of its stdout
PINS = {
    ("examples/quickstart.py",):
        "ccfc256c471a22230458a87c01cb7597407a2f9a376001bf105ac3f2d7f4d645",
    ("examples/failure_recovery.py",):
        "e09a6fa966e73c2d7d2f4c3d263aa63a2f522da1b5fad8ba35839749ff4c50d6",
    ("examples/interrack_fabric.py",):
        "c5949b9557f6e326f9e96a7df942da9d4a8abf1efb5f6a3e15df5cb6d97463fc",
    ("examples/multi_tenant_isolation.py",):
        "a118f61c941d0af1cf0c7cc45c91752dcb4d82ac6ba7fc92d99a3957563c5c79",
    ("-m", "repro", "rates"):
        "1fee27690b89e7476ca176cb34476107a04b5f7245bd498fa4573018fcf573d9",
}


def _stdout_sha(argv) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, timeout=120
    )
    assert result.returncode == 0, result.stderr.decode()
    return hashlib.sha256(result.stdout).hexdigest()


@pytest.mark.parametrize("argv", sorted(PINS), ids=" ".join)
def test_front_door_output_is_pinned(argv):
    assert _stdout_sha(argv) == PINS[argv]


if __name__ == "__main__":
    for argv in sorted(PINS):
        print(f"{' '.join(argv)}: {_stdout_sha(argv)}")
