"""Cold start: the front-door modules import without scipy.

scipy costs ~0.4 s to import, and only two oracles call it — the worst-case
permutation search (Fig. 2's last row) and the max-min LP reference.  Every
``repro`` command, every ``repro serve`` start and every test that launches
``python`` would pay for it if a package ``__init__`` pulled it in.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("module", ["repro.cli", "repro.service", "repro.sim"])
def test_import_leaves_scipy_out(module):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = f"import sys, {module}; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    assert out == "False", f"import {module} pulled in scipy"
