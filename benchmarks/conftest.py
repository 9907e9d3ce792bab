"""Shape assertions for the paper's evaluation (§5), over campaign results.

``repro figures`` — :data:`repro.experiments.figures.FIGURES` — is the only
producer of the ``benchmarks/results/*.txt`` tables.  The tests here check
what each table reproduces: its *shape* (who wins, by what factor, where
crossovers fall), since absolute numbers depend on the simulated scale.
They read the same task results through the result cache the command
fills, so after ::

    repro figures --check --workers 2
    pytest benchmarks --ignore=benchmarks/r2c2bench

the tests compute nothing new but the wall-clock cells.  Cache keys
include a digest of the ``repro`` source, so after any code change the
tests simulate the code that is running.  Scale is controlled by
``REPRO_SCALE``:

* ``small`` (default) — CI-friendly: 64-node racks, hundreds of flows.
* ``medium`` — 216-node racks, thousands of flows.
* ``paper`` — the paper's full 512-node 3D torus parameters (slow!).
"""

from __future__ import annotations

import functools
import os
from pathlib import Path

import pytest

from repro.experiments import FIGURES, ExecutorConfig, run_campaign
from repro.experiments.scales import SCALE_ENV_VAR, SCALES, current_scale

#: The result cache ``repro figures`` fills when run from the repo root.
CACHE_DIR = Path(__file__).resolve().parent.parent / ".repro_cache"


def pytest_configure(config):
    # Validate REPRO_SCALE up front so a typo fails with one clear usage
    # error instead of an identical collection-time traceback per module.
    name = os.environ.get(SCALE_ENV_VAR)
    if name is not None and name not in SCALES:
        raise pytest.UsageError(
            f"{SCALE_ENV_VAR} must be one of {sorted(SCALES)}, got {name!r}"
        )


@pytest.fixture(scope="session")
def scale():
    """The active experiment scale."""
    return current_scale()


@functools.lru_cache(maxsize=None)
def figure_results(name: str):
    """Task results of figure *name* at the active scale, read from (or
    computed into) the shared result cache; once per session, since
    wall-clock cells are measured afresh rather than cached."""
    campaign = FIGURES[name].build(current_scale())
    config = ExecutorConfig(workers=1, strict=True)
    return run_campaign(campaign, config, cache_dir=CACHE_DIR).results
