import json
import multiprocessing
from pathlib import Path

import pytest

from bchsim.energy import coarseness_table
from bchsim.evans import build_eig_table
from bchsim.waves import Params

# The acceptance comparison fixture ("speedup") is minutes of one-core
# simulation.  When a selected test uses it, one spawned worker computes it
# from the start of the session, and the tests that use it run last, so
# the rest of the suite runs beside it.
SPEEDUP_WORKER = pytest.StashKey[tuple]()  # (pool, pending result)


def _uses_speedup(item) -> bool:
    return "speedup" in getattr(item, "fixturenames", ())


def pytest_collection_modifyitems(items):
    items.sort(key=_uses_speedup)


def pytest_collection_finish(session):
    users = [item for item in session.items if _uses_speedup(item)]
    if users and not session.config.option.collectonly:
        module = users[0].module
        pool = multiprocessing.get_context("spawn").Pool(1)
        job = pool.apply_async(module.timed_compare, module.speedup_configs())
        session.config.stash[SPEEDUP_WORKER] = pool, job


def pytest_sessionfinish(session):
    if SPEEDUP_WORKER in session.config.stash:
        session.config.stash[SPEEDUP_WORKER][0].terminate()


@pytest.fixture(scope="session")
def speedup_job(pytestconfig):
    """The pending result of the worker that computes the speedup fixture."""
    return pytestconfig.stash[SPEEDUP_WORKER][1]


def read_report(out_dir) -> dict:
    return json.loads((Path(out_dir) / "report.json").read_text())


@pytest.fixture(scope="session")
def params():
    return Params()


@pytest.fixture(scope="session")
def energy_table(params):
    return coarseness_table(params)


@pytest.fixture(scope="session")
def eig_table(params):
    return build_eig_table(params)
