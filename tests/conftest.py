import json
from pathlib import Path

import pytest

from bchsim.energy import coarseness_table
from bchsim.evans import build_eig_table
from bchsim.waves import Params


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
