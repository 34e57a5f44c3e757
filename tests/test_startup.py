"""bchsim runs on numpy alone and loads the process pool only when it spreads work.

Importing scipy costs about 0.5 s and 47 MB, and no command needs it: the
fits of ``fit`` and ``compare`` solve for c1 in closed form and scan c2
with numpy.  Every command and every spawned worker imports bchsim, so a
new import of either, at the top or deferred into a command, would bring
that cost back.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from bchsim.predictors import p_fit
from bchsim.series import TimeSeries
from bchsim.waves import Params

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy", "concurrent", "multiprocessing")


def _loaded_after(*argv: str) -> list[str]:
    """The HEAVY modules a fresh interpreter holds after bchsim.cli.main(argv)."""
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import bchsim, bchsim.cli; "
            "argv = sys.argv[2:]; assert not argv or bchsim.cli.main(argv) == 0; "
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in "
            f"{HEAVY!r})))")
    out = subprocess.run([sys.executable, "-c", code, str(SRC), *argv],
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def test_importing_bchsim_loads_neither_scipy_nor_the_process_pool():
    assert _loaded_after() == []


def test_fit_and_compare_run_without_scipy(tmp_path):
    t = np.linspace(0.0, 10.0, 60)
    TimeSeries(t=t, period=p_fit(t, 3.0, 7.0, Params())).to_csv(tmp_path / "series.csv")
    assert _loaded_after("fit", "--series", str(tmp_path / "series.csv"), "--t-max", "10",
                         "--out", str(tmp_path / "o")) == []
    cfg = tmp_path / "coupled.cfg"
    cfg.write_text("coupling = advective\nn = 256\nt_final = 0.05\ndt = 1e-4\n"
                   "record_every = 10\n")
    assert _loaded_after("compare", "--config", str(cfg), "--out", str(tmp_path / "o"),
                         "--name", "c") == []
    report = json.loads((tmp_path / "o" / "compare" / "c" / "report.json").read_text())
    assert "coupled_fit" in report and "uncoupled_fit" in report
