"""Importing bchsim loads neither scipy nor the process pool.

scipy costs about 0.5 s to import and only the fits of ``fit`` and
``compare`` use it; every command and every spawned worker imports
bchsim.  A new top-level import of either would bring that cost back.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_importing_bchsim_loads_neither_scipy_nor_the_process_pool():
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import bchsim, bchsim.cli; "
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('scipy', 'concurrent', 'multiprocessing'))))")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                         text=True, check=True).stdout
    assert json.loads(out) == []
