"""The benchmark's tracer patches bchsim functions by name; each must exist.

`perfbench/tracing.py` imports only the standard library, so its `TRACED`
table is loaded from the file without importing the benchmark package.
A renamed or deleted function would otherwise break every traced
benchmark run while the rest of the suite stays green.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


TRACED = _traced()


@pytest.mark.parametrize("module_name,attr", [t[1:] for t in TRACED],
                         ids=[t[0] for t in TRACED])
def test_traced_name_resolves(module_name, attr):
    target = importlib.import_module(module_name)
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target), f"{module_name}.{attr} is not callable"
