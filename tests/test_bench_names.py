"""Every name the benchmark's tracer wraps must exist in homdecomp.

bench/tracing.py wraps package functions and methods by module and
attribute name, so a rename inside the package would break
`bench/run.py --trace 1`.  The tracer file is loaded by path; the lookup
below is the one its Tracer.patch does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
TARGETS = tracing.SPANS + tracing.COUNTS


@pytest.mark.parametrize("name, module, path", TARGETS, ids=[t[0] for t in TARGETS])
def test_traced_name_resolves(name, module, path):
    mod = importlib.import_module(f"{tracing.PACKAGE}.{module}")
    if "." in path:
        cls_name, attr = path.split(".")
        target = vars(getattr(mod, cls_name))[attr]
    else:
        target = getattr(mod, path)
    assert callable(target)
