"""Every layer the traced benchmark run wraps must exist.

`bench/tracing.py` looks each `TARGETS` entry up by name when `--trace 1`
installs its spans; a renamed or deleted function would break that run.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("mod_name, attr",
                         [(t[0], t[1]) for t in load_targets()])
def test_target_resolves(mod_name, attr):
    owner = importlib.import_module("spherecurve." + mod_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
