"""The traced benchmark rebinds causelab entry points by name; each must exist.

``bench/run.py --trace 1`` looks up every (module, attribute) in
``bench/tracing.py``'s ``TARGETS`` with ``getattr`` and replaces it, and counts
``causelab.lp._pivot``.  Renaming or deleting one of them would crash the traced
run, so this test fails first.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def bench_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, _ in tracing.TARGETS] + [("causelab.lp", "_pivot")]


@pytest.mark.parametrize("module, attr", bench_targets())
def test_target_resolves(module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
