"""The traced benchmark rebinds causelab entry points by name; each must exist.

``bench/run.py --trace 1`` looks up every (module, attribute) in
``bench/tracing.py``'s ``TARGETS`` with ``getattr`` and replaces it, and counts
``causelab.lp._pivot``.  Renaming or deleting one of them would crash the traced
run, so this test fails first.  The per-layer counts are read off the traced
calls' arguments and return values, so a traced DC search is run here too.
"""

import importlib
import importlib.util
import json
import pathlib
import subprocess
import sys

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


TRACED_RUN = """
import importlib.util, json, sys, tempfile
from causelab import games

spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
games.dc_bound(games.builtin_gynin())  # looked up after install, so traced
games.classify(games.gyni_perfect_correlation())
with tempfile.NamedTemporaryFile("r", suffix=".jsonl") as fh:
    tracer.write(fh.name)
    _, spans = tracing.read_spans(fh.name)
print(json.dumps(tracing.layer_metrics([spans])))
"""


def test_tracer_reads_the_dc_search():
    """The tracer's per-layer counts come from the return values of the traced
    calls, so a changed return shape must fail here, not in a traced run.  A
    subprocess keeps the rebinding out of this test session."""
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(TRACING)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout)
    for name in ("games.function_rows_calls", "games.fixed_point_rows", "games.grid_points"):
        assert metrics[name] > 0, name
