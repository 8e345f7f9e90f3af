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
SHIM = TRACING.with_name("cli_shim.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def bench_targets():
    tracing = load_tracing()
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
    for name in (
        "games.function_rows_calls", "games.fixed_point_rows", "games.grid_points",
        "games.hopt_rows", "games.vertices_count",
    ):
        assert metrics[name] > 0, name


def test_cli_import_loads_every_traced_module():
    """The traced CLI pass installs the tracer right after ``import causelab.cli``
    and wraps only modules loaded by then, so that import must load them all."""
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys, causelab.cli; print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert {module for module, _ in bench_targets()} <= set(json.loads(proc.stdout))


@pytest.mark.parametrize(
    "args, metric",
    [
        (("bound", "--game", "chsh", "--set", "causal"), "games.causal_s"),
        (("bound", "--game", "gynin", "--set", "dc"), "games.function_rows_s"),
    ],
    ids=["causal", "dc"],
)
def test_cli_shim_traces_what_the_cli_runs(tmp_path, args, metric):
    """``bench/cli_shim.py`` prints what ``python -m causelab`` prints, exits
    the same way, and its spans name the layer the command runs."""
    spans_path = tmp_path / "spans.jsonl"
    direct = subprocess.run(
        [sys.executable, "-m", "causelab", *args], capture_output=True, text=True, timeout=120
    )
    shim = subprocess.run(
        [sys.executable, str(SHIM), str(spans_path), "r0", "--", *args],
        capture_output=True, text=True, timeout=120,
    )
    assert (shim.returncode, shim.stdout) == (direct.returncode, direct.stdout), shim.stderr
    _, spans = load_tracing().read_spans(str(spans_path))
    assert metric in {span["name"] for span in spans}
