import contextlib
import copy
import functools
import hashlib
import io
import json
import operator
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from causelab import QuasiProcessFunction, make_scenario, quasiprocess_from_function
from causelab import serialize as ser
from causelab.cli import main
from causelab.games import gyni_perfect_correlation, gynin_perfect_correlation, pr_box_correlation


def run_cli(*args, env=None):
    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, "-m", "causelab", *args],
        capture_output=True,
        text=True,
        env=merged,
    )


def report(proc) -> dict:
    return json.loads(proc.stdout)


@pytest.fixture
def grandfather_file(tmp_path):
    sc = make_scenario(1, 2, 2, 2, 2)
    loop = quasiprocess_from_function(QuasiProcessFunction(sc, ((0, 1),)))
    path = tmp_path / "grandfather.json"
    ser.dump_json(str(path), ser.quasiprocess_to_json(loop))
    return str(path)


class TestBound:
    def test_causal_gynin(self):
        proc = run_cli("bound", "--game", "gynin", "--set", "causal")
        assert proc.returncode == 0
        data = report(proc)
        assert data["result"]["value"] == "1/2"
        assert data["version"]
        assert data["config"]["caps"]["candidates"] == 2**32

    def test_csv_output(self):
        proc = run_cli("bound", "--game", "gyni", "--set", "pc", "--format", "csv")
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == ["game,set,value", "gyni,pc,1/2"]

    def test_reports_are_byte_identical(self):
        first = run_cli("bound", "--game", "gyni", "--set", "dc")
        second = run_cli("bound", "--game", "gyni", "--set", "dc")
        assert first.stdout == second.stdout

    def test_game_file_input(self, tmp_path):
        from causelab.games import builtin_chsh

        path = tmp_path / "chsh.json"
        ser.dump_json(str(path), ser.game_to_json(builtin_chsh()))
        proc = run_cli("bound", "--game", str(path), "--set", "dc")
        assert proc.returncode == 0
        assert report(proc)["result"]["value"] == "3/4"


class TestCheckConsistency:
    def test_grandfather_detected(self, grandfather_file):
        proc = run_cli("check-consistency", grandfather_file)
        assert proc.returncode == 1
        data = report(proc)
        assert data["result"]["consistent"] is False
        assert data["result"]["certificate"]["output_choice"] == [[1, 0]]
        assert data["result"]["certificate"]["total_mass"] == "0"

    def test_consistent_process_passes(self, tmp_path):
        from causelab.games import bfw_process

        path = tmp_path / "bfw.json"
        ser.dump_json(str(path), ser.quasiprocess_to_json(bfw_process()))
        proc = run_cli("check-consistency", str(path))
        assert proc.returncode == 0
        assert report(proc)["result"]["consistent"] is True


class TestBadInput:
    @pytest.mark.parametrize(
        "document",
        [
            [[1, 0]],
            {"scenario": {"settings": [2], "outcomes": [2], "inputs": [2], "outputs": [2]}, "p": 5},
            {"scenario": [2, 2], "p": []},
            {"scenario": {"settings": 2, "outcomes": [2], "inputs": [2], "outputs": [2]}, "p": []},
            {"scenario": {"settings": [2.5], "outcomes": [2], "inputs": [2], "outputs": [2]}, "p": []},
        ],
        ids=["bare-list", "scalar-table", "list-scenario", "scalar-alphabet", "fractional-alphabet"],
    )
    def test_malformed_document_exits_two(self, tmp_path, document):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        proc = run_cli("check-consistency", str(path))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        error = json.loads(proc.stderr.splitlines()[0])
        assert error["error"] in ("InvalidTable", "InvalidScenario")

    @pytest.mark.parametrize(
        "field",
        ["game-settings", "game-name-number", "game-name-list", "process-matrix", "instrument-party"],
    )
    def test_malformed_field_exits_two(self, tmp_path, field):
        from causelab.games import builtin_gyni

        path = tmp_path / "bad.json"
        one_party = {"settings": [2], "outcomes": [2], "inputs": [2], "outputs": [2]}
        if field == "game-settings":
            document = dict(ser.game_to_json(builtin_gyni()), settings=5)
            args = ("bound", "--game", str(path), "--set", "causal")
        elif field.startswith("game-name"):
            name = 5 if field == "game-name-number" else ["x"]
            document = dict(ser.game_to_json(builtin_gyni()), name=name)
            args = ("bound", "--game", str(path), "--set", "dc")
        elif field == "process-matrix":
            document = {"scenario": one_party, "w": 5}
            args = ("pm-eval", "--process", str(path), "--instruments", "canonical")
        else:
            document = {"parties": [1]}
            args = ("pm-eval", "--process", "ocb", "--instruments", str(path))
        path.write_text(json.dumps(document))
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stderr.splitlines()[0])["error"] == "InvalidTable"

    @pytest.mark.parametrize(
        "args",
        [
            ("check-consistency", "DIR"),
            ("classify", "DIR"),
            ("bound", "--game", "DIR", "--set", "causal"),
            ("pm-eval", "--process", "DIR"),
        ],
        ids=["check-consistency", "classify", "bound-game", "pm-eval-process"],
    )
    def test_unreadable_path_exits_two(self, tmp_path, args):
        proc = run_cli(*(str(tmp_path) if arg == "DIR" else arg for arg in args))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        (line,) = proc.stderr.splitlines()
        assert json.loads(line)["error"] == "IsADirectoryError"


NUMPY_PROBE = """
import contextlib, io, sys
from causelab.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
print(code, "numpy._core" in sys.modules)
"""


class TestNumpyLoadsOnFirstUse:
    """Requests that reach no array exit without importing numpy."""

    @staticmethod
    def probe(*args):
        proc = subprocess.run(
            [sys.executable, "-c", NUMPY_PROBE, *map(str, args)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        code, loaded = proc.stdout.split()
        return int(code), loaded == "True"

    @pytest.mark.parametrize(
        "kind",
        ["bare-list", "malformed-json", "missing-scenario", "missing-file", "wrong-shape",
         "unnormalized"],
    )
    def test_bad_input_file(self, tmp_path, kind):
        correlation = ser.correlation_to_json(gyni_perfect_correlation())
        command, document = {
            "bare-list": ("check-consistency", [[1, 0]]),
            "malformed-json": ("check-consistency", '{"scenario": {"settings": [2'),
            "missing-scenario": ("check-consistency", {"p": 5}),
            "missing-file": ("classify", None),
            "wrong-shape": ("classify", dict(correlation, p=correlation["p"][:-1])),
            "unnormalized": (
                "classify", dict(correlation, p=[["1/2"] + row[1:] for row in correlation["p"]])
            ),
        }[kind]
        path = tmp_path / "input.json"
        if document is not None:
            path.write_text(document if isinstance(document, str) else json.dumps(document))
        assert self.probe(command, path) == (2, False)

    @pytest.mark.parametrize(
        "args, code",
        [
            (("bound", "--game", "chsh", "--set", "causal"), 0),
            (("bound", "--game", "no-such-game", "--set", "dc"), 2),
            (("enum-pf", "--parties", "4", "--alphabet", "2", "--reduced"), 3),
        ],
        ids=["causal-bound", "unknown-game", "four-party-cap"],
    )
    def test_lean_command(self, args, code):
        assert self.probe(*args) == (code, False)

    def test_dc_search_loads_numpy(self):
        assert self.probe("bound", "--game", "gynin", "--set", "dc") == (0, True)


class TestEnumPf:
    def test_two_party_reduced(self):
        proc = run_cli("enum-pf", "--parties", "2", "--alphabet", "2", "--reduced")
        assert proc.returncode == 0
        data = report(proc)
        assert data["result"]["count"] == 12

    def test_default_caps_stop_four_binary_parties_at_once(self):
        # 2^32 reduced candidates equal CANDIDATE_CAP; the survey's work estimate stops it
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "causelab", "enum-pf", "--parties", "4", "--alphabet", "2",
             "--reduced"],
            capture_output=True, text=True, timeout=30,
        )
        assert time.monotonic() - started < 1.0
        assert proc.returncode == 3
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert json.loads(line) == {
            "error": "SearchSpaceTooLarge",
            "message": "the survey needs about 17592186044416 steps (4294967296 candidates x "
            "256 output choices x 16 joint inputs), above the work cap 10000000000",
        }

    def test_cap_exceeded_exit_code(self):
        proc = run_cli(
            "enum-pf", "--parties", "3", "--alphabet", "2", "--cap-candidates", "10"
        )
        assert proc.returncode == 3
        assert json.loads(proc.stderr.splitlines()[0])["error"] == "SearchSpaceTooLarge"


class TestClassify:
    def test_gyni_perfect(self, tmp_path):
        path = tmp_path / "gyni-perfect.json"
        ser.dump_json(str(path), ser.correlation_to_json(gyni_perfect_correlation()))
        proc = run_cli("classify", str(path), "--witness", "gyni")
        assert proc.returncode == 0
        data = report(proc)
        assert data["result"]["qc"]["status"] == "in"
        assert data["result"]["dc"]["status"] == "out"
        assert data["result"]["dc"]["certificate"]["witness"] == "gyni"

    def test_missing_file_is_bad_input(self):
        proc = run_cli("classify", "/nonexistent/corr.json")
        assert proc.returncode == 2


class TestPmEval:
    def test_ocb_score(self):
        proc = run_cli("pm-eval", "--process", "ocb", "--instruments", "ocb")
        assert proc.returncode == 0
        data = report(proc)
        assert abs(data["result"]["score"] - 0.853553) < 1e-6
        assert data["result"]["process_valid"] is True

    def test_bfw_canonical(self):
        proc = run_cli("pm-eval", "--process", "bfw", "--instruments", "canonical")
        assert proc.returncode == 0
        data = report(proc)
        assert abs(data["result"]["score"] - 1.0) < 1e-12

    def test_invalid_process_exits_one(self, tmp_path):
        from causelab.quantum import diagonal_from_classical
        from causelab import QuasiProcessFunction, quasiprocess_from_function

        sc = make_scenario(1, 2, 2, 2, 2)
        loop = quasiprocess_from_function(QuasiProcessFunction(sc, ((0, 1),)))
        pm = diagonal_from_classical(loop)
        path = tmp_path / "loop-pm.json"
        ser.dump_json(str(path), ser.process_matrix_to_json(pm))
        proc = run_cli("pm-eval", "--process", str(path), "--instruments", "canonical")
        assert proc.returncode == 1
        assert report(proc)["result"]["process_valid"] is False


class TestHierarchyDemo:
    def test_demo_passes_and_exits_zero(self):
        proc = run_cli("hierarchy-demo")
        assert proc.returncode == 0
        data = report(proc)
        assert data["result"]["all_passed"] is True
        assert all(check["ok"] for check in data["result"]["checks"])
        membership = data["result"]["membership"]
        assert membership["gynin-perfect"]["DC"] == "out"
        assert membership["gynin-perfect"]["PC"] == "in"


class TestGlobalOptions:
    def test_threads_option_rejected(self):
        proc = run_cli("--threads", "4", "bound", "--game", "gyni", "--set", "causal")
        assert proc.returncode == 2
        assert proc.stdout == ""

    def test_csv_restricted_to_bound(self, grandfather_file):
        proc = run_cli("check-consistency", grandfather_file, "--format", "csv")
        assert proc.returncode == 2

    def test_seed_recorded(self):
        proc = run_cli("--seed", "7", "bound", "--game", "gyni", "--set", "causal")
        assert report(proc)["config"]["seed"] == 7

    def test_text_format(self):
        proc = run_cli("--format", "text", "bound", "--game", "gyni", "--set", "causal")
        assert proc.returncode == 0
        assert "causal bound for gyni: 1/2" in proc.stdout


class TestGoldenReports:
    """stdout of whole reports, pinned by SHA-256: a refactor keeps them byte-identical."""

    DIGESTS = [
        ("bound --game gynin --set causal", "db4426c101537d523d849969d0b57aef737b9fa96e2b4613bdd6f417b84075ef"),
        ("bound --game gynin --set dc", "c11b224b33b14056916d733d7d040ea8eecaa3d8f5ef4d633145070ef626115b"),
        ("bound --game gynin --set pc", "9a83f754c8ed091a714740b25e9f15473ec0ae974abcb50bdb604b02c29f191c"),
        ("bound --game gyni --set causal", "86fe2ca20111dfbb0ee8f12ed817c7c82dd4aec72887afac802b552184215262"),
        ("bound --game gyni --set dc", "27cbdcf6ec47166aa6eda436ff1ce55d42e8286fbffd30f7f21646170b8416bb"),
        ("bound --game gyni --set pc", "9c12a906605a73f4c9844bf5e2b95fca857d8db8f506f429863bdf425c649a13"),
        ("bound --game ocb --set causal", "af5b2bbebfcac5f10a5cda68c723eae67ac10c1c0bd00569d2d98418e1eeb568"),
        ("bound --game ocb --set dc", "f43b29fd039a46e560bddbe1d5c5137f19aa5a0a3d4b668730ff319b71cd5cdf"),
        ("bound --game ocb --set pc", "148b473800a4f8ee7f3b119b399faffe16958ac31aff207af6ebc15770a77d7a"),
        ("bound --game chsh --set causal", "065036a207bd73c9daddbd1a1d9fa95088ae33fb282b134070b8275653b249a8"),
        ("bound --game chsh --set dc", "7a3b943d3c3a2ca6fbb0ac39bfebc3ce4ee06ad53bce1d42a48cdd7aa4d24902"),
        ("bound --game chsh --set pc", "75202a8c12a1f238cdccfe7163c3d8fc62d88f9b7e5c7875043090f2d14458dd"),
        ("classify gynin-perfect.json --witness gynin", "7de0d1b92a307fdc6c1ce78599c6431fe53021eaee258c55c889352a509258c6"),
        ("classify gyni-perfect.json --witness gyni", "b923b385b1e93532299a5428a11c06ba0fc33ea64d6e41127139a73dd6be74f9"),
        ("classify pr-box.json --witness chsh", "b0ecc3bddac41c95a4cb1d141ae7dbb0965b74686ce9a8852873a169f8101b74"),
        ("hierarchy-demo", "713230ae75043e64364f6e8534d445284508673cc9fdd67f36335ebccc503d08"),
    ]

    @pytest.mark.parametrize("command, digest", DIGESTS, ids=[c for c, _ in DIGESTS])
    def test_stdout_digest(self, tmp_path, monkeypatch, capsys, command, digest):
        monkeypatch.chdir(tmp_path)  # reports echo the correlation path as given
        for name, corr in (
            ("gynin-perfect.json", gynin_perfect_correlation()),
            ("gyni-perfect.json", gyni_perfect_correlation()),
            ("pr-box.json", pr_box_correlation()),
        ):
            ser.dump_json(name, ser.correlation_to_json(corr))
        assert main(command.split()) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# --- fuzzed documents on every file-reading path ---------------------------------

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**1024)  # a JSON number no double holds
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _fuzz_documents() -> dict:
    """Per file-reading path: (arguments with FILE for the document, valid document, other files)."""
    from causelab import Game, canonical_interventions, evaluate_correlation
    from causelab.quantum import classical_instruments, diagonal_from_classical

    one = make_scenario(1, 2, 2, 2, 2)
    qp = quasiprocess_from_function(QuasiProcessFunction(one, ((0, 0),)))
    family = canonical_interventions(one)
    game = Game(one, (1, 0, 0, 1), ("1/2", "1/2"), name="guess")
    pm = ser.process_matrix_to_json(diagonal_from_classical(qp))
    return {
        "check-consistency": (["check-consistency", "FILE"], ser.quasiprocess_to_json(qp), {}),
        "classify": (
            ["classify", "FILE"],
            ser.correlation_to_json(evaluate_correlation(qp, family).to_correlation()),
            {},
        ),
        "bound-game": (["bound", "--game", "FILE", "--set", "dc"], ser.game_to_json(game), {}),
        "pm-eval-process": (["pm-eval", "--process", "FILE", "--instruments", "canonical"], pm, {}),
        "pm-eval-instruments": (
            ["pm-eval", "--process", "PM", "--instruments", "FILE"],
            ser.instruments_to_json(classical_instruments(family)),
            {"PM": pm},
        ),
    }


FUZZ_DOCUMENTS = _fuzz_documents()


def _nodes(doc, path=()):
    """Every position in a JSON document, as the key path from the root."""
    yield path
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from _nodes(value, path + (key,))


@st.composite
def mutated(draw, document):
    """The document with one field dropped, or one value replaced by another JSON type."""
    path = draw(st.sampled_from(list(_nodes(document))))
    doc = copy.deepcopy(document)
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    old = parent[path[-1]] if path else doc
    if path and draw(st.booleans()):
        del parent[path[-1]]
        return doc
    value = draw(JSON_VALUES.filter(lambda v: type(v) is not type(old)))
    if not path:
        return value
    parent[path[-1]] = value
    return doc


@pytest.mark.parametrize("path_name", sorted(FUZZ_DOCUMENTS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_document_exits_cleanly(path_name, data):
    args, document, others = FUZZ_DOCUMENTS[path_name]
    doc = data.draw(mutated(document))
    with tempfile.TemporaryDirectory() as tmp:
        files = {"FILE": doc, **others}
        for name, content in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                json.dump(content, fh)
        argv = [os.path.join(tmp, arg) if arg in files else arg for arg in args]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
