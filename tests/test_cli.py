import json
import os
import subprocess
import sys

import pytest

from causelab import QuasiProcessFunction, make_scenario, quasiprocess_from_function
from causelab import serialize as ser
from causelab.games import gyni_perfect_correlation


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
        ["game-settings", "process-matrix", "instrument-party"],
    )
    def test_malformed_field_exits_two(self, tmp_path, field):
        from causelab.games import builtin_gyni

        path = tmp_path / "bad.json"
        one_party = {"settings": [2], "outcomes": [2], "inputs": [2], "outputs": [2]}
        if field == "game-settings":
            document = dict(ser.game_to_json(builtin_gyni()), settings=5)
            args = ("bound", "--game", str(path), "--set", "causal")
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


class TestEnumPf:
    def test_two_party_reduced(self):
        proc = run_cli("enum-pf", "--parties", "2", "--alphabet", "2", "--reduced")
        assert proc.returncode == 0
        data = report(proc)
        assert data["result"]["count"] == 12

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
