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
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from causelab import (
    Correlation,
    DeterministicIntervention,
    QuasiProcess,
    QuasiProcessFunction,
    Scenario,
    evaluate_correlation,
    is_process_function,
    make_scenario,
    quasiprocess_from_function,
)
from causelab import serialize as ser
from causelab.cli import main
from causelab.games import (
    Game,
    gyni_perfect_correlation,
    gynin_perfect_correlation,
    pr_box_correlation,
    score,
)


def run_cli(*args, env=None):
    merged = dict(os.environ)
    if env:
        merged.update(env)
    # a hard timeout, so a request that regresses into a hang fails instead of stalling
    return subprocess.run(
        [sys.executable, "-m", "causelab", *args],
        capture_output=True,
        text=True,
        env=merged,
        timeout=120,
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

    def test_candidate_cap_does_not_bound_the_pc_lp(self):
        # the PC LP has one row per output choice (64 for gynin), not per candidate
        proc = run_cli("--cap-candidates", "10", "bound", "--game", "gynin", "--set", "pc")
        assert proc.returncode == 0, proc.stderr
        assert report(proc)["result"]["value"] == "1"

    def test_dc_scoring_cap_exits_three(self, tmp_path, capsys):
        # 688 distinct fixed-point rows, each scored over one party's 65,536
        # outcome maps, the other's 16 slices and 16 joint settings: the
        # estimate stops the search before any row is scored
        from fractions import Fraction

        from causelab.games import Game

        sc = make_scenario(2, 4, 2, 4, 2)
        n_a = sc.n_settings
        payoff = tuple((x * 7 + a * 3) % 5 - 2 for x in range(sc.n_outcomes) for a in range(n_a))
        path = tmp_path / "wide.json"
        ser.dump_json(str(path), ser.game_to_json(Game(sc, payoff, (Fraction(1, n_a),) * n_a)))
        started = time.monotonic()
        assert main(["bound", "--game", str(path), "--set", "dc"]) == 3
        assert time.monotonic() - started < 5.0
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert json.loads(line) == {
            "error": "SearchSpaceTooLarge",
            "message": "DC scoring needs 11542724608 steps (688 distinct fixed-point "
            "rows x 65536 outcome maps x 16 slices x 16 settings), above the work cap 2000000000",
        }

    def test_pc_lp_cap_exits_three(self, tmp_path):
        # 4 settings and outcomes per party: 65,536 canonical output choices, so
        # the PC LP would hold 65,536 rows of 65,793 integers and run out of
        # memory; a child under a 2 GiB address-space limit must exit 3 at once
        from fractions import Fraction

        from causelab.games import Game

        sc = make_scenario(2, 4, 4, 1, 1)
        n_a = sc.n_settings
        payoff = tuple(int(x % 4 == a % 4) for x in range(sc.n_outcomes) for a in range(n_a))
        path = tmp_path / "wide.json"
        ser.dump_json(str(path), ser.game_to_json(Game(sc, payoff, (Fraction(1, n_a),) * n_a)))
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", LIMITED_CLI, "bound", "--game", str(path), "--set", "pc"],
            capture_output=True, text=True, timeout=60,
        )
        assert time.monotonic() - started < 5.0
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert json.loads(line) == {
            "error": "SearchSpaceTooLarge",
            "message": "the canonical PC LP has 4311810048 tableau coefficients (65536 equality "
            "rows x (256 variables + 65536 artificials + 1)), above the LP size cap 1000000",
        }


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

    def test_candidate_cap_does_not_bound_output_choices(self, tmp_path):
        # the 64 output choices of the vertex test are not candidate process
        # functions; the test is bounded by its table's cell cap alone
        from causelab.games import bfw_process

        path = tmp_path / "bfw.json"
        ser.dump_json(str(path), ser.quasiprocess_to_json(bfw_process()))
        proc = run_cli("--cap-candidates", "10", "check-consistency", str(path))
        assert proc.returncode == 0, proc.stderr
        assert report(proc)["result"]["consistent"] is True

    def test_largest_table_under_the_cell_cap_fits_in_two_gib(self, tmp_path):
        # one party, 2 inputs and 1448 outputs: 2,096,704 output choices x 2
        # joint inputs, within 0.03 % of CHOICE_TABLE_CELL_CAP; the vertex test
        # holds a Python integer mass per choice
        sc = make_scenario(1, 1, 1, 2, 1448)
        path = tmp_path / "edge.json"
        uniform = (Fraction(1, 2),) * (sc.n_inputs * sc.n_outputs)
        ser.dump_json(str(path), ser.quasiprocess_to_json(QuasiProcess(sc, uniform)))
        proc = subprocess.run(
            [sys.executable, "-c", LIMITED_CLI, "check-consistency", str(path)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert report(proc)["result"]["consistent"] is True

    def test_output_choice_table_cap_exits_three(self, tmp_path):
        # 3 parties with 4-dim systems: 2^24 output choices x 64 joint inputs would
        # ask numpy for 8 GiB; a child under a 2 GiB address-space limit must exit 3
        # with the estimate instead of failing to allocate
        sc = make_scenario(3, 1, 1, 4, 4)
        table = [int(i == 0) for i in range(sc.n_inputs) for _ in range(sc.n_outputs)]
        path = tmp_path / "wide.json"
        ser.dump_json(str(path), ser.quasiprocess_to_json(QuasiProcess(sc, tuple(table))))
        proc = subprocess.run(
            [sys.executable, "-c", LIMITED_CLI, "check-consistency", str(path)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert json.loads(line) == {
            "error": "SearchSpaceTooLarge",
            "message": "the output-choice table needs 1073741824 cells (16777216 output "
            "choices x 64 joint inputs), above the cap 4194304",
        }


LIMITED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from causelab.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestBadInput:
    @pytest.mark.parametrize(
        "document",
        [
            [[1, 0]],
            {"scenario": {"settings": [2], "outcomes": [2], "inputs": [2], "outputs": [2]}, "p": 5},
            {"scenario": [2, 2], "p": []},
            {"scenario": {"settings": 2, "outcomes": [2], "inputs": [2], "outputs": [2]}, "p": []},
            {"scenario": {"settings": [2.5], "outcomes": [2], "inputs": [2], "outputs": [2]}, "p": []},
            # a consistent table: only the party count, equal to 1 but not an int, is wrong
            {"scenario": {"parties": True, "settings": [1], "outcomes": [1], "inputs": [2],
                          "outputs": [2]}, "p": [[1, 1], [0, 0]]},
            {"scenario": {"parties": 1.0, "settings": [1], "outcomes": [1], "inputs": [2],
                          "outputs": [2]}, "p": [[1, 1], [0, 0]]},
        ],
        ids=["bare-list", "scalar-table", "list-scenario", "scalar-alphabet", "fractional-alphabet",
             "boolean-party-count", "float-party-count"],
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
        ["game-settings", "game-negative-weight", "game-weight-sum", "game-name-number",
         "game-name-list", "process-matrix", "auto-instruments", "instrument-party"],
    )
    def test_malformed_field_exits_two(self, tmp_path, field):
        from causelab.games import builtin_gyni
        from causelab.quantum import diagonal_from_classical

        path = tmp_path / "bad.json"
        one_party = {"settings": [2], "outcomes": [2], "inputs": [2], "outputs": [2]}
        if field == "game-settings":
            document = dict(ser.game_to_json(builtin_gyni()), settings=5)
            args = ("bound", "--game", str(path), "--set", "causal")
        elif field in ("game-negative-weight", "game-weight-sum"):
            weights = ["-1/4", "3/4", "1/4", "1/4"] if "negative" in field else ["1/4"] * 3 + ["1/2"]
            document = dict(ser.game_to_json(builtin_gyni()), settings=weights)
            args = ("bound", "--game", str(path), "--set", "causal")
        elif field.startswith("game-name"):
            name = 5 if field == "game-name-number" else ["x"]
            document = dict(ser.game_to_json(builtin_gyni()), name=name)
            args = ("bound", "--game", str(path), "--set", "dc")
        elif field == "process-matrix":
            document = {"scenario": one_party, "w": 5}
            args = ("pm-eval", "--process", str(path), "--instruments", "canonical")
        elif field == "auto-instruments":  # only a built-in process has default instruments
            qp = quasiprocess_from_function(QuasiProcessFunction(make_scenario(1, 2, 2, 2, 2), ((0, 0),)))
            document = ser.process_matrix_to_json(diagonal_from_classical(qp))
            args = ("pm-eval", "--process", str(path))
        else:
            document = {"parties": [1]}
            args = ("pm-eval", "--process", "ocb", "--instruments", str(path))
        path.write_text(json.dumps(document))
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stderr.splitlines()[0])["error"] == "InvalidTable"

    def test_overflowing_process_matrix_exits_two(self, tmp_path):
        # finite entries whose Hermitian part w + w^H overflows the double range
        path = tmp_path / "huge.json"
        one_party = {"settings": [1], "outcomes": [2], "inputs": [2], "outputs": [1]}
        path.write_text(json.dumps({"scenario": one_party, "w": [[1e308, 0], [0, 0], [0, 0], [1, 0]]}))
        proc = run_cli("pm-eval", "--process", str(path), "--instruments", "canonical")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "RuntimeWarning" not in proc.stderr
        (line,) = proc.stderr.splitlines()
        assert json.loads(line)["error"] == "InvalidTable"

    def test_overflowing_normalization_trace_exits_two(self, tmp_path):
        # w + w^H is finite, but Tr[W] over the only normalization tuple is 4 x 8.9e307
        path = tmp_path / "huge-trace.json"
        two_party = {"settings": [1, 1], "outcomes": [2, 2], "inputs": [2, 2], "outputs": [1, 1]}
        w = [[8.9e307 if row == col else 0.0, 0.0] for row in range(4) for col in range(4)]
        path.write_text(json.dumps({"scenario": two_party, "w": w}))
        proc = run_cli("pm-eval", "--process", str(path), "--instruments", "canonical")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "RuntimeWarning" not in proc.stderr
        (line,) = proc.stderr.splitlines()
        error = json.loads(line)
        assert error["error"] == "InvalidTable"
        assert error["message"] == (
            "the trace rule overflows at normalization tuple (0, 0): (inf+0j)"
        )

    def test_overflowing_trace_rule_exits_two(self, tmp_path, capsys):
        # each matrix passes its own w + w^H check; only their product overflows
        from causelab.quantum import classical_instruments, diagonal_from_classical
        from causelab.scenario import QuasiProcess, canonical_interventions

        sc = make_scenario(1, 1, 2, 2, 1)
        pm = ser.process_matrix_to_json(diagonal_from_classical(QuasiProcess(sc, (1, 0))))
        pm["w"][0] = [1e200, 0.0]
        instruments = ser.instruments_to_json(classical_instruments(canonical_interventions(sc)))
        instruments["parties"][0]["operators"][0][0][0] = [1e200, -1e200]
        pm_path, instr_path = tmp_path / "pm.json", tmp_path / "instruments.json"
        pm_path.write_text(json.dumps(pm))
        instr_path.write_text(json.dumps(instruments))
        assert main(["pm-eval", "--process", str(pm_path), "--instruments", str(instr_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        error = json.loads(line)
        assert error["error"] == "InvalidTable"
        assert error["message"].startswith("the trace rule overflows")

    @pytest.mark.parametrize(
        "entry",
        ["process", "correlation", "game-payoff", "game-setting-weight"],
    )
    def test_rational_with_a_long_exponent_exits_two_at_once(self, tmp_path, entry):
        # Fraction would compute 10^10000000 in full, for seconds, before failing
        path = tmp_path / "long-exponent.json"
        long = "1e-10000000"
        one = {"settings": [1], "outcomes": [2], "inputs": [1], "outputs": [1]}
        if entry == "process":
            document = {"scenario": dict(one, outcomes=[1], inputs=[2]), "p": [[long], ["1"]]}
            args = ("check-consistency", str(path))
        elif entry == "correlation":
            document = {"scenario": one, "p": [[long], ["1"]]}
            args = ("classify", str(path))
        else:
            payoff, weight = ([[long], ["0"]], "1") if entry == "game-payoff" else ([["1"], ["0"]], long)
            document = {"scenario": one, "payoff": payoff, "settings": [weight]}
            args = ("bound", "--game", str(path), "--set", "causal")
        path.write_text(json.dumps(document))
        started = time.monotonic()
        proc = run_cli(*args)
        assert time.monotonic() - started < 1.0
        assert proc.returncode == 2
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert json.loads(line) == {
            "error": "InvalidTable",
            "message": f"cannot parse rational {long!r}: its exponent exceeds 4300",
        }

    @pytest.mark.parametrize("bound_set", ["causal", "pc"])
    def test_values_too_long_to_print_exit_two(self, tmp_path, capsys, bound_set):
        # 10^4300 has 4,301 digits, one past what str() of an int will write
        one = {"settings": [1], "outcomes": [2], "inputs": [1], "outputs": [1]}
        path = tmp_path / "long-value.json"
        path.write_text(json.dumps({"scenario": one, "payoff": [["1e4300"], ["0"]], "settings": ["1"]}))
        assert main(["bound", "--game", str(path), "--set", bound_set]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert json.loads(line) == {
            "error": "InvalidTable",
            "message": "cannot parse rational '1e4300': its numerator has more than 4300 digits",
        }
        path.write_text(json.dumps({"scenario": one, "payoff": [["1e4299"], ["0"]], "settings": ["1"]}))
        assert main(["bound", "--game", str(path), "--set", bound_set]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["value"] == str(10**4299)

    def test_a_long_bad_value_is_echoed_in_part(self, tmp_path, capsys):
        # the denominator's 4,400 digits fail Python's integer-string limit
        one = {"settings": [1], "outcomes": [2], "inputs": [1], "outputs": [1]}
        path = tmp_path / "long-denominator.json"
        bad = "1/" + "9" * 4400
        path.write_text(json.dumps({"scenario": one, "payoff": [[bad], ["0"]], "settings": ["1"]}))
        assert main(["bound", "--game", str(path), "--set", "causal"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        error = json.loads(line)
        assert error["error"] == "InvalidTable"
        assert error["message"].startswith(f"cannot parse rational {bad[:40]!r}... (4402 characters): ")
        assert len(line) < 400

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

    @pytest.mark.parametrize(
        "args",
        [
            ("check-consistency", "DEEP"),
            ("classify", "DEEP"),
            ("classify", "POINT", "--witness", "DEEP"),
            ("bound", "--game", "DEEP", "--set", "causal"),
            ("pm-eval", "--process", "DEEP"),
        ],
        ids=["check-consistency", "classify", "classify-witness", "bound-game", "pm-eval-process"],
    )
    def test_deeply_nested_document_exits_two(self, tmp_path, args):
        # nested past the JSON parser's recursion limit
        files = {"DEEP": tmp_path / "deep.json", "POINT": tmp_path / "point.json"}
        files["DEEP"].write_text("[" * 100_000 + "]" * 100_000)
        ser.dump_json(str(files["POINT"]), ser.correlation_to_json(gyni_perfect_correlation()))
        proc = run_cli(*(str(files[arg]) if arg in files else arg for arg in args))
        assert proc.returncode == 2
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert json.loads(line) == {
            "error": "InvalidTable", "message": f"{files['DEEP']}: JSON document nested too deeply"
        }


# Commands that reach no array: a causal bound, the canonical PC bounds (exact
# LP rows from the output-choice enumeration), a rejected game name, and a
# survey that its work cap stops before it starts.
LEAN_COMMANDS = pytest.mark.parametrize(
    "args, code",
    [
        (("bound", "--game", "chsh", "--set", "causal"), 0),
        *((("bound", "--game", game, "--set", "pc"), 0) for game in ("chsh", "gyni", "gynin", "ocb")),
        (("bound", "--game", "no-such-game", "--set", "dc"), 2),
        (("enum-pf", "--parties", "4", "--alphabet", "2", "--reduced"), 3),
        (("enum-pf", "--parties", "65", "--alphabet", "1"), 3),
    ],
    ids=["causal-bound", "pc-chsh", "pc-gyni", "pc-gynin", "pc-ocb", "unknown-game",
         "four-party-cap", "sixty-five-party-axes"],
)

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

    @LEAN_COMMANDS
    def test_lean_command(self, args, code):
        assert self.probe(*args) == (code, False)

    def test_vertex_test_of_a_consistent_file(self, tmp_path):
        from causelab.games import bfw_process

        path = tmp_path / "bfw.json"
        ser.dump_json(str(path), ser.quasiprocess_to_json(bfw_process()))
        assert self.probe("check-consistency", path) == (0, False)

    def test_vertex_test_of_an_inconsistent_file(self, grandfather_file):
        assert self.probe("check-consistency", grandfather_file) == (1, False)

    def test_dc_search_loads_numpy(self):
        assert self.probe("bound", "--game", "gynin", "--set", "dc") == (0, True)


CODEGEN_PROBE = """
import contextlib, io, json, sys
from causelab.cli import main
code = None
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(sys.argv[1:])
loaded = {"dataclasses", "inspect", "ast", "dis", "tokenize"} & set(sys.modules)
print(json.dumps([code, sorted(loaded)]))
"""


class TestImportGeneratesNoCode:
    """Import and the lean commands load none of the stdlib's code-generation
    and introspection modules.  numpy imports ``inspect`` itself, so commands
    that reach an array are not held to this."""

    @staticmethod
    def probe(*args):
        proc = subprocess.run(
            [sys.executable, "-c", CODEGEN_PROBE, *args],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_import(self):
        assert self.probe() == [None, []]

    @LEAN_COMMANDS
    def test_lean_command(self, args, code):
        assert self.probe(*args) == [code, []]


NUMPY_MA_PROBE = """
import contextlib, io, sys
from causelab import games
from causelab.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    exec(sys.argv[1])
print("numpy._core" in sys.modules, "numpy.ma" in sys.modules)
"""


@pytest.mark.parametrize(
    "statement",
    [
        "games.classify(games.gyni_perfect_correlation(), (games.builtin_gyni(),))",
        "games.classify(games.pr_box_correlation(), (games.builtin_chsh(),))",
        "games.dc_bound(games.builtin_gynin())",
        "assert main(['hierarchy-demo']) == 0",
    ],
    ids=["classify-gyni-perfect", "classify-pr-box", "dc-bound-gynin", "hierarchy-demo"],
)
def test_numeric_requests_leave_numpy_ma_unloaded(statement):
    # numpy.ma costs about a megabyte of resident memory and nothing here uses
    # masked arrays; np.unique loads it when called without a return_* flag
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_MA_PROBE, statement],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]


@pytest.fixture(scope="module")
def oversized_files(tmp_path_factory):
    """A six-party binary game, a game and a behaviour whose first party has 30
    inputs, the uniform behaviour of four binary parties, one-letter games of 40,
    64 and 1,000 parties, the 40-party table, the 1,000-party process, a 33-party
    process matrix, a game of two 40-setting parties with one outcome each, and
    a game whose payoff overflows 64-bit scoring."""
    from causelab.quantum import ProcessMatrix

    out = tmp_path_factory.mktemp("oversized")
    six = make_scenario(6, 2, 2, 2, 2)
    n_a = six.n_settings
    four = make_scenario(4, 2, 2, 2, 2)
    wide = Scenario(settings=(1, 1), outcomes=(2, 2), inputs=(30, 1), outputs=(2, 2))
    forty, thousand = make_scenario(40, 1, 1, 1, 1), make_scenario(1000, 1, 1, 1, 1)
    forty_settings = make_scenario(2, 40, 1, 1, 1)
    documents = {
        "six_party": ser.game_to_json(Game(six, (0,) * (six.n_outcomes * n_a), (Fraction(1, n_a),) * n_a)),
        "thirty_inputs": ser.game_to_json(Game(wide, (1, 0, 0, 0), (1,))),
        "thirty_correlation": ser.correlation_to_json(Correlation(wide, (Fraction(1, 4),) * 4)),
        "four_uniform": ser.correlation_to_json(Correlation(four, (Fraction(1, 16),) * 256)),
        "forty_party": ser.game_to_json(Game(forty, (1,), (1,))),
        "sixty_four_party": ser.game_to_json(Game(make_scenario(64, 1, 1, 1, 1), (1,), (1,))),
        "thousand_party": ser.game_to_json(Game(thousand, (1,), (1,))),
        "forty_correlation": ser.correlation_to_json(Correlation(forty, (1,))),
        "thousand_process": ser.quasiprocess_to_json(QuasiProcess(thousand, (1,))),
        "thirty_three_pm": ser.process_matrix_to_json(
            ProcessMatrix(make_scenario(33, 1, 1, 1, 1), [[1.0]])
        ),
        "forty_settings": ser.game_to_json(Game(forty_settings, (1,) * 1600, (Fraction(1, 1600),) * 1600)),
        "huge_payoff": ser.game_to_json(Game(make_scenario(1, 1, 2, 1, 1), (2**62, 0), (1,))),
    }
    for name, document in documents.items():
        ser.dump_json(str(out / f"{name}.json"), document)
    return {name: str(out / f"{name}.json") for name in documents}


class TestEnumPf:
    def test_two_party_reduced(self):
        proc = run_cli("enum-pf", "--parties", "2", "--alphabet", "2", "--reduced")
        assert proc.returncode == 0
        data = report(proc)
        assert data["result"]["count"] == 12

    @pytest.mark.parametrize("parties, alphabet", [(1, 2), (2, 2), (2, 3), (3, 2)])
    def test_reduced_flag_changes_only_the_config_echo(self, parties, alphabet):
        args = ("enum-pf", "--parties", str(parties), "--alphabet", str(alphabet))
        started = time.monotonic()
        plain = run_cli(*args)
        elapsed = time.monotonic() - started
        flagged = run_cli(*args, "--reduced")
        assert plain.returncode == flagged.returncode == 0, plain.stderr
        assert report(plain)["result"] == report(flagged)["result"]
        assert report(plain)["config"]["reduced"] is False
        assert report(flagged)["config"]["reduced"] is True
        if (parties, alphabet) == (3, 2):
            assert elapsed < 2.0
        if (parties, alphabet) == (2, 3):
            assert report(plain)["result"]["count"] == 153

    @pytest.mark.parametrize(
        "args, message",
        [
            # 2^32 reduced candidates equal CANDIDATE_CAP; the survey's work estimate stops it
            (["enum-pf", "--parties", "4", "--alphabet", "2", "--reduced"],
             "the survey needs about 17592186044416 steps (4294967296 candidates x "
             "256 output choices x 16 joint inputs), above the work cap 10000000000"),
            # the candidate count is read from the scenario, before any candidate table exists
            (["enum-pf", "--parties", "5", "--alphabet", "2"],
             "at least 2^80 candidates exceed the cap 4294967296"),
            (["enum-pf", "--parties", "6", "--alphabet", "2", "--reduced"],
             "at least 2^192 candidates exceed the cap 4294967296"),
            (["enum-pf", "--parties", "300", "--alphabet", "2"],
             f"at least 2^{300 * 2**299} candidates exceed the cap 4294967296"),
            (["bound", "--game", "{six_party}", "--set", "dc"],
             "at least 2^192 candidates exceed the cap 4294967296"),
            # the DC search builds no output-choice table (2^30 maps of 30 inputs) before a cap
            (["bound", "--game", "{thirty_inputs}", "--set", "dc"],
             "the survey needs about 57982058496000 steps (900 candidates x 2147483648 output "
             "choices x 30 joint inputs), above the work cap 10000000000"),
            # the state count, 2^n - 1 for one-letter parties, is read before the recursion
            (["bound", "--game", "{forty_party}", "--set", "causal"],
             "causal recursion exceeds 500000 states"),
            (["bound", "--game", "{thousand_party}", "--set", "causal"],
             "causal recursion exceeds 500000 states"),
            # one candidate and one output choice, but one projection axis per party
            (["enum-pf", "--parties", "65", "--alphabet", "1"],
             "the survey's candidate projection needs 65 array axes, above numpy's limit of 64"),
            # the DC search's outcome offsets: one axis per party, plus rows and settings
            (["bound", "--game", "{sixty_four_party}", "--set", "dc"],
             "the DC search needs 66 array axes, above numpy's limit of 64"),
            # one class-grid axis per (party, setting), plus the grid's own
            (["bound", "--game", "{forty_settings}", "--set", "dc"],
             "a class grid needs 81 array axes, above numpy's limit of 64"),
            (["pm-eval", "--process", "{thirty_three_pm}", "--instruments", "canonical"],
             "the trace rule needs 66 array axes, above numpy's limit of 64"),
            # a payoff numerator of 2^62 would overflow the search's int64 sums
            (["bound", "--game", "{huge_payoff}", "--set", "dc"],
             "scaled payoff would overflow 64-bit accumulation"),
        ],
        ids=["four-binary", "five-binary", "six-binary-reduced", "300-binary", "six-party-dc",
             "thirty-inputs-dc", "forty-party-causal", "thousand-party-causal",
             "sixty-five-party-enum", "sixty-four-party-dc", "forty-settings-dc",
             "thirty-three-party-pm-eval", "huge-payoff-dc"],
    )
    def test_default_caps_stop_four_binary_parties_at_once(self, oversized_files, args, message):
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", LIMITED_CLI, *(a.format(**oversized_files) for a in args)],
            capture_output=True, text=True, timeout=30,
        )
        assert time.monotonic() - started < (1.0 if args[2] == "4" else 2.0)  # four parties: 1 s
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert json.loads(line) == {"error": "SearchSpaceTooLarge", "message": message}

    def test_classify_reports_unknown_dc_before_building_output_choices(self, oversized_files):
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", LIMITED_CLI, "classify", oversized_files["thirty_correlation"]],
            capture_output=True, text=True, timeout=30,
        )
        assert time.monotonic() - started < 2.0
        assert proc.returncode == 0, proc.stderr
        (line,) = proc.stderr.splitlines()
        assert list(json.loads(line)) == ["runtime_ms"]
        assert report(proc)["result"]["dc"] == {
            "status": "unknown",
            "certificate": {
                "downgraded": "vertex enumeration needs 2147483648 steps per distinct "
                "fixed-point row (2147483648 outcome-map families x 1 settings), above the "
                "work cap 20000000"
            },
        }

    def test_classify_reports_unknown_dc_at_the_survey_cap(self, oversized_files):
        # the survey's work cap stops the vertex gather: DC alone is "unknown",
        # and the qC and PC verdicts are still reported
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", LIMITED_CLI, "classify", oversized_files["four_uniform"]],
            capture_output=True, text=True, timeout=30,
        )
        assert time.monotonic() - started < 2.0
        assert proc.returncode == 0, proc.stderr
        result = report(proc)["result"]
        assert (result["qc"]["status"], result["pc"]["status"]) == ("in", "in")
        assert result["dc"] == {
            "status": "unknown",
            "certificate": {
                "downgraded": "the survey needs about 17592186044416 steps (4294967296 "
                "candidates x 256 output choices x 16 joint inputs), above the work cap "
                "10000000000"
            },
        }

    def test_forty_one_letter_parties_enumerate_their_one_function(self):
        # the survey's candidate projection needs one axis per party
        proc = run_cli("enum-pf", "--parties", "40", "--alphabet", "1")
        assert proc.returncode == 0, proc.stderr
        assert report(proc)["result"]["count"] == 1
        assert report(proc)["result"]["functions"] == [[[0]] * 40]

    def test_forty_one_letter_parties_get_a_replaying_dc_bound(self, oversized_files):
        # the DC search needs at most two axes more than the parties
        proc = run_cli("bound", "--game", oversized_files["forty_party"], "--set", "dc")
        assert proc.returncode == 0, proc.stderr
        result = report(proc)["result"]
        assert result["value"] == "1"
        # replay the witness: a process function, whose correlation under the
        # witness intervention scores the reported value
        witness = result["witness"]
        omega = ser.process_function_from_json(witness["process_function"])
        assert is_process_function(omega).is_process_function
        as_tuples = lambda maps: tuple(tuple(map(tuple, party)) for party in maps)
        intervention = DeterministicIntervention(
            as_tuples(witness["intervention"]["output_maps"]),
            as_tuples(witness["intervention"]["outcome_maps"]),
        )
        game = ser.game_from_json(ser.load_json(oversized_files["forty_party"]))
        replay = evaluate_correlation(
            quasiprocess_from_function(omega), intervention.to_family(omega.scenario)
        )
        assert score(game, replay.to_correlation()) == Fraction(result["value"])

    def test_many_one_letter_parties_get_every_verdict_numpy_allows(self, oversized_files):
        # the vertex test and the PC LP are Python-integer code with no party axes;
        # the DC survey needs one numpy axis per party and the DC search two more
        for args in (
            ["check-consistency", oversized_files["thousand_process"]],
            ["bound", "--game", oversized_files["thousand_party"], "--set", "pc"],
        ):
            proc = run_cli(*args)
            assert proc.returncode == 0, proc.stderr
        proc = run_cli("classify", oversized_files["forty_correlation"])
        assert proc.returncode == 0, proc.stderr
        result = report(proc)["result"]
        assert (result["qc"]["status"], result["pc"]["status"]) == ("in", "in")
        assert result["dc"] == {
            "status": "in",
            "certificate": {"n_vertices": 1, "support": [{"vertex_index": 0, "weight": "1"}]},
        }
        # one joint outcome at one joint setting: the only deterministic behaviour is (1,)
        vertices = [(Fraction(1),)]
        support = result["dc"]["certificate"]["support"]
        table = ser.correlation_from_json(ser.load_json(oversized_files["forty_correlation"])).table
        rebuilt = [
            sum(Fraction(s["weight"]) * vertices[s["vertex_index"]][j] for s in support)
            for j in range(len(table))
        ]
        assert rebuilt == list(table)

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

    def test_known_pc_bound_witness_puts_the_point_out_of_pc(self, tmp_path, capsys):
        # the canonical realization of gyni-perfect is inconsistent, so PC is
        # "unknown" until a witness game carries an unrestricted bound it beats
        from fractions import Fraction

        from causelab.games import Game, builtin_gyni

        point, game = tmp_path / "gyni-perfect.json", tmp_path / "gyni-pc.json"
        ser.dump_json(str(point), ser.correlation_to_json(gyni_perfect_correlation()))
        gyni = builtin_gyni()
        witness = Game(
            gyni.scenario, gyni.payoff, gyni.setting_dist, gyni.name, known_pc_bound=Fraction(1, 2)
        )
        ser.dump_json(str(game), ser.game_to_json(witness))
        assert main(["classify", str(point)]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["pc"]["status"] == "unknown"
        assert main(["classify", str(point), "--witness", str(game)]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["pc"] == {
            "status": "out",
            "certificate": {"witness": "gyni", "score": "1", "known_pc_bound": "1/2"},
        }
        assert result["dc"]["status"] == "out"

    def test_capped_witness_leaves_the_hull_verdict(self, tmp_path, capsys):
        # gyni's 16 reduced candidates meet a candidate cap of 10 in the hull
        # step and again in the witness's dc_bound; a witness that cannot
        # decide leaves the report as it is without the witness
        path = tmp_path / "gyni-perfect.json"
        ser.dump_json(str(path), ser.correlation_to_json(gyni_perfect_correlation()))
        assert main(["--cap-candidates", "10", "classify", str(path), "--witness", "gyni"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert main(["--cap-candidates", "10", "classify", str(path)]) == 0
        assert result == json.loads(capsys.readouterr().out)["result"]
        assert [result[s]["status"] for s in ("qc", "pc", "dc")] == ["in", "unknown", "unknown"]
        assert result["dc"]["certificate"] == {"downgraded": "16 candidates exceed the cap 10"}

    def test_pc_cap_reports_unknown_and_keeps_the_qc_verdict(self, tmp_path):
        # the canonical scenario of three parties with 4 settings and outcomes has
        # 2^24 output choices x 64 joint inputs, so the PC vertex test meets its
        # cell cap; the qC replay reads one term per (settings, inputs) pair
        sc = make_scenario(3, 4, 4, 1, 1)
        path = tmp_path / "uniform.json"
        uniform = (Fraction(1, sc.n_outcomes),) * (sc.n_outcomes * sc.n_settings)
        ser.dump_json(str(path), ser.correlation_to_json(Correlation(sc, uniform)))
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", LIMITED_CLI, "classify", str(path)],
            capture_output=True, text=True, timeout=60,
        )
        assert time.monotonic() - started < 5.0
        assert proc.returncode == 0, proc.stderr
        result = report(proc)["result"]
        assert [result[s]["status"] for s in ("qc", "pc", "dc")] == ["in", "unknown", "unknown"]
        assert result["pc"]["certificate"] == {
            "downgraded": "the output-choice table needs 1073741824 cells (16777216 output "
            "choices x 64 joint inputs), above the cap 4194304"
        }

    def test_missing_file_is_bad_input(self):
        proc = run_cli("classify", "/nonexistent/corr.json")
        assert proc.returncode == 2


def ocb_instruments_with(edit) -> dict:
    """ocb's instruments document after ``edit(parties)``."""
    from causelab.quantum import builtin_ocb as builtin_ocb_process

    document = ser.instruments_to_json(builtin_ocb_process()[1])
    edit(document["parties"])
    return document


def _set_entries(operator: list, entries: dict) -> None:
    for index, pair in entries.items():
        operator[index] = pair


class TestPmEval:
    @pytest.mark.parametrize(
        "edit, error, message",
        [
            (lambda parties: parties[0]["operators"][1].pop(),
             "InvalidTable", "instrument needs the same outcome count for every setting"),
            (lambda parties: parties[0]["operators"][0][1].__delitem__(slice(4, None)),
             "InvalidTable", "instrument party 0 operator needs 16 entries, got 4"),
            (lambda parties: _set_entries(parties[1]["operators"][1][0], {3: [float("inf"), 0.0]}),
             "InvalidTable", "matrix contains non-finite entries"),
            (lambda parties: _set_entries(parties[1]["operators"][0][1], {1: [1e308, 0.0], 4: [1e308, 0.0]}),
             "InvalidTable", "matrix entries overflow w + w^H"),
            (lambda parties: parties[0].update(d_in=0),
             "InvalidTable", "instrument party 0: d_in and d_out must be positive integers"),
            (lambda parties: parties[1].update(d_out=4.0),
             "InvalidTable", "instrument party 1: d_in and d_out must be positive integers"),
            # a valid discard-and-report instrument on trivial systems, where ocb's are qubits
            (lambda parties: parties[0].update(d_in=1, d_out=1, operators=[[[[0.5, 0.0]]] * 2] * 2),
             "ScenarioMismatch", "instrument 0 dimensions do not match the scenario"),
            (lambda parties: parties[1]["operators"].__delitem__(slice(2, None)),
             "ScenarioMismatch", "instrument 1 alphabet sizes do not match the scenario"),
        ],
        ids=["ragged-outcomes", "two-operator-shapes", "non-finite", "hermitian-overflow",
             "zero-d-in", "float-d-out", "dimensions-mismatch", "settings-mismatch"],
    )
    def test_bad_instruments_file_exits_two(self, tmp_path, capsys, edit, error, message):
        path = tmp_path / "instruments.json"
        path.write_text(json.dumps(ocb_instruments_with(edit)))
        assert main(["pm-eval", "--process", "ocb", "--instruments", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert json.loads(line) == {"error": error, "message": message}

    def test_trace_rule_cap_exits_three_at_once(self, tmp_path, capsys):
        # two parties with 100 settings x 100 outcomes of 1x1 operators: a 300 KB
        # file whose 10^8 trace-rule tuples would take over an hour
        scenario = {"settings": [100] * 2, "outcomes": [100] * 2, "inputs": [1] * 2, "outputs": [1] * 2}
        party = {"d_in": 1, "d_out": 1, "operators": [[[[0.01, 0.0]]] * 100] * 100}
        pm_path, instr_path = tmp_path / "pm.json", tmp_path / "instruments.json"
        pm_path.write_text(json.dumps({"scenario": scenario, "w": [[1.0, 0.0]]}))
        instr_path.write_text(json.dumps({"parties": [party, party]}))
        started = time.monotonic()
        code = main(["pm-eval", "--process", str(pm_path), "--instruments", str(instr_path)])
        assert time.monotonic() - started < 1.0
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert json.loads(line) == {
            "error": "SearchSpaceTooLarge",
            "message": "the trace rule needs 409600000000 steps (100000000 instrument tuples "
            "x 4096 entries), above the work cap 1000000000",
        }

    @pytest.mark.parametrize(
        "game, error, message",
        [
            ("nosuch", "InvalidTable", "unknown game 'nosuch': not a built-in name or a readable file"),
            ("MISSING", "InvalidTable", "unknown game 'MISSING': not a built-in name or a readable file"),
            ("gyni", "ScenarioMismatch", "game and correlation alphabets differ"),
        ],
        ids=["unknown-name", "missing-file", "other-alphabets"],
    )
    def test_bad_game_is_refused_before_validity(self, tmp_path, monkeypatch, capsys, game, error, message):
        import causelab.cli

        def no_validity(pm):
            raise AssertionError("validity ran before the game was checked")

        monkeypatch.setattr(causelab.cli, "is_valid_process_matrix", no_validity)
        missing = str(tmp_path / "missing.json")
        game, message = game.replace("MISSING", missing), message.replace("MISSING", missing)
        assert main(["pm-eval", "--process", "bfw", "--game", game]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert json.loads(line) == {"error": error, "message": message}

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


    def test_family_cell_cap_exits_three(self, tmp_path):
        # one party with 12-level input and output passes the validity work cap,
        # but its 20,593 family matrices of 144 x 144 would take 6.4 GiB; a child
        # under a 2 GiB address-space limit must exit 3 with the estimate
        import numpy as np

        from causelab.quantum import ProcessMatrix

        pm = ProcessMatrix(make_scenario(1, 12, 12, 12, 12), np.eye(144) / 12)
        path = tmp_path / "twelve.json"
        ser.dump_json(str(path), ser.process_matrix_to_json(pm))
        proc = subprocess.run(
            [sys.executable, "-c", LIMITED_CLI, "pm-eval", "--process", str(path),
             "--instruments", "canonical"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert json.loads(line) == {
            "error": "SearchSpaceTooLarge",
            "message": "process-matrix validity needs 427016448 cells of normalization "
            "families (sum over parties of family size x local dimension^2), above the cap "
            "16777216",
        }

    def test_canonical_instrument_cap_exits_three(self, tmp_path):
        # one party with 24-level input and output: 24 x 24 dense 576 x 576
        # canonical operators would take 2.85 GiB; a child under a 2 GiB
        # address-space limit must exit 3 before allocating them
        import numpy as np

        from causelab.quantum import ProcessMatrix

        pm = ProcessMatrix(make_scenario(1, 24, 24, 24, 24), np.eye(576) / 24)
        path = tmp_path / "twenty-four.json"
        ser.dump_json(str(path), ser.process_matrix_to_json(pm))
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", LIMITED_CLI, "pm-eval", "--process", str(path),
             "--instruments", "canonical"],
            capture_output=True, text=True, timeout=60,
        )
        assert time.monotonic() - started < 5.0
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        (line,) = proc.stderr.splitlines()
        assert json.loads(line) == {
            "error": "SearchSpaceTooLarge",
            "message": "classical instruments need 191102976 operator entries (sum over "
            "parties of settings x outcomes x local dimension^2), above the cap 16777216",
        }


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

    def test_cap_vertices_option_removed(self, capsys):
        # the hull LP's size cap is the only vertex limit; the old flag is unknown
        with pytest.raises(SystemExit) as exited:
            main(["classify", "point.json", "--cap-vertices", "5"])
        assert exited.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("flag", ["--cap-candidates"])
    @pytest.mark.parametrize("command", ["classify", "enum-pf"])
    def test_caps_below_one_rejected(self, tmp_path, capsys, command, flag, value):
        path = tmp_path / "gyni-perfect.json"
        ser.dump_json(str(path), ser.correlation_to_json(gyni_perfect_correlation()))
        args = [str(path)] if command == "classify" else ["--parties", "2", "--alphabet", "2"]
        assert main([command, *args, flag, value]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert json.loads(line) == {
            "error": "bad-input", "message": f"{flag} must be at least 1, got {value}"
        }

    def test_seed_option_removed(self, capsys):
        # nothing in causelab is random; reports no longer echo a seed
        with pytest.raises(SystemExit) as exited:
            main(["--seed", "7", "bound", "--game", "gyni", "--set", "causal"])
        assert exited.value.code == 2
        assert capsys.readouterr().out == ""

    def test_text_format(self):
        proc = run_cli("--format", "text", "bound", "--game", "gyni", "--set", "causal")
        assert proc.returncode == 0
        assert "causal bound for gyni: 1/2" in proc.stdout

    @pytest.mark.parametrize(
        "fmt, args",
        [
            (fmt, args)
            for args in (
                ["check-consistency", "bfw.json"],
                ["enum-pf", "--parties", "2", "--alphabet", "2"],
                ["bound", "--game", "gyni", "--set", "dc"],
                ["classify", "gyni-perfect.json", "--witness", "gyni"],
                ["pm-eval", "--process", "ocb"],
                ["hierarchy-demo"],
            )
            for fmt in ("json", "text", "csv")
            if fmt != "csv" or args[0] == "bound"
        ],
    )
    def test_success_writes_only_the_runtime_to_stderr(self, tmp_path, monkeypatch, fmt, args):
        from causelab.games import bfw_process

        monkeypatch.chdir(tmp_path)
        ser.dump_json("bfw.json", ser.quasiprocess_to_json(bfw_process()))
        ser.dump_json("gyni-perfect.json", ser.correlation_to_json(gyni_perfect_correlation()))
        proc = run_cli("--format", fmt, *args)
        assert proc.returncode == 0, proc.stderr
        (line,) = proc.stderr.splitlines()
        runtime = json.loads(line)
        assert list(runtime) == ["runtime_ms"] and type(runtime["runtime_ms"]) is int

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "args",
        [
            ["bound", "--game", "gyni", "--set", "causal"],
            ["enum-pf", "--parties", "3", "--alphabet", "2", "--reduced"],
        ],
        ids=["bound", "enum-pf"],
    )
    def test_closed_stdout_exits_141_silently(self, args, unbuffered):
        # a small buffered report fails at the final flush, a large or unbuffered
        # one inside the handler; neither is bad input
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "causelab", *args],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == b""


    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "args, code",
        [
            (["bound", "--game", "gyni", "--set", "causal"], 0),
            (["bound", "--game", "nope", "--set", "causal"], 2),
            (["--cap-candidates", "0", "enum-pf", "--parties", "2", "--alphabet", "2"], 2),
            (["enum-pf", "--parties", "4", "--alphabet", "2", "--reduced"], 3),
        ],
        ids=["success", "bad-input", "bad-option", "cap"],
    )
    def test_closed_stderr_keeps_the_exit_code(self, args, code, unbuffered):
        # the runtime and error lines are lost with their reader; the report and
        # the exit code are not
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "causelab", *args],
                stdout=subprocess.PIPE, stderr=write_end, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == code
        expected = subprocess.run(
            [sys.executable, "-m", "causelab", *args], capture_output=True, env=env, timeout=120
        )
        assert expected.returncode == code
        assert proc.stdout == expected.stdout


class TestGoldenReports:
    """stdout of whole reports, pinned by SHA-256: a refactor keeps them byte-identical."""

    DIGESTS = [
        ("bound --game gynin --set causal", 0, "b59710f70e5931500ed3b4e3adc6f26bec22cf695eb2c4a6b1952ca5d4a54860"),
        ("bound --game gynin --set dc", 0, "363a3f56150f66be1dc798f6dc5b39405817f1f7a6c30e7f71d6641b882b11de"),
        ("bound --game gynin --set pc", 0, "857b8f8e37e32e4f085a640e39693ceeb80a9398e492a56d963fc61012fc1d6f"),
        ("bound --game gyni --set causal", 0, "bf1e9d30d43133a3490f7fdbba6c691f9e6c6c058d60abe080cb17862cbe9335"),
        ("bound --game gyni --set dc", 0, "e5939a60d80e622d3eeb62d9a649870fba9f2546ccd1f97e42a018910b8ce8a1"),
        ("bound --game gyni --set pc", 0, "b0fff57fd4cf7ac15591674729158a3d13e7c4268b779437f351b40e4201d150"),
        ("bound --game ocb --set causal", 0, "8a2777f58cddcedc767412b53d5a1116bcfbad91dd4f67febe9470827e09cf6b"),
        ("bound --game ocb --set dc", 0, "ae1d1f101a624ba3b71a6a22eb243af8e6d598ed9c59d4d5d2f76f14328cf8c0"),
        ("bound --game ocb --set pc", 0, "5ed341c2afa31f59890ce89f36519aabeaa39a37826b4a989af84496a14f6480"),
        ("bound --game chsh --set causal", 0, "0c8424cb7718e723d0072cf5342302c8a1f03bb68a7b58f0d7704869bc2b0b49"),
        ("bound --game chsh --set dc", 0, "e2f129526e35f5f8d02729053a912e2a01ed199db195d0916b9141d4b7f2245f"),
        ("bound --game chsh --set pc", 0, "14809fc11cc7dfbe34937f85aff3a3835681902f557586753c7d8778dc657a52"),
        ("classify gynin-perfect.json --witness gynin", 0, "b0528a051227cc605b472a66342cb9541f456462e1217286c415175b4c17b309"),
        ("classify gyni-perfect.json --witness gyni", 0, "50ee59b69e4b68acdcec1a6b55f07ad445b17b31883a3f9e6f5d397f454ca29c"),
        ("classify pr-box.json --witness chsh", 0, "3443ea228568988b1e14d97dd50772504c5f8e62a0f1143548c7b44c12fa059c"),
        ("hierarchy-demo", 0, "0e2cd7d95b82294592af09e47d717ece91ed3a1b4b2b69f6d069fa1be259bc4f"),
        ("enum-pf --parties 3 --alphabet 2 --reduced", 0, "2fdcabfd91a3736245a0c28b2e3f4fe9f076b82ccdaff5bcfea0775670f7bc9f"),
        ("check-consistency bfw.json", 0, "85e5de94557791055c7b6a83cbed8f03145924158001337514b6c3d0d1d0ba02"),
        ("check-consistency grandfather.json", 1, "00f5c69ff6b1e817a9c5e9d09e6dcfb39ce92cbf0aae9af03ad6a9e69c55a0b5"),
        ("--format text bound --game gynin --set dc", 0, "9a0f7127b6cd250f6ab9e56c9ef45e0d0999faac8fde3e997122775f4f5295ea"),
        ("--format text classify gynin-perfect.json --witness gynin", 0, "a60deabac0d8302a6dd40f0eeeeffb0de89c899752932ac73567bb52730009f6"),
        ("--format text enum-pf --parties 2 --alphabet 2", 0, "a07f7fec0a6bb557dfbf95e14f3883f02e1b86df952d32121b94fd7cfb222d08"),
        ("--format text hierarchy-demo", 0, "6551159755ece6c6b13dcb9ca72ebb30a5624da016a19ce4f25e6e9e3f1ddb52"),
        # the text line rounds the score to 9 decimals; the JSON report's
        # eigenvalue floats depend on the linear-algebra backend, so it stays unpinned
        ("--format text pm-eval --process ocb", 0, "7123b2d212ea0b9b25fe7ecfb44b8694f8872b14eb981dfbbadc504b5b18a3d6"),
        ("--format csv bound --game gyni --set pc", 0, "cdbf6b0297f256a8c3a623201da3e592f0833ad9f5c04f7df2b696f45ab62ee6"),
    ]

    @pytest.mark.parametrize("command, code, digest", DIGESTS, ids=[c for c, _, _ in DIGESTS])
    def test_stdout_digest(self, tmp_path, monkeypatch, capsys, grandfather_file, command, code, digest):
        from causelab.games import bfw_process

        monkeypatch.chdir(tmp_path)  # reports echo the input path as given
        ser.dump_json("bfw.json", ser.quasiprocess_to_json(bfw_process()))
        for name, corr in (
            ("gynin-perfect.json", gynin_perfect_correlation()),
            ("gyni-perfect.json", gyni_perfect_correlation()),
            ("pr-box.json", pr_box_correlation()),
        ):
            ser.dump_json(name, ser.correlation_to_json(corr))
        assert main(command.split()) == code
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
