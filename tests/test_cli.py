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

from causelab import QuasiProcess, QuasiProcessFunction, make_scenario, quasiprocess_from_function
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
            "message": "DC scoring needs at least 11542724608 steps (688 distinct fixed-point "
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

    def test_known_pc_bound_witness_puts_the_point_out_of_pc(self, tmp_path, capsys):
        # the canonical realization of gyni-perfect is inconsistent, so PC is
        # "unknown" until a witness game carries an unrestricted bound it beats
        import dataclasses
        from fractions import Fraction

        from causelab.games import builtin_gyni

        point, game = tmp_path / "gyni-perfect.json", tmp_path / "gyni-pc.json"
        ser.dump_json(str(point), ser.correlation_to_json(gyni_perfect_correlation()))
        witness = dataclasses.replace(builtin_gyni(), known_pc_bound=Fraction(1, 2))
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
        ("bound --game gynin --set causal", "56cd8faabdcbd16bc32510bd2e17c79976ed4858d7853a1c0ffad35a36c6281e"),
        ("bound --game gynin --set dc", "35211ac678da9542e4d511eff90983dcddef54424e707b1042d64174900aeb2a"),
        ("bound --game gynin --set pc", "153f5ba5a838a08123d302cfdae1df917ba47f36c6d8c9c2a9a3572b025c4a7e"),
        ("bound --game gyni --set causal", "e1252e217e828d4b495c5e4a41355cbe27d8fb44d6d15eaf397e4630c10c98c5"),
        ("bound --game gyni --set dc", "3a4499a2826a927caa9a553457d538958113823d26d6125d8db272acd592e46c"),
        ("bound --game gyni --set pc", "7c2806d7326bb477292667a4e4d2730693575502c4e907aff536af840e865c6d"),
        ("bound --game ocb --set causal", "9245662e8f9c25e3bff5ac34057149dd8a05bce60522872156def300ca9a4f35"),
        ("bound --game ocb --set dc", "a3b9af8afd54ab1ed123a3a35daf31d06e13eece758da93f8f4c39fca85825b4"),
        ("bound --game ocb --set pc", "8ab4242db4f7490e6e1edea4af341514a288ac047c63e339d54fb3ee4dcdc399"),
        ("bound --game chsh --set causal", "fd0e2dcc2f03f24e32000dfae478bf232ce7a308beb8118ac35abb8dd2087f66"),
        ("bound --game chsh --set dc", "145c26b9dd01abef715ed4e401f8981eb3e5e59b75ad3300927b2ad19a3275bc"),
        ("bound --game chsh --set pc", "f0dadca11f55d6184dde6ffc7a5323a1eb8e10133851c584d25051a7f4a56568"),
        ("classify gynin-perfect.json --witness gynin", "beba68488e779c5c7bb4d94ed9fdf03dffe8928ed04bf6dec5a3c2b73c315624"),
        ("classify gyni-perfect.json --witness gyni", "6ba576512fa02d7d59cf9bc887e6c8c7ffb4e260f1fcea37770a41ca6870efb1"),
        ("classify pr-box.json --witness chsh", "231ae74a80a2d55701419b6f289156411bd673e1082f8e2714dd5441160def5f"),
        ("hierarchy-demo", "6cbbccbd1f100bf3131f93b2e81fc3aea245eb73e2a4ed6c38e96b160ea268a6"),
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
