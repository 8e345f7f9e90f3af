import random
from fractions import Fraction

import numpy as np
import pytest

from causelab import QuasiProcessFunction, canonical_interventions, make_scenario
from causelab.errors import InvalidTable
from causelab.games import Game, bfw_process, builtin_gynin, builtin_ocb
from causelab.quantum import builtin_bfw, builtin_ocb as builtin_ocb_process
from causelab import serialize as ser

from conftest import random_correlation


class TestRationals:
    def test_round_trip(self):
        assert ser.rational_from_json("5/8") == Fraction(5, 8)
        assert ser.rational_from_json(3) == 3
        assert ser.rational_to_str(Fraction(5, 8)) == "5/8"
        assert ser.rational_to_str(Fraction(1)) == "1"

    @pytest.mark.parametrize("bad", ["abc", "1/0", None, True, 2.5])
    def test_bad_values(self, bad):
        with pytest.raises(InvalidTable):
            ser.rational_from_json(bad)

    @pytest.mark.parametrize(
        "text, value",
        [("1e400", 10**400), ("-2.5E-3", Fraction(-1, 400)), ("1_0e0_4300", 10**4301)],
        ids=["1e400", "negative-decimal", "underscores-at-the-limit"],
    )
    def test_exponents_up_to_the_digit_limit_read_exactly(self, text, value):
        assert ser.rational_from_json(text) == value

    @pytest.mark.parametrize("text", ["1e4301", "1e-10000000", "1E+0_00_4301"])
    def test_exponents_past_the_digit_limit_rejected_at_once(self, text):
        with pytest.raises(InvalidTable, match="its exponent exceeds 4300"):
            ser.rational_from_json(text)


    @pytest.mark.parametrize(
        "text, part",
        [("1e4300", "numerator"), ("-1e4300", "numerator"), ("1e-4300", "denominator")],
    )
    def test_document_values_past_the_digit_limit_rejected(self, text, part):
        one = {"settings": [1], "outcomes": [2], "inputs": [1], "outputs": [1]}
        with pytest.raises(InvalidTable, match=f"its {part} has more than 4300 digits"):
            ser.game_from_json({"scenario": one, "payoff": [[text], ["0"]], "settings": ["1"]})
        with pytest.raises(InvalidTable, match=f"its {part} has more than 4300 digits"):
            ser.correlation_from_json({"scenario": one, "p": [[text], ["1"]]})

    def test_document_values_up_to_the_digit_limit_read(self):
        one = {"settings": [1], "outcomes": [2], "inputs": [1], "outputs": [1]}
        game = ser.game_from_json(
            {"scenario": one, "payoff": [["1e4299"], ["-1e-4299"]], "settings": ["1"]}
        )
        assert game.payoff == (10**4299, Fraction(-1, 10**4299))


class TestScenario:
    def test_round_trip(self):
        sc = make_scenario(2, (2, 4), 2, 2, (2, 4))
        assert ser.scenario_from_json(ser.scenario_to_json(sc)) == sc

    def test_party_count_checked(self):
        data = ser.scenario_to_json(make_scenario(2, 2, 2, 2, 2))
        data["parties"] = 3
        with pytest.raises(InvalidTable):
            ser.scenario_from_json(data)

    @pytest.mark.parametrize("count", [0, 2], ids=["no-party-tables", "extra-party-table"])
    def test_wrong_number_of_party_tables_rejected(self, count):
        data = ser.interventions_to_json(canonical_interventions(make_scenario(1, 2, 2, 2, 2)))
        data["parties"] = data["parties"][:1] * count
        with pytest.raises(InvalidTable, match="wrong number of party tables"):
            ser.interventions_from_json(data)


class TestTables:
    def test_quasiprocess_round_trip(self):
        qp = bfw_process()
        again = ser.quasiprocess_from_json(ser.quasiprocess_to_json(qp))
        assert again == qp

    def test_correlation_round_trip(self):
        corr = random_correlation(random.Random(2), make_scenario(2, 2, 2, 2, 2))
        assert ser.correlation_from_json(ser.correlation_to_json(corr)) == corr

    def test_interventions_round_trip(self):
        family = canonical_interventions(make_scenario(3, 2, 2, 2, 2))
        again = ser.interventions_from_json(ser.interventions_to_json(family))
        assert again == family

    def test_process_function_round_trip(self):
        sc = make_scenario(2, 2, 2, 2, 2)
        omega = QuasiProcessFunction(sc, ((0, 0, 1, 1), (0, 1, 0, 1)))
        again = ser.process_function_from_json(ser.process_function_to_json(omega))
        assert again == omega

    def test_game_round_trip(self):
        game = builtin_gynin()
        again = ser.game_from_json(ser.game_to_json(game))
        assert again == game

    def test_ocb_game_round_trip(self):
        game = builtin_ocb()
        assert ser.game_from_json(ser.game_to_json(game)) == game

    def test_known_pc_bound_round_trip(self):
        gynin = builtin_gynin()
        game = Game(
            gynin.scenario, gynin.payoff, gynin.setting_dist, gynin.name, known_pc_bound=Fraction(3, 4)
        )
        data = ser.game_to_json(game)
        assert data["known_pc_bound"] == "3/4"
        assert ser.game_from_json(data) == game
        assert "known_pc_bound" not in ser.game_to_json(builtin_gynin())

    def test_wrong_shape_rejected(self):
        data = ser.quasiprocess_to_json(bfw_process())
        data["p"] = data["p"][:-1]
        with pytest.raises(InvalidTable):
            ser.quasiprocess_from_json(data)


class TestQuantumObjects:
    def test_process_matrix_round_trip(self):
        pm, instruments = builtin_ocb_process()
        again = ser.process_matrix_from_json(ser.process_matrix_to_json(pm))
        assert again.scenario == pm.scenario
        assert np.array_equal(again.matrix, pm.matrix)

    def test_instruments_round_trip(self):
        _, instruments = builtin_bfw()
        again = ser.instruments_from_json(ser.instruments_to_json(instruments))
        assert len(again) == len(instruments)
        for a, b in zip(again, instruments):
            assert a.d_in == b.d_in and a.d_out == b.d_out
            for row_a, row_b in zip(a.operators, b.operators):
                for op_a, op_b in zip(row_a, row_b):
                    assert np.array_equal(op_a, op_b)

    @pytest.mark.parametrize("builtin", [builtin_bfw, builtin_ocb_process], ids=["bfw", "ocb"])
    def test_instruments_document_round_trips_unchanged(self, builtin):
        document = ser.instruments_to_json(builtin()[1])
        assert ser.instruments_to_json(ser.instruments_from_json(document)) == document

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "process.json"
        ser.dump_json(str(path), ser.quasiprocess_to_json(bfw_process()))
        assert ser.quasiprocess_from_json(ser.load_json(str(path))) == bfw_process()
