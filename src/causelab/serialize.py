"""
JSON interchange for every on-disk object.

Rationals serialize as "num/den" strings (plain integers allowed on input).
Dense tables are two-dimensional arrays following the package flattening
convention: the object index (inputs, outcomes) picks the row, the
conditioner index (outputs, settings) the column.  Process matrices store a
flat row-major list of [re, im] pairs.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Sequence

import numpy as np

from .consistency import QuasiProcessFunction
from .errors import InvalidTable
from .games import Game
from .quantum import InstrumentCJ, NumericCorrelation, ProcessMatrix
from .scenario import Correlation, InterventionFamily, QuasiProcess, Scenario


def rational_to_str(value: Fraction) -> str:
    return str(Fraction(value))


def rational_from_json(value) -> Fraction:
    if isinstance(value, bool):
        raise InvalidTable(f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidTable(f"cannot parse rational {value!r}: {exc}") from None
    raise InvalidTable(f"expected a rational string, got {type(value).__name__}")


def scenario_to_json(scenario: Scenario) -> dict:
    return {
        "parties": scenario.n_parties,
        "settings": list(scenario.settings),
        "outcomes": list(scenario.outcomes),
        "inputs": list(scenario.inputs),
        "outputs": list(scenario.outputs),
    }


def _require_object(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise InvalidTable(f"{what}: expected a JSON object, got {type(data).__name__}")
    return data


def _require_list(data, what: str) -> list:
    if not isinstance(data, list):
        raise InvalidTable(f"{what}: expected a JSON array, got {type(data).__name__}")
    return data


def scenario_from_json(data: dict) -> Scenario:
    _require_object(data, "scenario")
    cards = {name: data[name] for name in ("settings", "outcomes", "inputs", "outputs")}
    if not all(isinstance(value, list) for value in cards.values()):
        raise InvalidTable("scenario: alphabet sizes must be JSON arrays")
    scenario = Scenario(**{name: tuple(value) for name, value in cards.items()})
    if "parties" in data and data["parties"] != scenario.n_parties:
        raise InvalidTable("party count disagrees with the alphabet lists")
    return scenario


def _table_to_rows(table: Sequence[Fraction], n_rows: int, n_cols: int) -> list[list[str]]:
    return [
        [rational_to_str(table[r * n_cols + c]) for c in range(n_cols)] for r in range(n_rows)
    ]


def _table_from_rows(rows, n_rows: int, n_cols: int, what: str) -> tuple[Fraction, ...]:
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise InvalidTable(f"{what}: expected a list of lists")
    if len(rows) != n_rows or any(len(row) != n_cols for row in rows):
        raise InvalidTable(f"{what}: expected a {n_rows}x{n_cols} array")
    return tuple(rational_from_json(v) for row in rows for v in row)


def quasiprocess_to_json(qp: QuasiProcess) -> dict:
    sc = qp.scenario
    return {
        "scenario": scenario_to_json(sc),
        "p": _table_to_rows(qp.table, sc.n_inputs, sc.n_outputs),
    }


def quasiprocess_from_json(data: dict) -> QuasiProcess:
    sc = scenario_from_json(data["scenario"])
    return QuasiProcess(sc, _table_from_rows(data["p"], sc.n_inputs, sc.n_outputs, "quasiprocess"))


def correlation_to_json(corr: Correlation) -> dict:
    sc = corr.scenario
    return {
        "scenario": scenario_to_json(sc),
        "p": _table_to_rows(corr.table, sc.n_outcomes, sc.n_settings),
    }


def correlation_from_json(data: dict) -> Correlation:
    sc = scenario_from_json(data["scenario"])
    return Correlation(
        sc, _table_from_rows(data["p"], sc.n_outcomes, sc.n_settings, "correlation")
    )


def interventions_to_json(family: InterventionFamily) -> dict:
    sc = family.scenario
    return {
        "scenario": scenario_to_json(sc),
        "parties": [
            _table_to_rows(
                family.tables[k],
                sc.outcomes[k] * sc.outputs[k],
                sc.settings[k] * sc.inputs[k],
            )
            for k in range(sc.n_parties)
        ],
    }


def interventions_from_json(data: dict) -> InterventionFamily:
    sc = scenario_from_json(data["scenario"])
    tables = []
    if len(data["parties"]) != sc.n_parties:
        raise InvalidTable("wrong number of party tables")
    for k, rows in enumerate(data["parties"]):
        tables.append(
            _table_from_rows(
                rows,
                sc.outcomes[k] * sc.outputs[k],
                sc.settings[k] * sc.inputs[k],
                f"intervention party {k}",
            )
        )
    return InterventionFamily(sc, tuple(tables))


def process_function_to_json(omega: QuasiProcessFunction) -> dict:
    return {
        "scenario": scenario_to_json(omega.scenario),
        "omega": [list(component) for component in omega.maps],
    }


def process_function_from_json(data: dict) -> QuasiProcessFunction:
    sc = scenario_from_json(data["scenario"])
    return QuasiProcessFunction(sc, tuple(tuple(component) for component in data["omega"]))


def game_to_json(game: Game) -> dict:
    sc = game.scenario
    out = {
        "scenario": scenario_to_json(sc),
        "payoff": _table_to_rows(game.payoff, sc.n_outcomes, sc.n_settings),
        "settings": [rational_to_str(w) for w in game.setting_dist],
    }
    if game.name:
        out["name"] = game.name
    if game.known_pc_bound is not None:
        out["known_pc_bound"] = rational_to_str(game.known_pc_bound)
    return out


def game_from_json(data: dict) -> Game:
    sc = scenario_from_json(data["scenario"])
    payoff = _table_from_rows(data["payoff"], sc.n_outcomes, sc.n_settings, "payoff")
    dist = tuple(rational_from_json(v) for v in _require_list(data["settings"], "settings"))
    bound = data.get("known_pc_bound")
    return Game(
        sc,
        payoff,
        dist,
        name=data.get("name", ""),
        known_pc_bound=None if bound is None else rational_from_json(bound),
    )


def _matrix_to_pairs(matrix: np.ndarray) -> list[list[float]]:
    return [[float(v.real), float(v.imag)] for v in matrix.reshape(-1)]


def _matrix_from_pairs(pairs, dim: int, what: str) -> np.ndarray:
    if len(_require_list(pairs, what)) != dim * dim:
        raise InvalidTable(f"{what} needs {dim * dim} entries, got {len(pairs)}")
    if not all(
        isinstance(pair, list) and len(pair) == 2 and all(type(v) in (int, float) for v in pair)
        for pair in pairs
    ):
        raise InvalidTable(f"{what}: entries must be [re, im] number pairs")
    return np.array([complex(re, im) for re, im in pairs], dtype=np.complex128).reshape(dim, dim)


def process_matrix_to_json(pm: ProcessMatrix) -> dict:
    return {"scenario": scenario_to_json(pm.scenario), "w": _matrix_to_pairs(pm.matrix)}


def process_matrix_from_json(data: dict) -> ProcessMatrix:
    sc = scenario_from_json(data["scenario"])
    dim = 1
    for d_in, d_out in zip(sc.inputs, sc.outputs):
        dim *= d_in * d_out
    return ProcessMatrix(sc, _matrix_from_pairs(data["w"], dim, "process matrix"))


def instruments_to_json(instruments: Sequence[InstrumentCJ]) -> dict:
    return {
        "parties": [
            {
                "d_in": instr.d_in,
                "d_out": instr.d_out,
                "operators": [
                    [_matrix_to_pairs(op) for op in per_setting]
                    for per_setting in instr.operators
                ],
            }
            for instr in instruments
        ]
    }


def instruments_from_json(data: dict) -> list[InstrumentCJ]:
    out = []
    for k, spec in enumerate(_require_list(data["parties"], "instrument parties")):
        what = f"instrument party {k}"
        _require_object(spec, what)
        d_in, d_out = spec["d_in"], spec["d_out"]
        if not all(type(d) is int and d > 0 for d in (d_in, d_out)):
            raise InvalidTable(f"{what}: d_in and d_out must be positive integers")
        ops = tuple(
            tuple(
                _matrix_from_pairs(pairs, d_in * d_out, f"{what} operator")
                for pairs in _require_list(per_setting, f"{what} operators")
            )
            for per_setting in _require_list(spec["operators"], f"{what} operators")
        )
        out.append(InstrumentCJ(d_in, d_out, ops))
    return out


def numeric_correlation_to_json(corr: NumericCorrelation) -> dict:
    sc = corr.scenario
    return {
        "scenario": scenario_to_json(sc),
        "p": [
            [corr.table[x * sc.n_settings + a] for a in range(sc.n_settings)]
            for x in range(sc.n_outcomes)
        ],
        "max_imag_residual": corr.max_imag_residual,
    }


def load_json(path: str) -> dict:
    """Parse a document; every causelab document is a JSON object."""
    with open(path, "r", encoding="utf-8") as fh:
        return _require_object(json.load(fh), path)


def dump_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
