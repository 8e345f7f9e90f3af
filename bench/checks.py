"""Answer checks that do not trust the code under test.

Built-in answers are compared with the paper's values.  Answers on random
inputs are checked by exact replay with the benchmark's own evaluators:

* causal: the returned strategy tree replays to the value;
* DC: the witness process function and deterministic intervention have a
  unique fixed point at every joint setting and replay to the value;
* PC: the returned process is logically consistent, scores the value, and the
  value agrees with scipy's HiGHS on an independently built LP within 1e-9;
* hull "in": the weights rebuild the point exactly from the reference
  vertices; hull "out": phi . p - max_v phi . v equals the stated separation
  and is positive;
* quantum: the validity verdict matches the process's logical consistency and
  the diagonal bridge matches the classical table within 1e-12.

Every check returns None when the answer holds and a message when it fails.
Causal <= DC is deliberately not asserted: ``causal_bound`` lets later parties
see every earlier setting, so on random games it can exceed the DC value.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from math import prod

import inputs as I

OCB_SCORE = (2 + math.sqrt(2)) / 4
PAPER_VALUES = {  # exact bounds of the built-in games
    ("gynin", "causal"): Fraction(1, 2), ("gynin", "dc"): Fraction(5, 8),
    ("gynin", "pc"): Fraction(1),
    ("gyni", "causal"): Fraction(1, 2), ("gyni", "dc"): Fraction(1, 2),
    ("gyni", "pc"): Fraction(1, 2),
    ("chsh", "dc"): Fraction(3, 4), ("chsh", "pc"): Fraction(3, 4),
    ("ocb", "causal"): Fraction(3, 4),
}
GYNIN_PERFECT_DC = Fraction(5, 8)
ENUM_PF_3_2_REDUCED = 744  # process functions of three binary parties, reduced
PF_SAMPLE = 48  # enumerated functions re-checked per enum-pf answer


class References:
    """Reference objects built once per run by the benchmark's own code."""

    def __init__(self) -> None:
        self.vertices = {"bipartite": I.dc_vertices(I.BIPARTITE), "bell": I.dc_vertices(I.BELL)}
        self.games = I.builtin_games()


def _weights(game: dict) -> list[Fraction]:
    return [Fraction(w) for w in game["settings"]]


def replay_causal(game: dict, strategy) -> Fraction:
    """Score of a causal strategy tree {party, branches: [{setting, outcome, then}]}."""
    sc = game["scenario"]
    n_a = prod(sc["settings"])
    w = _weights(game)
    total = Fraction(0)
    for a_flat, a in enumerate(I.tuples(sc["settings"])):
        x = [0] * sc["parties"]
        node = strategy
        while node is not None:
            k = node["party"]
            branch = next(b for b in node["branches"] if b["setting"] == a[k])
            x[k] = branch["outcome"]
            node = branch["then"]
        total += w[a_flat] * Fraction(game["payoff"][I.flat(x, sc["outcomes"]) * n_a + a_flat])
    return total


def replay_dc(game: dict, omega, output_maps, outcome_maps) -> Fraction | str:
    """Score of a process function with deterministic interventions, or an error."""
    sc = game["scenario"]
    n = sc["parties"]
    n_a = prod(sc["settings"])
    w = _weights(game)
    ins = I.tuples(sc["inputs"])
    total = Fraction(0)
    for a_flat, a in enumerate(I.tuples(sc["settings"])):
        hits = []
        for i_flat, i in enumerate(ins):
            o = [output_maps[k][a[k]][i[k]] for k in range(n)]
            if I.pf_apply(sc, omega, I.flat(o, sc["outputs"])) == i_flat:
                hits.append(i)
        if len(hits) != 1:
            return f"witness has {len(hits)} fixed points at setting {a}"
        x = [outcome_maps[k][a[k]][hits[0][k]] for k in range(n)]
        total += w[a_flat] * Fraction(game["payoff"][I.flat(x, sc["outcomes"]) * n_a + a_flat])
    return total


def score(game: dict, table) -> Fraction:
    n_a = prod(game["scenario"]["settings"])
    w = _weights(game)
    return sum((w[j % n_a] * Fraction(p) * Fraction(t)
                for j, (p, t) in enumerate(zip(game["payoff"], table))), Fraction(0))


def highs_pc_value(game: dict) -> float:
    """Canonical-intervention PC value by HiGHS on the benchmark's own LP."""
    from scipy.optimize import linprog  # only the checks need scipy

    sc = I.canonical(game["scenario"])
    n_o, n_i = prod(sc["outputs"]), prod(sc["inputs"])
    ins = I.tuples(sc["inputs"])
    rows = []
    for choice in I.output_choices(sc):
        row = [0.0] * (n_i * n_o)
        for i_flat, i in enumerate(ins):
            row[i_flat * n_o + I.flat([choice[k][i[k]] for k in range(len(i))], sc["outputs"])] = 1.0
        rows.append(row)
    w = _weights(game)
    c = [-float(w[j % n_o] * Fraction(p)) for j, p in enumerate(game["payoff"])]
    res = linprog(c, A_eq=rows, b_eq=[1.0] * len(rows), bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return -res.fun


def check_pc(game: dict, value: Fraction, table) -> str | None:
    sc = I.canonical(game["scenario"])
    table = [Fraction(v) for v in table]
    if any(v < 0 for v in table):
        return "pc process has a negative entry"
    if not I.is_consistent(sc, table):
        return "pc process is not logically consistent"
    if score(game, table) != value:
        return f"pc process scores {score(game, table)}, not {value}"
    highs = highs_pc_value(game)
    if abs(highs - float(value)) > 1e-9:
        return f"pc value {value} disagrees with HiGHS {highs!r}"
    return None


def check_hull(vertices, point, answer: dict) -> str | None:
    point = [Fraction(v) for v in point]
    if answer["dc"] == "in":
        if answer["vertices"] != [list(v) for v in vertices]:
            return "DC vertex list differs from the reference vertices"
        weights = [Fraction(w) for w in answer["weights"]]
        if any(w < 0 for w in weights) or sum(weights) != 1:
            return "hull weights are not convex"
        rebuilt = [sum((w * v[j] for w, v in zip(weights, vertices)), Fraction(0))
                   for j in range(len(point))]
        return None if rebuilt == point else "hull weights do not rebuild the point"
    if answer["dc"] == "out":
        phi = [Fraction(v) for v in answer["functional"]]
        sep = sum((f * p for f, p in zip(phi, point)), Fraction(0)) - max(
            sum((f * v for f, v in zip(phi, vert)), Fraction(0)) for vert in vertices)
        if sep <= 0 or sep != Fraction(answer["separation"]):
            return f"separation {answer['separation']} does not replay (got {sep})"
        return None
    return f"DC verdict {answer['dc']!r}"


def check_pc_verdict(sc: dict, point, status: str) -> str | None:
    """classify's PC verdict is "in" exactly when the pinned realization is consistent."""
    consistent = I.is_consistent(I.canonical(sc), [Fraction(v) for v in point])
    if (status == "in") != consistent:
        return f"PC verdict {status!r} but the canonical realization consistency is {consistent}"
    return None


# --- library session answers ----------------------------------------------------


def check_session(refs: References, req: dict, answer: dict) -> str | None:
    kind = req["kind"]
    if kind.startswith("classify"):
        expected = "out" if kind == "classify-out" else "in"
        if answer["qc"] != "in" or answer["dc"] != expected:
            return f"verdicts qC {answer['qc']}, DC {answer['dc']}; expected DC {expected}"
        return (check_pc_verdict(req["scenario"], req["table"], answer["pc"])
                or check_hull(refs.vertices["bipartite"], req["table"], answer))
    if kind == "pc":
        return check_pc(req["game"], Fraction(answer["value"]), answer["process"])
    expected_valid = I.is_consistent(req["scenario"], req["table"])
    if answer["valid"] != expected_valid or expected_valid != (kind == "pm-valid"):
        return f"validity {answer['valid']} for a process whose consistency is {expected_valid}"
    # Canonical copy instruments read the environment table itself: p(x|a) = p(i=x|o=a).
    worst = max(abs(c - float(t)) for c, t in zip(answer["correlation"], req["table"]))
    return None if worst <= 1e-12 else f"diagonal bridge off by {worst!r}"


def answer_key(kind: str, answer: dict | None) -> str:
    """The exact part of an answer, for the answers fingerprint."""
    if answer is None:
        return "failed"
    if kind.startswith("classify"):
        return f"qc={answer['qc']};pc={answer['pc']};dc={answer['dc']};sep={answer.get('separation')}"
    if kind == "pc":
        return f"pc={answer['value']}"
    return f"valid={answer['valid']}"


# --- CLI answers ---------------------------------------------------------------------


def _process_rows(data: dict) -> list[Fraction]:
    return [Fraction(v) for row in data["p"] for v in row]


def check_cli(refs: References, req: dict, code: int, stdout: str, stderr: str,
              inputs_json) -> str | None:
    """Check one CLI request: exit code, report shape and the answer itself."""
    kind = req["kind"]
    if code != req["expect_exit"]:
        return f"exit {code}, expected {req['expect_exit']}"
    if kind.startswith(("bad:", "cap:")):
        if stdout or "Traceback" in stderr:
            return "bad input printed a report or a traceback"
        lines = [line for line in stderr.splitlines() if line.strip()]
        if len(lines) != 1 or "error" not in json.loads(lines[0]):
            return "bad input did not print exactly one JSON error line"
        return None
    report = json.loads(stdout)["result"]
    if kind.startswith("bound:"):
        _, name, which = kind.split(":")
        game = refs.games[name]
        value = Fraction(report["value"])
        known = PAPER_VALUES.get((name, which))
        if known is not None and value != known:
            return f"{name} {which} bound {value}, paper value {known}"
        wit = report["witness"]
        if which == "causal":
            got = replay_causal(game, wit["strategy"])
        elif which == "dc":
            iv = wit["intervention"]
            omega = wit["process_function"]["omega"]
            if not I.is_process_function(game["scenario"], omega):
                return "DC witness is not a process function"
            got = replay_dc(game, omega, iv["output_maps"], iv["outcome_maps"])
            if isinstance(got, str):
                return got
        else:
            return check_pc(game, value, _process_rows(wit["process"]))
        return None if got == value else f"{kind} witness replays to {got}, not {value}"
    if kind.startswith("pm-eval:"):
        target = OCB_SCORE if kind == "pm-eval:ocb" else 1.0
        if not report["process_valid"] or not all(report["instruments_valid"]):
            return "built-in process or instruments reported invalid"
        return None if abs(report["score"] - target) <= 1e-9 else f"score {report['score']!r}"
    if kind.startswith("check:"):
        table = _process_rows(inputs_json)
        masses = I.choice_masses(I.TRIPARTITE, table)
        if report["consistent"] != all(m == 1 for m in masses):
            return "consistency verdict disagrees with the vertex test"
        if not report["consistent"]:
            choice = tuple(tuple(m) for m in report["certificate"]["output_choice"])
            mass = masses[I.output_choices(I.TRIPARTITE).index(choice)]
            if mass != Fraction(report["certificate"]["total_mass"]) or mass != min(masses):
                return "inconsistency certificate does not replay to the smallest mass"
        return None
    if kind == "enum-pf:3:2":
        fns = report["functions"]
        if report["count"] != ENUM_PF_3_2_REDUCED or len(fns) != ENUM_PF_3_2_REDUCED:
            return f"{report['count']} process functions, expected {ENUM_PF_3_2_REDUCED}"
        if len({json.dumps(f) for f in fns}) != len(fns):
            return "enumerated process functions repeat"
        step = len(fns) // PF_SAMPLE
        if not all(I.is_process_function(I.TRIPARTITE, fns[j]) for j in range(0, len(fns), step)):
            return "an enumerated function fails the fixed-point test"
        return None
    if kind.startswith("classify:"):
        point = _process_rows(inputs_json)
        sc = inputs_json["scenario"]
        dc = report["dc"]
        if report["qc"]["status"] != "in" or dc["status"] != "out":
            return f"qC {report['qc']['status']}, DC {dc['status']}; expected DC out"
        bad = check_pc_verdict(sc, point, report["pc"]["status"])
        if bad:
            return bad
        cert = dc["certificate"]
        if kind == "classify:gynin-perfect":
            game = refs.games["gynin"]
            if score(game, point) != 1 or Fraction(cert["dc_bound"]) != GYNIN_PERFECT_DC:
                return "gynin-perfect DC witness does not certify 1 > 5/8"
            return None
        vertices = refs.vertices["bipartite" if kind == "classify:gyni-perfect" else "bell"]
        return check_hull(vertices, point, {"dc": "out", "functional": cert["separating_functional"],
                                            "separation": cert["separation"]})
    if kind == "hierarchy-demo":
        return None if report["all_passed"] is True else "hierarchy-demo did not pass"
    return f"no check for {kind}"


def cli_answer_key(req: dict, code: int, stdout: str) -> str:
    """Exit code plus the report's result, for the answers fingerprint."""
    if not stdout:
        return f"{req['kind']}:exit={code}"
    return f"{req['kind']}:exit={code}:{json.dumps(json.loads(stdout)['result'], sort_keys=True)}"
