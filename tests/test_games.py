import functools
import itertools
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st
from scipy.optimize import linprog

from causelab import (
    Correlation,
    Scenario,
    canonical_interventions,
    evaluate_correlation,
    make_scenario,
    quasiprocess_from_function,
)
from causelab import games as games_module
from causelab.consistency import (
    CANDIDATE_CAP,
    OutputChoice,
    QuasiProcessFunction,
    _survey_cached,
    enumerate_output_choices,
    enumerate_process_functions,
    fixed_points,
    is_logically_consistent,
)
from causelab.errors import ScenarioMismatch, SearchSpaceTooLarge
from causelab.games import (
    Game,
    _deterministic_correlation_vertices,
    bfw_process,
    builtin_chsh,
    builtin_game,
    builtin_gyni,
    builtin_gynin,
    builtin_ocb,
    causal_bound,
    classify,
    dc_bound,
    gyni_perfect_correlation,
    gynin_perfect_correlation,
    pc_bound_canonical,
    pr_box_correlation,
    score,
)
from causelab import lp as lp_module
from causelab.scenario import canonical_scenario, flatten, iter_tuples

from conftest import random_correlation, random_guessing_game

HALF = Fraction(1, 2)


def uniform_correlation(scenario) -> Correlation:
    n = scenario.n_outcomes
    return Correlation(scenario, (Fraction(1, n),) * (n * scenario.n_settings))


def constant_correlation(scenario, x) -> Correlation:
    n_a = scenario.n_settings
    table = [Fraction(0)] * (scenario.n_outcomes * n_a)
    x_flat = flatten(x, scenario.outcomes)
    for a_flat in range(n_a):
        table[x_flat * n_a + a_flat] = Fraction(1)
    return Correlation(scenario, tuple(table))


class TestScore:
    def test_perfect_correlation_scores_one(self):
        assert score(builtin_gynin(), gynin_perfect_correlation()) == 1

    def test_uniform_outcomes_score_quarter(self):
        # two winning outcome strings out of eight, per joint setting
        assert score(builtin_gynin(), uniform_correlation(builtin_gynin().scenario)) == Fraction(1, 4)

    def test_constant_outcomes_score_quarter(self):
        # (0,0,0) wins exactly for the all-zero and all-one settings
        game = builtin_gynin()
        assert score(game, constant_correlation(game.scenario, (0, 0, 0))) == Fraction(1, 4)

    def test_score_is_linear(self):
        rng = random.Random(41)
        game = builtin_gyni()
        p = random_correlation(rng, game.scenario)
        q = random_correlation(rng, game.scenario)
        lam = Fraction(2, 7)
        mixed = Correlation(
            game.scenario,
            tuple(lam * a + (1 - lam) * b for a, b in zip(p.table, q.table)),
        )
        assert score(game, mixed) == lam * score(game, p) + (1 - lam) * score(game, q)

    def test_scenario_mismatch(self):
        with pytest.raises(ScenarioMismatch):
            score(builtin_gyni(), gynin_perfect_correlation())


class TestBuiltinGames:
    def test_gynin_payoff_has_sixteen_unit_entries(self):
        game = builtin_gynin()
        assert sum(1 for v in game.payoff if v == 1) == 16
        assert set(game.payoff) == {Fraction(0), Fraction(1)}

    def test_gyni_payoff_one_winner_per_setting(self):
        game = builtin_gyni()
        n_a = game.scenario.n_settings
        for a_flat in range(n_a):
            winners = sum(
                1
                for x_flat in range(game.scenario.n_outcomes)
                if game.payoff[x_flat * n_a + a_flat] == 1
            )
            assert winners == 1

    def test_gynin_perfect_is_bfw_under_the_canonical_interventions(self):
        # half gynin's win table, checked against the derivation it replaced
        process = bfw_process()
        report = evaluate_correlation(process, canonical_interventions(process.scenario))
        assert gynin_perfect_correlation() == report.to_correlation()
        assert gynin_perfect_correlation().table == process.table

    def test_builtin_lookup(self):
        assert builtin_game("chsh").name == "chsh"
        with pytest.raises(KeyError):
            builtin_game("nope")


def bipartite_causal_oracle(game: Game) -> Fraction:
    """Independent oracle: exhaust fixed orders and deterministic responses."""
    sc = game.scenario
    n_a = sc.n_settings
    best = None
    for first in (0, 1):
        second = 1 - first
        firsts = list(itertools.product(range(sc.outcomes[first]), repeat=sc.settings[first]))
        seconds = list(
            itertools.product(
                range(sc.outcomes[second]),
                repeat=sc.settings[first] * sc.settings[second],
            )
        )
        for fmap in firsts:
            for smap in seconds:
                total = Fraction(0)
                for a_flat, a in enumerate(iter_tuples(sc.settings)):
                    x = [0, 0]
                    x[first] = fmap[a[first]]
                    x[second] = smap[a[first] * sc.settings[second] + a[second]]
                    total += (
                        game.setting_dist[a_flat]
                        * game.payoff[flatten(tuple(x), sc.outcomes) * n_a + a_flat]
                    )
                if best is None or total > best:
                    best = total
    return best


def bipartite_dc_oracle(game: Game) -> Fraction:
    """Independent oracle for binary bipartite scenarios.

    Deterministic-consistency strategies are exactly one-way: a sender whose
    input is a constant, a binary message that may depend on the sender's
    setting, and local outcome maps.  Exhausts all of them directly.
    """
    sc = game.scenario
    n_a = sc.n_settings
    best = None
    for sender in (0, 1):
        receiver = 1 - sender
        for alpha in itertools.product(range(2), repeat=2):  # x_sender(a_sender)
            for message in itertools.product(range(2), repeat=2):  # i_receiver(a_sender)
                for beta in itertools.product(range(2), repeat=4):  # x_receiver(a_receiver, i)
                    total = Fraction(0)
                    for a_flat, a in enumerate(iter_tuples(sc.settings)):
                        x = [0, 0]
                        x[sender] = alpha[a[sender]]
                        x[receiver] = beta[a[receiver] * 2 + message[a[sender]]]
                        total += (
                            game.setting_dist[a_flat]
                            * game.payoff[flatten(tuple(x), sc.outcomes) * n_a + a_flat]
                        )
                    if best is None or total > best:
                        best = total
    return best


def deterministic_behaviours_oracle(scenario) -> tuple[tuple[Fraction, ...], ...]:
    """DC vertices by definition, as sorted 0/1 tables p(x|a).

    Every process function under every deterministic intervention: one output
    map and one outcome map per (party, setting).  The fixed-point rows (the
    joint input at each joint setting) are deduplicated before the outcome maps
    are applied.
    """
    n, n_a = scenario.n_parties, scenario.n_settings

    def per_setting(alphabet, k):
        maps = list(itertools.product(range(alphabet[k]), repeat=scenario.inputs[k]))
        return itertools.product(maps, repeat=scenario.settings[k])

    output_families = list(itertools.product(*(per_setting(scenario.outputs, k) for k in range(n))))
    outcome_families = list(itertools.product(*(per_setting(scenario.outcomes, k) for k in range(n))))
    rows = set()
    for omega in enumerate_process_functions(scenario):
        for f in output_families:
            row = []
            for a in iter_tuples(scenario.settings):
                (i,) = fixed_points(omega, OutputChoice(tuple(f[k][a[k]] for k in range(n))))
                row.append(i)
            rows.add(tuple(row))
    vertices = set()
    for row in rows:
        for g in outcome_families:
            vertex = [0] * (scenario.n_outcomes * n_a)
            for a_flat, (a, i) in enumerate(zip(iter_tuples(scenario.settings), row)):
                x = tuple(g[k][a[k]][i[k]] for k in range(n))
                vertex[flatten(x, scenario.outcomes) * n_a + a_flat] = 1
            vertices.add(tuple(vertex))
    return tuple(tuple(Fraction(v) for v in vertex) for vertex in sorted(vertices))


class TestCausalBound:
    def test_gynin_causal_half(self):
        assert causal_bound(builtin_gynin()).value == HALF

    def test_gyni_against_oracle(self):
        game = builtin_gyni()
        oracle = bipartite_causal_oracle(game)
        assert oracle == HALF
        assert causal_bound(game).value == oracle

    def test_ocb_against_oracle(self):
        game = builtin_ocb()
        oracle = bipartite_causal_oracle(game)
        assert oracle == Fraction(3, 4)
        assert causal_bound(game).value == oracle

    def test_single_party_guess_own_setting(self):
        sc = make_scenario(1, 2, 2, 1, 1)
        payoff = [Fraction(0)] * 4
        for a in range(2):
            payoff[a * 2 + a] = Fraction(1)
        game = Game(sc, tuple(payoff), (HALF, HALF))
        result = causal_bound(game)
        assert result.value == 1
        assert result.strategy["party"] == 0

    def test_random_games_match_oracle(self):
        rng = random.Random(59)
        for _ in range(15):
            game = random_guessing_game(rng)
            assert causal_bound(game).value == bipartite_causal_oracle(game)

    @pytest.mark.parametrize("cap, admitted", [(61, True), (60, False)])
    def test_state_cap_admits_exactly_the_state_count(self, monkeypatch, cap, admitted):
        # gynin visits (1 + 2 x 2)^3 - (2 x 2)^3 = 61 states with a party yet to act
        monkeypatch.setattr(games_module, "CAUSAL_STATE_CAP", cap)
        if admitted:
            assert causal_bound(builtin_gynin()).value == HALF
        else:
            with pytest.raises(SearchSpaceTooLarge, match="causal recursion exceeds 60 states"):
                causal_bound(builtin_gynin())

    def test_state_count_refuses_before_recursing(self):
        # 2^1000 - 1 states; a search that recursed first would pass Python's recursion limit
        sc = make_scenario(1000, 1, 1, 1, 1)
        started = time.monotonic()
        with pytest.raises(SearchSpaceTooLarge, match="causal recursion exceeds 500000 states"):
            causal_bound(Game(sc, (1,), (1,)))
        assert time.monotonic() - started < 1.0


# (scenario cardinalities, number of deterministic DC behaviours)
VERTEX_SET_CASES = [((1, 2, 2, 2, 2), 4), ((2, 2, 2, 1, 1), 16), ((2, 2, 2, 2, 2), 112)]


@functools.cache
def first_occurrence_scan(cards):
    """Distinct fixed-point rows by brute force, mapped to the survey index of
    their first occurrence: every survey function in order, every output choice
    of every party at every setting in lex order, with no choice classes."""
    sc = make_scenario(*cards)
    n = sc.n_parties
    F = [d_o**d_i for d_i, d_o in zip(sc.inputs, sc.outputs)]
    grid = np.indices([F[k] for k in range(n) for _ in range(sc.settings[k])])
    grid = grid.reshape(grid.shape[0], -1)
    offset = [sum(sc.settings[:k]) for k in range(n)]
    seen = {}
    for index, (_, fp) in enumerate(_survey_cached(sc, CANDIDATE_CAP)):
        table = np.asarray(fp).reshape(F)
        rows = np.stack(
            [table[tuple(grid[offset[k] + a[k]] for k in range(n))] for a in iter_tuples(sc.settings)],
            axis=1,
        )
        # each function's distinct rows in grid order, keyed as base-n_inputs numbers
        _, first = np.unique(rows @ sc.n_inputs ** np.arange(sc.n_settings), return_index=True)
        for row in rows[np.sort(first)].tolist():
            seen.setdefault(tuple(row), index)
    return seen


cached_vertex_oracle = functools.cache(deterministic_behaviours_oracle)


def assert_dc_value_is_the_best_vertex_score(data, sc):
    """dc_bound on a drawn game equals its best score over the oracle's vertices,
    and its witness replays to that score."""
    n_cells = sc.n_outcomes * sc.n_settings
    payoff = data.draw(st.lists(st.integers(-3, 3), min_size=n_cells, max_size=n_cells))
    weights = data.draw(
        st.lists(st.fractions(0, 1, max_denominator=6), min_size=sc.n_settings,
                 max_size=sc.n_settings).filter(any)
    )
    game = Game(sc, tuple(payoff), tuple(w / sum(weights) for w in weights))
    best = max(score(game, Correlation(sc, vertex)) for vertex in cached_vertex_oracle(sc))
    result = dc_bound.__wrapped__(game)
    assert result.value == best
    replay = evaluate_correlation(
        quasiprocess_from_function(result.witness_function),
        result.witness_intervention.to_family(sc),
    )
    assert score(game, replay.to_correlation()) == best


# Scenarios beyond VERTEX_SET_CASES for the DC value oracle: a grid of two other
# parties with trivial systems (64 vertices), a one-outcome party (81), and three
# mixed parties with a one-setting and a one-outcome party (16).
MORE_ORACLE_SCENARIOS = [
    make_scenario(3, 2, 2, 1, 1),
    Scenario(settings=(2, 2), outcomes=(1, 3), inputs=(2, 2), outputs=(2, 2)),
    Scenario(settings=(1, 2, 2), outcomes=(2, 1, 2), inputs=(2, 2, 1), outputs=(2, 1, 2)),
]


WIDE_OUTCOME_MAPS = """
import json, resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from fractions import Fraction
from causelab import Scenario, evaluate_correlation, quasiprocess_from_function
from causelab.games import Game, causal_bound, classify, dc_bound, score

sc = Scenario(settings=(4, 2), outcomes=(3, 2), inputs=(4, 2), outputs=(2, 2))
n_a = sc.n_settings
payoff = [(x * 7 + a * 3) % 5 - 2 for x in range(sc.n_outcomes) for a in range(n_a)]
game = Game(sc, tuple(payoff), (Fraction(1, n_a),) * n_a, name="wide")
result = dc_bound(game)
family = result.witness_intervention.to_family(sc)
replay = evaluate_correlation(quasiprocess_from_function(result.witness_function), family)
label = classify(replay.to_correlation(), (game,))
print(json.dumps({
    "value": str(result.value),
    "replay": str(score(game, replay.to_correlation())),
    "causal": str(causal_bound(game).value),
    "dc_status": label.dc.status,
    "certificate": {k: str(v) for k, v in label.dc.certificate.items()},
}))
"""


class TestDcBound:
    def test_gynin_five_eighths_with_replaying_witness(self):
        game = builtin_gynin()
        result = dc_bound(game)
        assert result.value == Fraction(5, 8)
        replay = evaluate_correlation(
            quasiprocess_from_function(result.witness_function),
            result.witness_intervention.to_family(game.scenario),
        )
        assert replay.is_normalized
        assert score(game, replay.to_correlation()) == Fraction(5, 8)

    def test_gyni_against_oracle(self):
        game = builtin_gyni()
        oracle = bipartite_dc_oracle(game)
        assert oracle == HALF
        assert dc_bound(game).value == oracle

    def test_chsh_against_local_strategy_oracle(self):
        game = builtin_chsh()
        best = None
        for m1 in itertools.product(range(2), repeat=2):
            for m2 in itertools.product(range(2), repeat=2):
                total = Fraction(0)
                for a_flat, (a1, a2) in enumerate(iter_tuples(game.scenario.settings)):
                    x_flat = flatten((m1[a1], m2[a2]), game.scenario.outcomes)
                    total += game.setting_dist[a_flat] * game.payoff[x_flat * 4 + a_flat]
                best = total if best is None else max(best, total)
        assert best == Fraction(3, 4)
        assert dc_bound(game).value == best

    def test_random_games_match_oracle(self):
        rng = random.Random(61)
        for _ in range(15):
            game = random_guessing_game(rng)
            result = dc_bound.__wrapped__(game)
            assert result.value == bipartite_dc_oracle(game)
            replay = evaluate_correlation(
                quasiprocess_from_function(result.witness_function),
                result.witness_intervention.to_family(game.scenario),
            )
            assert score(game, replay.to_correlation()) == result.value

    def test_wide_outcome_maps_fit_in_two_gigabytes(self):
        """Party 1 has 3^16 outcome maps over its 16 (setting, input) cells, a
        5.5 GB table that neither search reads: the DC search optimizes that
        party per setting, and the vertex collection stops at its work cap."""
        proc = subprocess.run(
            [sys.executable, "-c", WIDE_OUTCOME_MAPS],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["replay"] == out["value"]
        assert Fraction(out["causal"]) <= Fraction(out["value"])
        assert out["dc_status"] == "unknown"
        assert "above the work cap" in out["certificate"]["downgraded"]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_value_is_the_best_vertex_score(self, data):
        cards = data.draw(st.sampled_from(VERTEX_SET_CASES))[0]
        assert_dc_value_is_the_best_vertex_score(data, make_scenario(*cards))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_value_is_the_best_vertex_score_on_more_scenarios(self, data):
        sc = data.draw(st.sampled_from(MORE_ORACLE_SCENARIOS))
        assert_dc_value_is_the_best_vertex_score(data, sc)

    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_value_is_the_best_vertex_score_with_ternary_outcomes(self, data):
        # 9 slices per setting for the distinguished party, 1,377 vertices
        assert_dc_value_is_the_best_vertex_score(data, make_scenario(2, 2, 3, 2, 2))

    @pytest.mark.parametrize("cells", [64, 4096])
    def test_batch_size_does_not_change_the_search(self, monkeypatch, cells):
        # small batches split the survey into many chunks and signature groups;
        # the shifted gynin has a negative value, so no row may score a default 0
        gynin = builtin_gynin()
        shifted = Game(gynin.scenario, tuple(v - 1 for v in gynin.payoff), gynin.setting_dist)
        search_games = (gynin, shifted, builtin_ocb(), builtin_gyni())
        gyni_sc = make_scenario(2, 2, 2, 2, 2)
        found = [dc_bound.__wrapped__(g) for g in search_games]
        assert found[1].value == Fraction(-3, 8)
        vertex_set = _deterministic_correlation_vertices.__wrapped__
        vertices = vertex_set(gyni_sc, CANDIDATE_CAP)
        # uncached searches, so every call below walks the survey at this batch size
        monkeypatch.setattr(games_module, "DC_BATCH_CELLS", cells)
        monkeypatch.setattr(games_module, "_dc_search", games_module._DcSearch)
        assert [dc_bound.__wrapped__(g) for g in search_games] == found
        assert vertex_set(gyni_sc, CANDIDATE_CAP) == vertices

    @pytest.mark.parametrize("cards", [(2, 2, 2, 2, 2), (3, 2, 2, 2, 2)])
    @pytest.mark.parametrize("cells", [64, 4096])
    def test_rows_in_first_occurrence_order(self, monkeypatch, cells, cards):
        # 64 cells put one function in each chunk, so rows are merged across chunks
        monkeypatch.setattr(games_module, "DC_BATCH_CELLS", cells)
        sc = make_scenario(*cards)
        search = games_module._DcSearch(sc, CANDIDATE_CAP)
        rows, survey, choices = search.rows
        expected = first_occurrence_scan(cards)
        assert [tuple(row) for row in rows.tolist()] == list(expected)
        assert survey.tolist() == list(expected.values())
        # each row replays from its origin: the survey function's fixed point
        # under the recorded output choices, at every joint setting
        offset = [sum(sc.settings[:k]) for k in range(sc.n_parties)]
        for r in range(len(rows)):
            omega = QuasiProcessFunction(sc, search.survey[survey[r]][0])
            for a_flat, a in enumerate(iter_tuples(sc.settings)):
                choice = OutputChoice(tuple(
                    tuple(search.choices(k)[choices[r, offset[k] + a[k]]].tolist())
                    for k in range(sc.n_parties)
                ))
                (i,) = fixed_points(omega, choice)
                assert flatten(i, sc.inputs) == rows[r, a_flat]

    def test_outcome_map_cap_is_read_before_the_survey(self, monkeypatch):
        # 4 settings and 4-dimensional inputs: each party has 2^16 outcome maps,
        # and the two parties enumerated in full span 2^32
        def no_survey(*args):
            raise AssertionError("the survey ran")

        monkeypatch.setattr(games_module, "_survey_cached", no_survey)
        sc = make_scenario(3, 4, 2, 4, 2)
        n_a = sc.n_settings
        game = Game(sc, (0,) * (sc.n_outcomes * n_a), (Fraction(1, n_a),) * n_a)
        with pytest.raises(SearchSpaceTooLarge) as refused:
            dc_bound.__wrapped__(game)
        assert str(refused.value) == "4294967296 outcome maps of the other parties exceed cap 1048576"

    def test_class_grid_cap(self, monkeypatch):
        # gynin's largest class grids have 64 points (class counts 4, 2 and 1 over
        # two settings each) at 8 joint settings; a fresh search meets the cap as
        # it gathers rows
        monkeypatch.setattr(games_module, "DC_GRID_CAP", 511)
        monkeypatch.setattr(games_module, "_dc_search", games_module._DcSearch)
        with pytest.raises(SearchSpaceTooLarge) as refused:
            dc_bound.__wrapped__(builtin_gynin())
        assert str(refused.value) == (
            "a class grid has 512 cells (64 intervention outputs x 8 settings), above the cap 511"
        )
        monkeypatch.setattr(games_module, "DC_GRID_CAP", 512)
        assert dc_bound.__wrapped__(builtin_gynin()).value == Fraction(5, 8)

    def test_gynin_invariant_under_cyclic_relabeling(self):
        base = builtin_gynin()
        sc = base.scenario
        n_a = sc.n_settings
        perm = (1, 2, 0)
        payoff = [Fraction(0)] * len(base.payoff)
        for a_flat, a in enumerate(iter_tuples(sc.settings)):
            pa = flatten(tuple(a[p] for p in perm), sc.settings)
            for x_flat, x in enumerate(iter_tuples(sc.outcomes)):
                px = flatten(tuple(x[p] for p in perm), sc.outcomes)
                payoff[x_flat * n_a + a_flat] = base.payoff[px * n_a + pa]
        relabeled = Game(sc, tuple(payoff), base.setting_dist)
        assert dc_bound.__wrapped__(relabeled).value == Fraction(5, 8)

    def test_gynin_invariant_under_global_bit_flip(self):
        base = builtin_gynin()
        sc = base.scenario
        n_a = sc.n_settings
        payoff = [Fraction(0)] * len(base.payoff)
        for a_flat, a in enumerate(iter_tuples(sc.settings)):
            fa = flatten(tuple(1 - v for v in a), sc.settings)
            for x_flat, x in enumerate(iter_tuples(sc.outcomes)):
                fx = flatten(tuple(1 - v for v in x), sc.outcomes)
                payoff[x_flat * n_a + a_flat] = base.payoff[fx * n_a + fa]
        flipped = Game(sc, tuple(payoff), base.setting_dist)
        assert dc_bound.__wrapped__(flipped).value == Fraction(5, 8)


def pc_rows_oracle(sc):
    """Test-local oracle for the canonical PC LP's equality rows: per output
    choice, in enumeration order, unit coefficients at its cells (i, f(i))."""
    n_o = sc.n_outputs
    rows = []
    for choice in enumerate_output_choices(sc):
        coeffs = [Fraction(0)] * (sc.n_inputs * n_o)
        for i_flat, i in enumerate(iter_tuples(sc.inputs)):
            coeffs[i_flat * n_o + flatten(choice.apply(i), sc.outputs)] = Fraction(1)
        rows.append((tuple(coeffs), Fraction(1)))
    return tuple(rows)


def ternary_gyni():
    """Two parties with ternary settings and outcomes, each winning on the other's setting."""
    sc = make_scenario(2, 3, 3, 3, 3)
    n_a = sc.n_settings
    payoff = [0] * (sc.n_outcomes * n_a)
    for a_flat, a in enumerate(iter_tuples(sc.settings)):
        payoff[flatten((a[1], a[0]), sc.outcomes) * n_a + a_flat] = 1
    return Game(sc, tuple(payoff), (Fraction(1, n_a),) * n_a)


class TestPcBound:
    @pytest.mark.parametrize(
        "game",
        [builtin_gynin(), builtin_ocb(), builtin_gyni(), builtin_chsh(), ternary_gyni()],
        ids=["gynin", "ocb", "gyni", "chsh", "ternary-gyni"],
    )
    def test_rows_equal_the_output_choice_oracle(self, monkeypatch, game):
        class Solved(Exception):
            pass

        def solve(lp):
            assert lp.eq == pc_rows_oracle(canonical_scenario(game.scenario))
            raise Solved

        monkeypatch.setattr(games_module, "lp_solve", solve)
        with pytest.raises(Solved):
            pc_bound_canonical(game)

    def test_gynin_pc_one_with_bfw_optimizer(self):
        result = pc_bound_canonical(builtin_gynin())
        assert result.value == 1
        assert result.process.table == bfw_process().table

    def test_gyni_pc_half(self):
        assert pc_bound_canonical(builtin_gyni()).value == HALF

    def test_chsh_pc_three_quarters(self):
        assert pc_bound_canonical(builtin_chsh()).value == Fraction(3, 4)

    def test_ocb_pc_three_quarters(self):
        assert pc_bound_canonical(builtin_ocb()).value == Fraction(3, 4)

    @pytest.mark.parametrize(
        "cap, admitted", [(games_module.PC_LP_CAP, True), (729 * 811, True), (729 * 811 - 1, False)]
    )
    def test_lp_size_cap_is_read_before_the_rows(self, monkeypatch, cap, admitted):
        # ternary GYNI: 729 equality rows x (81 variables + 729 artificials + 1)
        game = ternary_gyni()

        class Solved(Exception):
            pass

        def solve(lp):
            assert (len(lp.eq), lp.n_vars) == (729, 81)
            raise Solved

        monkeypatch.setattr(games_module, "PC_LP_CAP", cap)
        monkeypatch.setattr(games_module, "lp_solve", solve)
        with pytest.raises(Solved if admitted else SearchSpaceTooLarge):
            pc_bound_canonical(game)


WEIGHTED_SCENARIOS = [make_scenario(2, 2, 2, 2, 2), Scenario((2, 3), (3, 2), (2, 2), (2, 2))]


@st.composite
def weighted_games(draw):
    """Signed rational payoffs and a setting distribution with at least one zero weight."""
    sc = draw(st.sampled_from(WEIGHTED_SCENARIOS))
    n_a = sc.n_settings
    size = sc.n_outcomes * n_a
    payoff = draw(st.lists(st.fractions(-3, 3, max_denominator=5), min_size=size, max_size=size))
    raw = draw(st.lists(st.integers(0, 4), min_size=n_a, max_size=n_a))
    raw[draw(st.integers(0, n_a - 1))] = 0
    assume(any(raw))
    return Game(sc, tuple(payoff), tuple(Fraction(w, sum(raw)) for w in raw))


class TestWeightedSettings:
    """Causal, score and PC paths on non-uniform setting weights, zeros included."""

    @settings(max_examples=20, deadline=None)
    @given(game=weighted_games(), seed=st.integers(0, 2**16))
    def test_bounds_weight_each_setting(self, game, seed):
        sc = game.scenario
        n_a = sc.n_settings
        phi = [Fraction(0)] * (sc.n_outcomes * n_a)
        for a_flat in range(n_a):
            for x_flat in range(sc.n_outcomes):
                f = x_flat * n_a + a_flat
                phi[f] = game.setting_dist[a_flat] * game.payoff[f]

        assert causal_bound(game).value == bipartite_causal_oracle(game)

        corr = random_correlation(random.Random(seed), sc)
        assert score(game, corr) == sum(
            game.setting_dist[a_flat]
            * sum(game.payoff[x * n_a + a_flat] * corr.table[x * n_a + a_flat] for x in range(sc.n_outcomes))
            for a_flat in range(n_a)
        )

        # the canonical PC LP: p(i|o) >= 0 with unit mass at every output choice
        canonical = canonical_scenario(sc)
        rows = []
        for choice in enumerate_output_choices(canonical):
            row = np.zeros(len(phi))
            for i in iter_tuples(canonical.inputs):
                o = choice.apply(i)
                row[flatten(i, canonical.inputs) * n_a + flatten(o, canonical.outputs)] = 1
            rows.append(row)
        reference = linprog(
            -np.array([float(v) for v in phi]), A_eq=np.array(rows), b_eq=np.ones(len(rows)),
            bounds=(0, None), method="highs",
        )
        assert reference.status == 0
        result = pc_bound_canonical(game)
        assert abs(float(result.value) + reference.fun) < 1e-9
        assert is_logically_consistent(result.process).consistent
        assert score(game, result.process) == result.value


class TestMonotonicity:
    def test_builtin_games(self):
        for name in ("gyni", "gynin", "ocb"):
            game = builtin_game(name)
            c = causal_bound(game).value
            d = dc_bound(game).value
            p = pc_bound_canonical(game).value
            assert c <= d <= p <= 1, name

    def test_random_guessing_games(self):
        rng = random.Random(67)
        for _ in range(10):
            game = random_guessing_game(rng)
            c = causal_bound(game).value
            d = dc_bound.__wrapped__(game).value
            p = pc_bound_canonical(game).value
            assert c <= d <= p <= 1


class TestClassify:
    def test_gynin_perfect(self):
        game = builtin_gynin()
        corr = gynin_perfect_correlation()
        label = classify(corr, (game,))
        assert label.qc.status == "in"
        assert label.pc.status == "in"
        assert label.dc.status == "out"
        # replay the quasi-consistent realization
        process = label.qc.certificate["process"]
        family = label.qc.certificate["interventions"]
        assert evaluate_correlation(process, family).table == corr.table
        # replay the consistent-process certificate (it is the cyclic mixture)
        assert label.pc.certificate["process"].table == bfw_process().table
        replay = evaluate_correlation(
            label.pc.certificate["process"], label.pc.certificate["interventions"]
        )
        assert replay.table == corr.table
        # witness replays strictly above the bound
        cert = label.dc.certificate
        assert cert["witness"] == "gynin"
        assert cert["score"] == 1 > cert["dc_bound"] == Fraction(5, 8)
        assert score(game, corr) == cert["score"]

    def test_gyni_perfect(self):
        game = builtin_gyni()
        corr = gyni_perfect_correlation()
        label = classify(corr, (game,))
        assert label.dc.status == "out"
        assert label.pc.status == "unknown"  # sufficient test fails; no known bound
        cert = label.dc.certificate
        assert cert["separation"] > 0
        assert cert["witness"] == "gyni"
        assert cert["score"] == 1 > cert["dc_bound"] == HALF

    def test_pr_box_is_outside_dc(self):
        label = classify(pr_box_correlation(), (builtin_chsh(),))
        assert label.qc.status == "in"
        assert label.dc.status == "out"

    def test_local_deterministic_point_is_inside_with_replaying_weights(self):
        sc = make_scenario(2, 2, 2, 1, 1)
        n_a = sc.n_settings
        table = [Fraction(0)] * (sc.n_outcomes * n_a)
        for a_flat, (a1, a2) in enumerate(iter_tuples(sc.settings)):
            table[flatten((a1, 1 - a2), sc.outcomes) * n_a + a_flat] = Fraction(1)
        corr = Correlation(sc, tuple(table))
        label = classify(corr)
        assert label.dc.status == "in"
        vertices = label.dc.certificate["vertices"]
        weights = label.dc.certificate["weights"]
        rebuilt = [Fraction(0)] * len(corr.table)
        for weight, vertex in zip(weights, vertices):
            for j, v in enumerate(vertex):
                rebuilt[j] += weight * v
        assert tuple(rebuilt) == corr.table

    def test_bell_local_mixture_is_inside(self):
        # shared-randomness mixture of local deterministic points
        sc = make_scenario(2, 2, 2, 1, 1)
        n_a = sc.n_settings
        table = [Fraction(0)] * (sc.n_outcomes * n_a)
        for a_flat, (a1, a2) in enumerate(iter_tuples(sc.settings)):
            table[flatten((a1, a2), sc.outcomes) * n_a + a_flat] += HALF
            table[flatten((1 - a1, 1 - a2), sc.outcomes) * n_a + a_flat] += HALF
        label = classify(Correlation(sc, tuple(table)))
        assert label.dc.status == "in"

    def test_pc_cap_reports_unknown_until_a_known_pc_bound_decides(self):
        # two parties with 8 settings and outcomes: the canonical output-choice
        # table would hold 2^48 x 64 cells, so the PC vertex test meets its cap
        sc = make_scenario(2, 8, 8, 1, 1)
        corr = uniform_correlation(sc)
        label = classify(corr)
        assert (label.qc.status, label.pc.status) == ("in", "unknown")
        assert label.pc.certificate["downgraded"].startswith("the output-choice table needs")
        # a witness whose unrestricted PC bound the point beats still puts it out
        n_a = sc.n_settings
        guess = tuple(int(x % 8 == a // 8) for x in range(sc.n_outcomes) for a in range(n_a))
        witness = Game(sc, guess, (Fraction(1, n_a),) * n_a, "guess", Fraction(1, 16))
        pc = classify(corr, (witness,)).pc
        assert pc.status == "out"
        assert pc.certificate == {
            "witness": "guess", "score": Fraction(1, 8), "known_pc_bound": Fraction(1, 16)
        }

    def test_witness_scenario_mismatch(self):
        with pytest.raises(ScenarioMismatch):
            classify(gynin_perfect_correlation(), (builtin_gyni(),))

    @pytest.mark.parametrize("cards, count", VERTEX_SET_CASES)
    def test_vertex_set_follows_the_definition(self, cards, count):
        sc = make_scenario(*cards)
        oracle = deterministic_behaviours_oracle(sc)
        assert len(oracle) == count
        # an "in" certificate carries the whole vertex set, in its order
        dc = classify(uniform_correlation(sc)).dc
        assert dc.status == "in"
        assert dc.certificate["vertices"] == oracle

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_certificates_replay_on_the_oracle_vertices(self, data):
        """Random normalized behaviours: "in" weights rebuild the point from the
        oracle's vertices; an "out" functional is a primitive integer vector
        strictly above every oracle vertex, by the reported separation."""
        cards = data.draw(st.sampled_from(VERTEX_SET_CASES))[0]
        sc = make_scenario(*cards)
        n_x, n_a = sc.n_outcomes, sc.n_settings
        oracle = cached_vertex_oracle(sc)
        table = [Fraction(0)] * (n_x * n_a)
        for a_flat in range(n_a):
            column = data.draw(st.lists(st.integers(0, 4), min_size=n_x, max_size=n_x).filter(any))
            for x_flat, v in enumerate(column):
                table[x_flat * n_a + a_flat] = Fraction(v, sum(column))
        point = tuple(table)
        dc = classify(Correlation(sc, point)).dc
        assert dc.status in ("in", "out")
        event(f"{cards}: DC {dc.status}")
        if dc.status == "in":
            assert dc.certificate["vertices"] == oracle
            weights = dc.certificate["weights"]
            assert all(w >= 0 for w in weights) and sum(weights) == 1
            rebuilt = tuple(
                sum((w * v[j] for w, v in zip(weights, oracle)), start=Fraction(0))
                for j in range(len(point))
            )
            assert rebuilt == point
            return
        phi = dc.certificate["separating_functional"]
        assert all(v.denominator == 1 for v in phi)
        assert functools.reduce(math.gcd, (int(v) for v in phi)) == 1

        def at(vec):
            return sum((f * v for f, v in zip(phi, vec)), start=Fraction(0))

        best_vertex = max(at(vertex) for vertex in oracle)
        assert at(point) > best_vertex
        assert dc.certificate["separation"] == at(point) - best_vertex

    def test_vertex_set_of_a_wide_bell_scenario(self, monkeypatch):
        # 8 joint outcomes at 27 joint settings: a behaviour read as one base-8
        # number does not fit an int64 (8**27 > 2**63).  The gather stops at the
        # hull LP's size cap, which these 512 vertices exceed, so it is raised.
        monkeypatch.setattr(lp_module, "HULL_LP_CAP", 512 * 217)
        sc = make_scenario(3, 3, 2, 1, 1)
        vertices = _deterministic_correlation_vertices.__wrapped__(sc, CANDIDATE_CAP)
        assert len(vertices) == 512
        assert vertices == deterministic_behaviours_oracle(sc)

    def test_work_cap_downgrades_to_unknown(self):
        # the exact gather size: every distinct fixed-point row of the survey
        # under every outcome-map family at every joint setting
        dc = classify(gynin_perfect_correlation()).dc
        assert dc.status == "unknown"
        assert dc.certificate == {
            "downgraded": "vertex enumeration needs 24379392 steps (744 distinct fixed-point "
            "rows x 4096 outcome-map families x 8 settings), above the work cap 20000000"
        }

    def test_work_cap_of_one_row_is_read_before_the_survey(self, monkeypatch):
        # 20 binary settings per party: one fixed-point row alone has 2^80
        # outcome-map families, and a one-way-signalling function's class grid
        # has 2^20 points at 400 joint settings
        def no_survey(*args):
            raise AssertionError("the survey ran")

        monkeypatch.setattr(games_module, "_survey_cached", no_survey)
        started = time.monotonic()
        with pytest.raises(SearchSpaceTooLarge) as refused:
            _deterministic_correlation_vertices.__wrapped__(
                make_scenario(2, 20, 2, 2, 2), CANDIDATE_CAP
            )
        assert time.monotonic() - started < 1.0
        assert str(refused.value) == (
            f"vertex enumeration needs {2**80 * 400} steps per distinct fixed-point row "
            f"({2**80} outcome-map families x 400 settings), above the work cap 20000000"
        )

    def test_class_grid_cap_downgrades_to_unknown(self, monkeypatch):
        # fresh caches, so the vertex gather walks the survey and meets the cap
        monkeypatch.setattr(games_module, "DC_GRID_CAP", 511)
        monkeypatch.setattr(games_module, "_dc_search", games_module._DcSearch)
        monkeypatch.setattr(
            games_module,
            "_deterministic_correlation_vertices",
            _deterministic_correlation_vertices.__wrapped__,
        )
        dc = classify(gynin_perfect_correlation()).dc
        assert dc.status == "unknown"
        assert dc.certificate == {
            "downgraded": "a class grid has 512 cells (64 intervention outputs x 8 settings), "
            "above the cap 511"
        }

    def test_hull_lp_cap_downgrades_to_unknown(self):
        # 512 vertices in 216 dimensions: the exact hull LP would run for tens of seconds
        started = time.monotonic()
        dc = classify(uniform_correlation(make_scenario(3, 3, 2, 1, 1))).dc
        assert time.monotonic() - started < 2.0
        assert dc.status == "unknown"
        assert dc.certificate == {
            "downgraded": "the hull LP has at least 111104 coefficients (512 vertices x 217 rows), "
            "above the LP size cap 20000"
        }

    def test_classify_reads_the_rows_of_the_witness_search(self, monkeypatch):
        # fresh caches, so the search walks the survey here; the vertex gather of
        # the classify that follows reads the rows the bound already gathered
        fresh = functools.lru_cache(maxsize=16)
        monkeypatch.setattr(games_module, "_dc_search", fresh(games_module._DcSearch))
        monkeypatch.setattr(games_module, "dc_bound", fresh(dc_bound.__wrapped__))
        monkeypatch.setattr(
            games_module,
            "_deterministic_correlation_vertices",
            fresh(_deterministic_correlation_vertices.__wrapped__),
        )
        calls = []
        function_rows = games_module._DcSearch.function_rows

        def counted(self, *args):
            calls.append(args)
            return function_rows(self, *args)

        monkeypatch.setattr(games_module._DcSearch, "function_rows", counted)
        games_module.dc_bound(builtin_gyni())
        walked = len(calls)
        assert walked > 0
        dc = classify(gyni_perfect_correlation(), (builtin_gyni(),)).dc
        assert dc.status == "out"
        assert len(calls) == walked

    def test_vertex_cap_downgrades_to_unknown(self, monkeypatch):
        # 16 coordinates, so 17 coefficients per vertex: a cap of 170 allows 10 of
        # the 112 vertices.  With one fixed-point row per gather step the gather
        # stops once the distinct behaviours pass 10, long before all 112.
        monkeypatch.setattr(lp_module, "HULL_LP_CAP", 170)
        monkeypatch.setattr(games_module, "DC_BATCH_CELLS", 1024)
        gather = _deterministic_correlation_vertices.__wrapped__
        with pytest.raises(SearchSpaceTooLarge) as stopped:
            gather(make_scenario(2, 2, 2, 2, 2), CANDIDATE_CAP)
        message = str(stopped.value)
        seen = int(message.split("(")[1].split(" vertices")[0])
        assert 10 < seen < 112
        assert message == (
            f"the hull LP has at least {17 * seen} coefficients ({seen} vertices x 17 rows), "
            "above the LP size cap 170"
        )
        dc = classify(gyni_perfect_correlation()).dc
        assert dc.status == "unknown"
        assert dc.certificate["downgraded"].endswith("above the LP size cap 170")


def strategy_code(tree):
    """A causal strategy tree as nested (party, ((setting, outcome, subtree), ...)) tuples."""
    if tree is None:
        return None
    return (
        tree["party"],
        tuple((b["setting"], b["outcome"], strategy_code(b["then"])) for b in tree["branches"]),
    )


class TestGoldenWitnesses:
    """Exact witnesses of the built-in games, pinning every first-in-order tie-break."""

    GYNIN_STRATEGY = (0, (
        (0, 0, (1, ((0, 0, (2, ((0, 0, None), (1, 0, None)))),
                    (1, 0, (2, ((0, 1, None), (1, 0, None))))))),
        (1, 0, (1, ((0, 0, (2, ((0, 0, None), (1, 1, None)))),
                    (1, 0, (2, ((0, 0, None), (1, 0, None))))))),
    ))
    GYNI_STRATEGY = (0, (
        (0, 0, (1, ((0, 0, None), (1, 0, None)))),
        (1, 0, (1, ((0, 1, None), (1, 0, None)))),
    ))

    def test_causal_strategies(self):
        assert strategy_code(causal_bound(builtin_gynin()).strategy) == self.GYNIN_STRATEGY
        assert strategy_code(causal_bound(builtin_gyni()).strategy) == self.GYNI_STRATEGY

    def test_gynin_dc_witness(self):
        result = dc_bound(builtin_gynin())
        assert result.functions_searched == 744
        assert result.witness_function.maps == (
            (0, 0, 0, 1, 0, 0, 0, 1),
            (0, 0, 0, 0, 1, 0, 1, 0),
            (0, 0, 1, 1, 1, 1, 1, 1),
        )
        assert result.witness_intervention.output_maps == (
            ((0, 0), (1, 0)), ((0, 0), (1, 0)), ((0, 0), (0, 1)),
        )
        assert result.witness_intervention.outcome_maps == (
            ((0, 0), (1, 0)), ((1, 0), (0, 0)), ((0, 1), (1, 0)),
        )

    def test_gyni_dc_witness(self):
        result = dc_bound(builtin_gyni())
        assert result.functions_searched == 12
        assert result.witness_function.maps == ((0, 0, 0, 0), (0, 0, 0, 0))
        assert result.witness_intervention.output_maps == (((0, 0), (0, 0)), ((0, 0), (0, 0)))
        assert result.witness_intervention.outcome_maps == (((0, 0), (1, 0)), ((0, 0), (1, 0)))

    # A seeded random game per scenario pins the first-maximum tie-breaks beyond
    # the built-ins: the asymmetric scenario has mixed alphabets per party, the
    # three-setting one a distinguished party with three slices per row, and
    # the one-party one no other parties to grid over.
    RANDOM_DC_WITNESSES = [
        (
            Scenario((2, 3), (3, 2), (2, 3), (3, 2)), Fraction(12, 7), 60,
            ((0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1)),
            (((0, 0), (2, 0)), ((0, 0, 0), (0, 0, 0), (0, 0, 0))),
            (((2, 0), (2, 0)), ((0, 1, 0), (0, 0, 0), (1, 0, 0))),
        ),
        (
            make_scenario(2, 3, 2, 2, 2), Fraction(7, 10), 12,
            ((0, 1, 0, 1), (0, 0, 0, 0)),
            (((0, 0), (0, 0), (0, 0)), ((0, 0), (1, 0), (1, 0))),
            (((0, 1), (0, 1), (0, 0)), ((0, 0), (0, 0), (1, 0))),
        ),
        (
            make_scenario(1, 2, 2, 2, 2), Fraction(1), 2,
            ((0, 0),),
            (((0, 0), (0, 0)),),
            (((1, 0), (1, 0)),),
        ),
    ]

    @pytest.mark.parametrize(
        "scenario, value, searched, function, output_maps, outcome_maps",
        RANDOM_DC_WITNESSES,
        ids=["asymmetric", "three-settings", "one-party"],
    )
    def test_random_game_dc_witness(
        self, scenario, value, searched, function, output_maps, outcome_maps
    ):
        rng = random.Random(7)
        payoff = [rng.randint(-3, 3) for _ in range(scenario.n_outcomes * scenario.n_settings)]
        weights = [rng.randint(1, 4) for _ in range(scenario.n_settings)]
        game = Game(scenario, tuple(payoff), tuple(Fraction(w, sum(weights)) for w in weights))
        result = dc_bound.__wrapped__(game)
        assert result.value == value
        assert result.functions_searched == searched
        assert result.witness_function.maps == function
        assert result.witness_intervention.output_maps == output_maps
        assert result.witness_intervention.outcome_maps == outcome_maps
        replay = evaluate_correlation(
            quasiprocess_from_function(result.witness_function),
            result.witness_intervention.to_family(scenario),
        )
        assert score(game, replay.to_correlation()) == value
