import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from causelab import (
    Correlation,
    DeterministicIntervention,
    InterventionFamily,
    QuasiProcess,
    QuasiProcessFunction,
    Scenario,
    canonical_interventions,
    evaluate_correlation,
    make_scenario,
    quasiprocess_from_function,
    universal_realization,
    validate_correlation,
)
from causelab.errors import (
    InvalidScenario,
    InvalidTable,
    NotCanonicalizable,
    ScenarioMismatch,
)
from causelab.games import bfw_process, builtin_gynin, builtin_ocb, pr_box_correlation, score
from causelab.scenario import flatten, iter_tuples, strides, unflatten

from conftest import (
    identity_loop,
    random_correlation,
    random_distribution,
    random_interventions,
)


def unchecked_family(scenario: Scenario, tables) -> InterventionFamily:
    """An intervention family that skips normalization, such as a scaled one."""
    family = object.__new__(InterventionFamily)
    object.__setattr__(family, "scenario", scenario)
    object.__setattr__(family, "tables", tuple(map(tuple, tables)))
    return family


class TestMakeScenario:
    def test_gynin_scenario(self):
        sc = make_scenario(3, 2, 2, 2, 2)
        assert sc.n_parties == 3
        assert sc.n_settings == sc.n_outcomes == sc.n_inputs == sc.n_outputs == 8

    def test_trivial_scenario(self):
        sc = make_scenario(1, 1, 1, 1, 1)
        assert sc.n_settings == 1

    def test_chsh_style_scenario(self):
        sc = make_scenario(2, 2, 2, 1, 1)
        assert sc.inputs == (1, 1) and sc.outputs == (1, 1)
        assert sc.n_settings == 4

    @pytest.mark.parametrize("bad", [0, -1])
    def test_nonpositive_cardinality_rejected(self, bad):
        with pytest.raises(InvalidScenario):
            make_scenario(2, bad, 2, 2, 2)
        with pytest.raises(InvalidScenario):
            make_scenario(0, 2, 2, 2, 2)

    @pytest.mark.parametrize("bad", [2.5, True, "2"])
    def test_non_integer_cardinality_rejected(self, bad):
        with pytest.raises(InvalidScenario):
            Scenario(settings=(2, bad), outcomes=(2, 2), inputs=(2, 2), outputs=(2, 2))

    @pytest.mark.parametrize(
        "settings",
        [[2.5, 2], [True, 2], ["2", 2], 2.0],
        ids=["float-entry", "bool-entry", "str-entry", "float-scalar"],
    )
    def test_cardinalities_are_not_coerced(self, settings):
        with pytest.raises(InvalidScenario):
            make_scenario(2, settings, 2, 2, 2)

    @pytest.mark.parametrize("n_parties", [2.0, True, "2"])
    def test_party_count_is_not_coerced(self, n_parties):
        with pytest.raises(InvalidScenario):
            make_scenario(n_parties, 2, 2, 2, 2)

    def test_per_party_cards(self):
        sc = make_scenario(2, (2, 4), 2, 2, (2, 4))
        assert sc.settings == (2, 4) and sc.outputs == (2, 4)


class TestIndexing:
    @pytest.mark.parametrize("cards", [(2,), (2, 2), (2, 3, 2), (1, 4), (3, 1, 2)])
    def test_flatten_round_trip(self, cards):
        for flat, tup in enumerate(itertools.product(*(range(c) for c in cards))):
            assert flatten(tup, cards) == flat
            assert unflatten(flat, cards) == tup

    @pytest.mark.parametrize("cards", [(), (2,), (2, 2), (2, 3, 2), (1, 4), (3, 1, 2)])
    def test_strides_are_flatten_place_values(self, cards):
        places = strides(cards)
        assert places == [math.prod(cards[k + 1 :]) for k in range(len(cards))]
        for tup in itertools.product(*(range(c) for c in cards)):
            assert flatten(tup, cards) == sum(v * p for v, p in zip(tup, places))

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: make_scenario(2, (2, 2, 2), 2, 2, 2), InvalidScenario,
             "settings needs one cardinality per party"),
            (lambda: flatten((0, 1), (2,)), IndexError, "index length 2 != 1 cards"),
            (lambda: InterventionFamily(make_scenario(2, 2, 2, 2, 2), ()), InvalidTable,
             "expected 2 party tables, got 0"),
        ],
        ids=["per-party-list", "flatten-index", "intervention-tables"],
    )
    def test_length_mismatches_rejected(self, build, error, message):
        with pytest.raises(error, match=message):
            build()

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            flatten((2,), (2,))
        with pytest.raises(IndexError):
            unflatten(4, (2, 2))


class TestValidation:
    def test_valid_correlation_empty_report(self, gyni_scenario):
        corr = random_correlation(random.Random(0), gyni_scenario)
        report = validate_correlation(gyni_scenario, corr.table)
        assert report.ok

    def test_negative_entry_flagged(self, single_scenario):
        table = [Fraction(1)] * 4
        table[0] = Fraction(-1, 8)
        table[2] = Fraction(2) + Fraction(1, 8)
        report = validate_correlation(single_scenario, table)
        assert report.negative_entries[0][:2] == (0, 0)
        assert report.negative_entries[0][2] == Fraction(-1, 8)

    def test_bad_mass_flagged(self, single_scenario):
        table = [Fraction(1, 2), Fraction(1, 2), Fraction(5, 8), Fraction(1, 2)]
        report = validate_correlation(single_scenario, table)
        assert report.mass_violations == ((0, Fraction(9, 8)),)

    def test_correlation_constructor_raises(self, single_scenario):
        with pytest.raises(InvalidTable):
            Correlation(single_scenario, (Fraction(1),) * 4)

    def test_quasiprocess_columns_normalized(self, single_scenario):
        table = (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 4))
        with pytest.raises(InvalidTable):
            QuasiProcess(single_scenario, table)


def five_deep_evaluation(process, family) -> tuple[Fraction, ...]:
    """Test-local reference evaluator: visits every (a, i, o, x) and multiplies
    p(i|o) by each party's p(x_k, o_k | a_k, i_k)."""
    sc = process.scenario
    n_a = sc.n_settings
    table = [Fraction(0)] * (sc.n_outcomes * n_a)
    for a_flat, a in enumerate(iter_tuples(sc.settings)):
        for i in iter_tuples(sc.inputs):
            for o in iter_tuples(sc.outputs):
                for x_flat, x in enumerate(iter_tuples(sc.outcomes)):
                    term = process.prob(i, o)
                    for k in range(sc.n_parties):
                        term *= family.prob(k, x[k], o[k], a[k], i[k])
                    table[x_flat * n_a + a_flat] += term
    return tuple(table)


class TestEvaluate:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_the_five_deep_loop(self, data):
        """Random scenarios of 1-3 parties, random (not only deterministic)
        families, and processes with zero entries give the same exact table."""
        n = data.draw(st.integers(1, 3), label="parties")
        card = st.integers(1, 2 if n == 3 else 3)
        sc = Scenario(*(tuple(data.draw(st.lists(card, min_size=n, max_size=n))) for _ in "saio"))
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        # joint input `dead` is never delivered; the other entries hold random zeros too
        dead = rng.randrange(sc.n_inputs)
        columns = [
            random_distribution(rng, sc.n_inputs - 1) if sc.n_inputs > 1 else [Fraction(1)]
            for _ in range(sc.n_outputs)
        ]
        for column in columns:
            if sc.n_inputs > 1:
                column.insert(dead, Fraction(0))
        process = QuasiProcess(sc, tuple(col[i] for i in range(sc.n_inputs) for col in columns))
        family = random_interventions(rng, sc)
        report = evaluate_correlation(process, family)
        expected = five_deep_evaluation(process, family)
        assert report.table == expected
        n_a = sc.n_settings
        assert report.setting_mass == tuple(sum(expected[a::n_a]) for a in range(n_a))

    def test_bfw_canonical_wins_perfectly(self):
        process = bfw_process()
        report = evaluate_correlation(process, canonical_interventions(process.scenario))
        assert report.is_normalized
        assert score(builtin_gynin(), report.to_correlation()) == 1

    def test_grandfather_yields_zero_mass(self, single_scenario):
        loop = identity_loop(single_scenario)
        # negation intervention: send the flipped input, report the setting
        table = [Fraction(0)] * 16
        n_cols = 4
        for a in range(2):
            for i in range(2):
                row = a * 2 + (1 - i)  # x = a, o = 1 - i
                table[row * n_cols + a * 2 + i] = Fraction(1)
        family = InterventionFamily(single_scenario, (tuple(table),))
        report = evaluate_correlation(loop, family)
        assert set(report.table) == {Fraction(0)}
        assert report.setting_mass == (Fraction(0), Fraction(0))

    def test_nonsignaling_process_gives_product(self, gyni_scenario):
        # o-independent p(i) with interventions that ignore the input
        rng = random.Random(7)
        p1, p2 = Fraction(1, 3), Fraction(2, 3)
        table = [Fraction(0)] * (4 * 4)
        for i_flat, (i1, i2) in enumerate(itertools.product(range(2), range(2))):
            weight = (p1 if i1 == 0 else 1 - p1) * (p2 if i2 == 0 else 1 - p2)
            for o_flat in range(4):
                table[i_flat * 4 + o_flat] = weight
        process = QuasiProcess(gyni_scenario, tuple(table))
        # party k reports x = a, sends o = 0, independent of i
        tables = []
        for k in range(2):
            t = [Fraction(0)] * (4 * 4)
            for a in range(2):
                for i in range(2):
                    t[(a * 2 + 0) * 4 + a * 2 + i] = Fraction(1)
            tables.append(tuple(t))
        family = InterventionFamily(gyni_scenario, tuple(tables))
        report = evaluate_correlation(process, family)
        assert report.is_normalized
        corr = report.to_correlation()
        for a1, a2 in itertools.product(range(2), range(2)):
            assert corr.prob((a1, a2), (a1, a2)) == 1

    def test_scenario_mismatch(self, gyni_scenario, single_scenario):
        process = identity_loop(single_scenario)
        family = canonical_interventions(gyni_scenario)
        with pytest.raises(ScenarioMismatch):
            evaluate_correlation(process, family)

    def test_multilinear_in_each_party(self, gyni_scenario):
        rng = random.Random(11)
        process = quasiprocess_from_function(
            QuasiProcessFunction(gyni_scenario, ((0, 0, 1, 1), (0, 1, 0, 1)))
        )
        family = random_interventions(rng, gyni_scenario)
        lam = Fraction(3, 7)
        scaled_tables = list(family.tables)
        scaled_tables[0] = tuple(lam * v for v in scaled_tables[0])
        scaled = unchecked_family(gyni_scenario, scaled_tables)
        base = evaluate_correlation(process, family)
        stretched = evaluate_correlation(process, scaled)
        assert all(s == lam * b for s, b in zip(stretched.table, base.table))

    def test_consistent_process_normalizes_any_interventions(self, gyni_scenario):
        from causelab import enumerate_process_functions, mixture_process, ProcessFunctionMixture

        rng = random.Random(23)
        functions = list(enumerate_process_functions(gyni_scenario))
        for _ in range(10):
            chosen = rng.sample(functions, 3)
            weights = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
            process = mixture_process(
                ProcessFunctionMixture(tuple(zip(chosen, weights)))
            )
            family = random_interventions(rng, gyni_scenario)
            report = evaluate_correlation(process, family)
            assert report.is_normalized


class TestCanonicalInterventions:
    def test_gynin_copy_family(self, gynin_scenario):
        family = canonical_interventions(gynin_scenario)
        for k in range(3):
            for a in range(2):
                for i in range(2):
                    assert family.prob(k, i, a, a, i) == 1

    def test_trivial_scenario(self):
        sc = make_scenario(1, 1, 1, 1, 1)
        family = canonical_interventions(sc)
        assert family.prob(0, 0, 0, 0, 0) == 1

    @pytest.mark.parametrize(
        "sc",
        [builtin_ocb().scenario, Scenario((2, 3, 1), (3, 1, 2), (3, 1, 2), (2, 3, 1))],
        ids=["ocb", "asymmetric"],
    )
    def test_equals_the_deterministic_maps(self, sc):
        """Each party reports its input and sends its setting: the family the
        per-party maps build through ``DeterministicIntervention``."""
        output_maps = tuple(
            tuple((a,) * d_i for a in range(d_a)) for d_a, d_i in zip(sc.settings, sc.inputs)
        )
        outcome_maps = tuple(
            (tuple(range(d_i)),) * d_a for d_a, d_i in zip(sc.settings, sc.inputs)
        )
        reference = DeterministicIntervention(output_maps, outcome_maps).to_family(sc)
        assert canonical_interventions(sc) == reference

    def test_not_canonicalizable(self):
        sc = make_scenario(1, 2, 2, 3, 2)  # outcome_card != input_card
        with pytest.raises(NotCanonicalizable):
            canonical_interventions(sc)


class TestUniversalRealization:
    def test_pr_box_round_trip(self):
        corr = pr_box_correlation()
        process, family = universal_realization(corr)
        report = evaluate_correlation(process, family)
        assert report.table == corr.table

    def test_single_party_copy_is_identity_loop(self, single_scenario):
        table = [Fraction(0)] * 4
        for a in range(2):
            table[a * 2 + a] = Fraction(1)  # x = a deterministically
        corr = Correlation(single_scenario, tuple(table))
        process, _ = universal_realization(corr)
        assert process.table == identity_loop(single_scenario).table

    def test_uniform_round_trip(self, gyni_scenario):
        n = gyni_scenario.n_outcomes
        table = (Fraction(1, n),) * (n * gyni_scenario.n_settings)
        corr = Correlation(gyni_scenario, table)
        process, family = universal_realization(corr)
        assert evaluate_correlation(process, family).table == corr.table

    def test_random_round_trips(self, gynin_scenario):
        rng = random.Random(3)
        for _ in range(5):
            corr = random_correlation(rng, gynin_scenario)
            process, family = universal_realization(corr)
            assert evaluate_correlation(process, family).table == corr.table
