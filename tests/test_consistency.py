import itertools
import random
import time
from fractions import Fraction
from math import prod

import pytest
from hypothesis import event, given, settings, strategies as st

from causelab import (
    OutputChoice,
    ProcessFunctionMixture,
    QuasiProcess,
    QuasiProcessFunction,
    Scenario,
    enumerate_output_choices,
    enumerate_process_functions,
    fixed_points,
    is_logically_consistent,
    is_process_function,
    make_scenario,
    mixture_process,
    quasiprocess_from_function,
)
from causelab import consistency
from causelab.consistency import (
    CANDIDATE_CAP,
    ConsistencyVerdict,
    FunctionVerdict,
    _candidate_axes,
    _survey_process_functions,
)
from causelab.errors import InvalidMixture, SearchSpaceTooLarge
from causelab.games import bfw_process
from causelab.lp import _scaled
from causelab.scenario import flatten, iter_tuples

from conftest import identity_loop


def brute_force_unique_fixed_point(scenario, maps) -> bool:
    """Test-local oracle: scan every output choice and count fixed points directly."""
    per_party = [
        itertools.product(range(d_o), repeat=d_i)
        for d_o, d_i in zip(scenario.outputs, scenario.inputs)
    ]
    omega = QuasiProcessFunction(scenario, maps)
    for choice_maps in itertools.product(*per_party):
        count = 0
        for i in itertools.product(*(range(d) for d in scenario.inputs)):
            o = tuple(m[v] for m, v in zip(choice_maps, i))
            if omega.apply(o) == i:
                count += 1
        if count != 1:
            return False
    return True


class TestOutputChoices:
    def test_single_binary_party_has_four(self, single_scenario):
        assert len(list(enumerate_output_choices(single_scenario))) == 4

    def test_gynin_has_sixty_four(self, gynin_scenario):
        choices = list(enumerate_output_choices(gynin_scenario))
        assert len(choices) == 64
        # lexicographic order: all-zero maps first, all-one maps last
        assert choices[0].maps == ((0, 0), (0, 0), (0, 0))
        assert choices[-1].maps == ((1, 1), (1, 1), (1, 1))

    def test_trivial_systems_have_one(self):
        sc = make_scenario(3, 2, 2, 1, 1)
        assert len(list(enumerate_output_choices(sc))) == 1


class TestLogicalConsistency:
    def test_identity_loop_certificate_is_negation(self, single_scenario):
        verdict = is_logically_consistent(identity_loop(single_scenario))
        assert not verdict.consistent
        assert verdict.violation.maps == ((1, 0),)
        assert verdict.violation_mass == 0

    def test_bfw_is_consistent(self):
        assert is_logically_consistent(bfw_process()).consistent

    def test_output_independent_table_is_consistent(self, gyni_scenario):
        table = [Fraction(0)] * 16
        weights = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)]
        for i_flat in range(4):
            for o_flat in range(4):
                table[i_flat * 4 + o_flat] = weights[i_flat]
        assert is_logically_consistent(QuasiProcess(gyni_scenario, tuple(table))).consistent

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_matches_a_fraction_sum_oracle(self, data):
        """Mixtures of process functions (consistent) and random tables (mostly
        not) on one to three parties with asymmetric and trivial alphabets; the
        verdict, the violating choice and its mass must all match.  The scale
        puts some numerators x joint inputs above 2^63, past int64 sums."""
        sc = data.draw(st.sampled_from(VERTEX_TEST_SCENARIOS))
        scale = data.draw(st.sampled_from([1, 3, 2**64 + 1]))

        def split(counts):
            # positive integer counts as exact weights over counts-sum x scale
            parts = [Fraction(c, sum(counts) * scale) for c in counts[1:]]
            return [1 - sum(parts)] + parts

        if data.draw(st.booleans()):
            functions = list(enumerate_process_functions(sc))
            chosen = data.draw(st.lists(st.sampled_from(functions), min_size=1, max_size=4))
            counts = data.draw(st.lists(st.integers(1, 4), min_size=len(chosen), max_size=len(chosen)))
            qp = mixture_process(ProcessFunctionMixture(tuple(zip(chosen, split(counts)))))
        else:
            table = [Fraction(0)] * (sc.n_inputs * sc.n_outputs)
            for o_flat in range(sc.n_outputs):
                i_flats = data.draw(
                    st.lists(st.integers(0, sc.n_inputs - 1), min_size=1, max_size=3, unique=True)
                )
                counts = data.draw(st.lists(st.integers(1, 3), min_size=len(i_flats), max_size=len(i_flats)))
                for i_flat, weight in zip(i_flats, split(counts)):
                    table[i_flat * sc.n_outputs + o_flat] = weight
            qp = QuasiProcess(sc, tuple(table))
        verdict = is_logically_consistent(qp)
        event(f"consistent: {verdict.consistent}")
        event(f"past int64: {past_int64(qp)}")
        assert verdict == fraction_sum_vertex_test(qp)

    @pytest.mark.parametrize("consistent", [True, False])
    def test_sums_past_int64_stay_exact(self, gyni_scenario, consistent):
        # a constant function at weight 1/(2^64 + 1) mixed with a one-way
        # function or with the swap loop, which has no fixed point at some
        # choice: numerators near 2^64 overflow any fixed-width mass
        small = Fraction(1, 2**64 + 1)
        constant = QuasiProcessFunction(gyni_scenario, ((0,) * 4, (0,) * 4))
        second = QuasiProcessFunction(
            gyni_scenario, ((0, 0, 0, 0) if consistent else (0, 1, 0, 1), (0, 0, 1, 1))
        )
        pairs = zip(*(quasiprocess_from_function(fn).table for fn in (constant, second)))
        qp = QuasiProcess(gyni_scenario, tuple(small * a + (1 - small) * b for a, b in pairs))
        assert past_int64(qp)
        verdict = is_logically_consistent(qp)
        assert verdict == fraction_sum_vertex_test(qp)
        assert verdict.consistent is consistent


def past_int64(qp) -> bool:
    nums, _ = _scaled(qp.table)
    return max(nums) * qp.scenario.n_inputs >= 2**63


def _inputs_outputs(inputs, outputs) -> Scenario:
    # only inputs and outputs matter to the vertex test
    return Scenario((1,) * len(inputs), (1,) * len(inputs), inputs, outputs)


VERTEX_TEST_SCENARIOS = [
    _inputs_outputs((3,), (2,)),
    _inputs_outputs((2, 2), (2, 2)),
    _inputs_outputs((3, 3), (2, 2)),
    _inputs_outputs((2, 2), (2, 4)),  # the ocb game's canonical scenario
    _inputs_outputs((2, 3), (1, 2)),
    _inputs_outputs((2, 2, 2), (2, 2, 2)),
    _inputs_outputs((2, 1, 2), (2, 3, 1)),
]


def fraction_sum_vertex_test(qp) -> ConsistencyVerdict:
    """Test-local oracle: the mass at every output choice as a sum of Fractions;
    the certificate is the smallest mass, first in enumeration order."""
    sc = qp.scenario
    worst = None
    for choice in enumerate_output_choices(sc):
        mass = sum(
            (qp.prob(i, choice.apply(i)) for i in itertools.product(*map(range, sc.inputs))),
            Fraction(0),
        )
        if mass != 1 and (worst is None or mass < worst[1]):
            worst = (choice, mass)
    return ConsistencyVerdict(True) if worst is None else ConsistencyVerdict(False, *worst)


class TestFixedPoints:
    def test_constant_map_single_fixed_point(self, gyni_scenario):
        omega = QuasiProcessFunction(gyni_scenario, ((1, 1, 1, 1), (0, 0, 0, 0)))
        for choice in enumerate_output_choices(gyni_scenario):
            assert fixed_points(omega, choice) == ((1, 0),)

    def test_identity_loop_negation_has_none(self, single_scenario):
        omega = QuasiProcessFunction(single_scenario, ((0, 1),))
        assert fixed_points(omega, OutputChoice(((1, 0),))) == ()

    def test_identity_loop_identity_has_two(self, single_scenario):
        omega = QuasiProcessFunction(single_scenario, ((0, 1),))
        assert fixed_points(omega, OutputChoice(((0, 1),))) == ((0,), (1,))


class TestIsProcessFunction:
    def test_one_way_signaling_passes(self, gyni_scenario):
        # i_1 = 0, i_2 = o_1
        omega = QuasiProcessFunction(gyni_scenario, ((0, 0, 0, 0), (0, 0, 1, 1)))
        assert is_process_function(omega).is_process_function

    def test_identity_loop_fails_with_grandfather_certificate(self, single_scenario):
        verdict = is_process_function(QuasiProcessFunction(single_scenario, ((0, 1),)))
        assert not verdict.is_process_function
        assert verdict.violation.maps == ((1, 0),)
        assert verdict.fixed_point_count == 0

    def test_one_way_function_on_four_level_systems_is_fast(self):
        # 65,536 output choices x 16 joint inputs: one vertex-test contraction
        sc = make_scenario(2, 1, 1, 4, 4)
        omega = QuasiProcessFunction(sc, ((0,) * 16, tuple(o // 4 for o in range(16))))
        started = time.perf_counter()
        assert is_process_function(omega) == FunctionVerdict(True)
        assert time.perf_counter() - started < 1.0

    def test_two_way_swap_fails(self, gyni_scenario):
        # i_1 = o_2, i_2 = o_1: negation at party 1 with identity at party 2
        omega = QuasiProcessFunction(gyni_scenario, ((0, 1, 0, 1), (0, 0, 1, 1)))
        verdict = is_process_function(omega)
        assert not verdict.is_process_function
        assert verdict.fixed_point_count == 0


def fixed_point_count_verdict(omega) -> FunctionVerdict:
    """Test-local oracle: count :func:`fixed_points` at every output choice;
    the certificate is the fewest, first in enumeration order."""
    worst = None
    for choice in enumerate_output_choices(omega.scenario):
        count = len(fixed_points(omega, choice))
        if count != 1 and (worst is None or count < worst[1]):
            worst = (choice, count)
    return FunctionVerdict(True) if worst is None else FunctionVerdict(False, *worst)


def brute_force_survey(scenario, reduced):
    """Test-local survey oracle: every candidate in lex order, kept when
    :func:`fixed_points` finds exactly one fixed point at every output choice."""
    outputs = list(iter_tuples(scenario.outputs))
    axes = []
    for k, d_i in enumerate(scenario.inputs):
        if not reduced:
            axes.append(list(itertools.product(range(d_i), repeat=len(outputs))))
            continue
        others = sorted({o[:k] + o[k + 1 :] for o in outputs})
        component = []
        for values in itertools.product(range(d_i), repeat=len(others)):
            lookup = dict(zip(others, values))
            component.append(tuple(lookup[o[:k] + o[k + 1 :]] for o in outputs))
        axes.append(component)
    choices = list(enumerate_output_choices(scenario))
    survivors = []
    for maps in itertools.product(*axes):
        omega = QuasiProcessFunction(scenario, maps)
        table = []
        for choice in choices:
            hits = fixed_points(omega, choice)
            if len(hits) != 1:
                break
            table.append(flatten(hits[0], scenario.inputs))
        else:
            survivors.append((maps, tuple(table)))
    return tuple(survivors)


def projection_candidate_axes(scenario):
    """Test-local reference for :func:`_candidate_axes`: per party, every value
    tuple over its domain (lex order, ``itertools.product``) read at the flat
    index of the joint output with the party's own component removed."""
    axes = []
    for k, d_i in enumerate(scenario.inputs):
        other_cards = [d for j, d in enumerate(scenario.outputs) if j != k]
        projection = [
            flatten([v for j, v in enumerate(o) if j != k], other_cards)
            for o in iter_tuples(scenario.outputs)
        ]
        axes.append([
            tuple(values[flat] for flat in projection)
            for values in itertools.product(range(d_i), repeat=len(set(projection)))
        ])
    return axes


CANDIDATE_SCENARIOS = [
    make_scenario(1, 2, 2, 2, 2),
    make_scenario(1, 2, 2, 3, 2),
    make_scenario(2, 2, 2, 2, 2),
    make_scenario(2, 2, 2, 2, 3),
    make_scenario(2, 2, 2, (3, 1), (2, 3)),
    make_scenario(3, 2, 2, 2, 2),
    make_scenario(3, 2, 2, (2, 1, 2), (1, 3, 2)),
]


class TestEnumeration:
    @pytest.mark.parametrize(
        "sc", CANDIDATE_SCENARIOS, ids=lambda sc: f"{sc.inputs}->{sc.outputs}-reduced"
    )
    def test_candidate_axes_equal_the_projection_build(self, sc):
        axes, total = _candidate_axes(sc)
        expected = projection_candidate_axes(sc)
        assert [[tuple(row) for row in axis.tolist()] for axis in axes] == expected
        assert total == prod(map(len, expected))

    def test_single_party_unreduced_yields_the_constants(self, single_scenario):
        functions = list(enumerate_process_functions(single_scenario))
        assert [fn.maps for fn in functions] == [((0, 0),), ((1, 1),)]
        # oracle agreement over all four candidates
        for maps in itertools.product(itertools.product(range(2), repeat=2)):
            expected = brute_force_unique_fixed_point(single_scenario, maps)
            assert expected == any(fn.maps == maps for fn in functions)

    def test_two_party_reduced_count_and_set(self, gyni_scenario):
        functions = list(enumerate_process_functions(gyni_scenario))
        assert len(functions) == 12
        oracle = {
            maps
            for maps in itertools.product(
                itertools.product(range(2), repeat=4), repeat=2
            )
            if brute_force_unique_fixed_point(gyni_scenario, maps)
        }
        assert {fn.maps for fn in functions} == oracle

    def test_reduced_equals_unreduced_at_small_sizes(self, single_scenario, gyni_scenario):
        # no process function reads its own party's output: the survey of the
        # reduced candidates finds every survivor of the unreduced brute force
        for sc in (single_scenario, gyni_scenario):
            survey = {fn.maps for fn in enumerate_process_functions(sc)}
            assert survey == {maps for maps, _ in brute_force_survey(sc, reduced=False)}

    @pytest.mark.parametrize(
        "sc, reduced, count",
        [
            (make_scenario(3, 2, 2, 2, 2), True, 744),
            (make_scenario(2, 2, 2, 2, 2), False, 12),
            (make_scenario(2, 3, 3, 3, 3), True, 153),
            (Scenario((2, 3), (2, 2), (2, 3), (3, 2)), True, 60),
            (make_scenario(2, 2, 2, 2, 4), True, 60),
            (make_scenario(2, 2, 2, 4, 2), True, 112),
            (Scenario((1, 1), (1, 1), (3, 2), (1, 2)), True, 18),
            (Scenario((1, 1, 1), (1, 1, 1), (2, 3, 2), (2, 1, 2)), True, 972),
            (make_scenario(1, 1, 1, 5, 1), True, 5),
        ],
        ids=["3-2-True-744", "2-2-False-12", "2-3-True-153", "mixed-True-60",
             "four-outputs-True-60", "four-inputs-True-112", "one-output-first-True-18",
             "one-output-middle-True-972", "one-output-only-True-5"],
    )
    def test_survey_equals_brute_force(self, sc, reduced, count):
        oracle = brute_force_survey(sc, reduced)
        assert len(oracle) == count
        assert _survey_process_functions(sc, CANDIDATE_CAP) == oracle

    def test_one_output_party_inputs_leave_the_contraction(self):
        # one output choice: every constant is a process function, with its
        # value as the fixed point; 20,000 inputs need no 20,000-cell contraction
        started = time.perf_counter()
        survey = _survey_process_functions(make_scenario(1, 1, 1, 20000, 1), CANDIDATE_CAP)
        assert time.perf_counter() - started < 2.0
        assert survey == tuple((((v,),), (v,)) for v in range(20000))

    @pytest.mark.parametrize("cards", [(3, 2, 2, 2, 2), (2, 3, 3, 3, 3)], ids=["gynin", "ternary"])
    def test_batch_size_does_not_change_the_survey(self, monkeypatch, cards):
        # one candidate per batch, then every candidate in one batch; each
        # batch is one contraction
        sc = make_scenario(*cards)
        survey = _survey_process_functions(sc, CANDIDATE_CAP)
        batches = []
        kernel = consistency._choice_masses
        monkeypatch.setattr(
            consistency, "_choice_masses", lambda *args: batches.append(1) or kernel(*args)
        )
        monkeypatch.setattr(consistency, "SURVEY_BATCH_CANDIDATES", 1)
        assert _survey_process_functions(sc, CANDIDATE_CAP) == survey
        assert len(batches) == _candidate_axes(sc)[1]
        batches.clear()
        monkeypatch.setattr(consistency, "SURVEY_BATCH_CANDIDATES", 2**40)
        monkeypatch.setattr(consistency, "CHOICE_TABLE_CELL_CAP", 2**40)
        assert _survey_process_functions(sc, CANDIDATE_CAP) == survey
        assert len(batches) == 1

    def test_three_party_count_regression(self, gynin_scenario):
        assert len(list(enumerate_process_functions(gynin_scenario))) == 744

    def test_enumerated_functions_are_consistent(self, gyni_scenario):
        for fn in enumerate_process_functions(gyni_scenario):
            assert is_logically_consistent(quasiprocess_from_function(fn)).consistent

    def test_oracle_equivalence_deterministic_tables(self, single_scenario, gyni_scenario):
        # the vertex test of the 0/1 table == a fixed-point count per choice,
        # exhaustively over all unreduced candidates (4 and 256 cases)
        for sc in (single_scenario, gyni_scenario):
            domain = sc.n_outputs
            for maps in itertools.product(
                itertools.product(range(2), repeat=domain), repeat=sc.n_parties
            ):
                omega = QuasiProcessFunction(sc, maps)
                assert is_process_function(omega) == fixed_point_count_verdict(omega)

    def test_cap(self, gynin_scenario):
        with pytest.raises(SearchSpaceTooLarge):
            list(enumerate_process_functions(gynin_scenario, cap=100))


class TestQuasiprocessFromFunction:
    def test_exactly_one_unit_per_output_column(self, gyni_scenario):
        for fn in enumerate_process_functions(gyni_scenario):
            table = quasiprocess_from_function(fn).table
            n_o = gyni_scenario.n_outputs
            for o_flat in range(n_o):
                column = [table[i * n_o + o_flat] for i in range(gyni_scenario.n_inputs)]
                assert column.count(Fraction(1)) == 1
                assert column.count(Fraction(0)) == len(column) - 1

    def test_identity_loop_gives_identity_table(self, single_scenario):
        omega = QuasiProcessFunction(single_scenario, ((0, 1),))
        table = quasiprocess_from_function(omega).table
        assert table == (Fraction(1), Fraction(0), Fraction(0), Fraction(1))


class TestMixtures:
    def test_singleton_mixture_equals_function_table(self, gyni_scenario):
        fn = next(iter(enumerate_process_functions(gyni_scenario)))
        mix = ProcessFunctionMixture(((fn, Fraction(1)),))
        assert mixture_process(mix).table == quasiprocess_from_function(fn).table

    def test_equal_constants_give_half(self, single_scenario):
        zero = QuasiProcessFunction(single_scenario, ((0, 0),))
        one = QuasiProcessFunction(single_scenario, ((1, 1),))
        mix = ProcessFunctionMixture(((zero, Fraction(1, 2)), (one, Fraction(1, 2))))
        assert set(mixture_process(mix).table) == {Fraction(1, 2)}

    def test_random_mixtures_are_consistent(self, gyni_scenario):
        rng = random.Random(5)
        functions = list(enumerate_process_functions(gyni_scenario))
        for _ in range(25):
            chosen = rng.sample(functions, rng.randint(1, 4))
            raw = [Fraction(rng.randint(1, 5)) for _ in chosen]
            total = sum(raw)
            mix = ProcessFunctionMixture(
                tuple((fn, w / total) for fn, w in zip(chosen, raw))
            )
            assert is_logically_consistent(mixture_process(mix)).consistent

    def test_bad_weights_rejected(self, single_scenario):
        zero = QuasiProcessFunction(single_scenario, ((0, 0),))
        with pytest.raises(InvalidMixture):
            ProcessFunctionMixture(((zero, Fraction(1, 2)),))
        with pytest.raises(InvalidMixture):
            ProcessFunctionMixture(((zero, Fraction(-1)), (zero, Fraction(2))))

    def test_non_function_component_rejected(self, single_scenario):
        loop = QuasiProcessFunction(single_scenario, ((0, 1),))
        with pytest.raises(InvalidMixture):
            ProcessFunctionMixture(((loop, Fraction(1)),))

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda sc: QuasiProcessFunction(sc, ()), ValueError, "expected 1 component maps, got 0"),
            (lambda sc: QuasiProcessFunction(sc, ((0,),)), ValueError,
             "component 0 defined on 1 joint outputs, expected 2"),
            (lambda sc: QuasiProcessFunction(sc, ((0, 2),)), ValueError,
             "component 0 takes a value outside its input alphabet"),
            (lambda sc: ProcessFunctionMixture(()), InvalidMixture,
             "a mixture needs at least one component"),
            (lambda sc: ProcessFunctionMixture((
                (QuasiProcessFunction(sc, ((0, 0),)), Fraction(1, 2)),
                (QuasiProcessFunction(make_scenario(1, 2, 2, 2, 3), ((0, 0, 0),)), Fraction(1, 2)),
            )), InvalidMixture, "mixture components live on different scenarios"),
        ],
        ids=["component-count", "domain-length", "outside-alphabet", "empty-mixture",
             "mixed-scenarios"],
    )
    def test_malformed_functions_and_mixtures_rejected(self, single_scenario, build, error, message):
        with pytest.raises(error, match=message):
            build(single_scenario)

    def test_bfw_table_is_not_any_singleton_function(self):
        # the perfect-winning table is strictly mixed: no deterministic table matches
        bfw = bfw_process()
        for fn in enumerate_process_functions(bfw.scenario):
            assert quasiprocess_from_function(fn).table != bfw.table
