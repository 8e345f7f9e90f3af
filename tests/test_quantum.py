import functools
import itertools
import random
import time
from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causelab import (
    ProcessFunctionMixture,
    Scenario,
    canonical_interventions,
    evaluate_correlation,
    enumerate_process_functions,
    make_scenario,
    mixture_process,
)
from causelab import quantum as quantum_module
from causelab.errors import InvalidTable, NonDiagonal, ScenarioMismatch, SearchSpaceTooLarge
from causelab.games import bfw_process, builtin_gynin, builtin_ocb, score
from causelab.quantum import (
    InstrumentCJ,
    ProcessMatrix,
    builtin_bfw,
    builtin_ocb as builtin_ocb_process,
    cj_from_kraus,
    classical_from_diagonal,
    classical_instruments,
    diagonal_from_classical,
    is_valid_instrument,
    _normalization_family,
    _trace_rule,
    is_valid_process_matrix,
    pm_correlation,
)
from causelab.scenario import iter_tuples

from conftest import identity_loop, random_interventions
from test_bench_contract import load_tracing

OCB_TARGET = (2 + np.sqrt(2)) / 4


def ket(i: int) -> np.ndarray:
    v = np.zeros(2, dtype=np.complex128)
    v[i] = 1.0
    return v


class TestCjFromKraus:
    def test_identity_channel_rank_one_trace_two(self):
        cj = cj_from_kraus([np.eye(2)], 2, 2)
        assert abs(np.trace(cj) - 2.0) < 1e-12
        eigs = np.linalg.eigvalsh(cj)
        assert np.sum(eigs > 1e-9) == 1

    def test_depolarizing_channel_is_half_identity(self):
        kraus = [
            np.outer(ket(i), ket(j).conj()) / np.sqrt(2) for i in range(2) for j in range(2)
        ]
        cj = cj_from_kraus(kraus, 2, 2)
        assert np.max(np.abs(cj - np.eye(4) / 2)) < 1e-12

    def test_discard_map_is_input_identity(self):
        kraus = [ket(0).conj().reshape(1, 2), ket(1).conj().reshape(1, 2)]
        cj = cj_from_kraus(kraus, 2, 1)
        assert np.max(np.abs(cj - np.eye(2))) < 1e-12

    def test_complex_kraus_stays_valid(self):
        # measure in the circular basis and reprepare computational states
        plus_i = (ket(0) + 1j * ket(1)) / np.sqrt(2)
        minus_i = (ket(0) - 1j * ket(1)) / np.sqrt(2)
        ops = []
        for x, state in enumerate((plus_i, minus_i)):
            kraus = np.outer(ket(x), state.conj())
            ops.append(cj_from_kraus([kraus], 2, 2))
        instr = InstrumentCJ(2, 2, (tuple(ops),))
        report = is_valid_instrument(instr)
        assert report.valid

    def test_shape_mismatch(self):
        with pytest.raises(InvalidTable):
            cj_from_kraus([np.eye(3)], 2, 2)


class TestInstrumentValidity:
    def test_canonical_copy_instrument(self, gynin_scenario):
        for instr in classical_instruments(canonical_interventions(gynin_scenario)):
            assert is_valid_instrument(instr).valid

    def test_doubled_marginal_rejected(self):
        cj = cj_from_kraus([np.eye(2)], 2, 2)
        instr = InstrumentCJ(2, 2, ((cj, cj),))  # sums to twice a channel
        assert not is_valid_instrument(instr).valid

    def test_negative_element_rejected(self):
        cj = cj_from_kraus([np.eye(2)], 2, 2)
        instr = InstrumentCJ(2, 2, ((-cj, 2 * cj),))
        assert not is_valid_instrument(instr).valid


class TestStackedOperators:
    def test_operators_are_one_frozen_array(self):
        _, instruments = builtin_ocb_process()
        for instr in instruments:
            assert isinstance(instr.operators, np.ndarray)
            assert instr.operators.shape == (instr.n_settings, instr.n_outcomes, 4, 4)
            assert instr.operators.dtype == np.complex128
            assert not instr.operators.flags.writeable

    @pytest.mark.parametrize("builtin", [builtin_bfw, builtin_ocb_process], ids=["bfw", "ocb"])
    def test_nested_tuples_and_the_array_give_equal_reports(self, builtin):
        for instr in builtin()[1]:
            nested = tuple(tuple(np.array(op) for op in row) for row in instr.operators)
            again = InstrumentCJ(instr.d_in, instr.d_out, nested)
            assert np.array_equal(again.operators, instr.operators)
            assert is_valid_instrument(again) == is_valid_instrument(instr)

    def test_ragged_outcome_count_rejected(self):
        cj = cj_from_kraus([np.eye(2)], 2, 2)
        with pytest.raises(InvalidTable, match="same outcome count"):
            InstrumentCJ(2, 2, ((cj, cj), (cj,)))

    def test_unequal_operator_shapes_rejected(self):
        with pytest.raises(InvalidTable, match="expected 4x4 matrices"):
            InstrumentCJ(2, 2, ((np.eye(4), np.eye(2)),))
        with pytest.raises(InvalidTable, match=r"expected a 4x4 matrix, got shape \(2, 2\)"):
            InstrumentCJ(2, 2, ((np.eye(2), np.eye(2)),))

    def test_caller_array_stays_writeable(self):
        ops = np.zeros((1, 1, 1, 1), dtype=np.complex128)
        ops[0, 0, 0, 0] = 1.0
        InstrumentCJ(1, 1, ops)
        assert ops.flags.writeable


class TestProcessMatrixValidity:
    def test_ocb_process_is_valid(self):
        pm, _ = builtin_ocb_process()
        report = is_valid_process_matrix(pm)
        assert report.valid
        assert report.normalization_deviation < 1e-12

    def test_grandfather_diagonal_is_invalid(self, single_scenario):
        pm = diagonal_from_classical(identity_loop(single_scenario))
        assert not is_valid_process_matrix(pm).valid

    def test_state_with_discarded_output_is_valid(self):
        sc = make_scenario(1, 1, 1, 2, 2)
        rho = np.array([[0.25, 0.1], [0.1, 0.75]], dtype=np.complex128)
        pm = ProcessMatrix(sc, np.kron(rho, np.eye(2)))
        assert is_valid_process_matrix(pm).valid

    def test_hermiticity_and_spectrum_checks_are_basis_invariant(self):
        rng = np.random.default_rng(4)
        pm, _ = builtin_ocb_process()

        def haar_unitary(d):
            z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            q, r = np.linalg.qr(z)
            return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

        rotation = np.kron(haar_unitary(4), haar_unitary(4))  # product over parties
        rotated = ProcessMatrix(pm.scenario, rotation @ pm.matrix @ rotation.conj().T)
        base = is_valid_process_matrix(pm)
        moved = is_valid_process_matrix(rotated)
        atol = 1e-9
        assert (base.hermiticity_deviation <= atol) == (moved.hermiticity_deviation <= atol)
        assert (base.min_eigenvalue >= -atol) == (moved.min_eigenvalue >= -atol)

    def test_work_cap_is_read_before_any_tuple(self):
        # three qutrit parties: 73^3 normalization tuples, each a Kronecker
        # product on the 729-dimensional space, would take about an hour
        pm = ProcessMatrix(make_scenario(3, 1, 1, 3, 3), np.eye(729) / 27)
        started = time.monotonic()
        with pytest.raises(SearchSpaceTooLarge) as refused:
            is_valid_process_matrix(pm)
        assert time.monotonic() - started < 1.0
        assert str(refused.value) == (
            "process-matrix validity needs 206739583497 steps (389017 normalization tuples "
            "x 729^2 entries), above the work cap 1000000000"
        )

    def test_work_cap_admits_three_qubit_parties(self, monkeypatch):
        # 13^3 tuples on a 64-dimensional matrix: the bfw process passes at a cap of
        # exactly its work and is refused one below
        pm, _ = builtin_bfw()
        monkeypatch.setattr(quantum_module, "VALIDITY_WORK_CAP", 2197 * 64**2)
        assert is_valid_process_matrix(pm).valid
        monkeypatch.setattr(quantum_module, "VALIDITY_WORK_CAP", 2197 * 64**2 - 1)
        with pytest.raises(SearchSpaceTooLarge):
            is_valid_process_matrix(pm)

    def test_family_cell_cap_is_read_before_any_family(self):
        # one party with 12-level input and output: 20,593 family matrices of
        # 144 x 144 would take 6.4 GiB, though the tuple work passes its cap
        pm = ProcessMatrix(make_scenario(1, 1, 1, 12, 12), np.eye(144) / 12)
        started = time.monotonic()
        with pytest.raises(SearchSpaceTooLarge) as refused:
            is_valid_process_matrix(pm)
        assert time.monotonic() - started < 1.0
        assert str(refused.value) == (
            "process-matrix validity needs 427016448 cells of normalization families (sum "
            "over parties of family size x local dimension^2), above the cap 16777216"
        )

    def test_family_cell_cap_admits_three_qubit_parties(self, monkeypatch):
        # three families of 13 matrices of 4 x 4: bfw passes at a cap of exactly
        # its 624 cells and is refused one below
        pm, _ = builtin_bfw()
        monkeypatch.setattr(quantum_module, "VALIDITY_FAMILY_CELL_CAP", 624)
        assert is_valid_process_matrix(pm).valid
        monkeypatch.setattr(quantum_module, "VALIDITY_FAMILY_CELL_CAP", 623)
        with pytest.raises(SearchSpaceTooLarge):
            is_valid_process_matrix(pm)

    def test_overflowing_normalization_trace_names_its_tuple(self):
        # the matrix and w + w^H are finite, and so is the base tuple's trace a/2;
        # tuple 1 (identity/2 + |0><0| (x) Z) reads 2.5a, beyond the double range
        a = 8.9e307
        pm = ProcessMatrix(make_scenario(1, 1, 1, 2, 2), np.diag([a, -a, a, 0]))
        with pytest.raises(InvalidTable) as refused:
            is_valid_process_matrix(pm)
        assert str(refused.value) == "the trace rule overflows at normalization tuple (1,): (inf+0j)"

    def test_diagonal_validity_matches_table_consistency(self, gyni_scenario):
        from causelab import is_logically_consistent
        from causelab.scenario import QuasiProcess

        rng = random.Random(13)
        for _ in range(20):
            table = []
            for _ in range(gyni_scenario.n_outputs):
                column = [Fraction(rng.randint(0, 4)) for _ in range(gyni_scenario.n_inputs)]
                total = sum(column) or Fraction(1)
                table.append([Fraction(v, 1) / total for v in column])
            flat = tuple(
                table[o][i] for i in range(gyni_scenario.n_inputs) for o in range(gyni_scenario.n_outputs)
            )
            qp = QuasiProcess(gyni_scenario, flat)
            pm = diagonal_from_classical(qp)
            assert is_valid_process_matrix(pm).valid == is_logically_consistent(qp).consistent


def unit_basis_family(d_in: int, d_out: int) -> list[np.ndarray]:
    """Test-local reference for the normalization family, one unit matrix at a
    time: identity/d_out, then identity/d_out + h (x) g over the Hermitian basis
    h of the input and the traceless Hermitian basis g of the output."""

    def unit(d, entries):
        m = np.zeros((d, d), dtype=np.complex128)
        for (p, q), value in entries.items():
            m[p, q] = value
        return m

    def off_diagonal(d):
        return [
            m
            for p, q in itertools.combinations(range(d), 2)
            for m in (unit(d, {(p, q): 1.0, (q, p): 1.0}), unit(d, {(p, q): -1.0j, (q, p): 1.0j}))
        ]

    hermitian = [unit(d_in, {(p, p): 1.0}) for p in range(d_in)] + off_diagonal(d_in)
    traceless = [unit(d_out, {(p, p): 1.0, (p + 1, p + 1): -1.0}) for p in range(d_out - 1)]
    traceless += off_diagonal(d_out)
    base = np.eye(d_in * d_out, dtype=np.complex128) / d_out
    return [base] + [base + np.kron(h, g) for h in hermitian for g in traceless]


DIMENSION_PAIRS = list(itertools.product(range(1, 4), repeat=2))


class TestNormalizationFamily:
    @pytest.mark.parametrize("d_in, d_out", DIMENSION_PAIRS)
    def test_equals_the_unit_basis_build(self, d_in, d_out):
        family, reference = _normalization_family(d_in, d_out), unit_basis_family(d_in, d_out)
        assert len(family) == len(reference)
        for built, expected in zip(family, reference):
            assert built.dtype == expected.dtype and np.array_equal(built, expected)

    @pytest.mark.parametrize("d_in, d_out", DIMENSION_PAIRS)
    def test_size_matches_the_benchmark_kron_count(self, d_in, d_out):
        """The validity caps, ``bench/tracing.py``'s Kronecker count and the
        builder read one family size."""
        assert load_tracing()._family_size(d_in, d_out) == len(_normalization_family(d_in, d_out))

    @pytest.mark.parametrize("d_in, d_out", DIMENSION_PAIRS)
    def test_members_are_trace_preserving(self, d_in, d_out):
        for member in _normalization_family(d_in, d_out):
            marginal = np.einsum("iojo->ij", member.reshape(d_in, d_out, d_in, d_out))
            assert np.allclose(member, member.conj().T) and np.allclose(marginal, np.eye(d_in))


def reference_trace(w: np.ndarray, ops) -> complex:
    """Tr[w (M_1 (x) ... (x) M_n)] for one tuple, as the trace rule was written
    before its kernel: the oracle the kernel must equal bit for bit."""
    return complex(np.sum(w * functools.reduce(np.kron, ops).T))


def reference_correlation(pm, instruments) -> list[complex]:
    """p(x|a) at x_flat * n_a + a_flat, one (a, x) pair at a time."""
    sc = pm.scenario
    table = [0j] * (sc.n_outcomes * sc.n_settings)
    for a_flat, a in enumerate(iter_tuples(sc.settings)):
        for x_flat, x in enumerate(iter_tuples(sc.outcomes)):
            ops = [instr.operators[a_k][x_k] for instr, a_k, x_k in zip(instruments, a, x)]
            table[x_flat * sc.n_settings + a_flat] = reference_trace(pm.matrix, ops)
    return table


def assert_kernel_matches_reference(pm, stacks) -> list[complex]:
    expected = [reference_trace(pm.matrix, ops) for ops in itertools.product(*stacks)]
    assert _trace_rule(pm.matrix, stacks).tolist() == expected
    return expected


def assert_correlation_matches_reference(pm, instruments) -> None:
    assert_kernel_matches_reference(pm, [list(np.concatenate(i.operators)) for i in instruments])
    expected = reference_correlation(pm, instruments)
    corr = pm_correlation(pm, instruments)
    assert list(corr.table) == [value.real for value in expected]
    assert corr.max_imag_residual == max(abs(value.imag) for value in expected)


def perturbed_bfw() -> ProcessMatrix:
    pm, _ = builtin_bfw()
    rng = np.random.default_rng(7)
    noise = rng.normal(size=pm.matrix.shape) + 1j * rng.normal(size=pm.matrix.shape)
    return ProcessMatrix(pm.scenario, pm.matrix + 1e-3 * (noise + noise.conj().T))


def oracle_case(name: str):
    """(process, instruments): the built-ins (bfw's are the canonical instruments),
    a perturbed bfw, and ocb's matrix on two canonical qubit parties."""
    if name == "ocb":
        return builtin_ocb_process()
    if name == "ocb-canonical":
        pm = ProcessMatrix(make_scenario(2, 2, 2, 2, 2), builtin_ocb_process()[0].matrix)
        return pm, classical_instruments(canonical_interventions(pm.scenario))
    pm, instruments = builtin_bfw()
    return (perturbed_bfw() if name == "perturbed-bfw" else pm), instruments


class TestTraceRuleOracle:
    """The kernel equals the per-tuple sum bit for bit, for validity's
    normalization families and for the instruments' operators alike."""

    @pytest.mark.parametrize("case", ["ocb", "ocb-canonical", "bfw", "perturbed-bfw"])
    def test_families_and_instruments(self, case):
        pm, instruments = oracle_case(case)
        sc = pm.scenario
        families = [_normalization_family(i, o) for i, o in zip(sc.inputs, sc.outputs)]
        expected = assert_kernel_matches_reference(pm, families)
        deviation = max(abs(value - 1.0) for value in expected)
        assert is_valid_process_matrix(pm).normalization_deviation == deviation
        assert_correlation_matches_reference(pm, instruments)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_drawn_stacks(self, data):
        n = data.draw(st.integers(1, 3), label="parties")

        def cards(high: int, label: str) -> tuple[int, ...]:
            return tuple(data.draw(st.lists(st.integers(1, high), min_size=n, max_size=n), label=label))

        sc = Scenario(
            settings=cards(3, "settings"),
            outcomes=cards(3, "outcomes"),
            inputs=cards(2, "d_in"),
            outputs=cards(2, "d_out"),
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

        def complex_normal(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        dim = prod(sc.inputs) * prod(sc.outputs)
        pm = ProcessMatrix(sc, complex_normal(dim, dim))
        instruments = [
            InstrumentCJ(d_in, d_out, complex_normal(a, x, d_in * d_out, d_in * d_out))
            for a, x, d_in, d_out in zip(sc.settings, sc.outcomes, sc.inputs, sc.outputs)
        ]
        assert_correlation_matches_reference(pm, instruments)


class TestPmCorrelation:
    def test_ocb_score(self):
        pm, instruments = builtin_ocb_process()
        corr = pm_correlation(pm, instruments)
        assert abs(float(score(builtin_ocb(), corr)) - OCB_TARGET) <= 1e-9
        assert corr.max_imag_residual <= 1e-12
        assert all(abs(m - 1.0) <= 1e-9 for m in corr.setting_mass())

    def test_bfw_diagonal_wins_perfectly(self):
        pm, instruments = builtin_bfw()
        corr = pm_correlation(pm, instruments)
        assert abs(float(score(builtin_gynin(), corr)) - 1.0) <= 1e-12

    def test_born_rule_for_state_preparation(self):
        sc = make_scenario(1, 1, 2, 2, 1)
        plus = (ket(0) + ket(1)) / np.sqrt(2)
        pm = ProcessMatrix(sc, np.outer(plus, plus.conj()))
        ops = []
        for x in range(2):
            kraus = np.zeros((1, 2), dtype=np.complex128)
            kraus[0, x] = 1.0
            ops.append(cj_from_kraus([kraus], 2, 1))
        instr = InstrumentCJ(2, 1, (tuple(ops),))
        corr = pm_correlation(pm, [instr])
        assert abs(corr.prob((0,), (0,)) - 0.5) < 1e-12
        assert abs(corr.prob((1,), (0,)) - 0.5) < 1e-12

    def test_dimension_mismatch(self):
        pm, instruments = builtin_ocb_process()
        with pytest.raises(ScenarioMismatch):
            pm_correlation(pm, instruments[:1])


def trivial_system_instruments(n: int):
    """Two parties with n settings x n outcomes of 1x1 operators on trivial systems."""
    pm = ProcessMatrix(make_scenario(2, n, n, 1, 1), np.ones((1, 1)))
    instr = InstrumentCJ(1, 1, np.full((n, n, 1, 1), 1 / n))
    return pm, [instr, instr]


class TestTraceRuleWorkCap:
    def test_tiny_operators_count_the_floor(self, monkeypatch):
        # 81 tuples of 1x1 operators count 81 x 4096 entries: the trace rule runs at
        # a cap of exactly that and is refused one below, before any tuple
        pm, instruments = trivial_system_instruments(3)
        monkeypatch.setattr(quantum_module, "VALIDITY_WORK_CAP", 81 * 4096)
        assert len(pm_correlation(pm, instruments).table) == 81
        monkeypatch.setattr(quantum_module, "VALIDITY_WORK_CAP", 81 * 4096 - 1)
        monkeypatch.setattr(quantum_module, "_trace_rule", None)
        with pytest.raises(SearchSpaceTooLarge) as refused:
            pm_correlation(pm, instruments)
        assert str(refused.value) == (
            "the trace rule needs 331776 steps (81 instrument tuples x 4096 entries), "
            "above the work cap 331775"
        )

    def test_hundred_settings_and_outcomes_are_refused_at_once(self):
        # 10^8 tuples: about 70 minutes of Kronecker products without the cap
        pm, instruments = trivial_system_instruments(100)
        started = time.monotonic()
        with pytest.raises(SearchSpaceTooLarge) as refused:
            pm_correlation(pm, instruments)
        assert time.monotonic() - started < 1.0
        assert str(refused.value) == (
            "the trace rule needs 409600000000 steps (100000000 instrument tuples x 4096 "
            "entries), above the work cap 1000000000"
        )

    def test_twenty_settings_and_outcomes_pass(self, monkeypatch):
        # 160,000 tuples x 4096 entries fit under the cap; the kernel is stubbed, as
        # running it takes seconds
        pm, instruments = trivial_system_instruments(20)
        stub = lambda w, stacks: np.zeros(prod(map(len, stacks)), dtype=np.complex128)
        monkeypatch.setattr(quantum_module, "_trace_rule", stub)
        assert pm_correlation(pm, instruments).table == (0.0,) * 160_000


class TestDiagonalBridge:
    def test_bfw_round_trip_exact(self):
        qp = bfw_process()
        assert classical_from_diagonal(diagonal_from_classical(qp)).table == qp.table

    def test_non_diagonal_rejected(self):
        pm, _ = builtin_ocb_process()
        with pytest.raises(NonDiagonal):
            classical_from_diagonal(pm)

    @pytest.mark.parametrize(
        "sc",
        [pytest.param(make_scenario(n, 2, 2, 2, 2), id=str(n)) for n in (1, 2, 3)]
        # unequal alphabets catch an input/output or party axis mix-up in the bridge
        + [
            pytest.param(
                Scenario(settings=(2, 3), outcomes=(3, 2), inputs=(2, 3), outputs=(3, 2)),
                id="mixed",
            )
        ],
    )
    def test_bridge_matches_classical_evaluator(self, sc):
        # dyadic mixtures keep the float representation exact
        rng = random.Random(100 + sc.n_parties)
        functions = list(enumerate_process_functions(sc))
        for _ in range(3):
            chosen = rng.sample(functions, min(4, len(functions)))
            weights = [Fraction(1, 4)] * 4 if len(chosen) == 4 else [Fraction(1, len(chosen))] * len(chosen)
            process = mixture_process(ProcessFunctionMixture(tuple(zip(chosen, weights))))
            family = random_interventions(rng, sc)
            exact = evaluate_correlation(process, family)
            pm = diagonal_from_classical(process)
            assert classical_from_diagonal(pm).table == process.table
            numeric = pm_correlation(pm, classical_instruments(family))
            worst = max(
                abs(float(e) - n) for e, n in zip(exact.table, numeric.table)
            )
            assert worst <= 1e-12


class TestVendoredData:
    def test_checksum_validates(self):
        pm, instruments = builtin_ocb_process()
        assert pm.dim == 16
        assert len(instruments) == 2

    def test_checksum_mismatch_detected(self, monkeypatch):
        import causelab.quantum as q

        monkeypatch.setattr(q, "OCB_DATA_SHA256", "0" * 64)
        with pytest.raises(InvalidTable):
            q.builtin_ocb()
