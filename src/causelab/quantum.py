"""
Process-matrix numerics: operator representations of local operations, the
trace rule for correlations, validity checks, and the diagonal bridge to the
classical side.

Conventions.  Party k acts from an input space of dimension ``inputs[k]`` to
an output space of dimension ``outputs[k]``; the global space orders factors
party-major as I_1, O_1, I_2, O_2, ...  A completely positive map M with Kraus
operators {K} is represented by the operator

    sum_{j,l} |l><j|  (x)  (K |j><l| K^dagger)^T,

i.e. the transposed Choi operator scaled so that trace-preserving maps have
partial trace over the output equal to the input identity.  With this choice
the correlation rule is a plain trace against the process operator, and the
basis-diagonal restriction reproduces the classical evaluator exactly (up to
float roundoff), entry for entry.

One kernel, ``_trace_rule``, returns Tr[W (M_1 (x) ... (x) M_n)] for every
tuple drawn from per-party operator stacks, one Kronecker product per tuple.
The correlations read it at the instruments' (setting, outcome) operators, and
validity at every tuple of the parties' normalization families; both callers
first check its work against ``VALIDITY_WORK_CAP``.

This module is the only floating-point corner of the package: spectra and the
target values here are irrational, so doubles with fixed tolerances (1e-9 for
validity, 1e-12 for the diagonal bridge) replace exact rationals.
"""

from __future__ import annotations

import functools
import itertools
import json
from fractions import Fraction
from math import prod
from typing import Sequence

from ._lazy import check_axes, np
from ._record import Record
from .errors import InvalidTable, NonDiagonal, ScenarioMismatch, SearchSpaceTooLarge
from .games import bfw_process
from .scenario import (
    InterventionFamily,
    QuasiProcess,
    Scenario,
    canonical_interventions,
    flatten,
    unflatten,
)

VALIDITY_ATOL = 1e-9
DIAGONAL_ATOL = 1e-12
# Operator tuples x matrix entries one trace rule (validity or correlations) may
# touch; the tuple loop runs about 8e7 entries per second on one core.
VALIDITY_WORK_CAP = 10**9
# Entries each tuple counts at least: a tuple of 1x1 operators still takes
# about 41 us, about 3,300 entries at that rate.
TUPLE_ENTRY_FLOOR = 64**2
# Entries held at once (16 bytes each) by all parties' normalization families,
# or by all parties' classical instrument operators.
VALIDITY_FAMILY_CELL_CAP = 1 << 24

OCB_DATA_RESOURCE = "ocb_process.json"
OCB_DATA_SHA256 = "3440c3e5128dae57648a37c7cde9f8e34ded33ae04af950731e2b1f9d02784b4"


def _as_complex_array(data, lead: tuple[int, ...], dim: int) -> np.ndarray:
    """Frozen complex copy of ``data`` with shape ``lead + (dim, dim)``, every entry and
    every w + w^H of its trailing matrices finite."""
    try:
        arr = np.array(data, dtype=np.complex128)
    except ValueError:  # nested matrices of unequal shapes
        raise InvalidTable(f"expected {dim}x{dim} matrices of one shape") from None
    if arr.shape != lead + (dim, dim):
        raise InvalidTable(f"expected a {dim}x{dim} matrix, got shape {arr.shape[len(lead):]}")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise InvalidTable("matrix contains non-finite entries")
    # validity reads the Hermitian part, so w + w^H must stay finite as well
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite((arr + arr.conj().swapaxes(-1, -2)).view(np.float64))):
            raise InvalidTable("matrix entries overflow w + w^H")
    arr.setflags(write=False)
    return arr


def _check_trace_rule_work(what: str, kind: str, tuples: int, dim: int) -> None:
    """Refuse ``tuples`` trace-rule tuples on a ``dim``-dimensional space, each counting
    max(dim^2, ``TUPLE_ENTRY_FLOOR``) entries, above ``VALIDITY_WORK_CAP``."""
    steps = tuples * max(dim**2, TUPLE_ENTRY_FLOOR)
    if steps > VALIDITY_WORK_CAP:
        entries = f"{dim}^2" if dim**2 >= TUPLE_ENTRY_FLOOR else str(TUPLE_ENTRY_FLOOR)
        raise SearchSpaceTooLarge(
            f"{what} needs {steps} steps ({tuples} {kind} tuples x {entries} entries), "
            f"above the work cap {VALIDITY_WORK_CAP}"
        )


def _trace_rule(w: np.ndarray, stacks: Sequence[Sequence[np.ndarray]]) -> np.ndarray:
    """Tr[w (M_1 (x) ... (x) M_n)] for every tuple of the parties' operator stacks, in
    ``itertools.product`` order (party 0's index most significant)."""
    products = (functools.reduce(np.kron, ops) for ops in itertools.product(*stacks))
    # entries that each pass their own check may still overflow together
    with np.errstate(over="ignore", invalid="ignore"):
        values = (np.sum(w * m.T) for m in products)
        return np.fromiter(values, np.complex128, prod(map(len, stacks)))


def cj_from_kraus(kraus: Sequence[np.ndarray], d_in: int, d_out: int) -> np.ndarray:
    """Operator representation of the CP map with the given Kraus operators.

    Each operator must be d_out x d_in.  The identity channel on a qubit maps
    to a rank-1 operator of trace 2; the discard map (d_out = 1) maps to the
    input identity.
    """
    total = np.zeros((d_in * d_out, d_in * d_out), dtype=np.complex128)
    for op in kraus:
        op = np.asarray(op, dtype=np.complex128)
        if op.shape != (d_out, d_in):
            raise InvalidTable(f"Kraus operator has shape {op.shape}, expected {(d_out, d_in)}")
        vec = op.conj().T.reshape(-1)
        total += np.outer(vec, vec.conj())
    return total


class InstrumentCJ(Record, eq=False):
    """One party's local operations: ``operators[a, x]`` is the CJ operator of
    outcome x at setting a, one frozen complex array of shape (settings,
    outcomes, d_in * d_out, d_in * d_out); nested sequences are stacked into it."""

    d_in: int
    d_out: int
    operators: np.ndarray

    def __post_init__(self) -> None:
        ops = self.operators
        if not len(ops) or any(len(row) != len(ops[0]) for row in ops):
            raise InvalidTable("instrument needs the same outcome count for every setting")
        lead = (len(ops), len(ops[0]))
        object.__setattr__(self, "operators", _as_complex_array(ops, lead, self.d_in * self.d_out))

    @property
    def n_settings(self) -> int:
        return self.operators.shape[0]

    @property
    def n_outcomes(self) -> int:
        return self.operators.shape[1]


class InstrumentReport(Record):
    valid: bool
    min_eigenvalue: float
    marginal_deviation: float


def is_valid_instrument(instr: InstrumentCJ) -> InstrumentReport:
    """Each element PSD and the per-setting sum trace-preserving, within ``VALIDITY_ATOL``."""
    ops, d_in, d_out = instr.operators, instr.d_in, instr.d_out
    adjoint = ops.conj().swapaxes(-1, -2)
    min_eig = float(np.min(np.linalg.eigvalsh((ops + adjoint) / 2)))
    totals = ops.sum(axis=1).reshape(instr.n_settings, d_in, d_out, d_in, d_out)
    marginals = np.einsum("siojo->sij", totals)
    herm_dev = float(np.max(np.abs(ops - adjoint)))
    marginal_dev = max(herm_dev, float(np.max(np.abs(marginals - np.eye(d_in)))))
    return InstrumentReport(
        valid=(min_eig >= -VALIDITY_ATOL and marginal_dev <= VALIDITY_ATOL),
        min_eigenvalue=min_eig,
        marginal_deviation=marginal_dev,
    )


class ProcessMatrix(Record, eq=False):
    """Environment operator on the tensor product of all in/out spaces."""

    scenario: Scenario
    matrix: np.ndarray

    def __post_init__(self) -> None:
        dim = prod(self.scenario.inputs) * prod(self.scenario.outputs)
        object.__setattr__(self, "matrix", _as_complex_array(self.matrix, (), dim))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class ProcessMatrixReport(Record):
    valid: bool
    hermiticity_deviation: float
    min_eigenvalue: float
    normalization_deviation: float


def _off_diagonal_basis(d: int) -> list[np.ndarray]:
    """E_pq + E_qp, then i(E_qp - E_pq), for each p < q: the off-diagonal Hermitian units."""
    eye = np.eye(d)
    mats = []
    for p, q in itertools.combinations(range(d), 2):
        unit = np.outer(eye[p], eye[q])
        mats += [unit + unit.T, 1j * (unit.T - unit)]
    return mats


def _normalization_family(d_in: int, d_out: int) -> list[np.ndarray]:
    """Affine-spanning family of trace-preserving CJ marginals for one party.

    Base point identity/d_out plus base + h (x) g for every Hermitian h on the
    input (diagonal units, then off-diagonal units) and every traceless
    Hermitian g on the output (differences of adjacent diagonal units, then
    off-diagonal units): size (d_in*d_out)^2 - d_in^2 + 1.  Multilinearity of
    the trace rule makes checking all tuples from these families equivalent to
    the universally quantified normalization condition.
    """
    eye_in, eye_out = np.eye(d_in), np.eye(d_out)
    hermitian = [np.diag(row) for row in eye_in] + _off_diagonal_basis(d_in)
    traceless = [np.diag(eye_out[p] - eye_out[p + 1]) for p in range(d_out - 1)]
    traceless += _off_diagonal_basis(d_out)
    base = np.eye(d_in * d_out, dtype=np.complex128) / d_out
    return [base] + [base + np.kron(h, g) for h in hermitian for g in traceless]


def is_valid_process_matrix(pm: ProcessMatrix) -> ProcessMatrixReport:
    """Positivity plus unit trace against every tuple of trace-preserving maps, within
    ``VALIDITY_ATOL``.

    Before any family is built, the tuples' work (see ``_check_trace_rule_work``)
    is checked against ``VALIDITY_WORK_CAP`` and the families' own entries against
    ``VALIDITY_FAMILY_CELL_CAP``; both are read off the family size formula.
    """
    sc = pm.scenario
    dims = [d_in * d_out for d_in, d_out in zip(sc.inputs, sc.outputs)]
    sizes = [dim**2 - d_in**2 + 1 for dim, d_in in zip(dims, sc.inputs)]  # len of each family
    _check_trace_rule_work("process-matrix validity", "normalization", prod(sizes), pm.dim)
    cells = sum(size * dim**2 for size, dim in zip(sizes, dims))
    if cells > VALIDITY_FAMILY_CELL_CAP:
        raise SearchSpaceTooLarge(
            f"process-matrix validity needs {cells} cells of normalization families "
            f"(sum over parties of family size x local dimension^2), above the cap "
            f"{VALIDITY_FAMILY_CELL_CAP}"
        )
    w = pm.matrix
    herm_dev = float(np.max(np.abs(w - w.conj().T)))
    min_eig = float(np.min(np.linalg.eigvalsh((w + w.conj().T) / 2)))

    families = [_normalization_family(d_in, d_out) for d_in, d_out in zip(sc.inputs, sc.outputs)]
    traces = _trace_rule(w, families)
    overflows = np.flatnonzero(~np.isfinite(traces))
    if len(overflows):
        t, value = unflatten(int(overflows[0]), sizes), complex(traces[overflows[0]])
        raise InvalidTable(f"the trace rule overflows at normalization tuple {t}: {value}")
    norm_dev = float(np.max(np.abs(traces - 1.0)))
    return ProcessMatrixReport(
        valid=herm_dev <= VALIDITY_ATOL and min_eig >= -VALIDITY_ATOL and norm_dev <= VALIDITY_ATOL,
        hermiticity_deviation=herm_dev,
        min_eigenvalue=min_eig,
        normalization_deviation=norm_dev,
    )


class NumericCorrelation(Record):
    """Float-valued behaviour from the trace rule; raw, unclipped entries."""

    scenario: Scenario
    table: tuple[float, ...]
    max_imag_residual: float

    def prob(self, x: Sequence[int], a: Sequence[int]) -> float:
        sc = self.scenario
        return self.table[flatten(x, sc.outcomes) * sc.n_settings + flatten(a, sc.settings)]

    def setting_mass(self) -> tuple[float, ...]:
        n_a = self.scenario.n_settings
        return tuple(sum(self.table[a_flat::n_a]) for a_flat in range(n_a))


def pm_correlation(
    pm: ProcessMatrix, instruments: Sequence[InstrumentCJ]
) -> NumericCorrelation:
    """The trace rule: p(x|a) = Tr[W  tensor_k  M_{x_k|a_k}], one kernel tuple per (x, a),
    whose work is checked against ``VALIDITY_WORK_CAP`` before any is formed."""
    sc = pm.scenario
    if len(instruments) != sc.n_parties:
        raise ScenarioMismatch(f"expected {sc.n_parties} instruments, got {len(instruments)}")
    for k, instr in enumerate(instruments):
        if instr.d_in != sc.inputs[k] or instr.d_out != sc.outputs[k]:
            raise ScenarioMismatch(f"instrument {k} dimensions do not match the scenario")
        if instr.n_settings != sc.settings[k] or instr.n_outcomes != sc.outcomes[k]:
            raise ScenarioMismatch(f"instrument {k} alphabet sizes do not match the scenario")
    _check_trace_rule_work("the trace rule", "instrument", sc.n_settings * sc.n_outcomes, pm.dim)
    check_axes("the trace rule", 2 * sc.n_parties)
    stacks = [instr.operators.reshape(-1, *instr.operators.shape[2:]) for instr in instruments]
    # the kernel's order is (a_0, x_0, a_1, x_1, ...); the table's is (x, a)
    axes = [card for pair in zip(sc.settings, sc.outcomes) for card in pair]
    table = _trace_rule(pm.matrix, stacks).reshape(axes)
    table = table.transpose([*range(1, table.ndim, 2), *range(0, table.ndim, 2)])
    table = table.reshape(sc.n_outcomes, sc.n_settings)
    overflows = np.argwhere(~np.isfinite(table.T))  # in (a, x) order
    if len(overflows):
        a_flat, x_flat = map(int, overflows[0])
        raise InvalidTable(
            f"the trace rule overflows at settings {unflatten(a_flat, sc.settings)}, outcomes "
            f"{unflatten(x_flat, sc.outcomes)}: {complex(table[x_flat, a_flat])}"
        )
    max_imag = float(np.max(np.abs(table.imag)))
    return NumericCorrelation(sc, tuple(table.real.ravel().tolist()), max_imag)


def _party_major(n_parties: int) -> list[int]:
    """Axis order taking (per-party inputs..., per-party outputs...) to I_1, O_1, I_2, O_2, ..."""
    return [axis for k in range(n_parties) for axis in (k, n_parties + k)]


def diagonal_from_classical(qp: QuasiProcess) -> ProcessMatrix:
    """Basis-diagonal environment whose trace-rule statistics reproduce the
    classical evaluator under diagonal instruments."""
    sc = qp.scenario
    check_axes("the diagonal bridge", 2 * sc.n_parties)
    table = np.array(qp.table, dtype=np.float64).reshape(sc.inputs + sc.outputs)
    return ProcessMatrix(sc, np.diag(table.transpose(_party_major(sc.n_parties)).reshape(-1)))


def classical_from_diagonal(pm: ProcessMatrix) -> QuasiProcess:
    """Inverse of :func:`diagonal_from_classical`.

    Entries convert float -> Fraction losslessly, so the round trip is exact
    whenever the classical table was exactly representable in doubles (all
    dyadic rationals); non-dyadic tables come back as their double roundings
    and may then fail the quasi-process normalization check.
    """
    sc = pm.scenario
    worst = float(np.max(np.abs(pm.matrix - np.diag(pm.matrix.diagonal()))))
    if worst > DIAGONAL_ATOL:
        raise NonDiagonal(f"largest off-diagonal magnitude {worst} exceeds {DIAGONAL_ATOL}")
    check_axes("the diagonal bridge", 2 * sc.n_parties)
    axes = _party_major(sc.n_parties)
    diag = pm.matrix.diagonal().real.reshape([(sc.inputs + sc.outputs)[axis] for axis in axes])
    return QuasiProcess(sc, tuple(map(Fraction, diag.transpose(np.argsort(axes)).ravel().tolist())))


def classical_instruments(family: InterventionFamily) -> list[InstrumentCJ]:
    """Diagonal CJ instruments implementing classical local operations.

    The dense operators' entries are checked against ``VALIDITY_FAMILY_CELL_CAP``
    before any is allocated."""
    sc = family.scenario
    parties = list(zip(sc.settings, sc.outcomes, sc.inputs, sc.outputs))
    cells = sum(a * x * (d_in * d_out) ** 2 for a, x, d_in, d_out in parties)
    if cells > VALIDITY_FAMILY_CELL_CAP:
        raise SearchSpaceTooLarge(
            f"classical instruments need {cells} operator entries (sum over parties of "
            f"settings x outcomes x local dimension^2), above the cap {VALIDITY_FAMILY_CELL_CAP}"
        )
    out = []
    for (a, x, d_in, d_out), table in zip(parties, family.tables):
        probs = np.array(table, dtype=np.float64).reshape(x, d_out, a, d_in)
        # diag[a, x] lists p(x, o | a, i) at the diagonal position i * d_out + o
        diag = probs.transpose(2, 0, 3, 1).reshape(a, x, d_in * d_out)
        out.append(InstrumentCJ(d_in, d_out, diag[..., None] * np.eye(d_in * d_out)))
    return out


def builtin_bfw() -> tuple[ProcessMatrix, list[InstrumentCJ]]:
    """Diagonal realization of the cyclic-copy/anticopy mixture with the
    canonical copy instruments; wins the tripartite game with certainty."""
    qp = bfw_process()
    return diagonal_from_classical(qp), classical_instruments(canonical_interventions(qp.scenario))


def builtin_ocb() -> tuple[ProcessMatrix, list[InstrumentCJ]]:
    """The two-qubit process and instruments reaching (2 + sqrt 2)/4 on the
    direction game; constants are vendored data verified by checksum."""
    import hashlib
    from importlib import resources

    from . import serialize  # serialize imports this module

    data_path = resources.files("causelab").joinpath("data").joinpath(OCB_DATA_RESOURCE)
    raw = data_path.read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    if digest != OCB_DATA_SHA256:
        raise InvalidTable(f"vendored process data checksum mismatch: {digest} != {OCB_DATA_SHA256}")
    payload = json.loads(raw.decode("utf-8"))
    return (
        serialize.process_matrix_from_json(payload),
        serialize.instruments_from_json({"parties": payload["instruments"]}),
    )
