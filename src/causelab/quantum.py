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

This module is the only floating-point corner of the package: spectra and the
target values here are irrational, so doubles with fixed tolerances (1e-9 for
validity, 1e-12 for the diagonal bridge) replace exact rationals.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import json
from fractions import Fraction
from math import prod
from typing import Sequence

from ._lazy import np
from ._record import Record
from .errors import InvalidTable, NonDiagonal, ScenarioMismatch, SearchSpaceTooLarge
from .games import bfw_process
from .scenario import (
    InterventionFamily,
    QuasiProcess,
    Scenario,
    canonical_interventions,
    flatten,
)

VALIDITY_ATOL = 1e-9
DIAGONAL_ATOL = 1e-12
# Normalization tuples x matrix entries one validity check may touch; the
# tuple loop runs about 8e7 entries per second on one core.
VALIDITY_WORK_CAP = 10**9
# Entries held at once (16 bytes each) by all parties' normalization families,
# or by all parties' classical instrument operators.
VALIDITY_FAMILY_CELL_CAP = 1 << 24

OCB_DATA_RESOURCE = "ocb_process.json"
OCB_DATA_SHA256 = "3440c3e5128dae57648a37c7cde9f8e34ded33ae04af950731e2b1f9d02784b4"


def _as_complex_matrix(data, dim: int) -> np.ndarray:
    mat = np.array(data, dtype=np.complex128)
    if mat.shape != (dim, dim):
        raise InvalidTable(f"expected a {dim}x{dim} matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat.view(np.float64))):
        raise InvalidTable("matrix contains non-finite entries")
    # validity reads the Hermitian part, so w + w^H must stay finite as well
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite((mat + mat.conj().T).view(np.float64))):
            raise InvalidTable("matrix entries overflow w + w^H")
    mat.setflags(write=False)
    return mat


def trace_product(a: np.ndarray, b: np.ndarray) -> complex:
    """Tr(a @ b) without forming the product."""
    return complex(np.sum(a * b.T))


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
    """One party's local operations: a CJ operator per (setting, outcome)."""

    d_in: int
    d_out: int
    operators: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self) -> None:
        dim = self.d_in * self.d_out
        frozen = tuple(
            tuple(_as_complex_matrix(op, dim) for op in per_setting)
            for per_setting in self.operators
        )
        if not frozen or any(len(row) != len(frozen[0]) for row in frozen):
            raise InvalidTable("instrument needs the same outcome count for every setting")
        object.__setattr__(self, "operators", frozen)

    @property
    def n_settings(self) -> int:
        return len(self.operators)

    @property
    def n_outcomes(self) -> int:
        return len(self.operators[0])


class InstrumentReport(Record):
    valid: bool
    min_eigenvalue: float
    marginal_deviation: float


def _partial_trace_out(mat: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    return np.einsum("iojo->ij", mat.reshape(d_in, d_out, d_in, d_out))


def is_valid_instrument(instr: InstrumentCJ) -> InstrumentReport:
    """Each element PSD and the per-setting sum trace-preserving, within ``VALIDITY_ATOL``."""
    min_eig = np.inf
    marginal_dev = 0.0
    identity = np.eye(instr.d_in)
    for per_setting in instr.operators:
        total = np.zeros((instr.d_in * instr.d_out,) * 2, dtype=np.complex128)
        for op in per_setting:
            herm_dev = float(np.max(np.abs(op - op.conj().T)))
            marginal_dev = max(marginal_dev, herm_dev)
            min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh((op + op.conj().T) / 2))))
            total = total + op
        reduced = _partial_trace_out(total, instr.d_in, instr.d_out)
        marginal_dev = max(marginal_dev, float(np.max(np.abs(reduced - identity))))
    return InstrumentReport(
        valid=(min_eig >= -VALIDITY_ATOL and marginal_dev <= VALIDITY_ATOL),
        min_eigenvalue=float(min_eig),
        marginal_deviation=marginal_dev,
    )


class ProcessMatrix(Record, eq=False):
    """Environment operator on the tensor product of all in/out spaces."""

    scenario: Scenario
    matrix: np.ndarray

    def __post_init__(self) -> None:
        dim = prod(self.scenario.inputs) * prod(self.scenario.outputs)
        object.__setattr__(self, "matrix", _as_complex_matrix(self.matrix, dim))

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

    Before any family is built, the tuples times the matrix's entries are
    checked against ``VALIDITY_WORK_CAP`` and the families' own entries against
    ``VALIDITY_FAMILY_CELL_CAP``; both are read off the family size formula.
    """
    sc = pm.scenario
    dims = [d_in * d_out for d_in, d_out in zip(sc.inputs, sc.outputs)]
    sizes = [dim**2 - d_in**2 + 1 for dim, d_in in zip(dims, sc.inputs)]  # len of each family
    tuples = prod(sizes)
    if tuples * pm.dim**2 > VALIDITY_WORK_CAP:
        raise SearchSpaceTooLarge(
            f"process-matrix validity needs {tuples * pm.dim**2} steps ({tuples} normalization "
            f"tuples x {pm.dim}^2 entries), above the work cap {VALIDITY_WORK_CAP}"
        )
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
    norm_dev = 0.0
    for combo in itertools.product(*families):
        value = trace_product(w, functools.reduce(np.kron, combo))
        norm_dev = max(norm_dev, abs(value - 1.0))
    return ProcessMatrixReport(
        valid=(
            herm_dev <= VALIDITY_ATOL and min_eig >= -VALIDITY_ATOL and norm_dev <= VALIDITY_ATOL
        ),
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
        return tuple(
            sum(self.table[x_flat * n_a + a_flat] for x_flat in range(self.scenario.n_outcomes))
            for a_flat in range(n_a)
        )


def pm_correlation(
    pm: ProcessMatrix, instruments: Sequence[InstrumentCJ]
) -> NumericCorrelation:
    """The trace rule: p(x|a) = Tr[W  tensor_k  M_{x_k|a_k}]."""
    sc = pm.scenario
    if len(instruments) != sc.n_parties:
        raise ScenarioMismatch(f"expected {sc.n_parties} instruments, got {len(instruments)}")
    for k, instr in enumerate(instruments):
        if instr.d_in != sc.inputs[k] or instr.d_out != sc.outputs[k]:
            raise ScenarioMismatch(f"instrument {k} dimensions do not match the scenario")
        if instr.n_settings != sc.settings[k] or instr.n_outcomes != sc.outcomes[k]:
            raise ScenarioMismatch(f"instrument {k} alphabet sizes do not match the scenario")

    n_a, n_x = sc.n_settings, sc.n_outcomes
    table = [0.0] * (n_x * n_a)
    max_imag = 0.0
    # entries that each pass their own check may still overflow together
    with np.errstate(over="ignore", invalid="ignore"):
        for a_flat, a in enumerate(sc.setting_tuples()):
            for x_flat, x in enumerate(sc.outcome_tuples()):
                ops = (instr.operators[a_k][x_k] for instr, a_k, x_k in zip(instruments, a, x))
                value = trace_product(pm.matrix, functools.reduce(np.kron, ops))
                if not cmath.isfinite(value):
                    raise InvalidTable(
                        f"the trace rule overflows at settings {a}, outcomes {x}: {value}"
                    )
                max_imag = max(max_imag, abs(value.imag))
                table[x_flat * n_a + a_flat] = value.real
    return NumericCorrelation(sc, tuple(table), max_imag)


def _party_major(n_parties: int) -> list[int]:
    """Axis order taking (per-party inputs..., per-party outputs...) to I_1, O_1, I_2, O_2, ..."""
    return [axis for k in range(n_parties) for axis in (k, n_parties + k)]


def diagonal_from_classical(qp: QuasiProcess) -> ProcessMatrix:
    """Basis-diagonal environment whose trace-rule statistics reproduce the
    classical evaluator under diagonal instruments."""
    sc = qp.scenario
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
    off = pm.matrix.copy()
    np.fill_diagonal(off, 0.0)
    worst = float(np.max(np.abs(off)))
    if worst > DIAGONAL_ATOL:
        raise NonDiagonal(f"largest off-diagonal magnitude {worst} exceeds {DIAGONAL_ATOL}")
    axes = _party_major(sc.n_parties)
    diag = pm.matrix.diagonal().real.reshape([(sc.inputs + sc.outputs)[axis] for axis in axes])
    return QuasiProcess(sc, tuple(map(Fraction, diag.transpose(np.argsort(axes)).ravel().tolist())))


def classical_instruments(family: InterventionFamily) -> list[InstrumentCJ]:
    """Diagonal CJ instruments implementing classical local operations.

    The dense operators' entries are checked against ``VALIDITY_FAMILY_CELL_CAP``
    before any is allocated."""
    sc = family.scenario
    cells = sum(
        a * x * (d_in * d_out) ** 2
        for a, x, d_in, d_out in zip(sc.settings, sc.outcomes, sc.inputs, sc.outputs)
    )
    if cells > VALIDITY_FAMILY_CELL_CAP:
        raise SearchSpaceTooLarge(
            f"classical instruments need {cells} operator entries (sum over parties of "
            f"settings x outcomes x local dimension^2), above the cap {VALIDITY_FAMILY_CELL_CAP}"
        )
    out = []
    for k, table in enumerate(family.tables):
        d_in, d_out = sc.inputs[k], sc.outputs[k]
        dim = d_in * d_out
        probs = np.array(table, dtype=np.float64).reshape(
            sc.outcomes[k], d_out, sc.settings[k], d_in
        )
        # diag[a, x] lists p(x, o | a, i) at the diagonal position i * d_out + o
        diag = probs.transpose(2, 0, 3, 1).reshape(sc.settings[k], sc.outcomes[k], dim)
        ops = np.zeros(diag.shape + (dim,), dtype=np.complex128)
        ops[..., np.arange(dim), np.arange(dim)] = diag
        out.append(InstrumentCJ(d_in, d_out, tuple(map(tuple, ops))))
    return out


def builtin_bfw() -> tuple[ProcessMatrix, list[InstrumentCJ]]:
    """Diagonal realization of the cyclic-copy/anticopy mixture with the
    canonical copy instruments; wins the tripartite game with certainty."""
    qp = bfw_process()
    pm = diagonal_from_classical(qp)
    instruments = classical_instruments(canonical_interventions(qp.scenario))
    return pm, instruments


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
        raise InvalidTable(
            f"vendored process data checksum mismatch: {digest} != {OCB_DATA_SHA256}"
        )
    payload = json.loads(raw.decode("utf-8"))
    return (
        serialize.process_matrix_from_json(payload),
        serialize.instruments_from_json({"parties": payload["instruments"]}),
    )
