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

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Sequence

from ._lazy import np
from .errors import InvalidTable, NonDiagonal, ScenarioMismatch
from .games import bfw_process
from .scenario import (
    InterventionFamily,
    QuasiProcess,
    Scenario,
    canonical_interventions,
)

VALIDITY_ATOL = 1e-9
DIAGONAL_ATOL = 1e-12

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
        vec = np.zeros(d_in * d_out, dtype=np.complex128)
        conj = op.conj()
        for j in range(d_in):
            vec[j * d_out : (j + 1) * d_out] = conj[:, j]
        total += np.outer(vec, vec.conj())
    return total


@dataclass(frozen=True, eq=False)
class InstrumentCJ:
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


@dataclass(frozen=True)
class InstrumentReport:
    valid: bool
    min_eigenvalue: float
    marginal_deviation: float


def _partial_trace_out(mat: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    return np.einsum("iojo->ij", mat.reshape(d_in, d_out, d_in, d_out))


def is_valid_instrument(instr: InstrumentCJ, atol: float = VALIDITY_ATOL) -> InstrumentReport:
    """Each element PSD and the per-setting sum trace-preserving, within atol."""
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
        valid=(min_eig >= -atol and marginal_dev <= atol),
        min_eigenvalue=float(min_eig),
        marginal_deviation=marginal_dev,
    )


@dataclass(frozen=True, eq=False)
class ProcessMatrix:
    """Environment operator on the tensor product of all in/out spaces."""

    scenario: Scenario
    matrix: np.ndarray

    def __post_init__(self) -> None:
        dim = prod(self.scenario.inputs) * prod(self.scenario.outputs)
        object.__setattr__(self, "matrix", _as_complex_matrix(self.matrix, dim))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class ProcessMatrixReport:
    valid: bool
    hermiticity_deviation: float
    min_eigenvalue: float
    normalization_deviation: float


def _hermitian_basis(d: int) -> list[np.ndarray]:
    mats = []
    for p in range(d):
        m = np.zeros((d, d), dtype=np.complex128)
        m[p, p] = 1.0
        mats.append(m)
    for p in range(d):
        for q in range(p + 1, d):
            m = np.zeros((d, d), dtype=np.complex128)
            m[p, q] = m[q, p] = 1.0
            mats.append(m)
            m = np.zeros((d, d), dtype=np.complex128)
            m[p, q] = -1.0j
            m[q, p] = 1.0j
            mats.append(m)
    return mats


def _traceless_hermitian_basis(d: int) -> list[np.ndarray]:
    mats = []
    for p in range(d - 1):
        m = np.zeros((d, d), dtype=np.complex128)
        m[p, p] = 1.0
        m[p + 1, p + 1] = -1.0
        mats.append(m)
    for p in range(d):
        for q in range(p + 1, d):
            m = np.zeros((d, d), dtype=np.complex128)
            m[p, q] = m[q, p] = 1.0
            mats.append(m)
            m = np.zeros((d, d), dtype=np.complex128)
            m[p, q] = -1.0j
            m[q, p] = 1.0j
            mats.append(m)
    return mats


def _normalization_family(d_in: int, d_out: int) -> list[np.ndarray]:
    """Affine-spanning family of trace-preserving CJ marginals for one party.

    Base point identity/d_out plus every Hermitian direction with vanishing
    partial trace over the output; size (d_in*d_out)^2 - d_in^2 + 1.
    Multilinearity of the trace rule makes checking all tuples from these
    families equivalent to the universally quantified normalization condition.
    """
    base = np.eye(d_in * d_out, dtype=np.complex128) / d_out
    family = [base]
    for h in _hermitian_basis(d_in):
        for g in _traceless_hermitian_basis(d_out):
            family.append(base + np.kron(h, g))
    return family


def is_valid_process_matrix(
    pm: ProcessMatrix, atol: float = VALIDITY_ATOL
) -> ProcessMatrixReport:
    """Positivity plus unit trace against every tuple of trace-preserving maps."""
    w = pm.matrix
    herm_dev = float(np.max(np.abs(w - w.conj().T)))
    min_eig = float(np.min(np.linalg.eigvalsh((w + w.conj().T) / 2)))

    families = [
        _normalization_family(d_in, d_out)
        for d_in, d_out in zip(pm.scenario.inputs, pm.scenario.outputs)
    ]
    norm_dev = 0.0
    indices = [range(len(f)) for f in families]
    for combo in itertools.product(*indices):
        tensor = families[0][combo[0]]
        for k in range(1, len(families)):
            tensor = np.kron(tensor, families[k][combo[k]])
        value = trace_product(w, tensor)
        norm_dev = max(norm_dev, abs(value - 1.0))
    return ProcessMatrixReport(
        valid=(herm_dev <= atol and min_eig >= -atol and norm_dev <= atol),
        hermiticity_deviation=herm_dev,
        min_eigenvalue=min_eig,
        normalization_deviation=norm_dev,
    )


@dataclass(frozen=True)
class NumericCorrelation:
    """Float-valued behaviour from the trace rule; raw, unclipped entries."""

    scenario: Scenario
    table: tuple[float, ...]
    max_imag_residual: float

    def prob(self, x: Sequence[int], a: Sequence[int]) -> float:
        from .scenario import flatten

        sc = self.scenario
        return self.table[flatten(x, sc.outcomes) * sc.n_settings + flatten(a, sc.settings)]

    def setting_mass(self) -> tuple[float, ...]:
        n_a = self.scenario.n_settings
        return tuple(
            sum(self.table[x_flat * n_a + a_flat] for x_flat in range(self.scenario.n_outcomes))
            for a_flat in range(n_a)
        )

    def clipped_table(self) -> tuple[float, ...]:
        """Entries clipped to [0, 1]; for reporting only."""
        return tuple(min(1.0, max(0.0, v)) for v in self.table)


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
    for a_flat, a in enumerate(sc.setting_tuples()):
        for x_flat, x in enumerate(sc.outcome_tuples()):
            tensor = instruments[0].operators[a[0]][x[0]]
            for k in range(1, sc.n_parties):
                tensor = np.kron(tensor, instruments[k].operators[a[k]][x[k]])
            value = trace_product(pm.matrix, tensor)
            max_imag = max(max_imag, abs(value.imag))
            table[x_flat * n_a + a_flat] = value.real
    return NumericCorrelation(sc, tuple(table), max_imag)


def _diag_index(scenario: Scenario, i_flat: int, o_flat: int) -> int:
    """Global basis index of |i_1 o_1 i_2 o_2 ...> from flattened joint indices."""
    idx = 0
    remainder_i, remainder_o = i_flat, o_flat
    comps = []
    for d_in, d_out in zip(reversed(scenario.inputs), reversed(scenario.outputs)):
        comps.append((remainder_i % d_in, remainder_o % d_out, d_in, d_out))
        remainder_i //= d_in
        remainder_o //= d_out
    for i_k, o_k, d_in, d_out in reversed(comps):
        idx = idx * (d_in * d_out) + i_k * d_out + o_k
    return idx


def diagonal_from_classical(qp: QuasiProcess) -> ProcessMatrix:
    """Basis-diagonal environment whose trace-rule statistics reproduce the
    classical evaluator under diagonal instruments."""
    sc = qp.scenario
    dim = prod(sc.inputs) * prod(sc.outputs)
    w = np.zeros((dim, dim), dtype=np.complex128)
    for i_flat in range(sc.n_inputs):
        for o_flat in range(sc.n_outputs):
            g = _diag_index(sc, i_flat, o_flat)
            w[g, g] = float(qp.table[i_flat * sc.n_outputs + o_flat])
    return ProcessMatrix(sc, w)


def classical_from_diagonal(pm: ProcessMatrix, atol: float = DIAGONAL_ATOL) -> QuasiProcess:
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
    if worst > atol:
        raise NonDiagonal(f"largest off-diagonal magnitude {worst} exceeds {atol}")
    table = [Fraction(0)] * (sc.n_inputs * sc.n_outputs)
    for i_flat in range(sc.n_inputs):
        for o_flat in range(sc.n_outputs):
            g = _diag_index(sc, i_flat, o_flat)
            table[i_flat * sc.n_outputs + o_flat] = Fraction(pm.matrix[g, g].real)
    return QuasiProcess(sc, tuple(table))


def classical_instruments(family: InterventionFamily) -> list[InstrumentCJ]:
    """Diagonal CJ instruments implementing classical local operations."""
    sc = family.scenario
    out = []
    for k in range(sc.n_parties):
        d_in, d_out = sc.inputs[k], sc.outputs[k]
        per_setting = []
        for a in range(sc.settings[k]):
            per_outcome = []
            for x in range(sc.outcomes[k]):
                m = np.zeros((d_in * d_out, d_in * d_out), dtype=np.complex128)
                for i in range(d_in):
                    for o in range(d_out):
                        m[i * d_out + o, i * d_out + o] = float(family.prob(k, x, o, a, i))
                per_outcome.append(m)
            per_setting.append(tuple(per_outcome))
        out.append(InstrumentCJ(d_in, d_out, tuple(per_setting)))
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
