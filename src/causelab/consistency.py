"""
Logical consistency of quasi-processes and process-function enumeration.

A quasi-process p(i|o) is logically consistent when every choice of local
interventions produces normalized statistics.  Because the single-round
evaluator is multilinear in each party's intervention, it is enough to test
the deterministic vertices: for every family f = (f_1, ..., f_N) of output
choices f_k : I_k -> O_k the total mass sum_i p(i | f(i)) must equal 1.

Deterministic quasi-processes are represented by a function w mapping joint
outputs to joint inputs, one component per party.  Such a function is a
process function exactly when every output choice admits one and only one
fixed point i = w(f(i)); zero fixed points is the grandfather antinomy, two
or more is its over-determined twin.

A useful structural fact (used for the default "reduced" enumeration): a
process function's component for party k can never depend on that party's own
output.  If it did, some single-party output choice would compose with it to
a map with zero or two fixed points, so candidates that read their own output
never survive.  Enumerating components over the other parties' outputs is
therefore complete; the unreduced mode remains available for cross-checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from typing import Iterator, Sequence

from ._lazy import np
from .errors import InvalidMixture, SearchSpaceTooLarge
from .scenario import QuasiProcess, Scenario, flatten, iter_tuples

CANDIDATE_CAP = 2**32
# Survey steps (candidates x output choices x joint inputs) allowed in one
# survey; the numpy survey runs about 10^8 steps per second on one core.
SURVEY_WORK_CAP = 10**10
# Gathered (candidate, choice, input) cells held at once by the survey.
SURVEY_BATCH_ELEMENTS = 1 << 16
# Cells (output choices x joint inputs) of the output-choice table: 8 bytes
# each, and the PC LP walks every cell in Python.
CHOICE_TABLE_CELL_CAP = 1 << 22


@dataclass(frozen=True)
class OutputChoice:
    """One deterministic output map per party: maps[k][i_k] = o_k."""

    maps: tuple[tuple[int, ...], ...]

    def apply(self, i: Sequence[int]) -> tuple[int, ...]:
        return tuple(m[v] for m, v in zip(self.maps, i))


@dataclass(frozen=True)
class QuasiProcessFunction:
    """Deterministic quasi-process: maps[k][flat(o)] = input delivered to party k."""

    scenario: Scenario
    maps: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        sc = self.scenario
        if len(self.maps) != sc.n_parties:
            raise ValueError(f"expected {sc.n_parties} component maps, got {len(self.maps)}")
        for k, component in enumerate(self.maps):
            if len(component) != sc.n_outputs:
                raise ValueError(
                    f"component {k} defined on {len(component)} joint outputs, "
                    f"expected {sc.n_outputs}"
                )
            if any(not 0 <= value < sc.inputs[k] for value in component):
                raise ValueError(f"component {k} takes a value outside its input alphabet")

    def apply(self, o: Sequence[int]) -> tuple[int, ...]:
        o_flat = flatten(o, self.scenario.outputs)
        return tuple(component[o_flat] for component in self.maps)

    def apply_flat(self, o_flat: int) -> int:
        """Flattened joint input delivered when the joint output is o_flat."""
        value = 0
        for k, component in enumerate(self.maps):
            value = value * self.scenario.inputs[k] + component[o_flat]
        return value


def output_choice_count(scenario: Scenario) -> int:
    return prod(d_o**d_i for d_o, d_i in zip(scenario.outputs, scenario.inputs))


def enumerate_output_choices(
    scenario: Scenario, cap: int = CANDIDATE_CAP
) -> Iterator[OutputChoice]:
    """All deterministic output-map families, lexicographic order."""
    count = output_choice_count(scenario)
    if count > cap:
        raise SearchSpaceTooLarge(f"{count} output choices exceed the cap {cap}")
    per_party = [
        itertools.product(range(d_o), repeat=d_i)
        for d_o, d_i in zip(scenario.outputs, scenario.inputs)
    ]
    for maps in itertools.product(*per_party):
        yield OutputChoice(tuple(maps))


def _lex_maps(domain: int, alphabet: int) -> np.ndarray:
    """Every map range(domain) -> range(alphabet), one per row, lexicographic order."""
    places = alphabet ** np.arange(domain - 1, -1, -1, dtype=np.int64)
    return np.arange(alphabet**domain, dtype=np.int64)[:, None] // places % alphabet


def _choice_input_to_output_tables(scenario: Scenario, cap: int) -> np.ndarray:
    """Joint output flat(f(i)) at row c, column i_flat; choices c in lex order.

    This one table answers "where does output choice f send joint input i" for
    the survey, the vertex test and the canonical-PC LP.  The choice count is
    capped by ``cap`` and the table's cells by ``CHOICE_TABLE_CELL_CAP``
    before anything is allocated.
    """
    count = output_choice_count(scenario)
    if count > cap:
        raise SearchSpaceTooLarge(f"{count} output choices exceed the cap {cap}")
    cells = count * scenario.n_inputs
    if cells > CHOICE_TABLE_CELL_CAP:
        raise SearchSpaceTooLarge(
            f"the output-choice table needs {cells} cells ({count} output choices x "
            f"{scenario.n_inputs} joint inputs), above the cap {CHOICE_TABLE_CELL_CAP}"
        )
    n = scenario.n_parties
    table = np.zeros((1,) * (2 * n), dtype=np.int64)
    stride = 1
    for k in reversed(range(n)):
        d_o, d_i = scenario.outputs[k], scenario.inputs[k]
        maps = _lex_maps(d_i, d_o)
        shape = [1] * (2 * n)
        shape[k], shape[n + k] = maps.shape
        table = table + maps.reshape(shape) * stride
        stride *= d_o
    return table.reshape(count, scenario.n_inputs)


@dataclass(frozen=True)
class ConsistencyVerdict:
    consistent: bool
    violation: OutputChoice | None = None
    violation_mass: Fraction | None = None


def is_logically_consistent(qp: QuasiProcess, cap: int = CANDIDATE_CAP) -> ConsistencyVerdict:
    """Exact vertex test: unit total mass at every deterministic output choice.

    On failure the certificate is the violating choice with the smallest total
    mass (ties broken by enumeration order), so a grandfather-style violation
    (mass 0) is preferred over an over-counting one.  Masses are sums of
    integer numerators over the table's common denominator, gathered through
    the output-choice table; they are int64 when no sum can overflow and
    Python ints otherwise, so the test is exact.
    """
    sc = qp.scenario
    cells = _choice_input_to_output_tables(sc, cap) + np.arange(sc.n_inputs) * sc.n_outputs
    denom = lcm(*(v.denominator for v in qp.table))
    nums = [v.numerator * (denom // v.denominator) for v in qp.table]
    fits = max(map(abs, nums)) * sc.n_inputs < 2**63
    masses = np.array(nums, dtype=np.int64 if fits else object)[cells].sum(axis=1)
    bad = np.flatnonzero(masses != denom)
    if not len(bad):
        return ConsistencyVerdict(True)
    c = bad[np.argmin(masses[bad])]  # the first smallest mass
    alphabets = list(zip(sc.outputs, sc.inputs))
    digits = np.unravel_index(c, [d_o**d_i for d_o, d_i in alphabets])  # per-party lex index
    maps = tuple(tuple(_lex_maps(d_i, d_o)[m].tolist()) for m, (d_o, d_i) in zip(digits, alphabets))
    return ConsistencyVerdict(False, OutputChoice(maps), Fraction(int(masses[c]), denom))


def fixed_points(
    omega: QuasiProcessFunction, choice: OutputChoice
) -> tuple[tuple[int, ...], ...]:
    """All joint inputs with i = w(f(i)), ascending flattened order."""
    hits = []
    for i in iter_tuples(omega.scenario.inputs):
        if omega.apply(choice.apply(i)) == i:
            hits.append(i)
    return tuple(hits)


@dataclass(frozen=True)
class FunctionVerdict:
    is_process_function: bool
    violation: OutputChoice | None = None
    fixed_point_count: int | None = None


def is_process_function(
    omega: QuasiProcessFunction, cap: int = CANDIDATE_CAP
) -> FunctionVerdict:
    """Unique-fixed-point test over every output choice.

    The failure certificate is the choice with the fewest fixed points (ties
    broken by enumeration order), mirroring :func:`is_logically_consistent`.
    """
    worst: tuple[int, OutputChoice] | None = None
    for choice in enumerate_output_choices(omega.scenario, cap):
        count = len(fixed_points(omega, choice))
        if count != 1 and (worst is None or count < worst[0]):
            worst = (count, choice)
    if worst is None:
        return FunctionVerdict(True)
    return FunctionVerdict(False, worst[1], worst[0])


def _reduced_projection(scenario: Scenario, k: int) -> tuple[int, ...]:
    """Map flat(o) to the flat index of o with party k's component removed."""
    other_cards = [scenario.outputs[j] for j in range(scenario.n_parties) if j != k]
    table = []
    for o in iter_tuples(scenario.outputs):
        others = tuple(o[j] for j in range(scenario.n_parties) if j != k)
        table.append(flatten(others, other_cards) if other_cards else 0)
    return tuple(table)


def _candidate_axes(scenario: Scenario, reduced: bool) -> tuple[list[list[tuple[int, ...]]], int]:
    """Per-party lists of candidate component maps (full tables over flat(o))."""
    axes: list[list[tuple[int, ...]]] = []
    total = 1
    for k in range(scenario.n_parties):
        d_i = scenario.inputs[k]
        if reduced:
            projection = _reduced_projection(scenario, k)
            domain = prod(
                scenario.outputs[j] for j in range(scenario.n_parties) if j != k
            )
            tables = [
                tuple(values[projection[o_flat]] for o_flat in range(scenario.n_outputs))
                for values in itertools.product(range(d_i), repeat=domain)
            ]
        else:
            tables = [
                tuple(values)
                for values in itertools.product(range(d_i), repeat=scenario.n_outputs)
            ]
        axes.append(tables)
        total *= len(tables)
    return axes, total


def _survey_process_functions(
    scenario: Scenario, reduced: bool, cap: int
) -> tuple[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]], ...]:
    """All process functions plus, per function, its fixed point at every choice.

    Returns ``((maps, fp_table), ...)`` where ``fp_table[c]`` is the flattened
    unique fixed point at the c-th output choice (enumeration order).
    Candidates are scanned in lex order, in batches whose fixed points at every
    choice come from one gather through the output-choice table.  The
    candidate count is capped by ``cap``, then the work (candidates x output
    choices x joint inputs) by ``SURVEY_WORK_CAP``, before anything is scanned.
    """
    axes, total = _candidate_axes(scenario, reduced)
    if total > cap:
        raise SearchSpaceTooLarge(f"{total} candidates exceed the cap {cap}")
    choices = output_choice_count(scenario)
    work = total * choices * scenario.n_inputs
    if work > SURVEY_WORK_CAP:
        raise SearchSpaceTooLarge(
            f"the survey needs about {work} steps ({total} candidates x {choices} output "
            f"choices x {scenario.n_inputs} joint inputs), above the work cap {SURVEY_WORK_CAP}"
        )
    choice_io = _choice_input_to_output_tables(scenario, cap)
    in_strides = [prod(scenario.inputs[k + 1 :]) for k in range(scenario.n_parties)]
    # Candidate t's component k is axis k's entry at digit t // place[k] % len(axis).
    place = [prod(len(axis) for axis in axes[k + 1 :]) for k in range(len(axes))]
    components = [np.array(axis, dtype=np.int64) * in_strides[k] for k, axis in enumerate(axes)]
    batch = max(1, SURVEY_BATCH_ELEMENTS // choice_io.size)
    identity = np.arange(scenario.n_inputs)

    survivors = []
    for start in range(0, total, batch):
        t = np.arange(start, min(start + batch, total), dtype=np.int64)
        omega = sum(comp[t // place[k] % len(comp)] for k, comp in enumerate(components))
        hits = omega[:, choice_io] == identity
        unique = (hits.sum(axis=2) == 1).all(axis=1)
        for pos in np.flatnonzero(unique).tolist():
            index = int(t[pos])
            maps = tuple(axis[index // place[k] % len(axis)] for k, axis in enumerate(axes))
            survivors.append((maps, tuple(hits[pos].argmax(axis=1).tolist())))
    return tuple(survivors)


@lru_cache(maxsize=32)
def _survey_cached(scenario: Scenario, reduced: bool, cap: int):
    return _survey_process_functions(scenario, reduced, cap)


def enumerate_process_functions(
    scenario: Scenario, reduced: bool = True, cap: int = CANDIDATE_CAP
) -> Iterator[QuasiProcessFunction]:
    """Yield exactly the candidates passing the unique-fixed-point test, lex order.

    Reduced mode enumerates components over the other parties' outputs only;
    this loses nothing (see module docstring) and shrinks the candidate space
    from prod_k d_I^(n_O) to prod_k d_I^(n_O / d_{O_k}).
    """
    for maps, _ in _survey_cached(scenario, reduced, cap):
        yield QuasiProcessFunction(scenario, maps)


def quasiprocess_from_function(omega: QuasiProcessFunction) -> QuasiProcess:
    """The 0/1 table p(i|o) = [i = w(o)]."""
    sc = omega.scenario
    n_inputs, n_outputs = sc.n_inputs, sc.n_outputs
    table = [Fraction(0)] * (n_inputs * n_outputs)
    for o_flat in range(n_outputs):
        table[omega.apply_flat(o_flat) * n_outputs + o_flat] = Fraction(1)
    return QuasiProcess(sc, tuple(table))


@dataclass(frozen=True)
class ProcessFunctionMixture:
    """Convex mixture of process functions; the deterministic-extrema polytope."""

    components: tuple[tuple[QuasiProcessFunction, Fraction], ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise InvalidMixture("a mixture needs at least one component")
        converted = tuple((omega, Fraction(w)) for omega, w in self.components)
        object.__setattr__(self, "components", converted)
        scenario = converted[0][0].scenario
        total = Fraction(0)
        for omega, weight in converted:
            if omega.scenario != scenario:
                raise InvalidMixture("mixture components live on different scenarios")
            if weight < 0:
                raise InvalidMixture(f"negative weight {weight}")
            total += weight
            verdict = is_process_function(omega)
            if not verdict.is_process_function:
                raise InvalidMixture(
                    "a component fails the unique-fixed-point test "
                    f"(choice {verdict.violation}, {verdict.fixed_point_count} fixed points)"
                )
        if total != 1:
            raise InvalidMixture(f"weights sum to {total}, expected 1")


def mixture_process(mix: ProcessFunctionMixture) -> QuasiProcess:
    """Convex combination table; always logically consistent."""
    scenario = mix.components[0][0].scenario
    n_inputs, n_outputs = scenario.n_inputs, scenario.n_outputs
    table = [Fraction(0)] * (n_inputs * n_outputs)
    for omega, weight in mix.components:
        if weight == 0:
            continue
        for o_flat in range(n_outputs):
            table[omega.apply_flat(o_flat) * n_outputs + o_flat] += weight
    return QuasiProcess(scenario, tuple(table))
