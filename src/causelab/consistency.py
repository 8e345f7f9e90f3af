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

A process function's component for party k never depends on that party's own
output (Baumeler & Wolf, New J. Phys. 18, 013036 (2016)): if it did, some
single-party output choice would compose with it to a map with zero or two
fixed points.  So the survey enumerates each component over the other
parties' outputs only, prod_k d_I_k^(n_O / d_O_k) candidates, and loses none.

One kernel, :func:`_choice_masses`, sums a table over (i, f(i)) at every output
choice f, for the vertex test, the survey and the canonical PC LP's rows.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import Iterator, Sequence

from ._lazy import check_axes, np
from ._record import Record
from .errors import InvalidMixture, SearchSpaceTooLarge
from .lp import _scaled
from .scenario import QuasiProcess, Scenario, conditional_table, flatten, iter_tuples
from .scenario import strides, unflatten

CANDIDATE_CAP = 2**32
# Survey steps (candidates x output choices x joint inputs) allowed in one survey:
# 3.5-9.6 x 10^8 per second on one core.  A party with one output letter leaves
# the contraction, so its inputs cost far less (50,000 of them: 2.5 x 10^9 in 0.1 s).
SURVEY_WORK_CAP = 10**10
# Candidates per survey batch, enough to outweigh numpy's per-call overhead;
# fewer where (cells + output choices) x candidates would pass the cap below.
SURVEY_BATCH_CANDIDATES = 512
# Output choices x joint inputs: a bound on the additions of the output-choice
# contraction (the vertex test's, the survey's per batch and the PC rows').
CHOICE_TABLE_CELL_CAP = 1 << 22


class OutputChoice(Record):
    """One deterministic output map per party: maps[k][i_k] = o_k."""

    maps: tuple[tuple[int, ...], ...]

    def apply(self, i: Sequence[int]) -> tuple[int, ...]:
        return tuple(m[v] for m, v in zip(self.maps, i))


class QuasiProcessFunction(Record):
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


def output_choice_count(scenario: Scenario) -> int:
    return prod(d_o**d_i for d_o, d_i in zip(scenario.outputs, scenario.inputs))


def enumerate_output_choices(scenario: Scenario) -> Iterator[OutputChoice]:
    """All deterministic output-map families, lexicographic order."""
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


def _check_choice_cells(scenario: Scenario) -> None:
    """Raise before the output-choice contraction's work outgrows its cap."""
    count = output_choice_count(scenario)
    cells = count * scenario.n_inputs
    if cells > CHOICE_TABLE_CELL_CAP:
        raise SearchSpaceTooLarge(
            f"the output-choice table needs {cells} cells ({count} output choices x "
            f"{scenario.n_inputs} joint inputs), above the cap {CHOICE_TABLE_CELL_CAP}"
        )


def _add_vectors(x: list, y: list) -> list:
    return list(map(operator.add, x, y))


def _choice_masses(scenario: Scenario, nums: Sequence) -> list:
    """sum_i nums[flat(i), flat(f(i))] at every output choice f, lex order.

    Entries may be anything that adds: ints, numpy arrays over candidates, one-bit masks.
    The table is laid out party by party, (i_0, o_0, ..., i_{N-1}, o_{N-1}),
    and contracted from the last party back.  At party k each block of fixed
    earlier (i, o) holds one entry per (i_k, o_k): a scalar for the last
    party, otherwise a vector over the later parties' choices.  The sums under
    party k's maps are built one input digit at a time, input 0 most
    significant, and concatenated in map order, so after party 0 one list
    holds every choice's mass in lex order.
    """
    n_o = scenario.n_outputs
    alphabets = list(zip(scenario.inputs, scenario.outputs))
    offsets = [0]
    places = zip(strides(scenario.inputs), strides(scenario.outputs))
    for (d_i, d_o), (i_place, o_place) in zip(alphabets, places):
        offsets = [
            base + v * i_place * n_o + w * o_place
            for base in offsets
            for v in range(d_i)
            for w in range(d_o)
        ]
    state: list = [nums[j] for j in offsets]
    scalars = True  # until the last party is contracted
    for d_i, d_o in reversed(alphabets):
        add = operator.add if scalars else _add_vectors
        blocks = []
        for start in range(0, len(state), d_i * d_o):
            sums = state[start : start + d_o]
            for v in range(1, d_i):
                row = state[start + v * d_o : start + (v + 1) * d_o]
                sums = [add(s, x) for s in sums for x in row]
            blocks.append(sums if scalars else list(itertools.chain.from_iterable(sums)))
        state, scalars = blocks, False
    (masses,) = state
    return masses


class ConsistencyVerdict(Record):
    consistent: bool
    violation: OutputChoice | None = None
    violation_mass: Fraction | None = None


def is_logically_consistent(qp: QuasiProcess) -> ConsistencyVerdict:
    """Exact vertex test: unit total mass at every deterministic output choice.

    On failure the certificate is the violating choice with the smallest total
    mass (ties broken by enumeration order), so a grandfather-style violation
    (mass 0) is preferred over an over-counting one.  Masses are sums of
    integer numerators over the table's common denominator, contracted one
    party at a time in Python integers, so the test is exact.  Its work is
    bounded by ``CHOICE_TABLE_CELL_CAP``, checked first.
    """
    sc = qp.scenario
    _check_choice_cells(sc)
    nums, denom = _scaled(qp.table)
    masses = _choice_masses(sc, nums)
    worst = min(masses)
    if worst == denom:  # every p(.|o) is normalized, so the masses average to denom
        return ConsistencyVerdict(True)
    digits = unflatten(masses.index(worst), [d_o**d_i for d_o, d_i in zip(sc.outputs, sc.inputs)])
    maps = tuple(unflatten(m, (d_o,) * d_i) for m, d_o, d_i in zip(digits, sc.outputs, sc.inputs))
    return ConsistencyVerdict(False, OutputChoice(maps), Fraction(worst, denom))


def fixed_points(
    omega: QuasiProcessFunction, choice: OutputChoice
) -> tuple[tuple[int, ...], ...]:
    """All joint inputs with i = w(f(i)), ascending flattened order."""
    hits = []
    for i in iter_tuples(omega.scenario.inputs):
        if omega.apply(choice.apply(i)) == i:
            hits.append(i)
    return tuple(hits)


class FunctionVerdict(Record):
    is_process_function: bool
    violation: OutputChoice | None = None
    fixed_point_count: int | None = None


def is_process_function(omega: QuasiProcessFunction) -> FunctionVerdict:
    """Unique-fixed-point test over every output choice.

    This is the vertex test of the 0/1 table p(i|o) = [i = w(o)], whose mass
    at a choice is its number of fixed points; so the failure certificate is
    the choice with the fewest fixed points (ties broken by enumeration
    order), as in :func:`is_logically_consistent`.
    """
    verdict = is_logically_consistent(quasiprocess_from_function(omega))
    if verdict.consistent:
        return FunctionVerdict(True)
    return FunctionVerdict(False, verdict.violation, int(verdict.violation_mass))


def _candidate_axes(scenario: Scenario) -> tuple[list[np.ndarray], int]:
    """Per-party candidate component maps, one row each over flat(o), lex order.

    Party k's rows are every map range(domain) -> range(d_I_k), read at the
    projection of the joint outputs that drops party k's own output, so its
    components ignore it.  Returns the arrays and the candidate count, their
    product of row counts.  The projection's axes, one per party, are checked first.
    """
    check_axes("the survey's candidate projection", scenario.n_parties)
    axes = []
    for k, d_i in enumerate(scenario.inputs):
        shape = list(scenario.outputs)
        shape[k] = 1
        domain = prod(shape)
        projection = np.broadcast_to(np.arange(domain).reshape(shape), scenario.outputs)
        # take, unlike [:, projection], keeps each row contiguous for the survey's gathers
        axes.append(_lex_maps(domain, d_i).take(projection.reshape(-1), axis=1))
    return axes, prod(len(axis) for axis in axes)


def _survey_process_functions(
    scenario: Scenario, cap: int
) -> tuple[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]], ...]:
    """All process functions plus, per function, its fixed point at every choice.

    Returns ``((maps, fp_table), ...)`` where ``fp_table[c]`` is the flattened
    unique fixed point at the c-th output choice (enumeration order).
    A party with one output letter has one output map, so the contraction
    needs none of its inputs: the kernel scenario gives such parties one
    input, and a joint input i keeps only its other digits, i'.  Candidates
    are scanned in lex order, in batches: cells [w_t(o)' = i'], numpy arrays
    over the batch, weighted 1 + m*flat(w_t(o)) for m = n_inputs + 1, are
    summed by :func:`_choice_masses` on the kernel, so a choice's mass % m
    counts its fixed points and, when that is 1, mass // m is the fixed point.  The
    candidate count, read from the scenario, is capped by ``cap``, the work
    (candidates x output choices x joint inputs) by ``SURVEY_WORK_CAP``, the
    projection's axes by numpy's limit, then ``CHOICE_TABLE_CELL_CAP``.
    """
    # party k's candidate components: d_I^(joint outputs, less its own)
    sizes = [(d_i, scenario.n_outputs // d_o) for d_i, d_o in zip(scenario.inputs, scenario.outputs)]
    at_least = sum(e * (d_i.bit_length() - 1) for d_i, e in sizes)  # bits of a lower bound
    if at_least > cap.bit_length():
        raise SearchSpaceTooLarge(f"at least 2^{at_least} candidates exceed the cap {cap}")
    total = prod(d_i**e for d_i, e in sizes)
    if total > cap:
        raise SearchSpaceTooLarge(f"{total} candidates exceed the cap {cap}")
    choices = output_choice_count(scenario)
    work = total * choices * scenario.n_inputs
    if work > SURVEY_WORK_CAP:
        raise SearchSpaceTooLarge(
            f"the survey needs about {work} steps ({total} candidates x {choices} output "
            f"choices x {scenario.n_inputs} joint inputs), above the work cap {SURVEY_WORK_CAP}"
        )
    axes, _ = _candidate_axes(scenario)
    _check_choice_cells(scenario)
    kernel_inputs = tuple(d_i if d_o > 1 else 1 for d_i, d_o in zip(scenario.inputs, scenario.outputs))
    kernel = Scenario(scenario.settings, scenario.outcomes, kernel_inputs, scenario.outputs)
    # flat(i) -> flat(i'), i' dropping the digits of the parties with one output letter
    marks = np.arange(kernel.n_inputs, dtype=np.int64)
    mark_of = np.broadcast_to(marks.reshape(kernel_inputs), scenario.inputs).reshape(-1)
    # Candidate t's component k is axis k's entry at digit t // place[k] % len(axis).
    place = strides([len(axis) for axis in axes])
    components = [axis * stride for axis, stride in zip(axes, strides(scenario.inputs))]
    held = kernel.n_inputs * scenario.n_outputs + choices  # entries per candidate
    batch = max(1, min(SURVEY_BATCH_CANDIDATES, CHOICE_TABLE_CELL_CAP // held))
    m = scenario.n_inputs + 1

    kept, fixed = [], []  # per batch: surviving candidate indices, their fixed points
    for start in range(0, total, batch):
        t = np.arange(start, min(start + batch, total), dtype=np.int64)
        omega = sum(comp[t // place[k] % len(comp)] for k, comp in enumerate(components))
        # cell (i', o), at flat index i' * n_o + o, over the batch's candidates
        cells = (mark_of[omega.T] == marks[:, None, None]) * (1 + m * omega.T)
        masses = np.array(_choice_masses(kernel, list(cells.reshape(-1, len(t)))))
        unique = (masses % m == 1).all(axis=0)
        kept.append(t[unique])
        fixed.append(masses[:, unique].T // m)
    index = np.concatenate(kept)
    maps = [map(tuple, ax[index // p % len(ax)].tolist()) for ax, p in zip(axes, place)]
    return tuple(zip(zip(*maps), map(tuple, np.concatenate(fixed).tolist())))


@lru_cache(maxsize=32)
def _survey_cached(scenario: Scenario, cap: int):
    return _survey_process_functions(scenario, cap)


def enumerate_process_functions(
    scenario: Scenario, cap: int = CANDIDATE_CAP
) -> Iterator[QuasiProcessFunction]:
    """Yield every process function of ``scenario``, lex order of its components.

    Each component is enumerated over the other parties' outputs only, which
    loses nothing (see module docstring): prod_k d_I_k^(n_O / d_O_k)
    candidates, capped by ``cap``.
    """
    for maps, _ in _survey_cached(scenario, cap):
        yield QuasiProcessFunction(scenario, maps)


def _function_mixture_table(
    scenario: Scenario, components: Sequence[tuple[QuasiProcessFunction, Fraction]]
) -> QuasiProcess:
    """p(i|o) = total weight of the components with w(o) = i."""
    weight_at: Counter = Counter()
    for omega, weight in components:
        for o in iter_tuples(scenario.outputs):
            weight_at[omega.apply(o), o] += weight
    return QuasiProcess(
        scenario, conditional_table(scenario.inputs, scenario.outputs, lambda i, o: weight_at[i, o])
    )


def quasiprocess_from_function(omega: QuasiProcessFunction) -> QuasiProcess:
    """The 0/1 table p(i|o) = [i = w(o)]."""
    return _function_mixture_table(omega.scenario, ((omega, Fraction(1)),))


class ProcessFunctionMixture(Record):
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
    return _function_mixture_table(mix.components[0][0].scenario, mix.components)
