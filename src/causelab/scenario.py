"""
Data model for single-round communication scenarios.

A scenario fixes, for each party k: a setting alphabet of size ``settings[k]``,
an outcome alphabet of size ``outcomes[k]``, and classical input/output systems
of sizes ``inputs[k]`` / ``outputs[k]``.  Every table in this package is dense
and uses one flattening convention:

* multi-indices flatten row-major with party 1 most significant;
* a conditional table over (object, conditioner) flattens as
  ``flat(object) * n_conditioner + flat(conditioner)``; a quasi-process entry
  p(i|o) therefore lives at ``flat(i) * n_outputs + flat(o)`` and a correlation
  entry p(x|a) at ``flat(x) * n_settings + flat(a)``.  :func:`conditional_table`
  builds such a table from a rule on the two multi-indices.

Classical probabilities are exact :class:`fractions.Fraction` values.  All
objects are immutable after construction and every operation here is a pure
function, so concurrent evaluation needs no locking.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod
from typing import Callable, Iterator, Sequence

from ._record import Record
from .errors import (
    InvalidScenario,
    InvalidTable,
    NotCanonicalizable,
    ScenarioMismatch,
)

ZERO = Fraction(0)


def flatten(index: Sequence[int], cards: Sequence[int]) -> int:
    """Row-major flat index of a multi-index, first component most significant."""
    if len(index) != len(cards):
        raise IndexError(f"index length {len(index)} != {len(cards)} cards")
    flat = 0
    for value, card in zip(index, cards):
        if not 0 <= value < card:
            raise IndexError(f"component {value} out of range for cardinality {card}")
        flat = flat * card + value
    return flat


def strides(cards: Sequence[int]) -> list[int]:
    """Each component's place value in :func:`flatten`."""
    return [prod(cards[k + 1 :]) for k in range(len(cards))]


def unflatten(flat: int, cards: Sequence[int]) -> tuple[int, ...]:
    """Inverse of :func:`flatten`."""
    total = prod(cards)
    if not 0 <= flat < total:
        raise IndexError(f"flat index {flat} out of range for {total} cells")
    out = []
    for card in reversed(cards):
        out.append(flat % card)
        flat //= card
    return tuple(reversed(out))


def iter_tuples(cards: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All multi-indices in ascending flattened (lexicographic) order."""
    return itertools.product(*(range(card) for card in cards))


def conditional_table(
    object_cards: Sequence[int],
    conditioner_cards: Sequence[int],
    entry: Callable[[tuple[int, ...], tuple[int, ...]], object],
) -> tuple:
    """The table with ``entry(obj, cond)`` at ``flat(obj) * n_cond + flat(cond)``.

    ``obj`` and ``cond`` are multi-indices over the two card lists; a boolean
    rule gives a 0/1 table.  The entries are the rule's values as returned:
    the record that receives the table converts them to Fractions.
    """
    conditioners = list(iter_tuples(conditioner_cards))
    return tuple(entry(obj, cond) for obj in iter_tuples(object_cards) for cond in conditioners)


class Scenario(Record):
    """Party count plus per-party setting/outcome/input/output alphabet sizes."""

    settings: tuple[int, ...]
    outcomes: tuple[int, ...]
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.settings)
        if n == 0:
            raise InvalidScenario("at least one party is required")
        for name in ("settings", "outcomes", "inputs", "outputs"):
            cards = getattr(self, name)
            if len(cards) != n:
                raise InvalidScenario(f"{name} has {len(cards)} entries for {n} parties")
            if any(isinstance(card, bool) or not isinstance(card, int) for card in cards):
                raise InvalidScenario(f"{name} contains a non-integer cardinality: {cards}")
            if any(card < 1 for card in cards):
                raise InvalidScenario(f"{name} contains a non-positive cardinality: {cards}")

    @property
    def n_parties(self) -> int:
        return len(self.settings)

    @property
    def n_settings(self) -> int:
        return prod(self.settings)

    @property
    def n_outcomes(self) -> int:
        return prod(self.outcomes)

    @property
    def n_inputs(self) -> int:
        return prod(self.inputs)

    @property
    def n_outputs(self) -> int:
        return prod(self.outputs)


def make_scenario(
    n_parties: int,
    settings: int | Sequence[int],
    outcomes: int | Sequence[int],
    inputs: int | Sequence[int],
    outputs: int | Sequence[int],
) -> Scenario:
    """Build a validated scenario; scalar cardinalities apply to every party.

    Cardinalities are not coerced: ``Scenario`` rejects any that is not an int.
    """
    if isinstance(n_parties, bool) or not isinstance(n_parties, int):
        raise InvalidScenario(f"n_parties must be an int, got {n_parties!r}")
    if n_parties < 1:
        raise InvalidScenario("n_parties must be positive")

    def expand(value: int | Sequence[int], name: str) -> tuple[int, ...]:
        if isinstance(value, int):
            cards = (value,) * n_parties
        elif isinstance(value, Sequence):
            cards = tuple(value)
        else:
            raise InvalidScenario(f"{name} must be an int or one int per party, got {value!r}")
        if len(cards) != n_parties:
            raise InvalidScenario(f"{name} needs one cardinality per party")
        return cards

    return Scenario(
        settings=expand(settings, "settings"),
        outcomes=expand(outcomes, "outcomes"),
        inputs=expand(inputs, "inputs"),
        outputs=expand(outputs, "outputs"),
    )


def canonical_scenario(scenario: Scenario) -> Scenario:
    """The enlarged scenario with input_card = outcome_card and output_card = setting_card."""
    return Scenario(
        settings=scenario.settings,
        outcomes=scenario.outcomes,
        inputs=scenario.outcomes,
        outputs=scenario.settings,
    )


def _distribution_report(
    table: Sequence, n_object: int, n_conditioner: int, what: str
) -> tuple[tuple[Fraction, ...], CorrelationValidation]:
    """The table as Fractions, with its negative entries and off-unit conditioner columns."""
    if len(table) != n_object * n_conditioner:
        raise InvalidTable(
            f"{what}table has {len(table)} entries, expected {n_object * n_conditioner}"
        )
    entries = tuple(Fraction(v) for v in table)
    negatives = tuple(
        (*divmod(flat, n_conditioner), value) for flat, value in enumerate(entries) if value < 0
    )
    masses = tuple(
        (cond, mass)
        for cond in range(n_conditioner)
        if (mass := sum(entries[cond::n_conditioner])) != 1
    )
    return entries, CorrelationValidation(negatives, masses)


def _checked_table(
    table: Sequence, n_object: int, n_conditioner: int, what: str
) -> tuple[Fraction, ...]:
    """The table as Fractions; raises ``InvalidTable`` on its first violation."""
    entries, report = _distribution_report(table, n_object, n_conditioner, f"{what}: ")
    if report.negative_entries:
        raise InvalidTable(f"{what}: negative entry {report.negative_entries[0][2]}")
    if report.mass_violations:
        cond, mass = report.mass_violations[0]
        raise InvalidTable(f"{what}: conditioner column {cond} has mass {mass}, expected 1")
    return entries


class Correlation(Record):
    """Observed behaviour p(x|a), exact rational, normalized per joint setting."""

    scenario: Scenario
    table: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        sc = self.scenario
        table = _checked_table(self.table, sc.n_outcomes, sc.n_settings, "correlation")
        object.__setattr__(self, "table", table)

    def prob(self, x: Sequence[int], a: Sequence[int]) -> Fraction:
        sc = self.scenario
        return self.table[flatten(x, sc.outcomes) * sc.n_settings + flatten(a, sc.settings)]


class QuasiProcess(Record):
    """Environment behaviour p(i|o): an arbitrary conditional distribution."""

    scenario: Scenario
    table: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        sc = self.scenario
        table = _checked_table(self.table, sc.n_inputs, sc.n_outputs, "quasi-process")
        object.__setattr__(self, "table", table)

    def prob(self, i: Sequence[int], o: Sequence[int]) -> Fraction:
        sc = self.scenario
        return self.table[flatten(i, sc.inputs) * sc.n_outputs + flatten(o, sc.outputs)]


class InterventionFamily(Record):
    """Per-party local operations p(x_k, o_k | a_k, i_k), exact rationals.

    Party k's table flattens rows by (x_k, o_k) and columns by (a_k, i_k):
    entry index ``(x*d_O + o) * (n_A*d_I) + (a*d_I + i)``.
    """

    scenario: Scenario
    tables: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        sc = self.scenario
        if len(self.tables) != sc.n_parties:
            raise InvalidTable(f"expected {sc.n_parties} party tables, got {len(self.tables)}")
        checked = tuple(
            _checked_table(
                table,
                sc.outcomes[k] * sc.outputs[k],
                sc.settings[k] * sc.inputs[k],
                f"intervention for party {k}",
            )
            for k, table in enumerate(self.tables)
        )
        object.__setattr__(self, "tables", checked)

    def prob(self, k: int, x: int, o: int, a: int, i: int) -> Fraction:
        sc = self.scenario
        row = x * sc.outputs[k] + o
        col = a * sc.inputs[k] + i
        return self.tables[k][row * (sc.settings[k] * sc.inputs[k]) + col]


class DeterministicIntervention(Record):
    """Deterministic local operations: o_k = g_k(a_k, i_k) and x_k = h_k(a_k, i_k).

    ``output_maps[k][a][i]`` is the output sent, ``outcome_maps[k][a][i]`` the
    reported outcome.  These are the vertices of the local-intervention polytope.
    """

    output_maps: tuple[tuple[tuple[int, ...], ...], ...]
    outcome_maps: tuple[tuple[tuple[int, ...], ...], ...]

    def to_family(self, scenario: Scenario) -> InterventionFamily:
        def party_table(k: int) -> tuple:
            outcome, output = self.outcome_maps[k], self.output_maps[k]
            return conditional_table(
                (scenario.outcomes[k], scenario.outputs[k]),
                (scenario.settings[k], scenario.inputs[k]),
                lambda xo, ai: xo == (outcome[ai[0]][ai[1]], output[ai[0]][ai[1]]),
            )

        return InterventionFamily(scenario, tuple(map(party_table, range(scenario.n_parties))))


class EvaluatedCorrelation(Record):
    """Raw output of the single-round evaluator, before normalization checks.

    Quasi-processes that are not logically consistent produce sub- or
    super-normalized statistics; ``setting_mass`` reports the total mass per
    joint setting so such objects stay representable and testable.
    """

    scenario: Scenario
    table: tuple[Fraction, ...]
    setting_mass: tuple[Fraction, ...]

    @property
    def is_normalized(self) -> bool:
        return all(mass == 1 for mass in self.setting_mass)

    def to_correlation(self) -> Correlation:
        return Correlation(self.scenario, self.table)


def evaluate_correlation(
    process: QuasiProcess, interventions: InterventionFamily
) -> EvaluatedCorrelation:
    """Contract the environment with the local operations.

    Computes, for every (x, a),

        p(x|a) = sum_{i,o} prod_k p(x_k, o_k | a_k, i_k) * p(i|o).

    Entries are guaranteed non-negative; normalization is reported, not assumed.
    Each party's nonzero entries are read once per column (a_k, i_k), and the
    sum at (a, i) runs over the product of those lists only, so a
    deterministic family costs one term per (a, i).
    """
    if process.scenario != interventions.scenario:
        raise ScenarioMismatch("process and interventions live on different scenarios")
    sc = process.scenario
    n_x, n_a, n_o = sc.n_outcomes, sc.n_settings, sc.n_outputs
    # support[k][a_k * d_I + i_k]: party k's nonzero entries in that column, as
    # (x_k times its place in flat(x), o_k times its place in flat(o), probability)
    support = []
    places = zip(strides(sc.outcomes), strides(sc.outputs))
    for k, (local, (x_place, o_place)) in enumerate(zip(interventions.tables, places)):
        rows = [(x * x_place, o * o_place) for x, o in iter_tuples((sc.outcomes[k], sc.outputs[k]))]
        n_cols = sc.settings[k] * sc.inputs[k]
        support.append(
            [[(*row, p) for row, p in zip(rows, local[col::n_cols]) if p] for col in range(n_cols)]
        )
    table = [ZERO] * (n_x * n_a)
    input_tuples = list(iter_tuples(sc.inputs))
    for a_flat, a in enumerate(iter_tuples(sc.settings)):
        for i_flat, i in enumerate(input_tuples):
            columns = (support[k][a[k] * sc.inputs[k] + i[k]] for k in range(sc.n_parties))
            for terms in itertools.product(*columns):
                xs, outs, factors = zip(*terms)
                weight = process.table[i_flat * n_o + sum(outs)]
                if weight != 0:
                    table[sum(xs) * n_a + a_flat] += weight * prod(factors)
    mass = tuple(
        sum(table[x_flat * n_a + a_flat] for x_flat in range(n_x)) for a_flat in range(n_a)
    )
    return EvaluatedCorrelation(sc, tuple(table), mass)


def canonical_interventions(scenario: Scenario) -> InterventionFamily:
    """The deterministic family where each party reports its input and sends its setting.

    Requires outcome_card = input_card and output_card = setting_card per party.
    """
    for k in range(scenario.n_parties):
        if scenario.outcomes[k] != scenario.inputs[k] or scenario.outputs[k] != scenario.settings[k]:
            raise NotCanonicalizable(
                f"party {k}: needs outcome_card == input_card and output_card == setting_card, "
                f"got outcomes={scenario.outcomes[k]}, inputs={scenario.inputs[k]}, "
                f"outputs={scenario.outputs[k]}, settings={scenario.settings[k]}"
            )
    tables = (
        conditional_table((d_i, d_a), (d_a, d_i), lambda xo, ai: xo == ai[::-1])  # (x, o) = (i, a)
        for d_a, d_i in zip(scenario.settings, scenario.inputs)
    )
    return InterventionFamily(scenario, tuple(tables))


def universal_realization(corr: Correlation) -> tuple[QuasiProcess, InterventionFamily]:
    """Quasi-process realization reproducing an arbitrary valid correlation.

    On the enlarged scenario (inputs = outcome alphabets, outputs = setting
    alphabets) the environment simply encodes the target behaviour,
    p(i|o) = p(x=i | a=o), and the canonical interventions extract it.  The
    round trip through :func:`evaluate_correlation` is exact.
    """
    enlarged = canonical_scenario(corr.scenario)
    # Same flat layout on both sides: object-major, conditioner-minor.
    process = QuasiProcess(enlarged, corr.table)
    return process, canonical_interventions(enlarged)


class CorrelationValidation(Record):
    """Report-style result of checking non-negativity and normalization."""

    negative_entries: tuple[tuple[int, int, Fraction], ...]  # (x_flat, a_flat, value)
    mass_violations: tuple[tuple[int, Fraction], ...]  # (a_flat, mass)

    @property
    def ok(self) -> bool:
        return not self.negative_entries and not self.mass_violations


def validate_correlation(scenario: Scenario, table: Sequence[Fraction]) -> CorrelationValidation:
    """Check a raw table against the correlation invariants without raising."""
    return _distribution_report(table, scenario.n_outcomes, scenario.n_settings, "")[1]
