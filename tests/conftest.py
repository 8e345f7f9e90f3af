import os
import pathlib
import random
from fractions import Fraction

import pytest

from causelab import (
    Correlation,
    InterventionFamily,
    QuasiProcess,
    QuasiProcessFunction,
    Scenario,
    make_scenario,
    quasiprocess_from_function,
)
from causelab.scenario import iter_tuples

# Tests start child interpreters (``python -m causelab``, ``python -c``); they
# import causelab from this checkout too.
SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def gynin_scenario() -> Scenario:
    return make_scenario(3, 2, 2, 2, 2)


@pytest.fixture
def gyni_scenario() -> Scenario:
    return make_scenario(2, 2, 2, 2, 2)


@pytest.fixture
def single_scenario() -> Scenario:
    return make_scenario(1, 2, 2, 2, 2)


@pytest.fixture
def chsh_scenario() -> Scenario:
    return make_scenario(2, 2, 2, 1, 1)


def identity_loop(scenario: Scenario) -> QuasiProcess:
    """Single-party p(i|o) = [i == o]; the grandfather-prone table."""
    return quasiprocess_from_function(QuasiProcessFunction(scenario, ((0, 1),)))


def random_rational(rng: random.Random, max_den: int = 8) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(0, den), den)


def random_distribution(rng: random.Random, size: int) -> list[Fraction]:
    weights = [Fraction(rng.randint(0, 6)) for _ in range(size)]
    total = sum(weights)
    if total == 0:
        weights[rng.randrange(size)] = Fraction(1)
        total = Fraction(1)
    return [w / total for w in weights]


def random_correlation(rng: random.Random, scenario: Scenario) -> Correlation:
    n_x, n_a = scenario.n_outcomes, scenario.n_settings
    table = [Fraction(0)] * (n_x * n_a)
    for a_flat in range(n_a):
        column = random_distribution(rng, n_x)
        for x_flat in range(n_x):
            table[x_flat * n_a + a_flat] = column[x_flat]
    return Correlation(scenario, tuple(table))


def random_interventions(rng: random.Random, scenario: Scenario) -> InterventionFamily:
    tables = []
    for k in range(scenario.n_parties):
        n_rows = scenario.outcomes[k] * scenario.outputs[k]
        n_cols = scenario.settings[k] * scenario.inputs[k]
        table = [Fraction(0)] * (n_rows * n_cols)
        for col in range(n_cols):
            column = random_distribution(rng, n_rows)
            for row in range(n_rows):
                table[row * n_cols + col] = column[row]
        tables.append(tuple(table))
    return InterventionFamily(scenario, tuple(tables))


def random_guessing_game(rng: random.Random):
    """Bipartite product guessing game: each party guesses a random function of
    the other's setting.  For this family the causal, deterministic-consistency,
    and canonical-process bounds provably coincide or nest, which makes it the
    right family for monotonicity property suites."""
    from causelab.games import Game

    sc = make_scenario(2, 2, 2, 2, 2)
    n_a = sc.n_settings
    u = [rng.randrange(2) for _ in range(2)]  # target for x1, as a function of a2
    v = [rng.randrange(2) for _ in range(2)]  # target for x2, as a function of a1
    payoff = [Fraction(0)] * (sc.n_outcomes * n_a)
    for a_flat, (a1, a2) in enumerate(iter_tuples(sc.settings)):
        for x_flat, (x1, x2) in enumerate(iter_tuples(sc.outcomes)):
            if x1 == u[a2] and x2 == v[a1]:
                payoff[x_flat * n_a + a_flat] = Fraction(1)
    return Game(sc, tuple(payoff), (Fraction(1, 4),) * n_a)
