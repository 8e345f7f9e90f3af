"""The contract of ``causelab._record.Record``, checked on every value type."""

from fractions import Fraction

import pytest

import causelab  # noqa: F401  (defines every record class)
from causelab._record import Record
from causelab.errors import InvalidScenario, InvalidTable
from causelab.games import Game, builtin_gyni
from causelab.lp import LpSolution, LpStatus
from causelab.scenario import Correlation, QuasiProcess, Scenario, make_scenario


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


RECORDS = sorted(_subclasses(Record), key=lambda cls: (cls.__module__, cls.__qualname__))

# Field names in declaration order; a Python whose class annotations are laid
# out differently would change what Record finds here.
FIELDS = {
    "ConsistencyVerdict": ("consistent", "violation", "violation_mass"),
    "FunctionVerdict": ("is_process_function", "violation", "fixed_point_count"),
    "OutputChoice": ("maps",),
    "ProcessFunctionMixture": ("components",),
    "QuasiProcessFunction": ("scenario", "maps"),
    "CausalBoundResult": ("value", "strategy"),
    "ClassLabel": ("qc", "pc", "dc"),
    "DcBoundResult": (
        "value", "witness_function", "witness_intervention", "functions_searched",
    ),
    "Game": ("scenario", "payoff", "setting_dist", "name", "known_pc_bound"),
    "PcBoundResult": ("value", "process"),
    "SetVerdict": ("status", "certificate"),
    "HullResult": ("inside", "weights", "functional", "separation"),
    "LinearProgram": ("objective", "maximize", "eq", "le"),
    "LpSolution": ("status", "value", "x", "farkas"),
    "InstrumentCJ": ("d_in", "d_out", "operators"),
    "InstrumentReport": ("valid", "min_eigenvalue", "marginal_deviation"),
    "NumericCorrelation": ("scenario", "table", "max_imag_residual"),
    "ProcessMatrix": ("scenario", "matrix"),
    "ProcessMatrixReport": (
        "valid", "hermiticity_deviation", "min_eigenvalue", "normalization_deviation",
    ),
    "Correlation": ("scenario", "table"),
    "CorrelationValidation": ("negative_entries", "mass_violations"),
    "DeterministicIntervention": ("output_maps", "outcome_maps"),
    "EvaluatedCorrelation": ("scenario", "table", "setting_mass"),
    "InterventionFamily": ("scenario", "tables"),
    "QuasiProcess": ("scenario", "table"),
    "Scenario": ("settings", "outcomes", "inputs", "outputs"),
}
EQ_BY_IDENTITY = {"InstrumentCJ", "ProcessMatrix"}


def bare(cls, values):
    """A record of ``cls`` holding ``values``, built without ``__init__``."""
    obj = object.__new__(cls)
    for name, value in zip(FIELDS[cls.__qualname__], values):
        object.__setattr__(obj, name, value)
    return obj


def sample(cls, tag=""):
    return tuple(f"{tag}{name}" for name in FIELDS[cls.__qualname__])


def test_every_record_class_is_pinned():
    assert sorted(cls.__qualname__ for cls in RECORDS) == sorted(FIELDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
class TestContract:
    def test_fields(self, cls):
        assert cls._fields == FIELDS[cls.__qualname__]

    def test_frozen(self, cls):
        obj = bare(cls, sample(cls))
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
            assert getattr(obj, name) == name
        with pytest.raises(AttributeError):
            obj.not_a_field = None

    def test_equality_and_hash(self, cls):
        a, b, other = bare(cls, sample(cls)), bare(cls, sample(cls)), bare(cls, sample(cls, "x"))
        assert a == a and hash(a) == hash(a)
        assert a != other
        if cls.__qualname__ in EQ_BY_IDENTITY:
            assert a != b and hash(a) == object.__hash__(a)
        else:
            assert a == b and hash(a) == hash(b) == hash(sample(cls))

    def test_other_class_with_equal_fields_is_unequal(self, cls):
        twin = next(c for c in RECORDS if c is not cls)
        a = bare(cls, sample(cls))
        b = object.__new__(twin)
        for name, value in zip(cls._fields, sample(cls)):
            object.__setattr__(b, name, value)
        assert a != b and b != a and not a == b

    def test_binding(self, cls, monkeypatch):
        monkeypatch.setattr(cls, "__post_init__", lambda self: None)
        names, values = cls._fields, sample(cls)
        by_position, by_keyword = cls(*values), cls(**dict(zip(names, values)))
        mixed = cls(*values[:1], **dict(zip(names[1:], values[1:])))
        for obj in (by_position, by_keyword, mixed):
            assert tuple(getattr(obj, name) for name in names) == values
        required = [name for name in names if name not in vars(cls)]
        defaulted = cls(*values[: len(required)])
        for name in names[len(required):]:
            assert getattr(defaulted, name) == vars(cls)[name]
        with pytest.raises(TypeError):
            cls(*values, "surplus")
        with pytest.raises(TypeError):
            cls(*values, not_a_field=1)
        with pytest.raises(TypeError):
            cls(*values, **{names[0]: values[0]})
        with pytest.raises(TypeError):
            cls(*values[: len(required) - 1])

    def test_repr(self, cls):
        obj = bare(cls, sample(cls))
        fields = ", ".join(f"{name}={name!r}" for name in cls._fields)
        assert repr(obj) == f"{cls.__qualname__}({fields})"


def test_post_init_errors_are_unchanged():
    with pytest.raises(InvalidScenario, match="at least one party is required"):
        Scenario((), (), (), ())
    with pytest.raises(InvalidScenario, match="outcomes has 1 entries for 2 parties"):
        Scenario((2, 2), (2,), (2, 2), (2, 2))
    gyni = builtin_gyni()
    with pytest.raises(InvalidTable, match="payoff has 1 entries"):
        Game(gyni.scenario, (1,), gyni.setting_dist)


def test_post_init_normalizes_fields():
    gyni = builtin_gyni()
    game = Game(gyni.scenario, list(gyni.payoff), ["1/4"] * 4)
    assert game.setting_dist == (Fraction(1, 4),) * 4 and type(game.payoff) is tuple


def test_reprs_are_pinned():
    assert repr(make_scenario(2, 2, 2, 2, 2)) == (
        "Scenario(settings=(2, 2), outcomes=(2, 2), inputs=(2, 2), outputs=(2, 2))"
    )
    assert repr(LpSolution(LpStatus.INFEASIBLE)) == (
        "LpSolution(status=<LpStatus.INFEASIBLE: 'infeasible'>, value=None, x=None, farkas=None)"
    )


def test_records_of_different_classes_with_equal_values_differ():
    sc = make_scenario(2, 2, 2, 2, 2)
    table = (Fraction(1, 4),) * 16
    assert Correlation(sc, table) != QuasiProcess(sc, table)
    assert Correlation(sc, table) == Correlation(sc, list(table))
