"""Exception hierarchy shared by all causelab modules."""


class CauselabError(Exception):
    """Base class for package-specific failures."""


class InvalidScenario(CauselabError):
    """Scenario construction with non-positive or inconsistent cardinalities."""


class InvalidTable(CauselabError):
    """A probability table violates non-negativity or normalization."""


class ScenarioMismatch(CauselabError):
    """Two objects that must share a scenario do not."""


class NotCanonicalizable(CauselabError):
    """Canonical interventions need outcome_card = input_card and output_card = setting_card."""


class SearchSpaceTooLarge(CauselabError):
    """A search, table or LP would exceed one of its caps; the CLI exits 3 on it."""


class InvalidMixture(CauselabError):
    """Mixture weights are negative, do not sum to one, or a component is not a process function."""


class NonDiagonal(CauselabError):
    """A process matrix expected to be diagonal in the product basis is not."""
