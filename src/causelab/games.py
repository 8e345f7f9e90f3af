"""
Games, scoring, and the hierarchy bound computations.

A game is a rational payoff over (outcomes, settings) plus a distribution on
joint settings; its score on a behaviour p(x|a) is the linear functional
sum payoff(x,a) * p(a) * p(x|a).  Three bounds are computed per game:

* ``causal_bound``: maximum over deterministic adaptive causal strategies.
  A first party answers as a function of its own setting; conditioned on that
  setting the remaining parties recurse, with later parties free to use every
  earlier setting.  Convexity makes deterministic strategies optimal.
* ``dc_bound``: maximum over process functions combined with deterministic
  local interventions.  Linearity in mixtures and multilinearity in each
  party's intervention make this the exact bound for correlations realizable
  by mixtures of process functions.
* ``pc_bound_canonical``: exact LP maximum over all logically consistent
  environments with interventions pinned to the canonical family, on the
  enlarged scenario whose inputs are the outcome alphabets and whose outputs
  are the setting alphabets.  This is an inner bound on the unrestricted
  probabilistically-consistent value (interventions are not optimized).

Everything on the classical side is exact rational arithmetic; the ``dc``
search uses integer-scaled payoffs inside numpy kernels, so its arithmetic is
exact as well.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from typing import Sequence

from ._lazy import np
from .consistency import (
    CANDIDATE_CAP,
    QuasiProcessFunction,
    _choice_input_to_output_tables,
    _lex_maps,
    _survey_cached,
    is_logically_consistent,
    output_choice_count,
)
from .errors import CapExceeded, InvalidTable, ScenarioMismatch, SearchSpaceTooLarge
from .lp import LinearProgram, LpStatus, check_hull_lp_size, hull_membership, lp_solve
from .scenario import (
    Correlation,
    DeterministicIntervention,
    QuasiProcess,
    Scenario,
    canonical_interventions,
    canonical_scenario,
    evaluate_correlation,
    flatten,
    make_scenario,
    universal_realization,
)

ZERO = Fraction(0)
ONE = Fraction(1)

CAUSAL_STATE_CAP = 500_000
DC_WORK_CAP = 20_000_000
DC_GRID_CAP = 1 << 22
DC_HGRID_CAP = 1 << 20
# Stacked-table or grid cells one step of the DC search gathers at once.
DC_BATCH_CELLS = 1 << 18
# Slice-score cells one _hopt_values step holds; small steps stay in cache.
DC_SCORE_CELLS = 1 << 14
# Scoring steps (distinct rows x other parties' outcome-map grid x the
# distinguished party's slices x joint settings) in one dc_bound; the scoring
# kernel runs about 10^8 steps per second on one core.
DC_SCORE_WORK_CAP = 2 * 10**9
# Tableau coefficients (equality rows x (variables + artificials + rhs)) of the
# canonical-PC LP; ternary GYNI's 729 x 811 (about 5.9e5) solves in about 10 s.
PC_LP_CAP = 10**6


@dataclass(frozen=True)
class Game:
    """Payoff table over (x, a) and a distribution over joint settings.

    ``known_pc_bound`` optionally records an externally established upper
    bound on the unrestricted probabilistically-consistent value; the built-in
    games leave it unset, and :func:`classify` only uses it when present.
    """

    scenario: Scenario
    payoff: tuple[Fraction, ...]  # payoff[x_flat * n_settings + a_flat]
    setting_dist: tuple[Fraction, ...]
    name: str = ""
    known_pc_bound: Fraction | None = None

    def __post_init__(self) -> None:
        sc = self.scenario
        object.__setattr__(self, "payoff", tuple(Fraction(v) for v in self.payoff))
        object.__setattr__(self, "setting_dist", tuple(Fraction(v) for v in self.setting_dist))
        if len(self.payoff) != sc.n_outcomes * sc.n_settings:
            raise InvalidTable(
                f"payoff has {len(self.payoff)} entries, expected {sc.n_outcomes * sc.n_settings}"
            )
        if len(self.setting_dist) != sc.n_settings:
            raise InvalidTable("setting distribution length mismatch")
        if any(w < 0 for w in self.setting_dist):
            raise InvalidTable("setting distribution has a negative weight")
        if sum(self.setting_dist) != 1:
            raise InvalidTable("setting distribution must sum to 1")


def score(game: Game, corr) -> Fraction | float:
    """Linear score sum payoff * p(a) * p(x|a); exact on rational tables.

    Only the setting and outcome alphabets must match; input/output system
    sizes are irrelevant to scoring, which lets one game score both classical
    and process-matrix behaviours.  Float-valued tables give a float score.
    """
    sc = game.scenario
    other = corr.scenario
    if sc.settings != other.settings or sc.outcomes != other.outcomes:
        raise ScenarioMismatch("game and correlation alphabets differ")
    n_a = sc.n_settings
    total = ZERO
    for a_flat in range(n_a):
        weight = game.setting_dist[a_flat]
        if weight == 0:
            continue
        for x_flat in range(sc.n_outcomes):
            pay = game.payoff[x_flat * n_a + a_flat]
            if pay == 0:
                continue
            total = total + pay * weight * corr.table[x_flat * n_a + a_flat]
    return total


# ---------------------------------------------------------------------------
# built-in games and processes
# ---------------------------------------------------------------------------


def _uniform(n: int) -> tuple[Fraction, ...]:
    return (Fraction(1, n),) * n


def builtin_gynin() -> Game:
    """Tripartite guess-your-neighbour's-input-or-not game, uniform settings.

    Win when (x1, x2, x3) equals (a3, a1, a2) or its bitwise complement.
    """
    sc = make_scenario(3, 2, 2, 2, 2)
    n_a = sc.n_settings
    payoff = [ZERO] * (sc.n_outcomes * n_a)
    for a_flat, a in enumerate(sc.setting_tuples()):
        straight = (a[2], a[0], a[1])
        flipped = tuple(1 - v for v in straight)
        for x in (straight, flipped):
            payoff[flatten(x, sc.outcomes) * n_a + a_flat] = ONE
    return Game(sc, tuple(payoff), _uniform(n_a), name="gynin")


def builtin_gyni() -> Game:
    """Bipartite guess-your-neighbour's-input game: win iff x1 = a2 and x2 = a1."""
    sc = make_scenario(2, 2, 2, 2, 2)
    n_a = sc.n_settings
    payoff = [ZERO] * (sc.n_outcomes * n_a)
    for a_flat, a in enumerate(sc.setting_tuples()):
        payoff[flatten((a[1], a[0]), sc.outcomes) * n_a + a_flat] = ONE
    return Game(sc, tuple(payoff), _uniform(n_a), name="gyni")


def builtin_ocb() -> Game:
    """The two-party direction game with qubit systems in mind.

    Party 2's setting packs two bits, s = 2*b' + b.  When b' = 0 party 2 must
    guess party 1's setting (x2 = a1); when b' = 1 party 1 must guess b
    (x1 = b).  Settings are uniform.
    """
    sc = Scenario(settings=(2, 4), outcomes=(2, 2), inputs=(2, 2), outputs=(2, 4))
    n_a = sc.n_settings
    payoff = [ZERO] * (sc.n_outcomes * n_a)
    for a_flat, (a1, s) in enumerate(sc.setting_tuples()):
        b, b_prime = s % 2, s // 2
        for x_flat, (x1, x2) in enumerate(sc.outcome_tuples()):
            win = (x2 == a1) if b_prime == 0 else (x1 == b)
            if win:
                payoff[x_flat * n_a + a_flat] = ONE
    return Game(sc, tuple(payoff), _uniform(n_a), name="ocb")


def builtin_chsh() -> Game:
    """CHSH on the nonsignaling scenario with discarded (trivial) systems."""
    sc = make_scenario(2, 2, 2, 1, 1)
    n_a = sc.n_settings
    payoff = [ZERO] * (sc.n_outcomes * n_a)
    for a_flat, (a1, a2) in enumerate(sc.setting_tuples()):
        for x_flat, (x1, x2) in enumerate(sc.outcome_tuples()):
            if (x1 ^ x2) == (a1 & a2):
                payoff[x_flat * n_a + a_flat] = ONE
    return Game(sc, tuple(payoff), _uniform(n_a), name="chsh")


BUILTIN_GAMES = {
    "gynin": builtin_gynin,
    "gyni": builtin_gyni,
    "ocb": builtin_ocb,
    "chsh": builtin_chsh,
}


def builtin_game(name: str) -> Game:
    try:
        return BUILTIN_GAMES[name]()
    except KeyError:
        raise KeyError(f"unknown built-in game {name!r}; choose from {sorted(BUILTIN_GAMES)}")


def bfw_process() -> QuasiProcess:
    """The tripartite cyclic-copy/anticopy mixture, weight 1/2 each.

    Party k receives its cyclic predecessor's output, or all parties receive
    the complements; either branch alone is inconsistent, their even mixture
    is a classical process and wins the tripartite game perfectly under the
    canonical interventions.
    """
    sc = make_scenario(3, 2, 2, 2, 2)
    half = Fraction(1, 2)
    table = [ZERO] * (sc.n_inputs * sc.n_outputs)
    for o_flat, o in enumerate(sc.output_tuples()):
        straight = (o[2], o[0], o[1])
        flipped = tuple(1 - v for v in straight)
        table[flatten(straight, sc.inputs) * sc.n_outputs + o_flat] += half
        table[flatten(flipped, sc.inputs) * sc.n_outputs + o_flat] += half
    return QuasiProcess(sc, tuple(table))


def gynin_perfect_correlation() -> Correlation:
    """The behaviour that wins the tripartite game with certainty."""
    report = evaluate_correlation(bfw_process(), canonical_interventions(bfw_process().scenario))
    return report.to_correlation()


def gyni_perfect_correlation() -> Correlation:
    """Deterministic x1 = a2, x2 = a1 on the bipartite scenario."""
    sc = make_scenario(2, 2, 2, 2, 2)
    n_a = sc.n_settings
    table = [ZERO] * (sc.n_outcomes * n_a)
    for a_flat, a in enumerate(sc.setting_tuples()):
        table[flatten((a[1], a[0]), sc.outcomes) * n_a + a_flat] = ONE
    return Correlation(sc, tuple(table))


def pr_box_correlation() -> Correlation:
    """The nonsignaling box with x1 xor x2 = a1 and a2, uniform marginals."""
    sc = make_scenario(2, 2, 2, 1, 1)
    n_a = sc.n_settings
    half = Fraction(1, 2)
    table = [ZERO] * (sc.n_outcomes * n_a)
    for a_flat, (a1, a2) in enumerate(sc.setting_tuples()):
        for x_flat, (x1, x2) in enumerate(sc.outcome_tuples()):
            if (x1 ^ x2) == (a1 & a2):
                table[x_flat * n_a + a_flat] = half
    return Correlation(sc, tuple(table))


# ---------------------------------------------------------------------------
# causal bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CausalBoundResult:
    value: Fraction
    strategy: dict


def causal_bound(game: Game) -> CausalBoundResult:
    """Maximum score over deterministic adaptive definite-order strategies.

    The recursion picks a party to act next; its outcome may depend on its own
    setting and on all settings revealed so far, and the identity of the next
    party may depend on those settings as well (dynamic order).  The memo
    holds at most ``CAUSAL_STATE_CAP`` states.
    """
    sc = game.scenario
    n = sc.n_parties
    n_a = sc.n_settings
    unset = -1
    # state -> (value, acting party, outcome chosen for each of its settings)
    memo: dict[tuple, tuple[Fraction, int, tuple[int, ...]]] = {}

    def completions_weight_payoff(partial_a: tuple[int, ...], partial_x: tuple[int, ...]) -> Fraction:
        a_flat = flatten(partial_a, sc.settings)
        x_flat = flatten(partial_x, sc.outcomes)
        return game.setting_dist[a_flat] * game.payoff[x_flat * n_a + a_flat]

    def best(mask: int, partial_a: tuple[int, ...], partial_x: tuple[int, ...]) -> Fraction:
        if mask == 0:
            return completions_weight_payoff(partial_a, partial_x)
        key = (mask, partial_a, partial_x)
        cached = memo.get(key)
        if cached is not None:
            return cached[0]
        if len(memo) > CAUSAL_STATE_CAP:
            raise SearchSpaceTooLarge(f"causal recursion exceeds {CAUSAL_STATE_CAP} states")
        winner: tuple[Fraction, int, tuple[int, ...]] | None = None
        for k in range(n):
            if not mask & (1 << k):
                continue
            total = ZERO
            chosen = []
            for a_k in range(sc.settings[k]):
                next_a = partial_a[:k] + (a_k,) + partial_a[k + 1 :]
                values = [
                    best(mask & ~(1 << k), next_a, partial_x[:k] + (x_k,) + partial_x[k + 1 :])
                    for x_k in range(sc.outcomes[k])
                ]
                x_k = values.index(max(values))  # the first best outcome
                total += values[x_k]
                chosen.append(x_k)
            if winner is None or total > winner[0]:
                winner = (total, k, tuple(chosen))
        memo[key] = winner
        return winner[0]

    def strategy(mask: int, partial_a: tuple[int, ...], partial_x: tuple[int, ...]) -> dict | None:
        if mask == 0:
            return None
        _, k, chosen = memo[(mask, partial_a, partial_x)]
        branches = []
        for a_k, x_k in enumerate(chosen):
            next_a = partial_a[:k] + (a_k,) + partial_a[k + 1 :]
            next_x = partial_x[:k] + (x_k,) + partial_x[k + 1 :]
            branches.append(
                {"setting": a_k, "outcome": x_k, "then": strategy(mask & ~(1 << k), next_a, next_x)}
            )
        return {"party": k, "branches": branches}

    start_a = (unset,) * n
    start_x = (unset,) * n

    # flatten() rejects the unset marker, so leaves only see full assignments.
    full_mask = (1 << n) - 1
    value = best(full_mask, start_a, start_x)
    return CausalBoundResult(value, strategy(full_mask, start_a, start_x))


# ---------------------------------------------------------------------------
# deterministic-consistency (process-function) bound
# ---------------------------------------------------------------------------


def _strides(cards: Sequence[int]) -> list[int]:
    out = [1] * len(cards)
    for k in range(len(cards) - 2, -1, -1):
        out[k] = out[k + 1] * cards[k + 1]
    return out


def _scaled_weighted_payoff(game: Game) -> tuple[np.ndarray, int]:
    """Integer matrix G[a, x] = payoff * p(a) * scale with the common denominator."""
    sc = game.scenario
    n_a, n_x = sc.n_settings, sc.n_outcomes
    weighted = []
    denom = 1
    for a_flat in range(n_a):
        w = game.setting_dist[a_flat]
        for x_flat in range(n_x):
            v = game.payoff[x_flat * n_a + a_flat] * w
            weighted.append(v)
            denom = lcm(denom, v.denominator)
    ints = [int(v * denom) for v in weighted]
    peak = max((abs(v) for v in ints), default=0)
    if peak * max(n_a, 1) >= 2**62:
        raise SearchSpaceTooLarge("scaled payoff would overflow 64-bit accumulation")
    return np.array(ints, dtype=np.int64).reshape(n_a, n_x), denom


def _digit_words(digits: np.ndarray, base: int) -> np.ndarray:
    """Pack the last axis of digits in range(base) into exact int64 key words.

    A word holds at most as many digits as fit in 62 bits, so equal words
    mean equal digits: one word when the whole axis fits, more when one
    would overflow.  Returns shape ``digits.shape[:-1] + (n_words,)``.
    """
    bits = max(1, (base - 1).bit_length())
    length = digits.shape[-1]
    n_words = -(-length // (62 // bits))
    per_word = -(-length // n_words)  # at most 62 // bits, spread evenly
    places = np.left_shift(1, bits * np.arange(per_word, dtype=np.int64))
    words = [
        digits[..., start : start + per_word] @ places[: min(per_word, length - start)]
        for start in range(0, length, per_word)
    ]
    return np.stack(words, axis=-1)


def _unique_rows(keys: np.ndarray):
    """``np.unique`` over the rows of a key-word array: (unique rows, first index, inverse)."""
    if keys.shape[1] == 1:
        unique, first, inverse = np.unique(keys[:, 0], return_index=True, return_inverse=True)
        return unique[:, None], first, inverse
    unique, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    return unique, first, inverse.reshape(-1)


@dataclass(frozen=True)
class DcBoundResult:
    value: Fraction
    witness_function: QuasiProcessFunction
    witness_intervention: DeterministicIntervention
    functions_searched: int


class _DcSearch:
    """The DC search's tables for one scenario and its batched fixed-point-row kernel.

    Built once per scenario (``_dc_search``) and shared by the process-function
    bound and the vertex collection.  ``batches`` walks the reduced survey in
    chunks of functions: for every function of a chunk at once it finds each
    party's output-choice classes, groups the functions by their class-count
    signature, and gathers each group's fixed-point rows with
    ``function_rows`` through one index array per signature.
    """

    def __init__(self, scenario: Scenario, candidate_cap: int):
        self.sc = scenario
        self.survey = _survey_cached(scenario, True, candidate_cap)
        self.n = scenario.n_parties
        self.setting_tuples = list(scenario.setting_tuples())
        self.settings_of = np.array(self.setting_tuples, dtype=np.int64).reshape(-1, self.n)
        self.n_a = scenario.n_settings
        # Output choices per party; outcome maps over (setting, input) cells
        # a * d_I + i (hmap) and over inputs alone (smap, one setting's slice).
        # A party's outcome-map table is built when a search first reads it,
        # so the caps on the counts H and S run before any table exists.
        self.choices = [_lex_maps(scenario.inputs[k], scenario.outputs[k]) for k in range(self.n)]
        self.F = [len(c) for c in self.choices]
        self.fp_strides = _strides(self.F)
        self.in_strides = _strides(scenario.inputs)
        self.x_strides = _strides(scenario.outcomes)
        self.ncells = [scenario.settings[k] * scenario.inputs[k] for k in range(self.n)]
        self.hmap = functools.cache(lambda k: _lex_maps(self.ncells[k], scenario.outcomes[k]))
        self.smap = functools.cache(lambda k: _lex_maps(scenario.inputs[k], scenario.outcomes[k]))
        self.H = [d_x**cells for d_x, cells in zip(scenario.outcomes, self.ncells)]
        self.S = [d_x**d_i for d_x, d_i in zip(scenario.outcomes, scenario.inputs)]
        self._layouts: dict[tuple[int, ...], tuple] = {}

    def first_choices(self, fps: np.ndarray) -> list[np.ndarray]:
        """Per party k, the (m, F_k) mask of choices that come first in their class.

        ``fps`` stacks m fixed-point tables (m, F_1, ..., F_n).  Two choices of
        party k are in one class when fixing either leaves the same fixed
        point at every choice of the other parties; each class is represented
        by its first choice.
        """
        m = fps.shape[0]
        masks = []
        for k in range(self.n):
            slices = np.moveaxis(fps, k + 1, 1).reshape(m, self.F[k], -1)
            keys = _digit_words(slices, self.sc.n_inputs)
            same = (keys[:, :, None] == keys[:, None]).all(axis=3)
            masks.append(same.argmax(axis=2) == np.arange(self.F[k]))
        return masks

    def _layout(self, counts: tuple[int, ...]):
        """Class grid of one class-count signature: (axes_cards, axis_offset, index).

        The grid has one axis per (party k, setting a_k) with ``counts[k]``
        classes; ``index[g, a_flat]`` is the flat position, in the
        (c_1, ..., c_n) class table, of the fixed point read at joint setting
        a_flat on grid point g.  Built once per signature.
        """
        layout = self._layouts.get(counts)
        if layout is None:
            settings = self.sc.settings
            axes_cards = [counts[k] for k in range(self.n) for _ in range(settings[k])]
            n_grid = prod(axes_cards)
            if n_grid > DC_GRID_CAP:
                raise SearchSpaceTooLarge(
                    f"{n_grid} intervention-output grids exceed cap {DC_GRID_CAP}"
                )
            axis_offset = [sum(settings[:k]) for k in range(self.n)]
            digits = np.indices(axes_cards, dtype=np.int64).reshape(len(axes_cards), n_grid)
            index = sum(
                digits[axis_offset[k] + self.settings_of[:, k]] * stride
                for k, stride in enumerate(_strides(counts))
            )
            layout = (axes_cards, axis_offset, np.ascontiguousarray(index.T))
            self._layouts[counts] = layout
        return layout

    def function_rows(self, fps: np.ndarray, reps: list[np.ndarray]):
        """Deduplicated fixed-point rows J(a) of functions sharing one class-count signature.

        ``fps`` stacks the functions' fixed-point tables (m, F_1, ..., F_n) and
        ``reps[k]`` (m, c_k) holds party k's first choice of every class,
        ascending.  Returns (rows, g_first, (reps, axes_cards, axis_offset)):
        each function's distinct rows in order of the first grid point
        realizing them, functions in the given order.  The grid's first axis
        is the function and the others are the class axes, so g_first[r] is a
        flat index into the ``axes_cards`` grid and ``axis_offset[k] + a``
        is party k's axis at setting a.
        """
        m = fps.shape[0]
        counts = tuple(r.shape[1] for r in reps)
        axes_cards, axis_offset, index = self._layout(counts)
        # class table of function f: fps[f, reps[0][f, c_0], ..., reps[n-1][f, c_n-1]]
        cell = np.zeros((m,) + counts, dtype=np.int64)
        for k in range(self.n):
            shape = [m] + [1] * self.n
            shape[k + 1] = counts[k]
            cell += reps[k].reshape(shape) * self.fp_strides[k]
        table = np.take_along_axis(fps.reshape(m, -1), cell.reshape(m, -1), axis=1)
        J = table[:, index].reshape(-1, self.n_a)
        ids = _unique_rows(_digit_words(J, self.sc.n_inputs))[2]
        owner = np.arange(J.shape[0]) // index.shape[0]
        _, first = np.unique(owner * J.shape[0] + ids, return_index=True)
        g_first = np.sort(first)
        return J[g_first], g_first, (reps, [m, *axes_cards], [1 + off for off in axis_offset])

    def batches(self):
        """Every survey function's fixed-point rows, one bounded chunk of functions at a time.

        Yields (rows, sites) per chunk: the rows of all its functions, and per
        ``function_rows`` call, in row order, (survey indices, g_first, class
        info).  There is one call per class-count signature, split so that
        none gathers more than ``DC_BATCH_CELLS`` grid cells.
        """
        step = max(1, DC_BATCH_CELLS // max(prod(self.F), max(self.F) ** 2))
        for lo in range(0, len(self.survey), step):
            yield self._chunk_rows(lo, lo + step)

    def _chunk_rows(self, lo: int, hi: int):
        # A call of its own, so each function_rows result is freed once concatenated.
        fps = np.array([fp for _, fp in self.survey[lo:hi]], dtype=np.int64).reshape(-1, *self.F)
        firsts = self.first_choices(fps)
        counts = np.stack([mask.sum(axis=1) for mask in firsts], axis=1)
        signatures, group_of = np.unique(counts, axis=0, return_inverse=True)
        group_of = group_of.reshape(-1)
        parts, sites = [], []
        for g, signature in enumerate(signatures.tolist()):
            members = np.flatnonzero(group_of == g)
            per = max(1, DC_BATCH_CELLS // self._layout(tuple(signature))[2].size)
            for start in range(0, len(members), per):
                part = members[start : start + per]
                reps = [np.nonzero(mask[part])[1].reshape(len(part), -1) for mask in firsts]
                rows, g_first, class_info = self.function_rows(fps[part], reps)
                parts.append(rows)
                sites.append((lo + part, g_first, class_info))
        return np.concatenate(parts), sites


_dc_search = lru_cache(maxsize=16)(_DcSearch)


def _slice_scores(
    search: _DcSearch,
    icomp: list[np.ndarray],
    G: np.ndarray,
    last: int,
    others: list[int],
    a_last: int,
):
    """Per slice s of the distinguished party at setting a_last, the scores (rows, *grid).

    ``icomp[k]`` holds party k's input component of every row at each a_flat;
    the grid runs over the other parties' full outcome maps.
    """
    sc = search.sc
    nr = icomp[0].shape[0]
    grid_shape = tuple(search.H[k] for k in others)
    relevant = [a_flat for a_flat, a in enumerate(search.setting_tuples) if a[last] == a_last]
    for s in range(search.S[last]):
        acc = np.zeros((nr,) + grid_shape, dtype=np.int64)
        for a_flat in relevant:
            a = search.setting_tuples[a_flat]
            xflat = (
                search.smap(last)[s, icomp[last][:, a_flat]] * search.x_strides[last]
            ).reshape((nr,) + (1,) * len(others))
            for pos, k in enumerate(others):
                cell = a[k] * sc.inputs[k] + icomp[k][:, a_flat]
                xk = search.hmap(k)[:, cell].T * search.x_strides[k]
                shape = (nr,) + (1,) * pos + (search.H[k],) + (1,) * (len(others) - pos - 1)
                xflat = xflat + xk.reshape(shape)
            acc += G[a_flat][xflat]
        yield acc


def _input_components(search: _DcSearch, rows: np.ndarray) -> list[np.ndarray]:
    return [(rows // search.in_strides[k]) % search.sc.inputs[k] for k in range(search.n)]


def _hopt_values(
    search: _DcSearch, rows: np.ndarray, G: np.ndarray, last: int, others: list[int]
) -> np.ndarray:
    """Best intervention-outcome value per fixed-point row, integer-scaled.

    Outcome maps decompose per party into independent per-setting slices for
    one distinguished party, so the scan is exhaustive over the remaining
    parties' full maps and exact.
    """
    n_rows = rows.shape[0]
    grid_size = prod(search.H[k] for k in others)
    icomp = _input_components(search, rows)
    chunk = max(1, DC_SCORE_CELLS // max(1, grid_size))
    values = np.empty(n_rows, dtype=np.int64)
    for start in range(0, n_rows, chunk):
        part = [c[start : start + chunk] for c in icomp]
        total = sum(
            functools.reduce(np.maximum, _slice_scores(search, part, G, last, others, a_last))
            for a_last in range(search.sc.settings[last])
        )
        values[start : start + chunk] = total.reshape(len(part[0]), -1).max(axis=1)
    return values


def _hopt_detail(
    search: _DcSearch, row: np.ndarray, G: np.ndarray, last: int, others: list[int]
) -> tuple[int, dict[int, int], list[int]]:
    """The optimum for one row with its first-maximizing outcome maps.

    Returns the value, the other parties' outcome-map indices at the first
    maximizing grid point, and the distinguished party's first maximizing
    slice per setting there.
    """
    icomp = _input_components(search, row.reshape(1, -1))
    total = 0
    first_slices = []
    for a_last in range(search.sc.settings[last]):
        best = first = None
        for s, acc in enumerate(_slice_scores(search, icomp, G, last, others, a_last)):
            if best is None:
                best, first = acc, np.zeros_like(acc)
            else:
                first[acc > best] = s
                best = np.maximum(best, acc)
        total = total + best
        first_slices.append(first.reshape(-1))
    flat = int(np.argmax(total))
    grid_idx = np.unravel_index(flat, tuple(search.H[k] for k in others)) if others else ()
    other_maps = {k: int(grid_idx[pos]) for pos, k in enumerate(others)}
    return int(total.reshape(-1)[flat]), other_maps, [int(f[flat]) for f in first_slices]


def _decode_intervention(
    search: _DcSearch,
    grid_flat: int,
    class_info,
    other_maps: dict[int, int],
    last: int,
    last_slices: list[int],
) -> DeterministicIntervention:
    sc = search.sc
    reps, axes_cards, axis_offset = class_info
    digits = np.unravel_index(grid_flat, axes_cards)
    function = digits[0]

    output_maps = []
    outcome_maps = []
    for k in range(search.n):
        per_setting_out = []
        per_setting_x = []
        for a in range(sc.settings[k]):
            rep = reps[k][function, digits[axis_offset[k] + a]]
            per_setting_out.append(tuple(search.choices[k][rep].tolist()))
            if k == last:
                x_map = search.smap(k)[last_slices[a]]
            else:
                x_map = search.hmap(k)[other_maps[k], a * sc.inputs[k] : (a + 1) * sc.inputs[k]]
            per_setting_x.append(tuple(x_map.tolist()))
        output_maps.append(tuple(per_setting_out))
        outcome_maps.append(tuple(per_setting_x))
    return DeterministicIntervention(tuple(output_maps), tuple(outcome_maps))


@lru_cache(maxsize=16)
def dc_bound(game: Game, candidate_cap: int = CANDIDATE_CAP) -> DcBoundResult:
    """Exact maximum of the score over mixtures of process functions.

    Every process function of the reduced survey contributes its fixed-point
    rows (the unique fixed point at every joint setting, for every class of
    deterministic output choices); ``_DcSearch.batches`` gathers them for a
    whole chunk of functions at once.  Rows repeated within a chunk, or seen
    in an earlier one, are scored once: one ``_hopt_values`` call per chunk
    exhausts the outcome maps of the distinct new rows, with one party's maps
    optimized per setting.  The witness is the first optimizer in (survey
    order, row order).  Results are cached per game (all arguments are
    immutable), since classification and the demo revisit the same bounds.
    The grid caps are the module constants ``DC_GRID_CAP`` and
    ``DC_HGRID_CAP``; ``DC_BATCH_CELLS`` bounds what one step gathers.  Before
    a chunk is scored, the scoring work of every distinct row so far is
    checked against ``DC_SCORE_WORK_CAP``.
    """
    sc = game.scenario
    search = _dc_search(sc, candidate_cap)
    if not search.survey:
        raise AssertionError("constant maps always survive; empty survey is impossible")
    G, scale = _scaled_weighted_payoff(game)
    last = max(range(search.n), key=lambda k: (search.H[k], k))
    others = [k for k in range(search.n) if k != last]
    grid = prod(search.H[k] for k in others)
    if grid > DC_HGRID_CAP:
        raise SearchSpaceTooLarge("outcome-map grid exceeds its cap")
    scored = 0  # distinct rows scored or about to be

    # distinct rows scored so far, as sorted key words, and their values
    known = _digit_words(np.zeros((0, search.n_a), dtype=np.int64), sc.n_inputs)
    known_values = np.zeros(0, dtype=np.int64)
    best = None  # (value, survey index, fixed-point row, its first grid index, class info)
    for rows, sites in search.batches():
        merged, first, inverse = _unique_rows(
            np.concatenate([known, _digit_words(rows, sc.n_inputs)])
        )
        values = np.empty(len(merged), dtype=np.int64)
        values[inverse[: len(known)]] = known_values
        fresh = np.flatnonzero(first >= len(known))
        scored += len(fresh)
        work = scored * grid * search.S[last] * search.n_a
        if work > DC_SCORE_WORK_CAP:
            raise SearchSpaceTooLarge(
                f"DC scoring needs at least {work} steps ({scored} distinct fixed-point rows x "
                f"{grid} outcome maps x {search.S[last]} slices x {search.n_a} settings), "
                f"above the work cap {DC_SCORE_WORK_CAP}"
            )
        if len(fresh):
            values[fresh] = _hopt_values(search, rows[first[fresh] - len(known)], G, last, others)
        row_values = values[inverse[len(known) :]]
        known, known_values = merged, values
        end = 0
        for members, g_first, class_info in sites:
            start, end = end, end + len(g_first)
            r = int(np.argmax(row_values[start:end]))
            value = int(row_values[start + r])
            index = int(members[g_first[r] // prod(class_info[1][1:])])
            if best is None or value > best[0] or (value == best[0] and index < best[1]):
                best = (value, index, rows[start + r], int(g_first[r]), class_info)

    assert best is not None
    best_value, index, row, grid_flat, class_info = best
    detail_value, other_maps, last_slices = _hopt_detail(search, row, G, last, others)
    if detail_value != best_value:  # pragma: no cover - batch and detail share the formulas
        raise AssertionError("witness reconstruction disagrees with the search optimum")
    intervention = _decode_intervention(
        search, grid_flat, class_info, other_maps, last, last_slices
    )
    witness = QuasiProcessFunction(sc, search.survey[index][0])
    return DcBoundResult(
        value=Fraction(best_value, scale),
        witness_function=witness,
        witness_intervention=intervention,
        functions_searched=len(search.survey),
    )


# ---------------------------------------------------------------------------
# probabilistically-consistent bound (canonical interventions)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PcBoundResult:
    value: Fraction
    process: QuasiProcess


@lru_cache(maxsize=16)
def pc_bound_canonical(game: Game, choice_cap: int = CANDIDATE_CAP) -> PcBoundResult:
    """LP maximum over logically consistent environments, canonical interventions.

    Works on the enlarged scenario (inputs = outcome alphabets, outputs =
    setting alphabets) so that the canonical family always applies; there the
    observed behaviour is the environment table itself, p(x|a) = p(i=x|o=a).
    The feasible polytope is cut out by non-negativity, per-output
    normalization, and unit mass at every deterministic output choice; the
    result is an inner bound on the unrestricted value since interventions
    stay fixed.  The LP's tableau size is checked against ``PC_LP_CAP``
    before any row is built.
    """
    sc = canonical_scenario(game.scenario)
    n_i, n_o = sc.n_inputs, sc.n_outputs
    n_vars = n_i * n_o
    n_eq = output_choice_count(sc)
    size = n_eq * (n_vars + n_eq + 1)
    if size > PC_LP_CAP:
        raise SearchSpaceTooLarge(
            f"the canonical PC LP has {size} tableau coefficients ({n_eq} equality rows x "
            f"({n_vars} variables + {n_eq} artificials + 1)), above the LP size cap {PC_LP_CAP}"
        )
    objective = [ZERO] * n_vars
    for i_flat in range(n_i):
        for o_flat in range(n_o):
            objective[i_flat * n_o + o_flat] = (
                game.setting_dist[o_flat] * game.payoff[i_flat * n_o + o_flat]
            )
    eq_rows = []
    for row in _choice_input_to_output_tables(sc, choice_cap) + np.arange(n_i) * n_o:
        coeffs = [ZERO] * n_vars
        for cell in row.tolist():
            coeffs[cell] = ONE
        eq_rows.append((tuple(coeffs), ONE))
    solution = lp_solve(
        LinearProgram(objective=tuple(objective), maximize=True, eq=tuple(eq_rows))
    )
    if solution.status is not LpStatus.OPTIMAL:  # pragma: no cover - polytope is nonempty, bounded
        raise AssertionError(f"canonical process polytope LP returned {solution.status}")
    return PcBoundResult(solution.value, QuasiProcess(sc, solution.x))


# ---------------------------------------------------------------------------
# classification against the hierarchy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SetVerdict:
    status: str  # "in" | "out" | "unknown"
    certificate: dict


@dataclass(frozen=True)
class ClassLabel:
    qc: SetVerdict
    pc: SetVerdict
    dc: SetVerdict


@lru_cache(maxsize=16)
def _deterministic_correlation_vertices(
    scenario: Scenario, candidate_cap: int
) -> tuple[tuple[int, ...], ...]:
    """Deduplicated deterministic behaviours from (process function, intervention).

    These are the extreme points spanning the deterministic-consistency hull,
    as 0/1 int rows in ascending order.  The fixed-point rows of every
    function are deduplicated across the survey first; a behaviour is then
    gathered as its joint outcome at every joint setting, one per (distinct
    row, outcome-map family), from the search's own outcome-map tables.  The
    gather stops with :class:`CapExceeded` as soon as the distinct behaviours
    are too many for the hull LP (``lp.check_hull_lp_size``).
    """
    search = _dc_search(scenario, candidate_cap)
    n_a = scenario.n_settings
    raw_grid = prod(
        len(search.choices[k]) ** scenario.settings[k] for k in range(search.n)
    )
    h_grid = prod(search.H)
    estimate = len(search.survey) * raw_grid * (h_grid + 1) * n_a
    if estimate > DC_WORK_CAP:
        raise CapExceeded(
            f"vertex enumeration needs about {estimate} steps, above the work cap {DC_WORK_CAP}"
        )

    rows = np.zeros((0, n_a), dtype=np.int64)  # distinct fixed-point rows of every function
    for chunk_rows, _ in search.batches():
        rows = np.concatenate([rows, chunk_rows])
        rows = rows[_unique_rows(_digit_words(rows, scenario.n_inputs))[1]]
    behaviours = np.empty((0, n_a), dtype=np.int64)
    step = max(1, DC_BATCH_CELLS // (h_grid * n_a))
    for start in range(0, len(rows), step):
        icomp = _input_components(search, rows[start : start + step])
        # joint[r, h_1, ..., h_n, a]: joint outcome of row r under outcome maps h at a
        joint = 0
        for k in range(search.n):
            cell = search.settings_of[:, k] * scenario.inputs[k] + icomp[k]
            x_k = np.moveaxis(search.hmap(k)[:, cell], 0, 1) * search.x_strides[k]
            shape = [1] * search.n
            shape[k] = search.H[k]
            joint = joint + x_k.reshape((x_k.shape[0], *shape, n_a))
        behaviours = np.concatenate([behaviours, joint.reshape(-1, n_a)])
        behaviours = behaviours[_unique_rows(_digit_words(behaviours, scenario.n_outcomes))[1]]
        check_hull_lp_size(len(behaviours), scenario.n_outcomes * n_a)
    onehot = np.zeros((len(behaviours), scenario.n_outcomes * n_a), dtype=np.int8)
    onehot[np.arange(len(behaviours))[:, None], behaviours * n_a + np.arange(n_a)] = 1
    # ascending rows: np.lexsort's primary key is its last
    return tuple(map(tuple, onehot[np.lexsort(onehot.T[::-1])].tolist()))


def classify(
    corr: Correlation,
    witnesses: Sequence[Game] = (),
    candidate_cap: int = CANDIDATE_CAP,
) -> ClassLabel:
    """Three-valued membership report against the correlation hierarchy.

    * quasi-consistent: always "in"; the certificate replays exactly.
    * probabilistically consistent: "in" when the behaviour, read as an
      environment on the enlarged scenario under canonical interventions, is
      logically consistent.  That test is sufficient, not necessary, so its
      failure alone never yields "out"; only a witness game carrying a known
      unrestricted bound can.
    * deterministic-consistency: exact hull membership over the deterministic
      vertex set when the caps allow, otherwise witness mode (reported, never
      silent).  Membership is in the convex hull of deterministic behaviours,
      the polytope the bound computations optimize over.  "in" carries convex
      weights over the 0/1 vertex rows; "out" carries the hull LP's integer
      Farkas functional and its separation from the vertices.  The vertex
      work estimate is capped by the module constant ``DC_WORK_CAP``, and the
      vertex gather stops once the hull LP would exceed ``lp.HULL_LP_CAP``
      coefficients.
    """
    for witness in witnesses:
        if (
            witness.scenario.settings != corr.scenario.settings
            or witness.scenario.outcomes != corr.scenario.outcomes
        ):
            raise ScenarioMismatch(f"witness game {witness.name!r} has different alphabets")

    process, family = universal_realization(corr)
    replay = evaluate_correlation(process, family)
    if replay.table != corr.table:  # pragma: no cover - the construction is exact
        raise AssertionError("universal realization failed to replay")
    qc = SetVerdict("in", {"process": process, "interventions": family})

    # The universal realization is already the canonical-intervention environment.
    verdict = is_logically_consistent(process, candidate_cap)
    if verdict.consistent:
        pc = SetVerdict("in", {"process": process, "interventions": family})
    else:
        pc = SetVerdict(
            "unknown",
            {
                "note": "canonical-intervention realization is inconsistent; "
                "the test is sufficient only",
                "violating_choice": verdict.violation,
                "violation_mass": verdict.violation_mass,
            },
        )
        for witness in witnesses:
            if witness.known_pc_bound is None:
                continue
            value = score(witness, corr)
            if value > witness.known_pc_bound:
                pc = SetVerdict(
                    "out",
                    {
                        "witness": witness.name,
                        "score": value,
                        "known_pc_bound": witness.known_pc_bound,
                    },
                )
                break

    try:
        vertices = _deterministic_correlation_vertices(corr.scenario, candidate_cap)
        result = hull_membership(corr.table, vertices)
        if result.inside:
            return ClassLabel(
                qc=qc, pc=pc, dc=SetVerdict("in", {"vertices": vertices, "weights": result.weights})
            )
        status = "out"
        certificate: dict = {
            "separating_functional": result.functional,
            "separation": result.separation,
        }
    except CapExceeded as exc:
        status, certificate = "unknown", {"downgraded": str(exc)}
    for witness in witnesses:
        bound = dc_bound(witness, candidate_cap=candidate_cap)
        value = score(witness, corr)
        if value > bound.value:
            status = "out"
            certificate.update(witness=witness.name, score=value, dc_bound=bound.value)
            break
    return ClassLabel(qc=qc, pc=pc, dc=SetVerdict(status, certificate))
