"""
Games, scoring, and the hierarchy bound computations.

A game is a rational payoff over (outcomes, settings) plus a distribution on
joint settings; its score on a behaviour p(x|a) is the linear functional
``Game.phi``, phi(x,a) = payoff(x,a) * p(a), summed against p(x|a).  Every
bound below reads the game through phi alone:

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
from fractions import Fraction
from math import prod
from typing import Sequence

from ._lazy import check_axes, np
from ._record import Record
from .consistency import (
    CANDIDATE_CAP,
    QuasiProcessFunction,
    _choice_masses,
    _lex_maps,
    _survey_cached,
    is_logically_consistent,
    output_choice_count,
)
from .errors import InvalidTable, ScenarioMismatch, SearchSpaceTooLarge
from .lp import LinearProgram, LpStatus, _scaled, check_hull_lp_size, hull_membership, lp_solve
from .scenario import (
    Correlation,
    DeterministicIntervention,
    QuasiProcess,
    Scenario,
    canonical_scenario,
    conditional_table,
    evaluate_correlation,
    iter_tuples,
    make_scenario,
    strides,
    universal_realization,
)

ZERO = Fraction(0)

CAUSAL_STATE_CAP = 500_000
DC_WORK_CAP = 20_000_000
# Cells (grid points x joint settings) of one class grid; gynin's largest has 64 x 8.
DC_GRID_CAP = 1 << 22
DC_HGRID_CAP = 1 << 20
# Stacked-table or grid cells one step of the DC search gathers at once.
DC_BATCH_CELLS = 1 << 18
# Slice-score cells one _hopt_values step holds; small steps stay in cache.
DC_SCORE_CELLS = 1 << 14
# Scoring steps (distinct rows x other parties' outcome-map grid x the
# distinguished party's slices x joint settings) in one dc_bound; the scoring
# kernel runs about 4 x 10^8 steps per second on one core (ternary GYNI).
DC_SCORE_WORK_CAP = 2 * 10**9
# Tableau coefficients (equality rows x (variables + artificials + rhs)) of the
# canonical-PC LP; ternary GYNI's 729 x 811 (about 5.9e5) solves in about 10 s.
PC_LP_CAP = 10**6


class Game(Record):
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

    @property
    def phi(self) -> tuple[Fraction, ...]:
        """The score functional: phi[x_flat * n_settings + a_flat] = payoff * p(a)."""
        n_a = self.scenario.n_settings
        return tuple(pay * self.setting_dist[f % n_a] for f, pay in enumerate(self.payoff))


def check_game_alphabets(game: Game, scenario: Scenario) -> None:
    """Raise unless ``game`` and ``scenario`` have the same setting and outcome alphabets."""
    if game.scenario.settings != scenario.settings or game.scenario.outcomes != scenario.outcomes:
        raise ScenarioMismatch("game and correlation alphabets differ")


def score(game: Game, corr) -> Fraction | float:
    """Linear score phi . p = sum payoff * p(a) * p(x|a); exact on rational tables.

    Only the setting and outcome alphabets must match; input/output system
    sizes are irrelevant to scoring, which lets one game score both classical
    and process-matrix behaviours.  Float-valued tables give a float score.
    """
    check_game_alphabets(game, corr.scenario)
    sc = game.scenario
    phi = game.phi
    total = ZERO
    for a_flat in range(sc.n_settings):
        for f in range(a_flat, len(phi), sc.n_settings):
            if phi[f]:
                total = total + phi[f] * corr.table[f]
    return total


# ---------------------------------------------------------------------------
# built-in games and processes
# ---------------------------------------------------------------------------


def _neighbour_or_not(x: tuple[int, ...], a: tuple[int, ...]) -> bool:
    """x equals (a3, a1, a2) or its bitwise complement."""
    return x[0] ^ a[2] == x[1] ^ a[0] == x[2] ^ a[1]


def _game(sc: Scenario, name: str, wins) -> Game:
    payoff = conditional_table(sc.outcomes, sc.settings, wins)
    return Game(sc, payoff, (Fraction(1, sc.n_settings),) * sc.n_settings, name=name)


def builtin_gynin() -> Game:
    """Tripartite guess-your-neighbour's-input-or-not game, uniform settings.

    Win when (x1, x2, x3) equals (a3, a1, a2) or its bitwise complement.
    """
    return _game(make_scenario(3, 2, 2, 2, 2), "gynin", _neighbour_or_not)


def builtin_gyni() -> Game:
    """Bipartite guess-your-neighbour's-input game: win iff x1 = a2 and x2 = a1."""
    return _game(make_scenario(2, 2, 2, 2, 2), "gyni", lambda x, a: x == a[::-1])


def builtin_ocb() -> Game:
    """The two-party direction game with qubit systems in mind.

    Party 2's setting packs two bits, s = 2*b' + b.  When b' = 0 party 2 must
    guess party 1's setting (x2 = a1); when b' = 1 party 1 must guess b
    (x1 = b).  Settings are uniform.
    """
    sc = Scenario(settings=(2, 4), outcomes=(2, 2), inputs=(2, 2), outputs=(2, 4))
    return _game(sc, "ocb", lambda x, a: x[1] == a[0] if a[1] < 2 else x[0] == a[1] % 2)


def builtin_chsh() -> Game:
    """CHSH on the nonsignaling scenario with discarded (trivial) systems."""
    return _game(make_scenario(2, 2, 2, 1, 1), "chsh", lambda x, a: x[0] ^ x[1] == a[0] & a[1])


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
    return QuasiProcess(
        sc, conditional_table(sc.inputs, sc.outputs, lambda i, o: half * _neighbour_or_not(i, o))
    )


def gynin_perfect_correlation() -> Correlation:
    """The behaviour that wins the tripartite game with certainty: half gynin's win table.

    It is ``bfw_process().table``: gynin's scenario is its own canonical scenario,
    where the canonical interventions read p(x=i|a=o) straight off p(i|o).
    """
    gynin = builtin_gynin()
    return Correlation(gynin.scenario, tuple(win / 2 for win in gynin.payoff))


def gyni_perfect_correlation() -> Correlation:
    """Deterministic x1 = a2, x2 = a1 on the bipartite scenario: gyni's win table."""
    return Correlation(make_scenario(2, 2, 2, 2, 2), builtin_gyni().payoff)


def pr_box_correlation() -> Correlation:
    """The nonsignaling box with x1 xor x2 = a1 and a2, uniform marginals: half CHSH's win table."""
    chsh = builtin_chsh()
    return Correlation(chsh.scenario, tuple(win / 2 for win in chsh.payoff))


# ---------------------------------------------------------------------------
# causal bound
# ---------------------------------------------------------------------------


class CausalBoundResult(Record):
    value: Fraction
    strategy: dict


def causal_bound(game: Game) -> CausalBoundResult:
    """Maximum score over deterministic adaptive definite-order strategies.

    The recursion picks a party to act next; its outcome may depend on its own
    setting and on all settings revealed so far, and the identity of the next
    party may depend on those settings as well (dynamic order).  It visits every
    state with a party yet to act once, prod_k (1 + s_k x_k) - prod_k s_k x_k
    of them for s settings and x outcomes; that count is checked against
    ``CAUSAL_STATE_CAP`` before it starts, so it recurses at most 18 parties deep.
    """
    sc = game.scenario
    n = sc.n_parties
    n_a = sc.n_settings
    states = prod(1 + s * x for s, x in zip(sc.settings, sc.outcomes)) - n_a * sc.n_outcomes
    if states > CAUSAL_STATE_CAP:
        raise SearchSpaceTooLarge(f"causal recursion exceeds {CAUSAL_STATE_CAP} states")
    phi = game.phi
    a_strides, x_strides = strides(sc.settings), strides(sc.outcomes)

    @functools.cache
    def best(mask: int, a_flat: int, x_flat: int) -> tuple[Fraction, int, tuple[int, ...]]:
        # (value, acting party, outcome per setting); a party yet to act adds 0 to a_flat, x_flat
        if mask == 0:
            return phi[x_flat * n_a + a_flat], -1, ()
        winner: tuple[Fraction, int, tuple[int, ...]] | None = None
        for k in range(n):
            if not mask & (1 << k):
                continue
            total = ZERO
            chosen = []
            for a_k in range(sc.settings[k]):
                next_a = a_flat + a_k * a_strides[k]
                values = [
                    best(mask & ~(1 << k), next_a, x_flat + x_k * x_strides[k])[0]
                    for x_k in range(sc.outcomes[k])
                ]
                x_k = values.index(max(values))  # the first best outcome
                total += values[x_k]
                chosen.append(x_k)
            if winner is None or total > winner[0]:
                winner = (total, k, tuple(chosen))
        return winner

    def strategy(mask: int, a_flat: int, x_flat: int) -> dict | None:
        if mask == 0:
            return None
        _, k, chosen = best(mask, a_flat, x_flat)
        branches = []
        for a_k, x_k in enumerate(chosen):
            next_a = a_flat + a_k * a_strides[k]
            next_x = x_flat + x_k * x_strides[k]
            branches.append(
                {"setting": a_k, "outcome": x_k, "then": strategy(mask & ~(1 << k), next_a, next_x)}
            )
        return {"party": k, "branches": branches}

    full_mask = (1 << n) - 1
    return CausalBoundResult(best(full_mask, 0, 0)[0], strategy(full_mask, 0, 0))


# ---------------------------------------------------------------------------
# deterministic-consistency (process-function) bound
# ---------------------------------------------------------------------------


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


class DcBoundResult(Record):
    value: Fraction
    witness_function: QuasiProcessFunction
    witness_intervention: DeterministicIntervention
    functions_searched: int


class _DcSearch:
    """The DC search's tables for one scenario and its distinct fixed-point rows.

    Built once per scenario (``_dc_search``) and shared by the process-function
    bound and the vertex collection; the survey runs when first read, so the
    caps on the outcome-map counts ``H`` and ``S`` come first.  ``rows`` walks
    it once, in chunks of functions: for every function of a chunk at once it
    finds each party's output-choice classes, groups the functions by their
    class-count signature, and gathers each group's fixed-point rows with
    ``function_rows`` through one index array per signature.  Each row keeps
    the output choices that first produced it, so a witness is read off the
    row, not rebuilt from its class grid.
    """

    def __init__(self, scenario: Scenario, candidate_cap: int):
        self.sc = scenario
        self.candidate_cap = candidate_cap
        self.n = scenario.n_parties
        self.settings_of = np.array(list(iter_tuples(scenario.settings)), dtype=np.int64).reshape(-1, self.n)
        self.n_a = scenario.n_settings
        # Output choices per party; outcome maps over (setting, input) cells
        # a * d_I + i (hmap) and over inputs alone (smap, one setting's slice);
        # class grids per class-count signature (layout).  Each table is built
        # when a search first reads it, so the caps on the counts F, H and S
        # run before any table exists.
        self.choices = functools.cache(lambda k: _lex_maps(scenario.inputs[k], scenario.outputs[k]))
        self.F = [d_o**d_i for d_o, d_i in zip(scenario.outputs, scenario.inputs)]
        self.fp_strides = strides(self.F)
        self.in_strides = strides(scenario.inputs)
        self.x_strides = strides(scenario.outcomes)
        self.ncells = [scenario.settings[k] * scenario.inputs[k] for k in range(self.n)]
        self.hmap = functools.cache(lambda k: _lex_maps(self.ncells[k], scenario.outcomes[k]))
        self.smap = functools.cache(lambda k: _lex_maps(scenario.inputs[k], scenario.outcomes[k]))
        self.layout = functools.cache(self._layout)
        self.H = [d_x**cells for d_x, cells in zip(scenario.outcomes, self.ncells)]
        self.S = [d_x**d_i for d_x, d_i in zip(scenario.outcomes, scenario.inputs)]

    @functools.cached_property
    def survey(self):
        return _survey_cached(self.sc, self.candidate_cap)

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
        a_flat on grid point g.  Read through ``layout``, which builds it once
        per signature, within ``DC_GRID_CAP`` and numpy's axis limit.
        """
        settings = self.sc.settings
        axes_cards = [counts[k] for k in range(self.n) for _ in range(settings[k])]
        n_grid = prod(axes_cards)
        if n_grid * self.n_a > DC_GRID_CAP:
            raise SearchSpaceTooLarge(
                f"a class grid has {n_grid * self.n_a} cells ({n_grid} intervention "
                f"outputs x {self.n_a} settings), above the cap {DC_GRID_CAP}"
            )
        check_axes("a class grid", len(axes_cards) + 1)
        axis_offset = [sum(settings[:k]) for k in range(self.n)]
        digits = np.indices(axes_cards, dtype=np.int64).reshape(len(axes_cards), n_grid)
        index = sum(
            digits[axis_offset[k] + self.settings_of[:, k]] * stride
            for k, stride in enumerate(strides(counts))
        )
        return axes_cards, axis_offset, np.ascontiguousarray(index.T)

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
        axes_cards, axis_offset, index = self.layout(counts)
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

    @functools.cached_property
    def rows(self):
        """The survey's distinct fixed-point rows in first-occurrence order, with their origins.

        Rows are met in survey order, then in each function's row order.
        Returns (rows, survey, choices): distinct row r first occurs at
        survey function ``survey[r]``, where party k's output choice at
        setting a_k is ``self.choices(k)[choices[r, sum(settings[:k]) + a_k]]``.
        The survey is walked once, in chunks of about ``DC_BATCH_CELLS`` grid
        cells, after its arrays' axes (one per party plus two) are checked.
        """
        check_axes("the DC search", self.n + 2)
        step = max(1, DC_BATCH_CELLS // max(prod(self.F), max(self.F) ** 2))
        rows = np.zeros((0, self.n_a), dtype=np.int64)
        # origin[r] = (survey index, output-choice index per (party, setting))
        origin = np.zeros((0, 1 + sum(self.sc.settings)), dtype=np.int64)
        for lo in range(0, len(self.survey), step):
            chunk_rows, chunk_origin = self._chunk_rows(lo, lo + step)
            # calls come grouped by signature, but each function's rows come from one
            # call, in row order: a stable sort by survey index restores survey order
            order = np.argsort(chunk_origin[:, 0], kind="stable")
            rows = np.concatenate([rows, chunk_rows[order]])
            origin = np.concatenate([origin, chunk_origin[order]])
            first = np.sort(_unique_rows(_digit_words(rows, self.sc.n_inputs))[1])
            rows, origin = rows[first], origin[first]
        return rows, origin[:, 0], origin[:, 1:]

    def _chunk_rows(self, lo: int, hi: int):
        # A call of its own, so each function_rows result is freed once concatenated.
        fps = np.array([fp for _, fp in self.survey[lo:hi]], dtype=np.int64).reshape(-1, *self.F)
        firsts = self.first_choices(fps)
        counts = np.stack([mask.sum(axis=1) for mask in firsts], axis=1)
        signatures, group_of = np.unique(counts, axis=0, return_inverse=True)
        group_of = group_of.reshape(-1)
        party_of_axis = np.repeat(np.arange(self.n), self.sc.settings)
        parts, origins = [], []
        for g, signature in enumerate(signatures.tolist()):
            members = np.flatnonzero(group_of == g)
            n_grid = len(self.layout(tuple(signature))[2])
            per = max(1, DC_BATCH_CELLS // (n_grid * self.n_a))
            for start in range(0, len(members), per):
                part = members[start : start + per]
                reps = [np.nonzero(mask[part])[1].reshape(len(part), -1) for mask in firsts]
                rows, g_first, (_, axes_cards, _) = self.function_rows(fps[part], reps)
                function, *classes = np.unravel_index(g_first, axes_cards)
                choices = [reps[k][function, c] for k, c in zip(party_of_axis, classes)]
                parts.append(rows)
                origins.append(np.stack([lo + part[function], *choices], axis=1))
        return np.concatenate(parts), np.concatenate(origins)


_dc_search = functools.lru_cache(maxsize=16)(_DcSearch)


def _outcome_offsets(
    search: _DcSearch, rows: np.ndarray, parties: Sequence[int], a_flats: np.ndarray
) -> list[np.ndarray]:
    """Per listed party k, x_k times its place in flat(x) for each row under each of its
    full outcome maps (``hmap``) at the joint settings ``a_flats``: (rows, H_k,
    len(a_flats)), with H_k on the k-th listed grid axis so that parties sum by broadcasting.
    """
    sc = search.sc
    offsets = []
    for pos, k in enumerate(parties):
        inputs = rows[:, a_flats] // search.in_strides[k] % sc.inputs[k]
        cell = search.settings_of[a_flats, k] * sc.inputs[k] + inputs
        x_k = np.moveaxis(search.hmap(k)[:, cell], 0, 1) * search.x_strides[k]
        grid = (1,) * pos + (search.H[k],) + (1,) * (len(parties) - pos - 1)
        offsets.append(x_k.reshape(len(rows), *grid, len(a_flats)))
    return offsets


def _slice_scores(
    search: _DcSearch, rows: np.ndarray, G: np.ndarray, last: int, others: list[int], a_last: int
):
    """Per slice s of the distinguished party at setting a_last, the scores (rows, *grid).

    The grid runs over the other parties' full outcome maps.  Their offsets are
    summed once per joint setting with a[last] = a_last; each slice adds the
    distinguished party's own offset, read from ``smap`` at that setting.
    """
    relevant = np.flatnonzero(search.settings_of[:, last] == a_last)
    offsets = _outcome_offsets(search, rows, others, relevant)
    summed = [sum(x_k[..., j] for x_k in offsets) for j in range(len(relevant))]
    inputs = rows[:, relevant] // search.in_strides[last] % search.sc.inputs[last]
    pad = (len(rows),) + (1,) * len(others)
    for slice_map in search.smap(last) * search.x_strides[last]:
        yield sum(
            G[a_flat][x_others + slice_map[i_last].reshape(pad)]
            for a_flat, x_others, i_last in zip(relevant, summed, inputs.T)
        )


def _best_slices(
    search: _DcSearch, rows: np.ndarray, G: np.ndarray, last: int, others: list[int]
) -> np.ndarray:
    """Scores (rows, *grid) with the distinguished party's best slice at every setting."""
    return sum(
        functools.reduce(np.maximum, _slice_scores(search, rows, G, last, others, a_last))
        for a_last in range(search.sc.settings[last])
    )


def _hopt_values(
    search: _DcSearch, rows: np.ndarray, G: np.ndarray, last: int, others: list[int]
) -> np.ndarray:
    """Best intervention-outcome value per fixed-point row, integer-scaled.

    Outcome maps decompose per party into independent per-setting slices for
    one distinguished party, so the scan is exhaustive over the remaining
    parties' full maps and exact.  Rows are scored in chunks of about
    ``DC_SCORE_CELLS`` cells (rows x the other parties' outcome maps).
    """
    chunk = max(1, DC_SCORE_CELLS // prod(search.H[k] for k in others))
    values = []
    for start in range(0, len(rows), chunk):
        total = _best_slices(search, rows[start : start + chunk], G, last, others)
        values.append(total.reshape(len(total), -1).max(axis=1))
    return np.concatenate(values)


def _hopt_detail(
    search: _DcSearch, row: np.ndarray, G: np.ndarray, last: int, others: list[int]
) -> tuple[int, dict[int, int], list[int]]:
    """The optimum for one row with its first-maximizing outcome maps.

    Returns the value, the other parties' outcome-map indices at the first
    maximizing grid point (``np.argmax`` over the best-slice scores), and the
    distinguished party's first maximizing slice per setting at that point,
    scored again one slice array at a time.
    """
    rows = row.reshape(1, -1)
    total = _best_slices(search, rows, G, last, others)[0]
    grid_idx = np.unravel_index(int(np.argmax(total)), total.shape)
    other_maps = {k: int(grid_idx[pos]) for pos, k in enumerate(others)}
    slices = [
        int(np.argmax([acc[0][grid_idx] for acc in _slice_scores(search, rows, G, last, others, a)]))
        for a in range(search.sc.settings[last])
    ]
    return int(total[grid_idx]), other_maps, slices


@functools.lru_cache(maxsize=16)
def dc_bound(game: Game, candidate_cap: int = CANDIDATE_CAP) -> DcBoundResult:
    """Exact maximum of the score over mixtures of process functions.

    Every process function of the reduced survey contributes its fixed-point
    rows (the unique fixed point at every joint setting, for every class of
    deterministic output choices); the search's ``rows`` holds each distinct
    row once, in first-occurrence order.  One ``_hopt_values`` pass exhausts
    their outcome maps, with one party's maps optimized per setting, and the
    witness is the first maximizing row.  Results are cached per game (all
    arguments are immutable), since classification and the demo revisit the
    same bounds.  The other parties' outcome maps are checked against
    ``DC_HGRID_CAP`` from the scenario alone, before the survey runs; each
    class grid's cells against ``DC_GRID_CAP`` as the rows are gathered; and
    the scoring work, checked once before any row is scored, against
    ``DC_SCORE_WORK_CAP``.
    """
    sc = game.scenario
    search = _dc_search(sc, candidate_cap)
    last = max(range(search.n), key=lambda k: (search.H[k], k))
    others = [k for k in range(search.n) if k != last]
    grid = prod(search.H[k] for k in others)
    if grid > DC_HGRID_CAP:
        raise SearchSpaceTooLarge(
            f"{grid} outcome maps of the other parties exceed cap {DC_HGRID_CAP}"
        )
    nums, scale = _scaled(game.phi)
    if max(map(abs, nums)) * sc.n_settings >= 2**62:
        raise SearchSpaceTooLarge("scaled payoff would overflow 64-bit accumulation")
    G = np.array(nums, dtype=np.int64).reshape(sc.n_outcomes, sc.n_settings).T
    rows, survey, choices = search.rows
    work = len(rows) * grid * search.S[last] * search.n_a
    if work > DC_SCORE_WORK_CAP:
        raise SearchSpaceTooLarge(
            f"DC scoring needs {work} steps ({len(rows)} distinct fixed-point rows x "
            f"{grid} outcome maps x {search.S[last]} slices x {search.n_a} settings), "
            f"above the work cap {DC_SCORE_WORK_CAP}"
        )
    values = _hopt_values(search, rows, G, last, others)
    r = int(np.argmax(values))
    detail_value, other_maps, last_slices = _hopt_detail(search, rows[r], G, last, others)
    if detail_value != values[r]:  # pragma: no cover - batch and detail share the formulas
        raise AssertionError("witness reconstruction disagrees with the search optimum")

    def maps(tables) -> tuple:  # per party, one map per setting
        return tuple(tuple(map(tuple, table.tolist())) for table in tables)

    outcome = {k: search.hmap(k)[h].reshape(sc.settings[k], -1) for k, h in other_maps.items()}
    outcome[last] = search.smap(last)[last_slices]
    per_party = np.split(choices[r], np.cumsum(sc.settings)[:-1])
    intervention = DeterministicIntervention(
        maps(search.choices(k)[c] for k, c in enumerate(per_party)),
        maps(outcome[k] for k in range(search.n)),
    )
    return DcBoundResult(
        value=Fraction(detail_value, scale),
        witness_function=QuasiProcessFunction(sc, search.survey[survey[r]][0]),
        witness_intervention=intervention,
        functions_searched=len(search.survey),
    )


# ---------------------------------------------------------------------------
# probabilistically-consistent bound (canonical interventions)
# ---------------------------------------------------------------------------


class PcBoundResult(Record):
    value: Fraction
    process: QuasiProcess


def pc_bound_canonical(game: Game) -> PcBoundResult:
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
    n_vars = sc.n_inputs * sc.n_outputs
    n_eq = output_choice_count(sc)
    size = n_eq * (n_vars + n_eq + 1)
    if size > PC_LP_CAP:
        raise SearchSpaceTooLarge(
            f"the canonical PC LP has {size} tableau coefficients ({n_eq} equality rows x "
            f"({n_vars} variables + {n_eq} artificials + 1)), above the LP size cap {PC_LP_CAP}"
        )
    # one-bit weights sum to the bitmask of a choice's cells (i, f(i)); the LP makes 0/1 Fractions
    masks = _choice_masses(sc, [1 << j for j in range(n_vars)])
    eq_rows = tuple((tuple(m >> j & 1 for j in range(n_vars)), 1) for m in masks)
    # the canonical scenario's (i, o) layout is the game's (x, a) layout
    solution = lp_solve(LinearProgram(objective=game.phi, maximize=True, eq=eq_rows))
    if solution.status is not LpStatus.OPTIMAL:  # pragma: no cover - polytope is nonempty, bounded
        raise AssertionError(f"canonical process polytope LP returned {solution.status}")
    return PcBoundResult(solution.value, QuasiProcess(sc, solution.x))


# ---------------------------------------------------------------------------
# classification against the hierarchy
# ---------------------------------------------------------------------------


class SetVerdict(Record):
    status: str  # "in" | "out" | "unknown"
    certificate: dict


class ClassLabel(Record):
    qc: SetVerdict
    pc: SetVerdict
    dc: SetVerdict


@functools.lru_cache(maxsize=16)
def _deterministic_correlation_vertices(
    scenario: Scenario, candidate_cap: int
) -> tuple[tuple[int, ...], ...]:
    """Deduplicated deterministic behaviours from (process function, intervention).

    These are the extreme points spanning the deterministic-consistency hull,
    as 0/1 int rows in ascending order.  A behaviour is gathered as its joint
    outcome at every joint setting, one per (distinct fixed-point row of the
    DC search, outcome-map family), summed from the scoring's ``_outcome_offsets``.
    Each cap raises :class:`SearchSpaceTooLarge`: one row's gather size
    against ``DC_WORK_CAP`` before the survey runs, the survey's own caps, the
    class grids against ``DC_GRID_CAP`` during the walk, the exact gather size
    against ``DC_WORK_CAP``, and the distinct behaviours as they grow against
    the hull LP's size (``lp.check_hull_lp_size``).
    """
    search = _dc_search(scenario, candidate_cap)
    n_a = scenario.n_settings
    h_grid = prod(search.H)
    per_row = h_grid * n_a
    if per_row > DC_WORK_CAP:
        raise SearchSpaceTooLarge(
            f"vertex enumeration needs {per_row} steps per distinct fixed-point row "
            f"({h_grid} outcome-map families x {n_a} settings), above the work cap {DC_WORK_CAP}"
        )
    rows = search.rows[0]
    estimate = len(rows) * per_row
    if estimate > DC_WORK_CAP:
        raise SearchSpaceTooLarge(
            f"vertex enumeration needs {estimate} steps ({len(rows)} distinct fixed-point rows x "
            f"{h_grid} outcome-map families x {n_a} settings), above the work cap {DC_WORK_CAP}"
        )
    behaviours = np.empty((0, n_a), dtype=np.int64)
    step = max(1, DC_BATCH_CELLS // per_row)
    every_a = np.arange(n_a)
    for start in range(0, len(rows), step):
        # joint[r, h_1, ..., h_n, a]: joint outcome of row r under outcome maps h at a
        joint = sum(_outcome_offsets(search, rows[start : start + step], range(search.n), every_a))
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
      unrestricted bound can.  A cap met by the vertex test reports "unknown"
      with the cap's message, which such a witness can still move to "out".
    * deterministic-consistency: exact hull membership over the deterministic
      vertex set when the caps allow, otherwise witness mode (reported, never
      silent).  Membership is in the convex hull of deterministic behaviours,
      the polytope the bound computations optimize over.  "in" carries convex
      weights over the 0/1 vertex rows; "out" carries the hull LP's integer
      Farkas functional and its separation from the vertices.  The vertices
      are gathered from the DC search's distinct fixed-point rows, which the
      witness games' ``dc_bound`` reads too, so the survey is walked once per
      scenario.  Any cap met by the vertex gather or the hull LP reports
      "unknown" with the cap's message: the survey's candidate and work caps,
      ``DC_WORK_CAP`` (per row, then exactly), ``DC_GRID_CAP`` or
      ``lp.HULL_LP_CAP``.  A witness game whose ``dc_bound`` meets a cap is
      skipped, leaving the verdict as the hull step gave it.
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
    try:
        verdict = is_logically_consistent(process)
        pc_unknown = None if verdict.consistent else {
            "note": "canonical-intervention realization is inconsistent; "
            "the test is sufficient only",
            "violating_choice": verdict.violation,
            "violation_mass": verdict.violation_mass,
        }
    except SearchSpaceTooLarge as exc:
        pc_unknown = {"downgraded": str(exc)}
    if pc_unknown is None:
        pc = SetVerdict("in", {"process": process, "interventions": family})
    else:
        pc = SetVerdict("unknown", pc_unknown)
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
    except SearchSpaceTooLarge as exc:
        status, certificate = "unknown", {"downgraded": str(exc)}
    for witness in witnesses:
        try:
            bound = dc_bound(witness, candidate_cap=candidate_cap)
        except SearchSpaceTooLarge:
            continue  # this witness cannot decide; the hull step's verdict stands
        value = score(witness, corr)
        if value > bound.value:
            status = "out"
            certificate.update(witness=witness.name, score=value, dc_bound=bound.value)
            break
    return ClassLabel(qc=qc, pc=pc, dc=SetVerdict(status, certificate))
