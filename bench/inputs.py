"""Seeded inputs for the benchmark workloads, and the reference objects the
answer checks compare against.

Nothing here imports causelab: games, correlations, process functions and
deterministic-behaviour vertex sets are built from plain integers and
``Fraction`` values with independent code, so the checks do not trust the
code under test.  Every generator takes a ``random.Random`` seeded from the
benchmark's ``--seed``; the same seed gives the same inputs.

Scenarios use causelab's JSON layout (``{"parties", "settings", "outcomes",
"inputs", "outputs"}``) and its flattening convention: multi-indices are
row-major with party 1 most significant, a correlation entry p(x|a) sits at
``flat(x) * n_settings + flat(a)`` and a process entry p(i|o) at
``flat(i) * n_outputs + flat(o)``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import prod


def scenario(parties: int, settings: int, outcomes: int, inputs: int, outputs: int) -> dict:
    return {
        "parties": parties,
        "settings": [settings] * parties,
        "outcomes": [outcomes] * parties,
        "inputs": [inputs] * parties,
        "outputs": [outputs] * parties,
    }


TRIPARTITE = scenario(3, 2, 2, 2, 2)
BIPARTITE = scenario(2, 2, 2, 2, 2)
BELL = scenario(2, 2, 2, 1, 1)


def canonical(sc: dict) -> dict:
    """Enlarged scenario with inputs = outcomes and outputs = settings."""
    return dict(sc, inputs=list(sc["outcomes"]), outputs=list(sc["settings"]))


def tuples(cards) -> list[tuple[int, ...]]:
    return list(itertools.product(*(range(c) for c in cards)))


def flat(index, cards) -> int:
    value = 0
    for v, c in zip(index, cards):
        value = value * c + v
    return value


def fingerprint(obj) -> str:
    """sha256 of the canonical JSON form; Fractions hash as "num/den" strings."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def rat(value) -> str:
    return str(Fraction(value))


# ---------------------------------------------------------------------------
# independent combinatorics: output choices, fixed points, process functions
# ---------------------------------------------------------------------------


def output_choices(sc: dict) -> list[tuple[tuple[int, ...], ...]]:
    """Every deterministic output choice f_k : I_k -> O_k, lexicographic."""
    per_party = [
        list(itertools.product(range(d_o), repeat=d_i))
        for d_i, d_o in zip(sc["inputs"], sc["outputs"])
    ]
    return list(itertools.product(*per_party))


def choice_masses(sc: dict, table) -> list[Fraction]:
    """Total mass sum_i p(i | f(i)) of a process table at every output choice."""
    n_o = prod(sc["outputs"])
    ins = tuples(sc["inputs"])
    masses = []
    for choice in output_choices(sc):
        total = Fraction(0)
        for i_flat, i in enumerate(ins):
            o_flat = flat([choice[k][i[k]] for k in range(len(i))], sc["outputs"])
            total += table[i_flat * n_o + o_flat]
        masses.append(total)
    return masses


def is_consistent(sc: dict, table) -> bool:
    return all(m == 1 for m in choice_masses(sc, table))


def pf_apply(sc: dict, omega, o_flat: int) -> int:
    return flat([omega[k][o_flat] for k in range(len(omega))], sc["inputs"])


def is_process_function(sc: dict, omega) -> bool:
    """Unique fixed point i = omega(f(i)) at every output choice."""
    ins = tuples(sc["inputs"])
    for choice in output_choices(sc):
        hits = 0
        for i_flat, i in enumerate(ins):
            o_flat = flat([choice[k][i[k]] for k in range(len(i))], sc["outputs"])
            if pf_apply(sc, omega, o_flat) == i_flat:
                hits += 1
        if hits != 1:
            return False
    return True


def pf_table(sc: dict, components) -> list[Fraction]:
    """Process table p(i|o) of a weighted list of deterministic maps omega."""
    n_i, n_o = prod(sc["inputs"]), prod(sc["outputs"])
    table = [Fraction(0)] * (n_i * n_o)
    for omega, weight in components:
        for o_flat in range(n_o):
            table[pf_apply(sc, omega, o_flat) * n_o + o_flat] += weight
    return table


def random_causal_pf(rng: random.Random, sc: dict) -> tuple[tuple[int, ...], ...]:
    """A process function with a seeded causal order: each party's input is a
    random function of the outputs of the parties before it."""
    n = sc["parties"]
    order = list(range(n))
    rng.shuffle(order)
    outs = tuples(sc["outputs"])
    omega = []
    for k in range(n):
        earlier = order[: order.index(k)]
        lookup: dict[tuple, int] = {}
        component = []
        for o in outs:
            key = tuple(o[j] for j in earlier)
            if key not in lookup:
                lookup[key] = rng.randrange(sc["inputs"][k])
            component.append(lookup[key])
        omega.append(tuple(component))
    return tuple(omega)


def _tripartite_map(rule) -> tuple[tuple[int, ...], ...]:
    outs = tuples(TRIPARTITE["outputs"])
    return tuple(tuple(rule(o)[k] for o in outs) for k in range(3))


# Baumeler-Wolf non-causal process function: i_k = (not o_{k+1}) and o_{k+2}.
BW_PF = _tripartite_map(
    lambda o: tuple(int((1 - o[(k + 1) % 3]) and o[(k + 2) % 3]) for k in range(3))
)
# Cyclic copy i_k = o_{k-1}: logically inconsistent on its own (two fixed
# points when every party copies its input to its output).
CYCLIC_COPY = _tripartite_map(lambda o: (o[2], o[0], o[1]))


def random_pf_mixture(rng: random.Random) -> list[Fraction]:
    """Tripartite binary mixture of 2-3 process functions, one of them
    possibly the non-causal Baumeler-Wolf function."""
    k = rng.randint(2, 3)
    comps = [random_causal_pf(rng, TRIPARTITE) for _ in range(k)]
    if rng.random() < 0.5:
        comps[0] = BW_PF
    weights = [rng.randint(1, 5) for _ in comps]
    total = sum(weights)
    return pf_table(TRIPARTITE, [(c, Fraction(w, total)) for c, w in zip(comps, weights)])


def perturbed(rng: random.Random, table) -> list[Fraction]:
    """Mix a consistent table with the cyclic copy: still a normalized
    quasi-process, no longer logically consistent."""
    eps = Fraction(rng.choice((1, 2)), 8)
    copy = pf_table(TRIPARTITE, [(CYCLIC_COPY, Fraction(1))])
    return [(1 - eps) * p + eps * q for p, q in zip(table, copy)]


# ---------------------------------------------------------------------------
# games and correlations
# ---------------------------------------------------------------------------


def random_game(rng: random.Random, sc: dict) -> dict:
    """Payoffs are small integers of both signs; setting weights are rational."""
    n_x, n_a = prod(sc["outcomes"]), prod(sc["settings"])
    payoff = [rng.randint(-3, 3) for _ in range(n_x * n_a)]
    weights = [rng.randint(1, 4) for _ in range(n_a)]
    total = sum(weights)
    return {
        "scenario": sc,
        "payoff": payoff,
        "settings": [Fraction(w, total) for w in weights],
    }


def dc_vertices(sc: dict) -> list[tuple[int, ...]]:
    """Deterministic DC behaviours of a bipartite scenario, sorted.

    Bipartite process functions are causal.  With binary systems one party's
    output can carry its setting to the other, so the vertices are the
    one-way-signalling deterministic behaviours (112 for binary alphabets);
    with trivial systems nothing is carried and they are the local ones (16).
    """
    if sc["parties"] != 2 or len(set(sc["settings"] + sc["outcomes"])) != 1:
        raise ValueError("reference vertices cover bipartite uniform alphabets only")
    d = sc["settings"][0]
    carries = min(sc["inputs"] + sc["outputs"]) >= d
    if not carries and max(sc["inputs"] + sc["outputs"]) != 1:
        raise ValueError("reference vertices need binary-or-larger or trivial systems")
    n_a = d * d
    verts = set()
    for f1 in itertools.product(range(d), repeat=d):
        for f2 in itertools.product(range(d), repeat=n_a):
            for first in (0, 1):
                v = [0] * (n_a * n_a)
                for a1, a2 in itertools.product(range(d), repeat=2):
                    a_lead, a_follow = (a1, a2) if first == 0 else (a2, a1)
                    lead = f1[a_lead]
                    follow = f2[a_lead * d + a_follow] if carries else f2[a_follow]
                    x1, x2 = (lead, follow) if first == 0 else (follow, lead)
                    v[(x1 * d + x2) * n_a + a1 * d + a2] = 1
                verts.add(tuple(v))
    return sorted(verts)


def inside_correlation(rng: random.Random, vertices) -> list[Fraction]:
    """Convex mixture of 2-4 DC vertices with rational weights."""
    picks = rng.sample(range(len(vertices)), rng.randint(2, 4))
    weights = [rng.randint(1, 5) for _ in picks]
    total = sum(weights)
    table = [Fraction(0)] * len(vertices[0])
    for idx, w in zip(picks, weights):
        for j, v in enumerate(vertices[idx]):
            if v:
                table[j] += Fraction(w, total)
    return table


# The 144 deterministic bipartite tables outside the DC hull (those that are
# not one of its 112 vertices), as the outcome (flat x) at each of the four
# joint settings.  Their classify calls take 22 to 142 simplex pivots, so a
# run's work would swing with the tables its seed draws.  They are therefore
# split into strata by the pivot count of their classify call at the commit
# that added the benchmark (fewest first), and a certify round draws one table
# from each stratum: every table runs with the same chance, the costliest
# included, and every round holds the same spread of costs.
OUTSIDE_STRATA = (
    # 22-34 pivots
    "0223 0230 0232 0233 0311 0313 0331 0332 0333 1233 1303 1323 "
    "1330 1332 2003 2023 2033 2132 2133 2313 2331 3013 3023 3031 "
    "3033 3103 3123 3130 3132 3213 3231 3302 3303 3312 3321 3330",
    # 35-46 pivots
    "0113 0210 0211 0212 0310 0320 0322 0330 1202 1213 1220 1223 "
    "1231 1301 1321 2001 2021 2032 2111 2113 2120 2131 2230 2320 "
    "2330 3001 3002 3003 3011 3022 3101 3121 3122 3202 3203 3320",
    # 46-61 pivots
    "0130 0131 0213 0221 0231 0300 0302 0312 1200 1201 1211 1221 "
    "1222 1302 1312 1320 1322 2010 2011 2012 2013 2031 2102 2112 "
    "2122 2203 2212 2213 2231 2302 2312 3000 3021 3112 3220 3221",
    # 64-142 pivots
    "0003 0012 0013 0021 0030 0031 0102 0112 0120 0201 0203 1002 "
    "1003 1013 1020 1021 1031 1102 1103 1112 1120 1121 1130 1203 "
    "1300 1310 2030 2100 2110 2130 2221 3020 3100 3102 3110 3120",
)


def outside_strata(vertices) -> list[list[str]]:
    """The strata, checked to hold exactly the non-vertex deterministic tables."""
    strata = [line.split() for line in OUTSIDE_STRATA]
    names = [name for stratum in strata for name in stratum]
    expected = []
    vertex_set = set(vertices)
    for xs in itertools.product(range(4), repeat=4):
        if _deterministic(xs) not in vertex_set:
            expected.append("".join(map(str, xs)))
    if sorted(names) != expected:
        raise ValueError("outside strata do not hold exactly the non-vertex tables")
    return strata


def _deterministic(xs) -> tuple[int, ...]:
    return tuple(int(xs[a] == x) for x in range(4) for a in range(4))


def outside_correlation(rng: random.Random, stratum: list[str]) -> list[Fraction]:
    """A deterministic table of the stratum, none of them a DC vertex.

    A deterministic behaviour is an extreme point of all behaviours, so it lies
    in the DC hull only if it is one of the hull's vertices: anything else is
    certainly outside.
    """
    return [Fraction(v) for v in _deterministic([int(c) for c in rng.choice(stratum)])]


def gynin_perfect() -> list[Fraction]:
    """Wins the tripartite game surely: x = (a3, a1, a2) or its complement, 1/2 each."""
    sc = TRIPARTITE
    table = [Fraction(0)] * 64
    for a_flat, a in enumerate(tuples(sc["settings"])):
        straight = (a[2], a[0], a[1])
        for x in (straight, tuple(1 - v for v in straight)):
            table[flat(x, sc["outcomes"]) * 8 + a_flat] += Fraction(1, 2)
    return table


def gyni_perfect() -> list[Fraction]:
    table = [Fraction(0)] * 16
    for a1, a2 in itertools.product(range(2), repeat=2):
        table[(a2 * 2 + a1) * 4 + a1 * 2 + a2] = Fraction(1)
    return table


def pr_box() -> list[Fraction]:
    table = [Fraction(0)] * 16
    for a1, a2, x1, x2 in itertools.product(range(2), repeat=4):
        if x1 ^ x2 == a1 & a2:
            table[(x1 * 2 + x2) * 4 + a1 * 2 + a2] = Fraction(1, 2)
    return table


def correlation_json(sc: dict, table) -> dict:
    n_a = prod(sc["settings"])
    n_x = prod(sc["outcomes"])
    return {"scenario": sc, "p": [[rat(table[x * n_a + a]) for a in range(n_a)] for x in range(n_x)]}


def process_json(sc: dict, table) -> dict:
    n_o = prod(sc["outputs"])
    n_i = prod(sc["inputs"])
    return {"scenario": sc, "p": [[rat(table[i * n_o + o]) for o in range(n_o)] for i in range(n_i)]}


# ---------------------------------------------------------------------------
# workload rounds
# ---------------------------------------------------------------------------
#
# A round is the unit a run repeats: a fixed mix of request kinds in a seeded
# order, with fresh seeded inputs.  Runs measure whole rounds, so every run of
# a workload sees the same mix whatever its seed.

# Besides one outside table per stratum (classify-out, about 1.7 s each):
# enough process matrices (about 0.2 s each) that quantum validity and the
# trace rule take about a fifth of a round, while the outside tables stay above
# a fifth of its requests, so the tail percentile falls among them.
CERTIFY_MIX = {"classify-in": 2, "pc": 2, "pm-valid": 5, "pm-invalid": 5}


def enough_rounds(busy: float, rounds: int, seconds: float) -> bool:
    """Whether a run that spent ``busy`` seconds on ``rounds`` rounds should
    stop: one more round would end further from ``seconds`` than now."""
    return rounds > 0 and busy + busy / rounds / 2 >= seconds


def round_rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def certify_round(seed: int, index: int, vertices) -> list[dict]:
    rng = round_rng(seed, "certify", index)
    reqs: list[dict] = []
    for stratum in outside_strata(vertices):
        reqs.append({"kind": "classify-out", "scenario": BIPARTITE,
                     "table": outside_correlation(rng, stratum)})
    for _ in range(CERTIFY_MIX["classify-in"]):
        reqs.append({"kind": "classify-in", "scenario": BIPARTITE,
                     "table": inside_correlation(rng, vertices)})
    for _ in range(CERTIFY_MIX["pc"]):
        reqs.append({"kind": "pc", "game": random_game(rng, TRIPARTITE)})
    for _ in range(CERTIFY_MIX["pm-valid"]):
        reqs.append({"kind": "pm-valid", "scenario": TRIPARTITE, "table": random_pf_mixture(rng)})
    for _ in range(CERTIFY_MIX["pm-invalid"]):
        reqs.append({"kind": "pm-invalid", "scenario": TRIPARTITE,
                     "table": perturbed(rng, random_pf_mixture(rng))})
    rng.shuffle(reqs)
    return reqs


# --- cli-cold ------------------------------------------------------------------

BUILTIN_GAMES = ("gynin", "gyni", "ocb", "chsh")
FOUR_PARTY_CAP = 2**20  # the 4-party enum-pf must stop at this cap (2^32 candidates)

# Command set of one round: (request kind, causelab arguments, expected exit).
# "{file}" stands for the request's generated input file.
CLI_COMMANDS = (
    [(f"bound:{g}:{s}", ["bound", "--game", g, "--set", s], 0)
     for g in BUILTIN_GAMES for s in ("causal", "dc", "pc")]
    + [
        ("pm-eval:ocb", ["pm-eval", "--process", "ocb"], 0),
        ("pm-eval:bfw", ["pm-eval", "--process", "bfw"], 0),
        ("check:consistent", ["check-consistency", "{file}"], 0),
        ("check:inconsistent", ["check-consistency", "{file}"], 1),
        ("enum-pf:3:2", ["enum-pf", "--parties", "3", "--alphabet", "2", "--reduced"], 0),
        ("classify:gynin-perfect", ["classify", "{file}", "--witness", "gynin"], 0),
        ("classify:gyni-perfect", ["classify", "{file}", "--witness", "gyni"], 0),
        ("classify:pr-box", ["classify", "{file}", "--witness", "chsh"], 0),
        ("hierarchy-demo", ["hierarchy-demo"], 0),
        ("bad:bare-list", ["check-consistency", "{file}"], 2),
        ("bad:malformed-json", ["check-consistency", "{file}"], 2),
        ("bad:missing-scenario", ["check-consistency", "{file}"], 2),
        ("bad:missing-file", ["classify", "{file}"], 2),
        ("bad:wrong-shape", ["classify", "{file}"], 2),
        ("bad:unnormalized", ["classify", "{file}"], 2),
        ("bad:unknown-game", ["bound", "--game", "no-such-game", "--set", "dc"], 2),
        ("cap:enum-pf-4", ["enum-pf", "--parties", "4", "--alphabet", "2", "--reduced",
                           "--cap-candidates", str(FOUR_PARTY_CAP)], 3),
    ]
)


def _guard(args: list[str]) -> None:
    """No command may start an uncapped search over four or more parties."""
    if "--parties" in args and int(args[args.index("--parties") + 1]) >= 4:
        if "--cap-candidates" not in args:
            raise ValueError(f"uncapped multi-party search: {args}")
        if int(args[args.index("--cap-candidates") + 1]) > FOUR_PARTY_CAP:
            raise ValueError(f"cap above {FOUR_PARTY_CAP}: {args}")


def cli_round(seed: int, index: int) -> list[dict]:
    """The command set in seeded order, with the seeded content of each input file.

    A request's ``file`` is JSON text to write before it runs, or None for a
    path that must not exist.
    """
    rng = round_rng(seed, "cli-cold", index)
    consistent = random_pf_mixture(rng)
    inconsistent = perturbed(rng, random_pf_mixture(rng))
    wrong_shape = correlation_json(BIPARTITE, gyni_perfect())
    wrong_shape["p"] = wrong_shape["p"][:-1]
    unnormalized = correlation_json(BIPARTITE, gyni_perfect())
    unnormalized["p"][0][rng.randrange(4)] = "1/2"
    files = {
        "check:consistent": process_json(TRIPARTITE, consistent),
        "check:inconsistent": process_json(TRIPARTITE, inconsistent),
        "classify:gynin-perfect": correlation_json(TRIPARTITE, gynin_perfect()),
        "classify:gyni-perfect": correlation_json(BIPARTITE, gyni_perfect()),
        "classify:pr-box": correlation_json(BELL, pr_box()),
        "bad:bare-list": process_json(TRIPARTITE, consistent)["p"],
        "bad:missing-scenario": {"p": rng.randint(1, 9)},
        "bad:wrong-shape": wrong_shape,
        "bad:unnormalized": unnormalized,
    }
    texts = {kind: json.dumps(data) for kind, data in files.items()}
    texts["bad:malformed-json"] = json.dumps(files["check:consistent"])[: rng.randint(10, 60)]
    texts["bad:missing-file"] = None
    reqs = []
    for kind, args, expect in CLI_COMMANDS:
        _guard(args)
        reqs.append({"kind": kind, "args": list(args), "expect_exit": expect,
                     "file": texts.get(kind), "needs_file": "{file}" in args})
    rng.shuffle(reqs)
    return reqs


# Plain definitions of the built-in games, for replaying CLI answers.

def _game(sc: dict, win) -> dict:
    n_a, n_x = prod(sc["settings"]), prod(sc["outcomes"])
    payoff = [0] * (n_x * n_a)
    for a_flat, a in enumerate(tuples(sc["settings"])):
        for x_flat, x in enumerate(tuples(sc["outcomes"])):
            payoff[x_flat * n_a + a_flat] = int(win(x, a))
    return {"scenario": sc, "payoff": payoff, "settings": [Fraction(1, n_a)] * n_a}


def builtin_games() -> dict[str, dict]:
    ocb_sc = {"parties": 2, "settings": [2, 4], "outcomes": [2, 2], "inputs": [2, 2],
              "outputs": [2, 4]}
    return {
        "gynin": _game(TRIPARTITE, lambda x, a: x in ((a[2], a[0], a[1]),
                                                     (1 - a[2], 1 - a[0], 1 - a[1]))),
        "gyni": _game(BIPARTITE, lambda x, a: x == (a[1], a[0])),
        "chsh": _game(BELL, lambda x, a: x[0] ^ x[1] == a[0] & a[1]),
        "ocb": _game(ocb_sc, lambda x, a: x[1] == a[0] if a[1] // 2 == 0 else x[0] == a[1] % 2),
    }
