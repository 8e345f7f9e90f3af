"""Acceptance gate: every criterion at its stated tolerance and time budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Tolerances are pinned here, not configurable.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from causelab import (
    ProcessFunctionMixture,
    QuasiProcessFunction,
    enumerate_process_functions,
    evaluate_correlation,
    is_logically_consistent,
    is_process_function,
    make_scenario,
    mixture_process,
    quasiprocess_from_function,
    universal_realization,
)
from causelab.games import (
    bfw_process,
    builtin_chsh,
    builtin_gyni,
    builtin_gynin,
    causal_bound,
    classify,
    dc_bound,
    gyni_perfect_correlation,
    gynin_perfect_correlation,
    pc_bound_canonical,
    pr_box_correlation,
    score,
)
from causelab.quantum import classical_instruments, diagonal_from_classical, pm_correlation
from causelab import serialize as ser

from conftest import (
    random_correlation,
    random_guessing_game,
    random_interventions,
)

OCB_TARGET = 0.8535533905932737  # (2 + sqrt 2) / 4


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "causelab", *args], capture_output=True, text=True
    )


def report_line(n: int, ok: bool, elapsed: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n} {status} ({elapsed:.2f}s): {detail}")


def test_criterion_1_gynin_dc_bound_via_cli():
    started = time.monotonic()
    proc = run_cli("bound", "--game", "gynin", "--set", "dc")
    elapsed = time.monotonic() - started
    data = json.loads(proc.stdout)
    ok = (
        proc.returncode == 0
        and data["result"]["value"] == "5/8"
        and "process_function" in data["result"]["witness"]
        and elapsed <= 600
    )
    report_line(1, ok, elapsed, "bound --game gynin --set dc == 5/8 with witness")
    assert proc.returncode == 0
    assert data["result"]["value"] == "5/8"
    witness = ser.process_function_from_json(data["result"]["witness"]["process_function"])
    assert is_process_function(witness).is_process_function
    assert elapsed <= 600


def test_criterion_2_gynin_causal_bound_via_cli():
    started = time.monotonic()
    proc = run_cli("bound", "--game", "gynin", "--set", "causal")
    elapsed = time.monotonic() - started
    data = json.loads(proc.stdout)
    ok = proc.returncode == 0 and data["result"]["value"] == "1/2" and elapsed <= 1
    report_line(2, ok, elapsed, "bound --game gynin --set causal == 1/2")
    assert ok


def test_criterion_3_gynin_pc_value_via_cli():
    started = time.monotonic()
    proc = run_cli("bound", "--game", "gynin", "--set", "pc")
    elapsed = time.monotonic() - started
    data = json.loads(proc.stdout)
    optimizer = ser.quasiprocess_from_json(data["result"]["witness"]["process"])
    ok = (
        proc.returncode == 0
        and data["result"]["value"] == "1"
        and optimizer == bfw_process()
        and elapsed <= 30
    )
    report_line(3, ok, elapsed, "bound --game gynin --set pc == 1, optimizer is the cyclic mixture table")
    assert ok


def test_criterion_4_ocb_reproduction_via_cli():
    started = time.monotonic()
    proc = run_cli("pm-eval", "--process", "ocb", "--instruments", "ocb")
    elapsed = time.monotonic() - started
    data = json.loads(proc.stdout)
    score_value = data["result"]["score"]
    ok = (
        proc.returncode == 0
        and abs(score_value - OCB_TARGET) <= 1e-9
        and data["result"]["process_valid"]
        and elapsed <= 1
    )
    report_line(4, ok, elapsed, f"pm-eval ocb score {score_value:.12f} within 1e-9 of (2+sqrt2)/4")
    assert ok


def test_criterion_5_grandfather_detection_via_cli(tmp_path):
    sc = make_scenario(1, 2, 2, 2, 2)
    loop = quasiprocess_from_function(QuasiProcessFunction(sc, ((0, 1),)))
    path = tmp_path / "grandfather.json"
    ser.dump_json(str(path), ser.quasiprocess_to_json(loop))
    started = time.monotonic()
    proc = run_cli("check-consistency", str(path))
    elapsed = time.monotonic() - started
    data = json.loads(proc.stdout)
    ok = (
        proc.returncode == 1
        and data["result"]["certificate"]["output_choice"] == [[1, 0]]
        and data["result"]["certificate"]["total_mass"] == "0"
        and elapsed <= 1
    )
    report_line(5, ok, elapsed, "identity loop rejected with the negation choice, mass 0")
    assert ok


def test_criterion_6_bell_reduction():
    started = time.monotonic()
    chsh = builtin_chsh()
    dc = dc_bound(chsh).value
    pc = pc_bound_canonical(chsh).value
    label = classify(pr_box_correlation(), (chsh,))
    elapsed = time.monotonic() - started
    ok = dc == Fraction(3, 4) and pc == Fraction(3, 4) and label.dc.status == "out" and elapsed <= 10
    report_line(6, ok, elapsed, "trivial-output CHSH: dc == pc == 3/4, PR box outside DC")
    assert ok


def test_criterion_7_bipartite_collapse():
    started = time.monotonic()
    gyni = builtin_gyni()
    causal = causal_bound(gyni).value
    dc = dc_bound(gyni).value
    pc = pc_bound_canonical(gyni).value
    elapsed = time.monotonic() - started
    ok = causal == dc == pc == Fraction(1, 2) and elapsed <= 60
    report_line(7, ok, elapsed, "gyni: causal == dc == pc == 1/2")
    assert ok


def test_criterion_8_hierarchy_witnesses():
    started = time.monotonic()
    gynin = builtin_gynin()
    gynin_point = gynin_perfect_correlation()
    label = classify(gynin_point, (gynin,))

    assert label.pc.status == "in" and label.dc.status == "out"
    # replay every certificate exactly
    qc_replay = evaluate_correlation(
        label.qc.certificate["process"], label.qc.certificate["interventions"]
    )
    assert qc_replay.table == gynin_point.table
    pc_replay = evaluate_correlation(
        label.pc.certificate["process"], label.pc.certificate["interventions"]
    )
    assert pc_replay.table == gynin_point.table
    cert = label.dc.certificate
    assert score(gynin, gynin_point) == cert["score"] > cert["dc_bound"]
    assert cert["dc_bound"] == dc_bound(gynin).value

    gyni = builtin_gyni()
    gyni_point = gyni_perfect_correlation()
    gyni_label = classify(gyni_point, (gyni,))
    assert gyni_label.dc.status == "out"
    gyni_cert = gyni_label.dc.certificate
    assert score(gyni, gyni_point) == gyni_cert["score"] > gyni_cert["dc_bound"]
    assert gyni_cert["separation"] > 0

    elapsed = time.monotonic() - started
    ok = elapsed <= 60
    report_line(
        8, ok, elapsed, "gynin-perfect PC-in/DC-out, gyni-perfect DC-out, certificates replay"
    )
    assert ok


class TestCriterion9PropertySuites:
    started = time.monotonic()

    def test_oracle_equivalence_exhaustive(self):
        t0 = time.monotonic()
        for n_parties in (1, 2):
            sc = make_scenario(n_parties, 2, 2, 2, 2)
            domain = sc.n_outputs
            for maps in itertools.product(
                itertools.product(range(2), repeat=domain), repeat=n_parties
            ):
                omega = QuasiProcessFunction(sc, maps)
                assert (
                    is_logically_consistent(quasiprocess_from_function(omega)).consistent
                    == is_process_function(omega).is_process_function
                )
        report_line(9, True, time.monotonic() - t0, "oracle equivalence exhaustive at 1-2 parties")

    def test_mixture_closure_thousand_random(self):
        t0 = time.monotonic()
        rng = random.Random(2026)
        sc = make_scenario(2, 2, 2, 2, 2)
        functions = list(enumerate_process_functions(sc))
        for _ in range(1000):
            chosen = rng.sample(functions, rng.randint(1, 5))
            raw = [Fraction(rng.randint(1, 7)) for _ in chosen]
            total = sum(raw)
            mix = ProcessFunctionMixture(tuple((f, w / total) for f, w in zip(chosen, raw)))
            assert is_logically_consistent(mixture_process(mix)).consistent
        report_line(9, True, time.monotonic() - t0, "mixture closure on 10^3 random mixtures")

    def test_diagonal_bridge_hundred_random(self):
        t0 = time.monotonic()
        rng = random.Random(2027)
        for trial in range(100):
            n_parties = 1 + trial % 2
            sc = make_scenario(n_parties, 2, 2, 2, 2)
            functions = list(enumerate_process_functions(sc))
            size = min(len(functions), 4)
            chosen = rng.sample(functions, size)
            weights = [Fraction(1, size)] * size  # dyadic or exact thirds stay in budget
            if size == 3:
                weights = [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]
            process = mixture_process(ProcessFunctionMixture(tuple(zip(chosen, weights))))
            family = random_interventions(rng, sc)
            exact = evaluate_correlation(process, family)
            numeric = pm_correlation(
                diagonal_from_classical(process), classical_instruments(family)
            )
            worst = max(abs(float(e) - v) for e, v in zip(exact.table, numeric.table))
            assert worst <= 1e-12
        report_line(9, True, time.monotonic() - t0, "diagonal bridge <= 1e-12 on 10^2 processes")

    def test_bound_monotonicity_hundred_random_games(self):
        t0 = time.monotonic()
        rng = random.Random(2028)
        for _ in range(100):
            game = random_guessing_game(rng)
            c = causal_bound(game).value
            d = dc_bound.__wrapped__(game).value
            p = pc_bound_canonical(game).value
            assert c <= d <= p <= 1
        report_line(9, True, time.monotonic() - t0, "causal <= dc <= pc on 10^2 random games")

    def test_universal_realization_hundred_round_trips(self):
        t0 = time.monotonic()
        rng = random.Random(2029)
        scenarios = [
            make_scenario(1, 2, 2, 2, 2),
            make_scenario(2, 2, 2, 2, 2),
            make_scenario(2, 2, 2, 1, 1),
            make_scenario(3, 2, 2, 2, 2),
        ]
        for trial in range(100):
            sc = scenarios[trial % len(scenarios)]
            corr = random_correlation(rng, sc)
            process, family = universal_realization(corr)
            assert evaluate_correlation(process, family).table == corr.table
        report_line(9, True, time.monotonic() - t0, "universal realization exact on 10^2 tables")

    def test_full_property_suite_within_budget(self):
        elapsed = time.monotonic() - self.started
        report_line(9, elapsed <= 900, elapsed, "criterion-9 suite total wall time")
        assert elapsed <= 900
