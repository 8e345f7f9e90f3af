"""
Command-line surface tying the library into reproducible experiments.

Every subcommand writes one JSON report to stdout embedding the command, the
effective configuration (seed, caps), and the library version, with
sorted keys so that identical configurations produce byte-identical reports.
Timing goes to stderr.  Exit codes: 0 success, 1 property violated or an
inconsistent object detected, 2 bad input (including an input path that
cannot be read), 3 a cap was exceeded.

Importing this module imports every causelab module but not numpy: the
numeric modules take ``np`` from ``causelab._lazy``, which loads numpy on the
first numeric call.  Causal bounds, rejected inputs and surveys that a cap
stops before they start exit without it.  The output-choice table (behind the
process-function survey, the consistency vertex test and the PC LP rows), the
DC search and every process-matrix command load it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .consistency import CANDIDATE_CAP, enumerate_process_functions, is_logically_consistent
from .errors import (
    CapExceeded,
    InvalidScenario,
    InvalidTable,
    NonDiagonal,
    NotCanonicalizable,
    ScenarioMismatch,
    SearchSpaceTooLarge,
)
from .games import (
    ClassLabel,
    builtin_game,
    builtin_gyni,
    builtin_gynin,
    builtin_ocb,
    causal_bound,
    classify,
    dc_bound,
    gyni_perfect_correlation,
    gynin_perfect_correlation,
    pc_bound_canonical,
    pr_box_correlation,
    bfw_process,
    builtin_chsh,
    score,
)
from .lp import HULL_VERTEX_CAP
from .quantum import (
    builtin_bfw,
    builtin_ocb as builtin_ocb_process,
    classical_instruments,
    is_valid_instrument,
    is_valid_process_matrix,
    pm_correlation,
)
from .scenario import canonical_interventions, make_scenario
from . import serialize

OCB_TARGET = 0.8535533905932737  # (2 + sqrt 2) / 4


def _rat(value: Fraction) -> str:
    return serialize.rational_to_str(value)


def _jsonify(obj):
    if isinstance(obj, Fraction):
        return _rat(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def _load_game(spec: str):
    try:
        return builtin_game(spec)
    except KeyError:
        if os.path.exists(spec):
            return serialize.game_from_json(serialize.load_json(spec))
        raise InvalidTable(f"unknown game {spec!r}: not a built-in name or a readable file")


def _config(args, extra: dict) -> dict:
    config = {
        "seed": args.seed,
        "format": args.format,
        "caps": {"candidates": args.cap_candidates, "hull_vertices": args.cap_vertices},
    }
    config.update(extra)
    return config


def _emit(args, command: str, config: dict, result: dict) -> None:
    if args.format == "text":
        default = [json.dumps(_jsonify(result), sort_keys=True, allow_nan=False)]
        for line in result.get("lines", default):
            print(line)
        return
    report = {
        "command": command,
        "config": _jsonify(config),
        "version": __version__,
        "result": _jsonify({k: v for k, v in result.items() if k != "lines"}),
    }
    print(json.dumps(report, sort_keys=True, indent=2, allow_nan=False))


def _cmd_check_consistency(args) -> int:
    qp = serialize.quasiprocess_from_json(serialize.load_json(args.process))
    verdict = is_logically_consistent(qp, cap=args.cap_candidates)
    result = {"consistent": verdict.consistent}
    lines = []
    if verdict.consistent:
        lines.append("consistent: unit mass at every deterministic output choice")
    else:
        result["certificate"] = {
            "output_choice": [list(m) for m in verdict.violation.maps],
            "total_mass": verdict.violation_mass,
        }
        lines.append(
            f"inconsistent: output choice {[list(m) for m in verdict.violation.maps]} "
            f"has total mass {verdict.violation_mass}"
        )
    result["lines"] = lines
    _emit(args, "check-consistency", _config(args, {"process": args.process}), result)
    return 0 if verdict.consistent else 1


def _cmd_enum_pf(args) -> int:
    scenario = make_scenario(
        args.parties, args.alphabet, args.alphabet, args.alphabet, args.alphabet
    )
    functions = list(
        enumerate_process_functions(scenario, reduced=args.reduced, cap=args.cap_candidates)
    )
    result = {
        "scenario": serialize.scenario_to_json(scenario),
        "count": len(functions),
        "functions": [[list(c) for c in fn.maps] for fn in functions],
        "lines": [f"{len(functions)} process functions"],
    }
    _emit(
        args,
        "enum-pf",
        _config(args, {"parties": args.parties, "alphabet": args.alphabet, "reduced": args.reduced}),
        result,
    )
    return 0


def _cmd_bound(args) -> int:
    game = _load_game(args.game)
    if args.set == "causal":
        res = causal_bound(game)
        value, witness = res.value, {"strategy": res.strategy}
    elif args.set == "dc":
        res = dc_bound(game, candidate_cap=args.cap_candidates)
        value = res.value
        witness = {
            "process_function": serialize.process_function_to_json(res.witness_function),
            "intervention": {
                "output_maps": [
                    [list(per_a) for per_a in maps]
                    for maps in res.witness_intervention.output_maps
                ],
                "outcome_maps": [
                    [list(per_a) for per_a in maps]
                    for maps in res.witness_intervention.outcome_maps
                ],
            },
            "functions_searched": res.functions_searched,
        }
    else:
        res = pc_bound_canonical(game, choice_cap=args.cap_candidates)
        value = res.value
        witness = {"process": serialize.quasiprocess_to_json(res.process)}

    if args.format == "csv":
        print("game,set,value")
        print(f"{game.name or args.game},{args.set},{_rat(value)}")
        return 0
    result = {
        "game": game.name or args.game,
        "set": args.set,
        "value": value,
        "witness": witness,
        "lines": [f"{args.set} bound for {game.name or args.game}: {_rat(value)}"],
    }
    _emit(args, "bound", _config(args, {"game": args.game, "set": args.set}), result)
    return 0


def _verdicts_to_json(label: ClassLabel) -> dict:
    def convert(verdict) -> dict:
        out = {"status": verdict.status}
        cert = {}
        for key, value in verdict.certificate.items():
            if key == "process":
                cert[key] = serialize.quasiprocess_to_json(value)
            elif key == "interventions":
                cert[key] = serialize.interventions_to_json(value)
            elif key == "vertices":
                cert["n_vertices"] = len(value)
            elif key == "weights":
                cert["support"] = [
                    {"weight": _rat(w), "vertex_index": idx}
                    for idx, w in enumerate(value)
                    if w != 0
                ]
            elif key == "violating_choice":
                cert[key] = None if value is None else [list(m) for m in value.maps]
            else:
                cert[key] = _jsonify(value)
        out["certificate"] = cert
        return out

    return {"qc": convert(label.qc), "pc": convert(label.pc), "dc": convert(label.dc)}


def _cmd_classify(args) -> int:
    corr = serialize.correlation_from_json(serialize.load_json(args.correlation))
    witnesses = tuple(_load_game(name) for name in args.witness or ())
    label = classify(
        corr,
        witnesses,
        vertex_cap=args.cap_vertices,
        candidate_cap=args.cap_candidates,
    )
    payload = _verdicts_to_json(label)
    payload["lines"] = [
        f"qC: {label.qc.status}  PC: {label.pc.status}  DC: {label.dc.status}"
    ]
    _emit(
        args,
        "classify",
        _config(args, {"correlation": args.correlation, "witness": list(args.witness or ())}),
        payload,
    )
    return 0


def _cmd_pm_eval(args) -> int:
    if args.process == "ocb":
        pm, default_instruments = builtin_ocb_process()
        default_game = "ocb"
    elif args.process == "bfw":
        pm, default_instruments = builtin_bfw()
        default_game = "gynin"
    else:
        pm = serialize.process_matrix_from_json(serialize.load_json(args.process))
        default_instruments, default_game = None, None

    if args.instruments == "ocb":
        instruments = builtin_ocb_process()[1]
    elif args.instruments == "canonical":
        instruments = classical_instruments(canonical_interventions(pm.scenario))
    elif args.instruments == "auto":
        if default_instruments is None:
            raise InvalidTable("--instruments auto needs a built-in --process")
        instruments = default_instruments
    else:
        instruments = serialize.instruments_from_json(serialize.load_json(args.instruments))

    pm_report = is_valid_process_matrix(pm)
    instr_reports = [is_valid_instrument(instr) for instr in instruments]
    corr = pm_correlation(pm, instruments)

    game = None
    game_spec = args.game if args.game != "auto" else default_game
    if game_spec is not None:
        game = _load_game(game_spec)
    game_score = None if game is None else float(score(game, corr))

    ok = pm_report.valid and all(r.valid for r in instr_reports)
    result = {
        "process_valid": pm_report.valid,
        "process_report": {
            "hermiticity_deviation": pm_report.hermiticity_deviation,
            "min_eigenvalue": pm_report.min_eigenvalue,
            "normalization_deviation": pm_report.normalization_deviation,
        },
        "instruments_valid": [r.valid for r in instr_reports],
        "correlation": serialize.numeric_correlation_to_json(corr),
        "setting_mass": list(corr.setting_mass()),
        "score": game_score,
        "game": None if game is None else (game.name or game_spec),
        "lines": [
            f"process valid: {pm_report.valid}; instruments valid: {all(r.valid for r in instr_reports)}"
            + (f"; score[{game.name or game_spec}] = {game_score:.9f}" if game_score is not None else "")
        ],
    }
    _emit(
        args,
        "pm-eval",
        _config(args, {"process": args.process, "instruments": args.instruments, "game": args.game}),
        result,
    )
    return 0 if ok else 1


def _cmd_hierarchy_demo(args) -> int:
    checks: list[dict] = []

    def check(name: str, ok: bool, detail: str) -> None:
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    gynin = builtin_gynin()
    gyni = builtin_gyni()
    ocb_game = builtin_ocb()
    chsh = builtin_chsh()

    causal = causal_bound(gynin).value
    check("gynin-causal", causal == Fraction(1, 2), f"causal bound {_rat(causal)} (target 1/2)")

    dc = dc_bound(gynin, candidate_cap=args.cap_candidates)
    check("gynin-dc", dc.value == Fraction(5, 8), f"dc bound {_rat(dc.value)} (target 5/8)")
    replay = dc.witness_intervention.to_family(gynin.scenario)
    from .consistency import quasiprocess_from_function
    from .scenario import evaluate_correlation

    replayed = evaluate_correlation(quasiprocess_from_function(dc.witness_function), replay)
    replay_score = score(gynin, replayed.to_correlation())
    check("gynin-dc-witness", replay_score == dc.value, f"witness replays to {_rat(replay_score)}")

    pc = pc_bound_canonical(gynin, choice_cap=args.cap_candidates)
    bfw = bfw_process()
    check("gynin-pc", pc.value == 1, f"pc bound {_rat(pc.value)} (target 1)")
    check("gynin-pc-bfw", pc.process.table == bfw.table, "optimal process equals the cyclic mixture table")

    gynin_point = gynin_perfect_correlation()
    label = classify(
        gynin_point, (gynin,), vertex_cap=args.cap_vertices, candidate_cap=args.cap_candidates
    )
    check(
        "gynin-point",
        label.pc.status == "in" and label.dc.status == "out" and label.qc.status == "in",
        f"qC {label.qc.status}, PC {label.pc.status}, DC {label.dc.status}",
    )

    for name, bound_fn, target in (
        ("gyni-causal", lambda: causal_bound(gyni).value, Fraction(1, 2)),
        ("gyni-dc", lambda: dc_bound(gyni, candidate_cap=args.cap_candidates).value, Fraction(1, 2)),
        ("gyni-pc", lambda: pc_bound_canonical(gyni, choice_cap=args.cap_candidates).value, Fraction(1, 2)),
    ):
        value = bound_fn()
        check(name, value == target, f"{_rat(value)} (target {_rat(target)})")

    gyni_point = gyni_perfect_correlation()
    gyni_label = classify(
        gyni_point, (gyni,), vertex_cap=args.cap_vertices, candidate_cap=args.cap_candidates
    )
    check("gyni-point", gyni_label.dc.status == "out", f"DC {gyni_label.dc.status}")

    pm, instruments = builtin_ocb_process()
    pm_ok = is_valid_process_matrix(pm).valid
    instr_ok = all(is_valid_instrument(i).valid for i in instruments)
    ocb_score = float(score(ocb_game, pm_correlation(pm, instruments)))
    ocb_causal = causal_bound(ocb_game).value
    check("ocb-valid", pm_ok and instr_ok, "process and instruments pass validity")
    check("ocb-score", abs(ocb_score - OCB_TARGET) <= 1e-9, f"score {ocb_score:.12f}")
    check(
        "ocb-beats-causal",
        ocb_score > float(ocb_causal) + 1e-9,
        f"score {ocb_score:.6f} > causal bound {_rat(ocb_causal)}",
    )

    chsh_dc = dc_bound(chsh, candidate_cap=args.cap_candidates).value
    chsh_pc = pc_bound_canonical(chsh, choice_cap=args.cap_candidates).value
    check("chsh-bounds", chsh_dc == Fraction(3, 4) and chsh_pc == Fraction(3, 4), f"dc {_rat(chsh_dc)}, pc {_rat(chsh_pc)}")
    pr_label = classify(pr_box_correlation(), (chsh,), vertex_cap=args.cap_vertices)
    check("pr-box", pr_label.dc.status == "out", f"DC {pr_label.dc.status}")

    # The three strict inclusions, witnessed where the tool can certify them.
    inclusion = [
        {
            "inclusion": "DC < PC",
            "witness": "gynin-perfect",
            "certified": score(gynin, gynin_point) == 1 and dc.value == Fraction(5, 8),
            "detail": "perfect winning behaviour is probabilistically consistent, above the 5/8 dc bound",
        },
        {
            "inclusion": "PC < QP",
            "witness": "ocb",
            "certified": abs(ocb_score - OCB_TARGET) <= 1e-9 and ocb_causal == Fraction(3, 4),
            "detail": "process-matrix score exceeds the causal value 3/4; bipartite consistent "
            "environments are causal (documented external fact)",
        },
        {
            "inclusion": "QP < qC",
            "witness": "gyni-perfect",
            "certified": gyni_label.qc.status == "in" and gyni_label.dc.status == "out",
            "detail": "perfect bipartite guessing is quasi-consistent yet provably beyond process "
            "matrices (documented external fact)",
        },
    ]
    for item in inclusion:
        check(f"inclusion[{item['inclusion']}]", bool(item["certified"]), item["detail"])

    membership = {
        "gynin-perfect": {"qC": "in", "QP": "in", "PC": label.pc.status, "DC": label.dc.status},
        "ocb": {"qC": "in", "QP": "in", "PC": "out (documented)", "DC": "out (witness)"},
        "gyni-perfect": {
            "qC": gyni_label.qc.status,
            "QP": "out (documented)",
            "PC": "out (documented)",
            "DC": gyni_label.dc.status,
        },
    }

    ok = all(c["ok"] for c in checks)
    lines = [
        f"{'PASS' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}" for c in checks
    ]
    lines.append("set membership of the named points:")
    for point, sets in membership.items():
        lines.append(
            f"  {point}: " + ", ".join(f"{name} {status}" for name, status in sets.items())
        )
    result = {"checks": checks, "membership": membership, "all_passed": ok, "lines": lines}
    _emit(args, "hierarchy-demo", _config(args, {}), result)
    return 0 if ok else 1


_GLOBAL_DEFAULTS = {
    "seed": None,
    "format": "json",
    "cap_candidates": CANDIDATE_CAP,
    "cap_vertices": HULL_VERTEX_CAP,
}


def build_parser() -> argparse.ArgumentParser:
    # Global options accept either position (before or after the subcommand);
    # SUPPRESS defaults keep the later parse from clobbering earlier values.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="recorded in every report"
    )
    common.add_argument("--format", choices=("json", "csv", "text"), default=argparse.SUPPRESS)
    common.add_argument("--cap-candidates", type=int, default=argparse.SUPPRESS)
    common.add_argument("--cap-vertices", type=int, default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(
        prog="causelab",
        description="Bounds, consistency checks, and process-matrix evaluation for "
        "single-round communication scenarios.",
        parents=[common],
    )

    sub = parser.add_subparsers(dest="command", required=True)
    sub_kwargs = {"parents": [common]}

    p = sub.add_parser("check-consistency", help="vertex test of a quasi-process file", **sub_kwargs)
    p.add_argument("process", help="quasi-process JSON file")
    p.set_defaults(handler=_cmd_check_consistency)

    p = sub.add_parser("enum-pf", help="enumerate process functions", **sub_kwargs)
    p.add_argument("--parties", type=int, required=True)
    p.add_argument("--alphabet", type=int, required=True)
    p.add_argument("--reduced", action="store_true")
    p.set_defaults(handler=_cmd_enum_pf)

    p = sub.add_parser("bound", help="causal / dc / pc bound of a game", **sub_kwargs)
    p.add_argument("--game", required=True, help="gyni|gynin|ocb|chsh or a game JSON file")
    p.add_argument("--set", required=True, choices=("causal", "dc", "pc"))
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("classify", help="hierarchy membership of a correlation file", **sub_kwargs)
    p.add_argument("correlation", help="correlation JSON file")
    p.add_argument("--witness", action="append", help="witness game (name or file); repeatable")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("pm-eval", help="evaluate a process matrix with instruments", **sub_kwargs)
    p.add_argument("--process", required=True, help="ocb|bfw or a process-matrix JSON file")
    p.add_argument(
        "--instruments", default="auto", help="ocb|canonical|auto or an instruments JSON file"
    )
    p.add_argument("--game", default="auto", help="auto|gyni|gynin|ocb|chsh or a game JSON file")
    p.set_defaults(handler=_cmd_pm_eval)

    p = sub.add_parser("hierarchy-demo", help="run the full demonstration table", **sub_kwargs)
    p.set_defaults(handler=_cmd_hierarchy_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, default in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, name):
            setattr(args, name, default)
    problem = None
    if args.format == "csv" and args.command != "bound":
        problem = "csv output is limited to bound tables"
    for flag in ("cap_candidates", "cap_vertices"):
        if getattr(args, flag) < 1:
            problem = f"--{flag.replace('_', '-')} must be at least 1, got {getattr(args, flag)}"
    if problem:
        print(json.dumps({"error": "bad-input", "message": problem}), file=sys.stderr)
        return 2
    started = time.monotonic()
    try:
        code = args.handler(args)
    except (SearchSpaceTooLarge, CapExceeded) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 3
    except (
        InvalidTable,
        InvalidScenario,
        ScenarioMismatch,
        NotCanonicalizable,
        NonDiagonal,
        OSError,
        json.JSONDecodeError,
        KeyError,
        ValueError,
    ) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    print(json.dumps({"runtime_ms": int((time.monotonic() - started) * 1000)}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
