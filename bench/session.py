"""One library session of the certify workload, or the set-up probe of any
workload.  ``run.py`` starts it as a child process:

    python3 bench/session.py --workload W --mode setup
    python3 bench/session.py --workload certify --seed N --mode measure --seconds S --out FILE
    python3 bench/session.py --workload certify --seed N --mode round --out FILE [--trace SPANS]

``setup`` imports causelab and loads what the workload needs before its first
request (the survey of each scenario it uses stays warm), then exits.
``measure`` sets up, then runs whole seeded rounds and stops at the round
boundary nearest to ``--seconds`` spent in requests; at each round boundary it
also times set-up probes (see ``probe_setup``).  ``round`` runs round 0 only,
traced when ``--trace`` names a span file.  Results go to ``--out`` as JSON;
the parent checks them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Per-request timeouts in seconds, several times the slowest request seen.
TIMEOUT_S = {
    "classify-in": 20, "classify-out": 60, "pc": 20, "pm-valid": 20, "pm-invalid": 20,
}


SESSION_DEADLINE_S = 120  # no new round starts after this much wall time
# Set-up is sampled at every round boundary of a measured run, so that its
# median spans the run instead of the host's state at one moment.
SETUP_PROBES_PER_BOUNDARY = 2
SETUP_MIN_PROBES = 9


class RequestTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RequestTimeout("request exceeded its timeout")


def import_causelab():
    """Import causelab from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, SRC)
    import causelab

    if not os.path.abspath(causelab.__file__).startswith(SRC + os.sep):
        raise ImportError(f"causelab imported from {causelab.__file__}, not {SRC}")
    return causelab


def setup(workload: str) -> dict:
    """Program set-up of a workload; the returned objects are what requests use."""
    causelab = import_causelab()
    from causelab import consistency, quantum, scenario

    ctx: dict = {"causelab": causelab}
    if workload == "cli-cold":
        import causelab.cli  # noqa: F401  (what every CLI request imports)

        for name in ("gynin", "gyni", "ocb", "chsh"):
            causelab.builtin_game(name)
        quantum.builtin_ocb()
        return ctx
    tri = causelab.make_scenario(3, 2, 2, 2, 2)
    ctx["instruments"] = quantum.classical_instruments(scenario.canonical_interventions(tri))
    for sc in (tri, causelab.make_scenario(2, 2, 2, 2, 2)):
        for _ in consistency.enumerate_process_functions(sc):
            pass
    return ctx


def setup_probe(workload: str) -> float:
    """Wall time of a fresh interpreter that imports causelab, sets up
    ``workload`` and exits."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--mode", "setup"]
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, PYTHONPATH=SRC), check=True, timeout=60,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def probe_setup(workload: str, samples: list[float], last: bool = False) -> None:
    """Set-up probes of one round boundary; the last boundary tops the
    samples up to ``SETUP_MIN_PROBES``."""
    count = SETUP_PROBES_PER_BOUNDARY
    if last:
        count = max(count, SETUP_MIN_PROBES - len(samples))
    samples.extend(setup_probe(workload) for _ in range(count))


def _scenario(causelab, sc: dict):
    return causelab.Scenario(
        settings=tuple(sc["settings"]), outcomes=tuple(sc["outcomes"]),
        inputs=tuple(sc["inputs"]), outputs=tuple(sc["outputs"]),
    )


def _rats(values) -> list[str]:
    return [str(v) for v in values]


def build(ctx: dict, req: dict):
    """The causelab objects of one request, made before its clock starts."""
    causelab = ctx["causelab"]
    if "game" in req:
        g = req["game"]
        return causelab.Game(_scenario(causelab, g["scenario"]), tuple(g["payoff"]),
                             tuple(g["settings"]))
    sc = _scenario(causelab, req["scenario"])
    if req["kind"].startswith("classify"):
        return causelab.Correlation(sc, tuple(req["table"]))
    return causelab.QuasiProcess(sc, tuple(req["table"]))


def call(ctx: dict, kind: str, obj):
    """Run one request through causelab's public entry points.

    Functions are looked up on their modules at call time, so the tracer's
    wrappers see every call.
    """
    causelab = ctx["causelab"]
    games, quantum = causelab.games, causelab.quantum
    if kind.startswith("classify"):
        return games.classify(obj)
    if kind == "pc":
        return games.pc_bound_canonical(obj)
    pm = quantum.diagonal_from_classical(obj)
    return quantum.is_valid_process_matrix(pm), quantum.pm_correlation(pm, ctx["instruments"])


def encode(kind: str, result) -> dict:
    """JSON form of a request's answer, for the parent's checks."""
    if kind.startswith("classify"):
        dc, pc = result.dc, result.pc
        out = {"qc": result.qc.status, "pc": pc.status, "dc": dc.status}
        cert = dc.certificate
        if dc.status == "in":
            verts = [[int(v) for v in vert] for vert in cert["vertices"]]
            out["vertices"] = verts
            out["weights"] = _rats(cert["weights"])
        elif dc.status == "out":
            out["functional"] = _rats(cert["separating_functional"])
            out["separation"] = str(cert["separation"])
        return out
    if kind == "pc":
        return {"value": str(result.value), "process": _rats(result.process.table)}
    report, corr = result
    return {
        "valid": report.valid,
        "normalization_deviation": report.normalization_deviation,
        "correlation": list(corr.table),
    }


def run_round(ctx: dict, reqs: list[dict], round_index: int, do=call,
              tracer=None) -> tuple[list[dict], float]:
    """Requests of one round in order through ``do`` (``call`` or its traced
    wrapper); returns their records and the loop's wall time."""
    objs = [build(ctx, req) for req in reqs]
    records = []
    loop_start = time.perf_counter()
    for index, (req, obj) in enumerate(zip(reqs, objs)):
        kind = req["kind"]
        rec = {"id": f"{round_index}.{index}", "round": round_index, "kind": kind}
        signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S[kind])
        start = time.perf_counter()
        if tracer is not None:
            tracer.request = rec["id"]
        try:
            result = do(ctx, kind, obj)
            rec["latency_s"] = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            rec["exit"] = 0
            rec["answer"] = encode(kind, result)
        except Exception as exc:  # a failed request is recorded, and the session goes on
            rec["latency_s"] = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            rec["exit"] = 1
            rec["error"] = f"{type(exc).__name__}: {exc}"
        records.append(rec)
    return records, time.perf_counter() - loop_start


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=("cli-cold", "certify"))
    p.add_argument("--mode", required=True, choices=("setup", "measure", "round"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--out")
    p.add_argument("--trace")
    args = p.parse_args(argv)

    ctx = setup(args.workload)
    if args.mode == "setup":
        return 0

    import inputs

    signal.signal(signal.SIGALRM, _on_alarm)
    vertices = inputs.dc_vertices(inputs.BIPARTITE)
    tracer, do = None, call
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        do = tracer.wrap(call, tracing.ROOT_METRIC, "bench.request")

    records: list[dict] = []
    fingerprints = []
    setup_samples: list[float] = []
    measure = args.mode == "measure"
    if measure:
        probe_setup(args.workload, setup_samples)
    started = time.perf_counter()
    busy = 0.0
    cpu0 = _cpu_s()
    index = 0
    while True:
        reqs = inputs.certify_round(args.seed, index, vertices)
        fingerprints.append(inputs.fingerprint(reqs))
        recs, wall = run_round(ctx, reqs, index, do, tracer)
        records.extend(recs)
        busy += wall
        index += 1
        done = (not measure or inputs.enough_rounds(busy, index, args.seconds)
                or time.perf_counter() - started >= SESSION_DEADLINE_S)
        if measure:
            probe_setup(args.workload, setup_samples, last=done)
        if done:
            break
    cpu = _cpu_s() - cpu0
    if tracer is not None:
        tracer.write(args.trace, {"cpu_s": cpu})
    result = {
        "records": records,
        "busy_s": busy,
        "rounds": index,
        "input_fingerprints": fingerprints,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "cpu_s": cpu,
        "setup_samples_s": setup_samples,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
