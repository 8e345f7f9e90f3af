"""causelab benchmark.

    python3 bench/run.py --workload {cli-cold,certify} --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; causelab is imported from the checkout's
``src/`` only, and the run stops with exit 2 if that is missing.  Every
workload is a closed loop: one client in one process sends the next request
when the previous one has completed.

* ``cli-cold``: a seeded shuffle of README-style ``causelab`` commands, each a
  fresh interpreter, one at a time (latency runs from spawn to exit).  It pays
  interpreter start, import, argparse, JSON emission and a cold survey on
  every request, and it includes bad-input files and a capped 4-party search.
* ``certify``: one library session checking objects: ``classify`` of seeded
  bipartite correlations inside and outside the DC hull,
  ``pc_bound_canonical`` of random tripartite games, and
  ``is_valid_process_matrix`` + ``pm_correlation`` of diagonal process
  matrices from process-function mixtures, valid and perturbed.  The exact
  simplex does most of the work, with quantum validity about a fifth; the
  outside-hull tables, whose separation LP is the slowest request, are over a
  fifth of the requests, so the tail percentile reads them.

A run repeats whole rounds (a fixed mix of request kinds in seeded order,
fresh seeded inputs each round) and stops at the round boundary nearest to
``--seconds`` of requests, so every run sees the same mix.  Every answer is
checked (see ``checks.py``).  ``setup_s`` is the median of set-up probes taken
at every round boundary (see ``session.probe_setup``).
With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the run makes an untraced and a traced pass over round 0 and
reports the per-layer metrics of the traced pass (see ``tracing.py``); its
report also gives each layer's share of the traced wall time.  The full
report, and the spans of a traced run, go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SESSION = os.path.join(BENCH, "session.py")
SHIM = os.path.join(BENCH, "cli_shim.py")

sys.path.insert(0, BENCH)
import checks  # noqa: E402
import inputs  # noqa: E402
import session  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("cli-cold", "certify")
DEADLINE_S = 150.0  # no new round starts after this much wall time
CLI_TIMEOUT_S = {"hierarchy-demo": 60}
CLI_DEFAULT_TIMEOUT_S = 30
# The tail is the highest percentile with at least ten samples beyond it in a
# run of the benchmark's length; it is fixed per workload so that a faster
# commit, which fits more rounds into a run, is read at the same percentile.
TAIL_PERCENTILE = {"cli-cold": 80, "certify": 85}
# Failures that record a known defect instead of hiding it.  At the commit
# that added the benchmark, check-consistency on a bare JSON list exits 1 with
# a TypeError traceback instead of exit 2 (ROADMAP item 4).
KNOWN_DEFECTS = {"bad:bare-list": (1, "TypeError")}

END_TO_END = {
    "setup_s": "s", "requests_per_s": "1/s", "latency_p50_s": "s", "latency_tail_s": "s",
    "success_fraction": "ratio", "peak_rss_mb": "MB",
}
# Times that are no traced layer's: the remainder buckets (the benchmark's own
# request span; interpreter start and exit) and CPU time.
REMAINDER_METRICS = (tracing.ROOT_METRIC, "process.startup_s", "process.cpu_s")
EXTRA_LAYER_METRICS = (
    "cli.stdout_bytes", "process.import_s", "process.startup_s", "process.cpu_s",
    "trace.overhead_ratio", "trace.accounted_ratio",
)


def per_layer_names() -> list[str]:
    return sorted(set(tracing.layer_metrics([])) | set(EXTRA_LAYER_METRICS))


def is_time(name: str) -> bool:
    return name.endswith(("_s", ".s"))


def unit_of(name: str) -> str:
    if is_time(name):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "lp.max_den_bits":
        return "bits"
    if name == "cli.stdout_bytes":
        return "bytes"
    return "count"


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def machine_info() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
            **versions}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _children_usage() -> tuple[float, int]:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss


# --- cli-cold ----------------------------------------------------------------------


def run_cli_request(req: dict, rid: str, files_dir: str, spans_dir: str | None) -> dict:
    path = os.path.join(files_dir, req["kind"].replace(":", "_") + ".json")
    if req["file"] is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(req["file"])
    elif os.path.exists(path):
        os.remove(path)
    args = [path if a == "{file}" else a for a in req["args"]]
    if spans_dir is None:
        cmd = [sys.executable, "-m", "causelab", *args]
    else:
        cmd = [sys.executable, SHIM, os.path.join(spans_dir, rid + ".jsonl"), rid, "--", *args]
    rec = {"id": rid, "kind": req["kind"]}
    cpu0, _ = _children_usage()
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              timeout=CLI_TIMEOUT_S.get(req["kind"], CLI_DEFAULT_TIMEOUT_S))
    except subprocess.TimeoutExpired:
        rec.update(latency_s=time.perf_counter() - start, exit=None, error="timeout",
                   stdout="", stderr="")
        return rec
    rec["latency_s"] = time.perf_counter() - start
    rec["cpu_s"] = _children_usage()[0] - cpu0
    rec.update(exit=proc.returncode, stdout=proc.stdout.decode(), stderr=proc.stderr.decode())
    rec["stdout_sha256"] = inputs.fingerprint(rec["stdout"])
    rec["stdout_bytes"] = len(proc.stdout)
    for line in rec["stderr"].splitlines():
        if line.startswith('{"runtime_ms"'):
            rec["runtime_ms"] = json.loads(line)["runtime_ms"]
    return rec


def cli_pass(seed: int, round_index: int, spans_dir: str | None, refs) -> tuple[list[dict], float, str]:
    reqs = inputs.cli_round(seed, round_index)
    files_dir = os.path.join(OUT, f"cli-cold-seed{seed}", f"round{round_index}")
    os.makedirs(files_dir, exist_ok=True)
    records = []
    loop_start = time.perf_counter()
    for index, req in enumerate(reqs):
        records.append(run_cli_request(req, f"{round_index}.{index}", files_dir, spans_dir))
    wall = time.perf_counter() - loop_start
    for req, rec in zip(reqs, records):
        grade_cli(refs, req, rec)
    return records, wall, inputs.fingerprint(reqs)


def grade_cli(refs, req: dict, rec: dict) -> None:
    if rec.get("error") == "timeout":
        rec["ok"] = False
    else:
        data = json.loads(req["file"]) if req["file"] and not req["kind"].startswith("bad:") else None
        try:
            problem = checks.check_cli(refs, req, rec["exit"], rec["stdout"], rec["stderr"], data)
        except (KeyError, ValueError, TypeError) as exc:
            problem = f"malformed report: {type(exc).__name__}: {exc}"
        rec["ok"] = problem is None
        if problem:
            rec["error"] = problem
        rec["answer"] = checks.cli_answer_key(req, rec["exit"], rec["stdout"]) if rec["ok"] else None
    known = KNOWN_DEFECTS.get(rec["kind"])
    rec["known_defect"] = bool(
        not rec["ok"] and known and rec["exit"] == known[0] and known[1] in rec["stderr"]
    )
    del rec["stdout"], rec["stderr"]


# --- library sessions ------------------------------------------------------------------


def session_pass(seed: int, mode: str, seconds: float, trace_path: str | None, refs,
                 timeout: float) -> dict:
    out = os.path.join(OUT, f"certify-seed{seed}-{mode}{'-traced' if trace_path else ''}.json")
    cmd = [sys.executable, SESSION, "--workload", "certify", "--mode", mode, "--seed", str(seed),
           "--seconds", str(seconds), "--out", out]
    if trace_path:
        cmd += ["--trace", trace_path]
    subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True, timeout=timeout)
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    vertices = refs.vertices["bipartite"]
    rounds = [inputs.certify_round(seed, r, vertices) for r in range(result["rounds"])]
    expected = [inputs.fingerprint(reqs) for reqs in rounds]
    if result["input_fingerprints"] != expected:
        raise RuntimeError("session generated other inputs than the parent")
    reqs = [req for reqs in rounds for req in reqs]
    for req, rec in zip(reqs, result["records"]):
        if rec["exit"] == 0:
            problem = checks.check_session(refs, req, rec["answer"])
            rec["ok"] = problem is None
            if problem:
                rec["error"] = problem
        else:
            rec["ok"] = False
        rec["known_defect"] = False
        rec["answer_key"] = checks.answer_key(rec["kind"], rec.get("answer") if rec["ok"] else None)
    result["fingerprint"] = expected[0]
    return result


# --- metrics ---------------------------------------------------------------------------


def latency_summary(workload: str, records: list[dict]) -> dict:
    lat = [r["latency_s"] for r in records]
    q = TAIL_PERCENTILE[workload]
    kinds: dict[str, list[dict]] = {}
    for r in records:
        kinds.setdefault(r["kind"], []).append(r)
    per_kind = {}
    for kind, recs in sorted(kinds.items()):
        entry = {"count": len(recs), "latency_median_s": statistics.median(r["latency_s"] for r in recs),
                 "latency_max_s": max(r["latency_s"] for r in recs)}
        runtimes = [r["runtime_ms"] for r in recs if "runtime_ms" in r]
        if runtimes:
            entry["runtime_ms_median"] = statistics.median(runtimes)
        per_kind[kind] = entry
    return {
        "p50_s": percentile(lat, 50),
        "tail": {"percentile": q, "value_s": percentile(lat, q), "samples": len(lat),
                 "samples_beyond": sum(1 for v in lat if v > percentile(lat, q))},
        "per_kind": per_kind,
    }


def answers_fingerprint(records: list[dict], key: str) -> str:
    return inputs.fingerprint(sorted(f"{r['id']}={r[key]}" for r in records))


def trace_cli(seed: int, refs, spans_dir: str):
    """Round 0 untraced, then through the CLI shim; process-level facts from the shim."""
    plain, plain_wall, fp = cli_pass(seed, 0, None, refs)
    cpu0, _ = _children_usage()
    traced, wall, _ = cli_pass(seed, 0, spans_dir, refs)
    cpu = _children_usage()[0] - cpu0
    processes = [tracing.read_spans(os.path.join(spans_dir, r["id"] + ".jsonl")) for r in traced]
    span_sets = [spans for _, spans in processes]
    import_s = sum(p.get("import_s", 0.0) for p, _ in processes)
    in_main = sum(s["end"] - s["start"] for spans in span_sets for s in spans if s["parent"] < 0)
    extra = {
        "process.import_s": import_s,
        "process.startup_s": wall - import_s - in_main,  # interpreter start, exit and the shim
        "process.cpu_s": cpu,
        "cli.stdout_bytes": sum(r.get("stdout_bytes", 0) for r in traced),
    }
    return plain, plain_wall, traced, wall, fp, span_sets, extra


def trace_session(seed: int, refs, spans_dir: str, deadline: float):
    """Round 0 in an untraced session, then in a traced one."""
    plain = session_pass(seed, "round", 0, None, refs, (deadline - time.perf_counter()) / 2)
    spans_path = os.path.join(spans_dir, "session.jsonl")
    traced = session_pass(seed, "round", 0, spans_path, refs, deadline - time.perf_counter())
    process, spans = tracing.read_spans(spans_path)
    extra = {"process.import_s": 0.0, "process.startup_s": 0.0,
             "process.cpu_s": process["cpu_s"], "cli.stdout_bytes": 0}
    return (plain["records"], plain["busy_s"], traced["records"], traced["busy_s"],
            plain["fingerprint"], [spans], extra)


def traced_run(args, refs, report: dict, deadline: float) -> tuple[list[dict], dict]:
    spans_dir = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}")
    shutil.rmtree(spans_dir, ignore_errors=True)
    os.makedirs(spans_dir)
    if args.workload == "cli-cold":
        plain, plain_wall, traced, wall, fp, span_sets, extra = trace_cli(args.seed, refs, spans_dir)
    else:
        plain, plain_wall, traced, wall, fp, span_sets, extra = trace_session(
            args.seed, refs, spans_dir, deadline)
    metrics = tracing.layer_metrics(span_sets)
    metrics.update(extra)
    metrics["trace.overhead_ratio"] = (len(traced) / wall) / (len(plain) / plain_wall)
    # Share of the traced wall time inside named layers (import included);
    # time outside them lowers the ratio.
    accounted = sum(v for k, v in metrics.items() if is_time(k) and k not in REMAINDER_METRICS)
    metrics["trace.accounted_ratio"] = accounted / wall
    report["time_shares"] = {
        layer: sum(v for k, v in metrics.items() if k.startswith(layer + ".") and is_time(k)) / wall
        for layer in ("cli", "serialize", "consistency", "games", "lp", "quantum", "scenario")
    }
    key = answer_field(args.workload)

    def outputs(records):
        return [{"id": r["id"], "exit": r["exit"], "stdout_sha256": r.get("stdout_sha256"),
                 "answer": r.get(key)} for r in records]

    report["trace_mismatches"] = tracing.same_outputs(outputs(plain), outputs(traced))
    report["fingerprint"] = {"inputs": fp, "answers": answers_fingerprint(plain, key)}
    report["latency_untraced"] = latency_summary(args.workload, plain)
    report["latency_traced"] = latency_summary(args.workload, traced)
    return plain + traced, metrics


def measured_run(args, refs, report: dict, started: float) -> tuple[list[dict], dict]:
    if args.workload == "cli-cold":
        records, busy, index, fps, setup = [], 0.0, 0, [], []
        session.probe_setup(args.workload, setup)
        while True:
            recs, wall, fp = cli_pass(args.seed, index, None, refs)
            records += recs
            fps.append(fp)
            busy += wall
            index += 1
            done = (inputs.enough_rounds(busy, index, args.seconds)
                    or time.perf_counter() - started >= DEADLINE_S)
            session.probe_setup(args.workload, setup, last=done)
            if done:
                break
        peak_kb = _children_usage()[1]
        first = [r for r in records if r["id"].startswith("0.")]
    else:
        res = session_pass(args.seed, "measure", args.seconds, None, refs,
                           started + 170 - time.perf_counter())
        records, busy, index, peak_kb = res["records"], res["busy_s"], res["rounds"], res["peak_rss_kb"]
        setup = res["setup_samples_s"]
        fps = res["input_fingerprints"]
        first = [r for r in records if r["round"] == 0]
    lat = latency_summary(args.workload, records)
    failed = sum(1 for r in records if not r["ok"])
    metrics = {
        "setup_s": statistics.median(setup),
        "requests_per_s": len(records) / busy,
        "latency_p50_s": lat["p50_s"],
        "latency_tail_s": lat["tail"]["value_s"],
        "success_fraction": 1 - failed / len(records),
        "peak_rss_mb": peak_kb / 1024,
    }
    report.update(setup_samples_s=setup, rounds=index, busy_s=busy, latency=lat,
                  input_fingerprints=fps)
    report["fingerprint"] = {"inputs": fps[0],
                             "answers": answers_fingerprint(first, answer_field(args.workload))}
    if args.workload == "cli-cold":
        report["roadmap_baseline"] = baseline_rows(lat["per_kind"])
    return records, metrics


def answer_field(workload: str) -> str:
    return "answer" if workload == "cli-cold" else "answer_key"


def run(args) -> tuple[dict, dict]:
    started = time.perf_counter()
    refs = checks.References()
    report: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "machine": machine_info()}
    if args.trace:
        records, metrics = traced_run(args, refs, report, started + 170)
    else:
        records, metrics = measured_run(args, refs, report, started)
    failures = [{k: r.get(k) for k in ("id", "kind", "exit", "error", "known_defect")}
                for r in records if not r["ok"]]
    report["failures"] = failures
    correct = (all(f["known_defect"] for f in failures) and not report.get("trace_mismatches"))
    summary = {"correct": correct, "attempted": len(records), "failed": len(failures),
               "metrics": {name: {"value": value, "unit": END_TO_END.get(name) or unit_of(name)}
                           for name, value in sorted(metrics.items())}}
    report["result"] = summary
    return report, summary


# Rows of the ROADMAP Baseline table (single runs, handler time from the CLI's
# runtime_ms line), next to the same commands' median handler time here.
ROADMAP_BASELINE_MS = {
    "bound:gynin:dc": 540, "bound:gynin:pc": 200, "hierarchy-demo": 2340, "pm-eval:ocb": 7,
    "classify:gyni-perfect": 1050,
}


def baseline_rows(per_kind: dict) -> dict:
    return {kind: {"roadmap_ms": ms, "measured_ms": per_kind.get(kind, {}).get("runtime_ms_median")}
            for kind, ms in ROADMAP_BASELINE_MS.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "causelab", "__init__.py")):
        print(f"no causelab sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    report, summary = run(args)
    path = os.path.join(OUT, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    if args.trace:
        names = per_layer_names()
        if set(summary["metrics"]) != set(names):
            raise RuntimeError("per-layer metrics differ from the declared list")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
