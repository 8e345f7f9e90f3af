"""Outside-in tracing of causelab for the benchmark's traced runs.

``install`` rebinds the entry points listed in ``TARGETS`` to wrappers that
record one span per call: a name (the per-layer metric the call's self time
adds to), start and end, the enclosing span and the request id.  A name bound
elsewhere with ``from .x import y`` is rebound in every causelab module that
holds the same object, so ``causelab.cli.dc_bound`` and
``causelab.games.lp_solve`` are traced too.  ``lru_cache``d entry points are
wrapped outside their cache, so a cache hit is a span of its own, marked
``cache_hit``.  ``lp._pivot`` is counted, not spanned, and the count lands on
the enclosing ``lp_solve`` span.

Spans stay in memory and are written as JSON lines when the run ends.
``layer_metrics`` turns them into the per-layer metrics: a span's self time is
its duration minus that of its child spans.  Nothing in ``src/`` changes; the
program itself is not traced.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from math import prod

# (module, attribute, metric its self time adds to); "Class.method" names a method.
TARGETS = [
    ("causelab.cli", "main", "cli.self_s"),
    ("causelab.consistency", "_survey_process_functions", "consistency.survey_s"),
    ("causelab.consistency", "_survey_cached", "consistency.survey_s"),
    ("causelab.consistency", "_candidate_axes", "consistency.survey_s"),
    ("causelab.consistency", "is_logically_consistent", "consistency.vertex_test_s"),
    ("causelab.games", "_DcSearch.function_rows", "games.function_rows_s"),
    ("causelab.games", "_hopt_values", "games.hopt_s"),
    ("causelab.games", "_hopt_detail", "games.hopt_detail_s"),
    ("causelab.games", "dc_bound", "games.dc_bound_self_s"),
    ("causelab.games", "causal_bound", "games.causal_s"),
    ("causelab.games", "pc_bound_canonical", "games.pc_bound_self_s"),
    ("causelab.games", "_deterministic_correlation_vertices", "games.vertices_s"),
    ("causelab.games", "classify", "games.classify_self_s"),
    ("causelab.lp", "lp_solve", "lp.solve_s"),
    ("causelab.lp", "hull_membership", "lp.hull_s"),
    ("causelab.quantum", "is_valid_process_matrix", "quantum.validity_s"),
    ("causelab.quantum", "is_valid_instrument", "quantum.validity_s"),
    ("causelab.quantum", "pm_correlation", "quantum.trace_rule_s"),
    ("causelab.quantum", "diagonal_from_classical", "quantum.build_s"),
    ("causelab.quantum", "classical_instruments", "quantum.build_s"),
    ("causelab.quantum", "builtin_ocb", "quantum.build_s"),
    ("causelab.quantum", "builtin_bfw", "quantum.build_s"),
    ("causelab.scenario", "evaluate_correlation", "scenario.evaluate_s"),
    ("causelab.scenario", "universal_realization", "scenario.universal_s"),
]
SERIALIZE_METRIC = "serialize.s"  # every *_to_json / *_from_json / load_json / dump_json
ROOT_METRIC = "bench.self_s"  # the benchmark's own per-request span


def _serialize_targets() -> list[tuple[str, str, str]]:
    module = sys.modules.get("causelab.serialize")
    if module is None:
        return []
    names = sorted(
        name
        for name, value in vars(module).items()
        if callable(value)
        and getattr(value, "__module__", None) == module.__name__
        and (name.endswith(("_to_json", "_from_json")) or name in ("load_json", "dump_json"))
        and not name.startswith("rational_")
    )
    return [("causelab.serialize", name, SERIALIZE_METRIC) for name in names]


# --- per-call attributes (counts measured where the work happens) -----------


def _attrs_survey(args, result) -> dict:
    return {"kept": len(result)}


def _attrs_candidates(args, result) -> dict:
    """The size of the candidate space, as the survey's generator returns it."""
    return {"candidates": result[1]}


def _attrs_vertex_test(args, result) -> dict:
    sc = args[0].scenario
    return {"choices": prod(d_o**d_i for d_o, d_i in zip(sc.outputs, sc.inputs))}


def _attrs_function_rows(args, result) -> dict:
    rows, _, (_, axes_cards, _) = result
    return {"rows": int(rows.shape[0]), "grid": prod(axes_cards)}


def _attrs_hopt(args, result) -> dict:
    return {"rows": int(args[1].shape[0])}


def _attrs_vertices(args, result) -> dict:
    return {"count": len(result)}


def _attrs_lp(args, result) -> dict:
    lp = args[0]
    dens = [v.denominator for v in (result.x or ())]
    if result.value is not None:
        dens.append(result.value.denominator)
    return {
        "rows": len(lp.eq) + len(lp.le),
        "vars": lp.n_vars,
        "max_den_bits": max((d.bit_length() for d in dens), default=0),
    }


def _attrs_hull(args, result) -> dict:
    return {"outside": int(not result.inside)}


def _family_size(d_in: int, d_out: int) -> int:
    return (d_in * d_out) ** 2 - d_in**2 + 1


def _attrs_validity(args, result) -> dict:
    sc = args[0].scenario
    combos = prod(_family_size(i, o) for i, o in zip(sc.inputs, sc.outputs))
    return {"kron": combos * (sc.n_parties - 1)}


def _attrs_trace_rule(args, result) -> dict:
    sc = args[0].scenario
    return {"kron": sc.n_settings * sc.n_outcomes * (sc.n_parties - 1)}


ATTRS = {
    "consistency._survey_process_functions": _attrs_survey,
    "consistency._candidate_axes": _attrs_candidates,
    "consistency.is_logically_consistent": _attrs_vertex_test,
    "games._DcSearch.function_rows": _attrs_function_rows,
    "games._hopt_values": _attrs_hopt,
    "games._deterministic_correlation_vertices": _attrs_vertices,
    "lp.lp_solve": _attrs_lp,
    "lp.hull_membership": _attrs_hull,
    "quantum.is_valid_process_matrix": _attrs_validity,
    "quantum.pm_correlation": _attrs_trace_rule,
}


class Tracer:
    """Spans of one process.  A span is [metric, fn, start, end, parent, request, attrs]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = None
        self.pivots = 0
        self._stack: list[int] = []

    def wrap(self, orig, metric: str, fn: str):
        attrs_of = ATTRS.get(fn)
        cache_info = getattr(orig, "cache_info", None)
        spans, stack = self.spans, self._stack
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [metric, fn, 0.0, 0.0, stack[-1] if stack else -1, tracer.request, None]
            spans.append(rec)
            stack.append(idx)
            hits = cache_info().hits if cache_info else 0
            pivots = tracer.pivots
            rec[2] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            attrs = attrs_of(args, result) if attrs_of else {}
            if cache_info:
                attrs["cache_hit"] = int(cache_info().hits > hits)
            if fn == "lp.lp_solve":
                attrs["pivots"] = tracer.pivots - pivots
            if attrs:
                rec[6] = attrs
            return result

        return traced

    def install(self) -> None:
        """Rebind every target in every loaded causelab module that holds it
        (modules a process never imported, such as the CLI in a library
        session, are skipped)."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "causelab" or name.startswith("causelab."))]
        for mod_name, attr, metric in TARGETS + _serialize_targets():
            module = sys.modules.get(mod_name)
            if module is None:
                continue
            short = f"{mod_name.split('.')[-1]}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = vars(cls)[meth]
                setattr(cls, meth, self.wrap(orig, metric, short))
                continue
            orig = getattr(module, attr)
            wrapper = self.wrap(orig, metric, short)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, wrapper)
        lp = sys.modules["causelab.lp"]
        pivot = lp._pivot

        def counted_pivot(*args):
            self.pivots += 1
            return pivot(*args)

        lp._pivot = counted_pivot

    def write(self, path: str, extra: dict | None = None) -> None:
        """Spans as JSON lines; an optional first line carries process-level facts."""
        with open(path, "w", encoding="utf-8") as fh:
            if extra is not None:
                fh.write(json.dumps({"process": extra}) + "\n")
            for metric, fn, start, end, parent, request, attrs in self.spans:
                fh.write(json.dumps({
                    "name": metric, "fn": fn, "start": start, "end": end,
                    "parent": parent, "request": request, "attrs": attrs or {},
                }) + "\n")


def read_spans(path: str) -> tuple[dict, list[dict]]:
    """(process facts, spans) from a file written by ``Tracer.write``."""
    process: dict = {}
    spans = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if "process" in rec:
                process = rec["process"]
            else:
                spans.append(rec)
    return process, spans


# --- per-layer metrics --------------------------------------------------------

TIME_METRICS = sorted({metric for _, _, metric in TARGETS} | {SERIALIZE_METRIC, ROOT_METRIC})


def self_times(spans: list[dict]) -> list[float]:
    """Duration minus the children's durations, per span (parents index the same list)."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _ancestor_fns(spans: list[dict], idx: int):
    parent = spans[idx]["parent"]
    while parent >= 0:
        yield spans[parent]["fn"]
        parent = spans[parent]["parent"]


def layer_metrics(span_sets: list[list[dict]]) -> dict[str, float]:
    """Per-layer self times and counts over several span lists (one per process).

    A call that raised has no counts.  Ratios whose base is zero (for example the survey kept ratio on a run that
    never missed the survey cache) read 0.
    """
    out: dict[str, float] = {name: 0.0 for name in TIME_METRICS}
    n = {key: 0 for key in (
        "survey_misses", "survey_hits", "survey_candidates", "survey_kept",
        "vertex_test_choices", "function_rows_calls", "grid_points", "fixed_point_rows",
        "dc_rows", "hopt_rows", "vertices_count", "solve_calls", "pivots", "rows", "vars",
        "max_den_bits", "hull_outside", "validity_calls", "kron_products",
        "evaluate_calls", "serialize_calls",
    )}
    for spans in span_sets:
        for idx, (s, own) in enumerate(zip(spans, self_times(spans))):
            out[s["name"]] += own
            fn, a = s["fn"], s["attrs"]
            if fn == "consistency._survey_process_functions":
                n["survey_misses"] += 1
                n["survey_kept"] += a.get("kept", 0)
            elif fn == "consistency._candidate_axes":
                # only surveys that ran: a capped search stops before scanning
                if "kept" in spans[s["parent"]]["attrs"]:
                    n["survey_candidates"] += a.get("candidates", 0)
            elif fn == "consistency._survey_cached":
                n["survey_hits"] += a.get("cache_hit", 0)
            elif fn == "consistency.is_logically_consistent":
                n["vertex_test_choices"] += a.get("choices", 0)
            elif fn == "games._DcSearch.function_rows":
                n["function_rows_calls"] += 1
                n["grid_points"] += a.get("grid", 0)
                n["fixed_point_rows"] += a.get("rows", 0)
                if "games.dc_bound" in _ancestor_fns(spans, idx):
                    n["dc_rows"] += a.get("rows", 0)
            elif fn == "games._hopt_values":
                n["hopt_rows"] += a.get("rows", 0)
            elif fn == "games._deterministic_correlation_vertices":
                n["vertices_count"] += a.get("count", 0)
            elif fn == "lp.lp_solve":
                n["solve_calls"] += 1
                n["pivots"] += a.get("pivots", 0)
                n["rows"] += a.get("rows", 0)
                n["vars"] += a.get("vars", 0)
                n["max_den_bits"] = max(n["max_den_bits"], a.get("max_den_bits", 0))
            elif fn == "lp.hull_membership":
                n["hull_outside"] += a.get("outside", 0)
            elif fn in ("quantum.is_valid_process_matrix", "quantum.pm_correlation"):
                n["kron_products"] += a.get("kron", 0)
                n["validity_calls"] += fn == "quantum.is_valid_process_matrix"
            elif fn == "scenario.evaluate_correlation":
                n["evaluate_calls"] += 1
            elif s["name"] == SERIALIZE_METRIC:
                n["serialize_calls"] += 1

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out.update({
        "consistency.survey_misses": n["survey_misses"],
        "consistency.survey_hits": n["survey_hits"],
        "consistency.survey_candidates": n["survey_candidates"],
        "consistency.survey_kept": n["survey_kept"],
        "consistency.survey_kept_ratio": ratio(n["survey_kept"], n["survey_candidates"]),
        "consistency.vertex_test_choices": n["vertex_test_choices"],
        "games.function_rows_calls": n["function_rows_calls"],
        "games.grid_points": n["grid_points"],
        "games.fixed_point_rows": n["fixed_point_rows"],
        "games.row_dedup_ratio": ratio(n["fixed_point_rows"], n["grid_points"]),
        "games.hopt_rows": n["hopt_rows"],
        "games.hopt_memo_hit_ratio": ratio(n["dc_rows"] - n["hopt_rows"], n["dc_rows"]),
        "games.vertices_count": n["vertices_count"],
        "lp.solve_calls": n["solve_calls"],
        "lp.pivots": n["pivots"],
        "lp.rows": n["rows"],
        "lp.vars": n["vars"],
        "lp.max_den_bits": n["max_den_bits"],
        "lp.hull_outside": n["hull_outside"],
        "quantum.validity_calls": n["validity_calls"],
        "quantum.kron_products": n["kron_products"],
        "scenario.evaluate_calls": n["evaluate_calls"],
        "serialize.calls": n["serialize_calls"],
    })
    return out


def same_outputs(untraced: list[dict], traced: list[dict]) -> list[str]:
    """Requests whose exit code, stdout bytes or answer differ between an
    untraced and a traced pass over the same inputs (empty when identical)."""
    diffs = []
    if len(untraced) != len(traced):
        diffs.append(f"{len(untraced)} untraced requests but {len(traced)} traced")
    for a, b in zip(untraced, traced):
        for key in ("id", "exit", "stdout_sha256", "answer"):
            if a.get(key) != b.get(key):
                diffs.append(f"request {a.get('id')}: {key} differs")
                break
    return diffs
