"""Per-layer metrics of a traced run: which intscore calls are wrapped, and
how their spans and the probe's solve records become the metrics that
BENCHMARK.json lists under per_layer."""

from __future__ import annotations

import statistics

import spans
import workloads

# (module, attribute, span name): every name a layer function is called by,
# including the names evaluation and polish import them under
TRACED = (
    ("data", "load_csv", "data.load_csv"),
    ("data", "aggregate", "data.aggregate"),
    ("evaluation", "aggregate", "data.aggregate"),
    ("solver", "solve", "solver.solve"),
    ("evaluation", "solve", "solver.solve"),
    ("polish", "polish", "polish.polish"),
    ("evaluation", "polish", "polish.polish"),
    ("polish", "project_active", "polish.project_active"),
    ("model", "objective", "model.objective"),
    ("polish", "objective", "model.objective"),
    ("mps", "export_mps", "mps.export_mps"),
    ("evaluation", "sweep", "evaluation.sweep"),
    # private, but the only boundary around one grid point of a sweep
    ("evaluation", "_sweep_point", "evaluation.point"),
)


def _polish_before(a):
    m = a["model"]
    return len(m.terms), workloads._objective(m, a["agg"], a["cfg"]).total


def _polish_after(span, before, result):
    k, total_in = before
    span[5] = {"k": k, "improved": result[1].total < total_in}


def _mps_after(span, _, text):
    span[5] = {"bytes": len(text)}


def _sweep_after(span, _, result):
    span[5] = {"points_failed": sum(p.status == "failed" for p in result.points)}


_HOOKS = {"polish.polish": (_polish_before, _polish_after),
          "mps.export_mps": (None, _mps_after),
          "evaluation.sweep": (None, _sweep_after)}


def install(tracer):
    for mod, attr, name in TRACED:
        module = getattr(workloads, mod)
        if hasattr(module, attr):
            before, after = _HOOKS.get(name, (None, None))
            tracer.patch(module, attr, name, before, after)


def _one_op(all_spans, op, solves):
    mine = [s for s in all_spans if s[4] == op]

    def named(name):
        return [s for s in mine if s[0] == name]

    def total(name):
        return sum(s[2] - s[1] for s in named(name))

    def mean(key):
        return statistics.fmean(s[key] for s in solves) if solves else 0.0

    widest = max(solves, key=lambda s: s["patterns"]) if solves else {}
    search_s = sum(s["wall_s"] - s["seed_s"] for s in solves)
    nodes = sum(s["nodes"] for s in solves)
    polishes = named("polish.polish")
    mps_bytes = sum(s[5]["bytes"] for s in named("mps.export_mps"))
    export_s = total("mps.export_mps")
    selfs = spans.layer_self_seconds(all_spans, op)
    m = {
        "data.load_csv_s": total("data.load_csv"),
        "data.aggregate_s": total("data.aggregate"),
        "data.aggregate_calls": len(named("data.aggregate")),
        "data.patterns": widest.get("patterns", 0),
        "data.conflict_pairs": widest.get("conflict_pairs", 0),
        "solver.seed_s": sum(s["seed_s"] for s in solves),
        "solver.search_s": search_s,
        "solver.nodes_per_s": nodes / search_s if search_s > 0 else 0.0,
        "solver.nodes": nodes,
        "solver.gap": mean("gap"),
        "solver.lower_bound": mean("lower_bound"),
        "solver.time_to_best_s": mean("time_to_best_s"),
        "solver.calls": len(named("solver.solve")),
        "solver.solve_s": total("solver.solve"),
        "solver.pool_entries": sum(s["pool_entries"] for s in solves),
        "polish.calls": len(polishes),
        "polish.s": total("polish.polish"),
        "polish.project_s": total("polish.project_active"),
        "polish.improved_ratio": (sum(s[5]["improved"] for s in polishes) / len(polishes)
                                  if polishes else 0.0),
        "model.objective_calls": len(named("model.objective")),
        "model.objective_s": total("model.objective"),
        "mps.bytes": mps_bytes,
        "mps.mb_per_s": mps_bytes / 1e6 / export_s if export_s > 0 else 0.0,
        "evaluation.points_failed": sum(s[5]["points_failed"]
                                        for s in named("evaluation.sweep")),
        "trace.accounted_ratio": (sum(selfs.get(layer, 0.0) for layer in spans.LAYERS)
                                  / total("bench.op")),
    }
    for layer in spans.LAYERS + ("bench", "trace"):
        m[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    return m


def metrics(tracer, probe, ops):
    """Per-layer values: the median over traced operations of each
    per-operation value, with call-time percentiles pooled over them."""
    traced = [o for o in ops if o["traced"]]
    per_op = [_one_op(tracer.spans, o["op"], probe.op_solves(o["op"])) for o in traced]
    out = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}

    ops_traced = {o["op"] for o in traced}
    calls = [s for s in tracer.spans if s[4] in ops_traced]
    polish_ms = [(s[2] - s[1]) * 1e3 for s in calls if s[0] == "polish.polish"]
    out["polish.call_p50_ms"] = spans.percentile(polish_ms, 50)
    out["polish.call_p99_ms"] = spans.percentile(polish_ms, 99)
    for k in range(1, 9):
        out[f"polish.call_ms.k{k}"] = spans.median_or_zero(
            [(s[2] - s[1]) * 1e3 for s in calls
             if s[0] == "polish.polish" and s[5]["k"] == k])
    out["evaluation.point_s_p50"] = spans.median_or_zero(
        [s[2] - s[1] for s in calls if s[0] == "evaluation.point"])
    out["trace.overhead_ratio"] = (
        statistics.median(o["seconds"] for o in traced)
        / statistics.median(o["seconds"] for o in ops if not o["traced"]))
    return out
