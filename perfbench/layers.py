"""Layer instrumentation of the traced run and the per-layer metrics.

:func:`install` wraps the public functions of each layer at the names
their callers look them up; :func:`layer_metrics` turns the recorded
spans and counters into the per-layer metrics named in ``LAYERS.md``.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from typing import Dict, List, Optional

from checks import geomean
from spans import (
    Recorder, Span, ancestor, inclusive_times, rollup_table, self_times,
)

#: portfolio stages, in escalation order (``portfolio.winner.<stage>``)
PORTFOLIO_STAGES = (
    "greedy", "refine", "metaheuristic", "branch-and-bound", "milp",
)
CACHE_STAGES = ("profile", "partition", "mapping", "measure")

#: span names whose result is a returned mapping (MILP usefulness)
MAPPING_OWNERS = ("flow.mapping_stage", "repair.solve_repair")


def _stat(result, name: str) -> float:
    return dict(result.solve_stats).get(name, 0.0)


def install(rec: Recorder) -> None:
    """Wrap every traced layer boundary."""
    import repro.flow as flow
    import repro.gpu.delta as delta
    import repro.mapping.repair as repair
    import repro.service.portfolio as portfolio
    import repro.service.remap as remap
    import repro.service.server as server
    from repro.mapping.milp_model import CompiledMilpModel, MilpModelCache
    from repro.partition.convexity import ConvexityOracle
    from repro.service.jobs import JobStore
    from repro.sweep.cache import StageCache

    def keep_mapper(span, args, kwargs):
        span.attrs["mapper"] = kwargs.get("mapper", "ilp")

    def keep_assignment(span, result):
        span.attrs["assignment"] = list(result.assignment)

    def keep_parts(span, result):
        span.attrs["parts"] = len(result[0])

    def keep_fragments(span, result):
        span.attrs["fragments"] = result.num_fragments

    def keep_milp(span, result):
        span.attrs["assignment"] = list(result.assignment)
        span.attrs["nodes"] = _stat(result, "milp_nodes")

    def keep_refine(span, result):
        span.attrs["steps"] = _stat(result, "refine_steps")

    def keep_winner(span, result):
        span.attrs["winner"] = result.winner

    def keep_repair(span, result):
        span.attrs["assignment"] = list(result.mapping.assignment)
        span.attrs["fallback"] = result.fallback

    def request_tag(args, kwargs):
        return args[0].tag

    def remap_tag(args, kwargs):
        return args[0].base.tag

    for stage in ("profile", "partition", "pdg", "measure", "execute"):
        on_result = {
            "partition": keep_parts, "execute": keep_fragments,
        }.get(stage)
        rec.wrap(flow, f"{stage}_stage", f"flow.{stage}_stage",
                 on_result=on_result)
    rec.wrap(flow, "mapping_stage", "flow.mapping_stage",
             on_call=keep_mapper, on_result=keep_assignment)
    rec.wrap(flow, "build_mapping_problem", "mapping.build_problem")
    rec.wrap(flow, "measure_partitions", "gpu.measure_partitions")
    for owner in (flow, portfolio):
        rec.wrap(owner, "solve_milp", "mapping.solve_milp",
                 on_result=keep_milp)
        rec.wrap(owner, "refine_mapping", "mapping.refine_mapping",
                 on_result=keep_refine)
    rec.wrap(flow, "lpt_mapping", "mapping.lpt_mapping")
    rec.wrap(flow, "contiguous_mapping", "mapping.contiguous_mapping")
    rec.wrap(portfolio, "solve_branch_and_bound", "mapping.branch_and_bound")
    rec.wrap(MilpModelCache, "get_or_compile", "mapping.milp_get_or_compile")
    rec.wrap(CompiledMilpModel, "solve", "mapping.milp_model_solve")
    rec.wrap(portfolio, "solve_portfolio", "portfolio.solve_portfolio",
             on_result=keep_winner)
    rec.wrap(repair, "solve_repair", "repair.solve_repair",
             on_result=keep_repair)
    rec.wrap(delta, "degrade_platform", "gpu.degrade_platform")
    rec.wrap(remap, "degrade_platform", "gpu.degrade_platform")
    rec.wrap(StageCache, "get", "cache.get")
    rec.wrap(StageCache, "put", "cache.put")
    for method in ("get", "put", "update"):
        rec.wrap(JobStore, method, f"service.jobstore_{method}")
    rec.wrap(server, "solve_request", "service.solve_request",
             tag_of=request_tag)
    rec.wrap(remap, "solve_remap_request", "service.solve_remap_request",
             tag_of=remap_tag)
    rec.count_calls(ConvexityOracle, "is_convex", "partition.convexity_calls")


def layer_metrics(
    rec: Recorder,
    bound_ratios: List[float],
    model_cache_delta: Dict[str, int],
    service: Optional[dict] = None,
) -> Dict[str, float]:
    """Per-layer metrics from one traced pass or window."""
    from workloads import tail

    spans: List[Span] = rec.spans
    incl = defaultdict(float, inclusive_times(spans))
    by_id = {span.id: span for span in spans}
    named: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        named[span.name].append(span)

    fallback_s = 0.0
    for name in ("mapping.lpt_mapping", "mapping.contiguous_mapping"):
        for span in named[name]:
            owner = ancestor(span, by_id, ("flow.mapping_stage",))
            if owner is not None and owner.attrs.get("mapper") == "ilp":
                fallback_s += span.duration
    milp_runs = named["mapping.solve_milp"]
    useful = 0
    for span in milp_runs:
        owner = ancestor(span, by_id, MAPPING_OWNERS)
        if owner is not None and owner.attrs.get("assignment") == span.attrs.get("assignment"):
            useful += 1
    winners = Counter(
        span.attrs.get("winner") for span in named["portfolio.solve_portfolio"]
    )
    repairs = named["repair.solve_repair"]
    hits = model_cache_delta.get("hits", 0)
    misses = model_cache_delta.get("misses", 0)

    metrics = {
        "partition.s": incl["flow.partition_stage"],
        "partition.parts": float(sum(
            s.attrs.get("parts", 0) for s in named["flow.partition_stage"]
        )),
        "partition.convexity_calls": float(rec.count("partition.convexity_calls")),
        "perf.profile_s": incl["flow.profile_stage"],
        "pdg.s": incl["flow.pdg_stage"],
        "mapping.s": incl["flow.mapping_stage"],
        "mapping.problem_s": incl["mapping.build_problem"],
        "mapping.milp_compile_s": incl["mapping.milp_get_or_compile"],
        "mapping.milp_run_s": incl["mapping.milp_model_solve"],
        "mapping.fallback_s": fallback_s,
        "mapping.refine_s": incl["mapping.refine_mapping"],
        "mapping.milp_nodes": float(sum(
            s.attrs.get("nodes", 0.0) for s in milp_runs
        )),
        "mapping.refine_steps": float(sum(
            s.attrs.get("steps", 0.0) for s in named["mapping.refine_mapping"]
        )),
        "mapping.milp_useful_share": useful / len(milp_runs) if milp_runs else 0.0,
        "mapping.bound_ratio": geomean(bound_ratios),
        "mapping.model_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "portfolio.s": incl["portfolio.solve_portfolio"],
        "repair.s": incl["repair.solve_repair"],
        "repair.fallback_share": (
            sum(1 for s in repairs if s.attrs.get("fallback")) / len(repairs)
            if repairs else 0.0
        ),
        "gpu.measure_s": incl["gpu.measure_partitions"],
        "gpu.degrade_s": incl["gpu.degrade_platform"],
        "runtime.execute_s": incl["flow.execute_stage"],
        "runtime.fragments": float(sum(
            s.attrs.get("fragments", 0) for s in named["flow.execute_stage"]
        )),
        "cache.get_s": incl["cache.get"],
        "cache.put_s": incl["cache.put"],
        "service.jobstore_s": sum(
            incl[f"service.jobstore_{m}"] for m in ("get", "put", "update")
        ),
    }
    for stage in PORTFOLIO_STAGES:
        metrics[f"portfolio.winner.{stage}"] = float(winners.get(stage, 0))
    service = service or {}
    by_stage = service.get("cache_by_stage", {})
    for stage in CACHE_STAGES:
        bucket = by_stage.get(stage, {"hits": 0, "misses": 0})
        lookups = bucket["hits"] + bucket["misses"]
        metrics[f"cache.hit_ratio.{stage}"] = (
            bucket["hits"] / lookups if lookups else 0.0
        )
    solve_ms = [
        1000.0 * s.duration
        for name in ("service.solve_request", "service.solve_remap_request")
        for s in named[name]
    ]
    waits = service.get("queue_wait_ms", [])
    metrics["service.dedup_ratio"] = service.get("dedup_ratio", 0.0)
    metrics["service.queue_wait_ms.p50"] = _median(waits)
    metrics["service.queue_wait_ms.tail"] = tail(waits)[1] if waits else 0.0
    metrics["service.solve_ms.p50"] = _median(solve_ms)
    metrics["service.solve_ms.tail"] = tail(solve_ms)[1] if solve_ms else 0.0
    metrics["service.backlog_max"] = float(service.get("backlog_max", 0))
    metrics["service.generator_lag_ms"] = service.get("generator_lag_ms", 0.0)
    return metrics


def queue_waits(rec: Recorder, submitted_at: Dict[str, float]) -> List[float]:
    """Milliseconds from submission to solve start, per solved request
    (``submitted_at`` maps request tags to ``perf_counter`` times)."""
    out = []
    for span in rec.spans:
        if span.name == "service.solve_request" and span.tag in submitted_at:
            out.append(1000.0 * (span.start - submitted_at[span.tag]))
    return out


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def with_units(metrics: Dict[str, float]) -> Dict[str, tuple]:
    """Attach each per-layer metric's unit from the definitions."""
    from definitions import PER_LAYER

    units = {name: unit for name, unit, _better in PER_LAYER}
    return {name: (value, units[name]) for name, value in metrics.items()}


def trace_report(
    rec: Recorder, workload: str, untraced_s: float, traced_s: float,
    roots: List[Span],
) -> List[str]:
    """The self-time roll-up, the overhead line and the reconciliation.

    The roots' self times plus their descendants' self times add up to
    the roots' total duration; that traced total should match the
    untraced end-to-end time to within the tracing overhead.
    """
    root_ids = {span.id for span in roots}
    by_id = {span.id: span for span in rec.spans}

    def under_root(span: Span) -> bool:
        while span is not None:
            if span.id in root_ids:
                return True
            span = by_id.get(span.parent)
        return False

    kept = [span for span in rec.spans if under_root(span)]
    self_total = sum(self_times(kept).values())
    overhead = traced_s - untraced_s
    gap = self_total - untraced_s
    # 1% slack: the untraced and traced totals are timed a few calls
    # away from the root spans, and threads hand over the GIL in between
    reconciled = abs(gap) <= abs(overhead) + 0.01 * untraced_s
    return [
        f"self-time roll-up ({workload}, traced):",
        rollup_table(kept),
        f"tracing overhead: traced {traced_s:.4f} s - untraced "
        f"{untraced_s:.4f} s = {overhead:+.4f} s",
        f"reconciliation: span self times sum to {self_total:.4f} s, "
        f"{gap:+.4f} s from the untraced time "
        f"({'within' if reconciled else 'OUTSIDE'} the tracing overhead)",
    ]
