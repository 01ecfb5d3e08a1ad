"""What the benchmark measures: workloads, metrics, and BENCHMARK.json.

The single source of the manifest: ``python3 perfbench/run.py
--write-manifest`` writes :func:`manifest` to ``BENCHMARK.json`` and the
self-test fails when the two disagree.  ``LAYERS.md`` says which layer
metric should move which end-to-end metric on which workload.
"""

RUN_SECONDS = 30
WORKLOADS = (
    ("paper-ilp",
     "Paper ILP mapper on DES-16/g4, Bitonic-32/g4, DCT-18/two-island, "
     "MILP compile paid per case: mapping is 90-95% of wall time, so "
     "solver speed and quality both show."),
    ("paper-lpt",
     "Same cases plus DES-8/g4 and FMRadio-16/mixed-box with the nearly "
     "free lpt mapper: partition and execute dominate; solver-only "
     "changes must move nothing."),
    ("service-mix",
     "Open-loop seeded mix of duplicates, second-platform repeats, "
     "synth misses and remaps into MappingService at 3 rates: the only "
     "load on dedup, stage cache, jobs, portfolio, repair."),
)

#: (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("flow_wall_s", "s", "lower", 0.25),
    ("sim_throughput", "exec/ms", "higher", 0.1),
    ("p50_ms", "ms", "lower", 0.25),
    ("tail_ms", "ms", "lower", 0.25),
    ("sustainable_rps", "1/s", "higher", 0.2),
    ("ok_share", "ratio", "higher", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: (name, unit, better)
PER_LAYER = (
    ("partition.s", "s", "lower"),
    ("partition.parts", "count", "lower"),
    ("partition.convexity_calls", "count", "lower"),
    ("perf.profile_s", "s", "lower"),
    ("pdg.s", "s", "lower"),
    ("mapping.s", "s", "lower"),
    ("mapping.problem_s", "s", "lower"),
    ("mapping.milp_compile_s", "s", "lower"),
    ("mapping.milp_run_s", "s", "lower"),
    ("mapping.fallback_s", "s", "lower"),
    ("mapping.refine_s", "s", "lower"),
    ("mapping.milp_nodes", "count", "lower"),
    ("mapping.refine_steps", "count", "lower"),
    ("mapping.milp_useful_share", "ratio", "higher"),
    ("mapping.bound_ratio", "ratio", "lower"),
    ("mapping.model_cache_hit_ratio", "ratio", "higher"),
    ("portfolio.s", "s", "lower"),
    ("portfolio.winner.greedy", "count", "higher"),
    ("portfolio.winner.refine", "count", "higher"),
    ("portfolio.winner.metaheuristic", "count", "lower"),
    ("portfolio.winner.branch-and-bound", "count", "lower"),
    ("portfolio.winner.milp", "count", "lower"),
    ("repair.s", "s", "lower"),
    ("repair.fallback_share", "ratio", "lower"),
    ("gpu.measure_s", "s", "lower"),
    ("gpu.degrade_s", "s", "lower"),
    ("runtime.execute_s", "s", "lower"),
    ("runtime.fragments", "count", "lower"),
    ("cache.hit_ratio.profile", "ratio", "higher"),
    ("cache.hit_ratio.partition", "ratio", "higher"),
    ("cache.hit_ratio.mapping", "ratio", "higher"),
    ("cache.hit_ratio.measure", "ratio", "higher"),
    ("cache.get_s", "s", "lower"),
    ("cache.put_s", "s", "lower"),
    ("service.dedup_ratio", "ratio", "higher"),
    ("service.queue_wait_ms.p50", "ms", "lower"),
    ("service.queue_wait_ms.tail", "ms", "lower"),
    ("service.solve_ms.p50", "ms", "lower"),
    ("service.solve_ms.tail", "ms", "lower"),
    ("service.backlog_max", "count", "lower"),
    ("service.jobstore_s", "s", "lower"),
    ("service.generator_lag_ms", "ms", "lower"),
    ("failed_share", "ratio", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def manifest() -> dict:
    """BENCHMARK.json, generated from the definitions above."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
