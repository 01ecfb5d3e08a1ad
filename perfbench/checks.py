"""Correctness checks applied to every result the benchmark produces.

Each check returns a list of error strings (empty = correct), so the
workloads can count one failed attempt per result with any error and
still report what went wrong.

* every assignment is valid for its platform (one GPU id per partition,
  each in range);
* every returned tmax is bit-identical to an independent rescore through
  :meth:`MappingProblem.tmax` on a problem rebuilt with
  :func:`build_mapping_problem` (for remaps, on the degraded topology);
* a case the solver proves optimal reproduces its pinned tmax exactly;
* a service answer equals a fresh out-of-band solve of the same request.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.flow import partition_stage, pdg_stage, profile_stage
from repro.gpu.platforms import build_platform
from repro.gpu.topology import default_topology
from repro.mapping.problem import MappingProblem, build_mapping_problem

#: proven-optimal tmax of pinned cases, keyed by
#: (app, n, platform or GPU count, mapper, budget tier).  A case whose
#: solve reports ``optimal`` must reproduce its pin bit for bit.
PINNED_OPTIMAL: Dict[Tuple, float] = {
    ("DCT", 18, "two-island", "ilp", "default"): 212222.25656951667,
    ("Bitonic", 8, 2, "ilp", "default"): 18558.372191185554,
}


def check_assignment(
    problem: MappingProblem, assignment: Sequence[int], tmax: float
) -> List[str]:
    """Validity plus the bit-exact rescore of one mapping."""
    errors = []
    if len(assignment) != problem.num_partitions:
        return [
            f"assignment has {len(assignment)} entries for "
            f"{problem.num_partitions} partitions"
        ]
    bad = [
        g for g in assignment
        if not isinstance(g, int) or not 0 <= g < problem.num_gpus
    ]
    if bad:
        return [f"GPU ids out of range for {problem.num_gpus} GPUs: {bad}"]
    rescored = problem.tmax(list(assignment))
    if not (isinstance(tmax, float) and rescored == tmax):
        errors.append(f"tmax {tmax!r} != rescore {rescored!r}")
    return errors


def check_pinned(key: Tuple, optimal: bool, tmax: float) -> List[str]:
    pinned = PINNED_OPTIMAL.get(key)
    if optimal and pinned is not None and tmax != pinned:
        return [f"optimal tmax {tmax!r} != pinned {pinned!r} for {key}"]
    return []


def bound_ratio(problem: MappingProblem, tmax: float) -> float:
    """Returned tmax over the compute-averaging bound sum(times)/G."""
    bound = sum(problem.times) / problem.num_gpus
    return tmax / bound if bound > 0 else 1.0


def check_flow(case_key: Tuple, flow, topology) -> Tuple[List[str], float]:
    """Check one ``map_stream_graph`` result; returns (errors, bound ratio)."""
    problem = build_mapping_problem(
        flow.pdg, flow.num_gpus, topology=topology, peer_to_peer=True
    )
    mapping = flow.mapping
    errors = check_assignment(problem, mapping.assignment, mapping.tmax)
    errors += check_pinned(case_key, mapping.optimal, mapping.tmax)
    if not flow.throughput > 0:
        errors.append(f"non-positive simulated throughput {flow.throughput!r}")
    return errors, bound_ratio(problem, mapping.tmax)


def request_problem(request, cache, degraded=None) -> MappingProblem:
    """Rebuild a service request's mapping problem out of band."""
    from repro.service.api import build_request_graph
    from repro.sweep.spec import SPECS

    spec = SPECS[request.spec]
    graph = build_request_graph(request)
    engine = profile_stage(graph, spec=spec, seed=request.seed, cache=cache)
    partitions, partitioning = partition_stage(
        graph, engine, partitioner=request.partitioner, spec=spec,
        cache=cache,
    )
    pdg = pdg_stage(graph, partitions, engine, partitioning=partitioning)
    if degraded is not None:
        topology = degraded.topology
    elif request.platform is not None:
        topology = build_platform(request.platform)
    else:
        topology = default_topology(request.num_gpus)
    return build_mapping_problem(
        pdg, topology.num_gpus, topology=topology,
        peer_to_peer=request.peer_to_peer,
    )


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def check_served(item, served: dict, cache) -> Tuple[List[str], Optional[float]]:
    """Check one distinct service answer against a fresh out-of-band
    solve and an independent rescore; returns (errors, bound ratio)."""
    from repro.gpu.delta import degrade_platform
    from repro.service.remap import solve_remap_request
    from repro.service.server import solve_request

    if served.get("state") != "done":
        return [f"job {served.get('state')}: {served.get('error')}"], None
    result = served["result"]
    if item.kind == "remap":
        fresh = solve_remap_request(item.request, cache=cache)
        base = item.request.base
        degraded = degrade_platform(base.platform, item.request.deltas)
        problem = request_problem(base, cache, degraded=degraded)
    else:
        fresh = solve_request(item.request, cache=cache)
        base = item.request
        problem = request_problem(base, cache)
    errors = []
    if canonical(fresh) != canonical(result):
        errors.append(f"served answer differs from a fresh solve of {item.label}")
    errors += check_assignment(problem, result["assignment"], result["tmax"])
    key = (
        base.app, base.n, base.platform or base.num_gpus, base.mapper,
        base.budget,
    )
    if item.kind != "remap":
        errors += check_pinned(key, result["optimal"], result["tmax"])
        throughput = result.get("throughput")
        if not (isinstance(throughput, float) and throughput > 0):
            errors.append(f"bad simulated throughput {throughput!r}")
    return errors, bound_ratio(problem, result["tmax"])


def geomean(values: Sequence[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
