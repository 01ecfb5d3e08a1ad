"""The benchmark's own tests (``python3 perfbench/run.py --self-test``).

* one tiny case per workload, untraced and traced: every metric named in
  BENCHMARK.json is emitted with its unit, and nothing fails;
* a perturbed tmax, an out-of-range GPU id, a changed assignment, a
  served answer that differs from a fresh solve, and duplicates that
  disagree are each caught as failures;
* BENCHMARK.json matches the definitions it is generated from.

It also reports whether a known program defect is still present.
"""

from __future__ import annotations

import json
import math
import sys
import time

import checks
import workloads
from definitions import END_TO_END, PER_LAYER, manifest

#: tiny stand-ins for the real workloads' inputs
TINY_PAPER = {
    "paper-ilp": (("Bitonic", 8, None),),
    "paper-lpt": (("DES", 4, None),),
}


def _expect(condition: bool, message: str, problems: list) -> None:
    if not condition:
        problems.append(message)


def _check_metrics(workload, trace, result, problems) -> None:
    wanted = PER_LAYER if trace else END_TO_END
    metrics = result["metrics"]
    for entry in wanted:
        name, unit = entry[0], entry[1]
        got = metrics.get(name)
        _expect(got is not None, f"{workload} trace={trace}: {name} missing", problems)
        if got is None:
            continue
        _expect(got["unit"] == unit,
                f"{workload}: {name} unit {got['unit']!r} != {unit!r}", problems)
        _expect(isinstance(got["value"], float) and math.isfinite(got["value"]),
                f"{workload}: {name} value {got['value']!r}", problems)
    extra = set(metrics) - {entry[0] for entry in wanted}
    _expect(not extra, f"{workload} trace={trace}: unlisted metrics {extra}", problems)
    _expect(result["attempted"] >= 1 and result["failed"] == 0 and result["correct"],
            f"{workload} trace={trace}: {result['failed']} of "
            f"{result['attempted']} failed", problems)


def _tiny_runs(problems) -> None:
    import run

    saved_paper = (workloads.PAPER_ILP_CASES, workloads.PAPER_LPT_CASES)
    saved_rates = workloads.SERVICE_RATES
    workloads.PAPER_ILP_CASES = TINY_PAPER["paper-ilp"]
    workloads.PAPER_LPT_CASES = TINY_PAPER["paper-lpt"]
    workloads.SERVICE_RATES = (6.0, 12.0, 18.0)
    try:
        for workload in ("paper-ilp", "paper-lpt", "service-mix"):
            for trace in (False, True):
                started = time.perf_counter()
                out = run.run_workload(
                    workload, seed=7, seconds=2.0,
                    trace=trace, setup_repeats=1,
                )
                print(f"self-test {workload} trace={int(trace)}: "
                      f"{out['result']['attempted']} attempted in "
                      f"{time.perf_counter() - started:.1f} s")
                _check_metrics(workload, trace, out["result"], problems)
                for error in out["record"]["errors"]:
                    problems.append(f"{workload}: {error}")
    finally:
        workloads.PAPER_ILP_CASES, workloads.PAPER_LPT_CASES = saved_paper
        workloads.SERVICE_RATES = saved_rates


def _perturbations(problems) -> None:
    from repro.apps import build_app
    from repro.flow import map_stream_graph
    from repro.gpu.topology import default_topology
    from repro.mapping.problem import build_mapping_problem
    from repro.service import MappingRequest
    from repro.service.server import solve_request
    from repro.sweep import StageCache

    topology = default_topology(2)
    flow = map_stream_graph(build_app("Bitonic", 8), num_gpus=2)
    key = ("Bitonic", 8, 2, "ilp", "default")
    errors, _ = checks.check_flow(key, flow, topology)
    _expect(not errors, f"clean flow flagged: {errors}", problems)
    _expect(flow.mapping.optimal, "Bitonic-8/g2 ilp is no longer proven optimal", problems)
    problem = build_mapping_problem(flow.pdg, 2, topology=topology)
    assignment = list(flow.mapping.assignment)
    tmax = flow.mapping.tmax

    nudged = math.nextafter(tmax, math.inf)
    _expect(bool(checks.check_assignment(problem, assignment, nudged)),
            "a tmax one ulp off was not caught", problems)
    _expect(bool(checks.check_pinned(key, True, nudged)),
            "an optimal tmax off its pin was not caught", problems)
    bad = assignment[:-1] + [2]
    _expect(bool(checks.check_assignment(problem, bad, tmax)),
            "an out-of-range GPU id was not caught", problems)
    _expect(bool(checks.check_assignment(problem, assignment[:-1], tmax)),
            "a short assignment was not caught", problems)
    moved = None
    for pid in range(len(assignment)):
        trial = list(assignment)
        trial[pid] = 1 - trial[pid]
        if problem.tmax(trial) != tmax:
            moved = trial
            break
    _expect(moved is not None and bool(checks.check_assignment(problem, moved, tmax)),
            "a changed assignment was not caught", problems)

    request = MappingRequest(app="Bitonic", n=8, platform="host-star",
                             budget="instant", tag="t")
    item = workloads.MixItem("cold", "Bitonic-8@host-star", request, "t")
    cache = StageCache()
    served = {"state": "done", "result": solve_request(request, cache=cache)}
    errors, _ = checks.check_served(item, served, cache)
    _expect(not errors, f"clean served answer flagged: {errors}", problems)
    wrong = json.loads(json.dumps(served))
    wrong["result"]["tmax"] = math.nextafter(wrong["result"]["tmax"], 0.0)
    errors, _ = checks.check_served(item, wrong, cache)
    _expect(len(errors) >= 2, "a perturbed served tmax was not caught twice "
            f"(fresh solve and rescore): {errors}", problems)

    # duplicates that disagree fail every submission of their key
    phase = workloads._Phase([item, item], [0.0, 0.0], workdir=None)
    phase.responses = [served, wrong]
    outcome = workloads.Outcome()
    workloads._verify([phase], outcome)
    _expect(outcome.failed == 2 and outcome.attempted == 2,
            f"disagreeing duplicates: {outcome.failed}/{outcome.attempted} failed",
            problems)


def _known_defects() -> None:
    """Report (without failing) whether the program defect that keeps
    ``synth:dag`` out of the service mix is still present."""
    from repro.service import MappingRequest
    from repro.service.server import solve_request

    request = MappingRequest(app="synth:dag", n=306160,
                             platform="gen3-balanced", budget="instant")
    try:
        solve_request(request)
    except ValueError as exc:
        print(f"KNOWN DEFECT still present: synth:dag n=306160 on "
              f"gen3-balanced fails with {exc!r}; synth:dag stays out of "
              f"the service mix")
    else:
        print("known defect gone: synth:dag n=306160 solves; add dag "
              "back to MIX_SYNTH_FAMILIES")


def main() -> int:
    problems: list = []
    import run

    with open(run.MANIFEST) as fh:
        on_disk = json.load(fh)
    _expect(on_disk == manifest(),
            "BENCHMARK.json differs from definitions.py "
            "(run: python3 perfbench/run.py --write-manifest)", problems)
    _perturbations(problems)
    _known_defects()
    _tiny_runs(problems)
    for problem in problems:
        print(f"SELF-TEST FAILURE: {problem}")
    print("self-test " + ("passed" if not problems else f"failed ({len(problems)})"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
