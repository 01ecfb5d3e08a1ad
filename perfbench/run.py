"""The repository's benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload paper-ilp --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload service-mix --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --self-test        # tiny cases, ~1 min
    python3 perfbench/run.py --write-manifest   # regenerate BENCHMARK.json

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the workload once untraced and once with every layer
boundary wrapped, and reports the per-layer metrics plus the tracing
overhead.  Every result is checked for correctness (see ``checks.py``);
the last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  Spans, provenance
and the full result are written under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform as host_platform
import statistics
import subprocess
import sys
import time

from definitions import RUN_SECONDS, WORKLOADS, manifest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")

#: set-up probes per run; the median is ``setup_s``
SETUP_REPEATS = 5


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------
def _import_program() -> None:
    """Put ``src/`` on the path and import the program, or exit 2."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(f"perfbench: no program sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    try:
        import repro  # noqa: F401
    except Exception as exc:
        sys.stderr.write(f"perfbench: cannot import repro: {exc}\n")
        sys.exit(2)


def _source_digest() -> str:
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def provenance(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    from hostspeed import REFERENCE_S
    from repro.mapping.milp_model import highs_backend_available
    from workloads import LATENCY_LIMIT_MS, SERVICE_RATES

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": host_platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs_backend_available": highs_backend_available(),
        "git_commit": commit,
        "source_sha256": _source_digest(),
        "service_rates": list(SERVICE_RATES),
        "latency_limit_ms": LATENCY_LIMIT_MS,
        "reference_s": REFERENCE_S,
    }


# ----------------------------------------------------------------------
# set-up time
# ----------------------------------------------------------------------
def setup_probe(workload: str) -> None:
    """Child side: do the workload's set-up, then say so and exit."""
    _import_program()
    from repro.flow import map_stream_graph  # noqa: F401
    from repro.gpu.platforms import PLATFORM_NAMES, build_platform

    for name in PLATFORM_NAMES:
        build_platform(name)
    if workload == "service-mix":
        import shutil
        import tempfile

        from repro.service import JobStore, MappingService
        from repro.sweep import StageCache

        os.makedirs(OUT_DIR, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="setup-", dir=OUT_DIR)
        try:
            service = MappingService(
                cache=StageCache(os.path.join(workdir, "cache")),
                store=JobStore(os.path.join(workdir, "jobs")),
                workers=os.cpu_count() or 1,
            )
            sys.stdout.write("ready\n")
            sys.stdout.flush()
            service.shutdown(wait=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def measure_setup(workload: str, repeats: int = SETUP_REPEATS) -> list:
    """Seconds from process start to the first timed call, per probe.

    Set-up is process start and imports, which a CPU reference kernel
    does not track, so these are measured seconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__),
             "--setup-probe", workload],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            child.wait(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({child.returncode})")
        times.append(elapsed)
    return times


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 setup_repeats: int = SETUP_REPEATS) -> dict:
    import workloads

    setups = measure_setup(workload, setup_repeats) if not trace else []
    os.makedirs(OUT_DIR, exist_ok=True)
    if workload == "service-mix":
        outcome = workloads.run_service_mix(seed, seconds, trace, OUT_DIR)
    else:
        outcome = workloads.run_paper(workload, seed, seconds, trace)

    failed_share = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    metrics = dict(outcome.metrics)
    if trace:
        metrics["failed_share"] = (failed_share, "ratio")
    else:
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["ok_share"] = (1.0 - failed_share, "ratio")
        metrics["peak_rss_mb"] = (workloads.peak_rss_mb(), "MB")
        outcome.notes.append(
            "setup_s probes: " + ", ".join(f"{s:.4f}" for s in setups)
        )
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in sorted(metrics.items())
        },
    }
    record = {
        "provenance": provenance(workload, seed),
        "notes": outcome.notes,
        "errors": outcome.errors,
        "result": result,
    }
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    with open(os.path.join(OUT_DIR, f"result-{stem}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if outcome.spans is not None:
        outcome.spans.dump(
            os.path.join(OUT_DIR, f"spans-{stem}.json"),
            extra={"provenance": record["provenance"]},
        )
    return {"record": record, "result": result}


def report(out: dict) -> None:
    record = out["record"]
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    for note in record["notes"]:
        print(note)
    for error in record["errors"][:20]:
        print(f"FAILED: {error}")
    for name, metric in out["result"]["metrics"].items():
        print(f"{name:<36} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps(out["result"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-manifest", action="store_true")
    parser.add_argument("--setup-probe", metavar="WORKLOAD")
    args = parser.parse_args(argv)

    if args.write_manifest:
        with open(MANIFEST, "w") as fh:
            json.dump(manifest(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    _import_program()
    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    report(run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
