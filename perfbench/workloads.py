"""The benchmark's workloads: ``paper-ilp``, ``paper-lpt``, ``service-mix``.

Every workload draws its inputs from the ``--seed`` argument; the
program under test only sees the generated inputs.  Each returns a
:class:`Outcome`: attempts, failures, end-to-end metrics (untraced) or
per-layer metrics (traced), and notes for the human-readable report.

``paper-*`` are closed loops on one thread: one ``map_stream_graph``
call at a time, each case once per pass, passes repeated while the run
lasts.  The seed only permutes the case order, so the work (and the
pinned optimal answers) stay fixed.

``service-mix`` is an open loop: one generator thread sends a seeded
request mix into an in-process :class:`MappingService` on a fixed
jittered-periodic schedule, at three offered rates, with a fresh service
and fresh disk stores for each rate.

``paper-lpt`` and ``service-mix`` report their timings in reference
seconds (see ``hostspeed``); ``paper-ilp`` in measured seconds.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from checks import canonical, check_flow, check_served, geomean
from hostspeed import HostSpeed

# ----------------------------------------------------------------------
# frozen workload constants
# ----------------------------------------------------------------------
#: (app, n, platform); ``None`` is ``default_topology(4)`` ("g4")
PAPER_ILP_CASES = (
    ("DES", 16, None),
    ("Bitonic", 32, None),
    ("DCT", 18, "two-island"),
)
PAPER_LPT_CASES = PAPER_ILP_CASES + (
    ("DES", 8, None),
    ("FMRadio", 16, "mixed-box"),
)
PAPER_GPUS = 4

#: offered rates (requests/s) of ``service-mix``: about 1/4, 1/2 and 3/4
#: of the mix's saturated capacity (10-11 requests/s on 2 worker threads
#: of a 2-core host) at the commit that introduced the benchmark.
#: Frozen: later commits are measured at the same rates.
SERVICE_RATES = (2.5, 5.0, 7.5)
#: each rate's share of the run's seconds
RATE_SHARES = (0.1, 0.7, 0.2)
#: latency limit on ``tail_ms`` that decides ``sustainable_rps``
LATENCY_LIMIT_MS = 1000.0
#: longest wait for one phase's stragglers after its last send
DRAIN_TIMEOUT_S = 60.0
#: the generator samples the host's speed (``IDLE_PROBE_CALLS`` reference
#: kernel calls) while the service is idle and the next send is at least
#: this far off
IDLE_PROBE_S = 0.1
IDLE_PROBE_CALLS = 3
#: reference kernel calls sampled just before and just after a window
EDGE_PROBE_CALLS = 15
#: the generator paces sends by the mean of this many recent samples
PACE_SAMPLES = 9

#: bundled apps of the mix with their budget tier: small instances of
#: similar cost (0.12-0.19 s cold on one core), so the slowest tenth of
#: a window is a steady sample of them rather than of a few outliers
MIX_APPS = (
    ("DES", 4, "instant"), ("Bitonic", 16, "instant"),
    ("DCT", 6, "instant"), ("DCT", 10, "instant"),
    ("FMRadio", 8, "instant"),
)
#: first platform of a bundled request, and the "second catalog
#: platform" its repeat runs on
MIX_FIRST_PLATFORMS = ("host-star", "c2070-quad", "gen3-balanced")
MIX_SECOND_PLATFORMS = ("two-island", "mixed-box")
#: the degradations remaps apply, in turn
DELTA_KINDS = ("kill-gpu", "throttle-link", "slow-gpu")
#: the bundled app of the default-tier requests: its portfolio runs the
#: MILP (branch-and-bound does not certify it first)
MIX_EXACT_APP = ("DES", 8)
#: synth families with their budget tier and the band of actor counts
#: an instance is drawn from (``None``: any), seeded per request by ``n``.
#: ``splitjoin`` sizes span 7-22 actors and its cost 3-8x with them, so
#: its instances are drawn from the middle of that range.
#: ``dag`` is left out: some instances fail in the program with
#: "partition quotient graph has a cycle" (for example ``synth:dag``,
#: n=306160, on gen3-balanced); the self-test reports whether that
#: defect is still present.
MIX_SYNTH_FAMILIES = (
    ("pipeline", "instant", None), ("splitjoin", "instant", (12, 17)),
    ("butterfly", "small", None), ("feedback", "instant", None),
)
#: the kind of each request, 96 at a time: exact
#: duplicates (dedup), bundled apps cold on a first platform, repeats
#: of those on a second platform (stage-cache replay), unique synth
#: graphs (every cache misses), remaps (repair), and one default-tier
#: request (the portfolio's MILP).  The kinds are spread evenly, so the
#: load is the same throughout a window and across seeds.
_BLOCK = (
    "cold", "synth", "dup", "second", "cold", "remap",
    "dup", "second", "synth", "cold", "dup", "exact",
    "second", "cold", "dup", "synth", "remap", "second",
    "cold", "dup", "synth", "second", "remap", "dup",
)
#: the next three blocks send one more synth graph in place of the
#: default-tier request
MIX_PATTERN = _BLOCK + 3 * tuple(
    "synth" if k == "exact" else k for k in _BLOCK
)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    #: tmax over the compute-averaging bound, per checked answer
    bound_ratios: List[float] = field(default_factory=list)
    #: the traced run's span recorder (``--trace 1`` only)
    spans: Optional[object] = None
    #: measured seconds of each pass timed in reference seconds
    measured_s: List[float] = field(default_factory=list)


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(values: List[float]):
    """(percentile, value) of the highest whole percentile with at least
    ten samples beyond it (nearest-rank).  With ten samples or fewer no
    percentile qualifies, and the maximum is reported as p100."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 100, 0.0
    if n <= 10:
        return 100, ordered[-1]
    pct = (100 * (n - 10)) // n
    rank = max(1, -(-pct * n // 100))  # ceil(pct * n / 100)
    return pct, ordered[rank - 1]


# ----------------------------------------------------------------------
# paper-ilp / paper-lpt
# ----------------------------------------------------------------------
def paper_cases(workload: str):
    if workload == "paper-ilp":
        return PAPER_ILP_CASES, "ilp"
    return PAPER_LPT_CASES, "lpt"


def _run_pass(cases, mapper, reference, outcome, traced=None, latencies=None,
              speed=None):
    """Map every case once; returns (wall seconds, throughputs).

    ``latencies`` collects each call's milliseconds, per case.
    ``reference`` maps each case to its first answer, so a later pass
    answering differently (a determinism break) counts as a failure.
    With a ``speed`` (:class:`hostspeed.HostSpeed`), each call is
    followed by a reference sample in proportion to its length, and its
    time is divided by the slowdown of the samples on either side of it.
    """
    from repro.apps import build_app
    from repro.flow import map_stream_graph
    from repro.gpu.platforms import build_platform
    from repro.gpu.topology import default_topology
    from repro.mapping.milp_model import MODEL_CACHE

    wall = measured = 0.0
    throughputs = []
    for app, n, platform in cases:
        graph = build_app(app, n)
        topology = (
            build_platform(platform) if platform
            else default_topology(PAPER_GPUS)
        )
        if mapper == "ilp":
            # a one-shot ``repro`` run pays the MILP compile
            MODEL_CACHE.clear()
        root = traced.begin(f"case.{app}-{n}", tag=f"{app}-{n}") if traced else None
        start = time.perf_counter()
        try:
            flow = map_stream_graph(
                graph, num_gpus=topology.num_gpus, mapper=mapper,
                platform=platform,
            )
        except Exception as exc:  # count it, keep measuring the rest
            elapsed = time.perf_counter() - start
            measured += elapsed
            if speed:
                speed.sample_after(elapsed)
                elapsed /= speed.bracket()
            wall += elapsed
            if root is not None:
                traced.end(root)
            outcome.attempted += 1
            outcome.failed += 1
            outcome.errors.append(f"{app}-{n}: {type(exc).__name__}: {exc}")
            continue
        elapsed = time.perf_counter() - start
        if root is not None:
            traced.end(root)
        measured += elapsed
        if speed:
            speed.sample_after(elapsed)
            elapsed /= speed.bracket()
        wall += elapsed
        if latencies is not None:
            latencies[(app, n, platform)].append(1000.0 * elapsed)
        outcome.attempted += 1
        key = (app, n, platform or PAPER_GPUS, mapper, "default")
        errors, ratio = check_flow(key, flow, topology)
        answer = (tuple(flow.mapping.assignment), flow.mapping.tmax)
        first = reference.setdefault(key, answer)
        if first != answer:
            errors.append("answer differs from the first pass")
        if errors:
            outcome.failed += 1
            outcome.errors += [f"{app}-{n}: {e}" for e in errors]
        outcome.bound_ratios.append(ratio)
        throughputs.append(flow.throughput * 1e6)  # executions per ms
    if speed:
        outcome.measured_s.append(measured)
    return wall, throughputs


def run_paper(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    cases, mapper = paper_cases(workload)
    rng = random.Random(f"{workload}:{seed}")
    outcome = Outcome()
    reference: Dict[tuple, tuple] = {}

    def order():
        return rng.sample(cases, len(cases))

    if trace:
        return _trace_paper(workload, order, mapper, outcome, reference)
    # paper-lpt's time is in Python, whose speed the reference kernel
    # tracks; paper-ilp's is 90% in HiGHS, whose speed neither a Python
    # nor a HiGHS kernel sampled between its few long calls tracked, so
    # it stays in measured seconds (see LAYERS.md)
    speed = HostSpeed() if mapper == "lpt" else None
    if speed:
        speed.sample()
    deadline = time.perf_counter() + seconds
    walls: List[float] = []
    throughputs: List[float] = []
    latencies: Dict[tuple, List[float]] = defaultdict(list)
    while True:
        started = time.perf_counter()
        wall, tputs = _run_pass(
            order(), mapper, reference, outcome, latencies=latencies,
            speed=speed,
        )
        walls.append(wall)
        throughputs = throughputs or tputs
        if time.perf_counter() + (time.perf_counter() - started) > deadline:
            break
    # each case's call latency is its median over passes; with fewer
    # than eleven cases the tail is the slowest case (p100)
    per_case = sorted(statistics.median(v) for v in latencies.values()) or [0.0]
    flow_wall = statistics.median(walls)
    outcome.metrics = {
        "flow_wall_s": (flow_wall, "s"),
        "sim_throughput": (geomean(throughputs), "exec/ms"),
        "p50_ms": (statistics.median(per_case), "ms"),
        "tail_ms": (per_case[-1], "ms"),
        # closed loop: completed calls per second of mapping
        "sustainable_rps": (len(cases) / flow_wall, "1/s"),
    }
    unit = "reference" if speed else "measured"
    outcome.notes.append(
        f"per-case map_stream_graph {unit} ms (median over passes): "
        + ", ".join(
            f"{app}-{n}@{platform or 'g4'} {statistics.median(v):.1f}"
            for (app, n, platform), v in latencies.items()
        )
    )
    outcome.notes.append(
        f"{len(walls)} passes of {len(cases)} cases; {unit} seconds per "
        "pass: " + ", ".join(f"{w:.3f}" for w in walls)
    )
    if speed:
        outcome.notes.append(
            "measured seconds per pass: "
            + ", ".join(f"{w:.3f}" for w in outcome.measured_s)
            + "; " + speed.note()
        )
    return outcome


def _trace_paper(workload, order, mapper, outcome, reference) -> Outcome:
    """One untraced pass (the overhead baseline), then one traced pass."""
    import layers
    from repro.mapping.milp_model import MODEL_CACHE
    from spans import Recorder

    untraced, _ = _run_pass(order(), mapper, reference, outcome)
    rec = Recorder()
    layers.install(rec)
    before = MODEL_CACHE.stats()
    try:
        traced, _ = _run_pass(order(), mapper, reference, outcome, traced=rec)
    finally:
        rec.restore()
    after = MODEL_CACHE.stats()
    delta = {k: after[k] - before[k] for k in ("hits", "misses")}
    metrics = layers.layer_metrics(rec, outcome.bound_ratios, delta)
    metrics["trace.overhead_s"] = traced - untraced
    outcome.metrics = layers.with_units(metrics)
    outcome.notes += layers.trace_report(
        rec, workload, untraced_s=untraced, traced_s=traced,
        roots=[s for s in rec.spans if s.name.startswith("case.")],
    )
    outcome.spans = rec
    return outcome


# ----------------------------------------------------------------------
# service-mix
# ----------------------------------------------------------------------
@dataclass
class MixItem:
    kind: str
    label: str
    request: object  # MappingRequest or RemapRequest
    tag: str


def _delta(rng: random.Random, kind: str, platform: str):
    """One seeded degradation of ``platform`` of the given kind."""
    from repro.gpu.delta import PlatformDelta
    from repro.gpu.platforms import build_platform

    topology = build_platform(platform)
    if kind == "kill-gpu":
        return PlatformDelta.kill_gpu(rng.randrange(topology.num_gpus))
    if kind == "throttle-link":
        links = sorted({link.child for link in topology.links})
        return PlatformDelta.throttle_link(
            rng.choice(links), rng.choice((0.25, 0.5))
        )
    return PlatformDelta.slow_gpu(
        rng.randrange(topology.num_gpus), rng.choice((1.5, 2.0, 3.0))
    )


def build_mix(seed: int, count: int, stream: str = "") -> List[MixItem]:
    """The seeded request list of one window: ``count`` requests whose
    kinds follow MIX_PATTERN.

    The shape of the mix is fixed: cold requests cycle through MIX_APPS
    and the first platforms, the n-th second-platform repeat names the
    (n-1)-th cold request, a remap the one six colds back, and synth
    requests cycle through the families.  The seed draws the instances:
    each cold request's simulator noise seed, each synth graph's seed,
    each delta's target, and which earlier request a duplicate repeats.
    So two seeds differ in their inputs, not in how much work the mix
    holds.
    """
    from repro.service import MappingRequest, RemapRequest

    rng = random.Random(f"service-mix:{seed}:{stream}")
    colds: List[object] = []
    originals: List[object] = []
    items: List[MixItem] = []
    seen: Dict[str, int] = defaultdict(int)  # kind -> how many so far
    for index in range(count):
        kind = MIX_PATTERN[index % len(MIX_PATTERN)]
        nth = seen[kind]
        seen[kind] += 1
        if kind == "cold":
            app, n, tier = MIX_APPS[nth % len(MIX_APPS)]
            # a fresh simulator noise seed keeps every cold request cold
            req = MappingRequest(
                app=app, n=n, budget=tier, seed=rng.randrange(1_000_000),
                platform=MIX_FIRST_PLATFORMS[nth % len(MIX_FIRST_PLATFORMS)],
            )
            colds.append(req)
        elif kind == "second":
            # the cold request before the latest, so its stages are cached
            first = colds[max(0, nth - 1)]
            req = MappingRequest(
                app=first.app, n=first.n, budget=first.budget,
                seed=first.seed,
                platform=MIX_SECOND_PLATFORMS[nth % len(MIX_SECOND_PLATFORMS)],
            )
        elif kind == "synth":
            family, tier, band = MIX_SYNTH_FAMILIES[nth % len(MIX_SYNTH_FAMILIES)]
            req = MappingRequest(
                app=f"synth:{family}", n=_synth_seed(rng, family, band),
                budget=tier,
                platform=MIX_FIRST_PLATFORMS[nth % len(MIX_FIRST_PLATFORMS)],
            )
        elif kind == "exact":
            # the canonical instance: the MILP's work depends on it
            app, n = MIX_EXACT_APP
            req = MappingRequest(
                app=app, n=n, budget="default",
                platform=MIX_FIRST_PLATFORMS[nth % len(MIX_FIRST_PLATFORMS)],
            )
        elif kind == "remap":
            # a deployment solved a while ago, not one still in the queue
            base = colds[max(0, len(colds) - 6)]
            delta = _delta(rng, DELTA_KINDS[nth % len(DELTA_KINDS)],
                           base.platform)
            req = RemapRequest(base=base, deltas=(delta,))
        else:  # dup
            req = rng.choice(originals[:-2] or originals)
        if kind not in ("remap", "dup"):
            originals.append(req)
        # the tag names this submission's spans; it never enters a key
        tag = f"s{seed}{stream}-{index}"
        if kind == "remap":
            req = replace(req, base=replace(req.base, tag=tag))
        else:
            req = replace(req, tag=tag)
        base = req.base if kind == "remap" else req
        label = f"{kind}:{base.app}-{base.n}@{base.platform}/{base.budget}"
        items.append(MixItem(kind, label, req, tag))
    return items


def _synth_seed(rng: random.Random, family: str, band) -> int:
    """A seed of ``synth:<family>`` whose graph has an actor count
    within ``band``."""
    from repro.apps import build_app

    while True:
        seed = rng.randrange(1, 1_000_000)
        if band is None:
            return seed
        low, high = band
        if low <= len(build_app(f"synth:{family}", seed).nodes) <= high:
            return seed


def schedule(rng: random.Random, count: int, rate: float) -> List[float]:
    """Jittered-periodic send offsets (seconds): one slot per 1/rate,
    each send uniform within the middle 20% of its slot.  A narrow jitter
    keeps which requests overlap, and so the queueing, about the same
    from seed to seed."""
    return [(i + rng.uniform(0.4, 0.6)) / rate for i in range(count)]


def phase_counts(seconds: float) -> List[int]:
    """Requests per rate: each rate sends for its share of the run."""
    return [
        max(2, round(rate * share * seconds))
        for rate, share in zip(SERVICE_RATES, RATE_SHARES)
    ]


class _Phase:
    """One rate's run: a fresh service, the generator, the answers.

    With a ``speed`` (a fresh :class:`hostspeed.HostSpeed`), the
    schedule runs in reference time: each gap between sends is stretched
    by the host's recent slowdown, which the generator samples while the
    service is idle, so a slower host sees the same load.  The window's
    results are then divided by its slowdown.
    """

    def __init__(self, items, offsets, workdir, speed=None):
        self.items = items
        self.offsets = offsets
        self.workdir = workdir
        self.responses: List[Optional[dict]] = [None] * len(items)
        self.done_at: List[Optional[float]] = [None] * len(items)
        self.sent_at: List[float] = [0.0] * len(items)
        self.lag_ms: List[float] = []
        self.backlog_max = 0
        self.submitted_at: Dict[str, float] = {}
        self.speed = speed
        #: the host's slowdown over the window; the results below are
        #: in reference time (see ``hostspeed``)
        self.slowdown = 1.0
        self._pending = 0
        self._lock = threading.Lock()

    def run(self) -> None:
        from repro.mapping.milp_model import MODEL_CACHE
        from repro.service import JobStore, MappingService
        from repro.sweep import StageCache

        MODEL_CACHE.clear()
        service = MappingService(
            cache=StageCache(os.path.join(self.workdir, "cache")),
            store=JobStore(os.path.join(self.workdir, "jobs")),
            workers=os.cpu_count() or 1,
            executor="thread",
        )
        waiters = []
        speed = self.speed
        if speed:
            speed.sample(EDGE_PROBE_CALLS)
        try:
            due = time.perf_counter()
            previous = 0.0
            for index, item in enumerate(self.items):
                pace = speed.recent(PACE_SAMPLES) if speed else 1.0
                due += (self.offsets[index] - previous) * pace
                previous = self.offsets[index]
                if speed and due - time.perf_counter() > IDLE_PROBE_S and self._idle(service):
                    speed.sample(IDLE_PROBE_CALLS)
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                now = time.perf_counter()
                self.lag_ms.append(1000.0 * max(0.0, now - due))
                self.sent_at[index] = due
                self.submitted_at[item.tag] = now
                ticket = self._send(service, index, item)
                self.backlog_max = max(self.backlog_max, service.queue_depth())
                if ticket is None:
                    continue
                if ticket.done:
                    self._record(index, ticket)
                else:
                    with self._lock:
                        self._pending += 1
                    waiter = threading.Thread(
                        target=self._wait, args=(index, ticket), daemon=True,
                    )
                    waiter.start()
                    waiters.append(waiter)
            limit = time.perf_counter() + DRAIN_TIMEOUT_S
            for waiter in waiters:
                waiter.join(max(0.0, limit - time.perf_counter()))
        finally:
            service.shutdown(wait=False)
        if speed:
            speed.sample(EDGE_PROBE_CALLS)
            self.slowdown = speed.slowdown()
        self.stats = service.stats()
        self.cache_stats = service.cache.stats()
        self.latency = service.solve_latency()

    def _send(self, service, index, item):
        from repro.service import ServiceError

        try:
            if item.kind == "remap":
                return service.submit_remap(item.request)
            return service.submit(item.request)
        except (ServiceError, ValueError) as exc:
            self.done_at[index] = time.perf_counter()
            self.responses[index] = {
                "state": "refused", "error": str(exc),
            }
            return None

    def _idle(self, service) -> bool:
        with self._lock:
            return self._pending == 0 and service.queue_depth() == 0

    def _record(self, index: int, ticket) -> None:
        try:
            response = ticket.response(timeout=DRAIN_TIMEOUT_S)
        except TimeoutError as exc:
            response = {"state": "timeout", "error": str(exc)}
        self.done_at[index] = time.perf_counter()
        self.responses[index] = response

    def _wait(self, index: int, ticket) -> None:
        """A waiter thread: record the answer, then count it done."""
        self._record(index, ticket)
        with self._lock:
            self._pending -= 1

    # -- results --------------------------------------------------------
    def latencies_ms(self) -> List[float]:
        """From due time to completion; a failed request never meets
        a latency limit, so it counts as infinitely late."""
        out = []
        for index, response in enumerate(self.responses):
            if response is None or response.get("state") != "done":
                out.append(float("inf"))
            else:
                out.append(1000.0 * (self.done_at[index] - self.sent_at[index])
                           / self.slowdown)
        return out

    def solve_seconds(self) -> float:
        return sum(hist["sum"] for hist in self.latency.values())

    def _answered(self) -> List[float]:
        """Seconds from the window's start to each answer, on the
        schedule's clock (reference time when paced)."""
        return [
            self.offsets[i] + (done - self.sent_at[i]) / self.slowdown
            for i, done in enumerate(self.done_at) if done is not None
        ]

    def achieved_rps(self) -> float:
        answered = self._answered()
        return len(answered) / max(answered) if answered else 0.0

    def wall_s(self) -> float:
        return max(self._answered(), default=self.offsets[-1])

    def drain_ms(self) -> float:
        answered = self._answered()
        if len(answered) < len(self.items):
            return float("inf")
        return 1000.0 * (max(answered) - max(self.offsets))


def _key(item: MixItem) -> str:
    from repro.service import remap_request_key, request_key

    if item.kind == "remap":
        return "remap:" + remap_request_key(item.request)
    return request_key(item.request)


def _verify(phases: List[_Phase], outcome: Outcome) -> Dict[str, float]:
    """Out-of-band checks after the timed window.

    Every submission is one attempt.  A key whose answers differ between
    submissions, or whose answer differs from a fresh solve or fails the
    rescore, fails every submission of that key.  Returns the simulated
    throughput per distinct solve key (executions per ms).
    """
    from repro.sweep import StageCache

    cache = StageCache()  # the out-of-band solves' own cache
    first_item: Dict[str, MixItem] = {}
    served: Dict[str, dict] = {}
    answers: Dict[str, set] = defaultdict(set)
    submissions = []  # (key, response)
    for phase in phases:
        for item, response in zip(phase.items, phase.responses):
            key = _key(item)
            first_item.setdefault(key, item)
            submissions.append((key, response))
            if response is not None:
                served.setdefault(key, response)
                answers[key].add(canonical({
                    "state": response.get("state"),
                    "result": response.get("result"),
                }))
    throughputs: Dict[str, float] = {}
    key_errors: Dict[str, List[str]] = {}
    for key, item in first_item.items():
        errors = []
        if len(answers[key]) > 1:
            errors.append("submissions of one request got different answers")
        if key not in served:
            errors.append("no answer")
        else:
            try:
                more, ratio = check_served(item, served[key], cache)
            except Exception as exc:  # a crashing check is a failed check
                more, ratio = [f"check raised {type(exc).__name__}: {exc}"], None
            errors += more
            if ratio is not None:
                outcome.bound_ratios.append(ratio)
            if not errors and item.kind != "remap":
                throughputs[key] = served[key]["result"]["throughput"] * 1e6
        if errors:
            key_errors[key] = errors
            outcome.errors += [f"{item.label}: {e}" for e in errors]
    for key, response in submissions:
        outcome.attempted += 1
        if (
            response is None
            or response.get("state") != "done"
            or key in key_errors
        ):
            outcome.failed += 1
    return throughputs


def _workdir(root: str) -> str:
    os.makedirs(root, exist_ok=True)
    return tempfile.mkdtemp(prefix="service-mix-", dir=root)


def run_service_mix(
    seed: int, seconds: float, trace: bool, out_dir: str
) -> Outcome:
    outcome = Outcome()
    counts = phase_counts(seconds)
    mixes = [
        build_mix(seed, count, stream=f"r{i}") for i, count in enumerate(counts)
    ]
    rng = random.Random(f"service-mix-schedule:{seed}")
    workdir = _workdir(out_dir)
    try:
        if trace:
            return _trace_service(mixes[1], rng, workdir, outcome)
        phases = []
        for rate, items in zip(SERVICE_RATES, mixes):
            phase = _Phase(
                items, schedule(rng, len(items), rate),
                os.path.join(workdir, f"rate-{rate}"), speed=HostSpeed(),
            )
            phase.run()
            phases.append(phase)
        throughputs = _verify(phases, outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    sustainable = 0.0
    for rate, phase in zip(SERVICE_RATES, phases):
        pct, tail_ms = tail(phase.latencies_ms())
        ok = tail_ms <= LATENCY_LIMIT_MS and phase.drain_ms() <= LATENCY_LIMIT_MS
        if ok:
            sustainable = phase.achieved_rps()
        outcome.notes.append(
            f"rate {rate}/s: {len(phase.items)} requests, "
            f"p50 {statistics.median(phase.latencies_ms()):.1f} ms, "
            f"p{pct} {tail_ms:.1f} ms, drain {phase.drain_ms():.1f} ms, "
            f"achieved {phase.achieved_rps():.3f}/s, "
            f"{phase.speed.note()}, "
            f"{'within' if ok else 'over'} the {LATENCY_LIMIT_MS:.0f} ms limit"
        )
    middle = phases[1].latencies_ms()
    pct, tail_ms = tail(middle)
    outcome.metrics = {
        # the middle rate's request list, first due to last answer
        "flow_wall_s": (phases[1].wall_s(), "s"),
        "p50_ms": (statistics.median(middle), "ms"),
        "tail_ms": (tail_ms, "ms"),
        "sustainable_rps": (sustainable, "1/s"),
        "sim_throughput": (geomean(list(throughputs.values())), "exec/ms"),
    }
    outcome.notes.append(
        f"tail_ms is p{pct} of {len(middle)} requests at {SERVICE_RATES[1]}/s"
    )
    outcome.notes.append("times above are in reference seconds")
    return outcome


def _trace_service(items, rng, workdir, outcome) -> Outcome:
    """The middle rate untraced (the overhead baseline), then traced."""
    import layers
    from repro.mapping.milp_model import MODEL_CACHE
    from spans import Recorder

    offsets = schedule(rng, len(items), SERVICE_RATES[1])
    untraced = _Phase(items, offsets, os.path.join(workdir, "untraced"))
    untraced.run()
    rec = Recorder()
    layers.install(rec)
    before = MODEL_CACHE.stats()
    traced = _Phase(items, offsets, os.path.join(workdir, "traced"))
    try:
        traced.run()
    finally:
        rec.restore()
    after = MODEL_CACHE.stats()
    _verify([untraced, traced], outcome)
    stats = traced.stats
    by_stage = traced.cache_stats.by_stage
    service = {
        "cache_by_stage": by_stage,
        "dedup_ratio": stats.dedup_hits / stats.submitted if stats.submitted else 0.0,
        "queue_wait_ms": layers.queue_waits(rec, traced.submitted_at),
        "backlog_max": traced.backlog_max,
        "generator_lag_ms": max(traced.lag_ms) if traced.lag_ms else 0.0,
    }
    delta = {k: after[k] - before[k] for k in ("hits", "misses")}
    metrics = layers.layer_metrics(rec, outcome.bound_ratios, delta, service)
    metrics["trace.overhead_s"] = traced.solve_seconds() - untraced.solve_seconds()
    outcome.metrics = layers.with_units(metrics)
    roots = [
        s for s in rec.spans
        if s.parent is None and s.name.startswith("service.solve")
    ]
    outcome.notes += layers.trace_report(
        rec, "service-mix", untraced_s=untraced.solve_seconds(),
        traced_s=traced.solve_seconds(), roots=roots,
    )
    outcome.spans = rec
    return outcome
