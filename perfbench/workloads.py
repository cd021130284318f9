"""The two workloads, each loading a different layer of the system.

Every workload builds its inputs from the run's ``--seed`` (headers, query
order, what-if rule sets) over a fixed scenario network, so
runs on different seeds measure the same system on different traffic.  The
server process receives only generated inputs: the artifact file the
benchmark saved and the wire traffic.

End-to-end metrics have the same names on every workload; each workload
has one *main* stream that loads its layer and one *side* stream whose
latency shows what that load costs a user:

===============  ====================  ===================
metric           serve-wan             whatif-campus
===============  ====================  ===================
``main_rate``    bulk headers/s        what-ifs/s
``main_p50_ms``  bulk frame p50        what-if p50
``side_p50_ms``  JSON query p50        live frame p50
===============  ====================  ===================

Each is summarised from the quick part of the run, since a shared host's
slow spells only ever add time (:mod:`stats`): the bulk and query streams
by the median of their quickest 1 s slice (the bulk rate by the fastest
slice's); what-ifs, whose rule sets a run repeats against the same served
generation, by the median of each set's best time.  Live frames keep the
median of the whole window, since their wait is set by the what-ifs beside
them.  Each stream's tail over the whole window goes to the run's details
file: p95, or p60 for what-ifs, of which a run holds fewer.

A third workload, in-process rule churn on ``stanford``, was left out: on a
shared 2-core host its update rate and read median spread 0.28 and 0.41 from
run to run, beyond the 0.25 bound, and the update layers are still measured
by the probe of every traced run (:func:`layers.probe_updates`).
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import statistics
import struct
import time

from repro import persist
from repro.core.classifier import APClassifier
from repro.core.kernel import default_backend, words_per_header
from repro.datasets.registry import derive_seed, get_scenario
from repro.datasets.updates import rule_update_stream
from repro.datasets.workloads import uniform_over_atoms
from repro.diff import diff_generations, format_rule_spec, parse_rule_spec
from repro.obs import Recorder
from repro.serve import proto

import layers
import loadgen
from loadgen import OK, REFUSED, WRONG, Stream
from server import ServerProcess, peak_rss_mb
from spans import Tracer
from stats import (best_of_repeats, due_latencies, fastest_slice_rate,
                   lateness, percentile, quickest_slice_p50, supports)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Spans :func:`layers.build` records, one per layer of the offline pipeline.
BUILD_STAGES = ("network.convert", "atomic.compute", "construction.tree",
                "compiled.compile")
#: A send this far behind its due time means the generator fell behind.
LATE_LIMIT_S = 0.1
#: Traffic before the measured window, so caches and the loop are warm.
WARMUP_S = 1.0
#: Traced runs only: the side stream alone, to compare with its loaded p50.
IDLE_S = 2.0
#: Traced runs trace every other slice of this length of the measured window,
#: so ``trace.overhead_pct`` compares traced and untraced requests at the same
#: host speed.
TRACE_SLICE_S = 1.0

FRAME = 256  # headers per bulk or read frame

# serve-wan
WAN = ("internet2", {"prefixes_per_router": 14})
BULK_FRAMES = 32
BULK_DEPTH = 2
QUERY_POOL = 128
QUERY_RATE = 50.0  # JSON queries/s; the seed sustains this beside the bulk

# whatif-campus
CAMPUS = ("stanford", {})
LIVE_FRAME = 16
LIVE_FRAMES = 32
LIVE_RATE = 50.0  # live frames/s
WHATIF_SETS = 16  # a run sends each about five times
WHATIF_MAX_RULES = 4

#: Updates and what-ifs applied by the in-process probes of traced runs.
PROBE_UPDATES = 24
PROBE_WHATIFS = 4


class Run:
    """One invocation: seed, timing, outcome counts and the result."""

    def __init__(self, root: str, workload: str, seed: int, seconds: float,
                 trace: bool) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = Tracer(trace)
        self.engine = default_backend()
        self.rng = random.Random(derive_seed(seed, workload))
        self.out_dir = os.path.join(root, "perfbench", "out")
        os.makedirs(self.out_dir, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.metrics: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.samples: dict[str, int] = {}
        self.tails: dict[str, float] = {}
        self.late_max_s = 0.0
        self.behind = False

    def path(self, suffix: str) -> str:
        return os.path.join(
            self.out_dir, f"{self.workload}-seed{self.seed}-{os.getpid()}{suffix}"
        )

    def cleanup(self) -> None:
        """Remove the run's artifact, and its server log when empty."""
        artifact, log = self.path(".apc"), self.path(".log")
        if os.path.exists(artifact):
            os.remove(artifact)
        if os.path.exists(log) and not os.path.getsize(log):
            os.remove(log)

    def tally(self, stream: Stream, indices) -> None:
        """Count a stream's measured requests; note a late generator."""
        outcomes = [stream.outcome[i] for i in indices]
        self.attempted += len(outcomes)
        self.failed += sum(outcome != OK for outcome in outcomes)
        self.wrong += stream.outcome.count(WRONG)
        self.samples[stream.name] = len(outcomes)
        late = lateness([stream.due[i] for i in indices],
                        [stream.sent[i] for i in indices])
        self.late_max_s = max(self.late_max_s, late)
        if late > LATE_LIMIT_S:
            self.behind = True

    def latencies(self, stream: Stream, indices) -> list[float]:
        return due_latencies([stream.due[i] for i in indices],
                             [stream.done[i] for i in indices])

    def set_latency(self, prefix: str, stream: Stream, indices,
                    tail_q: float, p50_s: float) -> None:
        """``<prefix>_p50_ms`` from ``p50_s``, the stream's host-robust
        median (:mod:`stats`); and percentile ``tail_q`` of the whole window
        if the sample has ten values beyond it.

        The tail goes to the run's details, not to the gated metrics: on a
        shared 2-core host it moves with the host's scheduling far more than
        the medians do.
        """
        self.metrics[f"{prefix}_p50_ms"] = p50_s * 1e3
        values = self.latencies(stream, indices)
        if supports(len(values), tail_q):
            self.tails[f"{prefix}_p{tail_q:g}_ms"] = percentile(values, tail_q) * 1e3

    def quick_p50(self, stream: Stream, indices, start: float,
                  end: float) -> float:
        """:func:`stats.quickest_slice_p50` of the stream's latencies, sliced
        by due time."""
        return quickest_slice_p50([stream.due[i] for i in indices],
                                  self.latencies(stream, indices), start, end)


def _traced_slice(start: float, t: float) -> bool:
    """Is ``t`` in one of the traced slices of a window opening at ``start``?"""
    return t >= start and int((t - start) // TRACE_SLICE_S) % 2 == 1


def _trace_overhead(stream: Stream, run: Run, indices, start: float) -> None:
    """Tracing overhead: main p50 of the traced slices over the untraced ones."""
    traced = [i for i in indices if _traced_slice(start, stream.due[i])]
    plain = [i for i in indices if not _traced_slice(start, stream.due[i])]
    traced_p50 = percentile(run.latencies(stream, traced), 50)
    plain_p50 = percentile(run.latencies(stream, plain), 50)
    run.layers["trace.overhead_pct"] = (traced_p50 - plain_p50) / plain_p50 * 100.0


def _toggle_tracing(run: Run, start: float, end: float) -> None:
    """Traced runs: tracing off before ``start``, then on in every other
    slice of the window, then on again from ``end`` for the probes."""
    if not run.trace:
        return
    tracer = run.tracer
    tracer.enabled = False
    loop = asyncio.get_running_loop()
    now = time.perf_counter()
    slice_start, index = start, 0
    while slice_start < end:
        loop.call_later(max(0.0, slice_start - now), setattr, tracer, "enabled",
                        index % 2 == 1)
        index += 1
        slice_start = start + index * TRACE_SLICE_S
    loop.call_later(max(0.0, end - now), setattr, tracer, "enabled", True)


def _setup_layers(run: Run, names) -> None:
    """Median time of each set-up stage over the run's set-ups."""
    for name in names:
        run.layers[f"{name}_s"] = layers.median_s(run.tracer, name)


def _idle_p50(run: Run, server, requests, read_answer, check, rate) -> None:
    """Traced runs: the side stream alone, for comparison with its loaded p50."""
    idle = Stream("idle", run.tracer)
    start = time.perf_counter()
    asyncio.run(loadgen.open_loop(server.address, requests, read_answer, check,
                                  idle, rate=rate, start_at=start,
                                  stop_at=start + IDLE_S))
    run.wrong += idle.outcome.count(WRONG)
    run.layers["service.live_idle_p50_ms"] = percentile(
        run.latencies(idle, range(len(idle.due))), 50) * 1e3


def _serve(run: Run, spec) -> tuple[ServerProcess, APClassifier]:
    """Build, save and serve ``spec`` ``SETUP_REPEATS`` times; keep the last.

    Returns the running server and the in-process reference classifier
    loaded from the same artifact.
    """
    name, params = spec
    artifact = run.path(".apc")
    engine = run.engine
    totals = []
    server = None
    recorder = None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            recorder = Recorder() if run.trace else None
            started = time.perf_counter()
            built = layers.build(get_scenario(name, **params), engine,
                                 run.tracer, recorder=recorder)
            with run.tracer.span("artifact.save"):
                size = persist.save(built, artifact)
            server = ServerProcess(run.root, artifact, engine, run.path(".log"))
            with run.tracer.span("tcp.server_ready"):
                server.start()
            totals.append(time.perf_counter() - started)
    except BaseException:
        if server is not None:
            server.stop()
        raise
    run.metrics["setup_s"] = statistics.median(totals)
    if run.trace:
        _setup_layers(run, BUILD_STAGES + ("artifact.save", "tcp.server_ready"))
        run.layers.update(layers.shape(built, recorder))
        run.layers["artifact.bytes"] = size
    reference = persist.load(artifact)
    reference.compile(engine)
    return server, reference


def _frames(classifier, count: int, size: int, rng) -> list[list[int]]:
    headers = list(uniform_over_atoms(classifier.universe, count * size, rng).headers)
    return [headers[i * size:(i + 1) * size] for i in range(count)]


def _classify_requests(classifier, frames):
    """Pre-encoded ``CLASSIFY`` frames, and the ``RESULT`` payloads the
    atom scan ``universe.classify`` expects for them.

    The expected bytes are packed here, not by :mod:`repro.serve.proto`, so
    a fault in the kernel or the result codec shows as a wrong answer.
    """
    width = words_per_header(classifier.dataplane.manager.num_vars)
    universe = classifier.universe
    requests, expected = [], []
    for frame in frames:
        atoms = [universe.classify(header) for header in frame]
        requests.append(proto.pack_frame(
            proto.CLASSIFY, proto.encode_classify(frame, width=width)))
        expected.append(struct.pack(f"<I{len(atoms)}q", len(atoms), *atoms))
    return requests, expected


def _frame_check(expected):
    """Judge ``(type, payload)`` answers against expected ``RESULT`` payloads."""
    def check(index: int, answer) -> str:
        ftype, payload = answer
        if ftype == proto.RESULT and payload == expected[index % len(expected)]:
            return OK
        if ftype == proto.ERROR:
            return REFUSED
        return WRONG
    return check


def _ingresses(classifier, rng) -> list[str]:
    boxes = sorted(classifier.dataplane.network.boxes)
    rng.shuffle(boxes)
    return boxes


def _whatif_requests(classifier, rng, count: int):
    """``count`` (ingress, rule specs) sets of 1-4 inserts from the stream.

    Traffic enters at the box of the first rule, so the rule is on the path
    and most answers report changed packet classes.
    """
    layout = classifier.dataplane.layout
    stream = rule_update_stream(classifier.dataplane.network,
                                count * WHATIF_MAX_RULES, rng,
                                insert_fraction=1.0)
    requests, cursor = [], 0
    for index in range(count):
        # Sizes cycle instead of being drawn, so every seed sends the same
        # mix of 1- to 4-rule requests and only the rules themselves differ.
        size = 1 + index % WHATIF_MAX_RULES
        specs = [format_rule_spec(u.box, u.rule, layout)
                 for u in stream[cursor:cursor + size]]
        requests.append((stream[cursor].box, specs))
        cursor += size
    return requests


def _trace_probes(run: Run, classifier, server, frame, call, pool, updates,
                  whatifs) -> None:
    """Per-layer numbers no traffic stream gives directly (traced runs);
    ``updates`` and ``whatifs`` are probed only where they are not ``None``."""
    tracer = run.tracer
    run.layers.update(layers.probe_frame_path(classifier, server, frame, call,
                                              tracer))
    run.layers.update(layers.probe_behavior(classifier, pool, tracer))
    run.layers.update(layers.probe_persist(classifier, tracer))
    if updates is not None:
        run.layers.update(layers.probe_updates(classifier, updates, run.engine,
                                               tracer))
    if whatifs is not None:
        run.layers.update(layers.probe_whatif(classifier, whatifs, tracer))


# ----------------------------------------------------------------------
# serve-wan
# ----------------------------------------------------------------------


def serve_wan(run: Run) -> None:
    server, reference = _serve(run, WAN)
    with server:
        rng = run.rng
        frames = _frames(reference, BULK_FRAMES, FRAME, rng)
        bulk_requests, bulk_expected = _classify_requests(reference, frames)
        ingresses = _ingresses(reference, rng)
        pool_headers = uniform_over_atoms(reference.universe, QUERY_POOL, rng).headers
        pool = [(h, ingresses[i % len(ingresses)]) for i, h in enumerate(pool_headers)]
        query_requests, query_expected = [], []
        for header, ingress in pool:
            atom = reference.universe.classify(header)
            behavior = reference.behavior_of_atom(atom, ingress)
            query_expected.append((atom, sorted(behavior.delivered_hosts())))
            query_requests.append((json.dumps(
                {"op": "query", "header": header, "ingress": ingress}) + "\n").encode())

        def check_query(index: int, line: bytes) -> str:
            answer = json.loads(line)
            if not answer.get("ok"):
                return REFUSED
            atom, delivered = query_expected[index % len(query_expected)]
            return OK if (answer["atom"], answer["delivered"]) == (atom, delivered) else WRONG

        bulk = Stream("bulk", run.tracer)
        query = Stream("query", run.tracer)
        start = time.perf_counter() + WARMUP_S
        end = start + run.seconds

        async def drive() -> None:
            _toggle_tracing(run, start, end)
            await asyncio.gather(
                loadgen.closed_loop(server.address, bulk_requests,
                                    proto.read_frame, _frame_check(bulk_expected),
                                    bulk, depth=BULK_DEPTH, stop_at=end),
                loadgen.open_loop(server.address, query_requests, asyncio.StreamReader.readline,
                                  check_query, query, rate=QUERY_RATE,
                                  start_at=time.perf_counter(), stop_at=end),
            )

        asyncio.run(drive())
        measured = bulk.window(start, end)
        run.tally(bulk, measured)
        queries = query.window(start, end)
        run.tally(query, queries)
        run.metrics["main_rate"] = fastest_slice_rate(
            bulk.done, [FRAME * (outcome == OK) for outcome in bulk.outcome],
            start, end)
        run.set_latency("main", bulk, measured, 95,
                        run.quick_p50(bulk, measured, start, end))
        run.set_latency("side", query, queries, 95,
                        run.quick_p50(query, queries, start, end))

        if run.trace:
            _trace_overhead(bulk, run, measured, start)
            _idle_p50(run, server, query_requests, asyncio.StreamReader.readline,
                      check_query, QUERY_RATE)
            run.layers.update(layers.service_counters(server.metrics()))
            pool_atoms = [(reference.classify(h), ing) for h, ing in pool]
            updates = rule_update_stream(reference.dataplane.network,
                                         PROBE_UPDATES, rng)
            _trace_probes(run, reference, server, frames[0], frames[0][:1],
                          pool_atoms, updates,
                          _whatif_requests(reference, rng, PROBE_WHATIFS))
        run.metrics["rss_mb"] = peak_rss_mb(server.proc.pid)


# ----------------------------------------------------------------------
# whatif-campus
# ----------------------------------------------------------------------


def whatif_campus(run: Run) -> None:
    server, reference = _serve(run, CAMPUS)
    with server:
        rng = run.rng
        network = reference.dataplane.network
        frames = _frames(reference, LIVE_FRAMES, LIVE_FRAME, rng)
        live_requests, live_expected = _classify_requests(reference, frames)
        whatifs = _whatif_requests(reference, rng, WHATIF_SETS)
        whatif_frames = [
            proto.pack_frame(proto.WHATIF, json.dumps(
                {"ingress": ingress, "add": specs, "limit": 0}).encode())
            for ingress, specs in whatifs
        ]
        check_whatif = WhatIfCheck(whatifs)
        heavy = Stream("whatif", run.tracer)
        live = Stream("live", run.tracer)
        start = time.perf_counter() + WARMUP_S
        end = start + run.seconds

        async def drive() -> None:
            _toggle_tracing(run, start, end)
            await asyncio.gather(
                loadgen.closed_loop(server.address, whatif_frames,
                                    proto.read_frame, check_whatif, heavy,
                                    depth=1, stop_at=end),
                loadgen.open_loop(server.address, live_requests,
                                  proto.read_frame, _frame_check(live_expected),
                                  live, rate=LIVE_RATE,
                                  start_at=time.perf_counter(), stop_at=end),
            )

        asyncio.run(drive())
        run.wrong += check_whatif.verify(reference)
        measured = heavy.window(start, end)
        run.tally(heavy, measured)
        lives = live.window(start, end)
        run.tally(live, lives)
        # One what-if in flight, so record i answers request i.
        best = best_of_repeats([i % len(whatifs) for i in measured],
                               run.latencies(heavy, measured))
        run.metrics["main_rate"] = len(best) / sum(best.values())
        run.set_latency("main", heavy, measured, 60,
                        percentile(list(best.values()), 50))
        # The whole window: a live frame's wait is set by the what-ifs beside
        # it more than by the host, and its quickest seconds are those in
        # which no what-if happened to run.
        run.set_latency("side", live, lives, 95,
                        percentile(run.latencies(live, lives), 50))

        if run.trace:
            _trace_overhead(heavy, run, measured, start)
            run.layers.update(layers.whatif_split(check_whatif.reports))
            _idle_p50(run, server, live_requests, proto.read_frame,
                      _frame_check(live_expected), LIVE_RATE)
            run.layers.update(layers.service_counters(server.metrics()))
            ingresses = _ingresses(reference, rng)
            pool = [(atom, ingresses[i % len(ingresses)])
                    for i, atom in enumerate(reference.classify_batch(frames[0]))]
            big = [h for frame in frames for h in frame][:FRAME]
            _trace_probes(run, reference, server, big, frames[0], pool,
                          rule_update_stream(network, PROBE_UPDATES, rng), None)
        run.metrics["rss_mb"] = peak_rss_mb(server.proc.pid)


class WhatIfCheck:
    """Judges served what-if reports, as the loader's ``check`` callback.

    A repeated rule set must give the summary its first report gave.  After
    the window, :meth:`verify` checks the first report of every set served
    against ``diff_generations`` run in-process on a separately updated copy
    of the same classifier, so every answer is checked against the diff.
    """

    def __init__(self, requests) -> None:
        self.requests = requests
        self.first: dict[int, tuple] = {}
        self.reports: list[dict] = []

    def __call__(self, index: int, answer) -> str:
        ftype, payload = answer
        if ftype != proto.WHATIF_RESULT:
            return REFUSED
        report = json.loads(payload)
        self.reports.append(report)
        summary = (report["changed_volume"], report["changed_classes"],
                   report["atoms_after"], report["pairs_examined"])
        known = self.first.setdefault(index % len(self.requests), summary)
        return OK if known == summary else WRONG

    def verify(self, reference) -> int:
        """Wrong first reports; with none served at all, one."""
        if not self.first:
            return 1
        snapshot = persist.classifier_to_json(reference)
        layout = reference.dataplane.layout
        wrong = 0
        for index, served in sorted(self.first.items()):
            ingress, specs = self.requests[index]
            after = persist.classifier_from_json(snapshot)
            after.set_maintenance("incremental")
            for spec in specs:
                after.insert_rule(*parse_rule_spec(spec, layout))
            report = diff_generations(reference, after, ingress)
            expected = (report.changed_volume, len(report.entries),
                        report.atoms_after)
            wrong += served[:3] != expected
        return wrong


WORKLOADS = {
    "serve-wan": serve_wan,
    "whatif-campus": whatif_campus,
}
