"""Calls into each layer's public functions, timed from the benchmark.

:func:`build` is the offline pipeline every workload sets up with, one span
per layer.  The ``probe_*`` functions run only in a traced run, after the
measured window: each times one layer in-process on the workload's own
classifier and inputs, so every per-layer metric exists on every workload
even where the workload's traffic does not drive that layer.
"""

from __future__ import annotations

import statistics
import time

from repro import persist
from repro.bdd import BDDManager
from repro.core.atomic import AtomicUniverse
from repro.core.classifier import APClassifier
from repro.core.construction import build_tree
from repro.core.kernel import pack_headers, words_per_header
from repro.diff import parse_rule_spec, what_if
from repro.network.dataplane import DataPlane
from repro.obs import Recorder
from repro.serve import proto

from server import recv_frame
from stats import percentile


def build(scenario, engine: str, tracer, *, recorder=None,
          maintenance: str = "tombstone") -> APClassifier:
    """Network -> predicates -> atoms -> AP Tree -> compiled program."""
    with tracer.span("network.generate"):
        network = scenario.network()
    with tracer.span("network.convert"):
        manager = BDDManager(network.layout.total_width)
        if recorder is not None:
            recorder.attach_manager(manager)
        dataplane = DataPlane(network, manager)
    with tracer.span("atomic.compute"):
        universe = AtomicUniverse.compute(manager, dataplane.predicates())
    with tracer.span("construction.tree"):
        report = build_tree(universe)
    classifier = APClassifier(
        dataplane, universe, report.tree, maintenance=maintenance
    )
    with tracer.span("compiled.compile"):
        classifier.compile(engine)
    return classifier


def shape(classifier: APClassifier, recorder: Recorder) -> dict:
    """Sizes of what the set-up built, and how well the BDD caches worked."""
    bdd = recorder.bdd
    lookups = bdd.apply_hits + bdd.apply_misses
    return {
        "atomic.atoms": classifier.universe.atom_count,
        "atomic.predicates": classifier.universe.predicate_count,
        "construction.avg_depth": classifier.tree.average_depth(),
        "bdd.nodes": len(classifier.dataplane.manager),
        "bdd.apply_hit_ratio": bdd.apply_hits / lookups if lookups else 0.0,
    }


def median_s(tracer, name: str) -> float:
    return statistics.median(tracer.durations(name))


def probe_frame_path(classifier, server, frame, call, tracer,
                     repeats: int = 200) -> dict:
    """A bulk frame through the server's own steps in-process (decode,
    kernel, encode), then over the wire; what the in-process steps do not
    explain is the socket and event-loop cost of :mod:`repro.serve.tcp`.

    The two alternate frame by frame, so both see the same host speed.
    """
    num_vars = classifier.dataplane.manager.num_vars
    payload = proto.encode_classify(frame, width=words_per_header(num_vars))
    request = proto.pack_frame(proto.CLASSIFY, payload)
    small = pack_headers(call, num_vars)
    wire = []
    sock = server.connect_framed()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            headers, _ = proto.decode_classify(payload)
            t1 = time.perf_counter()
            atoms = classifier.classify_batch_array(headers)
            t2 = time.perf_counter()
            answer = proto.pack_frame(proto.RESULT, proto.encode_result(atoms.tolist()))
            t3 = time.perf_counter()
            sock.sendall(request)
            ftype, body = recv_frame(sock)
            t4 = time.perf_counter()
            if proto.pack_frame(ftype, body) != answer:
                raise RuntimeError("the server's RESULT differs from the in-process one")
            tracer.add("proto.decode", t0, t1)
            tracer.add("kernel.frame", t1, t2)
            tracer.add("proto.encode", t2, t3)
            tracer.add("tcp.round_trip", t3, t4)
            wire.append((t4 - t3) - (t3 - t0))
            with tracer.span("kernel.call"):
                classifier.classify_batch_array(small)
    finally:
        sock.close()
    return {
        "kernel.frame_us": median_s(tracer, "kernel.frame") * 1e6,
        "kernel.call_us": median_s(tracer, "kernel.call") * 1e6,
        "proto.decode_us": median_s(tracer, "proto.decode") * 1e6,
        "proto.encode_us": median_s(tracer, "proto.encode") * 1e6,
        "tcp.wire_us": statistics.median(wire) * 1e6,
    }


def probe_behavior(classifier, atoms_and_ingress, tracer) -> dict:
    """Stage 2 (``behavior_of_atom``) for the workload's query pool."""
    for atom, ingress in atoms_and_ingress:
        with tracer.span("behavior.query"):
            classifier.behavior_of_atom(atom, ingress)
    return {"behavior.query_us": median_s(tracer, "behavior.query") * 1e6}


def probe_persist(classifier, tracer, repeats: int = 3) -> dict:
    """JSON snapshot round trip of the live generation."""
    for _ in range(repeats):
        with tracer.span("persist.snapshot"):
            text = persist.classifier_to_json(classifier)
        with tracer.span("persist.restore"):
            persist.classifier_from_json(text)
    return {
        "persist.snapshot_ms": median_s(tracer, "persist.snapshot") * 1e3,
        "persist.restore_ms": median_s(tracer, "persist.restore") * 1e3,
    }


def time_updates(classifier, tracer) -> None:
    """Time the data-plane diff and the incremental engine apart inside
    every update later applied to ``classifier``, by whatever caller.

    The classifier's ``insert_rule``/``remove_rule`` and the serve layer's
    update path both call ``dataplane.insert_rule``/``remove_rule`` and then
    ``apply_changes``; those three are wrapped on the instances in spans,
    which record nothing while the tracer is off.
    """
    dataplane = classifier.dataplane
    for owner, name, span in ((dataplane, "insert_rule", "dataplane.change"),
                              (dataplane, "remove_rule", "dataplane.change"),
                              (classifier, "apply_changes", "incremental.apply")):
        def timed(*args, _method=getattr(owner, name), _span=span, **kwargs):
            with tracer.span(_span):
                return _method(*args, **kwargs)

        setattr(owner, name, timed)


def update_layers(classifier, recorder: Recorder, tracer,
                  fresh_share: float) -> dict:
    """What :func:`time_updates` and the update counters of ``recorder``
    saw, and the size the updates left the classifier at."""
    counters = recorder.updates
    applies = tracer.durations("incremental.apply")
    return {
        "dataplane.change_us": median_s(tracer, "dataplane.change") * 1e6,
        "incremental.apply_p50_ms": percentile(applies, 50) * 1e3,
        "incremental.apply_p95_ms": percentile(applies, 95) * 1e3,
        "incremental.splices": counters.incremental_splices,
        "incremental.merges": counters.incremental_merges,
        "incremental.patches": counters.incremental_patches,
        "incremental.patch_fallbacks": counters.incremental_patch_fallbacks,
        "incremental.full_rebuilds": counters.incremental_full_rebuilds,
        "compiled.fresh_share": fresh_share,
        "atomic.atoms_end": classifier.universe.atom_count,
        "bdd.nodes_end": len(classifier.dataplane.manager),
    }


def probe_updates(classifier, updates, engine: str, tracer) -> dict:
    """Apply ``updates`` to an incremental fork, for workloads whose
    traffic applies none."""
    fork = persist.classifier_from_json(persist.classifier_to_json(classifier))
    fork.set_maintenance("incremental")
    fork.compile(engine)
    recorder = Recorder()
    fork.set_recorder(recorder)
    time_updates(fork, tracer)
    fresh = 0
    for update in updates:
        if update.kind == "insert":
            fork.insert_rule(update.box, update.rule)
        else:
            fork.remove_rule(update.box, update.rule)
        fresh += fork.compiled_fresh
    return update_layers(fork, recorder, tracer, fresh / len(updates))


def whatif_split(reports) -> dict:
    """Per-stage medians of what-if reports (``WhatIfReport.to_json``)."""
    def median_ms(key):
        return statistics.median(r[key] for r in reports) * 1e3

    return {
        "diff.fork_ms": median_ms("shadow_build_s"),
        "diff.apply_ms": median_ms("apply_s"),
        "diff.transfer_ms": median_ms("transfer_s"),
        "diff.pair_ms": statistics.median(
            r["elapsed_s"] - r["sat_count_s"] - r["transfer_s"] for r in reports
        ) * 1e3,
        "diff.sat_count_ms": median_ms("sat_count_s"),
        "diff.pairs": statistics.median(r["pairs_examined"] for r in reports),
    }


def probe_whatif(classifier, requests, tracer) -> dict:
    """In-process what-ifs for workloads that send none over the wire."""
    layout = classifier.dataplane.layout
    reports = []
    for ingress, specs in requests:
        add = [parse_rule_spec(spec, layout) for spec in specs]
        with tracer.span("diff.what_if"):
            reports.append(what_if(classifier, ingress, add=add).to_json(0))
    return whatif_split(reports)


def service_counters(metrics: dict) -> dict:
    """The serve-layer counters a ``METRICS`` answer carries."""
    return {
        "service.batch_mean": metrics["mean_batch_size"],
        "service.queue_depth_max": metrics["queue_depth_max"],
        "service.latency_p50_us": metrics["latency_s"]["p50"] * 1e6,
        "cache.invalidations": metrics["result_cache"]["invalidations"],
    }

