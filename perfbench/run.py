"""Layered benchmark of the AP Classifier serving, update and what-if paths.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-wan --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run; ``--trace 1``
prints the per-layer metrics and writes the spans to ``perfbench/out/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a line before it
carries the host fingerprint and the host's speed before and after the run
(:func:`host.loop_ms`).  The exit code is 0 only when every checked
answer was right.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Units of the end-to-end metrics (``--trace 0``); a per-layer metric's
#: unit follows from its name (:func:`layer_unit`).
END_TO_END = {
    "setup_s": "s",
    "rss_mb": "MB",
    "main_rate": "1/s",
    "main_p50_ms": "ms",
    "side_p50_ms": "ms",
}


def layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_us", "us"),
                         ("_pct", "%"), ("_share", "ratio"), ("_ratio", "ratio"),
                         ("_mean", "count"), (".bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still unwinds, so the server it spawned is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import host
    from workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    run = Run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    host_loop_ms = [host.loop_ms()]
    try:
        WORKLOADS[args.workload](run)
    finally:
        run.cleanup()
    host_loop_ms.append(host.loop_ms())

    if args.trace:
        run.layers["loadgen.late_max_ms"] = run.late_max_s * 1e3
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in sorted(run.layers.items())}
    else:
        metrics = {name: {"value": run.metrics[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    fingerprint = host.fingerprint(run.engine)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint,
        "host_loop_ms": host_loop_ms,
        "samples": run.samples,
        "tails": run.tails,
        "wrong": run.wrong,
        "generator_behind": run.behind,
        "metrics": metrics,
    }
    with open(run.path(f"-trace{args.trace}.json"), "w") as handle:
        json.dump(details, handle, indent=1)
    if args.trace:
        run.tracer.dump(run.path(".spans.json"), workload=args.workload,
                        seed=args.seed, fingerprint=fingerprint)
    if run.behind:
        print(f"warning: the load generator fell behind its schedule by "
              f"{run.late_max_s * 1e3:.1f} ms", file=sys.stderr)
    print(json.dumps({"fingerprint": fingerprint, "host_loop_ms": host_loop_ms,
                      "samples": run.samples,
                      "tails": run.tails, "generator_behind": run.behind}))
    correct = run.wrong == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": min(max(run.failed, run.wrong), run.attempted),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
