#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload threshold-plane --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` wraps every layer boundary and prints the per-layer
metrics instead.  Every workload prints every metric of its mode.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it, starting
with ``#``, carries the host-speed probe, sample counts and other facts
for a human reader.  The exit code is 0 only when every output check
passed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import common  # noqa: E402  (after the path set-up)

WORKLOADS = ("threshold-plane", "session-sweep", "proxy-tcp")


def _load(workload: str):
    if workload == "threshold-plane":
        import threshold_plane as module
    elif workload == "session-sweep":
        import session_sweep as module
    else:
        import proxy_tcp as module
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    clock = common.HostClock()
    # Set-up is timed from here: the first probe point is calibration.
    started = time.perf_counter()
    tracer = None
    if args.trace:
        import layers

        tracer = common.Tracer()
        layers.install(tracer)
    try:
        module = _load(args.workload)
        result = module.run(
            args.seed, args.seconds, clock, tracer=tracer, started=started,
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    clock.mark()
    probe = clock.probe_ms()

    if args.trace:
        extra = dict(result.layers)
        extra["host.probe_ms"] = probe
        metrics = layers.metrics(tracer, result.timed_s, extra)
    else:
        metrics = dict(result.metrics)
        metrics["peak_rss_mb"] = (common.peak_rss_mb(), "MiB")

    notes = dict(result.notes)
    notes["host.probe_ms"] = round(probe, 4)
    notes["host.probe_points"] = len(clock.points)
    notes["timed_raw_s"] = round(result.timed_s, 3)
    if args.trace:
        notes["traced_end_to_end"] = {
            k: v for k, (v, _) in result.metrics.items()
        }
        notes["layer_detail"] = layers.detail(tracer)
    for miss in result.misses[:50]:
        print(f"check miss: {miss}", file=sys.stderr)
    if len(result.misses) > 50:
        print(f"... and {len(result.misses) - 50} more misses",
              file=sys.stderr)
    correct = not result.misses
    print("# " + json.dumps(notes, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
