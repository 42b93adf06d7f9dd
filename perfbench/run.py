#!/usr/bin/env python3
"""Atom stream benchmark: seeded P-256 streams, end-to-end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload microblog-inproc --seed 1 \\
        --seconds 40 --trace 0

Both modes start with set-up probes.  ``--trace 0`` then repeats fresh
streams (engine, and fleet where the workload has one) while the next
one should end within ``--seconds``, and reports the end-to-end
metrics.  ``--trace 1`` runs one untraced reference stream and the same
stream twice traced.  It reports the per-layer metrics of the first
traced stream and writes its spans to ``perfbench/out/``; it fails
unless both traced streams give identical exact counts and, for the
fleet workload, unless an in-process run of the same stream gives the
same output.  Either way every honest message must come out exactly
once.  Metric names and units come from ``BENCHMARK.json``.  The last
line of stdout is the JSON result; the lines before it are a readable
table and a JSON detail record with the environment and sample
counts.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: set-up-only runs before the streams: at least this many, and more
#: until SETUP_SECONDS have passed (set-up is short and noisy)
SETUP_PROBES = 4
SETUP_SECONDS = 1.0

#: a --trace 0 run starts no stream that should end past this share of
#: --seconds
OVERRUN = 1.1

#: the share of the traced wall time the layer spans must account for
ACCOUNTED_MIN = 0.90


def _git_sha() -> str:
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def env_block() -> dict:
    from importlib import metadata

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "cryptography": version("cryptography"),
        "numpy": version("numpy"),
        "network": "loopback only",
    }


def _percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def e2e_metrics(results, setups, self_kib: int) -> dict:
    """name -> (value, sample count)."""
    attempted = sum(r.attempted for r in results)
    delivered = sum(r.delivered for r in results)
    latencies = [x for r in results for x in r.latencies]
    window = sum(r.window_s for r in results)
    return {
        "msgs_per_s": (delivered / window if window else 0.0, len(results)),
        "latency_p50_s": (_percentile(latencies, 50), len(latencies)),
        "latency_p90_s": (_percentile(latencies, 90), len(latencies)),
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mib": (
            (self_kib + max(r.server_hwm_kib for r in results)) / 1024, 1
        ),
        "delivered_frac": (delivered / attempted, attempted),
    }


def _digests(results) -> list:
    """Per stream, SHA-256 over its per-round sorted deliveries: equal,
    stream for stream, for workloads of one traffic family."""
    out = []
    for r in results:
        h = hashlib.sha256()
        for round_id in sorted(r.delivered_sorted):
            for message in r.delivered_sorted[round_id]:
                h.update(f"{round_id}/".encode() + message)
        out.append(h.hexdigest())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(
            f"perfbench: no program sources at {SRC}; run from the root "
            f"of a repository checkout",
            file=sys.stderr,
        )
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        m["name"]: m["unit"]
        for m in declared["per_layer" if args.trace else "end_to_end"]
    }
    sys.path.insert(0, str(SRC))
    # `repro serve` children import the program from the same tree
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )

    import tracing
    import workloads as wl
    from repro.crypto.groups import get_group

    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            f"{sorted(wl.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    clock = wl.SubmitClock()
    clock.install()
    tracer = tracing.Tracer()
    tracing.instrument(tracer, get_group(workload.config["crypto_group"]))

    OUT.mkdir(parents=True, exist_ok=True)
    work_dir = OUT / f"work-{os.getpid()}"
    errors = []
    extra = {}
    try:
        # set-up probes first: more set-up samples, and they warm the
        # process-wide caches before any stream is timed
        started = time.monotonic()
        setups = []
        while (
            len(setups) < SETUP_PROBES
            or time.monotonic() - started < SETUP_SECONDS
        ):
            setups.append(
                wl.probe_setup(workload, args.seed, len(setups), work_dir)
            )
        if args.trace:
            ref = wl.run_stream(workload, args.seed, 0, work_dir, clock)
            traced = []
            for _ in range(2):
                tracer.reset()
                tracer.enabled = True
                try:
                    res = wl.run_stream(
                        workload, args.seed, 0, work_dir, clock, tracer
                    )
                finally:
                    tracer.enabled = False
                if not traced:
                    layers = tracing.layer_metrics(
                        tracer, res, workload.fleet_processes
                    )
                    spans = OUT / f"{workload.name}-seed{args.seed}-spans.jsonl"
                    tracer.write(spans, {
                        "env": env_block(), "workload": workload.name,
                        "seed": args.seed, "stream": 0,
                    })
                traced.append((res, tracing.exact_counts(tracer)))
            results = [ref] + [res for res, _ in traced]
            (first, counts_a), (_, counts_b) = traced
            if counts_a != counts_b:
                diff = {
                    k: (v, counts_b[k])
                    for k, v in counts_a.items() if v != counts_b[k]
                }
                errors.append(f"traced counts differ between runs: {diff}")
            layers["trace.overhead_frac"] = 1 - (
                first.delivered / first.window_s
            ) / (ref.delivered / ref.window_s)
            if layers["trace.accounted_frac"] < ACCOUNTED_MIN:
                errors.append(
                    f"layer spans account for "
                    f"{layers['trace.accounted_frac']:.3f} of the traced "
                    f"wall time (< {ACCOUNTED_MIN})"
                )
            if workload.fleet_processes:
                # the fleet must be byte-identical to in-process: the
                # same seed gives the same ordered output, round by round
                twin = next(
                    w for w in wl.WORKLOADS.values()
                    if w.family == workload.family and not w.fleet_processes
                )
                local = wl.run_stream(twin, args.seed, 0, work_dir, clock)
                errors.extend(local.errors)
                if [r.messages for r in local.report.rounds] != [
                    r.messages for r in first.report.rounds
                ]:
                    errors.append(
                        f"{workload.name} output differs from {twin.name} "
                        f"for the same seed"
                    )
                extra["in_process_twin"] = twin.name
            if layers["transport.retries"]:
                errors.append(
                    f"{layers['transport.retries']} RPC retries on a calm "
                    f"loopback"
                )
            metrics = {k: (v, 1) for k, v in layers.items()}
            extra["exact_counts"] = counts_a
            extra["spans_file"] = str(spans.relative_to(ROOT))
        else:
            results = []
            while True:
                results.append(wl.run_stream(
                    workload, args.seed, len(results), work_dir, clock
                ))
                elapsed = time.monotonic() - started
                next_wall = statistics.mean(r.wall_s for r in results)
                if elapsed + next_wall > OVERRUN * args.seconds:
                    break
            metrics = None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    setups += [r.setup_s for r in results]
    e2e = e2e_metrics(results, setups, wl.peak_rss_kib())
    metrics = metrics or e2e
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} disagree with "
            f"BENCHMARK.json"
        )
    attempted = sum(r.attempted for r in results)
    failed = attempted - sum(r.delivered for r in results)
    for r in results:
        errors.extend(r.errors)
    if failed:
        errors.append(
            f"{failed} of {attempted} honest messages not delivered "
            f"exactly once"
        )

    for name, (value, n) in metrics.items():
        print(f"{name:34s} {value:14.6g} {units[name]:10s} n={n}")
    print(f"{'error_rate':34s} {failed / attempted:14.6g} {'frac':10s} "
          f"n={attempted}")
    for err in errors:
        print(f"CHECK FAILED: {err}")
    print(json.dumps({"perfbench": {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "streams": len(results),
        "rounds_per_stream": workload.rounds,
        "users_per_round": workload.users_per_round,
        "env": env_block(),
        "e2e": {k: {"value": v, "n": n} for k, (v, n) in e2e.items()},
        "error_rate": failed / attempted,
        "delivered_sorted_sha256": _digests(results),
        "errors": errors,
        **extra,
    }}))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()
        },
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
