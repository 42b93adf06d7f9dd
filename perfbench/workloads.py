"""Benchmark workloads, their seeded traffic, and the code that runs a stream.

Every workload is a closed loop: the generator fixes each round's
arrivals from the workload seed, hands them to
``StreamEngine(arrivals_fn=...)``, and the engine pulls each round's
arrivals when it plans that round's intake.  One *stream*
is a fresh engine (and, for the fleet workload, a fresh ``repro serve``
fleet) running ``rounds`` pipelined rounds; a benchmark run repeats
streams until its time budget is spent.

The program only ever sees the generated inputs: messages, entry group
ids, and the engine/deployment seeds derived from the workload seed.
Workloads of one traffic *family* get byte-identical inputs for the
same seed, so the in-process and fleet microblog workloads must
deliver the same messages.
"""

from __future__ import annotations

import collections
import os
import random
import shutil
import socket
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core import DeploymentConfig
from repro.core.pipeline import StreamConfig, StreamEngine, StreamReport
from repro.core.protocol import AtomDeployment


@dataclass(frozen=True)
class Workload:
    name: str
    #: workloads of one family share traffic and seeds byte for byte
    family: str
    users_per_round: int
    rounds: int
    #: ``repro serve`` processes hosting the groups (0: none)
    fleet_processes: int = 0
    #: give the deployment a state dir (WAL, checkpoints, compaction)
    durable: bool = False
    config: Dict[str, object] = field(default_factory=dict)


MICROBLOG_CONFIG = dict(
    num_servers=12,
    num_groups=4,
    group_size=3,
    variant="trap",
    message_size=32,
    crypto_group="P256",
    topology="square",
    iterations=3,
    transport="inproc",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="microblog-inproc",
            family="microblog",
            users_per_round=8,
            rounds=3,
            config=MICROBLOG_CONFIG,
        ),
        Workload(
            name="microblog-fleet2",
            family="microblog",
            users_per_round=8,
            rounds=3,
            fleet_processes=2,
            config=MICROBLOG_CONFIG,
        ),
        Workload(
            name="dialing-durable",
            family="dialing",
            users_per_round=8,
            rounds=6,
            durable=True,
            config=dict(
                num_servers=8,
                num_groups=2,
                group_size=4,
                mode="manytrust",
                h=2,
                variant="basic",
                # DIAL_MESSAGE_BYTES: recipient id || sealed sender key
                message_size=80,
                crypto_group="P256",
                topology="square",
                iterations=3,
                transport="tcp",
                # tiny segments: rotation and compaction run every stream
                wal_segment_records=16,
                wal_retain_segments=2,
            ),
        ),
    )
}

_POST_ALPHABET = b"abcdefghijklmnopqrstuvwxyz     .,!?#@"


def stream_seed(workload: Workload, seed: int, stream: int) -> bytes:
    return f"perfbench/{workload.family}/{seed}/{stream}".encode()


def arrivals(
    workload: Workload, seed: int, stream: int, round_id: int
) -> List[Tuple[bytes, int]]:
    """One round's honest arrivals: ``(message, entry gid)`` pairs.

    Entry groups are balanced (a seeded shuffle of round-robin gids),
    so no workload pads dummies and every seed does the same work.
    """
    rng = random.Random(
        f"{workload.family}/{seed}/{stream}/{round_id}"
    )
    size = int(workload.config["message_size"])
    groups = int(workload.config["num_groups"])
    gids = [i % groups for i in range(workload.users_per_round)]
    rng.shuffle(gids)
    out = []
    for user, gid in enumerate(gids):
        tag = f"s{stream}r{round_id}u{user}:".encode()
        if workload.family == "dialing":
            # recipient id (8 bytes) || stand-in for the sealed key box
            recipient = rng.getrandbits(64).to_bytes(8, "big")
            message = recipient + tag + rng.randbytes(size - 8 - len(tag))
        else:
            message = tag + bytes(
                rng.choice(_POST_ALPHABET) for _ in range(size - len(tag))
            )
        out.append((message, gid))
    return out


@dataclass
class StreamResult:
    """What one stream measured, plus every correctness failure seen."""

    attempted: int = 0
    delivered: int = 0
    errors: List[str] = field(default_factory=list)
    setup_s: float = 0.0
    window_s: float = 0.0
    wall_s: float = 0.0
    latencies: List[float] = field(default_factory=list)
    report: Optional[StreamReport] = None
    #: sorted delivered messages per round (the fleet/in-process
    #: comparison key)
    delivered_sorted: Dict[int, List[bytes]] = field(default_factory=dict)
    fleet_up_s: float = 0.0
    server_cpu_s: float = 0.0
    server_hwm_kib: int = 0
    coord_cpu_s: float = 0.0


class SubmitClock:
    """Records when the ``submit_*`` call of each honest message
    starts.  Installed once per process, around the deployment's public
    submit methods; it costs one dict lookup per submission, so it runs
    in untraced runs too (per-message latency needs it)."""

    def __init__(self) -> None:
        self.expected: set = set()
        self.started: Dict[bytes, float] = {}

    def install(self) -> None:
        for name in ("submit_trap", "submit_plain"):
            original = getattr(AtomDeployment, name)

            def clocked(dep, rnd, message, entry_gid, client=None,
                        _original=original):
                if message in self.expected:
                    self.started.setdefault(message, time.monotonic())
                return _original(dep, rnd, message, entry_gid, client)

            setattr(AtomDeployment, name, clocked)

    def reset(self, messages) -> None:
        self.expected = set(messages)
        self.started = {}


def _free_ports(n: int) -> List[int]:
    socks = [socket.create_server(("127.0.0.1", 0)) for _ in range(n)]
    try:
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


def peak_rss_kib(pid="self") -> int:
    """``VmHWM``: the process's own peak RSS, reset at exec (unlike
    ``ru_maxrss``, which a child inherits from its parent)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM")


def cpu_seconds(pid) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # fields[11], fields[12]: utime, stime (state is fields[0])
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


@contextmanager
def _deployment(workload: Workload, sseed: bytes, stream_dir: Path,
                res: StreamResult, tracer=None):
    """Yield the engine config of one stream, with the workload's fleet
    up; read the fleet's ``/proc`` figures and tear it down after."""
    from repro.fleet.controller import FleetController
    from repro.fleet.plan import DeploymentPlan

    stream_dir.mkdir(parents=True)
    config = DeploymentConfig(
        **workload.config,
        seed=sseed + b"/deployment",
        state_dir=str(stream_dir / "state") if workload.durable else None,
    )
    controller = None
    try:
        if workload.fleet_processes:
            plan = DeploymentPlan.build(
                config, workload.fleet_processes,
                ports=_free_ports(workload.fleet_processes),
            ).save(stream_dir / "plan.json")
            controller = FleetController(
                plan, runtime_dir=str(stream_dir / "fleet")
            )
            up_started = time.monotonic()
            with tracer.span("fleet.up") if tracer else nullcontext():
                controller.up()
            res.fleet_up_s = time.monotonic() - up_started
            config = plan.engine_config()
        yield config
        if controller is not None:
            pids = [p.pid for p in controller.status().processes]
            res.server_hwm_kib = sum(peak_rss_kib(pid) for pid in pids)
            res.server_cpu_s = sum(cpu_seconds(pid) for pid in pids)
    finally:
        if controller is not None:
            controller.down()
        shutil.rmtree(stream_dir, ignore_errors=True)


def run_stream(
    workload: Workload,
    seed: int,
    stream: int,
    work_dir: Path,
    clock: SubmitClock,
    tracer=None,
) -> StreamResult:
    """Build the engine (and fleet), run one stream, check its output."""
    res = StreamResult()
    expected = {
        r: arrivals(workload, seed, stream, r) for r in range(workload.rounds)
    }
    all_messages = [m for pairs in expected.values() for m, _ in pairs]
    if len(set(all_messages)) != len(all_messages):
        raise RuntimeError("traffic generator produced a duplicate message")
    res.attempted = len(all_messages)
    clock.reset(all_messages)
    sseed = stream_seed(workload, seed, stream)
    settled: Dict[int, float] = {}
    started = time.monotonic()
    cpu_started = time.process_time()
    try:
        with _deployment(
            workload, sseed, work_dir / f"stream-{stream}", res, tracer
        ) as config:
            engine = StreamEngine(
                config,
                stream=StreamConfig(rounds=workload.rounds, seed=sseed),
                arrivals_fn=lambda r: expected[r],
            )
            engine.on_round_settled = (
                lambda r: settled.__setitem__(r, time.monotonic())
            )
            with engine, tracer.span("stream") if tracer else nullcontext():
                res.report = engine.run()
    finally:
        res.coord_cpu_s = time.process_time() - cpu_started
        res.wall_s = time.monotonic() - started

    _check(res, expected, settled, clock.started)
    if clock.started:
        first = min(clock.started.values())
        res.setup_s = first - started
        if settled:
            res.window_s = max(settled.values()) - first
    return res


class _SetupDone(Exception):
    """Raised by the probe's arrivals callback, carrying the time."""


def probe_setup(
    workload: Workload, seed: int, probe: int, work_dir: Path
) -> float:
    """Set-up time alone: from building the engine (and fleet) to the
    engine asking for round 0's arrivals, the moment its first honest
    submission would start.  The stream stops there."""

    def first_arrivals(round_id):
        raise _SetupDone(time.monotonic())

    sseed = stream_seed(workload, seed, 1000 + probe)
    started = time.monotonic()
    try:
        with _deployment(
            workload, sseed, work_dir / f"probe-{probe}", StreamResult()
        ) as config:
            engine = StreamEngine(
                config,
                stream=StreamConfig(rounds=workload.rounds, seed=sseed),
                arrivals_fn=first_arrivals,
            )
            with engine:
                engine.run()
    except _SetupDone as done:
        return done.args[0] - started
    raise RuntimeError("the engine never asked for round 0's arrivals")


def _check(res: StreamResult, expected, settled, submitted) -> None:
    """Every generated honest message is delivered exactly once, in the
    round it was submitted to, by a round that never aborted."""
    rounds = {s.round_id: s for s in res.report.rounds}
    for r, pairs in expected.items():
        want = collections.Counter(m for m, _ in pairs)
        stats = rounds.get(r)
        got = collections.Counter(stats.messages if stats else ())
        if stats is None or not stats.ok or stats.abort_reasons:
            res.errors.append(f"round {r} did not settle cleanly")
            continue
        once = sum(1 for m in want if got[m] == 1)
        extra = sum((got - want).values())
        if once != len(want) or extra:
            res.errors.append(
                f"round {r}: {len(want) - once} messages not delivered "
                f"exactly once, {extra} unexpected or duplicated outputs"
            )
        res.delivered += once
        res.delivered_sorted[r] = sorted(got.elements())
        if r not in settled:
            res.errors.append(f"round {r} never reached on_round_settled")
            continue
        for message in want:
            if message not in submitted:
                res.errors.append(f"round {r}: a message was never submitted")
            elif got[message] == 1:
                res.latencies.append(settled[r] - submitted[message])

