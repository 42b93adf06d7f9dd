"""Spans and exact counts around calls into each layer's public API.

The program is not instrumented: :func:`instrument` wraps functions of
the ``repro`` modules from outside, at the boundaries the benchmark
reports on (client, intake, mixing, crypto, coordinator transport,
exit, store, setup).  Each span records a name, start, end, its parent
span and the round id; spans stay in memory and are written out when
the run ends.

Threads: spans nest per thread.  The TCP transport runs node handlers
on its event-loop thread while the coordinator thread blocks in the
request; a span opened on a thread with no open span of its own is
therefore parented to the coordinator request in flight, the request
that caused it.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional

#: reported name -> counter: counts that must repeat exactly for the
#: same seed (no timing in them, so a later change may claim a gain on
#: one)
EXACT_COUNTS = {
    "client.prepares": "client.prepare",
    "intake.submits": "intake.submit",
    "intake.ciphertexts": "intake.ciphertexts",
    "intake.verifies": "intake.verify",
    "intake.dummies": "intake.dummies",
    "mix.layers": "mix.layer",
    "mix.group_calls": "mix.group",
    "mix.vectors": "mix.vectors",
    "crypto.reencrypt_vector_calls": "crypto.reencrypt_vector",
    "crypto.rerandomize_vector_calls": "crypto.rerandomize_vector",
    "crypto.point_decodes": "crypto.points",
    "crypto.encproof_verifies": "crypto.encproof_verify",
    "coord.relay_bytes": "coord.relay_bytes",
    "transport.requests": "transport.requests",
    "store.appends": "store.append",
    "store.untimed_bytes": "store.untimed_bytes",
    "store.syncs": "store.sync",
    "store.compactions": "store.compact",
}

#: span fields, in the order a span list holds them
SPAN_FIELDS = ("id", "parent", "name", "round", "start", "end", "thread")

#: the span around ``StreamEngine.run``
ROOT = "stream"


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: collections.Counter = collections.Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: the coordinator request in flight (adopted by node threads)
        self.request_span: Optional[list] = None
        self.enabled = False

    def begin(self, name: str, round_id: Optional[int] = None) -> list:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self.request_span
        if round_id is None and parent is not None:
            round_id = parent[3]
        span = [
            next(self._ids), parent[0] if parent else None, name, round_id,
            time.monotonic(), None, threading.current_thread().name,
        ]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[5] = time.monotonic()
        self._local.stack.pop()
        self.spans.append(span)

    def span(self, name: str, round_id: Optional[int] = None):
        return _SpanContext(self, name, round_id)

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def count_max(self, key: str, value: int) -> None:
        with self._lock:
            self.counts[key] = max(self.counts[key], value)

    def reset(self) -> None:
        self.spans = []
        self.counts = collections.Counter()
        self.request_span = None

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in sorted(self.spans, key=lambda s: s[4]):
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, round_id):
        self.tracer, self.name, self.round_id = tracer, name, round_id

    def __enter__(self):
        self.span = self.tracer.begin(self.name, self.round_id)
        return self.span

    def __exit__(self, *exc):
        self.tracer.end(self.span)
        return False


def _wrap(
    tracer: Tracer,
    owner,
    attr: str,
    name: str,
    round_of: Optional[Callable] = None,
    after: Optional[Callable] = None,
) -> None:
    """Replace ``owner.attr`` by a wrapper that, while the tracer is
    enabled, spans and counts each call; ``after(args, result)`` adds
    further counts."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return original(*args, **kwargs)
        span = tracer.begin(name, round_of(args) if round_of else None)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end(span)
        tracer.count(name)
        if after is not None:
            after(args, result)
        return result

    setattr(owner, attr, traced)


def instrument(tracer: Tracer, group) -> None:
    """Install every wrapper (once per process; inert until
    ``tracer.enabled``)."""
    from repro.core import client as client_mod
    from repro.core import group as group_mod
    from repro.core.batch import CiphertextBatch
    from repro.core.client import Client, Submission
    from repro.core.directory import Directory
    from repro.core.faults import BuddySystem
    from repro.core.group import GroupContext
    from repro.core.protocol import AtomDeployment, MixingRun
    from repro.net import envelopes as ev
    from repro.net.coordinator import Coordinator
    from repro.net.nodes import ServerNode
    from repro.net.resilience import ResilientTransport
    from repro.store.compact import Compactor
    from repro.store.store import DurableStore
    from repro.store.wal import RecordType, WriteAheadLog

    count = tracer.count

    # -- setup -----------------------------------------------------------
    _wrap(tracer, AtomDeployment, "start_round", "round.start",
          round_of=lambda a: a[1] if len(a) > 1 else 0)
    _wrap(tracer, Directory, "form_groups", "setup.form_groups",
          round_of=lambda a: a[1])
    _wrap(tracer, BuddySystem, "escrow", "setup.escrow")
    _wrap(tracer, Coordinator, "release", "round.release",
          round_of=lambda a: a[0].round_id)

    # -- client + intake -------------------------------------------------
    for attr in ("prepare_trap_pair", "prepare_plain"):
        _wrap(tracer, Client, attr, "client.prepare")
    for attr in ("submit_trap", "submit_plain"):
        _wrap(tracer, AtomDeployment, attr, "intake.submit",
              round_of=lambda a: a[1].round_id)
    _wrap(tracer, AtomDeployment, "pad_round", "intake.pad",
          round_of=lambda a: a[1].round_id,
          after=lambda a, added: count("intake.dummies", added))
    _wrap(tracer, Coordinator, "submit", "intake.route",
          round_of=lambda a: a[0].round_id,
          after=lambda a, _: count(
              "intake.ciphertexts",
              2 if isinstance(a[1], ev.SubmitTrap) else 1,
          ))
    _wrap(tracer, Submission, "verify", "intake.verify")
    _wrap(tracer, client_mod, "verify_encryption", "crypto.encproof_verify")

    # -- mixing + crypto -------------------------------------------------
    _wrap(tracer, MixingRun, "run_layer", "mix.layer",
          round_of=lambda a: a[0].rnd.round_id)
    _wrap(tracer, MixingRun, "finish", "exit.finish",
          round_of=lambda a: a[0].rnd.round_id)
    for attr in ("mix_batch", "mix", "mix_with_reenc_proofs"):
        _wrap(tracer, GroupContext, attr, "mix.group",
              after=lambda a, _: count("mix.vectors", len(a[1])))
    _wrap(tracer, group_mod, "reencrypt_vector", "crypto.reencrypt_vector")
    _wrap(tracer, group_mod, "rerandomize_vector", "crypto.rerandomize_vector")
    _wrap(tracer, CiphertextBatch, "vector", "crypto.point_decode",
          after=lambda a, vec: count(
              "crypto.points",
              sum(3 if p.Y is not None else 2 for p in vec.parts),
          ))
    _wrap(tracer, ServerNode, "handle", "node.handle",
          round_of=lambda a: a[1].round_id)

    # -- transport -------------------------------------------------------
    request = ResilientTransport.request

    @functools.wraps(request)
    def traced_request(transport, env, timeout=None):
        if not tracer.enabled:
            return request(transport, env, timeout)
        if env.kind is ev.Kind.MIX_BATCH:
            count("coord.relay_bytes", len(env.to_bytes(group)))
        span = tracer.begin("transport." + env.kind.name, env.round_id)
        outer = tracer.request_span
        tracer.request_span = span
        try:
            return request(transport, env, timeout)
        finally:
            tracer.request_span = outer
            tracer.end(span)
            count("transport.requests")

    ResilientTransport.request = traced_request

    close = ResilientTransport.close

    @functools.wraps(close)
    def counted_close(transport):
        if tracer.enabled:
            count("transport.retries", transport.retries)
        return close(transport)

    ResilientTransport.close = counted_close

    # -- store -----------------------------------------------------------
    def appended(args, _):
        size = len(args[2]) + 9  # u8 type + u32 length + u32 crc framing
        count("store.bytes", size)
        # settled-round records journal wall-clock stats as JSON text,
        # so their length varies run to run; the rest is exact
        if args[1] != RecordType.ROUND_DONE:
            count("store.untimed_bytes", size)

    def disk_peak(args, _):
        tracer.count_max("store.disk_peak_bytes", args[0].wal.disk_bytes())

    _wrap(tracer, WriteAheadLog, "append", "store.append", after=appended)
    _wrap(tracer, WriteAheadLog, "sync", "store.sync")
    _wrap(tracer, DurableStore, "layer_commit", "store.layer_commit",
          round_of=lambda a: a[1])
    _wrap(tracer, Compactor, "compact", "store.compact")
    _wrap(tracer, DurableStore, "round_end", "store.round_end",
          round_of=lambda a: a[1], after=disk_peak)
    _wrap(tracer, DurableStore, "round_settled", "store.round_settled",
          after=disk_peak)


def exact_counts(tracer: Tracer) -> Dict[str, int]:
    return {k: tracer.counts[c] for k, c in EXACT_COUNTS.items()}


def layer_metrics(tracer: Tracer, stream, servers: int) -> Dict[str, float]:
    """The per-layer metrics of one traced stream (see README.md);
    ``stream`` is its ``workloads.StreamResult``, ``servers`` the
    number of ``repro serve`` processes."""
    by_id = {s[0]: s for s in tracer.spans}
    total: Dict[str, float] = collections.defaultdict(float)
    self_time: Dict[str, float] = collections.defaultdict(float)
    layer_durations = []
    client_in_submit = 0.0  # client time inside intake.submit spans
    requests_in_layer = 0.0  # transport time directly under mix.layer
    below_root = 0.0
    for s in tracer.spans:
        d = s[5] - s[4]
        total[s[2]] += d
        self_time[s[2]] += d
        if s[2] == "mix.layer":
            layer_durations.append(d)
        parent = by_id.get(s[1])
        if parent is None:
            continue
        self_time[parent[2]] -= d
        if parent[2] == "intake.submit" and s[2] == "client.prepare":
            client_in_submit += d
        elif parent[2] == "mix.layer" and s[2].startswith("transport."):
            requests_in_layer += d
        elif parent[2] == ROOT:
            # the self times of all spans below a root add up to the
            # durations of its direct children
            below_root += d
    wall = total[ROOT]

    c = tracer.counts
    rounds = stream.report.rounds
    honest = sum(r.submitted for r in rounds)
    intake = sum(r.intake_s for r in rounds)
    return {
        "client.prepare_s": total["client.prepare"],
        "client.prepares": c["client.prepare"],
        "intake.submit_s": total["intake.submit"] - client_in_submit,
        "intake.submits": c["intake.submit"],
        "intake.verify_s": total["intake.verify"],
        "intake.verifies": c["intake.verify"],
        "intake.verifies_per_submission": (
            c["intake.verify"] / c["intake.ciphertexts"]
        ),
        "intake.pad_s": total["intake.pad"],
        "intake.dummy_frac": c["intake.dummies"] / (c["intake.dummies"] + honest),
        "mix.layer_p50_s": statistics.median(layer_durations),
        "mix.layer_s": total["mix.layer"],
        "mix.layers": c["mix.layer"],
        "mix.group_s": total["mix.group"],
        "mix.group_calls": c["mix.group"],
        "mix.vectors": c["mix.vectors"],
        "crypto.reencrypt_vector_calls": c["crypto.reencrypt_vector"],
        "crypto.reencrypt_vector_s": total["crypto.reencrypt_vector"],
        "crypto.rerandomize_vector_calls": c["crypto.rerandomize_vector"],
        "crypto.rerandomize_vector_s": total["crypto.rerandomize_vector"],
        "crypto.point_decodes": c["crypto.points"],
        "crypto.point_decode_s": total["crypto.point_decode"],
        "crypto.encproof_verify_s": total["crypto.encproof_verify"],
        "coord.mix_wait_s": (
            total["transport.MIX"] + total["transport.MIX_COLLECT"]
        ),
        "coord.relay_s": total["transport.MIX_BATCH"],
        "coord.relay_bytes": c["coord.relay_bytes"],
        "coord.relay_bytes_per_msg": c["coord.relay_bytes"] / stream.delivered,
        "coord.commit_s": total["transport.COMMIT_LAYER"],
        "coord.layer_self_s": total["mix.layer"] - requests_in_layer,
        "exit.finish_s": total["exit.finish"],
        "transport.requests": c["transport.requests"],
        "transport.request_s": sum(
            v for k, v in total.items() if k.startswith("transport.")
        ),
        "transport.retries": c["transport.retries"],
        "store.appends": c["store.append"],
        "store.append_s": self_time["store.append"],
        "store.bytes": c["store.bytes"],
        "store.syncs": c["store.sync"],
        "store.sync_s": total["store.sync"],
        "store.layer_commit_s": total["store.layer_commit"],
        "store.compactions": c["store.compact"],
        "store.compact_s": total["store.compact"],
        "store.disk_peak_bytes": c["store.disk_peak_bytes"],
        "pipeline.overlap_frac": sum(r.overlap_s for r in rounds) / intake,
        "pipeline.round_mix_s": statistics.median(r.pure_mix_s for r in rounds),
        "pipeline.round_intake_s": statistics.median(r.intake_s for r in rounds),
        "fleet.up_s": stream.fleet_up_s,
        "fleet.server_cpu_s": stream.server_cpu_s,
        "fleet.server_busy_frac": (
            stream.server_cpu_s / (servers * stream.window_s) if servers else 0.0
        ),
        "fleet.coord_cpu_s": stream.coord_cpu_s if servers else 0.0,
        "fleet.server_peak_rss_mib": stream.server_hwm_kib / 1024,
        "setup.form_groups_s": total["setup.form_groups"],
        "trace.accounted_frac": below_root / wall,
    }
