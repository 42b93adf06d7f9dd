"""Bounded-memory data plane (``"streaming_rss"`` in BENCH_fastexp.json).

Runs one complete seeded round in a **subprocess**
(``scripts/stream_rss.py``, which reads ``VmHWM``) so the peak is the
round's own peak RSS, not the pytest process's, and asserts the
batch+spill data plane stays under a fixed memory bound, and at the
default tier well under the recorded footprint of the deleted object
plane, while recording msgs/s for trajectory tracking.  The default tier is sized for the tier-1 budget; scale it
up with environment variables, e.g. the acceptance-scale run:

    STREAM_RSS_MESSAGES=100000 STREAM_RSS_GROUP=P256 \\
    STREAM_RSS_LIMIT_MIB=1024 \\
        PYTHONPATH=src pytest -q -s benchmarks/test_streaming_rss.py

(TOY at 10^5 finishes in minutes; P-256 at 10^5 is an hours-long
soak on this 1-CPU container — the plane is the same code path, so
the tiers differ only in scale.)
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import print_table

REPO = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO / "BENCH_fastexp.json"
SCRIPT = REPO / "scripts" / "stream_rss.py"

MESSAGES = int(os.environ.get("STREAM_RSS_MESSAGES", "5000"))
GROUP = os.environ.get("STREAM_RSS_GROUP", "TOY").upper()
SPILL_THRESHOLD = int(os.environ.get("STREAM_RSS_SPILL", "512"))
# Fixed bound for the default tier (measured ~35 MiB peak; interpreter
# baseline alone is ~25 MiB).  Env-overridden tiers bring their own.
RSS_LIMIT_MIB = float(
    os.environ.get(
        "STREAM_RSS_LIMIT_MIB",
        "160" if MESSAGES <= 5000 and GROUP == "TOY" else "1024",
    )
)


def _update_bench(fields: dict) -> None:
    data = {}
    if BENCH_PATH.exists():
        try:
            data = json.loads(BENCH_PATH.read_text())
        except (ValueError, OSError):
            data = {}
    data.update(fields)
    data["unix_time"] = int(time.time())
    BENCH_PATH.write_text(json.dumps(data, indent=2) + "\n")


#: The deleted object data plane's own footprint at the default tier
#: (5000 TOY messages, no spilling): median "RSS over baseline" of
#: five ``scripts/stream_rss.py --data-plane object`` runs on the last
#: commit that had that plane (all five read 27.0 MiB; 2 vCPU x86-64,
#: Python 3.11.7).  The batch plane is held to the same 0.8x bound it
#: met against a live object run.
OBJECT_DELTA_MIB = 27.0


def _run_round(spill_threshold: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.run(
        [
            sys.executable,
            str(SCRIPT),
            "--messages", str(MESSAGES),
            "--group", GROUP,
            "--spill-threshold", str(spill_threshold),
        ],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    report = json.loads(proc.stdout)
    assert report["ok"] and report["delivered"] == MESSAGES
    return report


@pytest.mark.slow
def test_streaming_rss():
    batch = _run_round(SPILL_THRESHOLD)

    # Incremental RSS over the interpreter+imports baseline is the
    # plane's own footprint; the peak bound is the acceptance check.
    batch_delta = batch["peak_rss_mib"] - batch["rss_baseline_mib"]

    print_table(
        f"Streaming RSS ({MESSAGES} msgs, {GROUP}, spill={SPILL_THRESHOLD})",
        ["metric", "batch+spill"],
        [
            ("peak RSS (MiB)", batch["peak_rss_mib"]),
            ("RSS over baseline (MiB)", round(batch_delta, 1)),
            ("after intake (MiB)", batch["rss_after_intake_mib"]),
            ("intake (s)", batch["intake_s"]),
            ("mix (s)", batch["mix_s"]),
            ("msgs/s", batch["msgs_per_s"]),
        ],
    )

    _update_bench(
        {
            "streaming_rss": {
                "crypto_group": GROUP,
                "messages": MESSAGES,
                "spill_threshold": SPILL_THRESHOLD,
                "iterations": batch["iterations"],
                "rss_limit_mib": RSS_LIMIT_MIB,
                "batch_peak_rss_mib": batch["peak_rss_mib"],
                "batch_rss_over_baseline_mib": round(batch_delta, 1),
                "object_rss_over_baseline_mib_recorded": OBJECT_DELTA_MIB,
                "batch_msgs_per_s": batch["msgs_per_s"],
                "batch_total_s": batch["total_s"],
            }
        }
    )

    assert batch["peak_rss_mib"] <= RSS_LIMIT_MIB, (
        f"batch+spill round peaked at {batch['peak_rss_mib']} MiB; "
        f"the bounded-memory data plane must stay under {RSS_LIMIT_MIB} MiB"
    )
    # The redesign's point: the batch plane's own footprint must be
    # well under the object plane's (measured ~3x less at this tier).
    # The recorded constant only holds for the default tier.
    if MESSAGES == 5000 and GROUP == "TOY":
        assert batch_delta <= 0.8 * OBJECT_DELTA_MIB, (
            f"batch plane used {batch_delta:.1f} MiB over baseline vs the "
            f"object plane's recorded {OBJECT_DELTA_MIB:.1f} MiB — no "
            f"longer bounded?"
        )
