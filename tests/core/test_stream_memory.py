"""A stream's memory must stay flat from one stream to the next.

Each stream forms groups with fresh keys, and ``pow_cached`` promotes
every group key to a fixed-base comb table (0.2-0.4 MiB on P-256,
~3.5 MB on MODP2048).  The keys die with the stream's last round, so
the stream engine drops their tables when that round settles; only the
generator's table stays.  Without that, a process running streams back
to back grows until the cache's LRU limit.

The streams run in a subprocess: ``VmHWM`` (peak RSS) of the pytest
process already carries the peak of every test before this one, which
would hide any growth.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

STREAMS = 5

SCRIPT = f"""
import json
from repro.core import DeploymentConfig
from repro.core.pipeline import StreamConfig, StreamEngine
from repro.crypto.groups import get_group


def hwm_kib():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])


group = get_group("P256")
rows = []
for stream in range({STREAMS}):
    config = DeploymentConfig(
        num_servers=4, num_groups=2, group_size=2, variant="basic",
        iterations=2, message_size=8, crypto_group="P256",
        seed=b"flat/%d" % stream,
    )
    engine = StreamEngine(config, stream=StreamConfig(
        rounds=2, users_per_round=4, seed=b"flat-stream/%d" % stream,
    ))
    with engine:
        report = engine.run()
    assert all(r.ok for r in report.rounds), report.format_table()
    rows.append({{"tables": len(group._fixed_cache), "hwm_kib": hwm_kib()}})
print(json.dumps(rows))
"""

#: VmHWM growth allowed from the end of the second stream to the end of
#: the last: measured ~130 KiB with the tables dropped, ~1.2 MiB when
#: each stream leaks its two groups' P-256 tables
HWM_SLACK_KIB = 512


def test_tables_and_peak_rss_stay_flat_across_streams():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, env=env, check=True,
    )
    rows = json.loads(proc.stdout)
    assert len(rows) == STREAMS
    # only the generator's table outlives a stream
    assert [r["tables"] for r in rows] == [1] * STREAMS
    growth = rows[-1]["hwm_kib"] - rows[1]["hwm_kib"]
    assert growth <= HWM_SLACK_KIB, rows
