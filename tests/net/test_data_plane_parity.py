"""Seeded-round digests pinned from the two-plane era.

Until the object data plane (vector-object lists, with its own list
``GroupContext.mix`` and ``mix_with_reenc_proofs``) was deleted, every
seeded round below ran on both planes and produced byte-identical
:class:`~repro.core.protocol.RoundResult`\\ s.  The SHA-256 of each
round's canonical encoding was recorded on that last two-plane commit;
the one remaining plane must keep reproducing it, so the batch mix
still draws every random value in the order the object plane did —
for the basic, NIZK and trap variants, spilling or not, over either
transport.  (Seed convention per ``tests/net/test_transport_parity.py``:
pinned seeds, strict comparison.)
"""

import hashlib

import pytest

from repro.core import AtomDeployment, Client, DeploymentConfig
from repro.crypto.groups import DeterministicRng, get_group
from repro.net.envelopes import encode_audit

#: sha256(_canonical(result)), recorded with both planes in place
OBJECT_PLANE_DIGESTS = {
    "basic": "e499ea2ab4fc54b41eb66b4c7ca4bc940c38d4cd90b6b5efcbe9131d14102b36",
    "nizk": "c542dfbec5d1fcd9ea95e6304b007e8456a7909dfb65663321639a6b69416bca",
    # the spilled trap rounds (inproc and tcp) share this digest
    "trap": "fad839bba02c07975dab5386b099abf6e946c9cf54915c5a35bf83d3541fe426",
    "MODP2048": "97016b43c8d48d5eb622d31f55c8d111a2657038c650f964d511c025bb15a340",
    "P256": "5d6dd558fe71e357a1ec20079d6752c7a34f9e969a34b864570468bbb4935c9a",
}


def _config(crypto_group="TOY", variant="trap", **overrides):
    base = dict(
        num_servers=6,
        num_groups=2,
        group_size=2,
        variant=variant,
        iterations=3,
        message_size=8,
        crypto_group=crypto_group,
        nizk_rounds=4,
    )
    base.update(overrides)
    return DeploymentConfig(**base)


def _run_seeded_round(config, num_users=4):
    with AtomDeployment(config) as dep:
        rng = DeterministicRng(b"plane-setup")
        rnd = dep.start_round(0, rng=rng)
        client = Client(dep.group, rng)
        messages = [b"plane-%d" % i for i in range(num_users)]
        for i, message in enumerate(messages):
            gid = i % config.num_groups
            if config.variant == "trap":
                dep.submit_trap(rnd, message, gid, client)
            else:
                dep.submit_plain(rnd, message, gid, client)
        dep.pad_round(rnd, rng)
        result = dep.run_round(rnd, DeterministicRng(b"plane-round"))
    return messages, result


def _canonical(group, result) -> bytes:
    parts = [
        b"round:%d" % result.round_id,
        b"aborted:%d" % result.aborted,
        b"reason:" + result.abort_reason.encode(),
        b"offending:" + ",".join(map(str, result.offending_groups)).encode(),
        b"bytes:%d" % result.bytes_sent_total,
        b"traps:%d" % result.num_traps_checked,
    ]
    for message in result.messages:
        parts.append(b"msg:" + message)
    for audit in result.audits:
        parts.append(encode_audit(group, audit))
    return b"\x00".join(parts)


def _digest(group, result) -> str:
    return hashlib.sha256(_canonical(group, result)).hexdigest()


@pytest.mark.parametrize("variant", ["basic", "nizk", "trap"])
def test_batch_plane_byte_identical_to_object_plane(variant):
    group = get_group("TOY")
    messages, result = _run_seeded_round(_config(variant=variant))
    assert result.ok
    assert sorted(result.messages) == sorted(messages)
    assert _digest(group, result) == OBJECT_PLANE_DIGESTS[variant]


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
def test_spilled_round_byte_identical_to_unspilled(transport):
    """A spilling round (threshold 3 forces multiple segments at 8+
    vectors/group) equals the in-memory round and the recorded object
    round, on inproc and tcp."""
    group = get_group("TOY")
    _, spilled = _run_seeded_round(
        _config(transport=transport, spill_threshold=3)
    )
    _, unspilled = _run_seeded_round(_config(transport=transport))
    assert spilled.ok and unspilled.ok
    assert _canonical(group, spilled) == _canonical(group, unspilled)
    assert _digest(group, spilled) == OBJECT_PLANE_DIGESTS["trap"]


@pytest.mark.slow
@pytest.mark.parametrize("crypto_group", ["MODP2048", "P256"])
def test_data_plane_parity_real_groups(crypto_group):
    group = get_group(crypto_group)
    messages, result = _run_seeded_round(
        _config(crypto_group, iterations=2, spill_threshold=2), num_users=2
    )
    assert result.ok
    assert sorted(result.messages) == sorted(messages)
    assert _digest(group, result) == OBJECT_PLANE_DIGESTS[crypto_group]


def test_tampering_round_still_catches():
    """A malicious member's record edits ride the same batch mix; the
    trap catch must keep working end to end."""
    from repro.core.server import Behavior

    config = _config()
    with AtomDeployment(config) as dep:
        rng = DeterministicRng(b"tamper-setup")
        dep.servers[0].behavior = Behavior.REPLACE_ONE
        rnd = dep.start_round(0, rng=rng)
        client = Client(dep.group, rng)
        for i in range(4):
            dep.submit_trap(rnd, b"t%d" % i, i % 2, client)
        dep.pad_round(rnd, rng)
        result = dep.run_round(rnd, DeterministicRng(b"tamper-mix"))
    # The seeded coin may land either way per group; the round either
    # catches the substitution (abort) or the attacker got lucky — but
    # it must never crash or lose honest messages silently.
    if result.ok:
        assert len(result.messages) >= 4
    else:
        assert result.offending_groups
