"""Hardware-independent op counts of a seeded P-256 round.

Decompressing a SEC1 point costs a modular square root, the largest
per-point cost outside the scalar multiplications.  A group's
participants hand their decoded vectors down the chain
(``CiphertextBatch.take``), so mixing decodes each point once per
layer, where it enters the group; these tests pin that as a count, not
as a wall-clock ratio.
"""

import collections

from repro.core import AtomDeployment, Client, DeploymentConfig
from repro.core.group import GroupContext
from repro.crypto.ec import EcGroup
from repro.crypto.groups import DeterministicRng, get_group

#: EcGroup.element calls of the seeded round below, starting from an
#: empty fixed-base cache: before the first layer mixes, inside
#: ``GroupContext.mix``, and elsewhere (commits between layers, trap checks
#: and the exit).  Mixing once decoded every point at
#: every participant's shuffle and re-encryption, with the ``Y`` points
#: added by the first re-encryption: 2688 calls in the mix phase.
#: Intake verifies each EncProof once, at the entry node.
RECORDED_DECODES = {"intake": 69, "mix": 384, "other": 200}


def _points(batch) -> int:
    """Points held by a batch, read off its layout without decoding:
    a record is a u32 part count, then per part two points, a flag
    byte, and a third point when the flag is set."""
    parts = sum(batch.parts_count(i) for i in range(len(batch)))
    overhead = 4 * len(batch) + parts
    return (batch.nbytes - overhead) // batch.group.element_bytes


def test_one_decode_per_received_point_per_layer(monkeypatch):
    decodes = collections.Counter()
    phase = ["intake"]
    received = []

    element = EcGroup.element

    def counted_element(group, value):
        decodes[phase[0]] += 1
        return element(group, value)

    mix = GroupContext.mix

    def counted_mix(ctx, batch, next_keys, rng=None, nizk=False):
        received.append(_points(batch))
        phase[0] = "mix"
        try:
            return mix(ctx, batch, next_keys, rng, nizk)
        finally:
            phase[0] = "other"

    monkeypatch.setattr(EcGroup, "element", counted_element)
    monkeypatch.setattr(GroupContext, "mix", counted_mix)
    # building a table decodes its base: start from a cold cache so the
    # count does not depend on which tests ran before
    group = get_group("P256")
    monkeypatch.setattr(group, "_fixed_cache", {})
    monkeypatch.setattr(group, "_fixed_counts", {})

    config = DeploymentConfig(
        num_servers=12, num_groups=4, group_size=3, variant="trap",
        iterations=3, message_size=8, crypto_group="P256",
    )
    with AtomDeployment(config) as dep:
        rnd = dep.start_round(0, rng=DeterministicRng(b"op-count-round"))
        client = Client(dep.group, DeterministicRng(b"op-count-client"))
        messages = [b"op%d" % i for i in range(4)]
        for i, message in enumerate(messages):
            dep.submit_trap(rnd, message, entry_gid=i % 4, client=client)
        dep.pad_round(rnd, DeterministicRng(b"op-count-pad"))
        result = dep.run_round(rnd, DeterministicRng(b"op-count-mix"))

    assert result.ok and sorted(result.messages) == sorted(messages)
    # 4 groups x 3 layers, each decoding exactly what it received
    assert len(received) == 12
    assert decodes["mix"] == sum(received)
    assert dict(decodes) == RECORDED_DECODES
