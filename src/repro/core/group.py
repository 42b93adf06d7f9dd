"""The Atom group protocols: Algorithm 1 and Algorithm 2.

A :class:`GroupContext` is one anytrust (or many-trust) group for one
protocol round.  It owns the group's per-round mixing key:

- **anytrust** mode: every member generates a fresh keypair; the group
  public key is the product of member keys, and *all* members must
  participate (one honest member suffices for security, one failed
  member stalls the group — §4.5's motivation).
- **manytrust** mode: the key comes from DVSS with threshold
  ``t = k - (h - 1)``; any ``t`` live members can mix, because each
  uses its Lagrange-weighted share as its effective secret.

``mix`` implements one mixing iteration (Algorithm 1) over a
:class:`~repro.core.batch.CiphertextBatch`: shuffle (every participant
in order) → divide into ``beta`` batches → decrypt-and-reencrypt each
batch toward its successor group (every participant in order), the
last participant dropping ``Y`` before the batches leave the group.

``mix`` with ``nizk=True`` (the NIZK variant) implements Algorithm 2:
every shuffle carries a vector ShufProof and every ReEnc step a
per-part ReEncProof; all are checked by the other group members, and
any failure raises :class:`ProtocolAbort` naming the culprit.

Active-adversary hooks: participants with a non-honest
:class:`~repro.core.server.Behavior` edit batch records — swap two
after their shuffle, or replace / duplicate / drop one outgoing
ciphertext.  Under Algorithm 2 this is caught immediately; under the
trap variant it is caught by the trap checks with probability 1/2 per
tampering (§4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.batch import CiphertextBatch
from repro.core.server import AtomServer, Behavior
from repro.crypto.elgamal import AtomElGamal, ElGamalKeyPair
from repro.crypto.groups import DeterministicRng, Group, GroupElement
from repro.crypto.nizk import prove_reencryption, verify_reencryption
from repro.crypto.secret_sharing import DvssProtocol
from repro.crypto.threshold import ThresholdElGamal
from repro.crypto.vector import (
    CiphertextVector,
    VectorShuffleProof,
    prove_vector_shuffle,
    random_permutation,
    reencrypt_vector,
    rerandomize_vector,
    verify_vector_shuffle,
)


class ProtocolAbort(RuntimeError):
    """Algorithm 2 detected a deviating server; the round aborts."""

    def __init__(self, gid: int, culprit: int, stage: str):
        self.gid = gid
        self.culprit = culprit
        self.stage = stage
        super().__init__(
            f"group {gid}: server {culprit} failed verification during {stage}"
        )

    def __reduce__(self):
        # Keep the exception picklable across ProcessPoolExecutor
        # workers (the default RuntimeError reduction replays args).
        return (ProtocolAbort, (self.gid, self.culprit, self.stage))


class GroupStalled(RuntimeError):
    """An anytrust group lost a member (or a many-trust group lost more
    than h-1) and cannot make progress without recovery (§4.5)."""

    def __init__(self, gid: int, alive: int, needed: int):
        self.gid = gid
        self.alive = alive
        self.needed = needed
        super().__init__(f"group {gid}: {alive} members alive, {needed} needed")

    def __reduce__(self):
        return (GroupStalled, (self.gid, self.alive, self.needed))


@dataclass
class MixAudit:
    """What happened during one mixing iteration (for tests/metrics)."""

    gid: int
    shuffles_proved: int = 0
    shuffles_verified: int = 0
    reencs_proved: int = 0
    reencs_verified: int = 0
    tamperings: List[Tuple[int, str]] = field(default_factory=list)
    bytes_sent: int = 0
    #: the last participant's shuffle-proof NIZK (verified variants
    #: only) — the evidence a group attaches to its mix-layer hand-off
    #: envelope so neighbours/auditors can re-check (Algorithm 2, 3b)
    final_shuffle_proof: Optional["VectorShuffleProof"] = None


class GroupContext:
    """One (any|many)-trust group for one protocol round."""

    def __init__(
        self,
        gid: int,
        servers: Sequence[AtomServer],
        group: Group,
        mode: str = "anytrust",
        h: int = 1,
        rng: Optional[DeterministicRng] = None,
        nizk_rounds: int = 8,
    ):
        if mode not in ("anytrust", "manytrust"):
            raise ValueError(f"unknown group mode {mode!r}")
        if mode == "manytrust" and h < 1:
            raise ValueError("h must be >= 1")
        if mode == "anytrust" and h != 1:
            raise ValueError("anytrust groups have h = 1")
        self.gid = gid
        self.servers = list(servers)
        self.group = group
        self.scheme = AtomElGamal(group)
        self.mode = mode
        self.h = h
        self.nizk_rounds = nizk_rounds
        self.k = len(self.servers)
        #: optional builder of valid attacker payloads (set by the
        #: deployment in trap-variant rounds; see ``_forge_vector``)
        self.forge_payload_fn = None

        if mode == "anytrust":
            self.threshold = self.k
            self.member_keys = [ElGamalKeyPair.generate(group, rng) for _ in self.servers]
            self.public_key = self.scheme.combine_public_keys(
                [kp.public for kp in self.member_keys]
            )
            self._threshold_scheme = None
        else:
            self.threshold = self.k - (h - 1)
            dvss = DvssProtocol(group, self.k, self.threshold).run(rng)
            self._threshold_scheme = ThresholdElGamal(group, dvss)
            self.public_key = self._threshold_scheme.public_key
            self.member_keys = None

    # -- membership -----------------------------------------------------

    def alive_positions(self) -> List[int]:
        return [i for i, s in enumerate(self.servers) if not s.failed]

    def participants(self) -> List[int]:
        """Positions that take part in this iteration.

        Anytrust: all members (any failure stalls).  Many-trust: the
        first ``threshold`` live members.
        """
        alive = self.alive_positions()
        if len(alive) < self.threshold:
            raise GroupStalled(self.gid, len(alive), self.threshold)
        if self.mode == "anytrust":
            return alive  # == all positions
        return alive[: self.threshold]

    def effective_secret(self, position: int, participants: Sequence[int]) -> int:
        """The secret this member uses in ReEnc: its raw per-round key
        (anytrust) or its Lagrange-weighted DVSS share (many-trust)."""
        if self.mode == "anytrust":
            return self.member_keys[position].secret
        return self._threshold_scheme.weighted_secret(position, list(participants))

    def member_public(self, position: int) -> GroupElement:
        """Public image of the member's *mixing* key (anytrust only)."""
        if self.mode != "anytrust":
            raise ValueError("per-member mixing publics exist only in anytrust mode")
        return self.member_keys[position].public

    def reveal_secrets(self) -> List[int]:
        """Blame protocol (§4.6): entry groups reveal their private keys."""
        if self.mode == "anytrust":
            return [kp.secret for kp in self.member_keys]
        return [s.value for s in self._threshold_scheme.dvss.shares]

    # -- the mixing iteration --------------------------------------------

    def mix(
        self,
        batch: CiphertextBatch,
        next_keys: Sequence[Optional[GroupElement]],
        rng: Optional[DeterministicRng] = None,
        nizk: bool = False,
    ) -> Tuple[List[CiphertextBatch], MixAudit]:
        """One iteration of Algorithm 1, or of Algorithm 2 with ``nizk``
        (the NIZK variant), over a :class:`CiphertextBatch`.

        ``next_keys[i]`` is the public key of the i-th successor group
        (``None`` for the final iteration: plain decryption).  Returns
        ``beta = len(next_keys)`` outgoing batches (views over one
        buffer) plus an audit record.

        Rng draw order, which seeded rounds depend on:

        1. per participant: the shuffle permutation, then one scalar
           per ciphertext part in permuted-vector order, then (NIZK)
           the shuffle proof's draws;
        2. per participant: re-encryption randomness in index order —
           "Divide" is a *contiguous* split, so vector ``i`` goes to
           successor ``i // per`` and ReEnc streams over the whole
           buffer without per-successor lists.

        Each participant's output is a fresh buffer that also remembers
        the vectors it encoded, handed over once to the next participant
        (:meth:`CiphertextBatch.take`): a point is decoded once per
        layer, where it enters the group.  Peak memory is two serialized
        buffers plus one group batch of vectors.
        """
        audit = MixAudit(gid=self.gid)
        participants = self.participants()
        verifiers = len(participants) - 1
        beta = len(next_keys)
        if not beta:
            raise ValueError("need at least one successor key")
        n = len(batch)
        if n % beta:
            raise ValueError(
                f"group {self.gid}: {n} ciphertexts do not divide "
                f"into {beta} batches"
            )
        current = batch

        # Step 1 — Shuffle, each participant in order.
        for position in participants:
            server = self.servers[position]
            perm = random_permutation(n, rng)
            rands = [
                [
                    self.group.random_scalar(rng)
                    for _ in range(current.parts_count(perm[i]))
                ]
                for i in range(n)
            ]
            if nizk:
                inputs = [current.take(i) for i in range(n)]
                take = inputs.__getitem__
            else:
                take = current.take
            shuffled = (
                rerandomize_vector(
                    self.scheme, self.public_key, take(perm[i]), rands[i]
                )
                for i in range(n)
            )
            if nizk:
                shuffled = list(shuffled)  # the prover's witness
            out = CiphertextBatch.from_vectors(self.group, shuffled, remember=True)
            if nizk:
                proof = prove_vector_shuffle(
                    self.scheme, self.public_key, inputs, shuffled, perm, rands,
                    rounds=self.nizk_rounds, rng=rng,
                )
                audit.shuffles_proved += 1
                audit.bytes_sent += proof.size_bytes
            self._maybe_tamper_shuffle(server, out, audit)
            if nizk:
                # Every other member verifies the records it was sent.
                ok = verify_vector_shuffle(
                    self.scheme, self.public_key, inputs, list(out), proof,
                    rounds=self.nizk_rounds,
                )
                audit.shuffles_verified += verifiers
                if not ok:
                    raise ProtocolAbort(self.gid, server.server_id, "shuffle")
                audit.final_shuffle_proof = proof
            current = out

        # Steps 2+3 — Divide + Decrypt-and-Reencrypt, each participant in
        # order, streamed in index order.
        per = n // beta
        for index, position in enumerate(participants):
            server = self.servers[position]
            secret = self.effective_secret(position, participants)
            server_public = self.group.g ** secret if nizk else None
            # Appendix A: the last server sets Y' = ⊥ before forwarding
            # (fused per vector — with_y_bot draws no randomness)
            strip_y = index == len(participants) - 1 and next_keys[0] is not None
            out = CiphertextBatch(self.group, remember=True)
            for i in range(n):
                next_key = next_keys[i // per]
                if nizk:
                    vec = self._proved_reencrypt(
                        server, secret, server_public, next_key,
                        current.take(i), rng, audit, verifiers,
                    )
                else:
                    vec = reencrypt_vector(
                        self.scheme, secret, next_key, current.take(i), rng
                    )
                out.append(vec.with_y_bot() if strip_y else vec)
            current = out

        parts = current.split(beta)
        # Adversarial tampering on the *outgoing* batches (the attack the
        # trap variant is designed to catch).
        self._maybe_tamper_outgoing(parts, next_keys, audit)
        if nizk and audit.tamperings:
            # A tampering server cannot prove the substituted ReEnc, and
            # the neighbours re-verify the hand-off (Algorithm 2, 3b).
            culprit = audit.tamperings[0][0]
            raise ProtocolAbort(self.gid, culprit, "outgoing-batch verification")
        for part in parts:
            audit.bytes_sent += part.size_bytes_total()
        return parts, audit

    # perfbench/tracing.py wraps these two former names next to ``mix``
    # (a missing one stops the benchmark); drop them when it is revised.
    mix_batch = mix_with_reenc_proofs = mix

    def _proved_reencrypt(
        self,
        server: AtomServer,
        secret: int,
        server_public: GroupElement,
        next_key: Optional[GroupElement],
        vec: CiphertextVector,
        rng: Optional[DeterministicRng],
        audit: MixAudit,
        verifiers: int,
    ) -> CiphertextVector:
        """Algorithm 2, step 3: ReEnc each part with a Chaum-Pedersen
        proof that the other members verify.  Draws the same randomness
        as :func:`reencrypt_vector`."""
        parts = []
        for part in vec.parts:
            r = None if next_key is None else self.group.random_scalar(rng)
            after = self.scheme.reencrypt(secret, next_key, part, randomness=r)
            proof = prove_reencryption(self.group, secret, r, next_key, part, after)
            audit.reencs_proved += 1
            audit.bytes_sent += proof.size_bytes
            if not verify_reencryption(
                self.group, server_public, next_key, part, after, proof
            ):
                raise ProtocolAbort(self.gid, server.server_id, "reenc")
            audit.reencs_verified += verifiers
            parts.append(after)
        return CiphertextVector(tuple(parts))

    # -- adversarial hooks -------------------------------------------------

    def _maybe_tamper_shuffle(
        self, server: AtomServer, shuffled: CiphertextBatch, audit: MixAudit
    ) -> None:
        """BAD_SHUFFLE: emit something other than the proven shuffle
        (records 0 and 1 swapped)."""
        if server.behavior is not Behavior.BAD_SHUFFLE or server.tamper_budget <= 0:
            return
        if len(shuffled) < 2:
            return
        server.tamper_budget -= 1
        audit.tamperings.append((server.server_id, "bad_shuffle"))
        first, second = shuffled.take(0), shuffled.take(1)
        shuffled.put(0, second)
        shuffled.put(1, first)

    def _maybe_tamper_outgoing(
        self,
        parts: List[CiphertextBatch],
        next_keys: Sequence[Optional[GroupElement]],
        audit: MixAudit,
    ) -> None:
        """DROP / REPLACE / DUPLICATE record 0 of one outgoing batch.

        Modeled at the last-server forwarding stage, where a malicious
        member can construct well-formed substitutes: after ``Y`` is
        dropped, outgoing ciphertexts are fresh ElGamal ciphertexts
        under the (public) successor-group key.
        """
        for position in self.participants():
            server = self.servers[position]
            if not server.is_malicious or server.tamper_budget <= 0:
                continue
            if server.behavior is Behavior.BAD_SHUFFLE:
                continue
            for part, next_key in zip(parts, next_keys):
                if not part:
                    continue
                server.tamper_budget -= 1
                if server.behavior is Behavior.REPLACE_ONE:
                    part.put(0, self._forge_vector(part.parts_count(0), next_key))
                    audit.tamperings.append((server.server_id, "replace"))
                elif server.behavior is Behavior.DUPLICATE_ONE and len(part) >= 2:
                    part.put(0, part.vector(1))
                    audit.tamperings.append((server.server_id, "duplicate"))
                elif server.behavior is Behavior.DROP_ONE:
                    # Dropping shrinks the batch; to keep wire-format
                    # plausible the adversary substitutes garbage instead
                    # of leaving a hole (a literal hole is caught by
                    # counting; see §4.4 security analysis).
                    part.put(0, self._forge_vector(part.parts_count(0), next_key))
                    audit.tamperings.append((server.server_id, "drop"))
                break
            break

    def _forge_vector(
        self, num_parts: int, next_key: Optional[GroupElement]
    ) -> CiphertextVector:
        """A fresh, well-formed ``num_parts``-part vector substituted by
        the adversary.

        The strongest attacker (paper §4.4 analysis) replaces a victim
        ciphertext with a *valid* message of his own — e.g. a fresh
        inner ciphertext encrypted to the trustees — so that the
        substitution is undetectable unless the victim was a trap.  The
        deployment installs ``forge_payload_fn`` to build such payloads;
        without it the forgery carries garbage (a weaker attacker, whose
        substitution is also caught by format checks).
        """
        import secrets as _secrets

        if self.forge_payload_fn is not None:
            payload = self.forge_payload_fn()
            chunks = self.group.encode_chunks(payload)
        else:
            chunks = [
                self.group.encode(_secrets.token_bytes(self.group.params.message_bytes))
                for _ in range(num_parts)
            ]
        if len(chunks) != num_parts:
            raise ValueError("forged payload does not match vector arity")
        if next_key is None:
            # Final layer: exit reads the plaintext out of `c`.
            from repro.crypto.elgamal import AtomCiphertext

            return CiphertextVector(
                tuple(
                    AtomCiphertext(R=self.group.identity, c=chunk, Y=self.group.g)
                    for chunk in chunks
                )
            )
        forged_parts = []
        for chunk in chunks:
            ct, _ = self.scheme.encrypt(next_key, chunk)
            forged_parts.append(ct)
        return CiphertextVector(tuple(forged_parts))

    # -- parallel dispatch ---------------------------------------------------

    def parallel_safe(self) -> bool:
        """Whether this group's mixing may run in a worker process.

        Mixing in a child is invisible to in-process adversarial state:
        a malicious member's tamper budget mutated there would be lost,
        so groups with malicious members (test instrumentation only)
        mix serially while honest groups — the entire fleet in a real
        deployment, any variant — parallelize.  A ``forge_payload_fn``
        is tolerated when it pickles (the trap deployment's
        :class:`~repro.core.protocol.InnerPayloadForger`); unpicklable
        hooks — closures, bound methods of local objects — force the
        serial path since they cannot cross the process boundary.
        """
        if self.forge_payload_fn is not None:
            import pickle

            try:
                pickle.dumps(self.forge_payload_fn)
            except Exception:
                return False
        return not any(s.is_malicious for s in self.servers)


# ---------------------------------------------------------------------------
# Parallel group mixing (paper Fig. 7: one layer's groups are independent,
# so their shuffle + proof work scales across cores).  Dispatch lives in
# repro.net.nodes.ServerNode (the MIX_PENDING / MIX_COLLECT flow); only
# the picklable worker entry point is defined here.
# ---------------------------------------------------------------------------


def _parallel_mix_worker(payload):
    """Run one group's mixing iteration inside a worker process.

    ``payload`` is fully picklable: the context (honest groups only —
    see :meth:`GroupContext.parallel_safe`), its input batch, the
    successor keys, whether to run the NIZK variant, and an optional
    seed for a worker-local :class:`DeterministicRng`.  The outgoing
    batches are views over one buffer; they pickle back as owned
    copies.
    """
    ctx, batch, next_keys, nizk, seed = payload
    rng = DeterministicRng(seed) if seed is not None else None
    parts, audit = ctx.mix(batch, next_keys, rng, nizk=nizk)
    return ctx.gid, parts, audit
