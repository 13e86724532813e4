"""Tests for the simulated network, signatures, USIG and the state machine."""

from __future__ import annotations

import hashlib
import hmac
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus import (
    Checkpoint,
    ClientRequest,
    Commit,
    KeyPair,
    KeyRegistry,
    KeyValueStateMachine,
    NetworkConfig,
    NewView,
    Prepare,
    Signature,
    SimulatedNetwork,
    UniqueIdentifier,
    USIG,
    USIGVerifier,
    ViewChange,
    digest,
)


class Recorder:
    """Minimal process that records delivered messages."""

    def __init__(self, process_id: str) -> None:
        self.process_id = process_id
        self.received: list[tuple[str, object, int]] = []

    def on_message(self, sender: str, payload: object, tick: int) -> None:
        self.received.append((sender, payload, tick))


class TestSimulatedNetwork:
    def test_delivers_messages_in_order_of_delay(self):
        network = SimulatedNetwork(NetworkConfig(base_delay=1))
        a, b = Recorder("a"), Recorder("b")
        network.register(a)
        network.register(b)
        network.send("a", "b", "hello")
        network.run()
        assert b.received[0][1] == "hello"
        assert b.received[0][0] == "a"

    def test_duplicate_registration_rejected(self):
        network = SimulatedNetwork()
        network.register(Recorder("a"))
        with pytest.raises(ValueError):
            network.register(Recorder("a"))

    def test_unknown_destination_is_dropped(self):
        network = SimulatedNetwork()
        network.register(Recorder("a"))
        network.send("a", "ghost", "boo")
        assert network.pending_messages() == 0

    def test_crashed_process_receives_nothing(self):
        network = SimulatedNetwork()
        a, b = Recorder("a"), Recorder("b")
        network.register(a)
        network.register(b)
        network.crash("b")
        network.send("a", "b", "x")
        network.run()
        assert b.received == []
        assert network.messages_dropped == 1

    def test_restart_resumes_delivery(self):
        network = SimulatedNetwork()
        a, b = Recorder("a"), Recorder("b")
        network.register(a)
        network.register(b)
        network.crash("b")
        network.restart("b")
        network.send("a", "b", "x")
        network.run()
        assert len(b.received) == 1

    def test_broadcast_excludes_sender_by_default(self):
        network = SimulatedNetwork()
        procs = [Recorder(f"p{i}") for i in range(3)]
        for proc in procs:
            network.register(proc)
        network.broadcast("p0", "msg")
        network.run()
        assert procs[0].received == []
        assert len(procs[1].received) == 1
        assert len(procs[2].received) == 1

    def test_partition_delays_cross_group_messages(self):
        network = SimulatedNetwork()
        a, b = Recorder("a"), Recorder("b")
        network.register(a)
        network.register(b)
        network.partition([["a"], ["b"]])
        network.send("a", "b", "x")
        network.run(max_ticks=20)
        assert b.received == []
        network.heal_partition()
        network.run(max_ticks=20)
        assert len(b.received) == 1

    def test_reliable_links_retransmit_losses(self):
        network = SimulatedNetwork(
            NetworkConfig(loss_probability=0.5, reliable=True), seed=0
        )
        a, b = Recorder("a"), Recorder("b")
        network.register(a)
        network.register(b)
        for _ in range(50):
            network.send("a", "b", "x")
        network.run(max_ticks=500)
        assert len(b.received) == 50

    def test_unreliable_links_drop_messages(self):
        network = SimulatedNetwork(
            NetworkConfig(loss_probability=0.5, reliable=False), seed=0
        )
        a, b = Recorder("a"), Recorder("b")
        network.register(a)
        network.register(b)
        for _ in range(100):
            network.send("a", "b", "x")
        network.run(max_ticks=500)
        assert len(b.received) < 100
        assert network.messages_dropped > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(base_delay=-1)
        with pytest.raises(ValueError):
            NetworkConfig(loss_probability=1.0)


class TestCrypto:
    def test_sign_and_verify(self):
        registry = KeyRegistry()
        key = registry.create("client-1")
        signature = key.sign({"op": "write"})
        assert registry.verify({"op": "write"}, signature)

    def test_tampered_payload_rejected(self):
        registry = KeyRegistry()
        key = registry.create("client-1")
        signature = key.sign({"op": "write"})
        assert not registry.verify({"op": "delete"}, signature)

    def test_cannot_forge_other_principals_signature(self):
        """Proposition 1a: the attacker cannot forge signatures."""
        registry = KeyRegistry()
        registry.create("honest")
        attacker_key = registry.create("attacker")
        forged = attacker_key.sign({"op": "write"})
        forged_signature = type(forged)(signer="honest", tag=forged.tag)
        assert not registry.verify({"op": "write"}, forged_signature)

    def test_unknown_signer_rejected(self):
        registry = KeyRegistry()
        other = KeyRegistry().create("ghost")
        signature = other.sign("x")
        assert not registry.verify("x", signature)

    def test_duplicate_key_creation_rejected(self):
        registry = KeyRegistry()
        registry.create("a")
        with pytest.raises(ValueError):
            registry.create("a")

    def test_digest_deterministic(self):
        assert digest({"a": 1, "b": 2}) == digest({"b": 2, "a": 1})
        assert digest({"a": 1}) != digest({"a": 2})


class TestUSIG:
    def test_counter_is_monotonic(self):
        registry = KeyRegistry()
        usig = USIG("replica-0", registry)
        ui1 = usig.create_ui("m1")
        ui2 = usig.create_ui("m2")
        assert ui2.counter == ui1.counter + 1

    def test_verifier_accepts_valid_ui(self):
        registry = KeyRegistry()
        usig = USIG("replica-0", registry)
        verifier = USIGVerifier(registry)
        ui = usig.create_ui("message")
        assert verifier.verify("message", ui)

    def test_verifier_rejects_wrong_message(self):
        registry = KeyRegistry()
        usig = USIG("replica-0", registry)
        verifier = USIGVerifier(registry)
        ui = usig.create_ui("message")
        assert not verifier.verify("different", ui)

    def test_fifo_order_enforced(self):
        """No gaps and no reuse: the anti-equivocation property of MinBFT."""
        registry = KeyRegistry()
        usig = USIG("replica-0", registry)
        verifier = USIGVerifier(registry)
        ui1 = usig.create_ui("m1")
        ui2 = usig.create_ui("m2")
        ui3 = usig.create_ui("m3")
        assert verifier.verify("m1", ui1)
        # Skipping ui2 is rejected when order is enforced.
        assert not verifier.verify("m3", ui3)
        assert verifier.verify("m2", ui2)

    def test_order_not_enforced_mode(self):
        registry = KeyRegistry()
        usig = USIG("replica-0", registry)
        verifier = USIGVerifier(registry)
        usig.create_ui("m1")
        ui2 = usig.create_ui("m2")
        assert verifier.verify("m2", ui2, enforce_order=False)

    def test_cross_replica_ui_rejected(self):
        registry = KeyRegistry()
        usig_a = USIG("replica-a", registry)
        verifier = USIGVerifier(registry)
        ui = usig_a.create_ui("m")
        tampered = type(ui)(
            replica_id="replica-b",
            counter=ui.counter,
            message_digest=ui.message_digest,
            signature=ui.signature,
        )
        assert not verifier.verify("m", tampered)


class TestStateMachine:
    def _request(self, request_id: int, operation: str, key: str, value=None) -> ClientRequest:
        return ClientRequest(
            client_id="c", request_id=request_id, operation=operation, key=key, value=value
        )

    def test_write_then_read(self):
        machine = KeyValueStateMachine()
        machine.apply(self._request(1, "write", "x", 10), sequence=1)
        result = machine.apply(self._request(2, "read", "x"), sequence=2)
        assert result.value == 10

    def test_duplicate_request_is_idempotent(self):
        machine = KeyValueStateMachine()
        request = self._request(1, "write", "x", 10)
        machine.apply(request, 1)
        machine.apply(request, 2)
        assert machine.executed_requests() == (("c", 1),)

    def test_unknown_operation_fails(self):
        machine = KeyValueStateMachine()
        result = machine.apply(self._request(1, "delete", "x"), 1)
        assert not result.success

    def test_state_digest_reflects_content(self):
        a, b = KeyValueStateMachine(), KeyValueStateMachine()
        a.apply(self._request(1, "write", "x", 1), 1)
        b.apply(self._request(1, "write", "x", 1), 1)
        assert a.state_digest() == b.state_digest()
        b.apply(self._request(2, "write", "x", 2), 2)
        assert a.state_digest() != b.state_digest()

    def test_snapshot_restore(self):
        a = KeyValueStateMachine()
        a.apply(self._request(1, "write", "x", 1), 1)
        snapshot = a.snapshot()
        b = KeyValueStateMachine()
        b.restore(snapshot)
        assert b.read("x") == 1
        assert b.last_sequence == 1
        assert b.state_digest() == a.state_digest()

    def test_restore_legacy_snapshot_without_history_digest(self):
        """Snapshots from older producers recompute the rolling history digest."""
        a = KeyValueStateMachine()
        for i in range(1, 4):
            a.apply(self._request(i, "write", "x", i), i)
        legacy = a.snapshot()
        legacy.pop("history_digest")
        b = KeyValueStateMachine()
        b.restore(legacy)
        assert b.state_digest() == a.state_digest()

    def test_restored_machine_digest_tracks_further_execution(self):
        """Executing on a restored machine matches executing from scratch."""
        a = KeyValueStateMachine()
        a.apply(self._request(1, "write", "x", 1), 1)
        b = KeyValueStateMachine()
        b.restore(a.snapshot())
        a.apply(self._request(2, "write", "y", 2), 2)
        b.apply(self._request(2, "write", "y", 2), 2)
        assert b.state_digest() == a.state_digest()

    def test_duplicate_apply_reports_duplicate_flag(self):
        machine = KeyValueStateMachine()
        request = self._request(1, "write", "x", 10)
        first = machine.apply(request, 1)
        second = machine.apply(request, 2)
        assert not first.duplicate
        assert second.duplicate


class TestPartitionTiming:
    def test_blocked_head_does_not_defer_deliverable_messages(self):
        """Regression: a partitioned envelope at the queue head must not delay
        same-tick deliverable messages behind it (the old drain re-queued the
        blocked envelope and stopped, deferring everything else a tick)."""
        network = SimulatedNetwork(NetworkConfig(base_delay=1))
        a, b, c = Recorder("a"), Recorder("b"), Recorder("c")
        for process in (a, b, c):
            network.register(process)
        network.partition([["a"], ["b", "c"]])
        # The blocked a->b envelope is queued first (lower heap tiebreak) and
        # shares the delivery tick with the deliverable c->b envelope.
        network.send("a", "b", "blocked")
        network.send("c", "b", "deliverable")
        delivered = network.step()
        assert delivered == 1
        assert b.received == [("c", "deliverable", 1)]
        # The partitioned message stays queued and arrives once healed.
        network.heal_partition()
        network.run(max_ticks=5)
        assert b.received[1][:2] == ("a", "blocked")

    def test_partitioned_envelope_does_not_spin_the_drain(self):
        network = SimulatedNetwork(NetworkConfig(base_delay=1))
        a, b = Recorder("a"), Recorder("b")
        network.register(a)
        network.register(b)
        network.partition([["a"], ["b"]])
        network.send("a", "b", "x")
        for _ in range(10):
            network.step()
        assert b.received == []
        assert network.pending_messages() == 1


class TestMessageBatching:
    def test_batched_payloads_delivered_individually_in_order(self):
        network = SimulatedNetwork(NetworkConfig(base_delay=1, batch_messages=True))
        a, b = Recorder("a"), Recorder("b")
        network.register(a)
        network.register(b)
        for i in range(5):
            network.send("a", "b", f"m{i}")
        assert network.pending_messages() == 5
        network.run(max_ticks=10)
        assert [payload for _, payload, _ in b.received] == [f"m{i}" for i in range(5)]
        assert network.messages_delivered == 5

    def test_batching_matches_unbatched_delivery_set(self):
        def run(batch: bool) -> list[tuple[str, object]]:
            network = SimulatedNetwork(
                NetworkConfig(base_delay=1, batch_messages=batch), seed=3
            )
            recorders = [Recorder(f"p{i}") for i in range(3)]
            for recorder in recorders:
                network.register(recorder)
            for i in range(4):
                network.send("p0", "p1", f"a{i}")
                network.send("p0", "p2", f"b{i}")
                network.send("p1", "p2", f"c{i}")
            network.run(max_ticks=10)
            return sorted(
                (recorder.process_id, payload)
                for recorder in recorders
                for _, payload, _ in recorder.received
            )

        assert run(True) == run(False)

    def test_batched_loss_drops_whole_batch(self):
        network = SimulatedNetwork(
            NetworkConfig(
                base_delay=1, loss_probability=0.5, reliable=False, batch_messages=True
            ),
            seed=0,
        )
        a, b = Recorder("a"), Recorder("b")
        network.register(a)
        network.register(b)
        for tick in range(40):
            network.send("a", "b", tick)
            network.step()
        network.run(max_ticks=10)
        assert network.messages_dropped > 0
        assert network.messages_delivered + network.messages_dropped == 40


class TestUSIGRekeying:
    def test_rotate_revokes_old_signatures(self):
        registry = KeyRegistry()
        usig = USIG("replica-0", registry)
        verifier = USIGVerifier(registry)
        ui = usig.create_ui("msg")
        assert verifier.verify("msg", ui, enforce_order=False)
        fresh = USIG("replica-0", registry, fresh_key=True)
        assert not verifier.verify("msg", ui, enforce_order=False)
        new_ui = fresh.create_ui("msg2")
        assert verifier.verify("msg2", new_ui, enforce_order=False)

    def test_fresh_key_resets_counter(self):
        registry = KeyRegistry()
        usig = USIG("replica-0", registry)
        for _ in range(5):
            usig.create_ui("m")
        fresh = USIG("replica-0", registry, fresh_key=True)
        assert fresh.counter == 0
        assert fresh.create_ui("m").counter == 1


# -- canonical bytes -----------------------------------------------------------------------
def _reference_bytes(payload: object) -> bytes:
    """The canonical serialization every signer and verifier must agree on."""
    return json.dumps(payload, sort_keys=True, default=repr).encode("utf-8")


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # NaN and infinities included
    st.text(),  # non-ASCII included
)
_values = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
_requests = st.builds(
    ClientRequest,
    client_id=st.text(),
    request_id=st.integers(),
    operation=st.sampled_from(["read", "write"]) | st.text(),
    key=st.text(),
    value=_values,
)
_uis = st.builds(
    UniqueIdentifier,
    replica_id=st.text(),
    counter=st.integers(),
    message_digest=st.text(),
    signature=st.builds(Signature, signer=st.text(), tag=st.text()),
)


class TestCanonicalBytes:
    """The cached bytes of every message are today's ``json.dumps`` bytes."""

    @settings(max_examples=60, deadline=None)
    @given(request=_requests, secret=st.binary(min_size=1, max_size=64))
    def test_client_request_bytes_digest_and_tag(self, request, secret):
        reference = _reference_bytes(request.payload())
        assert request.signed_payload == reference
        assert request.digest == hashlib.sha256(reference).hexdigest()
        assert request.digest == digest(request.payload())
        key = KeyPair("client", secret=secret)
        tag = hmac.new(secret, reference, hashlib.sha256).hexdigest()
        assert key.sign(request.signed_payload).tag == tag
        assert key.sign(request.payload()).tag == tag
        assert key.verify(request.payload(), Signature("client", tag))

    @settings(max_examples=60, deadline=None)
    @given(ui=_uis)
    def test_unique_identifier_signed_payload(self, ui):
        assert ui.signed_payload == _reference_bytes(
            {"replica": ui.replica_id, "counter": ui.counter, "digest": ui.message_digest}
        )

    @settings(max_examples=60, deadline=None)
    @given(
        request=_requests,
        ui=_uis,
        view=st.integers(),
        sequence=st.integers(),
        text=st.text(),
        membership=st.lists(st.text(), max_size=5).map(tuple),
    )
    def test_ui_content_of_every_certified_message(
        self, request, ui, view, sequence, text, membership
    ):
        cases = [
            (
                Prepare(view, sequence, request, text, ui),
                {"view": view, "sequence": sequence, "request": request.digest},
            ),
            (
                Commit(view, sequence, text, text, ui, ui),
                {"view": view, "sequence": sequence, "digest": text},
            ),
            (Checkpoint(sequence, text, text, ui), {"sequence": sequence, "digest": text}),
            (
                ViewChange(view, sequence, text, text, ui),
                {"new_view": view, "last_executed": sequence, "checkpoint": text},
            ),
            (
                NewView(view, text, membership, sequence, ui),
                {"view": view, "membership": membership, "starting_sequence": sequence},
            ),
        ]
        for message, content in cases:
            reference = _reference_bytes(content)
            assert message.ui_content == reference, type(message).__name__
            assert digest(message.ui_content) == hashlib.sha256(reference).hexdigest()
            assert digest(message.ui_content) == digest(content)

    def test_commit_known_answer_digest(self):
        request = ClientRequest("client-0", 7, "write", "x", 11)
        assert request.digest == (
            "5bd13856bf5d3e72fd1a42ac2e94d0e8ef1f5a10bde11fb877f36fd9231f5cb1"
        )
        registry = KeyRegistry()
        ui = USIG("replica-1", registry).create_ui(Commit.encode_content(3, 42, request.digest))
        commit = Commit(3, 42, request.digest, "replica-1", ui, ui)
        assert digest(commit.ui_content) == (
            "fedaca80f9684542f25601bff1c1fa8ccc40877f331d47c7c86532581d41ad2a"
        )
        assert ui.message_digest == digest(commit.ui_content)

    def test_bytes_pass_through_canonicalization(self):
        payload = {"b": [1, 2.5, "\u00e9"], "a": None}
        assert digest(_reference_bytes(payload)) == digest(payload)
        key = KeyPair("k")
        assert key.sign(_reference_bytes(payload)) == key.sign(payload)
