"""Protocol messages of the reconfigurable MinBFT implementation (Fig. 17).

Each dataclass corresponds to one arrow type in the time-space diagrams of
Appendix G: REQUEST, PREPARE, COMMIT, REPLY for the normal case;
VIEW-CHANGE / NEW-VIEW for leader replacement; CHECKPOINT for garbage
collection; STATE for state transfer after recovery; and JOIN / EVICT plus
their replies for reconfiguration requested by the system controller.
Messages are plain frozen dataclasses so they can be hashed into digests and
carried over the simulated network by value.

Canonical bytes.  Each signed or USIG-certified message serializes its
content once, lazily, into a ``functools.cached_property``
(:attr:`ClientRequest.signed_payload`, the ``ui_content`` of PREPARE,
COMMIT, CHECKPOINT, VIEW-CHANGE and NEW-VIEW).  The bytes are derived from
the instance's *own* fields and are never passed in or copied from another
message, so a ``dataclasses.replace``d or Byzantine-built message always
serializes what it carries.  Only the bytes are cached, never a verdict:
every receiver still checks the HMAC and the digest against them.  A
sender computes the same bytes through the ``encode_content`` static
method before the message (which carries the resulting UI) exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .crypto import Signature, canonical
from .crypto import digest as payload_digest
from .usig import UniqueIdentifier

__all__ = [
    "ClientRequest",
    "Prepare",
    "Commit",
    "Reply",
    "Checkpoint",
    "ViewChange",
    "NewView",
    "StateTransferRequest",
    "StateTransferResponse",
    "JoinRequest",
    "EvictRequest",
    "ReconfigurationReply",
]


@dataclass(frozen=True)
class ClientRequest:
    """A signed client request (read or write) with a unique identifier."""

    client_id: str
    request_id: int
    operation: str  # "read" or "write"
    key: str
    value: object | None
    signature: Signature | None = None

    @property
    def identifier(self) -> tuple[str, int]:
        return (self.client_id, self.request_id)

    def payload(self) -> dict:
        """Signable content (everything except the signature)."""
        return {
            "client_id": self.client_id,
            "request_id": self.request_id,
            "operation": self.operation,
            "key": self.key,
            "value": self.value,
        }

    @cached_property
    def signed_payload(self) -> bytes:
        """Canonical bytes of :meth:`payload`: what the client signs."""
        return canonical(self.payload())

    @cached_property
    def digest(self) -> str:
        """SHA-256 digest of :attr:`signed_payload`."""
        return payload_digest(self.signed_payload)


@dataclass(frozen=True)
class Prepare:
    """PREPARE sent by the leader: assigns a sequence number via its USIG."""

    view: int
    sequence: int
    request: ClientRequest
    leader_id: str
    ui: UniqueIdentifier

    @staticmethod
    def encode_content(view: int, sequence: int, request_digest: str) -> bytes:
        """Canonical bytes the leader's USIG certifies."""
        return canonical({"view": view, "sequence": sequence, "request": request_digest})

    @cached_property
    def ui_content(self) -> bytes:
        return self.encode_content(self.view, self.sequence, self.request.digest)


@dataclass(frozen=True)
class Commit:
    """COMMIT sent by every replica after accepting a PREPARE."""

    view: int
    sequence: int
    request_digest: str
    replica_id: str
    prepare_ui: UniqueIdentifier
    ui: UniqueIdentifier

    @staticmethod
    def encode_content(view: int, sequence: int, request_digest: str) -> bytes:
        """Canonical bytes the sender's USIG certifies."""
        return canonical({"view": view, "sequence": sequence, "digest": request_digest})

    @cached_property
    def ui_content(self) -> bytes:
        return self.encode_content(self.view, self.sequence, self.request_digest)


@dataclass(frozen=True)
class Reply:
    """REPLY sent to the client after executing the request."""

    view: int
    replica_id: str
    client_id: str
    request_id: int
    result: object
    sequence: int


@dataclass(frozen=True)
class Checkpoint:
    """CHECKPOINT message carrying a digest of the replica state at a sequence number."""

    sequence: int
    state_digest: str
    replica_id: str
    ui: UniqueIdentifier

    @staticmethod
    def encode_content(sequence: int, state_digest: str) -> bytes:
        """Canonical bytes the sender's USIG certifies."""
        return canonical({"sequence": sequence, "digest": state_digest})

    @cached_property
    def ui_content(self) -> bytes:
        return self.encode_content(self.sequence, self.state_digest)


@dataclass(frozen=True)
class ViewChange:
    """VIEW-CHANGE vote for moving to ``new_view``."""

    new_view: int
    last_executed: int
    replica_id: str
    checkpoint_digest: str
    ui: UniqueIdentifier

    @staticmethod
    def encode_content(new_view: int, last_executed: int, checkpoint_digest: str) -> bytes:
        """Canonical bytes the voter's USIG certifies."""
        return canonical(
            {
                "new_view": new_view,
                "last_executed": last_executed,
                "checkpoint": checkpoint_digest,
            }
        )

    @cached_property
    def ui_content(self) -> bytes:
        return self.encode_content(self.new_view, self.last_executed, self.checkpoint_digest)


@dataclass(frozen=True)
class NewView:
    """NEW-VIEW announcement from the leader of ``view``; includes the membership."""

    view: int
    leader_id: str
    membership: tuple[str, ...]
    starting_sequence: int
    ui: UniqueIdentifier

    @staticmethod
    def encode_content(view: int, membership: tuple[str, ...], starting_sequence: int) -> bytes:
        """Canonical bytes the announcer's USIG certifies."""
        return canonical(
            {
                "view": view,
                "membership": membership,
                "starting_sequence": starting_sequence,
            }
        )

    @cached_property
    def ui_content(self) -> bytes:
        return self.encode_content(self.view, self.membership, self.starting_sequence)


@dataclass(frozen=True)
class StateTransferRequest:
    """Request by a recovering/joining replica for the current service state."""

    replica_id: str
    last_executed: int


@dataclass(frozen=True)
class StateTransferResponse:
    """State snapshot sent by a healthy replica (STATE in Fig. 17d)."""

    replica_id: str
    last_executed: int
    state_snapshot: dict
    state_digest: str
    executed_requests: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class JoinRequest:
    """Reconfiguration request from the system controller: add ``new_replica_id``."""

    new_replica_id: str
    issued_by: str
    signature: Signature | None = None


@dataclass(frozen=True)
class EvictRequest:
    """Reconfiguration request from the system controller: evict ``replica_id``."""

    replica_id: str
    issued_by: str
    signature: Signature | None = None


@dataclass(frozen=True)
class ReconfigurationReply:
    """JOIN-REPLY / EXIT-REPLY acknowledging a completed reconfiguration."""

    kind: str  # "join" or "evict"
    replica_id: str
    view: int
    membership: tuple[str, ...]
    sender_id: str
