"""Cryptographic primitives for the consensus substrate.

The paper's implementation signs client requests and protocol messages with
RSA-1024 and relies on the assumption that the attacker cannot forge
signatures (Proposition 1a).  For the simulation we provide HMAC-based
signatures with per-key secrets managed by a :class:`KeyRegistry`: they give
the same *interface* guarantees (only the holder of the signing secret can
produce a valid signature; anyone with the registry can verify) without the
cost of real public-key cryptography.  The registry also doubles as the
trusted PKI that an authenticated network provides.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import secrets
from dataclasses import dataclass

__all__ = ["Signature", "KeyPair", "KeyRegistry", "canonical", "digest"]

# Equivalent to ``json.dumps(payload, sort_keys=True, default=repr)``, which
# builds a new encoder on every call.
_ENCODER = json.JSONEncoder(sort_keys=True, default=repr)


def canonical(payload: object) -> bytes:
    """Deterministic byte serialization of a payload for hashing/signing.

    ``bytes`` are taken to be canonical already and pass through unchanged:
    the consensus messages cache their own canonical bytes, so hashing or
    signing those bytes gives the same result as hashing or signing the
    payload they were serialized from.
    """
    if type(payload) is bytes:
        return payload
    return _ENCODER.encode(payload).encode("utf-8")


def digest(payload: object) -> str:
    """SHA-256 digest of an arbitrary (JSON-serializable) payload."""
    return hashlib.sha256(canonical(payload)).hexdigest()


@dataclass(frozen=True)
class Signature:
    """A signature: the signer identity plus the authentication tag."""

    signer: str
    tag: str


class KeyPair:
    """Signing key of one principal (replica, client, or controller)."""

    def __init__(self, owner: str, secret: bytes | None = None) -> None:
        self.owner = owner
        self._secret = secret if secret is not None else secrets.token_bytes(32)
        # Keyed HMAC state, copied for each tag instead of re-deriving the
        # inner and outer key pads from the secret every time.
        self._mac = hmac.new(self._secret, digestmod=hashlib.sha256)

    def _tag(self, payload: object) -> str:
        mac = self._mac.copy()
        mac.update(canonical(payload))
        return mac.hexdigest()

    def sign(self, payload: object) -> Signature:
        return Signature(signer=self.owner, tag=self._tag(payload))

    def verify(self, payload: object, signature: Signature) -> bool:
        if signature.signer != self.owner:
            return False
        return hmac.compare_digest(self._tag(payload), signature.tag)


class KeyRegistry:
    """Registry of key pairs; models the PKI shared by all correct processes.

    A compromised replica can sign messages with *its own* key (Byzantine
    behaviour), but it cannot forge another principal's signature because it
    never learns other principals' secrets — which is exactly assumption (a)
    of Proposition 1.
    """

    def __init__(self) -> None:
        self._keys: dict[str, KeyPair] = {}

    def create(self, owner: str) -> KeyPair:
        if owner in self._keys:
            raise ValueError(f"key for {owner!r} already exists")
        key = KeyPair(owner)
        self._keys[owner] = key
        return key

    def get_or_create(self, owner: str) -> KeyPair:
        if owner not in self._keys:
            self._keys[owner] = KeyPair(owner)
        return self._keys[owner]

    def rotate(self, owner: str) -> KeyPair:
        """Replace ``owner``'s key with a fresh one (revoking the old one).

        Signatures produced under the previous key no longer verify — this
        is how a recovered replica's re-keyed USIG invalidates anything the
        attacker may have signed with the compromised container's secret.
        """
        key = KeyPair(owner)
        self._keys[owner] = key
        return key

    def verify(self, payload: object, signature: Signature) -> bool:
        key = self._keys.get(signature.signer)
        if key is None:
            return False
        return key.verify(payload, signature)

    def known_principals(self) -> list[str]:
        return sorted(self._keys)
