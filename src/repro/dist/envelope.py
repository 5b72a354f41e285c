"""HMAC-signed result envelopes for distributed workers.

A worker that finishes a leased cell does not write the shared store
directly from inside the campaign: it captures the archive-encoded
chunk stream locally, wraps the outcome in a :class:`ResultEnvelope` —
the cell identity, the content address, the worker identity, the lease
token, the aggregate meta and a running digest over every chunk — and
signs the whole thing with a shared secret (HMAC over blake2b).  The
commit path (:func:`repro.dist.coordinator.commit_envelope`) verifies
the signature *and* re-derives the payload digest from the actual
chunk bytes **before any store commit**: a forged envelope (wrong
secret), a tampered field, or corrupt chunk bytes are rejected with a
quarantine event and the cell stays leased — never a crash, never a
poisoned archive.

Signature recipe: ``HMAC_blake2b(secret, canonical_json(fields))``
where the canonical JSON sorts keys and omits the signature itself.
Verification uses :func:`hmac.compare_digest`, so timing does not leak
how much of a forged signature matched.

The lease token binds an envelope to one specific lease: a worker
whose lease expired and was re-leased elsewhere produces an envelope
the queue recognizes as *superseded* — its archive bytes are still
valid (content-addressed commits are idempotent) but the queue-state
transition belongs to the current leaseholder.

The secret defaults to :data:`DEFAULT_SECRET` (overridable via the
``REPRO_DIST_SECRET`` environment variable or the ``--secret`` CLI
flag).  With the default everyone can sign — fine for the
single-trust-domain SQLite deployment this PR ships, where the
envelope layer exists to catch *corruption and protocol bugs*; a
server-backed queue (ROADMAP item 1) gives each worker its own secret
to also authenticate *who* uploaded.
"""

import hashlib
import hmac
import json
import os
from datetime import datetime, timezone

#: Development fallback signing key; see the module docstring.
DEFAULT_SECRET = "repro-dist-dev-secret"

#: Environment variable consulted for the shared signing secret.
SECRET_ENV = "REPRO_DIST_SECRET"

#: Envelope wire-format version (bump on field changes).
ENVELOPE_VERSION = 1

#: Fields covered by the signature, in canonical order.
_SIGNED_FIELDS = ("version", "cell_id", "result_key", "worker",
                  "lease_token", "payload_digest", "n_runs", "n_chunks",
                  "cached", "meta", "created_at")


class EnvelopeError(ValueError):
    """A malformed (undecodable) envelope."""


def resolve_secret(secret=None):
    """The signing secret as bytes: the explicit argument, else
    ``$REPRO_DIST_SECRET``, else :data:`DEFAULT_SECRET`."""
    if secret is None:
        secret = os.environ.get(SECRET_ENV) or DEFAULT_SECRET
    if isinstance(secret, str):
        secret = secret.encode()
    return secret


def sign_payload(secret, payload):
    """Hex HMAC-blake2b signature of *payload* bytes."""
    return hmac.new(resolve_secret(secret), payload,
                    hashlib.blake2b).hexdigest()


def payload_digest(chunk_digests, meta):
    """Running digest binding the chunk stream to the aggregate meta.

    Hashes the canonical JSON of the per-chunk digests (in stream
    order) plus the meta dict, so moving, dropping or corrupting any
    chunk — or editing the aggregates — changes the envelope's
    ``payload_digest`` and fails verification.
    """
    blob = json.dumps({"chunks": list(chunk_digests), "meta": meta},
                      sort_keys=True, separators=(",", ":")).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


class ResultEnvelope:
    """One signed result upload: identity, content, and proof.

    ``meta`` is the aggregate payload the store's meta row needs
    (effect counts, vulnerable runs, trace sizes as hex->bytes,
    ``pruned_runs``, ``vectorized``, ``wall_time``, ``chunk_size``,
    plus the plan's ``sample_fraction`` for the queue row) so
    the commit path can archive without decoding a single chunk.
    """

    def __init__(self, cell_id, result_key, worker, lease_token,
                 payload_digest, n_runs, n_chunks, meta, cached=False,
                 created_at=None, signature=None,
                 version=ENVELOPE_VERSION):
        self.version = version
        self.cell_id = cell_id
        self.result_key = result_key
        self.worker = worker
        self.lease_token = lease_token
        self.payload_digest = payload_digest
        self.n_runs = n_runs
        self.n_chunks = n_chunks
        self.cached = cached
        self.meta = meta
        self.created_at = created_at if created_at is not None \
            else datetime.now(timezone.utc).isoformat()
        self.signature = signature

    # -- signing -----------------------------------------------------------

    def signed_payload(self):
        """Canonical byte serialization of every signed field."""
        fields = {name: getattr(self, name) for name in _SIGNED_FIELDS}
        return json.dumps(fields, sort_keys=True,
                          separators=(",", ":")).encode()

    def seal(self, secret=None):
        """Sign the envelope in place; returns self for chaining."""
        self.signature = sign_payload(secret, self.signed_payload())
        return self

    def verify(self, secret=None):
        """True when the signature matches every signed field under
        *secret* (constant-time comparison; an unsealed envelope never
        verifies)."""
        if not self.signature:
            return False
        expected = sign_payload(secret, self.signed_payload())
        return hmac.compare_digest(self.signature, expected)

    # -- wire format -------------------------------------------------------

    def to_json(self):
        data = {name: getattr(self, name) for name in _SIGNED_FIELDS}
        data["signature"] = self.signature
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
            return cls(**{key: data[key] for key in
                          (*_SIGNED_FIELDS, "signature")})
        except (ValueError, KeyError, TypeError) as exc:
            raise EnvelopeError(f"undecodable envelope: {exc}") from exc
