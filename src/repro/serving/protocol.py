"""The sharded tier's wire protocol: length-prefixed pickle frames.

Orchestrator and worker processes speak a tiny framed protocol over
``multiprocessing`` pipes (the framing is transport-agnostic -- the same
bytes work over a socket).  One frame is::

    +-------+---------+------+----------------------+------------------+
    | magic | version | kind | payload length (u32) | payload (pickle) |
    | 2 B   | 1 B     | 1 B  | 4 B big-endian       | length bytes     |
    +-------+---------+------+----------------------+------------------+

``magic`` is ``b"O8"``; ``version`` is :data:`PROTOCOL_VERSION`; ``kind``
is the message-class code from :data:`FRAME_KINDS` and must match the
pickled payload's class (a cheap integrity check: a truncated or reordered
stream fails loudly instead of dispatching the wrong handler).  The payload
is a pickle of one of the frozen message dataclasses below -- every field
of every message is picklable by construction (dataset snapshots and
:class:`~repro.resilience.faults.FaultPlan` are picklable by design,
estimates are plain dataclasses).

Why pickle?  The peers are trusted same-host processes forked/spawned by
the orchestrator itself (this is the scale-*up* tier; the untrusted network
front-end belongs above it), and every payload type already travels through
``multiprocessing`` machinery elsewhere in the repo.  The explicit framing
-- rather than ``Connection.send``'s implicit pickling -- buys three
things: a documented, versioned format, payload-class validation before
dispatch, and the freedom to move a shard to a socket without touching
either endpoint's logic.

Request/reply correlation is by ``request_id``, unique per orchestrator
worker-handle; unsolicited frames (``Hello``, ``Heartbeat``) carry no id.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..core.estimate import LocationEstimate
from ..network.dataset import IngestRecord

__all__ = [
    "PROTOCOL_VERSION",
    "FRAME_KINDS",
    "FrameError",
    "encode_frame",
    "decode_frame",
    "send_message",
    "recv_message",
    "Hello",
    "Heartbeat",
    "LocalizeRequest",
    "LocalizeReply",
    "IngestRequest",
    "IngestReply",
    "HealthRequest",
    "HealthReply",
    "ShutdownRequest",
    "ShutdownReply",
    "ErrorReply",
]

MAGIC = b"O8"
PROTOCOL_VERSION = 1
_HEADER = struct.Struct("!2sBBI")  # magic, version, kind, payload length


class FrameError(RuntimeError):
    """A malformed frame: bad magic, unknown kind, or kind/payload mismatch."""


# --------------------------------------------------------------------------- #
# Messages
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Hello:
    """Worker -> orchestrator, once, when the worker is ready to serve."""

    shard_id: int
    pid: int
    incarnation: int
    version: int  # dataset version after bootstrap replay


@dataclass(frozen=True)
class Heartbeat:
    """Worker -> orchestrator, periodically, from the worker's frame loop.

    Sent from the *serving* loop (not a side thread) so a hung or livelocked
    worker stops heartbeating and the supervisor's liveness deadline reaps
    it.  Carries a compact readiness summary so ``cluster.health()`` can
    report per-shard state without a synchronous round trip.
    """

    shard_id: int
    incarnation: int
    version: int
    served: int
    breakers_open: tuple[str, ...] = ()


@dataclass(frozen=True)
class LocalizeRequest:
    """Localize one target at one pinned dataset version."""

    request_id: int
    target_id: str
    landmark_pool: tuple[str, ...] | None = None
    #: Dataset version the answer must be served at (the cluster-committed
    #: version at dispatch time); ``None`` means "whatever is current".
    version: int | None = None
    #: Remaining work budget, forwarded into the worker's per-request
    #: deadline (seconds); ``None`` means unbounded.
    deadline_s: float | None = None


@dataclass(frozen=True)
class LocalizeReply:
    request_id: int
    estimate: LocationEstimate
    #: Version the answer was actually served at.
    version: int


@dataclass(frozen=True)
class IngestRequest:
    """Replicated ingest fan-out: apply one captured record."""

    request_id: int
    record: IngestRecord
    #: Version the worker must be at *after* applying (sanity check of the
    #: replication stream: base + 1).
    expect_version: int | None = None


@dataclass(frozen=True)
class IngestReply:
    request_id: int
    version: int


@dataclass(frozen=True)
class HealthRequest:
    request_id: int


@dataclass(frozen=True)
class HealthReply:
    request_id: int
    shard_id: int
    liveness: Mapping[str, Any]
    readiness: Mapping[str, Any]
    #: Dataset versions the worker can still answer at (current + retained).
    retained_versions: tuple[int, ...] = ()
    faults: Mapping[str, Any] | None = None


@dataclass(frozen=True)
class ShutdownRequest:
    request_id: int


@dataclass(frozen=True)
class ShutdownReply:
    request_id: int
    served: int


@dataclass(frozen=True)
class ErrorReply:
    """Worker-side dispatch failure (not a per-target failed estimate).

    ``error_class`` follows the resilience taxonomy; ``"version"`` is the
    one cluster-specific class: the requested pinned version is neither
    current nor retained (the orchestrator fails over to a peer that still
    retains it).
    """

    request_id: int
    error: str
    error_class: str = "fatal"
    details: Mapping[str, Any] = field(default_factory=dict)


#: kind code -> message class.  Codes are part of the wire format: append,
#: never renumber.
FRAME_KINDS: dict[int, type] = {
    1: Hello,
    2: Heartbeat,
    3: LocalizeRequest,
    4: LocalizeReply,
    5: IngestRequest,
    6: IngestReply,
    7: HealthRequest,
    8: HealthReply,
    9: ShutdownRequest,
    10: ShutdownReply,
    11: ErrorReply,
}
_KIND_CODES = {cls: code for code, cls in FRAME_KINDS.items()}


# --------------------------------------------------------------------------- #
# Framing
# --------------------------------------------------------------------------- #
def encode_frame(message: object) -> bytes:
    """Serialize one message to a self-describing frame."""
    code = _KIND_CODES.get(type(message))
    if code is None:
        raise FrameError(f"not a protocol message: {type(message).__name__}")
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(MAGIC, PROTOCOL_VERSION, code, len(payload)) + payload


def decode_frame(data: bytes) -> object:
    """Parse one frame; validates magic, version, length and payload class."""
    if len(data) < _HEADER.size:
        raise FrameError(f"truncated frame header ({len(data)} bytes)")
    magic, version, code, length = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise FrameError(f"unsupported protocol version {version}")
    cls = FRAME_KINDS.get(code)
    if cls is None:
        raise FrameError(f"unknown frame kind {code}")
    payload = data[_HEADER.size:]
    if len(payload) != length:
        raise FrameError(f"frame length mismatch: header {length}, got {len(payload)}")
    message = pickle.loads(payload)
    if type(message) is not cls:
        raise FrameError(
            f"frame kind {code} ({cls.__name__}) carried a "
            f"{type(message).__name__} payload"
        )
    return message


def send_message(conn, message: object) -> None:
    """Encode and send one frame on a ``multiprocessing`` connection."""
    conn.send_bytes(encode_frame(message))


def recv_message(conn, timeout: float | None = None) -> object | None:
    """Receive one frame; ``None`` when ``timeout`` elapses with no frame.

    Raises ``EOFError``/``OSError`` when the peer is gone -- callers treat
    that as the peer's death, which is exactly what it means.
    """
    if timeout is not None and not conn.poll(timeout):
        return None
    return decode_frame(conn.recv_bytes())
