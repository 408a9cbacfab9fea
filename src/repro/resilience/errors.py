"""The typed failure taxonomy of the serving tier.

Octant's measurement plane is noisy and partially failing by design (the
paper's premise); the serving tier therefore needs to *reason* about
failures, not just record their class names.  Every failure a request can
encounter is classified into one of a small set of kinds, each implying a
policy:

``retriable``
    Transient: a retry (same engine, same inputs) may succeed.  Backoff and
    retry up to the :class:`~repro.resilience.retry.RetryPolicy` budget,
    then step down the degradation ladder.
``fatal``
    Deterministic for these inputs: retrying the same attempt cannot help.
    Step straight down the degradation ladder (the coarse baseline may
    still answer).
``deadline``
    The request's deadline expired mid-flight.  No time for another full
    attempt; jump directly to the (near-instant) baseline fallback, or fail
    terminally when degradation is disabled.
``cancelled`` / ``timeout`` / ``shutdown``
    The caller (or the service lifecycle) withdrew the request; resolve it
    with a terminal failed estimate and do no further work.

The classification is carried on estimates as ``details["error_class"]``
(alongside the pre-existing ``details["error_type"]`` exception class name,
which is kept for compatibility with stored results and older tooling).
"""

from __future__ import annotations

__all__ = [
    "ResilienceError",
    "RetriableError",
    "FatalError",
    "DeadlineExceeded",
    "OperationCancelled",
    "ReplyDropped",
    "classify_error",
]


class ResilienceError(Exception):
    """Base class of the typed failure taxonomy.

    ``stage`` names the pipeline stage boundary the failure surfaced at
    (``prepare``/``assemble``/``planarize``/``solve``/``ingest``/
    ``dispatch``), when known; circuit breakers key on it.
    """

    #: The taxonomy kind; subclasses override.
    kind = "fatal"

    def __init__(self, message: str, stage: str | None = None):
        super().__init__(message)
        self.stage = stage


class RetriableError(ResilienceError):
    """A transient failure: the same attempt may succeed if retried."""

    kind = "retriable"


class FatalError(ResilienceError):
    """A deterministic failure: retrying the same attempt cannot help."""

    kind = "fatal"


class DeadlineExceeded(ResilienceError):
    """The request's deadline expired before the attempt completed."""

    kind = "deadline"


class OperationCancelled(ResilienceError):
    """The request was withdrawn (caller timeout or service shutdown).

    ``reason`` distinguishes who withdrew it: ``"timeout"`` (the awaiting
    caller gave up), ``"shutdown"`` (the service is stopping) or the generic
    ``"cancelled"``.
    """

    kind = "cancelled"

    def __init__(
        self, message: str, stage: str | None = None, reason: str = "cancelled"
    ):
        super().__init__(message, stage)
        self.reason = reason


class ReplyDropped(ResilienceError):
    """An injected process-level fault: compute the answer, send no reply.

    Raised by a ``drop_reply`` fault rule at the worker's ``reply`` stage
    boundary (see :mod:`repro.serving.worker`): the worker swallows it and
    skips the reply frame, modelling a reply lost on the wire.  The
    orchestrator observes only silence -- its per-attempt timeout fires and
    the request fails over to a peer shard.  Classified ``retriable``
    because the work itself succeeded; only the delivery was lost.
    """

    kind = "retriable"


def classify_error(error: BaseException | str) -> str:
    """Map any failure to its taxonomy kind.

    Typed errors carry their own kind; exceptions the pre-resilience code
    already raised are mapped conservatively -- ``KeyError``/``ValueError``
    are data refusals (deterministic, hence ``fatal``), timeouts are
    ``deadline``, anything unknown is ``fatal`` (an unknown failure must not
    be retried blindly against a live dataset).
    """
    if isinstance(error, OperationCancelled):
        return error.reason
    if isinstance(error, ResilienceError):
        return error.kind
    if isinstance(error, (TimeoutError,)):
        return "deadline"
    return "fatal"
