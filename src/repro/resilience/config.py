"""Configuration of the serving tier's resilience behavior.

Attached to :class:`~repro.core.config.OctantConfig` as ``resilience`` so a
service inherits it with the rest of the pipeline configuration; the
:class:`~repro.serving.LocalizationService` constructor can override it per
instance.  All defaults are chosen so that a zero-fault run is bit-identical
to the pre-resilience serving path: no default deadline, retries and the
degradation ladder only engage on failures that the old code would have
recorded as failed estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .breaker import BreakerConfig
from .retry import RetryPolicy

__all__ = ["ResilienceConfig"]


@dataclass(frozen=True)
class ResilienceConfig:
    """Deadlines, retries, breakers and degradation for the serving tier."""

    #: Default per-request deadline (seconds); ``None`` disables deadlines
    #: unless the caller passes an explicit ``timeout``.
    deadline_s: float | None = None
    #: Per-rung retry budget for retriable stage faults.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Per-``stage:engine`` circuit breakers consulted before each ladder rung.
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    #: Enable the graceful-degradation ladder (fused -> object engines).
    #: Off: a failed primary attempt is recorded as a failed estimate, the
    #: pre-resilience behavior.
    degradation: bool = True
    #: Allow the final ladder rung: a coarse ``repro.baselines`` estimate
    #: (shortest-ping) when every engine rung failed or the deadline leaves
    #: no time for another solve.  Every such answer carries
    #: ``details["degraded"]`` provenance.
    baseline_fallback: bool = True
    #: Shed queued requests whose deadline already expired at dequeue time
    #: instead of burning an executor slot on an answer nobody awaits.
    shed_expired: bool = True
