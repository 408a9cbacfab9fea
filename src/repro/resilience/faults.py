"""Deterministic, seedable fault injection at named stage boundaries.

A :class:`FaultPlan` is a list of :class:`FaultSpec` rules, each bound to a
pipeline stage (``prepare``/``assemble``/``planarize``/``solve``/``ingest``/
``dispatch`` or ``*``).  When the pipeline passes a stage boundary it calls
:func:`repro.resilience.deadline.checkpoint`, which asks the active plan to
:meth:`~FaultPlan.fire`; the plan then injects a latency spike, a typed
exception, or both, with the configured probability.

Determinism is the whole point: chaos runs must be reproducible, and the
availability benchmark gates on a *fixed* fault schedule.  Every draw is a
pure function of ``(seed, rule index, stage, key, nth-draw-for-that-tuple)``
through a stable hash -- no global RNG state, no dependence on thread
interleaving when call sites pass a per-target ``key``, and identical
schedules across processes and Python hash randomization.

Plans activate three ways, strongest first:

1. **Scoped** -- :func:`repro.resilience.deadline.resilience_scope`
   installs a plan for the current thread (the serving executor wraps every
   request this way, so a service-owned plan never leaks into unrelated
   work).
2. **Globally** -- :func:`install_fault_plan` / :func:`clear_fault_plan`.
3. **Environment** -- ``OCTANT_FAULT_PLAN`` holds a spec string (see
   :meth:`FaultPlan.from_spec`); it is parsed once, lazily, so chaos runs
   need no code edits: ``OCTANT_FAULT_PLAN="seed=7;*:p=0.05,latency_ms=1,error=none"
   python -m pytest`` runs the whole suite under latency chaos.

Spec string grammar (clauses separated by ``;``)::

    seed=7; solve:p=0.3,error=fatal,limit=2; *:p=0.05,latency_ms=1,error=none

Each clause is ``stage:key=value,...`` with keys ``p`` (probability,
default 1), ``error`` (``retriable``/``fatal``/``deadline``/``none``,
default ``retriable``), ``latency_ms`` (sleep before the error, default 0)
and ``limit`` (stop after N injections, default unlimited).

**Process-level fault kinds** (the sharded serving tier's chaos vocabulary;
see ``DESIGN_SERVING.md`` "Sharded tier"):

* ``kill`` -- hard-crash the current process with ``SIGKILL`` (no cleanup,
  no exit handlers): the supervisor must detect the death and restart the
  worker.  On platforms without ``SIGKILL`` the process exits hard via
  ``os._exit``.
* ``hang`` -- sleep effectively forever at the checkpoint.  Heartbeats from
  a single-threaded worker loop stop, so the supervisor's liveness deadline
  reaps the worker exactly as it would a livelocked one.
* ``drop_reply`` -- raise :class:`~repro.resilience.errors.ReplyDropped`;
  the worker loop computes the answer but never sends the reply frame (the
  orchestrator's attempt timeout + failover path is exercised).

These kinds are meant to fire inside worker processes (a plan carrying them
is threaded through the worker bootstrap); firing ``kill`` in the
orchestrator process kills the orchestrator, which is occasionally the
chaos test you want -- but rarely by accident, so keep the spec's stages
narrow.  Counters are per-process: a restarted worker re-rolls its schedule
from the seed with fresh draw counters (deterministic given a deterministic
kill schedule, since the incarnation's draws depend only on the plan).
"""

from __future__ import annotations

import hashlib
import os
import signal
import threading
import time
from dataclasses import dataclass

from .errors import DeadlineExceeded, FatalError, ReplyDropped, RetriableError

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "active_fault_plan",
    "clear_fault_plan",
    "install_fault_plan",
    "stable_uniform",
    "FAULT_PLAN_ENV",
]

#: Environment variable holding a spec string for codeless chaos runs.
FAULT_PLAN_ENV = "OCTANT_FAULT_PLAN"

#: Stage names the pipeline fires checkpoints for (``*`` matches all).
#: ``reply`` is the sharded worker's outbound-frame boundary (the only place
#: ``drop_reply`` is meaningful).
STAGES = ("prepare", "assemble", "planarize", "solve", "ingest", "dispatch", "reply")

_ERROR_KINDS = ("retriable", "fatal", "deadline", "none")

#: Process-level fault kinds (see module docstring); valid wherever an error
#: kind is, but they act on the whole process instead of raising a typed
#: error up the ladder.
_PROCESS_KINDS = ("kill", "hang", "drop_reply")

#: How long a ``hang`` fault sleeps.  Effectively forever next to any
#: liveness deadline, yet bounded so an unsupervised chaos run terminates.
HANG_SECONDS = 3600.0


def stable_uniform(*parts: object) -> float:
    """A uniform [0, 1) draw that is a pure function of ``parts``.

    Stable across processes, platforms and ``PYTHONHASHSEED`` (``hash()`` of
    strings is randomized per process; a keyed digest is not), which is what
    makes fault schedules and retry jitter reproducible.
    """
    text = "|".join(repr(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule: where it fires, how often, and what it does."""

    stage: str
    probability: float = 1.0
    #: ``retriable``/``fatal``/``deadline`` raise the corresponding typed
    #: error; ``none`` makes the rule a pure latency spike.
    error: str = "retriable"
    #: Sleep injected before the error (seconds); models a slow stage.
    latency_s: float = 0.0
    #: Stop firing after this many injections (``None``: unlimited).  Lets a
    #: schedule express "the first solve fails, the retry succeeds".
    limit: int | None = None

    def __post_init__(self) -> None:
        if self.stage != "*" and self.stage not in STAGES:
            raise ValueError(f"unknown fault stage {self.stage!r}; expected one of {STAGES} or '*'")
        if self.error not in _ERROR_KINDS and self.error not in _PROCESS_KINDS:
            raise ValueError(
                f"unknown fault error kind {self.error!r}; expected one of "
                f"{_ERROR_KINDS + _PROCESS_KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"fault probability must be in [0, 1], got {self.probability}")


class FaultPlan:
    """A deterministic schedule of injected faults, plus its injection counters."""

    def __init__(self, specs: "list[FaultSpec] | tuple[FaultSpec, ...]", seed: int = 0):
        self.specs = tuple(specs)
        self.seed = int(seed)
        self._lock = threading.Lock()
        #: Draw counters keyed ``(rule index, stage, key)``; the count is the
        #: ``n`` fed to the stable hash, so repeated attempts re-roll.
        self._draws: dict[tuple[int, str, object], int] = {}
        #: Injections consumed per rule (enforces ``limit``).
        self._fired: dict[int, int] = {}
        #: Observability counters per stage.
        self.injected_errors: dict[str, int] = {}
        self.injected_delays: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_spec(cls, text: str) -> "FaultPlan":
        """Parse the compact spec grammar (see module docstring)."""
        seed = 0
        specs: list[FaultSpec] = []
        for clause in text.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            if clause.startswith("seed="):
                seed = int(clause[len("seed="):])
                continue
            stage, _, body = clause.partition(":")
            stage = stage.strip()
            fields: dict[str, object] = {}
            for item in body.split(","):
                item = item.strip()
                if not item:
                    continue
                key, _, value = item.partition("=")
                key = key.strip()
                value = value.strip()
                if key == "p":
                    fields["probability"] = float(value)
                elif key == "error":
                    fields["error"] = value
                elif key == "latency_ms":
                    fields["latency_s"] = float(value) / 1000.0
                elif key == "limit":
                    fields["limit"] = int(value)
                else:
                    raise ValueError(f"unknown fault spec field {key!r} in {clause!r}")
            specs.append(FaultSpec(stage=stage, **fields))
        return cls(specs, seed=seed)

    @classmethod
    def from_env(cls, env: str = FAULT_PLAN_ENV) -> "FaultPlan | None":
        """The plan configured via the environment, or ``None``."""
        text = os.environ.get(env, "").strip()
        if not text:
            return None
        return cls.from_spec(text)

    # ------------------------------------------------------------------ #
    # Firing
    # ------------------------------------------------------------------ #
    def fire(self, stage: str, key: object = None) -> None:
        """Run every matching rule for one stage-boundary crossing.

        Raises the rule's typed error when the deterministic draw lands
        under its probability (after sleeping its latency spike, if any).
        """
        for index, spec in enumerate(self.specs):
            if spec.stage != "*" and spec.stage != stage:
                continue
            with self._lock:
                if spec.limit is not None and self._fired.get(index, 0) >= spec.limit:
                    continue
                counter_key = (index, stage, key)
                n = self._draws.get(counter_key, 0)
                self._draws[counter_key] = n + 1
            if stable_uniform(self.seed, index, stage, key, n) >= spec.probability:
                continue
            with self._lock:
                if spec.limit is not None:
                    if self._fired.get(index, 0) >= spec.limit:
                        continue
                    self._fired[index] = self._fired.get(index, 0) + 1
                if spec.latency_s > 0:
                    self.injected_delays[stage] = self.injected_delays.get(stage, 0) + 1
                if spec.error != "none":
                    self.injected_errors[stage] = self.injected_errors.get(stage, 0) + 1
            if spec.latency_s > 0:
                time.sleep(spec.latency_s)
            if spec.error == "none":
                continue
            message = f"injected {spec.error} fault at stage {stage!r}"
            if spec.error == "kill":
                # Hard crash: no cleanup, no atexit, no finally blocks --
                # the same signature as the OOM killer or a segfault, which
                # is exactly what the supervisor must survive.
                if hasattr(signal, "SIGKILL"):
                    os.kill(os.getpid(), signal.SIGKILL)
                os._exit(137)
            if spec.error == "hang":
                time.sleep(HANG_SECONDS)
                continue
            if spec.error == "drop_reply":
                raise ReplyDropped(message, stage=stage)
            if spec.error == "retriable":
                raise RetriableError(message, stage=stage)
            if spec.error == "fatal":
                raise FatalError(message, stage=stage)
            raise DeadlineExceeded(message, stage=stage)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, object]:
        """Injection counters, for ``cache_stats()["resilience"]["faults"]``."""
        with self._lock:
            return {
                "seed": self.seed,
                "rules": len(self.specs),
                "errors": dict(sorted(self.injected_errors.items())),
                "delays": dict(sorted(self.injected_delays.items())),
            }

    def describe(self) -> str:
        """The plan as a spec string (round-trips through :meth:`from_spec`)."""
        parts = [f"seed={self.seed}"]
        for spec in self.specs:
            fields = [f"p={spec.probability:g}", f"error={spec.error}"]
            if spec.latency_s:
                fields.append(f"latency_ms={spec.latency_s * 1000:g}")
            if spec.limit is not None:
                fields.append(f"limit={spec.limit}")
            parts.append(f"{spec.stage}:{','.join(fields)}")
        return ";".join(parts)

    # Counters hold a lock, which does not pickle; the plan itself (specs +
    # seed) ships to each cluster worker inside its spawn bootstrap
    # (``repro.serving.worker.WorkerBootstrap``), and every worker restarts
    # its own counters.
    def __getstate__(self):
        return {"specs": self.specs, "seed": self.seed}

    def __setstate__(self, state):
        self.__init__(state["specs"], seed=state["seed"])


# --------------------------------------------------------------------------- #
# Global activation (scoped activation lives in repro.resilience.deadline)
# --------------------------------------------------------------------------- #
_GLOBAL_PLAN: FaultPlan | None = None
_ENV_CHECKED = False
_GLOBAL_LOCK = threading.Lock()


def install_fault_plan(plan: FaultPlan | None) -> FaultPlan | None:
    """Install ``plan`` process-wide; returns the previously installed plan."""
    global _GLOBAL_PLAN, _ENV_CHECKED
    with _GLOBAL_LOCK:
        previous = _GLOBAL_PLAN
        _GLOBAL_PLAN = plan
        _ENV_CHECKED = True  # an explicit install overrides the env default
    return previous


def clear_fault_plan() -> None:
    """Remove the process-wide plan (the env default stays overridden)."""
    install_fault_plan(None)


def active_fault_plan() -> FaultPlan | None:
    """The process-wide plan, lazily seeded from ``OCTANT_FAULT_PLAN``."""
    global _GLOBAL_PLAN, _ENV_CHECKED
    if not _ENV_CHECKED:
        with _GLOBAL_LOCK:
            if not _ENV_CHECKED:
                _GLOBAL_PLAN = FaultPlan.from_env()
                _ENV_CHECKED = True
    return _GLOBAL_PLAN
