"""Measurement datasets: the data Octant and the baselines actually consume.

A :class:`MeasurementDataset` is the boundary between the measurement plane
(the synthetic substrate, or in a real deployment, ping/traceroute against
the Internet) and the localization algorithms.  It contains exactly the
information the paper's study collected:

* the set of participating hosts and the ground-truth position of each
  (used for landmarks, and held back for a host while it plays the target),
* the all-pairs ping measurements (10 time-dispersed probes per pair),
* the all-pairs traceroutes, including per-hop RTTs, router IPs and DNS names,
* the WHOIS registry.

The dataset is a plain in-memory object with dictionary lookups so the
algorithms never touch the simulator, which keeps them honest: they can only
use information a real deployment would have.
"""

from __future__ import annotations

import math
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..geometry import GeoPoint
from .planetlab import Deployment
from .probes import PingResult, TracerouteResult
from .whois import WhoisRecord, WhoisRegistry

__all__ = [
    "IngestDelta",
    "IngestRecord",
    "InvalidMeasurement",
    "NodeRecord",
    "MeasurementDataset",
    "PairMatrixView",
    "collect_dataset",
]


class PairMatrixView(MappingABC):
    """Dict-compatible view over a symmetric pair matrix.

    The canonical representation of the full-cohort pairwise data is an
    index-mapped NumPy matrix (``np.nan`` marks unmeasured pairs) so that
    height estimation and calibration can read contiguous rows; this view
    keeps the historical ``{(a, b): value}`` mapping interface working on
    top of it.  Keys are ``(a, b)`` tuples with ``a < b``; iteration order
    matches the dict the view replaced (sorted ids, upper triangle).
    """

    __slots__ = ("_ids", "_index", "_matrix", "_pairs", "_values")

    def __init__(self, ids: Sequence[str], index: Mapping[str, int], matrix: np.ndarray):
        self._ids = list(ids)
        self._index = index
        self._matrix = matrix
        self._pairs: list[tuple[str, str]] | None = None
        self._values: list[float] | None = None

    def _materialize(self) -> None:
        """Build the key/value sequences once (sorted upper triangle).

        Iteration and ``items()`` then run at plain-list speed instead of
        paying per-pair index lookups and NaN checks -- the estimators that
        walk every pair per target stay as fast as with the dict this view
        replaced.
        """
        if self._pairs is not None:
            return
        ids = self._ids
        n = len(ids)
        pairs: list[tuple[str, str]] = []
        values: list[float] = []
        if n:
            iu, ju = np.triu_indices(n, k=1)
            upper = self._matrix[iu, ju]
            keep = ~np.isnan(upper)
            # Bulk construction instead of per-pair appends: one NaN filter,
            # one tolist() per array, one zip-driven comprehension.  Values
            # are the same float objects tolist() produced before, so the
            # view stays bit-identical to the dict it replaced.
            pairs = [
                (ids[i], ids[j])
                for i, j in zip(iu[keep].tolist(), ju[keep].tolist())
            ]
            values = upper[keep].tolist()
        self._pairs = pairs
        self._values = values

    def __getitem__(self, key: tuple[str, str]) -> float:
        a, b = key
        i = self._index.get(a)
        j = self._index.get(b)
        if i is None or j is None:
            raise KeyError(key)
        value = self._matrix[i, j]
        if np.isnan(value):
            raise KeyError(key)
        return float(value)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        self._materialize()
        return iter(self._pairs)

    def items(self):
        """Pairwise items at list speed (same order and values as iteration)."""
        self._materialize()
        return list(zip(self._pairs, self._values))

    def __len__(self) -> int:
        self._materialize()
        return len(self._pairs)

    @property
    def ids(self) -> list[str]:
        """Row/column labels, in index order (copy)."""
        return list(self._ids)

    @property
    def matrix(self) -> np.ndarray:
        """The backing ``(n, n)`` matrix (not a copy; treat as read-only)."""
        return self._matrix


@dataclass(frozen=True)
class NodeRecord:
    """Identity and metadata of a node appearing in the dataset."""

    node_id: str
    ip_address: str
    dns_name: str
    location: GeoPoint | None
    is_host: bool

    def with_location(self, location: GeoPoint | None) -> "NodeRecord":
        """Copy of this record with a different (possibly hidden) location."""
        return NodeRecord(self.node_id, self.ip_address, self.dns_name, location, self.is_host)


class InvalidMeasurement(ValueError):
    """An ingest payload carries a measurement no real probe could produce."""


def validate_measurements(
    pings: Iterable[PingResult] = (),
    router_pings: Mapping[tuple[str, str], float] | None = None,
) -> None:
    """Reject a payload before any of it is applied.

    Every RTT sample must be finite and non-negative, every ping must carry
    at least one sample, and no host pings itself.  Raises
    :class:`InvalidMeasurement` naming the first offending measurement.
    """
    for ping in pings:
        if ping.src == ping.dst or not ping.rtts_ms or not all(map(_valid_rtt, ping.rtts_ms)):
            raise InvalidMeasurement(
                f"ping {ping.src!r} -> {ping.dst!r} with samples {ping.rtts_ms!r}: "
                "needs two distinct hosts and finite, non-negative RTT samples"
            )
    for (host_id, router_id), rtt in (router_pings or {}).items():
        if not _valid_rtt(rtt):
            raise InvalidMeasurement(
                f"router ping {host_id!r} -> {router_id!r} has RTT {rtt!r}"
            )


def _valid_rtt(rtt: float) -> bool:
    return math.isfinite(rtt) and rtt >= 0.0


@dataclass(frozen=True)
class IngestRecord:
    """One :meth:`MeasurementDataset.ingest` payload, captured for replay.

    The sharded serving tier logs every replicated ingest as one of these
    (picklable, immutable) records: a worker restarted from a snapshot at
    version ``V`` replays the records after ``V`` and arrives, version for
    version and bit for bit, at the same dataset the surviving workers
    serve.  Applying a record is *exactly* an ingest call -- same touched
    set, same version bump -- so replay needs no second code path.
    """

    hosts: tuple[NodeRecord, ...] = ()
    pings: tuple[PingResult, ...] = ()
    traceroutes: tuple[TracerouteResult, ...] = ()
    routers: tuple[NodeRecord, ...] = ()
    router_pings: tuple[tuple[tuple[str, str], float], ...] = ()

    @classmethod
    def capture(
        cls,
        hosts: Iterable[NodeRecord] = (),
        pings: Iterable[PingResult] = (),
        traceroutes: Iterable[TracerouteResult] = (),
        routers: Iterable[NodeRecord] = (),
        router_pings: Mapping[tuple[str, str], float] | None = None,
    ) -> "IngestRecord":
        """Freeze one ingest payload (tuples, so the record hashes/pickles).

        Validates the payload first (:func:`validate_measurements`), so a
        bad measurement is rejected where it is produced, not later inside
        whatever applies the record.
        """
        pings = tuple(pings)
        validate_measurements(pings, router_pings)
        return cls(
            hosts=tuple(hosts),
            pings=pings,
            traceroutes=tuple(traceroutes),
            routers=tuple(routers),
            router_pings=tuple(sorted((router_pings or {}).items())),
        )

    def apply(self, dataset: "MeasurementDataset") -> frozenset[str]:
        """Replay this record into ``dataset`` via its ordinary ingest path."""
        return dataset.ingest(
            hosts=self.hosts,
            pings=self.pings,
            traceroutes=self.traceroutes,
            routers=self.routers,
            router_pings=dict(self.router_pings),
        )

    @classmethod
    def merge(cls, records: Sequence["IngestRecord"]) -> "IngestRecord":
        """Coalesce a sequence of records into one equivalent record.

        Applying the merged record yields the same final dataset state as
        applying the sequence in order -- hosts/routers/pings/traceroutes
        last-wins per key, router latency samples min-merge (associative and
        commutative) -- in a single version bump.  This is what lets the
        measurement log compact a burst of appends into one ingest, and the
        sharded tier replicate the burst as one fan-out frame.
        """
        hosts: dict[str, NodeRecord] = {}
        routers: dict[str, NodeRecord] = {}
        pings: dict[tuple[str, str], PingResult] = {}
        traceroutes: dict[tuple[str, str], TracerouteResult] = {}
        router_pings: dict[tuple[str, str], float] = {}
        for record in records:
            for host in record.hosts:
                hosts[host.node_id] = host
            for router in record.routers:
                routers[router.node_id] = router
            for ping in record.pings:
                pings[(ping.src, ping.dst)] = ping
            for trace in record.traceroutes:
                traceroutes[(trace.src, trace.dst)] = trace
            for key, rtt in record.router_pings:
                current = router_pings.get(key)
                if current is None or rtt < current:
                    router_pings[key] = rtt
        return cls(
            hosts=tuple(hosts.values()),
            pings=tuple(pings.values()),
            traceroutes=tuple(traceroutes.values()),
            routers=tuple(routers.values()),
            router_pings=tuple(sorted(router_pings.items())),
        )


@dataclass(frozen=True)
class IngestDelta:
    """The exact scope of one ingest generation, for delta-scoped invalidation.

    :meth:`MeasurementDataset.touched_since` answers "which *hosts* changed"
    -- too coarse for the warm caches: a refreshed landmark-to-target probe
    touches both endpoints, so under leave-one-out pools every prepared
    derivation looks stale even though none of its inputs moved.  A delta
    records what an ingest changed at the granularity the caches actually
    depend on:

    * ``ping_pairs`` -- host pairs whose *combined min-RTT value changed*
      (canonical ``(a, b)`` with ``a < b``).  A re-probe that lands on the
      same minimum is invisible to every estimator and is not recorded.
    * ``record_hosts`` -- hosts whose :class:`NodeRecord` was added or
      actually changed (a re-ingested identical record is not recorded).
    * ``new_hosts`` -- the subset of ``record_hosts`` that joined the
      roster (they change every implicit leave-one-out landmark set).
    * ``router_observers`` -- hosts whose router latency table gained or
      lowered an entry (the min-merge can no-op; those are not recorded).
    * ``router_replaced`` -- an existing router record changed: DNS-derived
      router hints have no per-host scope, so this forces full invalidation.

    A derived cache entry whose landmark roster is disjoint from every
    recorded scope is untouched by the ingest and may be carried forward to
    the new version unchanged -- the carried object is bit-identical to a
    re-derivation because none of its inputs changed.
    """

    version: int
    touched: frozenset[str]
    record_hosts: frozenset[str] = frozenset()
    new_hosts: frozenset[str] = frozenset()
    location_hosts: frozenset[str] = frozenset()
    ping_pairs: frozenset[tuple[str, str]] = frozenset()
    router_observers: frozenset[str] = frozenset()
    router_replaced: bool = False

    def affects_roster(self, roster: frozenset[str]) -> bool:
        """Would a cache entry derived from exactly ``roster`` be stale?

        True when any changed host record, changed-value pair, or router
        observation lies *within* the roster.  Pairs with an endpoint
        outside the roster (e.g. a landmark-to-target probe, target not in
        the pool) leave the derivation's inputs untouched.
        """
        if self.router_replaced:
            return True
        if not self.record_hosts.isdisjoint(roster):
            return True
        if not self.router_observers.isdisjoint(roster):
            return True
        for a, b in self.ping_pairs:
            if a in roster and b in roster:
                return True
        return False


@dataclass
class MeasurementDataset:
    """All measurements collected for one study.

    ``hosts`` maps host id to its :class:`NodeRecord` (with ground-truth
    location); ``routers`` likewise for every router observed on any
    traceroute.  ``pings`` and ``traceroutes`` are keyed by ``(src, dst)``
    host-id pairs.  ``router_pings`` holds landmark-to-router latency derived
    from traceroute hop timings, keyed by ``(host_id, router_id)``.
    """

    hosts: dict[str, NodeRecord] = field(default_factory=dict)
    routers: dict[str, NodeRecord] = field(default_factory=dict)
    pings: dict[tuple[str, str], PingResult] = field(default_factory=dict)
    traceroutes: dict[tuple[str, str], TracerouteResult] = field(default_factory=dict)
    router_pings: dict[tuple[str, str], float] = field(default_factory=dict)
    whois: WhoisRegistry = field(default_factory=WhoisRegistry)

    # Lazily-built full-cohort matrices shared by the batch localization
    # engine (see repro.core.batch).  The dataset is immutable between
    # :meth:`ingest` calls; ingest extends the matrices incrementally (only
    # rows of touched hosts are recomputed) and bumps :attr:`version` so
    # derived caches can invalidate selectively.  The canonical storage is
    # index-mapped NumPy matrices (contiguous rows for the estimators);
    # PairMatrixView keeps the historical dict interface working on top of
    # them.
    _rtt_view: "PairMatrixView | None" = field(
        default=None, init=False, repr=False, compare=False
    )
    _rtt_index: dict[str, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _distance_view: "PairMatrixView | None" = field(
        default=None, init=False, repr=False, compare=False
    )
    _distance_index: dict[str, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _rtt_degree: dict[str, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    # Measurement-ingest state: a monotonically increasing version, a bounded
    # log of which hosts each ingest touched (for selective cache
    # invalidation downstream), snapshot bookkeeping for copy-on-write.
    _version: int = field(default=0, init=False, repr=False, compare=False)
    _frozen: bool = field(default=False, init=False, repr=False, compare=False)
    _cow_pending: bool = field(default=False, init=False, repr=False, compare=False)
    _touched_log: list[tuple[int, frozenset[str]]] = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    _delta_log: list[IngestDelta] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    #: How many ingest generations :meth:`touched_since` (and the structured
    #: :meth:`deltas_since`) can answer about before reporting "unknown"
    #: (callers then invalidate everything).
    TOUCHED_LOG_LIMIT = 64

    # ------------------------------------------------------------------ #
    # Node accessors
    # ------------------------------------------------------------------ #
    @property
    def host_ids(self) -> list[str]:
        """All host ids, sorted for determinism."""
        return sorted(self.hosts)

    def node(self, node_id: str) -> NodeRecord:
        """Record for a host or router id."""
        if node_id in self.hosts:
            return self.hosts[node_id]
        return self.routers[node_id]

    def true_location(self, node_id: str) -> GeoPoint:
        """Ground-truth position of a node; raises when unknown."""
        record = self.node(node_id)
        if record.location is None:
            raise KeyError(f"no ground-truth location recorded for {node_id!r}")
        return record.location

    def whois_lookup(self, node_id: str) -> WhoisRecord | None:
        """WHOIS record covering the node's IP address, if any."""
        return self.whois.lookup(self.node(node_id).ip_address)

    # ------------------------------------------------------------------ #
    # Measurement accessors
    # ------------------------------------------------------------------ #
    def ping(self, src: str, dst: str) -> PingResult | None:
        """The ping result for ``(src, dst)``, or ``None`` when not measured."""
        return self.pings.get((src, dst))

    def min_rtt_ms(self, a: str, b: str) -> float | None:
        """Minimum RTT between two hosts over both probing directions."""
        candidates = []
        forward = self.pings.get((a, b))
        backward = self.pings.get((b, a))
        if forward is not None:
            candidates.append(forward.min_rtt_ms)
        if backward is not None:
            candidates.append(backward.min_rtt_ms)
        if not candidates:
            return None
        return min(candidates)

    def traceroute(self, src: str, dst: str) -> TracerouteResult | None:
        """Traceroute from ``src`` to ``dst``, or ``None`` when not collected."""
        return self.traceroutes.get((src, dst))

    def router_min_rtt_ms(self, host_id: str, router_id: str) -> float | None:
        """Minimum observed RTT from a host to a router (from traceroute hops)."""
        return self.router_pings.get((host_id, router_id))

    def routers_measured_from(self, host_id: str) -> list[str]:
        """Router ids for which ``host_id`` has a latency measurement."""
        return sorted(r for (h, r) in self.router_pings if h == host_id)

    # ------------------------------------------------------------------ #
    # Full-cohort shared matrices (batch localization)
    # ------------------------------------------------------------------ #
    def pairwise_min_rtt(self) -> Mapping[tuple[str, str], float]:
        """Symmetric min-RTT matrix over all host pairs, built once.

        Returns a :class:`PairMatrixView` over the index-mapped NumPy matrix
        (see :meth:`pairwise_min_rtt_matrix`): keys are ``(a, b)`` with
        ``a < b``, values equal :meth:`min_rtt_ms` for the pair, unmeasured
        pairs are absent -- exactly the dict this method used to return.
        """
        if self._rtt_view is None:
            ids = self.host_ids
            index = {h: i for i, h in enumerate(ids)}
            matrix = np.full((len(ids), len(ids)), np.nan)
            for i, a in enumerate(ids):
                for j in range(i + 1, len(ids)):
                    rtt = self.min_rtt_ms(a, ids[j])
                    if rtt is not None:
                        matrix[i, j] = rtt
                        matrix[j, i] = rtt
            self._rtt_index = index
            self._rtt_view = PairMatrixView(ids, index, matrix)
        return self._rtt_view

    def pairwise_min_rtt_matrix(self) -> tuple[list[str], np.ndarray]:
        """The min-RTT matrix as ``(ids, (n, n) array)`` for contiguous reads.

        ``np.nan`` marks unmeasured pairs; row/column order is the sorted
        host-id order.  The array is the live cache -- treat it as read-only.
        """
        view = self.pairwise_min_rtt()
        return view.ids, view.matrix

    def cached_min_rtt_ms(self, a: str, b: str) -> float | None:
        """Matrix-backed equivalent of :meth:`min_rtt_ms` for host pairs.

        A direct index lookup into the contiguous matrix -- no tuple hashing.
        """
        if a == b:
            return None
        view = self.pairwise_min_rtt()
        index = self._rtt_index
        i = index.get(a)
        j = index.get(b)
        if i is None or j is None:
            return None
        value = view.matrix[i, j]
        if np.isnan(value):
            return None
        return float(value)

    def measured_pair_degree(self) -> Mapping[str, int]:
        """Number of measured host pairs each host participates in.

        Lets the batch engine decide in O(1) whether a leave-one-out landmark
        set still has enough measured pairs for height estimation, instead of
        re-enumerating the O(n^2) pairs per target.
        """
        if self._rtt_degree is None:
            ids, matrix = self.pairwise_min_rtt_matrix()
            counts = np.count_nonzero(~np.isnan(matrix), axis=1)
            self._rtt_degree = {h: int(c) for h, c in zip(ids, counts)}
        return self._rtt_degree

    def pairwise_distance_km(self) -> Mapping[tuple[str, str], float]:
        """Great-circle distance matrix over located host pairs, built once.

        Keys are ``(a, b)`` with ``a < b``.  Values are bitwise-identical to
        ``true_location(a).distance_km(true_location(b))`` (the haversine is
        symmetric down to IEEE rounding), so algorithms may substitute the
        cached value for a direct computation without changing results.
        """
        if self._distance_view is None:
            located = [
                (h, record.location)
                for h, record in sorted(self.hosts.items())
                if record.location is not None
            ]
            ids = [h for h, _ in located]
            index = {h: i for i, h in enumerate(ids)}
            matrix = np.full((len(ids), len(ids)), np.nan)
            for i, (_a, loc_a) in enumerate(located):
                for j in range(i + 1, len(located)):
                    d = loc_a.distance_km(located[j][1])
                    matrix[i, j] = d
                    matrix[j, i] = d
            self._distance_index = index
            self._distance_view = PairMatrixView(ids, index, matrix)
        return self._distance_view

    def pairwise_distance_matrix(self) -> tuple[list[str], np.ndarray]:
        """The distance matrix as ``(ids, (n, n) array)`` for contiguous reads."""
        view = self.pairwise_distance_km()
        return view.ids, view.matrix

    def cached_distance_km(self, a: str, b: str) -> float:
        """Matrix-backed great-circle distance between two located hosts."""
        view = self.pairwise_distance_km()
        index = self._distance_index
        i = index.get(a)
        j = index.get(b)
        if i is not None and j is not None and i != j:
            value = view.matrix[i, j]
            if not np.isnan(value):
                return float(value)
        return self.true_location(a).distance_km(self.true_location(b))

    # ------------------------------------------------------------------ #
    # Versioning, snapshots and incremental measurement ingest
    # ------------------------------------------------------------------ #
    @property
    def version(self) -> int:
        """Monotonic measurement version; bumped by every :meth:`ingest`."""
        return self._version

    @property
    def is_snapshot(self) -> bool:
        """True for immutable snapshots returned by :meth:`snapshot`."""
        return self._frozen

    def touched_since(self, version: int) -> frozenset[str] | None:
        """Host ids touched by ingests after ``version``.

        Returns an empty set when nothing changed, or ``None`` when the
        bounded mutation log no longer covers ``version`` (the caller must
        then treat every derived cache entry as stale).  Touched hosts cover
        everything an ingest can affect: new/updated host records, both
        endpoints of new pings and traceroutes, and the observing host of
        new router latency samples.
        """
        if version >= self._version:
            return frozenset()
        if not self._touched_log or self._touched_log[0][0] > version + 1:
            return None
        touched: set[str] = set()
        for entry_version, hosts in self._touched_log:
            if entry_version > version:
                touched |= hosts
        return frozenset(touched)

    def deltas_since(self, version: int) -> tuple[IngestDelta, ...] | None:
        """Per-ingest :class:`IngestDelta` records applied after ``version``.

        The fine-grained companion to :meth:`touched_since`: instead of a
        single union of touched hosts, each returned delta scopes one ingest
        down to the measurements that actually *changed value* -- refreshed
        pings landing on the same combined minimum, or host records replayed
        unchanged, produce no scope at all.  Cache layers use
        :meth:`IngestDelta.affects_roster` to keep entries whose inputs
        provably did not move.

        Returns an empty tuple when nothing changed, or ``None`` when the
        bounded log no longer covers ``version`` (including after a router
        metadata replacement, which clears the log to force full
        invalidation).
        """
        if version >= self._version:
            return ()
        if not self._delta_log or self._delta_log[0].version > version + 1:
            return None
        return tuple(d for d in self._delta_log if d.version > version)

    def snapshot(self) -> "MeasurementDataset":
        """An immutable copy-on-write snapshot of the current measurements.

        The snapshot shares every measurement container and every built
        matrix cache with the live dataset -- O(1), no data copied.  The
        *next* :meth:`ingest` on the live dataset replaces (rather than
        mutates) the shared containers, so the snapshot keeps observing
        exactly the data that existed when it was taken.  Snapshots refuse
        :meth:`ingest` themselves.
        """
        snap = MeasurementDataset(
            hosts=self.hosts,
            routers=self.routers,
            pings=self.pings,
            traceroutes=self.traceroutes,
            router_pings=self.router_pings,
            whois=self.whois,
        )
        snap._rtt_view = self._rtt_view
        snap._rtt_index = self._rtt_index
        snap._distance_view = self._distance_view
        snap._distance_index = self._distance_index
        snap._rtt_degree = self._rtt_degree
        snap._version = self._version
        snap._frozen = True
        self._cow_pending = True
        return snap

    def thaw(self) -> "MeasurementDataset":
        """A live (ingestable) dataset observing this dataset's measurements.

        The inverse of :meth:`snapshot`, and like it O(1): the thawed copy
        shares every container and built matrix with ``self`` in
        copy-on-write mode, carries the version forward, and accepts
        :meth:`ingest`.  This is how a sharded worker process boots -- the
        orchestrator pickles a frozen snapshot across the process boundary
        and the worker thaws it into its own live dataset, replaying any
        ingests that landed while it was starting (:meth:`replay`).  The
        original (frozen or live) dataset is never affected by ingests into
        the thawed copy.
        """
        live = MeasurementDataset(
            hosts=self.hosts,
            routers=self.routers,
            pings=self.pings,
            traceroutes=self.traceroutes,
            router_pings=self.router_pings,
            whois=self.whois,
        )
        live._rtt_view = self._rtt_view
        live._rtt_index = self._rtt_index
        live._distance_view = self._distance_view
        live._distance_index = self._distance_index
        live._rtt_degree = self._rtt_degree
        live._version = self._version
        # The containers are shared with self (and possibly with snapshots
        # of self); the first ingest must replace, not mutate, them.
        live._cow_pending = True
        return live

    def replay(self, records: Iterable[IngestRecord]) -> frozenset[str]:
        """Apply a sequence of captured ingests in order; union of touched ids.

        Each record bumps :attr:`version` by one, exactly as the original
        ingest did, so a worker replaying the orchestrator's log converges
        on the orchestrator's version number as well as its data.
        """
        touched: set[str] = set()
        for record in records:
            touched |= record.apply(self)
        return frozenset(touched)

    def ingest(
        self,
        hosts: Iterable[NodeRecord] = (),
        pings: Iterable[PingResult] = (),
        traceroutes: Iterable[TracerouteResult] = (),
        routers: Iterable[NodeRecord] = (),
        router_pings: Mapping[tuple[str, str], float] | None = None,
    ) -> frozenset[str]:
        """Append new measurements and extend the cohort matrices in place.

        This is the write path of the online service: a continuous stream of
        new targets and refreshed measurements is absorbed without rebuilding
        the full-cohort state.  Already-built pairwise matrices are extended
        incrementally -- untouched entries are carried over by a block copy
        and only the rows of touched hosts re-read the measurement store --
        so an ingest costs O(touched x hosts) measurement reads instead of
        O(hosts^2).  Router latency samples merge by minimum, matching
        :func:`collect_dataset`.

        Returns the set of touched host ids (also recorded in the bounded
        mutation log that backs :meth:`touched_since`).  Raises
        :class:`RuntimeError` on snapshots and :class:`InvalidMeasurement`
        on a payload :func:`validate_measurements` rejects; either way the
        dataset is left untouched.
        """
        if self._frozen:
            raise RuntimeError(
                "cannot ingest into a snapshot; ingest on the live dataset"
            )
        ping_list = list(pings)
        validate_measurements(ping_list, router_pings)
        if self._cow_pending:
            # A snapshot shares the current containers: replace them with
            # shallow copies so the snapshot keeps its view (copy-on-write).
            self.hosts = dict(self.hosts)
            self.routers = dict(self.routers)
            self.pings = dict(self.pings)
            self.traceroutes = dict(self.traceroutes)
            self.router_pings = dict(self.router_pings)
            self._cow_pending = False

        touched: set[str] = set()
        location_touched: set[str] = set()
        record_hosts: set[str] = set()
        new_hosts: set[str] = set()
        router_observers: set[str] = set()
        router_replaced = False
        for record in hosts:
            existing = self.hosts.get(record.node_id)
            if existing is None:
                new_hosts.add(record.node_id)
            if existing is None or existing.location != record.location:
                location_touched.add(record.node_id)
            if existing is None or existing != record:
                record_hosts.add(record.node_id)
            self.hosts[record.node_id] = record
            touched.add(record.node_id)
        for record in routers:
            existing = self.routers.get(record.node_id)
            if existing is not None and existing != record:
                # Router metadata (the DNS name feeding position hints) has
                # no per-host scope, so a changed record cannot be expressed
                # as a touched-host set; force full downstream invalidation.
                router_replaced = True
            self.routers[record.node_id] = record
        # Per canonical pair: combined min-RTT before the batch lands, so the
        # delta records only pairs whose *value* an estimator could observe
        # changing (a re-probe landing on the same minimum is a no-op).
        old_pair_min: dict[tuple[str, str], float | None] = {}
        for ping in ping_list:
            key = (ping.src, ping.dst) if ping.src < ping.dst else (ping.dst, ping.src)
            if key not in old_pair_min:
                old_pair_min[key] = self.min_rtt_ms(*key)
        for ping in ping_list:
            self.pings[(ping.src, ping.dst)] = ping
            touched.add(ping.src)
            touched.add(ping.dst)
        ping_pairs = {
            key
            for key, old in old_pair_min.items()
            if self.min_rtt_ms(*key) != old
        }
        for trace in traceroutes:
            self.traceroutes[(trace.src, trace.dst)] = trace
            touched.add(trace.src)
            touched.add(trace.dst)
        for (host_id, router_id), rtt in (router_pings or {}).items():
            current = self.router_pings.get((host_id, router_id))
            if current is None or rtt < current:
                self.router_pings[(host_id, router_id)] = rtt
                router_observers.add(host_id)
            touched.add(host_id)

        frozen_touched = frozenset(touched)
        self._extend_matrices(frozen_touched, frozenset(location_touched))
        self._version += 1
        if router_replaced:
            # An empty log not covering the new version makes touched_since
            # report "unknown" for every earlier version, which is the
            # conservative full invalidation this mutation requires.
            self._touched_log.clear()
            self._delta_log.clear()
        else:
            self._touched_log.append((self._version, frozen_touched))
            del self._touched_log[: -self.TOUCHED_LOG_LIMIT]
            self._delta_log.append(
                IngestDelta(
                    version=self._version,
                    touched=frozen_touched,
                    record_hosts=frozenset(record_hosts),
                    new_hosts=frozenset(new_hosts),
                    location_hosts=frozenset(location_touched),
                    ping_pairs=frozenset(ping_pairs),
                    router_observers=frozenset(router_observers),
                )
            )
            del self._delta_log[: -self.TOUCHED_LOG_LIMIT]
        return frozen_touched

    def _extend_matrices(
        self, touched: frozenset[str], location_touched: frozenset[str]
    ) -> None:
        """Extend the built pairwise matrices after an ingest.

        New matrices are allocated (snapshots may still hold the old ones);
        values between two untouched hosts are block-copied, and only
        touched hosts' rows are recomputed from the measurement store --
        yielding entries bit-identical to a from-scratch rebuild, since both
        read the same :meth:`min_rtt_ms` / haversine values.  The distance
        matrix depends only on host locations, so the common ping-only
        ingest (``location_touched`` empty) leaves it untouched entirely.
        """
        if self._rtt_view is not None:
            ids = self.host_ids
            index = {h: i for i, h in enumerate(ids)}
            matrix = np.full((len(ids), len(ids)), np.nan)
            old_index = self._rtt_index or {}
            carried = [h for h in ids if h in old_index]
            if carried:
                new_pos = [index[h] for h in carried]
                old_pos = [old_index[h] for h in carried]
                matrix[np.ix_(new_pos, new_pos)] = self._rtt_view.matrix[
                    np.ix_(old_pos, old_pos)
                ]
            n = len(ids)
            get = self.pings.get
            for host in sorted(touched):
                i = index.get(host)
                if i is None:
                    continue
                # Whole-row recompute: gather both probing directions into
                # flat arrays and combine with fmin (NaN = unmeasured, and
                # fmin(x, nan) == x), which reproduces min_rtt_ms exactly for
                # positive RTTs.  Row and column are assigned in bulk.
                fwd = np.fromiter(
                    (
                        r.min_rtt_ms if (r := get((host, other))) is not None else np.nan
                        for other in ids
                    ),
                    dtype=np.float64,
                    count=n,
                )
                bwd = np.fromiter(
                    (
                        r.min_rtt_ms if (r := get((other, host))) is not None else np.nan
                        for other in ids
                    ),
                    dtype=np.float64,
                    count=n,
                )
                row = np.fmin(fwd, bwd)
                row[i] = np.nan
                matrix[i, :] = row
                matrix[:, i] = row
            self._rtt_index = index
            self._rtt_view = PairMatrixView(ids, index, matrix)
            self._rtt_degree = None

        if self._distance_view is not None and location_touched:
            located = [
                (h, record.location)
                for h, record in sorted(self.hosts.items())
                if record.location is not None
            ]
            ids = [h for h, _ in located]
            index = {h: i for i, h in enumerate(ids)}
            matrix = np.full((len(ids), len(ids)), np.nan)
            old_index = self._distance_index or {}
            carried = [h for h in ids if h in old_index]
            if carried:
                new_pos = [index[h] for h in carried]
                old_pos = [old_index[h] for h in carried]
                matrix[np.ix_(new_pos, new_pos)] = self._distance_view.matrix[
                    np.ix_(old_pos, old_pos)
                ]
            locations = dict(located)
            for host in sorted(location_touched):
                i = index.get(host)
                if i is None:
                    continue
                loc = locations[host]
                for j, other in enumerate(ids):
                    if other == host:
                        matrix[i, j] = np.nan
                        continue
                    d = loc.distance_km(locations[other])
                    matrix[i, j] = matrix[j, i] = d
            self._distance_index = index
            self._distance_view = PairMatrixView(ids, index, matrix)

    # ------------------------------------------------------------------ #
    # Views for leave-one-out evaluation
    # ------------------------------------------------------------------ #
    def landmark_ids_excluding(self, target_id: str) -> list[str]:
        """All hosts except the target -- the landmark set the paper uses."""
        return [h for h in self.host_ids if h != target_id]

    def restrict_landmarks(self, landmark_ids: Sequence[str]) -> "MeasurementDataset":
        """A dataset view containing only the given hosts as landmarks.

        Targets can still be probed (their ping rows/columns are retained for
        pairs that involve a kept landmark), which is what a deployment with a
        reduced landmark population would observe.
        """
        keep = set(landmark_ids)
        hosts = {h: r for h, r in self.hosts.items() if h in keep or True}
        pings = {
            (s, d): p
            for (s, d), p in self.pings.items()
            if s in keep or d in keep
        }
        traceroutes = {
            (s, d): t
            for (s, d), t in self.traceroutes.items()
            if s in keep or d in keep
        }
        router_pings = {
            (h, r): v for (h, r), v in self.router_pings.items() if h in keep
        }
        return MeasurementDataset(
            hosts=hosts,
            routers=dict(self.routers),
            pings=pings,
            traceroutes=traceroutes,
            router_pings=router_pings,
            whois=self.whois,
        )


def collect_dataset(
    deployment: Deployment,
    host_ids: Iterable[str] | None = None,
    probe_count: int | None = None,
    collect_traceroutes: bool = True,
) -> MeasurementDataset:
    """Run the full measurement collection against a deployment.

    Mirrors the paper's methodology: all-pairs pings with time-dispersed
    probes, all-pairs traceroutes, and latency measurements to intermediate
    routers (derived from traceroute hop timings).
    """
    ids = sorted(host_ids) if host_ids is not None else sorted(deployment.host_ids)
    prober = deployment.prober
    topology = deployment.topology
    dataset = MeasurementDataset(whois=deployment.whois)

    for host_id in ids:
        node = topology.node(host_id)
        dataset.hosts[host_id] = NodeRecord(
            node_id=host_id,
            ip_address=node.ip_address,
            dns_name=node.dns_name,
            location=node.location,
            is_host=True,
        )

    count = probe_count or deployment.config.probe_count
    for src in ids:
        for dst in ids:
            if src == dst:
                continue
            dataset.pings[(src, dst)] = prober.ping(src, dst, count)

    if not collect_traceroutes:
        return dataset

    for src in ids:
        for dst in ids:
            if src == dst:
                continue
            trace = prober.traceroute(src, dst)
            dataset.traceroutes[(src, dst)] = trace
            for hop in trace.hops:
                if hop.node_id == dst:
                    continue
                router = topology.node(hop.node_id)
                if hop.node_id not in dataset.routers:
                    dataset.routers[hop.node_id] = NodeRecord(
                        node_id=hop.node_id,
                        ip_address=router.ip_address,
                        dns_name=router.dns_name,
                        location=router.location,
                        is_host=False,
                    )
                key = (src, hop.node_id)
                current = dataset.router_pings.get(key)
                if current is None or hop.min_rtt_ms < current:
                    dataset.router_pings[key] = hop.min_rtt_ms
    return dataset
