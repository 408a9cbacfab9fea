"""Measurement primitives: ping and traceroute over the synthetic substrate.

The paper's data collection is "10 time-dispersed round-trip measurements
using ICMP ping probes" between every pair of 51 PlanetLab nodes, plus full
traceroutes between every landmark pair and latency measurements between the
landmarks and intermediate routers.  These two classes produce exactly that
shape of data from the :class:`~repro.network.latency.LatencyModel`.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Sequence

from .latency import LatencyModel
from .topology import NetworkTopology

__all__ = ["PingResult", "TracerouteHop", "TracerouteResult", "Prober"]

#: Number of time-dispersed probes per measurement, as in the paper.
DEFAULT_PROBE_COUNT = 10


@dataclass(frozen=True)
class PingResult:
    """The outcome of probing one (source, destination) pair."""

    src: str
    dst: str
    rtts_ms: tuple[float, ...]

    @property
    def min_rtt_ms(self) -> float:
        """Minimum RTT over all probes -- the value Octant's constraints use."""
        return min(self.rtts_ms)

    @property
    def median_rtt_ms(self) -> float:
        """Median RTT over all probes."""
        return statistics.median(self.rtts_ms)

    @property
    def mean_rtt_ms(self) -> float:
        """Mean RTT over all probes."""
        return statistics.fmean(self.rtts_ms)

    @property
    def probe_count(self) -> int:
        """Number of probes taken."""
        return len(self.rtts_ms)


@dataclass(frozen=True)
class TracerouteHop:
    """One hop of a traceroute: the responding router and its probe RTTs."""

    hop_number: int
    node_id: str
    ip_address: str
    dns_name: str
    rtts_ms: tuple[float, ...]

    @property
    def min_rtt_ms(self) -> float:
        """Minimum RTT to this hop."""
        return min(self.rtts_ms)


@dataclass(frozen=True)
class TracerouteResult:
    """A full traceroute from a source host to a destination host."""

    src: str
    dst: str
    hops: tuple[TracerouteHop, ...] = field(default_factory=tuple)

    @property
    def hop_count(self) -> int:
        """Number of responding hops (the destination included)."""
        return len(self.hops)

    def router_hops(self) -> list[TracerouteHop]:
        """Hops that are intermediate routers (excludes the destination)."""
        return [h for h in self.hops if h.node_id != self.dst]

    def last_hop(self) -> TracerouteHop | None:
        """The final hop (normally the destination), or ``None`` if empty."""
        return self.hops[-1] if self.hops else None


class Prober:
    """Issues pings and traceroutes against the simulated network.

    A real deployment would run these measurements concurrently from each
    landmark; the simulator simply evaluates the latency model, so a full
    all-pairs collection over 50 hosts completes in well under a second.
    """

    def __init__(
        self,
        topology: NetworkTopology,
        latency_model: LatencyModel,
        probe_count: int = DEFAULT_PROBE_COUNT,
    ):
        if probe_count < 1:
            raise ValueError(f"probe_count must be >= 1, got {probe_count!r}")
        self.topology = topology
        self.latency = latency_model
        self.probe_count = probe_count

    # ------------------------------------------------------------------ #
    # Ping
    # ------------------------------------------------------------------ #
    def ping(self, src: str, dst: str, probe_count: int | None = None) -> PingResult:
        """Probe ``dst`` from ``src`` with time-dispersed ICMP-like probes."""
        if src == dst:
            raise ValueError("source and destination must differ")
        count = probe_count or self.probe_count
        rtts = tuple(self.latency.probe_rtts_ms(src, dst, count))
        return PingResult(src, dst, rtts)

    def ping_matrix(
        self, node_ids: Sequence[str], probe_count: int | None = None
    ) -> dict[tuple[str, str], PingResult]:
        """All-pairs ping results over ``node_ids`` (both directions)."""
        results: dict[tuple[str, str], PingResult] = {}
        for src in node_ids:
            for dst in node_ids:
                if src == dst:
                    continue
                results[(src, dst)] = self.ping(src, dst, probe_count)
        return results

    # ------------------------------------------------------------------ #
    # Traceroute
    # ------------------------------------------------------------------ #
    def traceroute(self, src: str, dst: str, probe_count: int = 3) -> TracerouteResult:
        """Trace the routed path from ``src`` to ``dst``.

        Every node on the path answers (the simulator has no silent hops);
        each hop reports ``probe_count`` RTT samples, as real traceroute does.
        """
        if src == dst:
            raise ValueError("source and destination must differ")
        path = self.topology.route(src, dst)
        hops: list[TracerouteHop] = []
        for hop_index in range(1, len(path)):
            node = self.topology.node(path[hop_index])
            rtts = tuple(
                self.latency.partial_path_rtt_ms(src, dst, hop_index, probe_index=i)
                for i in range(probe_count)
            )
            hops.append(
                TracerouteHop(
                    hop_number=hop_index,
                    node_id=node.node_id,
                    ip_address=node.ip_address,
                    dns_name=node.dns_name,
                    rtts_ms=rtts,
                )
            )
        return TracerouteResult(src, dst, tuple(hops))

