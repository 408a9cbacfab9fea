"""Geographic and demographic constraints -- Section 2.5 of the paper.

Octant integrates any geographic knowledge into the same constraint system
used for latency measurements:

* **negative** constraints for oceans and large uninhabited areas (Internet
  hosts are not in the middle of the North Atlantic), and
* **positive** constraints from registration databases: the WHOIS record for
  the target's address block names a city/zipcode, which -- with low weight
  and a generous radius, because registrations are often at headquarters --
  narrows the estimate.

The negative regions are certain, so they carry no weight: the pipeline
subtracts them from the selected pieces as a hard land mask
(:func:`~repro.geometry.kernel.select_region`).  Because Octant regions may
be non-convex and disconnected, the masked region stays an exact Octant
region, and a selection that lies wholly at sea falls back to the next
weight class instead of vanishing.  The WHOIS hint is an ordinary weighted
constraint of the solve.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..geometry import CircleCache
from ..network.dataset import MeasurementDataset
from ..network.geodata import OCEAN_REGIONS, UNINHABITED_REGIONS, GeoRegion
from .config import OctantConfig
from .constraints import Constraint, DiskConstraint, GeoRegionConstraint, Polarity

__all__ = [
    "ocean_constraints",
    "uninhabited_constraints",
    "geographic_constraints",
    "whois_constraint",
]

def _region_constraints(
    regions: Iterable[GeoRegion],
    label_prefix: str,
    cache: "CircleCache | None" = None,
) -> list[Constraint]:
    return [
        GeoRegionConstraint(
            ring=region.ring,
            polarity=Polarity.NEGATIVE,
            weight=0.0,
            label=f"{label_prefix}:{region.name}",
            geometry_cache=cache,
        )
        for region in regions
    ]


def ocean_constraints(
    regions: Sequence[GeoRegion] | None = None,
    cache: "CircleCache | None" = None,
) -> list[Constraint]:
    """Weightless negative constraints excluding open-ocean regions."""
    if regions is None:
        regions = OCEAN_REGIONS
    return _region_constraints(regions, "ocean", cache)


def uninhabited_constraints(
    regions: Sequence[GeoRegion] | None = None,
    cache: "CircleCache | None" = None,
) -> list[Constraint]:
    """Weightless negative constraints excluding large uninhabited land areas."""
    if regions is None:
        regions = UNINHABITED_REGIONS
    return _region_constraints(regions, "uninhabited", cache)


def geographic_constraints(
    config: OctantConfig, cache: "CircleCache | None" = None
) -> list[Constraint]:
    """All geographic negative constraints enabled by ``config``: the land mask.

    ``cache`` lets the constraints memoize their projected rings in the
    shared planar geometry cache (the rings are fixed data, so every
    localization under the same projection re-uses one projection pass).
    """
    if not config.use_geographic_constraints:
        return []
    return ocean_constraints(cache=cache) + uninhabited_constraints(cache=cache)


def whois_constraint(
    dataset: MeasurementDataset,
    target_id: str,
    config: OctantConfig,
    cache: "CircleCache | None" = None,
) -> Constraint | None:
    """A weak positive constraint around the WHOIS-registered city, if enabled.

    The constraint radius is generous and the weight low: registrations are
    frequently made at an organization's headquarters rather than where the
    host actually sits, so this hint should be able to lose against latency
    evidence (Section 2.4's weighting handles exactly that).
    """
    if not config.use_whois:
        return None
    record = dataset.whois_lookup(target_id)
    if record is None:
        return None
    return DiskConstraint(
        center=record.location,
        radius_km=config.whois_radius_km,
        polarity=Polarity.POSITIVE,
        weight=config.whois_weight,
        label=f"whois:{record.prefix}",
        circle_segments=config.solver.circle_segments,
        geometry_cache=cache,
    )
