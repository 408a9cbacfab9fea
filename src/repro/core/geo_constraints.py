"""Geographic and demographic constraints -- Section 2.5 of the paper.

Octant integrates any geographic knowledge into the same constraint system
used for latency measurements:

* **negative** constraints for oceans and large uninhabited areas (Internet
  hosts are not in the middle of the North Atlantic), and
* **positive** constraints from registration databases: the WHOIS record for
  the target's address block names a city/zipcode, which -- with low weight
  and a generous radius, because registrations are often at headquarters --
  narrows the estimate.

Because Octant regions may be non-convex and disconnected, these constraints
participate directly in the solve instead of needing the ad-hoc
post-processing step the paper criticizes in prior work.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..geometry import CircleCache
from ..network.dataset import MeasurementDataset
from ..network.geodata import (
    DETAILED_OCEAN_REGIONS,
    DETAILED_UNINHABITED_REGIONS,
    GeoRegion,
    OCEAN_REGIONS,
    UNINHABITED_REGIONS,
)
from .config import OctantConfig
from .constraints import Constraint, DiskConstraint, GeoRegionConstraint, Polarity

__all__ = [
    "ocean_constraints",
    "uninhabited_constraints",
    "geographic_constraints",
    "whois_constraint",
]

#: Weight given to the ocean / uninhabited negative constraints.  These are
#: essentially certain, so they carry a high weight; they are still subject to
#: the solver's conflict handling like everything else.
GEOGRAPHIC_CONSTRAINT_WEIGHT = 5.0


def _region_constraints(
    regions: Iterable[GeoRegion],
    weight: float,
    label_prefix: str,
    cache: "CircleCache | None" = None,
) -> list[Constraint]:
    return [
        GeoRegionConstraint(
            ring=region.ring,
            polarity=Polarity.NEGATIVE,
            weight=weight,
            label=f"{label_prefix}:{region.name}",
            geometry_cache=cache,
        )
        for region in regions
    ]


def _catalogue(detail: str) -> tuple[Sequence[GeoRegion], Sequence[GeoRegion]]:
    """The (ocean, uninhabited) region catalogue for a fidelity level."""
    if detail == "detailed":
        return DETAILED_OCEAN_REGIONS, DETAILED_UNINHABITED_REGIONS
    if detail != "coarse":
        raise ValueError(
            f"unknown geographic_detail {detail!r}; expected 'coarse' or 'detailed'"
        )
    return OCEAN_REGIONS, UNINHABITED_REGIONS


def ocean_constraints(
    regions: Sequence[GeoRegion] | None = None,
    weight: float = GEOGRAPHIC_CONSTRAINT_WEIGHT,
    cache: "CircleCache | None" = None,
    detail: str = "coarse",
) -> list[Constraint]:
    """Negative constraints excluding open-ocean regions.

    ``detail`` picks the catalogue when ``regions`` is not given:
    ``"coarse"`` (convex rings) or ``"detailed"`` (non-convex coastline
    rings, served by the solver's Greiner-Hormann exclusion path).
    """
    if regions is None:
        regions = _catalogue(detail)[0]
    return _region_constraints(regions, weight, "ocean", cache)


def uninhabited_constraints(
    regions: Sequence[GeoRegion] | None = None,
    weight: float = GEOGRAPHIC_CONSTRAINT_WEIGHT,
    cache: "CircleCache | None" = None,
    detail: str = "coarse",
) -> list[Constraint]:
    """Negative constraints excluding large uninhabited land areas."""
    if regions is None:
        regions = _catalogue(detail)[1]
    return _region_constraints(regions, weight, "uninhabited", cache)


def geographic_constraints(
    config: OctantConfig, cache: "CircleCache | None" = None
) -> list[Constraint]:
    """All geographic negative constraints enabled by ``config``.

    ``cache`` lets the constraints memoize their projected rings in the
    shared planar geometry cache (the rings are fixed data, so every
    localization under the same projection re-uses one projection pass).
    ``config.geographic_detail`` selects the coarse (convex) or detailed
    (non-convex coastline) region catalogue.
    """
    if not config.use_geographic_constraints:
        return []
    detail = getattr(config, "geographic_detail", "coarse")
    return ocean_constraints(cache=cache, detail=detail) + uninhabited_constraints(
        cache=cache, detail=detail
    )


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
