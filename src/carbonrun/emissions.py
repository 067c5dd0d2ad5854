"""Convert measured energy into CO2 mass and relatable equivalents."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

from .griddata import (
    DatasetSnapshot,
    FuelIntensities,
    RegionGroup,
    RegionRecord,
    effective_intensity_kg_per_kwh,
    read_data,
)

EQUIV_DATA_FILE = "equivalencies.csv"
EQUIV_KEYS = ("kg_per_mile", "kg_per_tv_minute", "kg_per_household_day")


class EquivalencyError(Exception):
    """The equivalency factor table is missing keys or has bad values."""


@dataclass(frozen=True)
class EquivalencyFactors:
    kg_per_mile: float
    kg_per_tv_minute: float
    kg_per_household_day: float

    def __post_init__(self):
        for key in EQUIV_KEYS:
            value = getattr(self, key)
            if not math.isfinite(value) or value <= 0:
                raise EquivalencyError(f"{key}={value} must be a positive number")

    @classmethod
    def from_csv(cls, text: str) -> "EquivalencyFactors":
        """Load factors from a `key,value,unit,source` table."""
        values = {}
        reader = csv.DictReader(io.StringIO(text))
        expected = {"key", "value", "unit", "source"}
        if reader.fieldnames is None or not expected.issubset(reader.fieldnames):
            raise EquivalencyError(
                f"equivalency table needs columns {sorted(expected)}"
            )
        for row in reader:
            key = (row["key"] or "").strip()
            if key not in EQUIV_KEYS:
                continue
            try:
                values[key] = float(row["value"])
            except (TypeError, ValueError):
                raise EquivalencyError(
                    f"equivalency {key}: bad value {row['value']!r}"
                ) from None
        missing = [k for k in EQUIV_KEYS if k not in values]
        if missing:
            raise EquivalencyError(f"equivalency table missing {missing}")
        return cls(**values)


def load_equivalency_factors(path: str | None = None) -> EquivalencyFactors:
    return EquivalencyFactors.from_csv(read_data(path, EQUIV_DATA_FILE))


@dataclass(frozen=True)
class EmissionsResult:
    kwh: float
    region: RegionRecord
    intensity_kg_per_kwh: float
    kg_co2: float


@dataclass(frozen=True)
class Equivalents:
    miles_driven: float
    tv_minutes: float
    household_day_percent: float


@dataclass(frozen=True)
class ComparisonSet:
    """Same energy priced at a group's lowest/median/highest regions."""

    group: RegionGroup
    entries: tuple[tuple[RegionRecord, float], ...]  # low, median, high


def emissions_for(
    kwh: float,
    region: RegionRecord,
    intensities: FuelIntensities | None = None,
) -> EmissionsResult:
    """CO2 mass for an energy draw charged at a region's intensity."""
    if kwh < 0:
        raise ValueError(f"negative energy: {kwh} kWh")
    intensity = effective_intensity_kg_per_kwh(region, intensities)
    return EmissionsResult(
        kwh=kwh,
        region=region,
        intensity_kg_per_kwh=intensity,
        kg_co2=kwh * intensity,
    )


def equivalents_for(kg_co2: float, factors: EquivalencyFactors) -> Equivalents:
    if kg_co2 < 0:
        raise ValueError(f"negative emissions: {kg_co2} kg")
    return Equivalents(
        miles_driven=kg_co2 / factors.kg_per_mile,
        tv_minutes=kg_co2 / factors.kg_per_tv_minute,
        household_day_percent=100.0 * kg_co2 / factors.kg_per_household_day,
    )


def comparison_sets(
    kwh: float,
    snapshot: DatasetSnapshot,
    region: RegionRecord | None = None,
) -> list[ComparisonSet]:
    """Rank the measured energy against every group's extremes.

    One set per group (US, Europe, global), each holding the lowest, median
    and highest intensity member with the CO2 the same kWh would cost there.
    The sets do not depend on the resolved `region`; it is accepted only so
    that callers passing it positionally keep working.
    """
    sets = []
    for group in (RegionGroup.US, RegionGroup.EUROPE, RegionGroup.GLOBAL):
        entries = tuple(
            (rec, emissions_for(kwh, rec, snapshot.intensities).kg_co2)
            for rec in snapshot.extremes(group)
        )
        sets.append(ComparisonSet(group=group, entries=entries))
    return sets
