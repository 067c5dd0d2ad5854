"""Price measured energy: CO2 equivalents and the regional comparison panels.

A region's intensity is `RegionRecord.kg_co2_per_kwh`; CO2 mass is energy
times that intensity, here and in the report's headline alike.  The
equivalency table is read by the grid snapshots' own rule
(`griddata.read_rows`), and a bad one is a `griddata.SchemaError` too.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .griddata import (DatasetSnapshot, RegionGroup, RegionRecord, SchemaError, parse_number,
                       read_data, read_rows)
from .records import Checked

EQUIV_DATA_FILE = "equivalencies.csv"
EQUIV_HEADER = ["key", "value", "unit", "source"]

GROUP_LABELS = {
    RegionGroup.US: "United States",
    RegionGroup.EUROPE: "Europe",
    RegionGroup.GLOBAL: "Global (excl. US and Europe)",
}

RANKS = ("lowest", "median", "highest")


class _Factors(NamedTuple):
    kg_per_mile: float
    kg_per_tv_minute: float
    kg_per_household_day: float


class EquivalencyFactors(Checked, _Factors):
    __slots__ = ()

    def _check(self):
        for key, value in zip(self._fields, self):
            if not math.isfinite(value) or value <= 0:
                raise SchemaError(f"{key}={value} must be a positive number")

    @classmethod
    def from_csv(cls, text: str) -> "EquivalencyFactors":
        """Load factors from a `key,value,unit,source` table, read as the grid
        snapshots are: the exact header, four fields a row, and each key,
        matched case-insensitively, once.  Keys that name no factor are
        skipped; a missing factor or a bad value is a SchemaError."""
        values = {}
        for lineno, key, fields in read_rows(text, EQUIV_HEADER, "equivalency"):
            if key in cls._fields:
                values[key] = parse_number(fields, "value", lineno)
        missing = [k for k in cls._fields if k not in values]
        if missing:
            raise SchemaError(f"equivalency table missing {missing}")
        return cls(**values)


def load_equivalency_factors(path: str | None = None) -> EquivalencyFactors:
    return EquivalencyFactors.from_csv(read_data(path, EQUIV_DATA_FILE))


class Equivalents(NamedTuple):
    miles_driven: float
    tv_minutes: float
    household_day_percent: float


class ComparisonRow(NamedTuple):
    rank: str
    region_id: str
    region_name: str
    kg_co2: float


class ComparisonPanel(NamedTuple):
    """Same energy priced at a group's lowest/median/highest regions."""

    group: str
    label: str
    rows: tuple[ComparisonRow, ...]


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
) -> tuple[ComparisonPanel, ...]:
    """Rank the measured energy against every group's extremes.

    One panel per group (US, Europe, global), each holding the lowest, median
    and highest intensity member with the CO2 the same kWh would cost there.
    The panels do not depend on the resolved `region`; it is accepted only so
    that callers passing it positionally keep working.
    """
    return tuple(
        ComparisonPanel(
            group=group.value,
            label=GROUP_LABELS[group],
            rows=tuple(
                ComparisonRow(
                    rank=rank,
                    region_id=rec.id,
                    region_name=rec.display_name,
                    kg_co2=kwh * rec.kg_co2_per_kwh,
                )
                for rank, rec in zip(RANKS, snapshot.extremes(group))
            ),
        )
        for group in RegionGroup
    )
