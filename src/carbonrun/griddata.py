"""Regional electricity data: fuel mixes, emission rates, region lookup.

Two embedded UTF-8 CSV snapshots (2016 vintage), either of which a user's
file may replace, drive everything:

* `us_grid_2016.csv`: per-state fuel mix, the direct output emission rate in
  lbs CO2 per MWh, and per-fuel generation and emissions.  Each state keeps
  only its fossil generation's sum, which weights the US average; the
  emissions columns are checked but price nothing.
* `intl_grid_2016.csv`: per-country fuel mix only.  Countries carry no
  direct rate; their intensity is the mix weighted by canonical per-fuel
  intensities.

Their row reader, `read_rows`, reads the equivalency table too (`emissions`),
so a user's file of any of the three kinds is held to one rule.

Three synthetic aggregate regions are built at load time: us-average
(generation weighted), europe-average (unweighted mean mix) and
world-average (pinned global mix and rate).  Each region group is ranked
once, at load; a group left with no member, or a US snapshot with no fossil
generation to weight its average by, or so much that the weighted sums are
not finite, is a `SchemaError` there.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
from collections.abc import Container, Iterator
from enum import Enum
from typing import NamedTuple

from .records import Checked

KG_PER_LB = 0.453592

US_DATA_FILE = "us_grid_2016.csv"
INTL_DATA_FILE = "intl_grid_2016.csv"

# each in the order of FUELS, or of FOSSIL_FUELS for the per-fuel columns
MIX_COLUMNS = ("coal_frac", "oil_frac", "gas_frac", "lowcarbon_frac")
GENERATION_COLUMNS = ("coal_gen_mwh", "oil_gen_mwh", "gas_gen_mwh")
EMISSIONS_COLUMNS = ("coal_emit_kt", "oil_emit_kt", "gas_emit_kt")

EGRID_HEADER = [
    "state_id",
    "state_name",
    *MIX_COLUMNS,
    "output_rate_lbs_per_mwh",
    *GENERATION_COLUMNS,
    *EMISSIONS_COLUMNS,
]

EIA_HEADER = ["country_id", "country_name", "is_europe", *MIX_COLUMNS]

# Aggregate entities and sub-national trade zones that would double-count
# or misrepresent present-day countries if kept.
EIA_EXCLUDED_NAMES = {
    "former czechoslovakia",
    "former serbia and montenegro",
    "former u.s.s.r.",
    "former yugoslavia",
    "hawaiian trade zone",
    "germany, east",
    "germany, west",
    "east germany",
    "west germany",
}

# Reported shares can come out at -1e-12 from upstream rounding; anything
# more negative than this is a real data error, not noise.
NEGLIGIBLE_NEGATIVE = -1e-6

FOSSIL_FUELS = ("coal", "oil", "natural_gas")
# sums over fuels run in this order; another order changes their last bits
FUELS = FOSSIL_FUELS + ("low_carbon",)

WORLD_MIX = (0.287, 0.229, 0.339, 0.144)
WORLD_RATE_LBS_PER_MWH = 1600.6


class SchemaError(Exception):
    """A data file is not UTF-8 text, or does not match the expected layout
    or value ranges."""


class UnknownRegion(Exception):
    def __init__(self, key: str, suggestions: list[str]):
        msg = f"unknown region {key!r}"
        if suggestions:
            msg += "; did you mean: " + ", ".join(suggestions)
        super().__init__(msg)


class RegionGroup(Enum):
    US = "us"
    EUROPE = "europe"
    GLOBAL = "global"  # countries outside the US and Europe


class _PerFuel(NamedTuple):
    """A value for each of FUELS, in its order."""

    coal: float
    oil: float
    natural_gas: float
    low_carbon: float


class EnergyMix(Checked, _PerFuel):
    """Generation shares by fuel; fractions of total, summing to ~1."""

    __slots__ = ()

    def _check(self):
        for name, value in zip(FUELS, self):
            if not math.isfinite(value) or not 0.0 <= value <= 1.0:
                raise ValueError(f"mix fraction {name}={value} outside [0, 1]")
        total = sum(self)
        if not 0.99 <= total <= 1.01:
            raise ValueError(f"mix fractions sum to {total}, expected ~1")

    def weighted_kg_per_mwh(self, intensities: FuelIntensities) -> float:
        # a loop, not sum(): from Python 3.12 sum() compensates float rounding
        total = 0.0
        for share, intensity in zip(self, intensities):
            total += share * intensity
        return total


class FuelIntensities(Checked, _PerFuel):
    """Per-fuel emission intensities in kg CO2 per MWh generated."""

    __slots__ = ()

    def _check(self):
        for name, value in zip(FUELS, self):
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"intensity {name}={value} must be >= 0")


# Global mean intensities by fuel, kg CO2 per MWh.  Used wherever a region
# reports only its mix (all non-US regions and the mix-based cross check).
CANONICAL_INTENSITIES = FuelIntensities(
    coal=996.0, oil=817.0, natural_gas=744.0, low_carbon=0.0
)


class RegionRecord(NamedTuple):
    id: str
    display_name: str
    mix: EnergyMix
    direct_rate_lbs_per_mwh: float | None = None
    group: RegionGroup | None = None  # None for the aggregates

    @property
    def kg_co2_per_kwh(self) -> float:
        """Emission intensity in kg CO2 per kWh.

        US states and the pinned aggregates carry a measured direct rate in
        lbs/MWh, which is authoritative when present.  Mix-only regions weight
        the canonical per-fuel intensities by their mix.
        """
        if self.direct_rate_lbs_per_mwh is not None:
            return self.direct_rate_lbs_per_mwh * KG_PER_LB / 1000.0
        return self.mix.weighted_kg_per_mwh(CANONICAL_INTENSITIES) / 1000.0


# the lowest, median and highest emission-intensity members of a group
Extremes = tuple[RegionRecord, RegionRecord, RegionRecord]


def parse_number(fields: dict[str, str], column: str, lineno: int) -> float:
    """The finite float in a row's `column`; else a SchemaError naming its line."""
    raw = fields[column]
    try:
        value = float(raw)
    except ValueError:
        raise SchemaError(f"line {lineno}: {column}={raw!r} is not a number") from None
    if not math.isfinite(value):
        raise SchemaError(f"line {lineno}: {column}={raw!r} is not finite")
    return value


def _parse_nonnegative(fields: dict[str, str], column: str, lineno: int) -> float:
    value = parse_number(fields, column, lineno)
    if value < 0:
        raise SchemaError(f"line {lineno}: negative {column} {value}")
    return value


def _parse_mix(fields: dict[str, str], lineno: int, clamp: bool = False) -> EnergyMix:
    """The row's mix; `clamp` zeroes negligibly negative shares first."""
    fracs = [parse_number(fields, column, lineno) for column in MIX_COLUMNS]
    if clamp:
        fracs = [0.0 if NEGLIGIBLE_NEGATIVE < value < 0.0 else value for value in fracs]
    try:
        return EnergyMix(*fracs)
    except ValueError as exc:
        raise SchemaError(f"line {lineno}: {exc}") from None


def read_rows(
    text: str, header: list[str], kind: str, excluded: Container[str] = ()
) -> Iterator[tuple[int, str, dict[str, str]]]:
    """Yield (line number, key, fields by column) for each row of a data
    table, a grid snapshot or the equivalency table, by one rule: the first
    line is exactly `header`, blank lines are skipped, each other row has one
    field per column, and its first two fields (the key, lower-cased, and a
    name or value) are not empty.  No key repeats, but rows whose second
    field, lower-cased, is in `excluded` are dropped first.  Errors name a column without
    its `kind` prefix ("state id").  A `csv.Error`, such as a field over
    `csv.field_size_limit()`, is a SchemaError naming its line."""
    key_noun, name_noun = (column.removeprefix(kind + "_") for column in header[:2])
    rows = csv.reader(io.StringIO(text))
    try:
        actual = next(rows, None)
        if actual is None or [c.strip() for c in actual] != header:
            raise SchemaError(
                f"bad header: expected {','.join(header)}, got "
                f"{','.join(actual) if actual else '<empty file>'}"
            )
        seen: set[str] = set()
        for lineno, row in enumerate(rows, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise SchemaError(
                    f"line {lineno}: expected {len(header)} fields, got {len(row)}"
                )
            key, name = row[0].strip().lower(), row[1].strip()
            if name.lower() in excluded:
                continue
            if not key or not name:
                raise SchemaError(f"line {lineno}: empty {kind} {key_noun} or {name_noun}")
            if key in seen:
                raise SchemaError(f"line {lineno}: duplicate {kind} {key_noun} {key!r}")
            seen.add(key)
            yield lineno, key, dict(zip(header, row))
    except csv.Error as exc:
        raise SchemaError(f"line {rows.line_num}: {exc}") from None


def parse_egrid(text: str) -> list[tuple[RegionRecord, float]]:
    """Parse the US state snapshot CSV into (record, fossil generation in
    MWh) pairs.  Every generation and emissions column is checked; only the
    generation's sum, which weights the US average, is kept."""
    out = []
    for lineno, state_id, fields in read_rows(text, EGRID_HEADER, "state"):
        mix = _parse_mix(fields, lineno)
        rate = _parse_nonnegative(fields, "output_rate_lbs_per_mwh", lineno)
        generation = 0.0  # a loop, not sum(), as in `weighted_kg_per_mwh`
        for column in GENERATION_COLUMNS:
            generation += _parse_nonnegative(fields, column, lineno)
        for column in EMISSIONS_COLUMNS:
            _parse_nonnegative(fields, column, lineno)
        name = fields["state_name"].strip()
        out.append((RegionRecord(state_id, name, mix, rate, RegionGroup.US), generation))
    return out


def parse_eia(text: str) -> list[RegionRecord]:
    """Parse the international snapshot CSV into country records.

    Defunct aggregate entities (e.g. dissolved unions) and sub-national
    trade zones are dropped; negligibly negative shares from upstream
    rounding are clamped to zero.
    """
    out = []
    rows = read_rows(text, EIA_HEADER, "country", EIA_EXCLUDED_NAMES)
    for lineno, country_id, fields in rows:
        is_europe_raw = fields["is_europe"].strip().lower()
        if is_europe_raw in ("true", "1", "yes"):
            is_europe = True
        elif is_europe_raw in ("false", "0", "no"):
            is_europe = False
        else:
            raise SchemaError(f"line {lineno}: is_europe={fields['is_europe']!r}")
        group = RegionGroup.EUROPE if is_europe else RegionGroup.GLOBAL
        name = fields["country_name"].strip()
        out.append(RegionRecord(country_id, name, _parse_mix(fields, lineno, clamp=True),
                                None, group))
    return out


class DatasetSnapshot:
    """Every region by id, with the name index and each group's extremes."""

    def __init__(self, regions: dict[str, RegionRecord], index: dict[str, str],
                 extremes: dict[RegionGroup, Extremes]):
        self.regions, self._index, self._extremes = regions, index, extremes

    @classmethod
    def load(
        cls,
        us_path: str | None = None,
        intl_path: str | None = None,
    ) -> "DatasetSnapshot":
        """Build the lookup snapshot from packaged (or user-supplied) CSVs.

        Raises SchemaError when a file is malformed, a region group is
        left with no member, or no US state reports fossil generation.
        """
        states = parse_egrid(read_data(us_path, US_DATA_FILE))
        countries = parse_eia(read_data(intl_path, INTL_DATA_FILE))

        regions: dict[str, RegionRecord] = {}
        for rec in [record for record, _ in states] + countries:
            if rec.id in regions:
                raise SchemaError(f"region id {rec.id!r} appears in both snapshots")
            regions[rec.id] = rec

        extremes = {}
        for group in RegionGroup:
            ranked = sorted(
                (r for r in regions.values() if r.group is group),
                key=lambda r: (r.kg_co2_per_kwh, r.id),
            )
            if not ranked:
                raise SchemaError(f"no regions in group {group.value!r}")
            extremes[group] = ranked[0], ranked[(len(ranked) - 1) // 2], ranked[-1]

        for agg in _build_aggregates(states, countries):
            regions[agg.id] = agg

        index: dict[str, str] = {}
        for rec in regions.values():
            for key in (rec.id, rec.display_name):
                norm = _normalize(key)
                # first registration wins: US states shadow same-named
                # countries (e.g. Georgia), ids are unique anyway
                index.setdefault(norm, rec.id)
        return cls(regions, index, extremes)

    def lookup(self, key: str) -> RegionRecord:
        """Resolve a user-supplied region name or id, case-insensitively.

        Both ids ("us-wy", "de", "us-average") and display names ("Wyoming",
        "Germany") resolve; hyphens, underscores and runs of spaces are
        interchangeable.  Where a state and a country share a display name
        the state wins; the country remains reachable by id.  A bare US
        postal code such as "wy" does not resolve: two-letter ids are
        country codes, so "de" stays Germany and "in" stays India.
        """
        norm = _normalize(key)
        region_id = self._index.get(norm)
        if region_id is not None:
            return self.regions[region_id]
        import difflib  # only a miss needs it, before any child starts

        suggestions = difflib.get_close_matches(norm, self._index.keys(), n=3)
        display = []
        for s in suggestions:
            rec = self.regions[self._index[s]]
            label = rec.display_name if _normalize(rec.display_name) == s else rec.id
            if label not in display:
                display.append(label)
        raise UnknownRegion(key, display)

    def extremes(self, group: RegionGroup) -> Extremes:
        """Lowest, median and highest emission-intensity members of a group.

        Median is the lower middle for even-sized groups; ties order by
        region id so the result never depends on dict iteration order.
        """
        return self._extremes[group]


def read_data(path: str | None, name: str) -> str:
    """The UTF-8 text of `path`, or of the packaged `data/<name>` if it is
    None; a leading byte-order mark, which spreadsheets write, is dropped."""
    if path is None:
        path = os.path.join(os.path.dirname(__file__), "data", name)
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path} is not UTF-8 text: {exc.reason}") from None


def _build_aggregates(
    states: list[tuple[RegionRecord, float]], countries: list[RegionRecord]
) -> list[RegionRecord]:
    aggregates = [
        RegionRecord(
            id="world-average",
            display_name="World (average)",
            mix=EnergyMix(*WORLD_MIX),
            direct_rate_lbs_per_mwh=WORLD_RATE_LBS_PER_MWH,
        )
    ]

    # US average: weight each state by its total generation.  Only fossil
    # generation is in the snapshot, so totals are reconstructed from the
    # fossil share of the mix.
    weighted_rate = 0.0
    weighted_mix = [0.0] * len(FUELS)
    total_weight = 0.0
    for state, generation in states:
        mix = state.mix
        fossil_frac = mix.coal + mix.oil + mix.natural_gas
        if fossil_frac <= 0:
            continue
        weight = generation / fossil_frac
        total_weight += weight
        weighted_rate += weight * state.direct_rate_lbs_per_mwh
        weighted_mix = [total + weight * frac for total, frac in zip(weighted_mix, mix)]
    if total_weight <= 0:
        raise SchemaError("no US state reports fossil generation to weight the US average by")
    # each value is finite, but their weighted sums may not be
    if not all(map(math.isfinite, (total_weight, weighted_rate, *weighted_mix))):
        raise SchemaError("the US states' generation is too large to weight the US average by")
    aggregates.append(
        RegionRecord(
            id="us-average",
            display_name="United States (average)",
            mix=EnergyMix(*(total / total_weight for total in weighted_mix)),
            direct_rate_lbs_per_mwh=weighted_rate / total_weight,
        )
    )

    # load has checked that Europe has members
    europe = [c for c in countries if c.group is RegionGroup.EUROPE]
    summed_mix = [0.0] * len(FUELS)
    for country in europe:
        summed_mix = [total + share for total, share in zip(summed_mix, country.mix)]
    aggregates.append(
        RegionRecord(
            id="europe-average",
            display_name="Europe (average)",
            mix=EnergyMix(*(total / len(europe) for total in summed_mix)),
            direct_rate_lbs_per_mwh=None,
        )
    )
    return aggregates


def _normalize(key: str) -> str:
    return re.sub(r"[\s_-]+", " ", key.strip().casefold())
