"""Regional electricity data: fuel mixes, emission rates, region lookup.

Two embedded snapshots (2016 vintage) drive everything:

* `us_grid_2016.csv`: per-state fuel mix, the direct output emission rate in
  lbs CO2 per MWh, and per-fuel generation/emissions used to derive
  state-level fuel intensities.
* `intl_grid_2016.csv`: per-country fuel mix only.  Countries carry no
  direct rate; their intensity is the mix weighted by canonical per-fuel
  intensities.

Three synthetic aggregate regions are built at load time: us-average
(generation weighted), europe-average (unweighted mean mix) and
world-average (pinned global mix and rate).
"""

from __future__ import annotations

import csv
import difflib
import io
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources

KG_PER_LB = 0.453592

US_DATA_FILE = "us_grid_2016.csv"
INTL_DATA_FILE = "intl_grid_2016.csv"

EGRID_HEADER = [
    "state_id",
    "state_name",
    "coal_frac",
    "oil_frac",
    "gas_frac",
    "lowcarbon_frac",
    "output_rate_lbs_per_mwh",
    "coal_gen_mwh",
    "oil_gen_mwh",
    "gas_gen_mwh",
    "coal_emit_kt",
    "oil_emit_kt",
    "gas_emit_kt",
]

EIA_HEADER = [
    "country_id",
    "country_name",
    "is_europe",
    "coal_frac",
    "oil_frac",
    "gas_frac",
    "lowcarbon_frac",
]

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

WORLD_MIX = (0.287, 0.229, 0.339, 0.144)
WORLD_RATE_LBS_PER_MWH = 1600.6


class SchemaError(Exception):
    """A snapshot CSV does not match the expected layout or value ranges."""


class UnknownRegion(Exception):
    def __init__(self, key: str, suggestions: list[str]):
        msg = f"unknown region {key!r}"
        if suggestions:
            msg += "; did you mean: " + ", ".join(suggestions)
        super().__init__(msg)
        self.key = key
        self.suggestions = suggestions


class EmptyGroup(Exception):
    """A region group has no members to rank."""


class ZeroGeneration(Exception):
    """Emissions were reported for a fuel that generated nothing."""


class RegionKind(Enum):
    US_STATE = "us_state"
    COUNTRY = "country"
    AGGREGATE = "aggregate"


class RegionGroup(Enum):
    US = "us"
    EUROPE = "europe"
    GLOBAL = "global"  # countries outside the US and Europe


@dataclass(frozen=True)
class EnergyMix:
    """Generation shares by fuel; fractions of total, summing to ~1."""

    coal: float
    oil: float
    natural_gas: float
    low_carbon: float

    def __post_init__(self):
        for name, value in self.as_dict().items():
            if not math.isfinite(value) or not 0.0 <= value <= 1.0:
                raise ValueError(f"mix fraction {name}={value} outside [0, 1]")
        total = sum(self.as_dict().values())
        if not 0.99 <= total <= 1.01:
            raise ValueError(f"mix fractions sum to {total}, expected ~1")

    def as_dict(self) -> dict[str, float]:
        return {
            "coal": self.coal,
            "oil": self.oil,
            "natural_gas": self.natural_gas,
            "low_carbon": self.low_carbon,
        }

    def weighted_kg_per_mwh(self, intensities: "FuelIntensities") -> float:
        return (
            self.coal * intensities.coal
            + self.oil * intensities.oil
            + self.natural_gas * intensities.natural_gas
            + self.low_carbon * intensities.low_carbon
        )


@dataclass(frozen=True)
class FuelIntensities:
    """Per-fuel emission intensities in kg CO2 per MWh generated."""

    coal: float
    oil: float
    natural_gas: float
    low_carbon: float = 0.0

    def __post_init__(self):
        for name, value in self.as_dict().items():
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"intensity {name}={value} must be >= 0")

    def as_dict(self) -> dict[str, float]:
        return {
            "coal": self.coal,
            "oil": self.oil,
            "natural_gas": self.natural_gas,
            "low_carbon": self.low_carbon,
        }


# Global mean intensities by fuel, kg CO2 per MWh.  Used wherever a region
# reports only its mix (all non-US regions and the mix-based cross check).
CANONICAL_INTENSITIES = FuelIntensities(
    coal=996.0, oil=817.0, natural_gas=744.0, low_carbon=0.0
)


@dataclass(frozen=True)
class RegionRecord:
    id: str
    display_name: str
    kind: RegionKind
    mix: EnergyMix
    direct_rate_lbs_per_mwh: float | None = None
    group: RegionGroup | None = None


@dataclass(frozen=True)
class StateRow:
    """One parsed US snapshot row, keeping the per-fuel columns."""

    record: RegionRecord
    generation_mwh: dict[str, float]
    emissions_kt: dict[str, float]


def _parse_float(raw: str, column: str, lineno: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise SchemaError(f"line {lineno}: {column}={raw!r} is not a number") from None
    if not math.isfinite(value):
        raise SchemaError(f"line {lineno}: {column}={raw!r} is not finite")
    return value


def _parse_frac(raw: str, column: str, lineno: int, clamp: bool = False) -> float:
    value = _parse_float(raw, column, lineno)
    if clamp and NEGLIGIBLE_NEGATIVE < value < 0.0:
        value = 0.0
    if not 0.0 <= value <= 1.0:
        raise SchemaError(f"line {lineno}: {column}={value} outside [0, 1]")
    return value


def _check_header(actual: list[str] | None, expected: list[str]) -> None:
    if actual is None or [c.strip() for c in actual] != expected:
        raise SchemaError(
            f"bad header: expected {','.join(expected)}, got "
            f"{','.join(actual) if actual else '<empty file>'}"
        )


def _check_mix_sum(mix: dict[str, float], lineno: int) -> None:
    total = sum(mix.values())
    if not 0.99 <= total <= 1.01:
        raise SchemaError(f"line {lineno}: mix fractions sum to {total:.4f}")


def parse_egrid(text: str) -> list[StateRow]:
    """Parse the US state snapshot CSV into validated rows."""
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    _check_header(rows[0] if rows else None, EGRID_HEADER)
    out = []
    seen_ids: set[str] = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(EGRID_HEADER):
            raise SchemaError(
                f"line {lineno}: expected {len(EGRID_HEADER)} fields, got {len(row)}"
            )
        rec = dict(zip(EGRID_HEADER, row))
        state_id = rec["state_id"].strip().lower()
        name = rec["state_name"].strip()
        if not state_id or not name:
            raise SchemaError(f"line {lineno}: empty state id or name")
        if state_id in seen_ids:
            raise SchemaError(f"line {lineno}: duplicate state id {state_id!r}")
        seen_ids.add(state_id)
        fracs = {
            "coal": _parse_frac(rec["coal_frac"], "coal_frac", lineno),
            "oil": _parse_frac(rec["oil_frac"], "oil_frac", lineno),
            "natural_gas": _parse_frac(rec["gas_frac"], "gas_frac", lineno),
            "low_carbon": _parse_frac(rec["lowcarbon_frac"], "lowcarbon_frac", lineno),
        }
        _check_mix_sum(fracs, lineno)
        rate = _parse_float(
            rec["output_rate_lbs_per_mwh"], "output_rate_lbs_per_mwh", lineno
        )
        if rate < 0:
            raise SchemaError(f"line {lineno}: negative output rate {rate}")
        generation = {}
        emissions = {}
        for fuel, gen_col, emit_col in (
            ("coal", "coal_gen_mwh", "coal_emit_kt"),
            ("oil", "oil_gen_mwh", "oil_emit_kt"),
            ("natural_gas", "gas_gen_mwh", "gas_emit_kt"),
        ):
            gen = _parse_float(rec[gen_col], gen_col, lineno)
            emit = _parse_float(rec[emit_col], emit_col, lineno)
            if gen < 0:
                raise SchemaError(f"line {lineno}: negative {gen_col}")
            if emit < 0:
                raise SchemaError(f"line {lineno}: negative {emit_col}")
            generation[fuel] = gen
            emissions[fuel] = emit
        record = RegionRecord(
            id=state_id,
            display_name=name,
            kind=RegionKind.US_STATE,
            mix=EnergyMix(**fracs),
            direct_rate_lbs_per_mwh=rate,
            group=RegionGroup.US,
        )
        out.append(StateRow(record, generation, emissions))
    if not out:
        raise SchemaError("state snapshot has a header but no rows")
    return out


def parse_eia(text: str) -> list[RegionRecord]:
    """Parse the international snapshot CSV into country records.

    Defunct aggregate entities (e.g. dissolved unions) and sub-national
    trade zones are dropped; negligibly negative shares from upstream
    rounding are clamped to zero.
    """
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    _check_header(rows[0] if rows else None, EIA_HEADER)
    out = []
    seen_ids: set[str] = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(EIA_HEADER):
            raise SchemaError(
                f"line {lineno}: expected {len(EIA_HEADER)} fields, got {len(row)}"
            )
        rec = dict(zip(EIA_HEADER, row))
        name = rec["country_name"].strip()
        if name.lower() in EIA_EXCLUDED_NAMES:
            continue
        country_id = rec["country_id"].strip().lower()
        if not country_id or not name:
            raise SchemaError(f"line {lineno}: empty country id or name")
        if country_id in seen_ids:
            raise SchemaError(f"line {lineno}: duplicate country id {country_id!r}")
        seen_ids.add(country_id)
        is_europe_raw = rec["is_europe"].strip().lower()
        if is_europe_raw in ("true", "1", "yes"):
            is_europe = True
        elif is_europe_raw in ("false", "0", "no"):
            is_europe = False
        else:
            raise SchemaError(f"line {lineno}: is_europe={rec['is_europe']!r}")
        fracs = {
            "coal": _parse_frac(rec["coal_frac"], "coal_frac", lineno, clamp=True),
            "oil": _parse_frac(rec["oil_frac"], "oil_frac", lineno, clamp=True),
            "natural_gas": _parse_frac(rec["gas_frac"], "gas_frac", lineno, clamp=True),
            "low_carbon": _parse_frac(
                rec["lowcarbon_frac"], "lowcarbon_frac", lineno, clamp=True
            ),
        }
        _check_mix_sum(fracs, lineno)
        out.append(
            RegionRecord(
                id=country_id,
                display_name=name,
                kind=RegionKind.COUNTRY,
                mix=EnergyMix(**fracs),
                direct_rate_lbs_per_mwh=None,
                group=RegionGroup.EUROPE if is_europe else RegionGroup.GLOBAL,
            )
        )
    if not out:
        raise SchemaError("country snapshot has a header but no rows")
    return out


def derive_fuel_intensity(
    generation_mwh: dict[str, float], emissions_kt: dict[str, float]
) -> FuelIntensities:
    """Per-fuel intensity (kg/MWh) from generation and total emissions.

    Kilotonnes to kilograms is 1e6, so intensity = kt * 1e6 / MWh.  A fuel
    that generated nothing but still reports emissions is contradictory data.
    """
    values = {}
    for fuel in FOSSIL_FUELS:
        gen = generation_mwh.get(fuel, 0.0)
        emit = emissions_kt.get(fuel, 0.0)
        if gen < 0 or emit < 0:
            raise ValueError(f"negative generation or emissions for {fuel}")
        if gen == 0:
            if emit > 0:
                raise ZeroGeneration(
                    f"{fuel}: {emit} kt emitted with zero generation"
                )
            values[fuel] = 0.0
        else:
            values[fuel] = emit * 1e6 / gen
    return FuelIntensities(
        coal=values["coal"],
        oil=values["oil"],
        natural_gas=values["natural_gas"],
        low_carbon=0.0,
    )


def effective_intensity_kg_per_kwh(
    region: RegionRecord, intensities: FuelIntensities | None = None
) -> float:
    """Emission intensity for a region in kg CO2 per kWh.

    US states and the pinned aggregates carry a measured direct rate in
    lbs/MWh, which is authoritative when present.  Mix-only regions weight
    the canonical per-fuel intensities by their mix.
    """
    if region.direct_rate_lbs_per_mwh is not None:
        return region.direct_rate_lbs_per_mwh * KG_PER_LB / 1000.0
    weights = intensities or CANONICAL_INTENSITIES
    return region.mix.weighted_kg_per_mwh(weights) / 1000.0


@dataclass(frozen=True)
class DatasetSnapshot:
    regions: dict[str, RegionRecord]
    intensities: FuelIntensities
    vintage: str
    provenance: tuple[str, ...]
    _index: dict[str, str] = field(repr=False, default_factory=dict)

    @classmethod
    def load(
        cls,
        us_path: str | None = None,
        intl_path: str | None = None,
    ) -> "DatasetSnapshot":
        """Build the lookup snapshot from packaged (or user-supplied) CSVs."""
        us_text = _read_data(us_path, US_DATA_FILE)
        intl_text = _read_data(intl_path, INTL_DATA_FILE)
        states = parse_egrid(us_text)
        countries = parse_eia(intl_text)

        regions: dict[str, RegionRecord] = {}
        for row in states:
            regions[row.record.id] = row.record
        for rec in countries:
            if rec.id in regions:
                raise SchemaError(f"region id {rec.id!r} appears in both snapshots")
            regions[rec.id] = rec
        for agg in _build_aggregates(states, countries):
            regions[agg.id] = agg

        index: dict[str, str] = {}
        for rec in regions.values():
            for key in (rec.id, rec.display_name):
                norm = _normalize(key)
                # first registration wins: US states shadow same-named
                # countries (e.g. Georgia), ids are unique anyway
                index.setdefault(norm, rec.id)
        return cls(
            regions=regions,
            intensities=CANONICAL_INTENSITIES,
            vintage="2016",
            provenance=(
                "us_grid_2016.csv: state output emission rates and fuel columns",
                "intl_grid_2016.csv: country generation mixes",
            ),
            _index=index,
        )

    def lookup(self, key: str) -> RegionRecord:
        return lookup_region(self, key)

    def members(self, group: RegionGroup) -> list[RegionRecord]:
        return [r for r in self.regions.values() if r.group is group]

    def extremes(
        self, group: RegionGroup
    ) -> tuple[RegionRecord, RegionRecord, RegionRecord]:
        return region_extremes(self, group)


def _read_data(path: str | None, default_name: str) -> str:
    if path is not None:
        with open(path) as fh:
            return fh.read()
    return (resources.files("carbonrun.data") / default_name).read_text()


def _build_aggregates(
    states: list[StateRow], countries: list[RegionRecord]
) -> list[RegionRecord]:
    aggregates = [
        RegionRecord(
            id="world-average",
            display_name="World (average)",
            kind=RegionKind.AGGREGATE,
            mix=EnergyMix(*WORLD_MIX),
            direct_rate_lbs_per_mwh=WORLD_RATE_LBS_PER_MWH,
        )
    ]

    # US average: weight each state by its total generation.  Only fossil
    # generation is in the snapshot, so totals are reconstructed from the
    # fossil share of the mix.
    weighted_rate = 0.0
    weighted_mix = {"coal": 0.0, "oil": 0.0, "natural_gas": 0.0, "low_carbon": 0.0}
    total_weight = 0.0
    for row in states:
        mix = row.record.mix
        fossil_frac = mix.coal + mix.oil + mix.natural_gas
        if fossil_frac <= 0:
            continue
        weight = sum(row.generation_mwh.values()) / fossil_frac
        total_weight += weight
        weighted_rate += weight * row.record.direct_rate_lbs_per_mwh
        for fuel, frac in mix.as_dict().items():
            weighted_mix[fuel] += weight * frac
    if total_weight > 0:
        aggregates.append(
            RegionRecord(
                id="us-average",
                display_name="United States (average)",
                kind=RegionKind.AGGREGATE,
                mix=EnergyMix(**{f: v / total_weight for f, v in weighted_mix.items()}),
                direct_rate_lbs_per_mwh=weighted_rate / total_weight,
            )
        )

    europe = [c for c in countries if c.group is RegionGroup.EUROPE]
    if europe:
        mean_mix = {
            fuel: sum(c.mix.as_dict()[fuel] for c in europe) / len(europe)
            for fuel in ("coal", "oil", "natural_gas", "low_carbon")
        }
        aggregates.append(
            RegionRecord(
                id="europe-average",
                display_name="Europe (average)",
                kind=RegionKind.AGGREGATE,
                mix=EnergyMix(**mean_mix),
                direct_rate_lbs_per_mwh=None,
            )
        )
    return aggregates


def _normalize(key: str) -> str:
    return re.sub(r"[\s_-]+", " ", key.strip().casefold())


def lookup_region(snapshot: DatasetSnapshot, key: str) -> RegionRecord:
    """Resolve a user-supplied region name or id, case-insensitively.

    Both ids ("us-wy", "de", "us-average") and display names ("Wyoming",
    "Germany") resolve; hyphens, underscores and runs of spaces are
    interchangeable.  Where a state and a country share a display name the
    state wins; the country remains reachable by id.  A bare US postal code
    such as "wy" does not resolve: two-letter ids are country codes, so
    "de" stays Germany and "in" stays India.
    """
    norm = _normalize(key)
    region_id = snapshot._index.get(norm)
    if region_id is not None:
        return snapshot.regions[region_id]
    suggestions = difflib.get_close_matches(norm, snapshot._index.keys(), n=3)
    display = []
    for s in suggestions:
        rec = snapshot.regions[snapshot._index[s]]
        label = rec.display_name if _normalize(rec.display_name) == s else rec.id
        if label not in display:
            display.append(label)
    raise UnknownRegion(key, display)


def region_extremes(
    snapshot: DatasetSnapshot, group: RegionGroup
) -> tuple[RegionRecord, RegionRecord, RegionRecord]:
    """Lowest, median and highest emission-intensity members of a group.

    Median is the lower middle for even-sized groups; ties order by region
    id so the result never depends on dict iteration order.
    """
    members = snapshot.members(group)
    if not members:
        raise EmptyGroup(f"no regions in group {group.value!r}")
    ranked = sorted(
        members,
        key=lambda r: (effective_intensity_kg_per_kwh(r, snapshot.intensities), r.id),
    )
    return ranked[0], ranked[(len(ranked) - 1) // 2], ranked[-1]
