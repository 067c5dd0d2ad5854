"""Assemble the Energy Usage Report and render it as text, JSON or HTML.

The report has six sections: header, energy readings, the local energy mix,
totals (kWh and kg CO2), assumptions plus everyday equivalents, and the
three-group regional comparison.  The totals and the comparison panels both
price energy at `RegionRecord.kg_co2_per_kwh`, so a region appearing in both
costs the same.  Renderers only format; every number they print exists
verbatim in the ReportDocument, and JSON keeps full precision while text/HTML
round for display.
"""

from __future__ import annotations

import functools
import json
import math
from datetime import datetime, timezone
from typing import NamedTuple, NoReturn, get_args, get_origin, get_type_hints

from . import __version__
from .charts import bar_panel, escape, pie_chart
from .emissions import (
    ComparisonPanel,
    EquivalencyFactors,
    Equivalents,
    comparison_sets,
    equivalents_for,
)
from .griddata import CANONICAL_INTENSITIES, FUELS, DatasetSnapshot, EnergyMix, FuelIntensities
from .locate import LocationResolution, ResolutionMethod
from .meter import MeasurementSummary

SCHEMA_VERSION = "1"

METHOD_LABELS = {
    ResolutionMethod.EXPLICIT.value: "set explicitly",
    ResolutionMethod.ENVIRONMENT.value: "from ENERGYUSAGE_REGION",
    ResolutionMethod.GEOLOCATION.value: "via IP geolocation",
    ResolutionMethod.DEFAULT_FALLBACK.value: "default",
}

MIX_COLORS = {
    "Coal": "#595959",
    "Oil": "#8c564b",
    "Natural gas": "#e8a33d",
    "Low carbon": "#59a14f",
}
# MIX_COLORS lists the fuels in FUELS order
FUEL_LABELS = dict(zip(FUELS, MIX_COLORS))
BAR_COLOR = "#7f7f7f"
LOCAL_BAR_COLOR = "#2a7ab0"

WIDTH = 69


class ReportHeader(NamedTuple):
    command: str
    arguments: tuple[str, ...]

    @property
    def command_line(self) -> str:
        """The command line as text; a byte that is not UTF-8, which Python
        keeps as a lone surrogate, shows as `\\xNN`."""
        line = " ".join((self.command, *self.arguments))
        return line.encode("utf-8", "surrogateescape").decode("utf-8", "backslashreplace")


class MixSection(NamedTuple):
    region_id: str
    region_name: str
    mix: EnergyMix


class SummarySection(NamedTuple):
    kwh: float
    kg_co2: float
    intensity_kg_per_kwh: float


class ResolutionInfo(NamedTuple):
    method: str
    region_id: str
    detail: str


class ReportDocument(NamedTuple):
    schema_version: str
    generated_at: str
    tool_version: str
    header: ReportHeader
    readings: MeasurementSummary
    mix: MixSection
    summary: SummarySection
    assumptions: FuelIntensities
    equivalents: Equivalents
    comparisons: tuple[ComparisonPanel, ...]
    resolution: ResolutionInfo


def build_report(
    summary: MeasurementSummary,
    resolution: LocationResolution,
    snapshot: DatasetSnapshot,
    factors: EquivalencyFactors,
    command: str,
    arguments: tuple[str, ...] = (),
    generated_at: str | None = None,
) -> ReportDocument:
    """Compute every derived section from a finished measurement.

    Emissions are charged on the wall-side (PSU-adjusted) energy: that is
    what the grid actually had to deliver.  A kg CO2, equivalent or
    comparison figure that is not a finite float raises `ValueError`: no
    report could give it.
    """
    region = resolution.region
    intensity = region.kg_co2_per_kwh
    kg_co2 = summary.adjusted_kwh * intensity
    equivalents = equivalents_for(kg_co2, factors)
    comparisons = comparison_sets(summary.adjusted_kwh, snapshot)
    figures = {"kg_co2": kg_co2, **equivalents._asdict(),
               **{f"kg_co2 in {row.region_id}": row.kg_co2
                  for panel in comparisons for row in panel.rows}}
    for name, value in figures.items():
        if not math.isfinite(value):
            raise ValueError(f"the report's {name} is {value!r}, not a finite number; "
                             "nothing to report")
    if generated_at is None:
        generated_at = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    return ReportDocument(
        schema_version=SCHEMA_VERSION,
        generated_at=generated_at,
        tool_version=__version__,
        header=ReportHeader(command=command, arguments=tuple(arguments)),
        readings=summary,
        mix=MixSection(
            region_id=region.id,
            region_name=region.display_name,
            mix=region.mix,
        ),
        summary=SummarySection(
            kwh=summary.adjusted_kwh,
            kg_co2=kg_co2,
            intensity_kg_per_kwh=intensity,
        ),
        assumptions=CANONICAL_INTENSITIES,
        equivalents=equivalents,
        comparisons=comparisons,
        resolution=ResolutionInfo(
            method=resolution.method.value,
            region_id=region.id,
            detail=resolution.detail,
        ),
    )


def format_duration(seconds: float) -> str:
    total = int(round(seconds))
    hours, rest = divmod(total, 3600)
    minutes, secs = divmod(rest, 60)
    return f"{hours}:{minutes:02d}:{secs:02d}"


def format_kwh(value: float) -> str:
    return f"{value:.3g}"


def format_kg(value: float) -> str:
    return f"{value:.2e}"


def _rule(title: str) -> str:
    pad = WIDTH - len(title) - 2
    left = pad // 2
    return f"{'=' * left} {title} {'=' * (pad - left)}"


def _rows(doc: ReportDocument) -> dict[str, list[tuple[str, str]]]:
    """Each labelled section as (label, value text) rows, for text and HTML."""
    readings, summary, eq = doc.readings, doc.summary, doc.equivalents
    return {
        "readings": [
            ("Average baseline wattage", f"{readings.baseline_watts:.2f} watts"),
            ("Average total wattage", f"{readings.total_watts:.2f} watts"),
            ("Average process wattage", f"{readings.process_watts:.2f} watts"),
            ("Process duration", format_duration(readings.duration_s)),
            ("Assumed PSU efficiency", f"{readings.psu_efficiency * 100:.0f}%"),
        ],
        "mix": [
            (label, f"{getattr(doc.mix.mix, fuel) * 100:.1f}%")
            for fuel, label in FUEL_LABELS.items()
        ],
        "totals": [
            ("Total kilowatt hours used", f"{format_kwh(summary.kwh)} kWh"),
            ("Effective emissions", f"{format_kg(summary.kg_co2)} kg CO2"),
        ],
        "assumptions": [
            (label, f"{getattr(doc.assumptions, fuel):g} kg CO2/MWh")
            for fuel, label in FUEL_LABELS.items()
        ],
        "equivalents": [
            ("Miles driven", f"{eq.miles_driven:.2e} mi"),
            ("Min. of 32-in. LCD TV", f"{eq.tv_minutes:.2f} min"),
            ("% of CO2 per US house/day", f"{eq.household_day_percent:.2e} %"),
        ],
    }


def render_text(doc: ReportDocument) -> str:
    """Fixed-width terminal rendering of the report."""
    rows = _rows(doc)

    def section(title: str, name: str, width: int) -> list[str]:
        return ["", title] + [f"    {label + ':':<{width}}{value}" for label, value in rows[name]]

    lines = [
        _rule("Energy Usage Report"),
        f"Energy usage and CO2 emissions for the command `{doc.header.command_line}`.",
        "",
        f"Location: {doc.mix.region_name} ({METHOD_LABELS[doc.resolution.method]})",
    ]
    if doc.resolution.method == ResolutionMethod.DEFAULT_FALLBACK.value:
        lines.append(
            f"Note: location defaulted to {doc.mix.region_name}; "
            "pass --location for an exact region."
        )
    lines += section("Energy Usage Readings", "readings", 30)
    if doc.readings.negative_clamped:
        lines.append(
            "    Note: baseline exceeded total wattage; process power clamped to 0."
        )
    lines += section(f"Energy Mix Data ({doc.mix.region_name})", "mix", 15)
    lines += section("Totals", "totals", 30)
    lines += section("Assumed Carbon Equivalencies", "assumptions", 15)
    lines += section("CO2 Emissions Equivalents", "equivalents", 30)
    lines += [
        "",
        "Emission Comparisons",
        "    CO2 emissions for the same energy had it been used elsewhere.",
    ]
    for panel in doc.comparisons:
        lines.append("")
        lines.append(f"    {panel.label}")
        for row in panel.rows:
            lines.append(
                f"        {row.rank:<8} {row.region_name:<26} "
                f"{format_kg(row.kg_co2)} kg CO2"
            )
    lines += [
        "",
        "=" * WIDTH,
        f"Generated {doc.generated_at} by carbonrun {doc.tool_version}",
    ]
    return "\n".join(lines) + "\n"


_SCALARS = frozenset((str, int, float, bool, type(None)))


def _encode(value: tuple) -> object:
    """A record as an object of its fields, any other tuple as a list."""
    if not hasattr(value, "_fields"):
        return [x if type(x) in _SCALARS else _encode(x) for x in value]
    obj = {k: x if type(x) in _SCALARS else _encode(x) for k, x in value._asdict().items()}
    if isinstance(value, MixSection):
        obj.update(obj.pop("mix"))
    return obj


def render_json(doc: ReportDocument) -> bytes:
    """Machine-readable rendering: full precision, stable key order.  A
    number JSON cannot hold (NaN, an infinity) raises ValueError."""
    payload = json.dumps(_encode(doc), sort_keys=True, indent=2, allow_nan=False)
    return (payload + "\n").encode("utf-8")


@functools.cache
def _schema(cls: type) -> tuple[dict[str, object], frozenset[str]]:
    """A record's field types, and the names of the fields with no default."""
    return get_type_hints(cls), frozenset(cls._fields) - cls._field_defaults.keys()


def _decode(cls, data):
    """Build `cls` from its JSON form: records, `tuple[X, ...]` and scalars.

    A scalar must have its field's type, except that an int stands for a
    float; a bool is never a number.
    """
    if cls in _SCALARS:
        if type(data) is cls or (cls is float and type(data) is int):
            return data
        raise ValueError(f"expected {cls.__name__}, got {data!r}")
    if get_origin(cls) is tuple:
        if not isinstance(data, list):
            raise ValueError(f"expected a list, got {data!r}")
        item = get_args(cls)[0]
        return tuple(_decode(item, x) for x in data)
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__}: expected an object, got {data!r}")
    hints, required = _schema(cls)
    if cls is MixSection:
        data = dict(data)
        data["mix"] = {k: data.pop(k) for k in EnergyMix._fields if k in data}
    unknown = data.keys() - hints.keys()
    if unknown:
        raise ValueError(f"{cls.__name__}: unknown keys {sorted(unknown)}")
    missing = required - data.keys()
    if missing:
        raise ValueError(f"{cls.__name__}: missing keys {sorted(missing)}")
    return cls(**{k: _decode(hints[k], v) for k, v in data.items()})


def _reject_constant(name: str) -> NoReturn:
    raise ValueError(f"{name} is not a JSON number")


def parse_report_json(data: bytes | str) -> ReportDocument:
    """Read a rendered JSON report back; raises ValueError on any unknown or
    missing key, on a value of the wrong type and on `NaN` or `Infinity`."""
    return _decode(ReportDocument, json.loads(data, parse_constant=_reject_constant))


_CSS = (
    "body{font-family:Helvetica,Arial,sans-serif;margin:2em auto;"
    "max-width:60em;color:#222}"
    "h1{text-align:center}"
    ".subtitle{text-align:center}"
    ".meta{text-align:center;color:#555;font-size:0.9em}"
    ".row{display:flex;flex-wrap:wrap;gap:2em;justify-content:center;"
    "align-items:flex-start}"
    "section{margin:1.2em 0}"
    "table{border-collapse:collapse}"
    "td{padding:2px 10px}"
    "td.num{text-align:right;font-variant-numeric:tabular-nums}"
    ".totals{border:1px solid #999;border-radius:6px;padding:0.4em 1em;"
    "width:fit-content;margin:1.2em auto;background:#f8f8f8}"
    ".note{color:#8a4500}"
    "footer{text-align:center;color:#777;font-size:0.8em;margin-top:2em}"
)


def _table(rows: list[tuple[str, str]]) -> str:
    cells = "".join(
        f"<tr><td>{escape(k)}</td><td class='num'>{v}</td></tr>" for k, v in rows
    )
    return f"<table>{cells}</table>"


def render_html(doc: ReportDocument) -> bytes:
    """Self-contained HTML rendering with inline SVG charts."""
    rows = _rows(doc)
    pie = pie_chart(
        [
            (label, getattr(doc.mix.mix, fuel), MIX_COLORS[label])
            for fuel, label in FUEL_LABELS.items()
        ]
    )
    panels = []
    for panel in doc.comparisons:
        bars = [
            (row.region_name, row.kg_co2, BAR_COLOR) for row in panel.rows
        ]
        bars.append((f"{doc.mix.region_name} (here)", doc.summary.kg_co2, LOCAL_BAR_COLOR))
        panels.append(bar_panel(panel.label, bars))

    notes = []
    if doc.resolution.method == ResolutionMethod.DEFAULT_FALLBACK.value:
        notes.append(
            f"Location defaulted to {escape(doc.mix.region_name)}; "
            "pass --location for an exact region."
        )
    if doc.readings.negative_clamped:
        notes.append(
            "Baseline exceeded total wattage; process power clamped to 0."
        )
    note_html = "".join(f"<p class='note'>{n}</p>" for n in notes)

    html = (
        "<!DOCTYPE html>"
        "<html lang='en'><head><meta charset='utf-8'>"
        "<title>Energy Usage Report</title>"
        f"<style>{_CSS}</style></head><body>"
        "<h1>Energy Usage Report</h1>"
        "<p class='subtitle'>Energy usage and CO2 emissions for the command "
        f"<code>{escape(doc.header.command_line)}</code>.</p>"
        f"<p class='meta'>Location: {escape(doc.mix.region_name)} "
        f"({escape(METHOD_LABELS[doc.resolution.method])}) &middot; "
        f"generated {escape(doc.generated_at)}</p>"
        f"{note_html}"
        "<div class='row'>"
        f"<section><h2>Energy Usage Readings</h2>{_table(rows['readings'])}</section>"
        f"<section><h2>Energy Mix Data ({escape(doc.mix.region_name)})</h2>"
        f"{pie}</section>"
        "</div>"
        f"<div class='totals'>{_table(rows['totals'])}</div>"
        "<div class='row'>"
        f"<section><h2>Assumed Carbon Equivalencies</h2>{_table(rows['assumptions'])}</section>"
        f"<section><h2>CO2 Emissions Equivalents</h2>{_table(rows['equivalents'])}</section>"
        "</div>"
        "<section><h2>Emission Comparisons</h2>"
        "<p>CO2 emissions for the same energy had it been used elsewhere.</p>"
        f"<div class='row'>{''.join(panels)}</div></section>"
        f"<footer>carbonrun {escape(doc.tool_version)}</footer>"
        "</body></html>"
    )
    return html.encode("utf-8")
