"""Assemble the Energy Usage Report and render it as text, JSON or HTML.

The report has six sections: header, energy readings, the local energy mix,
totals (kWh and kg CO2), assumptions plus everyday equivalents, and the
three-group regional comparison.  Renderers only format; every number they
print exists verbatim in the ReportDocument, and JSON keeps full precision
while text/HTML round for display.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from html import escape

from . import __version__
from .charts import bar_panel, pie_chart
from .emissions import (
    EquivalencyFactors,
    Equivalents,
    comparison_sets,
    emissions_for,
    equivalents_for,
)
from .griddata import DatasetSnapshot, EnergyMix, FuelIntensities, RegionGroup
from .locate import LocationResolution, ResolutionMethod
from .meter import MeasurementSummary

SCHEMA_VERSION = "1"

GROUP_LABELS = {
    RegionGroup.US.value: "United States",
    RegionGroup.EUROPE.value: "Europe",
    RegionGroup.GLOBAL.value: "Global (excl. US and Europe)",
}

RANKS = ("lowest", "median", "highest")

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
BAR_COLOR = "#7f7f7f"
LOCAL_BAR_COLOR = "#2a7ab0"

WIDTH = 69


@dataclass(frozen=True)
class ReportHeader:
    command: str
    arguments: tuple[str, ...]

    @property
    def command_line(self) -> str:
        return " ".join((self.command, *self.arguments))


@dataclass(frozen=True)
class MixSection:
    region_id: str
    region_name: str
    mix: EnergyMix


@dataclass(frozen=True)
class SummarySection:
    kwh: float
    kg_co2: float
    intensity_kg_per_kwh: float


@dataclass(frozen=True)
class ComparisonRow:
    rank: str
    region_id: str
    region_name: str
    kg_co2: float


@dataclass(frozen=True)
class ComparisonPanel:
    group: str
    label: str
    rows: tuple[ComparisonRow, ...]


@dataclass(frozen=True)
class ResolutionInfo:
    method: str
    region_id: str
    detail: str


@dataclass(frozen=True)
class ReportDocument:
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
    what the grid actually had to deliver.
    """
    region = resolution.region
    result = emissions_for(summary.adjusted_kwh, region, snapshot.intensities)
    panels = []
    for cset in comparison_sets(summary.adjusted_kwh, snapshot):
        rows = tuple(
            ComparisonRow(
                rank=rank,
                region_id=rec.id,
                region_name=rec.display_name,
                kg_co2=kg,
            )
            for rank, (rec, kg) in zip(RANKS, cset.entries)
        )
        panels.append(
            ComparisonPanel(
                group=cset.group.value,
                label=GROUP_LABELS[cset.group.value],
                rows=rows,
            )
        )
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
            kg_co2=result.kg_co2,
            intensity_kg_per_kwh=result.intensity_kg_per_kwh,
        ),
        assumptions=snapshot.intensities,
        equivalents=equivalents_for(result.kg_co2, factors),
        comparisons=tuple(panels),
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


def render_text(doc: ReportDocument) -> str:
    """Fixed-width terminal rendering of the report."""
    mix = doc.mix.mix
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
    lines += [
        "",
        "Energy Usage Readings",
        f"    Average baseline wattage:     {doc.readings.baseline_watts:.2f} watts",
        f"    Average total wattage:        {doc.readings.total_watts:.2f} watts",
        f"    Average process wattage:      {doc.readings.process_watts:.2f} watts",
        f"    Process duration:             {format_duration(doc.readings.duration_s)}",
        f"    Assumed PSU efficiency:       {doc.readings.psu_efficiency * 100:.0f}%",
    ]
    if doc.readings.negative_clamped:
        lines.append(
            "    Note: baseline exceeded total wattage; process power clamped to 0."
        )
    lines += [
        "",
        f"Energy Mix Data ({doc.mix.region_name})",
        f"    Coal:          {mix.coal * 100:.1f}%",
        f"    Oil:           {mix.oil * 100:.1f}%",
        f"    Natural gas:   {mix.natural_gas * 100:.1f}%",
        f"    Low carbon:    {mix.low_carbon * 100:.1f}%",
        "",
        "Totals",
        f"    Total kilowatt hours used:    {format_kwh(doc.summary.kwh)} kWh",
        f"    Effective emissions:          {format_kg(doc.summary.kg_co2)} kg CO2",
        "",
        "Assumed Carbon Equivalencies",
        f"    Coal:          {doc.assumptions.coal:g} kg CO2/MWh",
        f"    Oil:           {doc.assumptions.oil:g} kg CO2/MWh",
        f"    Natural gas:   {doc.assumptions.natural_gas:g} kg CO2/MWh",
        f"    Low carbon:    {doc.assumptions.low_carbon:g} kg CO2/MWh",
        "",
        "CO2 Emissions Equivalents",
        f"    Miles driven:                 {doc.equivalents.miles_driven:.2e} mi",
        f"    Min. of 32-in. LCD TV:        {doc.equivalents.tv_minutes:.2f} min",
        f"    % of CO2 per US house/day:    {doc.equivalents.household_day_percent:.2e} %",
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


def _document_dict(doc: ReportDocument) -> dict:
    return {
        "schema_version": doc.schema_version,
        "generated_at": doc.generated_at,
        "tool_version": doc.tool_version,
        "header": {
            "command": doc.header.command,
            "arguments": list(doc.header.arguments),
        },
        "readings": {
            "baseline_watts": doc.readings.baseline_watts,
            "total_watts": doc.readings.total_watts,
            "process_watts": doc.readings.process_watts,
            "duration_s": doc.readings.duration_s,
            "measured_kwh": doc.readings.measured_kwh,
            "adjusted_kwh": doc.readings.adjusted_kwh,
            "psu_efficiency": doc.readings.psu_efficiency,
            "negative_clamped": doc.readings.negative_clamped,
        },
        "mix": {
            "region_id": doc.mix.region_id,
            "region_name": doc.mix.region_name,
            "coal": doc.mix.mix.coal,
            "oil": doc.mix.mix.oil,
            "natural_gas": doc.mix.mix.natural_gas,
            "low_carbon": doc.mix.mix.low_carbon,
        },
        "summary": {
            "kwh": doc.summary.kwh,
            "kg_co2": doc.summary.kg_co2,
            "intensity_kg_per_kwh": doc.summary.intensity_kg_per_kwh,
        },
        "assumptions": doc.assumptions.as_dict(),
        "equivalents": {
            "miles_driven": doc.equivalents.miles_driven,
            "tv_minutes": doc.equivalents.tv_minutes,
            "household_day_percent": doc.equivalents.household_day_percent,
        },
        "comparisons": [
            {
                "group": panel.group,
                "label": panel.label,
                "rows": [
                    {
                        "rank": row.rank,
                        "region_id": row.region_id,
                        "region_name": row.region_name,
                        "kg_co2": row.kg_co2,
                    }
                    for row in panel.rows
                ],
            }
            for panel in doc.comparisons
        ],
        "resolution": {
            "method": doc.resolution.method,
            "region_id": doc.resolution.region_id,
            "detail": doc.resolution.detail,
        },
    }


def render_json(doc: ReportDocument) -> bytes:
    """Machine-readable rendering: full precision, stable key order."""
    payload = json.dumps(_document_dict(doc), sort_keys=True, indent=2)
    return (payload + "\n").encode("utf-8")


def parse_report_json(data: bytes | str) -> ReportDocument:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    raw = json.loads(data)
    return ReportDocument(
        schema_version=raw["schema_version"],
        generated_at=raw["generated_at"],
        tool_version=raw["tool_version"],
        header=ReportHeader(
            command=raw["header"]["command"],
            arguments=tuple(raw["header"]["arguments"]),
        ),
        readings=MeasurementSummary(**raw["readings"]),
        mix=MixSection(
            region_id=raw["mix"]["region_id"],
            region_name=raw["mix"]["region_name"],
            mix=EnergyMix(
                coal=raw["mix"]["coal"],
                oil=raw["mix"]["oil"],
                natural_gas=raw["mix"]["natural_gas"],
                low_carbon=raw["mix"]["low_carbon"],
            ),
        ),
        summary=SummarySection(**raw["summary"]),
        assumptions=FuelIntensities(**raw["assumptions"]),
        equivalents=Equivalents(**raw["equivalents"]),
        comparisons=tuple(
            ComparisonPanel(
                group=panel["group"],
                label=panel["label"],
                rows=tuple(ComparisonRow(**row) for row in panel["rows"]),
            )
            for panel in raw["comparisons"]
        ),
        resolution=ResolutionInfo(**raw["resolution"]),
    )


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
    mix = doc.mix.mix
    pie = pie_chart(
        [
            ("Coal", mix.coal, MIX_COLORS["Coal"]),
            ("Oil", mix.oil, MIX_COLORS["Oil"]),
            ("Natural gas", mix.natural_gas, MIX_COLORS["Natural gas"]),
            ("Low carbon", mix.low_carbon, MIX_COLORS["Low carbon"]),
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

    readings = _table(
        [
            ("Average baseline wattage", f"{doc.readings.baseline_watts:.2f} watts"),
            ("Average total wattage", f"{doc.readings.total_watts:.2f} watts"),
            ("Average process wattage", f"{doc.readings.process_watts:.2f} watts"),
            ("Process duration", format_duration(doc.readings.duration_s)),
            ("Assumed PSU efficiency", f"{doc.readings.psu_efficiency * 100:.0f}%"),
        ]
    )
    assumptions = _table(
        [
            ("Coal", f"{doc.assumptions.coal:g} kg CO2/MWh"),
            ("Oil", f"{doc.assumptions.oil:g} kg CO2/MWh"),
            ("Natural gas", f"{doc.assumptions.natural_gas:g} kg CO2/MWh"),
            ("Low carbon", f"{doc.assumptions.low_carbon:g} kg CO2/MWh"),
        ]
    )
    equivalents = _table(
        [
            ("Miles driven", f"{doc.equivalents.miles_driven:.2e} mi"),
            ("Min. of 32-in. LCD TV", f"{doc.equivalents.tv_minutes:.2f} min"),
            (
                "% of CO2 per US house/day",
                f"{doc.equivalents.household_day_percent:.2e} %",
            ),
        ]
    )

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
        f"<section><h2>Energy Usage Readings</h2>{readings}</section>"
        f"<section><h2>Energy Mix Data ({escape(doc.mix.region_name)})</h2>"
        f"{pie}</section>"
        "</div>"
        "<div class='totals'>"
        + _table(
            [
                ("Total kilowatt hours used", f"{format_kwh(doc.summary.kwh)} kWh"),
                ("Effective emissions", f"{format_kg(doc.summary.kg_co2)} kg CO2"),
            ]
        )
        + "</div>"
        "<div class='row'>"
        f"<section><h2>Assumed Carbon Equivalencies</h2>{assumptions}</section>"
        f"<section><h2>CO2 Emissions Equivalents</h2>{equivalents}</section>"
        "</div>"
        "<section><h2>Emission Comparisons</h2>"
        "<p>CO2 emissions for the same energy had it been used elsewhere.</p>"
        f"<div class='row'>{''.join(panels)}</div></section>"
        f"<footer>carbonrun {escape(doc.tool_version)}</footer>"
        "</body></html>"
    )
    return html.encode("utf-8")
