import dataclasses
import json
import re
from pathlib import Path

import pytest

from carbonrun.charts import bar_panel, pie_chart
from carbonrun.emissions import emissions_for, load_equivalency_factors
from carbonrun.locate import LocationResolution, ResolutionMethod
from carbonrun.meter import MeasurementSummary, MeterConfig, PowerSample, summarize
from carbonrun.report import (
    build_report,
    format_duration,
    format_kwh,
    parse_report_json,
    render_html,
    render_json,
    render_text,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"
FROZEN_TIME = "2016-07-01T00:00:00Z"


def reference_summary():
    baseline = [PowerSample(watts=2.35, interval_s=0.1)] * 10
    process = [PowerSample(watts=15.53, interval_s=0.1)] * 10
    return summarize(baseline, process, 1000.0, MeterConfig(psu_efficiency=0.8))


def make_reference_doc(snapshot, resolution=None):
    if resolution is None:
        resolution = LocationResolution(
            region=snapshot.lookup("wyoming"),
            method=ResolutionMethod.EXPLICIT,
            detail="--location wyoming",
        )
    return build_report(
        reference_summary(),
        resolution,
        snapshot,
        load_equivalency_factors(),
        command="exp",
        arguments=("10",),
        generated_at=FROZEN_TIME,
    )


def fallback_doc(snapshot):
    resolution = LocationResolution(
        region=snapshot.lookup("world-average"),
        method=ResolutionMethod.DEFAULT_FALLBACK,
        detail="geolocation disabled; assuming World (average)",
    )
    return make_reference_doc(snapshot, resolution)


@pytest.fixture()
def doc(snapshot):
    return make_reference_doc(snapshot)


class TestTextRendering:
    def test_matches_golden(self, doc):
        golden = (GOLDEN_DIR / "report.txt").read_text()
        assert render_text(doc) == golden

    def test_deterministic(self, doc):
        assert render_text(doc) == render_text(doc)

    def test_reference_reading_lines(self, doc):
        text = render_text(doc)
        assert "Average baseline wattage:     2.35 watts" in text
        assert "Average total wattage:        15.53 watts" in text
        assert "Average process wattage:      13.18 watts" in text
        assert "Process duration:             0:16:40" in text

    def test_default_fallback_note_visible(self, snapshot):
        text = render_text(fallback_doc(snapshot))
        assert "location defaulted to World (average)" in text

    def test_clamp_note_visible(self, snapshot):
        summary = summarize(
            [PowerSample(5.0, 0.1)] * 4,
            [PowerSample(4.0, 0.1)] * 4,
            10.0,
            MeterConfig(),
        )
        resolution = LocationResolution(
            snapshot.lookup("wyoming"), ResolutionMethod.EXPLICIT, "x"
        )
        doc = build_report(
            summary, resolution, snapshot, load_equivalency_factors(),
            command="true", generated_at=FROZEN_TIME,
        )
        assert "clamped" in render_text(doc)

    def test_zero_energy_structure_intact(self, snapshot):
        summary = MeasurementSummary(
            baseline_watts=0.0, total_watts=0.0, process_watts=0.0,
            duration_s=5.0, measured_kwh=0.0, adjusted_kwh=0.0,
            psu_efficiency=0.8,
        )
        resolution = LocationResolution(
            snapshot.lookup("france"), ResolutionMethod.EXPLICIT, "x"
        )
        doc = build_report(
            summary, resolution, snapshot, load_equivalency_factors(),
            command="true", generated_at=FROZEN_TIME,
        )
        assert doc.summary.kg_co2 == 0.0
        text = render_text(doc)
        for section in (
            "Energy Usage Readings", "Energy Mix Data", "Totals",
            "Assumed Carbon Equivalencies", "CO2 Emissions Equivalents",
            "Emission Comparisons",
        ):
            assert section in text


class TestFormatters:
    @pytest.mark.parametrize(
        "seconds,expected",
        [(1000, "0:16:40"), (3661, "1:01:01"), (0, "0:00:00"), (59.6, "0:01:00")],
    )
    def test_duration(self, seconds, expected):
        assert format_duration(seconds) == expected

    def test_kwh_three_significant_figures(self):
        assert format_kwh(0.0036611) == "0.00366"
        assert format_kwh(12.345) == "12.3"


class TestJsonRendering:
    def test_matches_golden(self, doc):
        golden = (GOLDEN_DIR / "report.json").read_bytes()
        assert render_json(doc) == golden

    def test_round_trip(self, doc):
        assert parse_report_json(render_json(doc)) == doc

    def test_schema_version(self, doc):
        payload = json.loads(render_json(doc))
        assert payload["schema_version"] == "1"

    def test_full_precision(self, doc):
        payload = json.loads(render_json(doc))
        assert payload["summary"]["kg_co2"] == doc.summary.kg_co2
        assert payload["readings"]["measured_kwh"] == doc.readings.measured_kwh

    def test_timestamp_only_structural_diff(self, doc):
        other = dataclasses.replace(doc, generated_at="2017-01-01T00:00:00Z")
        a = json.loads(render_json(doc))
        b = json.loads(render_json(other))
        assert a.pop("generated_at") != b.pop("generated_at")
        assert a == b

    def test_stable_key_order(self, doc):
        assert render_json(doc) == render_json(doc)

    # a key the section holds is dropped, a key it lacks is added
    @pytest.mark.parametrize(
        "section,key",
        [
            ("summary", "kg_co2"),
            ("header", "shell"),
            ("mix", "hydro"),
            ("readings", "peak_watts"),
            (None, "comment"),
        ],
    )
    def test_parse_rejects_a_missing_or_unknown_key(self, doc, section, key):
        payload = json.loads(render_json(doc))
        target = payload if section is None else payload[section]
        if key in target:
            del target[key]
        else:
            target[key] = 1
        with pytest.raises(ValueError, match=key):
            parse_report_json(json.dumps(payload))


def test_readme_sample_run_is_the_golden_report():
    readme = README.read_text()
    block = readme.split("A run looks like this:\n\n```text\n", 1)[1]
    sample = block.split("\n...\n", 1)[0].splitlines()
    golden = (GOLDEN_DIR / "report.txt").read_text().splitlines()
    assert len(sample) > 1
    assert [line for line in sample if line not in golden] == []


class TestInternalConsistency:
    def test_kg_recomputable_from_fields(self, snapshot, doc):
        region = snapshot.regions[doc.resolution.region_id]
        recomputed = emissions_for(
            doc.readings.adjusted_kwh, region, snapshot.intensities
        ).kg_co2
        assert doc.summary.kg_co2 == pytest.approx(recomputed, rel=1e-9)

    def test_emissions_use_adjusted_energy(self, doc):
        assert doc.summary.kwh == doc.readings.adjusted_kwh
        assert doc.summary.kg_co2 == pytest.approx(
            doc.summary.kwh * doc.summary.intensity_kg_per_kwh, rel=1e-12
        )


class TestHtmlRendering:
    def test_matches_golden(self, doc):
        golden = (GOLDEN_DIR / "report.html").read_bytes()
        assert render_html(doc) == golden

    def test_self_contained(self, doc):
        html = render_html(doc).decode()
        assert html.count("<svg") == 4  # one pie + three comparison panels
        for marker in ("http-equiv", "src=", "href="):
            assert marker not in html

    def test_fallback_note(self, snapshot):
        html = render_html(fallback_doc(snapshot)).decode()
        assert "Location defaulted to World (average)" in html

    def test_command_is_escaped(self, snapshot):
        resolution = LocationResolution(
            snapshot.lookup("wyoming"), ResolutionMethod.EXPLICIT, "x"
        )
        doc = build_report(
            reference_summary(), resolution, snapshot, load_equivalency_factors(),
            command="echo", arguments=("<b>&nasty</b>",), generated_at=FROZEN_TIME,
        )
        html = render_html(doc).decode()
        assert "<b>&nasty" not in html
        assert "&lt;b&gt;" in html


class TestPieChart:
    def test_wedge_angles_proportional(self):
        svg = pie_chart([("A", 0.25, "#111111"), ("B", 0.75, "#222222")], size=240)
        # quarter wedge: 12 o'clock to 3 o'clock, r = 114 around (120, 120)
        assert "M 120.00 120.00 L 120.00 6.00 A 114.00 114.00 0 0 1 234.00 120.00 Z" in svg
        # the rest: large-arc flag set
        assert "M 120.00 120.00 L 234.00 120.00 A 114.00 114.00 0 1 1 120.00 6.00 Z" in svg

    def test_full_circle_degenerate(self):
        svg = pie_chart([("Low carbon", 1.0, "#59a14f"), ("Coal", 0.0, "#595959")])
        assert "<circle" in svg
        assert "<path" not in svg

    def test_zero_slices_skipped_but_in_legend(self):
        svg = pie_chart([("A", 1.0, "#111111"), ("B", 0.0, "#222222")])
        assert svg.count("<path") == 0  # full circle for A
        assert "B: 0.0%" in svg

    def test_normalizes_sub_unit_total(self):
        # mix summing to 0.999 still closes the circle: the last wedge ends
        # where the first began (12 o'clock)
        svg = pie_chart([("A", 0.5, "#111111"), ("B", 0.499, "#222222")], size=240)
        assert svg.count("120.00 6.00") == 2

    def test_needs_positive_fraction(self):
        with pytest.raises(ValueError):
            pie_chart([("A", 0.0, "#111111")])


class TestBarPanel:
    def heights(self, svg):
        return [float(h) for h in re.findall(r"height='([0-9.]+)' fill=", svg)]

    def test_heights_proportional(self):
        svg = bar_panel(
            "t",
            [("a", 1.0, "#888888"), ("b", 2.0, "#888888"), ("c", 4.0, "#888888")],
        )
        h = self.heights(svg)
        assert h[2] == pytest.approx(140.0)  # plot height for the default size
        assert h[1] == pytest.approx(h[2] / 2)
        assert h[0] == pytest.approx(h[2] / 4)

    def test_all_zero_values(self):
        svg = bar_panel("t", [("a", 0.0, "#888888"), ("b", 0.0, "#888888")])
        assert all(h == 0.0 for h in self.heights(svg))

    def test_value_labels_scientific(self):
        svg = bar_panel("t", [("a", 0.000104, "#888888")])
        assert "1.04e-04" in svg

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bar_panel("t", [("a", -1.0, "#888888")])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bar_panel("t", [])
