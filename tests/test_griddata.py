import csv
import io

import pytest

from carbonrun import griddata
from carbonrun.griddata import (
    CANONICAL_INTENSITIES,
    EGRID_HEADER,
    EIA_HEADER,
    DatasetSnapshot,
    EmptyGroup,
    EnergyMix,
    FuelIntensities,
    RegionGroup,
    RegionKind,
    SchemaError,
    UnknownRegion,
    ZeroGeneration,
    derive_fuel_intensity,
    effective_intensity_kg_per_kwh,
    parse_egrid,
    parse_eia,
)

US_HEADER_LINE = ",".join(EGRID_HEADER)
INTL_HEADER_LINE = ",".join(EIA_HEADER)


def us_csv(*rows):
    return US_HEADER_LINE + "\n" + "\n".join(rows) + "\n"

def intl_csv(*rows):
    return INTL_HEADER_LINE + "\n" + "\n".join(rows) + "\n"


def serialize_egrid(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(EGRID_HEADER)
    for row in rows:
        rec, mix = row.record, row.record.mix
        writer.writerow(
            [
                rec.id,
                rec.display_name,
                _fmt(mix.coal),
                _fmt(mix.oil),
                _fmt(mix.natural_gas),
                _fmt(mix.low_carbon),
                _fmt(rec.direct_rate_lbs_per_mwh),
                _fmt(row.generation_mwh["coal"]),
                _fmt(row.generation_mwh["oil"]),
                _fmt(row.generation_mwh["natural_gas"]),
                _fmt(row.emissions_kt["coal"]),
                _fmt(row.emissions_kt["oil"]),
                _fmt(row.emissions_kt["natural_gas"]),
            ]
        )
    return buf.getvalue()


def serialize_eia(records):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(EIA_HEADER)
    for rec in records:
        writer.writerow(
            [
                rec.id,
                rec.display_name,
                "true" if rec.group is RegionGroup.EUROPE else "false",
                _fmt(rec.mix.coal),
                _fmt(rec.mix.oil),
                _fmt(rec.mix.natural_gas),
                _fmt(rec.mix.low_carbon),
            ]
        )
    return buf.getvalue()


def _fmt(value):
    # repr of a float round-trips exactly; ints stay ints for readability
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


GOOD_STATE = "us-zz,Testonia,0.5,0.1,0.2,0.2,1000.0,500000,100000,200000,500.0,80.0,150.0"


class TestEnergyMix:
    def test_valid(self):
        mix = EnergyMix(0.287, 0.229, 0.339, 0.144)
        assert mix.as_dict()["natural_gas"] == 0.339

    @pytest.mark.parametrize("bad", [-0.01, 1.01, float("nan")])
    def test_fraction_range(self, bad):
        with pytest.raises(ValueError):
            EnergyMix(bad, 0.0, 0.0, max(0.0, 1.0 - bad if bad == bad else 0.0))

    def test_sum_out_of_tolerance(self):
        with pytest.raises(ValueError):
            EnergyMix(0.5, 0.2, 0.1, 0.1)  # sums to 0.9

    def test_weighting(self):
        mix = EnergyMix(0.5, 0.0, 0.5, 0.0)
        weights = FuelIntensities(1000.0, 817.0, 500.0, 0.0)
        assert mix.weighted_kg_per_mwh(weights) == pytest.approx(750.0)


class TestParseEgrid:
    def test_happy_row(self):
        rows = parse_egrid(us_csv(GOOD_STATE))
        row = rows[0]
        assert row.record.id == "us-zz"
        assert row.record.kind is RegionKind.US_STATE
        assert row.record.group is RegionGroup.US
        assert row.record.direct_rate_lbs_per_mwh == 1000.0
        assert row.generation_mwh["coal"] == 500000
        assert row.emissions_kt["natural_gas"] == 150.0

    def test_round_trip(self):
        rows = parse_egrid(us_csv(GOOD_STATE))
        assert parse_egrid(serialize_egrid(rows)) == rows

    def test_packaged_snapshot_round_trips(self):
        text = griddata.read_data(None, griddata.US_DATA_FILE)
        rows = parse_egrid(text)
        assert len(rows) == 51
        assert parse_egrid(serialize_egrid(rows)) == rows

    def test_header_mismatch(self):
        with pytest.raises(SchemaError):
            parse_egrid("state,name\nus-zz,Testonia\n")

    @pytest.mark.parametrize(
        "mutation",
        [
            GOOD_STATE.replace("0.5,0.1", "1.5,0.1"),           # frac > 1
            GOOD_STATE.replace("0.2,0.2,1000", "0.2,0.0,1000"),  # sum 0.8
            GOOD_STATE.replace("1000.0", "-5.0"),                # negative rate
            GOOD_STATE.replace("500000", "-500000"),             # negative gen
            GOOD_STATE.replace("500.0", "nan"),                  # NaN emissions
            GOOD_STATE + ",extra",                               # field count
        ],
    )
    def test_bad_rows(self, mutation):
        with pytest.raises(SchemaError):
            parse_egrid(us_csv(mutation))

    def test_duplicate_state_id(self):
        with pytest.raises(SchemaError):
            parse_egrid(us_csv(GOOD_STATE, GOOD_STATE))


class TestParseEia:
    def test_happy_row(self):
        recs = parse_eia(intl_csv("zz,Testland,true,0.5,0.1,0.2,0.2"))
        assert recs[0].group is RegionGroup.EUROPE
        assert recs[0].direct_rate_lbs_per_mwh is None

    def test_non_europe_is_global(self):
        recs = parse_eia(intl_csv("zz,Testland,false,0.5,0.1,0.2,0.2"))
        assert recs[0].group is RegionGroup.GLOBAL

    def test_defunct_entities_dropped(self):
        recs = parse_eia(
            intl_csv(
                "su,Former U.S.S.R.,false,0.5,0.1,0.2,0.2",
                "yu,Former Yugoslavia,true,0.5,0.1,0.2,0.2",
                "ht,Hawaiian Trade Zone,false,0.5,0.1,0.2,0.2",
                "zz,Testland,false,0.5,0.1,0.2,0.2",
            )
        )
        assert [r.id for r in recs] == ["zz"]

    def test_negligible_negative_clamped(self):
        recs = parse_eia(intl_csv("zz,Testland,false,0.5,-1e-12,0.3,0.2"))
        assert recs[0].mix.oil == 0.0

    def test_real_negative_rejected(self):
        with pytest.raises(SchemaError):
            parse_eia(intl_csv("zz,Testland,false,0.5,-0.01,0.31,0.2"))

    def test_bad_is_europe(self):
        with pytest.raises(SchemaError):
            parse_eia(intl_csv("zz,Testland,maybe,0.5,0.1,0.2,0.2"))

    def test_round_trip(self):
        recs = parse_eia(intl_csv("zz,Testland,true,0.5,0.1,0.2,0.2"))
        assert parse_eia(serialize_eia(recs)) == recs

    def test_packaged_snapshot_round_trips(self):
        text = griddata.read_data(None, griddata.INTL_DATA_FILE)
        recs = parse_eia(text)
        assert len(recs) == 186
        assert parse_eia(serialize_eia(recs)) == recs


class TestDeriveFuelIntensity:
    def test_simple_ratio(self):
        out = derive_fuel_intensity(
            {"coal": 1_000_000, "oil": 500_000, "natural_gas": 2_000_000},
            {"coal": 996.0, "oil": 408.5, "natural_gas": 1488.0},
        )
        assert out.coal == pytest.approx(996.0)
        assert out.oil == pytest.approx(817.0)
        assert out.natural_gas == pytest.approx(744.0)
        assert out.low_carbon == 0.0

    def test_zero_generation_zero_emissions(self):
        out = derive_fuel_intensity({"coal": 0.0}, {"coal": 0.0})
        assert out.coal == 0.0

    def test_zero_generation_with_emissions(self):
        with pytest.raises(ZeroGeneration):
            derive_fuel_intensity({"coal": 0.0}, {"coal": 5.0})

    def test_canonical_constants(self):
        c = CANONICAL_INTENSITIES
        assert (c.coal, c.oil, c.natural_gas, c.low_carbon) == (996.0, 817.0, 744.0, 0.0)


class TestEffectiveIntensity:
    def test_direct_rate_takes_precedence(self, snapshot):
        wyoming = snapshot.lookup("wyoming")
        direct = effective_intensity_kg_per_kwh(wyoming, snapshot.intensities)
        assert direct == pytest.approx(
            wyoming.direct_rate_lbs_per_mwh * 0.453592 / 1000.0
        )

    def test_mix_route_for_countries(self, snapshot):
        germany = snapshot.lookup("germany")
        expected = germany.mix.weighted_kg_per_mwh(snapshot.intensities) / 1000.0
        assert effective_intensity_kg_per_kwh(germany, snapshot.intensities) == expected


class TestSnapshot:
    def test_aggregates_exist(self, snapshot):
        for agg_id in ("us-average", "europe-average", "world-average"):
            assert snapshot.regions[agg_id].kind is RegionKind.AGGREGATE

    def test_world_aggregate_pinned(self, snapshot):
        world = snapshot.regions["world-average"]
        assert world.direct_rate_lbs_per_mwh == 1600.6
        assert world.mix.coal == 0.287

    def test_us_aggregate_rate_within_state_range(self, snapshot):
        rates = [
            r.direct_rate_lbs_per_mwh
            for r in snapshot.members(RegionGroup.US)
        ]
        us = snapshot.regions["us-average"]
        assert min(rates) < us.direct_rate_lbs_per_mwh < max(rates)

    def test_europe_aggregate_is_mean_mix(self, snapshot):
        europe = snapshot.members(RegionGroup.EUROPE)
        agg = snapshot.regions["europe-average"]
        expected = sum(c.mix.coal for c in europe) / len(europe)
        assert agg.mix.coal == pytest.approx(expected)

    def test_region_partition(self, snapshot):
        us = snapshot.members(RegionGroup.US)
        europe = snapshot.members(RegionGroup.EUROPE)
        other = snapshot.members(RegionGroup.GLOBAL)
        assert len(us) == 51
        assert len(europe) + len(other) == 186
        assert len(snapshot.regions) == 51 + 186 + 3


class TestLookup:
    @pytest.mark.parametrize(
        "key,expected",
        [
            ("wyoming", "us-wy"),
            ("WYOMING", "us-wy"),
            ("us-wy", "us-wy"),
            ("US-WY", "us-wy"),
            ("United States (average)", "us-average"),
            ("us average", "us-average"),
            ("us_average", "us-average"),
            ("germany", "de"),
            ("South Korea", "kr"),
            ("district of columbia", "us-dc"),
        ],
    )
    def test_hits(self, snapshot, key, expected):
        assert snapshot.lookup(key).id == expected

    def test_state_shadows_country_by_name(self, snapshot):
        assert snapshot.lookup("georgia").id == "us-ga"
        assert snapshot.lookup("ge").id == "ge"
        assert snapshot.lookup("ge").kind is RegionKind.COUNTRY

    def test_state_postal_code_needs_us_prefix(self, snapshot):
        assert snapshot.lookup("us-wy") == snapshot.lookup("Wyoming")
        with pytest.raises(UnknownRegion):
            snapshot.lookup("wy")
        assert snapshot.lookup("de").display_name == "Germany"
        assert snapshot.lookup("in").display_name == "India"

    def test_unknown_gets_suggestions(self, snapshot):
        with pytest.raises(UnknownRegion) as err:
            snapshot.lookup("wioming")
        assert "Wyoming" in str(err.value)

    def test_unknown_no_match(self, snapshot):
        with pytest.raises(UnknownRegion):
            snapshot.lookup("xyzzyplugh")


class TestExtremes:
    def test_tie_break_is_region_id(self, tmp_path):
        us = tmp_path / "us.csv"
        intl = tmp_path / "intl.csv"
        us.write_text(us_csv(GOOD_STATE))
        # bb and aa have identical mixes; aa must sort first
        intl.write_text(
            intl_csv(
                "bb,Beeland,false,0.5,0.1,0.2,0.2",
                "aa,Ayland,false,0.5,0.1,0.2,0.2",
                "cc,Sealand,false,0.9,0.05,0.05,0.0",
            )
        )
        snap = DatasetSnapshot.load(str(us), str(intl))
        low, median, high = snap.extremes(RegionGroup.GLOBAL)
        assert (low.id, median.id, high.id) == ("aa", "bb", "cc")

    def test_median_is_lower_middle(self, tmp_path):
        us = tmp_path / "us.csv"
        intl = tmp_path / "intl.csv"
        us.write_text(us_csv(GOOD_STATE))
        rows = [
            f"c{i},Land{i},false,{frac:.4f},0.0,0.0,{1 - frac:.4f}"
            for i, frac in enumerate((0.1, 0.2, 0.3, 0.4))
        ]
        intl.write_text(intl_csv(*rows))
        snap = DatasetSnapshot.load(str(us), str(intl))
        low, median, high = snap.extremes(RegionGroup.GLOBAL)
        # four members: lower-middle is index 1
        assert (low.id, median.id, high.id) == ("c0", "c1", "c3")

    def test_empty_group(self, tmp_path):
        us = tmp_path / "us.csv"
        intl = tmp_path / "intl.csv"
        us.write_text(us_csv(GOOD_STATE))
        intl.write_text(intl_csv("zz,Testland,true,0.5,0.1,0.2,0.2"))
        snap = DatasetSnapshot.load(str(us), str(intl))
        with pytest.raises(EmptyGroup):
            snap.extremes(RegionGroup.GLOBAL)
