import codecs
import collections
import csv
import io

import pytest

from carbonrun import griddata
from carbonrun.emissions import EQUIV_DATA_FILE, load_equivalency_factors
from carbonrun.griddata import (
    CANONICAL_INTENSITIES,
    EGRID_HEADER,
    EIA_HEADER,
    DatasetSnapshot,
    EnergyMix,
    FuelIntensities,
    RegionGroup,
    SchemaError,
    UnknownRegion,
    parse_egrid,
    parse_eia,
)

US_HEADER_LINE = ",".join(EGRID_HEADER)
INTL_HEADER_LINE = ",".join(EIA_HEADER)


def us_csv(*rows):
    return US_HEADER_LINE + "\n" + "\n".join(rows) + "\n"

def intl_csv(*rows):
    return INTL_HEADER_LINE + "\n" + "\n".join(rows) + "\n"


def serialize_egrid(states):
    """CSV text for (record, fossil generation) pairs, as `parse_egrid`
    returns them; each state's generation is all coal, with no emissions."""
    return write_egrid([
        [rec.id, rec.display_name, *map(_fmt, rec.mix), _fmt(rec.direct_rate_lbs_per_mwh),
         _fmt(generation), "0", "0", "0", "0", "0"]
        for rec, generation in states
    ])


def write_egrid(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(EGRID_HEADER)
    writer.writerows(rows)
    return buf.getvalue()


def uniform_generation_us_text(mwh):
    """The packaged US snapshot with every state's generation of each fuel at
    `mwh` and its emissions at 0."""
    text = griddata.read_data(None, griddata.US_DATA_FILE)
    rows = list(csv.reader(io.StringIO(text)))[1:]
    first = EGRID_HEADER.index(griddata.GENERATION_COLUMNS[0])
    for row in rows:
        row[first:] = [_fmt(mwh)] * 3 + ["0"] * 3
    return write_egrid(rows)


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
# a state row with one defect, and the error that names it on its line
BAD_STATES = {
    GOOD_STATE.replace("0.5,0.1", "1.5,0.1"): "mix fraction coal=1.5 outside [0, 1]",
    GOOD_STATE.replace("0.5,0.1", "0.5,-0.01"): "mix fraction oil=-0.01 outside [0, 1]",
    GOOD_STATE.replace("0.2,0.2,1000", "0.2,0.0,1000"): "mix fractions sum to 0.8, expected ~1",
    GOOD_STATE.replace("1000.0", "-5.0"): "negative output_rate_lbs_per_mwh -5.0",
    GOOD_STATE.replace("500000", "-500000"): "negative coal_gen_mwh -500000.0",
    GOOD_STATE.replace("500.0", "nan"): "coal_emit_kt='nan' is not finite",
    GOOD_STATE + ",extra": "expected 13 fields, got 14",
    GOOD_STATE.replace("1000.0", "abc"): "output_rate_lbs_per_mwh='abc' is not a number",
    GOOD_STATE.replace("us-zz,", ","): "empty state id or name",
}


class TestEnergyMix:
    def test_valid(self):
        mix = EnergyMix(0.287, 0.229, 0.339, 0.144)
        assert mix._asdict()["natural_gas"] == 0.339
        # the checks and the weighted sum pair fields with FUELS by position
        assert EnergyMix._fields == FuelIntensities._fields == griddata.FUELS

    def test_replace_checks_the_new_values(self):
        mix = EnergyMix(0.287, 0.229, 0.339, 0.144)
        with pytest.raises(ValueError, match="outside"):
            mix._replace(coal=1.5)

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
        [(record, generation)] = parse_egrid(us_csv(GOOD_STATE))
        assert record.id == "us-zz"
        assert record.display_name == "Testonia"
        assert record.group is RegionGroup.US
        assert record.direct_rate_lbs_per_mwh == 1000.0
        # coal, oil and gas generation, summed in that order
        assert generation == 500000.0 + 100000.0 + 200000.0

    def test_round_trip(self):
        states = parse_egrid(us_csv(GOOD_STATE))
        assert parse_egrid(serialize_egrid(states)) == states

    def test_packaged_snapshot_round_trips(self):
        text = griddata.read_data(None, griddata.US_DATA_FILE)
        states = parse_egrid(text)
        assert len(states) == 51
        assert parse_egrid(serialize_egrid(states)) == states

    def test_the_generation_sum_is_all_the_us_average_keeps(self, tmp_path, snapshot):
        # the same sums, spread over the fuels otherwise, weight the same average
        us = tmp_path / "us.csv"
        us.write_text(serialize_egrid(parse_egrid(griddata.read_data(None, griddata.US_DATA_FILE))))
        assert DatasetSnapshot.load(str(us)).regions == snapshot.regions

    def test_header_mismatch(self):
        with pytest.raises(SchemaError):
            parse_egrid("state,name\nus-zz,Testonia\n")

    @pytest.mark.parametrize("line", [1, 2])
    def test_oversized_field_names_its_line(self, line):
        lines = us_csv(GOOD_STATE).splitlines()
        lines[line - 1] += "x" * (csv.field_size_limit() + 1)
        with pytest.raises(SchemaError, match=f"^line {line}: field larger than field limit"):
            parse_egrid("\n".join(lines))

    @pytest.mark.parametrize("mutation", BAD_STATES)
    def test_bad_rows(self, mutation):
        with pytest.raises(SchemaError) as err:
            parse_egrid(us_csv(mutation))
        assert str(err.value) == f"line 2: {BAD_STATES[mutation]}"

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
                # in any case, with any spaces around the name
                "su, Former U.S.S.R. ,false,0.5,0.1,0.2,0.2",
                "yu,FORMER YUGOSLAVIA,true,0.5,0.1,0.2,0.2",
                "ht,Hawaiian Trade Zone,false,0.5,0.1,0.2,0.2",
                "zz,Testland,false,0.5,0.1,0.2,0.2",
            )
        )
        assert [r.id for r in recs] == ["zz"]

    @pytest.mark.parametrize("excluded_first", [True, False])
    def test_an_excluded_row_is_dropped_before_the_duplicate_id_check(self, excluded_first):
        rows = ["zz, Former U.S.S.R. ,false,0.5,0.1,0.2,0.2",
                "zz,Testland,false,0.5,0.1,0.2,0.2"]
        recs = parse_eia(intl_csv(*(rows if excluded_first else rows[::-1])))
        assert [r.display_name for r in recs] == ["Testland"]

    def test_negligible_negative_clamped(self):
        recs = parse_eia(intl_csv("zz,Testland,false,0.5,-1e-12,0.3,0.2"))
        assert recs[0].mix.oil == 0.0

    def test_real_negative_rejected(self):
        with pytest.raises(SchemaError, match="^line 2: "):
            parse_eia(intl_csv("zz,Testland,false,0.5,-0.01,0.31,0.2"))

    def test_empty_country_name(self):
        with pytest.raises(SchemaError, match="^line 2: empty country id or name$"):
            parse_eia(intl_csv("zz,,false,0.5,0.1,0.2,0.2"))

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
    # acceptance criterion 4 derives the per-fuel intensities of the packaged
    # states; what every mix-only region prices with is pinned here
    def test_canonical_constants(self):
        c = CANONICAL_INTENSITIES
        assert (c.coal, c.oil, c.natural_gas, c.low_carbon) == (996.0, 817.0, 744.0, 0.0)


class TestEffectiveIntensity:
    def test_direct_rate_takes_precedence(self, snapshot):
        wyoming = snapshot.lookup("wyoming")
        assert wyoming.kg_co2_per_kwh == pytest.approx(
            wyoming.direct_rate_lbs_per_mwh * 0.453592 / 1000.0
        )

    def test_mix_route_for_countries(self, snapshot):
        germany = snapshot.lookup("germany")
        expected = germany.mix.weighted_kg_per_mwh(CANONICAL_INTENSITIES) / 1000.0
        assert germany.kg_co2_per_kwh == expected


class TestSnapshot:
    def test_aggregates_exist(self, snapshot):
        for agg_id in ("us-average", "europe-average", "world-average"):
            assert snapshot.regions[agg_id].group is None

    def test_world_aggregate_pinned(self, snapshot):
        world = snapshot.regions["world-average"]
        assert world.direct_rate_lbs_per_mwh == 1600.6
        assert world.mix.coal == 0.287

    def test_us_aggregate_rate_within_state_range(self, snapshot):
        rates = [
            r.direct_rate_lbs_per_mwh
            for r in snapshot.regions.values()
            if r.group is RegionGroup.US
        ]
        us = snapshot.regions["us-average"]
        assert min(rates) < us.direct_rate_lbs_per_mwh < max(rates)

    def test_europe_aggregate_is_mean_mix(self, snapshot):
        europe = [r for r in snapshot.regions.values() if r.group is RegionGroup.EUROPE]
        agg = snapshot.regions["europe-average"]
        expected = sum(c.mix.coal for c in europe) / len(europe)
        assert agg.mix.coal == pytest.approx(expected)

    def test_europe_aggregate_mix_is_pinned(self, snapshot):
        # each share summed left to right, as Python 3.11's sum() does; the
        # compensated sum() of 3.12 moves coal, oil and gas in the last bits
        assert tuple(snapshot.regions["europe-average"].mix) == (
            0.18965384615384612, 0.08473076923076915, 0.22323076923076932, 0.5023846153846153)

    def test_region_partition(self, snapshot):
        sizes = collections.Counter(r.group for r in snapshot.regions.values())
        assert sizes[RegionGroup.US] == 51
        assert sizes[RegionGroup.EUROPE] + sizes[RegionGroup.GLOBAL] == 186
        assert len(snapshot.regions) == 51 + 186 + 3

    def test_data_files_saved_with_a_byte_order_mark_load(self, snapshot, tmp_path):
        # as a spreadsheet's "CSV UTF-8" saves them
        paths = {}
        for name in (griddata.US_DATA_FILE, griddata.INTL_DATA_FILE, EQUIV_DATA_FILE):
            paths[name] = tmp_path / name
            paths[name].write_bytes(codecs.BOM_UTF8 + griddata.read_data(None, name).encode())
            assert griddata.read_data(str(paths[name]), name) == griddata.read_data(None, name)
        loaded = DatasetSnapshot.load(str(paths[griddata.US_DATA_FILE]),
                                      str(paths[griddata.INTL_DATA_FILE]))
        assert loaded.regions == snapshot.regions
        assert load_equivalency_factors(str(paths[EQUIV_DATA_FILE])) == load_equivalency_factors()


    def test_a_region_in_both_snapshots_is_rejected(self, tmp_path):
        us, intl = tmp_path / "us.csv", tmp_path / "intl.csv"
        us_text = griddata.read_data(None, griddata.US_DATA_FILE)
        assert us_text.count("\nus-ca,") == 1
        us.write_text(us_text.replace("\nus-ca,", "\nde,"))
        intl.write_text(griddata.read_data(None, griddata.INTL_DATA_FILE))
        with pytest.raises(SchemaError, match="^region id 'de' appears in both snapshots$"):
            DatasetSnapshot.load(str(us), str(intl))

    def test_a_us_snapshot_with_no_fossil_generation_is_rejected(self, tmp_path):
        # its generation weights the US average, which geolocation falls back to
        us = tmp_path / "us.csv"
        us.write_text(uniform_generation_us_text(0.0))
        with pytest.raises(
            SchemaError,
            match="^no US state reports fossil generation to weight the US average by$",
        ):
            DatasetSnapshot.load(str(us))

    def test_a_us_snapshot_whose_weighted_sums_overflow_is_rejected(self, tmp_path):
        # each generation figure is a finite float, but their sums are not
        us = tmp_path / "us.csv"
        us.write_text(uniform_generation_us_text(1e308))
        with pytest.raises(
            SchemaError,
            match="^the US states' generation is too large to weight the US average by$",
        ):
            DatasetSnapshot.load(str(us))


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
        assert snapshot.lookup("ge").group is RegionGroup.EUROPE

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
                "eu,Europa,true,0.5,0.1,0.2,0.2",
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
        intl.write_text(intl_csv(*rows, "eu,Europa,true,0.5,0.1,0.2,0.2"))
        snap = DatasetSnapshot.load(str(us), str(intl))
        low, median, high = snap.extremes(RegionGroup.GLOBAL)
        # four members: lower-middle is index 1
        assert (low.id, median.id, high.id) == ("c0", "c1", "c3")

    def test_empty_group(self, tmp_path):
        us = tmp_path / "us.csv"
        intl = tmp_path / "intl.csv"
        us.write_text(us_csv(GOOD_STATE))
        intl.write_text(intl_csv("zz,Testland,true,0.5,0.1,0.2,0.2"))
        with pytest.raises(SchemaError, match="no regions in group 'global'"):
            DatasetSnapshot.load(str(us), str(intl))
