import csv
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from carbonrun.emissions import (
    RANKS,
    ComparisonPanel,
    EquivalencyFactors,
    comparison_sets,
    equivalents_for,
    load_equivalency_factors,
)
from carbonrun.griddata import (
    CANONICAL_INTENSITIES,
    KG_PER_LB,
    EnergyMix,
    RegionRecord,
    SchemaError,
)


def mix_region(coal, oil, gas, low, rate=None):
    return RegionRecord(
        id="zz-test",
        display_name="Test Region",
        mix=EnergyMix(coal=coal, oil=oil, natural_gas=gas, low_carbon=low),
        direct_rate_lbs_per_mwh=rate,
    )

GOOD_TABLE = """key,value,unit,source
kg_per_mile,0.404,kg CO2 per mile,test
kg_per_tv_minute,0.0016182,kg CO2 per minute,test
kg_per_household_day,20.5,kg CO2 per day,test
"""


class TestFactors:
    def test_packaged_defaults(self):
        factors = load_equivalency_factors()
        assert factors.kg_per_mile == pytest.approx(0.404)
        assert factors.kg_per_tv_minute == pytest.approx(0.0016182)
        assert factors.kg_per_household_day == pytest.approx(20.5)

    def test_from_csv(self):
        factors = EquivalencyFactors.from_csv(GOOD_TABLE)
        assert factors.kg_per_mile == 0.404

    def test_missing_key(self):
        table = "key,value,unit,source\nkg_per_mile,0.404,u,s\n"
        with pytest.raises(SchemaError):
            EquivalencyFactors.from_csv(table)

    def test_bad_value(self):
        with pytest.raises(SchemaError) as err:
            EquivalencyFactors.from_csv(GOOD_TABLE.replace("0.404", "lots"))
        assert str(err.value) == "line 2: value='lots' is not a number"

    def test_non_positive_value(self):
        with pytest.raises(SchemaError):
            EquivalencyFactors.from_csv(GOOD_TABLE.replace("0.404", "0"))

    @pytest.mark.parametrize("line", [1, 3])
    def test_oversized_field_names_its_line(self, line):
        lines = GOOD_TABLE.splitlines()
        lines[line - 1] += "x" * (csv.field_size_limit() + 1)
        with pytest.raises(SchemaError, match=f"^line {line}: field larger than field limit"):
            EquivalencyFactors.from_csv("\n".join(lines))

    def test_duplicate_key_names_its_line(self):
        table = GOOD_TABLE + "kg_per_mile,99,kg CO2 per mile,test\n"
        with pytest.raises(SchemaError) as err:
            EquivalencyFactors.from_csv(table)
        assert str(err.value) == "line 5: duplicate equivalency key 'kg_per_mile'"

    def test_missing_columns(self):
        with pytest.raises(SchemaError):
            EquivalencyFactors.from_csv("key,value\nkg_per_mile,0.404\n")

    # the table is read by the grid snapshots' rule (`griddata.read_rows`)
    @pytest.mark.parametrize("header", ["value,key,unit,source", "key,value,unit,source,note"])
    def test_header_must_be_exact(self, header):
        table = GOOD_TABLE.replace("key,value,unit,source", header)
        with pytest.raises(SchemaError) as err:
            EquivalencyFactors.from_csv(table)
        assert str(err.value) == f"bad header: expected key,value,unit,source, got {header}"

    def test_keys_match_case_insensitively(self):
        table = GOOD_TABLE.replace("kg_per_mile,", " KG_per_Mile ,")
        assert EquivalencyFactors.from_csv(table) == EquivalencyFactors.from_csv(GOOD_TABLE)

    @pytest.mark.parametrize("row,got", [("kg_per_mile,0.404", 2),
                                         ("kg_per_mile,0.404,u,s,extra", 5)])
    def test_a_row_has_four_fields(self, row, got):
        table = GOOD_TABLE.replace("kg_per_mile,0.404,kg CO2 per mile,test", row)
        with pytest.raises(SchemaError) as err:
            EquivalencyFactors.from_csv(table)
        assert str(err.value) == f"line 2: expected 4 fields, got {got}"

    def test_a_key_that_names_no_factor_may_not_repeat_either(self):
        table = GOOD_TABLE + "kg_per_km,0.25,kg CO2 per km,test\nKG_PER_KM,0.3,u,s\n"
        with pytest.raises(SchemaError) as err:
            EquivalencyFactors.from_csv(table)
        assert str(err.value) == "line 6: duplicate equivalency key 'kg_per_km'"

    def test_a_key_that_names_no_factor_is_skipped(self):
        table = GOOD_TABLE + "kg_per_km,0.25,kg CO2 per km,test\n"
        assert EquivalencyFactors.from_csv(table) == EquivalencyFactors.from_csv(GOOD_TABLE)

    def test_custom_file(self, tmp_path):
        path = tmp_path / "eq.csv"
        path.write_text(GOOD_TABLE.replace("0.404", "0.5"))
        assert load_equivalency_factors(str(path)).kg_per_mile == 0.5


class TestEmissionsFor:
    """Energy is priced at `RegionRecord.kg_co2_per_kwh`."""

    def test_world_rate_conversion(self, snapshot):
        # 1600.6 lbs/MWh -> kg/kWh
        world = snapshot.regions["world-average"]
        assert world.kg_co2_per_kwh == pytest.approx(1600.6 * 0.453592 / 1000.0)

    def test_scales_linearly(self, snapshot):
        one, ten = comparison_sets(1.0, snapshot), comparison_sets(10.0, snapshot)
        for small, large in zip(one, ten):
            for a, b in zip(small.rows, large.rows):
                assert b.kg_co2 == pytest.approx(10 * a.kg_co2)

    def test_zero_energy(self, snapshot):
        # every intensity is finite and non-negative, so no energy costs no CO2
        for region in snapshot.regions.values():
            assert math.isfinite(region.kg_co2_per_kwh)
            assert region.kg_co2_per_kwh >= 0
            assert 0.0 * region.kg_co2_per_kwh == 0.0

    def test_direct_and_mix_routes_agree_for_world(self, snapshot):
        # the pinned world rate and the canonical-weighted world mix are
        # independent routes to the same number; keep them within 1 kg/MWh
        world = snapshot.regions["world-average"]
        direct = world.direct_rate_lbs_per_mwh * 0.453592
        weighted = world.mix.weighted_kg_per_mwh(CANONICAL_INTENSITIES)
        assert abs(direct - weighted) < 1.0

    def test_routes_identical_when_rate_derives_from_mix(self):
        # a region whose direct rate was produced from its own mix must
        # price energy the same through either route
        with_mix = mix_region(0.5, 0.2, 0.1, 0.2)
        weighted = with_mix.mix.weighted_kg_per_mwh(CANONICAL_INTENSITIES)
        with_rate = mix_region(0.5, 0.2, 0.1, 0.2, rate=weighted / KG_PER_LB)
        via_mix = with_mix.kg_co2_per_kwh
        via_rate = with_rate.kg_co2_per_kwh
        assert via_rate == pytest.approx(via_mix, rel=1e-9)

    @given(
        coal=st.floats(0.0, 1.0),
        oil=st.floats(0.0, 1.0),
        gas=st.floats(0.0, 1.0),
    )
    def test_mix_intensity_never_beats_pure_coal(self, coal, oil, gas):
        fossil = coal + oil + gas
        if fossil > 1.0:
            coal, oil, gas = coal / fossil, oil / fossil, gas / fossil
            fossil = coal + oil + gas
        region = mix_region(coal, oil, gas, max(1.0 - fossil, 0.0))
        # coal is the dirtiest canonical fuel, so no blend can exceed it
        assert region.kg_co2_per_kwh <= 0.996 + 1e-12

    def test_pure_coal_hits_canonical_ceiling(self):
        region = mix_region(1.0, 0.0, 0.0, 0.0)
        assert region.kg_co2_per_kwh == pytest.approx(0.996)


class TestEquivalents:
    def test_unit_factors(self):
        factors = EquivalencyFactors.from_csv(GOOD_TABLE)
        eq = equivalents_for(0.404, factors)
        assert eq.miles_driven == pytest.approx(1.0)
        eq = equivalents_for(20.5, factors)
        assert eq.household_day_percent == pytest.approx(100.0)

    def test_tv_minutes_reference_point(self):
        # 1.78e-3 kg of CO2 is about 1.10 minutes of a 32-in LCD TV
        factors = EquivalencyFactors.from_csv(GOOD_TABLE)
        eq = equivalents_for(1.78e-3, factors)
        assert eq.tv_minutes == pytest.approx(1.10, abs=0.005)

    def test_negative_rejected(self):
        factors = EquivalencyFactors.from_csv(GOOD_TABLE)
        with pytest.raises(ValueError):
            equivalents_for(-0.1, factors)


class TestComparisonSets:
    def test_three_ordered_groups(self, snapshot):
        panels = comparison_sets(0.5, snapshot)
        assert [p.group for p in panels] == ["us", "europe", "global"]
        for panel in panels:
            assert isinstance(panel, ComparisonPanel)
            assert tuple(row.rank for row in panel.rows) == RANKS
            kgs = [row.kg_co2 for row in panel.rows]
            assert kgs == sorted(kgs)

    def test_zero_energy_keeps_structure(self, snapshot):
        for panel in comparison_sets(0.0, snapshot):
            assert len(panel.rows) == 3
            assert all(row.kg_co2 == 0.0 for row in panel.rows)

    def test_values_match_per_region_computation(self, snapshot):
        for panel in comparison_sets(2.0, snapshot):
            for row in panel.rows:
                region = snapshot.regions[row.region_id]
                assert row.kg_co2 == 2.0 * region.kg_co2_per_kwh
                assert row.region_name == region.display_name
