import csv
import pytest
from hypothesis import given
from hypothesis import strategies as st

from carbonrun.emissions import (
    ComparisonSet,
    EquivalencyError,
    EquivalencyFactors,
    comparison_sets,
    emissions_for,
    equivalents_for,
    load_equivalency_factors,
)
from carbonrun.griddata import (
    CANONICAL_INTENSITIES,
    KG_PER_LB,
    EnergyMix,
    RegionGroup,
    RegionKind,
    RegionRecord,
    effective_intensity_kg_per_kwh,
)


def mix_region(coal, oil, gas, low, rate=None):
    return RegionRecord(
        id="zz-test",
        display_name="Test Region",
        kind=RegionKind.COUNTRY,
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
        with pytest.raises(EquivalencyError):
            EquivalencyFactors.from_csv(table)

    def test_bad_value(self):
        with pytest.raises(EquivalencyError):
            EquivalencyFactors.from_csv(GOOD_TABLE.replace("0.404", "lots"))

    def test_non_positive_value(self):
        with pytest.raises(EquivalencyError):
            EquivalencyFactors.from_csv(GOOD_TABLE.replace("0.404", "0"))

    @pytest.mark.parametrize("line", [1, 3])
    def test_oversized_field_names_its_line(self, line):
        lines = GOOD_TABLE.splitlines()
        lines[line - 1] += "x" * (csv.field_size_limit() + 1)
        with pytest.raises(EquivalencyError, match=f"^line {line}: field larger than field limit"):
            EquivalencyFactors.from_csv("\n".join(lines))

    def test_missing_columns(self):
        with pytest.raises(EquivalencyError):
            EquivalencyFactors.from_csv("key,value\nkg_per_mile,0.404\n")

    def test_custom_file(self, tmp_path):
        path = tmp_path / "eq.csv"
        path.write_text(GOOD_TABLE.replace("0.404", "0.5"))
        assert load_equivalency_factors(str(path)).kg_per_mile == 0.5


class TestEmissionsFor:
    def test_world_rate_conversion(self, snapshot):
        world = snapshot.regions["world-average"]
        result = emissions_for(1.0, world)
        # 1600.6 lbs/MWh -> kg/kWh
        assert result.kg_co2 == pytest.approx(1600.6 * 0.453592 / 1000.0)
        assert result.intensity_kg_per_kwh == result.kg_co2

    def test_scales_linearly(self, snapshot):
        wyoming = snapshot.lookup("wyoming")
        one = emissions_for(1.0, wyoming)
        ten = emissions_for(10.0, wyoming)
        assert ten.kg_co2 == pytest.approx(10 * one.kg_co2)

    def test_zero_energy(self, snapshot):
        assert emissions_for(0.0, snapshot.lookup("france")).kg_co2 == 0.0

    def test_negative_energy_rejected(self, snapshot):
        with pytest.raises(ValueError):
            emissions_for(-1.0, snapshot.lookup("france"))

    def test_direct_and_mix_routes_agree_for_world(self, snapshot):
        # the pinned world rate and the canonical-weighted world mix are
        # independent routes to the same number; keep them within 1 kg/MWh
        world = snapshot.regions["world-average"]
        direct = world.direct_rate_lbs_per_mwh * 0.453592
        weighted = world.mix.weighted_kg_per_mwh(snapshot.intensities)
        assert abs(direct - weighted) < 1.0

    def test_routes_identical_when_rate_derives_from_mix(self):
        # a region whose direct rate was produced from its own mix must
        # price energy the same through either route
        with_mix = mix_region(0.5, 0.2, 0.1, 0.2)
        weighted = with_mix.mix.weighted_kg_per_mwh(CANONICAL_INTENSITIES)
        with_rate = mix_region(0.5, 0.2, 0.1, 0.2, rate=weighted / KG_PER_LB)
        via_mix = effective_intensity_kg_per_kwh(with_mix)
        via_rate = effective_intensity_kg_per_kwh(with_rate)
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
        assert effective_intensity_kg_per_kwh(region) <= 0.996 + 1e-12

    def test_pure_coal_hits_canonical_ceiling(self):
        region = mix_region(1.0, 0.0, 0.0, 0.0)
        assert effective_intensity_kg_per_kwh(region) == pytest.approx(0.996)


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
        sets = comparison_sets(0.5, snapshot)
        assert [s.group for s in sets] == [
            RegionGroup.US,
            RegionGroup.EUROPE,
            RegionGroup.GLOBAL,
        ]
        for cset in sets:
            assert isinstance(cset, ComparisonSet)
            kgs = [kg for _, kg in cset.entries]
            assert kgs == sorted(kgs)
            assert len(cset.entries) == 3

    def test_zero_energy_keeps_structure(self, snapshot):
        for cset in comparison_sets(0.0, snapshot):
            assert all(kg == 0.0 for _, kg in cset.entries)

    def test_values_match_per_region_computation(self, snapshot):
        for cset in comparison_sets(2.0, snapshot):
            for record, kg in cset.entries:
                assert kg == pytest.approx(emissions_for(2.0, record, snapshot.intensities).kg_co2)
